"""Deterministic JSON/CSV emission: 17 significant digits, stable ordering.

JSON output never contains NaN or infinities; callers encode failures as
structured error objects instead.  Dict insertion order is the emission
order, so identical inputs yield identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from .errors import InvalidParams
from .model import Trajectory

SCHEMA = "heun-rsj/1"

__all__ = [
    "SCHEMA",
    "fmt_float",
    "json_dumps",
    "write_csv",
    "trajectory_to_csv",
    "trajectory_to_json",
    "read_trajectory_csv",
]


def fmt_float(x: float) -> str:
    """17-significant-digit decimal form; round-trips every double exactly."""
    if not math.isfinite(x):
        raise InvalidParams(f"cannot serialise non-finite float {x!r}")
    return format(float(x), ".17g")


def _emit(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise InvalidParams(f"JSON keys must be strings, got {k!r}")
            if i:
                out.append(", ")
            out.append(json.dumps(k))
            out.append(": ")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, v in enumerate(list(obj)):
            if i:
                out.append(", ")
            _emit(v, out)
        out.append("]")
    else:
        raise InvalidParams(f"cannot serialise {type(obj).__name__}")


def json_dumps(obj) -> str:
    """Serialise to a single JSON line plus trailing newline."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out) + "\n"


def write_csv(header: list[str], rows: list[list]) -> str:
    """CSV text with mandatory header; floats at 17 significant digits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [
                fmt_float(c) if isinstance(c, (float, np.floating)) else c
                for c in row
            ]
        )
    return buf.getvalue()


def _columns(traj: Trajectory) -> list[str]:
    return ["t", "phi"] if traj.kind == "phase" else ["t", "x", "y"]


def trajectory_to_csv(traj: Trajectory) -> str:
    rows = [
        [float(t), *map(float, vals)]
        for t, vals in zip(traj.times, traj.values)
    ]
    return write_csv(_columns(traj), rows)


def trajectory_to_json(traj: Trajectory) -> str:
    return json_dumps(
        {
            "schema": SCHEMA,
            "kind": traj.kind,
            "columns": _columns(traj),
            "rows": [[float(t), *map(float, v)] for t, v in zip(traj.times, traj.values)],
        }
    )


def read_trajectory_csv(text: str) -> Trajectory:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header not in (["t", "phi"], ["t", "x", "y"]):
        raise InvalidParams(f"unrecognised trajectory header {header!r}")
    data = np.array([[float(c) for c in row] for row in reader if row])
    traj = Trajectory(times=data[:, 0], values=data[:, 1:])
    if _columns(traj) != header:
        raise InvalidParams(f"header {header!r} over rows of {data.shape[1]} cells")
    return traj
