"""Deterministic JSON/CSV emission: 17 significant digits, stable ordering.

JSON output never contains NaN or infinities; callers encode failures as
structured error objects instead.  Dict insertion order is the emission
order, so identical inputs yield identical bytes.

Numeric tables leave through one columnar emitter (:func:`table_rows`,
:func:`write_table`): it takes whole columns, checks each for finiteness
once, and writes each row with a single ``%`` format, in the bytes that
:func:`fmt_float` and :func:`json_dumps` give cell by cell.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _string

import numpy as np

from .errors import InvalidParams
from .model import Trajectory

SCHEMA = "heun-rsj/1"

__all__ = [
    "SCHEMA",
    "fmt_float",
    "json_dumps",
    "table_rows",
    "write_table",
    "trajectory_to_csv",
    "trajectory_to_json",
]


def fmt_float(x: float) -> str:
    """17-significant-digit decimal form; round-trips every double exactly."""
    if not math.isfinite(x):
        raise InvalidParams(f"cannot serialise non-finite float {x!r}")
    return format(float(x), ".17g")


def _emit(obj, out: list[str]) -> None:
    """Append the JSON text of ``obj``: by its exact type first, the common
    case, then by :func:`_emit_other` for numpy values, subclasses and the
    typed error, in the same bytes."""
    kind = type(obj)
    if kind is float:
        out.append(fmt_float(obj))
    elif kind is str:
        out.append(_string(obj))
    elif kind is dict:
        _emit_dict(obj, out)
    elif kind is list or kind is tuple:
        _emit_list(obj, out)
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif kind is int:
        out.append(str(obj))
    else:
        _emit_other(obj, out)


def _emit_other(obj, out: list[str]) -> None:
    """:func:`_emit` of a value whose type is none of its exact types."""
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(_string(obj))
    elif isinstance(obj, dict):
        _emit_dict(obj, out)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        _emit_list(list(obj), out)
    else:
        raise InvalidParams(f"cannot serialise {type(obj).__name__}")


def _emit_dict(obj: dict, out: list[str]) -> None:
    out.append("{")
    for i, (k, v) in enumerate(obj.items()):
        if not isinstance(k, str):
            raise InvalidParams(f"JSON keys must be strings, got {k!r}")
        if i:
            out.append(", ")
        out.append(_string(k))
        out.append(": ")
        _emit(v, out)
    out.append("}")


def _emit_list(obj, out: list[str]) -> None:
    out.append("[")
    for i, v in enumerate(obj):
        if i:
            out.append(", ")
        _emit(v, out)
    out.append("]")


def json_dumps(obj) -> str:
    """Serialise to a single JSON line plus trailing newline."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out) + "\n"


def _field(column: np.ndarray, present=None) -> str:
    """Conversion of one column: ``%d`` for ints, ``%.17g`` for floats.

    A float column must be finite wherever ``present`` is set (everywhere
    without a mask), as :func:`fmt_float` requires of each cell.
    """
    if column.dtype.kind != "f":
        return "%d"
    finite = np.isfinite(column)
    if present is not None:
        finite |= ~present
    if not finite.all():
        fmt_float(column[np.argmin(finite)].item())  # raises InvalidParams
    return "%.17g"


def table_rows(
    columns, optional=(), present=None, sep=",", brackets=("", "")
) -> list[str]:
    """The rows of a table given as whole 1-d columns, one ``%`` format a
    row.

    Ints print as ints and floats at 17 significant digits, the cells of a
    row joined by ``sep`` between ``brackets``.  The ``optional`` columns
    follow ``columns``; in a row where the boolean mask ``present`` is not
    set their cells are empty, and their values are neither checked nor
    printed.
    """
    required = len(columns)
    cols = [np.asarray(c) for c in (*columns, *optional)]
    fields = [_field(c, present if i >= required else None) for i, c in enumerate(cols)]
    values = [c.tolist() for c in cols]
    opening, closing = brackets
    # printf-style formatting takes about two thirds of the time of
    # str.format for the same bytes.
    full = opening + sep.join(fields) + closing
    rows = list(map(full.__mod__, zip(*values)))
    if present is not None and not present.all():
        short = opening + sep.join(fields[:required]) + sep * len(optional) + closing
        for i in np.flatnonzero(~present).tolist():
            rows[i] = short % tuple(v[i] for v in values[:required])
    return rows


def write_table(header: list[str], columns, optional=(), present=None) -> str:
    """CSV text of a table given as whole columns (:func:`table_rows`): a
    header line, then one line a row."""
    return "\n".join([",".join(header), *table_rows(columns, optional, present)]) + "\n"


def _columns(traj: Trajectory) -> list[str]:
    return ["t", "phi"] if traj.kind == "phase" else ["t", "x", "y"]


def trajectory_to_csv(traj: Trajectory) -> str:
    return write_table(_columns(traj), [traj.times, *traj.values.T])


def trajectory_to_json(traj: Trajectory) -> str:
    # The header object without its closing "}\n", then the rows.
    head = json_dumps({"schema": SCHEMA, "kind": traj.kind, "columns": _columns(traj)})
    rows = table_rows([traj.times, *traj.values.T], sep=", ", brackets=("[", "]"))
    return f'{head[:-2]}, "rows": [{", ".join(rows)}]}}\n'
