"""Span recorder for the traced benchmark run.

Spans are recorded around calls into the package's public functions, at the
place each caller looks a function up: the tracer swaps those attributes
(``heun_rsj.cli.json_dumps``, ``heun_rsj.spectral.lambda_spectrum``, ...) for
wrappers while the traced phase runs and puts the originals back after it.
Nothing under ``src/`` is edited.  An attribute a later version of the
package no longer has is skipped, and its metrics read 0.

A span is ``(id, name, start, end, parent, thread, op, extra, error)``.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict


class Tracer:
    """Collects spans; a thread with no open span parents its spans to the
    innermost span open on the main thread (the ``sweep`` worker pool)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, extra, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        error = None
        out = None
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            return out
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            info = extra(args, kwargs, out) if extra and error is None else None
            self.spans.append(
                (sid, name, start, end, parent, threading.get_ident(), self.op, info, error)
            )

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own (op roots, imports)."""
        return self.call(name, fn, None, args, kwargs)

    def add(self, spans, offset: float) -> None:
        """Merge spans exported by a child process, shifting their clock."""
        base = next(self._ids)
        remap = {span[0]: base + span[0] for span in spans}
        for sid, name, start, end, parent, tid, _op, info, error in spans:
            if parent is None:
                parent = self._main_stack[-1] if self._main_stack else None
            else:
                parent = remap[parent]
            self.spans.append(
                (remap[sid], name, start + offset, end + offset, parent, tid, self.op, info, error)
            )
        self._ids = itertools.count(max(remap.values(), default=base) + 1)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _size(value) -> int:
    shape = getattr(value, "shape", None)
    if shape is not None:
        size = 1
        for dim in shape:
            size *= dim
        return size
    if isinstance(value, (list, tuple)):
        return len(value)
    return 1


def _text_bytes(args, kwargs, out):
    return len(out) if isinstance(out, str) else 0


def _spectrum_info(args, kwargs, out):
    return [_arg(args, kwargs, 0, "n"), float(_arg(args, kwargs, 1, "mu")), len(out.lambdas)]


def _eval_points(args, kwargs, out):
    return _size(_arg(args, kwargs, 1, "z"))


def _series_samples(args, kwargs, out):
    return _size(_arg(args, kwargs, 1, "times"))


def _steps(args, kwargs, out):
    return len(out) - 1


# (module, attribute, span name, extra).  "module:Class" patches a method.
PATCHES = (
    ("heun_rsj.cli", "main", "cli.main", None),
    ("heun_rsj.cli", "json_dumps", "serialize", _text_bytes),
    ("heun_rsj.cli", "write_csv", "serialize", _text_bytes),
    ("heun_rsj.cli", "trajectory_to_csv", "serialize", _text_bytes),
    ("heun_rsj.cli", "trajectory_to_json", "serialize", _text_bytes),
    ("heun_rsj.spectral", "lambda_spectrum", "spectral.lambda_spectrum", _spectrum_info),
    ("heun_rsj.spectral", "check_factorization", "spectral.factorization", None),
    ("heun_rsj.spectral", "spectral_condition", "spectral.factorization", None),
    ("heun_rsj.spectral", "symmetry_matrix", "spectral.factorization", None),
    ("heun_rsj.heun_poly", "build_polynomial", "heun_poly.build_polynomial", None),
    ("heun_rsj.heun_poly", "residual_master", "heun_poly.residuals", None),
    ("heun_rsj.heun_poly", "residual_master_scale", "heun_poly.residuals", None),
    ("heun_rsj.heun_poly", "residual_linear_system", "heun_poly.residuals", None),
    ("heun_rsj.heun_poly", "spectral_det", "heun_poly.det_scan", None),
    ("heun_rsj.heun_poly", "det_scale", "heun_poly.det_scan", None),
    ("heun_rsj.model:HeunPolynomial", "value", "model.poly_eval", _eval_points),
    ("heun_rsj.model:HeunPolynomial", "deriv1", "model.poly_eval", _eval_points),
    ("heun_rsj.model:HeunPolynomial", "deriv2", "model.poly_eval", _eval_points),
    ("heun_rsj.structure", "symmetry_sign", "structure.symmetry", None),
    ("heun_rsj.structure", "symmetry_residual", "structure.symmetry", None),
    ("heun_rsj.structure", "coeff_relations_residual", "structure.symmetry", None),
    ("heun_rsj.structure", "phase_series", "structure.phase_series", _series_samples),
    ("heun_rsj.structure", "orthogonality_integral", "structure.quadrature", None),
    ("heun_rsj.structure", "norm_integral", "structure.quadrature", None),
    ("heun_rsj.structure", "second_solution", "structure.quadrature", None),
    ("heun_rsj.dynamics", "integrate_phase", "dynamics.integrate_phase", _steps),
    ("heun_rsj.dynamics", "integrate_xy", "dynamics.integrate_xy", _steps),
    ("heun_rsj.dynamics", "phase_from_xy", "dynamics.phase_from_xy", None),
)


def install(tracer: Tracer):
    """Swap every patch point for a tracing wrapper; return the undo function."""
    undo = []
    for target, attr, name, extra in PATCHES:
        modname, _, clsname = target.partition(":")
        try:
            owner = importlib.import_module(modname)
        except ImportError:
            continue
        if clsname:
            owner = getattr(owner, clsname, None)
        orig = getattr(owner, attr, None) if owner is not None else None
        if orig is None:
            continue

        def wrapper(*args, __fn=orig, __name=name, __extra=extra, **kwargs):
            return tracer.call(__name, __fn, __extra, args, kwargs)

        functools.update_wrapper(wrapper, orig)
        setattr(owner, attr, wrapper)
        undo.append((owner, attr, orig))

    def restore():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return restore


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans) -> dict:
    """Per span name: calls, inclusive and self seconds, infos, errors and
    the threads each op's spans ran on.

    Self time is a span's duration minus the union of its children's
    intervals, so children that overlap on pool threads count once.
    """
    children = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[span[4]].append((span[2], span[3]))
    out = defaultdict(lambda: {
        "calls": 0, "total": 0.0, "self": 0.0, "infos": [],
        "errors": defaultdict(int), "op_threads": defaultdict(set),
    })
    for sid, name, start, end, _parent, tid, op, info, error in spans:
        rec = out[name]
        rec["calls"] += 1
        rec["total"] += end - start
        rec["self"] += (end - start) - _covered(children.get(sid, ()), start, end)
        rec["op_threads"][op].add(tid)
        if info is not None:
            rec["infos"].append(info)
        if error is not None:
            rec["errors"][error] += 1
    return out


LAYERS = ("import", "cli", "serialize", "spectral", "heun_poly", "model", "structure", "dynamics")


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced phase (names as in BENCHMARK.json)."""
    s = summarize(spans)

    def self_ms(name):
        return s[name]["self"] * 1e3

    def per_unit(name, units, scale):
        return s[name]["total"] * scale / units if units else 0.0

    spec = s["spectral.lambda_spectrum"]
    roots = sum(info[2] for info in spec["infos"])
    evals = s["model.poly_eval"]
    samples = sum(s["structure.phase_series"]["infos"])
    phase_steps = sum(s["dynamics.integrate_phase"]["infos"])
    xy_steps = sum(s["dynamics.integrate_xy"]["infos"])
    m = {
        "cli.main.calls": s["cli.main"]["calls"],
        "cli.main.self_ms": self_ms("cli.main"),
        "serialize.calls": s["serialize"]["calls"],
        "serialize.self_ms": self_ms("serialize"),
        "serialize.bytes": sum(s["serialize"]["infos"]),
        "spectral.lambda_spectrum.calls": spec["calls"],
        "spectral.lambda_spectrum.self_ms": self_ms("spectral.lambda_spectrum"),
        "spectral.lambda_spectrum.roots": roots,
        "spectral.lambda_spectrum.us_per_root": per_unit("spectral.lambda_spectrum", roots, 1e6),
        "spectral.lambda_spectrum.unique_frac": (
            len({(info[0], info[1]) for info in spec["infos"]}) / spec["calls"]
            if spec["calls"] else 0.0
        ),
        "spectral.lambda_spectrum.threads": max(map(len, spec["op_threads"].values()), default=0),
        "spectral.convergence_failures": spec["errors"]["ConvergenceFailure"],
        "spectral.factorization.self_ms": self_ms("spectral.factorization"),
        "heun_poly.build_polynomial.calls": s["heun_poly.build_polynomial"]["calls"],
        "heun_poly.build_polynomial.self_ms": self_ms("heun_poly.build_polynomial"),
        "heun_poly.build_polynomial.not_spectral": s["heun_poly.build_polynomial"]["errors"]["NotSpectral"],
        "heun_poly.residuals.calls": s["heun_poly.residuals"]["calls"],
        "heun_poly.residuals.self_ms": self_ms("heun_poly.residuals"),
        "heun_poly.det_scans": s["heun_poly.det_scan"]["calls"],
        "model.poly_evals": evals["calls"],
        "model.poly_eval.self_ms": self_ms("model.poly_eval"),
        "model.points_per_eval": sum(evals["infos"]) / evals["calls"] if evals["calls"] else 0.0,
        "structure.symmetry.self_ms": self_ms("structure.symmetry"),
        "structure.phase_series.calls": s["structure.phase_series"]["calls"],
        "structure.phase_series.samples": samples,
        "structure.phase_series.self_ms": self_ms("structure.phase_series"),
        "structure.phase_series.ns_per_sample": per_unit("structure.phase_series", samples, 1e9),
        "structure.quadrature.calls": s["structure.quadrature"]["calls"],
        "structure.quadrature.self_ms": self_ms("structure.quadrature"),
        "dynamics.integrate_phase.steps": phase_steps,
        "dynamics.integrate_phase.self_ms": self_ms("dynamics.integrate_phase"),
        "dynamics.integrate_phase.ns_per_step": per_unit("dynamics.integrate_phase", phase_steps, 1e9),
        "dynamics.integrate_xy.steps": xy_steps,
        "dynamics.integrate_xy.self_ms": self_ms("dynamics.integrate_xy"),
        "dynamics.integrate_xy.ns_per_step": per_unit("dynamics.integrate_xy", xy_steps, 1e9),
        "dynamics.phase_from_xy.self_ms": self_ms("dynamics.phase_from_xy"),
        "trace.spans": len(spans),
    }
    op_total = s["op"]["total"]
    for layer in LAYERS:
        busy = sum(rec["self"] for name, rec in s.items() if name.split(".")[0] == layer)
        m[f"share.{layer}"] = busy / op_total if op_total else 0.0
    return m
