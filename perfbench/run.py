#!/usr/bin/env python3
"""Benchmark for heun-rsj: four seeded, closed-loop, single-client workloads.

Run from the repository root::

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` replays the
same ops under the span recorder and reports the per-layer metrics.  A run
does a fixed number of ops, sized from ``--seconds``, so the same seed gives
the same ops, outcomes and counts.  Timings are scaled to a reference host
speed by probes taken around the ops (see ``python_probe``).  The
metric names and units come from ``BENCHMARK.json``.  The package is
imported from ``src/`` next to this directory, never from site-packages.
The last line of stdout is the result object; the line before it carries
provenance, per-kind op counts and the output digest.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.metadata
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"
SETUP_RUNS = 5
IMPORT_RUNS = 3
WARMUP_S = 1.0
PROBE_EVERY_S = 0.05
# What each probe task takes at the reference host speed: its median on a
# 2-vCPU Xeon VM, Python 3.11.
PYTHON_PROBE_REF_S = 0.0023
START_PROBE_REF_S = 0.0135

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402


def child_env() -> dict:
    """Environment for subprocesses: this checkout's package, default threads."""
    env = dict(os.environ)
    env.pop("HEUN_RSJ_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _python(args, env, timeout=120.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=timeout, check=True,
    )


def setup_times(env) -> list[float]:
    """Seconds from a fresh interpreter to ``import heun_rsj`` done, each
    scaled to the reference host speed by the probes around it."""
    out = []
    for _ in range(SETUP_RUNS):
        before = start_probe()
        start = time.perf_counter()
        _python(["-c", "import heun_rsj"], env)
        elapsed = time.perf_counter() - start
        out.append(elapsed * 2.0 / (before + start_probe()))
    return out


def _outermost_cumulative(entries, package: str, inside=frozenset()) -> float:
    """Summed cumulative microseconds of a package's imports that no import
    of the same package or of a package in ``inside`` encloses."""
    total, stack = 0, []
    for depth, name, cumulative in reversed(entries):  # parents before children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        root = name.split(".")[0]
        if root == package and not any(s[1] == package or s[1] in inside for s in stack):
            total += cumulative
        stack.append((depth, root))
    return total


def import_ms(env) -> dict:
    """Median ``-X importtime`` cumulative milliseconds per package."""
    samples = {pkg: [] for pkg in ("heun_rsj", "scipy", "numpy")}
    for _ in range(IMPORT_RUNS):
        err = _python(["-X", "importtime", "-c", "import heun_rsj"], env).stderr
        entries = []
        for line in err.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            name = fields[2].rstrip()
            entries.append((len(name) - len(name.lstrip()), name.strip(), int(fields[1])))
        # numpy modules that scipy pulls in count as scipy's import cost.
        for pkg in samples:
            samples[pkg].append(_outermost_cumulative(entries, pkg, {"scipy", "numpy"} - {pkg}) / 1e3)
    return {f"import.{pkg}_ms": statistics.median(v) for pkg, v in samples.items()}


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import numpy  # noqa: F401  (loads the library)

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance(args) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": blas_threads(),
        "HEUN_RSJ_THREADS": None,  # unset: sweep uses its default pool
    }


def python_probe() -> float:
    """How slow the host runs in-process work now, relative to the reference.

    A shared host changes speed by up to 1.8x, for seconds to minutes at a
    time, and the program slows with it.  So every timing is divided by the
    mean of the probes taken just before and after it.  The probe task is a
    pure-Python integer loop plus small numpy element-wise ops, the two kinds
    of work the package does; the fastest of three tries counts.  It is
    benchmark code, so a change to the package cannot move it.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(16_000):
            total += i * i % 7
        a = np.arange(64.0)
        for _ in range(160):
            a = np.sqrt(a * a + 1.0) - 0.5
        best = min(best, time.perf_counter() - start)
    return best / PYTHON_PROBE_REF_S


def start_probe() -> float:
    """``python_probe`` for work done in fresh interpreters (the ``cli`` ops
    and ``setup_s``): the fastest of three bare interpreter starts."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)
        best = min(best, time.perf_counter() - start)
    return best / START_PROBE_REF_S


def sweep_threads() -> int:
    """Threads that the spectra of one small ``sweep`` request ran on."""
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        workloads.run_cli_in_process(
            ("sweep", "--n-min", "30", "--n-max", "33", "--mu-start", "0.5",
             "--mu-stop", "2.5", "--mu-points", "2")
        )
    finally:
        restore()
    return tracing.layer_metrics(tracer.spans)["spectral.lambda_spectrum.threads"]


def _run_one(wl, op, tracer):
    try:
        if tracer is None:
            return wl.run(op)
        return tracer.span("op", wl.run, op, tracer)
    except Exception as exc:  # an untyped crash is a wrong answer, not a stop
        return "wrong", f"{type(exc).__name__}: {exc}".encode()


def run_ops(wl, ops, count=None, tracer=None, probe=python_probe):
    """Closed loop, one client: the next op starts when the last one ended.

    Runs the first ``count`` ops (``None``: all of them), probing the host
    speed at the start, after any op that ends ``PROBE_EVERY_S`` or more
    after the last probe, and at the end.  Returns ``[(op, status, latency_s, output, scaled_s)]`` and
    the wall seconds; ``scaled_s`` is the latency at the reference host
    speed, from the two probes around the op.
    """
    raw, probes = [], [probe()]
    start = last_probe = time.perf_counter()
    for op in itertools.islice(ops, count):
        if tracer is not None:
            tracer.op = len(raw)
        t0 = time.perf_counter()
        status, blob = _run_one(wl, op, tracer)
        t1 = time.perf_counter()
        raw.append((op, status, t1 - t0, blob, len(probes) - 1))
        if t1 - last_probe >= PROBE_EVERY_S:
            probes.append(probe())
            last_probe = time.perf_counter()
    if raw and raw[-1][4] == len(probes) - 1:
        probes.append(probe())
    wall = time.perf_counter() - start
    results = [
        (op, status, latency, blob, latency * 2.0 / (probes[k] + probes[k + 1]))
        for op, status, latency, blob, k in raw
    ]
    return results, wall


def digest(wl, results) -> dict:
    h = hashlib.sha256()
    done = results[: wl.digest_ops]
    for op, status, _, blob, _ in done:
        h.update(json.dumps([list(op), status]).encode())
        h.update(blob)
    return {"ops": len(done), "sha256": h.hexdigest()}


def make_workload(name, env):
    if name == "cli":
        return workloads.Cli(str(ROOT), env)
    return {"sweep": workloads.Sweep, "certify": workloads.Certify,
            "trajectory": workloads.Trajectory}[name]()


def measure(args, spec) -> tuple[dict, dict]:
    env = child_env()
    os.environ.pop("HEUN_RSJ_THREADS", None)
    wl = make_workload(args.workload, env)
    sys.path.insert(0, str(SRC))
    import heun_rsj

    if Path(heun_rsj.__file__).resolve().parent != SRC / "heun_rsj":
        raise SystemExit(f"heun_rsj imported from {heun_rsj.__file__}, not {SRC}")
    info = provenance(args)
    info["sweep_threads"] = sweep_threads()
    # Warm up on ops of another stream, so lazy imports, first-call paths and
    # the heap's growth are paid before timing, and no measured op repeats.
    probe = start_probe if wl.name == "cli" else python_probe
    run_ops(wl, wl.ops("warm-up"), wl.warmup_count(WARMUP_S), probe=probe)
    stream = wl.ops(args.seed)

    if not args.trace:
        setup = setup_times(env)
        results, wall = run_ops(wl, stream, wl.count(args.seconds), probe=probe)
        latencies = sorted(r[4] * 1e3 for r in results)
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF)
        values = {
            "setup_s": statistics.median(setup),
            "good_ops_per_s": sum(r[1] == "good" for r in results) / (sum(latencies) / 1e3),
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }
        # Recorded, not bounded: a cli run has too few ops for ten of them to
        # lie beyond p90, and its median sits between two of its eight kinds
        # of op, so it follows single ops and spread 0.10 over ten seeds.
        info["op_p50_ms"] = statistics.median(latencies)
        info["op_p90_ms"] = statistics.quantiles(latencies, n=10, method="inclusive")[8]
        info["setup_s_samples"] = setup
        info["wall_s"] = wall
        info["op_s_unscaled"] = sum(r[2] for r in results)
        info["op_s_scaled"] = sum(latencies) / 1e3
        kind = "end_to_end"
        counted = results
    else:
        values = import_ms(env)
        plain, plain_wall = run_ops(wl, stream, wl.count(args.seconds / 2.0), probe=probe)
        tracer = tracing.Tracer()
        restore = tracing.install(tracer) if wl.name != "cli" else (lambda: None)
        try:
            traced, traced_wall = run_ops(wl, [r[0] for r in plain], None, tracer, probe)
        finally:
            restore()
        values.update(tracing.layer_metrics(tracer.spans))
        values["trace.overhead_frac"] = sum(r[4] for r in traced) / sum(r[4] for r in plain) - 1.0
        counted = plain + traced
        values["checks.fail_frac"] = sum(r[1] != "good" for r in counted) / len(counted)
        SPANS_DIR.mkdir(exist_ok=True)
        spans_file = SPANS_DIR / f"spans-{wl.name}-{args.seed}.jsonl"
        tracer.write(spans_file)
        info["spans_file"] = str(spans_file.relative_to(ROOT))
        info["wall_s"] = [plain_wall, traced_wall]
        info["dominant_layer"] = max(tracing.LAYERS, key=lambda layer: values[f"share.{layer}"])
        kind = "per_layer"
        results = plain  # digest and per-kind counts as in an untraced run

    per_kind = {}
    for op, status, _, _, scaled in results:
        rec = per_kind.setdefault(op[0], {"latencies": [], "status": Counter()})
        rec["latencies"].append(scaled * 1e3)
        rec["status"][status] += 1
    info["ops"] = {
        k: {**rec["status"], "p50_ms": statistics.median(rec["latencies"])}
        for k, rec in per_kind.items()
    }
    info["digest"] = digest(wl, results)
    wrong = [r for r in counted if r[1] == "wrong"]
    for op, _, _, blob, _ in wrong[:5]:
        print(f"wrong output: {' '.join(op)}: {blob[:300]!r}", file=sys.stderr)

    metrics = {}
    for m in spec[kind]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    attempted = len(counted)
    failed = sum(r[1] != "good" for r in counted)
    result = {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}
    return info, result


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(next(iter(results.values()))["metrics"])
    width = max(len(n) for n in names)
    print(f"{'metric':<{width}}  {'unit':<6}" + "".join(f"{w:>14}" for w in results))
    for key in ("attempted", "failed", "correct"):
        print(f"{key:<{width}}  {'':<6}" + "".join(f"{str(r[key]):>14}" for r in results.values()))
    for n in names:
        unit = next(iter(results.values()))["metrics"][n]["unit"]
        print(f"{n:<{width}}  {unit:<6}" + "".join(f"{r['metrics'][n]['value']:>14.6g}" for r in results.values()))
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "heun_rsj" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'heun_rsj'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    info, result = measure(args, spec)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
