"""Layered benchmark for m2e.

Usage (from the repository root):

    python3 bench/run.py --workload cohort-fit --seed 1 --seconds 50 --trace 0

Workloads are described in ``bench/workloads.py``. One run imports the
package from ``src/``, sets up several times (input generation and a short
warm-up), then runs whole passes of the workload, starting no pass that the
previous one's time says would end after ``--seconds`` -- except that it
always runs two, so that the second can be compared byte for byte with the
first. Each timing is reported as the median over passes
with its quartiles and sample count; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured with only
the fitter and run_evaluate bindings wrapped. With ``--trace 1`` untraced
and traced passes alternate, and the metrics are the per-layer ones: spans
around the calls into each module, their self times (which add up to the
traced pass's wall time), counts, and the tracing overhead.

Exit status is 0 when the run completes, also when a check fails (then
``correct`` is false), and 2 when the package sources are missing.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Single-threaded BLAS (never more than nproc): one thread keeps a two-core
# machine's timings steady. Must be set before numpy is imported.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIN_PASSES = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("cohort-fit", "cli-disk"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _import_package():
    """Import numpy and m2e from this checkout; returns the seconds it took."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import m2e
    if Path(m2e.__file__).resolve().parent != SRC / "m2e":
        raise ImportError(f"m2e imported from {m2e.__file__}, not from {SRC}")
    return time.perf_counter() - start


@dataclass
class Pass:
    traced: bool
    wall: float
    tracer: object
    log: object
    ops: list


def run_pass(workload, inputs, seed, traced, pass_dir):
    from tracer import Tracer
    from workloads import PassLog, targets

    log, tracer = PassLog(), Tracer()
    pass_dir.mkdir(parents=True)
    gc.collect()
    try:
        with tracer.installed(targets(log, traced)):
            with tracer.span("bench.pass"):
                ops = workload.run(inputs, seed, log, tracer, pass_dir)
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    root = tracer.spans[-1]
    return Pass(traced, root.duration, tracer, log, ops)


def check_against_first(passes):
    """Mark operations whose output bytes differ from the first pass."""
    from workloads import Op

    ref = passes[0].ops
    for p in passes[1:]:
        if len(p.ops) != len(ref):
            p.ops.append(Op("pass-shape", False,
                                      reason=f"{len(p.ops)} operations, first pass had {len(ref)}"))
            continue
        for i, (op, first) in enumerate(zip(p.ops, ref)):
            if op.ok and first.ok and op.digest != first.digest:
                p.ops[i] = Op(op.name, False, op.digest, "output bytes differ from the first pass")


def check_accounting(p):
    """Every span must belong to a reported layer.

    Self times add up to the pass's wall time by construction (a span's self
    time is its duration minus its children's), so this is the only way the
    reported layer self times can miss part of the traced wall time.
    """
    from report import LAYERS
    from workloads import Op

    unknown = sorted(set(p.tracer.self_by_layer()) - set(LAYERS) - {"bench"})
    if unknown:
        return Op("trace-accounting", False, reason=f"spans of unknown layers {unknown}")
    return Op("trace-accounting", True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "m2e" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    import_s = _import_package()

    import report
    from tracer import Tracer
    from workloads import WORKLOADS, e2e_values, layer_values

    workload = WORKLOADS[args.workload]
    machine = report.machine_info(BLAS_THREADS)
    print("# machine " + json.dumps(machine, sort_keys=True))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        setups, inputs = [], None
        for k in range(SETUP_REPEATS):
            inputs = None  # free the previous copy before making the next
            tracer = Tracer()
            with tracer.span("bench.setup"):
                inputs = workload.setup(args.seed, tracer, workdir / f"setup{k}")
            setups.append(tracer)

        passes = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(workload, inputs, args.seed, traced,
                                   workdir / f"pass{len(passes)}"))
            elapsed = time.perf_counter() - start
            if len(passes) >= MIN_PASSES and elapsed + passes[-1].wall > args.seconds:
                break
        check_against_first(passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is using it

    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    ops = [op for p in passes for op in p.ops] + [check_accounting(p) for p in traced]
    failed = [op for op in ops if not op.ok]
    for op in failed:
        print(f"# FAILED {op.name}: {op.reason}")

    setup_runs = [t.total("bench.setup") for t in setups]
    per_pass = [e2e_values(p.tracer, p.log, p.wall) for p in plain]
    e2e = {name: [v[name] for v in per_pass] for name in per_pass[0]}
    e2e["setup_s"] = [import_s + statistics.median(setup_runs)]
    e2e["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]

    print(report.working_set_line(max(p.log.counts["max_view_bytes"] for p in passes),
                                  machine["caches"]))
    print(f"# workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes, setup x{len(setups)}")
    for name, unit in {**report.E2E_UNITS, **report.INFO_UNITS}.items():
        print(report.metric_line(name, unit, e2e[name]))
    print(f"{'failed_frac':<30} {len(failed) / len(ops):.6g} fraction  "
          f"({len(failed)} of {len(ops)} operations)")

    if args.trace:
        per_pass = [layer_values(p.tracer, p.log, p.wall) for p in traced]
        layers = {name: [v[name] for v in per_pass] for name in per_pass[0]}
        layers["setup.import_s"] = [import_s]
        layers["setup.generate_s"] = [t.total("datagen.generate") for t in setups]
        layers["setup.warmup_s"] = [t.total("bench.warmup") for t in setups]
        layers["trace.overhead_frac"] = [
            statistics.median(p.wall for p in traced)
            / statistics.median(p.wall for p in plain) - 1.0]
        absent = sorted({a for p in traced for a in p.tracer.absent})
        if absent:
            print("# absent (not timed): " + ", ".join(absent))
        print("# self times of the layers plus trace.unattributed_s add up to trace.wall_s")
        for name, unit in report.LAYER_UNITS.items():
            print(report.metric_line(name, unit, layers[name]))
        medians, units = {n: statistics.median(v) for n, v in layers.items()}, report.LAYER_UNITS
    else:
        medians = {n: statistics.median(e2e[n]) for n in report.E2E_UNITS}
        units = report.E2E_UNITS

    print(report.result_line(not failed, len(ops), len(failed), medians, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
