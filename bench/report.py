"""Metric names and units, summary statistics, machine description, output.

Every metric the benchmark emits is declared here; ``BENCHMARK.json`` at the
repository root must list the same names and units (a test checks this).
"""
from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import statistics
from pathlib import Path

# emitted with --trace 0
E2E_UNITS = {
    "setup_s": "s",               # import + median(input generation + warm-up)
    "wall_s": "s",                # one timed pass
    "fit_s": "s",                 # inside fitter calls (M2E fitters and CP-ALS)
    "accuracy_min": "fraction",   # lowest mean matched accuracy in a pass
    "peak_rss_mb": "MB",
}

# printed with the end-to-end metrics but left out of the result line:
# between runs eval_s spread by 0.10-0.31 (quartile distance over median,
# ten seeds), too close to the largest bound allowed
INFO_UNITS = {
    "eval_s": "s",                # inside run_evaluate
}

# emitted with --trace 1; times and counts are per pass unless named setup.*
LAYER_UNITS = {
    "solver.block_system_s": "s",
    "solver.block_system_calls": "count",
    "solver.mttkrp_bytes_computed": "bytes",
    "solver.prox_s": "s",
    "solver.prox_calls": "count",
    "solver.init_s": "s",
    "solver.loop_self_s": "s",
    "solver.outer_iters": "count",
    "solver.ms_per_iter": "ms",
    "solver.converged_frac": "fraction",
    # gmean over M2E-family fits of final objective / data energy: with
    # outer_iters, it tells fewer iterations from a worse fit
    "solver.rel_objective_gmean": "ratio",
    "cluster.kmeans_s": "s",
    "cluster.lloyd_calls": "count",
    "cluster.lloyd_iters": "count",
    "cluster.match_s": "s",
    "cp.als_s": "s",
    "cp.iters": "count",
    "cp.ms_per_iter": "ms",
    "tensors.matricize_s": "s",
    "tensors.khatri_rao_s": "s",
    "tensors.cp_reconstruct_s": "s",
    "dataio.save_dataset_s": "s",
    "dataio.load_dataset_s": "s",
    "dataio.matrix_io_s": "s",
    "dataio.bytes_written": "bytes",
    "dataio.bytes_read": "bytes",
    "datagen.generate_s": "s",
    "solver.self_s": "s",
    "cluster.self_s": "s",
    "cp.self_s": "s",
    "tensors.self_s": "s",
    "dataio.self_s": "s",
    "datagen.self_s": "s",
    "runner.self_s": "s",
    "cli.self_s": "s",
    "trace.unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.absent_targets": "count",
    "setup.import_s": "s",
    "setup.generate_s": "s",
    "setup.warmup_s": "s",
}

# layers whose self times, with trace.unattributed_s, add up to trace.wall_s
LAYERS = ("solver", "cluster", "cp", "tensors", "dataio", "datagen", "runner", "cli")

NOTE = ("kernel bytes and flops are computed from array sizes, not measured; "
        "no bandwidth roofline is claimed")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values: list[float]) -> dict:
    q1, _, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def gmean(values: list[float]) -> float:
    """Geometric mean; 0 if any value is 0 or below."""
    if not values:
        raise ValueError("no values")
    if min(values) <= 0:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def metric_line(name: str, unit: str, values: list[float]) -> str:
    s = summarize(values)
    return (f"{name:<30} {s['median']:.6g} {unit}  "
            f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")


def result_line(correct: bool, attempted: int, failed: int,
                medians: dict[str, float], units: dict[str, str]) -> str:
    """The final JSON line; ``medians`` must hold exactly the names in ``units``."""
    if set(medians) != set(units):
        missing = sorted(set(units) - set(medians))
        extra = sorted(set(medians) - set(units))
        raise ValueError(f"metric set mismatch: missing {missing}, extra {extra}")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {n: {"value": float(medians[n]), "unit": units[n]} for n in units},
    })


# -- machine ---------------------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict[str, str]:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _blas_runtime_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it can be found."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()
                   and line.split()[-1].startswith("/")})
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in names:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_info(blas_threads: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_set": blas_threads,
        "blas_threads_runtime": _blas_runtime_threads(),
        "note": NOTE,
    }


def _size_bytes(text: str) -> int:
    """'307200K' -> 314572800."""
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:].upper(), 1)
    return int(text.rstrip("KMGkmg")) * scale


def working_set_line(max_view_bytes: float, caches: dict[str, str]) -> str:
    """Whether the largest view fits in the last-level cache."""
    levels = sorted(caches)
    if not levels:
        return f"# working set: largest view {int(max_view_bytes)} bytes; cache sizes unknown"
    llc = _size_bytes(caches[levels[-1]])
    return (f"# working set: largest view {int(max_view_bytes)} bytes, {levels[-1]} {llc} bytes, "
            f"fits in {levels[-1]}: {max_view_bytes <= llc}")
