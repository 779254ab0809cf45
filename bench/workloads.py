"""The benchmark's workloads: set-up, one pass, and the checks on a pass.

cohort-fit  In memory, on the ``hiv`` (M=90, N=70) and ``bp`` (M=82, N=97)
            presets at their latent rank (7 and 12): m2e_fit, m2e_ds_fit and
            m2e_ts_fit at default settings, each followed by run_evaluate.
            Each view (4.5-5.2 MB) overflows L2, and the solver's tensor
            contractions do almost all of the work.
cli-disk    m2e.cli.main in-process: the README's fit, evaluate and cluster
            commands on a generated default preset, and the CP-baseline flow on
            the hiv shape (generate, cp, evaluate on the mode-3 factor). Text
            dataset I/O and CP-ALS do most of the work. CP-ALS runs a fixed
            60 sweeps (tolerance 1e-12), because its iterations to converge
            from a random start vary several-fold between seeds.

Every pass returns a list of operations; an operation fails when the call
raises, a CLI command exits nonzero or leaves out an expected file, an
embedding is not finite, or its bytes differ from the same operation in the
run's first pass.
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from m2e import cli, datagen, runner, solver
from m2e.runner import RunConfig
from m2e.solver import M2eConfig

from report import LAYERS, gmean
from tracer import Target, Tracer

FITTERS = ("m2e_fit", "m2e_ds_fit", "m2e_ts_fit")
M2E_FIT_SPANS = tuple(f"solver.{f}" for f in FITTERS)
FIT_SPANS = M2E_FIT_SPANS + ("cp.cp_als_fit",)
EVAL_SPAN = "runner.run_evaluate"
BLOCK_SPANS = ("solver.node_system", "solver.aux_system", "solver.subject_system")

CP_SWEEPS = 60


@dataclass(frozen=True)
class Fit:
    fitter: str             # function name, e.g. "m2e_ds_fit" or "cp_als_fit"
    rel_objective: float    # final objective / data energy (M2E fitters)
    converged: bool
    iterations: int
    digest: str             # of the embedding the fit produced
    finite: bool


@dataclass(frozen=True)
class Op:
    name: str
    ok: bool
    digest: str = ""
    reason: str = ""


def digest(data: np.ndarray | bytes) -> str:
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data, dtype=float).tobytes()
    return hashlib.sha256(data).hexdigest()


def _energy(views) -> float:
    return sum(float(np.vdot(v, v)) for v in (getattr(w, "data", w) for w in views))


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


@dataclass
class PassLog:
    """What the hooks see during one pass: fit outcomes, accuracies, counts."""

    fits: list[Fit] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))

    def _saw_views(self, arrays) -> None:
        biggest = max(a.nbytes for a in arrays)
        self.counts["max_view_bytes"] = max(self.counts["max_view_bytes"], biggest)

    def on_m2e_fit(self, fitter, args, kwargs, sol) -> None:
        self._saw_views([np.asarray(getattr(v, "data", v)) for v in args[0]])
        self.fits.append(Fit(fitter, sol.final_objective / _energy(args[0]),
                             bool(sol.converged), int(sol.iterations),
                             digest(sol.consensus), bool(np.isfinite(sol.consensus).all())))

    def on_cp_fit(self, args, kwargs, fit) -> None:
        self._saw_views([np.asarray(args[0])])
        mode3 = fit.factors.factors[2]
        self.fits.append(Fit("cp_als_fit", float("nan"), bool(fit.converged),
                             int(fit.iterations), digest(mode3),
                             bool(np.isfinite(mode3).all())))

    def on_evaluate(self, args, kwargs, doc) -> None:
        self.accuracies.append(float(doc["mean"]["accuracy"]))

    def on_block_system(self, args, kwargs, result) -> None:
        self.counts["mttkrp_bytes"] += args[0].nbytes  # one read of X_v per call

    def on_lloyd(self, args, kwargs, result) -> None:
        self.counts["lloyd_iters"] += len(result[2])

    def on_dataset_saved(self, args, kwargs, manifest_path) -> None:
        self.counts["bytes_written"] += _dir_bytes(Path(manifest_path).parent)

    def on_dataset_loaded(self, args, kwargs, dataset) -> None:
        p = Path(args[0])
        self.counts["bytes_read"] += _dir_bytes(p if p.is_dir() else p.parent)

    def on_matrix_saved(self, args, kwargs, result) -> None:
        self.counts["bytes_written"] += Path(args[0]).stat().st_size

    def on_matrix_loaded(self, args, kwargs, result) -> None:
        self.counts["bytes_read"] += Path(args[0]).stat().st_size


def targets(log: PassLog, traced: bool) -> list[Target]:
    """Bindings to wrap for one pass.

    Untraced passes wrap only the fitter and run_evaluate bindings, whose
    spans and results give fit_s, eval_s and the fit outcomes; traced passes
    also wrap the calls into every layer.
    """
    out = [Target(mod, f, f"solver.{f}", functools.partial(log.on_m2e_fit, f))
           for mod in ("m2e.solver", "m2e.runner") for f in FITTERS]
    out += [Target("m2e.runner", "cp_als_fit", "cp.cp_als_fit", log.on_cp_fit),
            Target("m2e.runner", "run_evaluate", EVAL_SPAN, log.on_evaluate),
            Target("m2e.cli", "run_evaluate", EVAL_SPAN, log.on_evaluate)]
    if not traced:
        return out
    out += [Target("m2e.solver", s.split(".")[1], s, log.on_block_system)
            for s in BLOCK_SPANS]
    out += [
        Target("m2e.solver", "proximal_step", "solver.proximal_step"),
        Target("m2e.solver", "lipschitz_constant", "solver.lipschitz_constant"),
        Target("m2e.solver", "spectral_start", "solver.spectral_start"),
        Target("m2e.runner", "cluster_and_score", "cluster.cluster_and_score"),
        Target("m2e.runner", "kmeans", "cluster.kmeans"),
        Target("m2e.cluster", "kmeans", "cluster.kmeans"),
        Target("m2e.cluster", "lloyd", "cluster.lloyd", log.on_lloyd),
        Target("m2e.cluster", "match_labels", "cluster.match_labels"),
        Target("m2e.cluster", "binary_metrics", "cluster.binary_metrics"),
        Target("m2e.cp", "als_update", "cp.als_update"),
        Target("m2e.runner", "cp_relative_error", "cp.cp_relative_error"),
        Target("m2e.cp", "matricize", "tensors.matricize"),
        Target("m2e.cp", "khatri_rao", "tensors.khatri_rao"),
        Target("m2e.cp", "hadamard", "tensors.hadamard"),
        Target("m2e.cp", "cp_reconstruct", "tensors.cp_reconstruct"),
        Target("m2e.cli", "save_dataset", "dataio.save_dataset", log.on_dataset_saved),
        Target("m2e.cli", "load_dataset", "dataio.load_dataset", log.on_dataset_loaded),
        Target("m2e.runner", "load_dataset", "dataio.load_dataset", log.on_dataset_loaded),
        Target("m2e.runner", "save_matrix", "dataio.save_matrix", log.on_matrix_saved),
        Target("m2e.cli", "load_matrix", "dataio.load_matrix", log.on_matrix_loaded),
        Target("m2e.cli", "generate", "datagen.generate"),
    ]
    out += [Target("m2e.cli", f, f"runner.{f}")
            for f in ("run_fit", "run_cluster", "run_cp")]
    return out


def _fit_op(name: str, fit: Fit | None) -> Op:
    if fit is None:
        return Op(name, False, reason="fitter was not called")
    if not fit.finite:
        return Op(name, False, fit.digest, "embedding is not finite")
    return Op(name, True, fit.digest)


def _failed(name: str, exc: Exception) -> Op:
    return Op(name, False, reason=f"{type(exc).__name__}: {exc}")


# -- cohort-fit -------------------------------------------------------------

def cohort_setup(seed: int, tracer: Tracer, workdir: Path):
    inputs = []
    with tracer.span("datagen.generate"):
        for name, preset in (("hiv", datagen.hiv_shape_preset), ("bp", datagen.bp_shape_preset)):
            spec = dataclasses.replace(preset(), seed=seed)
            inputs.append((name, spec, *datagen.generate(spec)))
    with tracer.span("bench.warmup"):
        _, spec, views, labels = inputs[0]
        short = M2eConfig(rank=spec.latent_rank, seed=seed, max_outer_iters=2)
        for fitter in FITTERS:
            sol = getattr(solver, fitter)(views, short)
        runner.run_evaluate(sol.consensus, labels, RunConfig(solver=short, eval_repeats=1))
    return inputs


def cohort_pass(inputs, seed: int, log: PassLog, tracer: Tracer, workdir: Path) -> list[Op]:
    ops = []
    for name, spec, views, labels in inputs:
        config = RunConfig(solver=M2eConfig(rank=spec.latent_rank, seed=seed))
        for fitter in FITTERS:
            op = f"{name}/{fitter}"
            before = len(log.fits)
            try:
                sol = getattr(solver, fitter)(views, config.solver)
                runner.run_evaluate(sol.consensus, labels, config)
            except Exception as exc:  # noqa: BLE001 - count the failure, run the rest
                ops.append(_failed(op, exc))
                continue
            ops.append(_fit_op(op, log.fits[before] if len(log.fits) > before else None))
    return ops


# -- cli-disk ---------------------------------------------------------------

def _cli(tracer: Tracer, argv: list[str]) -> int:
    with tracer.span("cli.main"):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            return exc.code if isinstance(exc.code, int) else 2


def cli_setup(seed: int, tracer: Tracer, workdir: Path):
    d = workdir / "warmup"
    with tracer.span("bench.warmup"):
        for argv in (
            ["generate", "--out", f"{d}/data", "--nodes", "6", "--subjects", "8",
             "--cluster-sizes", "4,4", "--latent-rank", "2", "--seed", str(seed)],
            ["fit", "--dataset", f"{d}/data", "--out", f"{d}/fit", "--rank", "2",
             "--max-iters", "2"],
            ["evaluate", "--embedding", f"{d}/fit/consensus.txt", "--dataset", f"{d}/data",
             "--out", f"{d}/eval", "--repeats", "1"],
            ["cluster", "--embedding", f"{d}/fit/consensus.txt", "--out", f"{d}/clusters"],
            ["cp", "--dataset", f"{d}/data", "--rank", "2", "--max-iters", "2",
             "--out", f"{d}/cp"],
        ):
            _cli(tracer, argv)
    return None


def cli_steps(d: Path, seed: int) -> list[tuple[str, list[str], tuple[str, ...], str]]:
    """(name, argv, files the command must leave, file whose bytes are compared)."""
    s = str(seed)
    return [
        ("generate", ["generate", "--out", f"{d}/data", "--seed", s],
         ("data/manifest.json", "data/view1.txt", "data/view2.txt", "data/labels.txt"),
         "data/manifest.json"),
        ("fit", ["fit", "--dataset", f"{d}/data", "--out", f"{d}/fit", "--method", "m2e",
                 "--rank", "4", "--lambda", "1=1.0", "--lambda", "2=1.0", "--seed", s],
         ("fit/consensus.txt", "fit/summary.json", "fit/trace.txt"), "fit/consensus.txt"),
        ("evaluate", ["evaluate", "--embedding", f"{d}/fit/consensus.txt",
                      "--dataset", f"{d}/data", "--out", f"{d}/eval", "--seed", s],
         ("eval/metrics.json",), "eval/metrics.json"),
        ("cluster", ["cluster", "--embedding", f"{d}/fit/consensus.txt",
                     "--out", f"{d}/clusters", "--k", "2", "--seed", s],
         ("clusters/labels.txt", "clusters/inertias.txt"), "clusters/labels.txt"),
        ("generate-hiv", ["generate", "--preset", "hiv", "--out", f"{d}/hiv", "--seed", s],
         ("hiv/manifest.json", "hiv/view1.txt", "hiv/view2.txt", "hiv/labels.txt"),
         "hiv/manifest.json"),
        ("cp", ["cp", "--dataset", f"{d}/hiv", "--view", "view1", "--rank", "7",
                "--max-iters", str(CP_SWEEPS), "--tol", "1e-12", "--out", f"{d}/cp",
                "--seed", s],
         ("cp/factor_mode3.txt", "cp/summary.json"), "cp/factor_mode3.txt"),
        ("evaluate-cp", ["evaluate", "--embedding", f"{d}/cp/factor_mode3.txt",
                         "--dataset", f"{d}/hiv", "--out", f"{d}/cp_eval", "--seed", s],
         ("cp_eval/metrics.json",), "cp_eval/metrics.json"),
    ]


def cli_pass(_, seed: int, log: PassLog, tracer: Tracer, workdir: Path) -> list[Op]:
    ops = []
    for name, argv, files, compared in cli_steps(workdir, seed):
        code = _cli(tracer, argv)
        missing = [f for f in files if not (workdir / f).is_file()]
        if code != 0 or missing:
            ops.append(Op(name, False, reason=f"exit {code}, missing {missing}"))
        else:
            ops.append(Op(name, True, digest((workdir / compared).read_bytes())))
    bad = [f for f in log.fits if not f.finite]
    if bad or len(log.fits) != 2:
        ops.append(Op("embeddings", False,
                      reason=f"{len(log.fits)} fits, {len(bad)} not finite"))
    return ops


@dataclass(frozen=True)
class Workload:
    setup: Callable
    run: Callable


WORKLOADS = {
    "cohort-fit": Workload(cohort_setup, cohort_pass),
    "cli-disk": Workload(cli_setup, cli_pass),
}


# -- per-pass metrics -------------------------------------------------------

def e2e_values(tracer: Tracer, log: PassLog, wall: float) -> dict[str, float]:
    return {
        "wall_s": wall,
        "fit_s": tracer.total(*FIT_SPANS),
        "eval_s": tracer.total(EVAL_SPAN),
        "accuracy_min": min(log.accuracies, default=0.0),
    }


def layer_values(tracer: Tracer, log: PassLog, wall: float) -> dict[str, float]:
    m2e_fits = [f for f in log.fits if f.fitter in FITTERS]
    outer = sum(f.iterations for f in m2e_fits)
    cp_iters = sum(f.iterations for f in log.fits if f.fitter == "cp_als_fit")
    cp_s = tracer.total("cp.cp_als_fit")
    layer_self = tracer.self_by_layer()
    values = {
        "solver.block_system_s": tracer.total(*BLOCK_SPANS),
        "solver.block_system_calls": tracer.calls(*BLOCK_SPANS),
        "solver.mttkrp_bytes_computed": log.counts["mttkrp_bytes"],
        "solver.prox_s": tracer.total("solver.proximal_step"),
        "solver.prox_calls": tracer.calls("solver.proximal_step"),
        "solver.init_s": tracer.total("solver.spectral_start"),
        "solver.loop_self_s": tracer.self_time(*M2E_FIT_SPANS),
        "solver.outer_iters": outer,
        "solver.ms_per_iter": 1e3 * tracer.total(*M2E_FIT_SPANS) / outer if outer else 0.0,
        "solver.converged_frac": (sum(f.converged for f in m2e_fits) / len(m2e_fits)
                                  if m2e_fits else 0.0),
        "solver.rel_objective_gmean": (gmean([f.rel_objective for f in m2e_fits])
                                       if m2e_fits else 0.0),
        "cluster.kmeans_s": tracer.total("cluster.kmeans"),
        "cluster.lloyd_calls": tracer.calls("cluster.lloyd"),
        "cluster.lloyd_iters": log.counts["lloyd_iters"],
        "cluster.match_s": tracer.total("cluster.match_labels"),
        "cp.als_s": cp_s,
        "cp.iters": cp_iters,
        "cp.ms_per_iter": 1e3 * cp_s / cp_iters if cp_iters else 0.0,
        "tensors.matricize_s": tracer.total("tensors.matricize"),
        "tensors.khatri_rao_s": tracer.total("tensors.khatri_rao"),
        "tensors.cp_reconstruct_s": tracer.total("tensors.cp_reconstruct"),
        "dataio.save_dataset_s": tracer.total("dataio.save_dataset"),
        "dataio.load_dataset_s": tracer.total("dataio.load_dataset"),
        "dataio.matrix_io_s": tracer.total("dataio.save_matrix", "dataio.load_matrix"),
        "dataio.bytes_written": log.counts["bytes_written"],
        "dataio.bytes_read": log.counts["bytes_read"],
        "datagen.generate_s": tracer.total("datagen.generate"),
        "trace.unattributed_s": layer_self.get("bench", 0.0),
        "trace.wall_s": wall,
        "trace.absent_targets": len(tracer.absent),
    }
    values.update({f"{layer}.self_s": layer_self.get(layer, 0.0) for layer in LAYERS})
    return values
