"""Experiment drivers: fit, cluster, evaluate, grid search and CP runs.

Every driver writes its artifacts (matrices, traces, JSON documents) under
an output directory and also returns them in memory. Numeric files use 17
significant digits so reruns with the same seed are byte-identical.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cluster import BinaryMetrics, as_labels, cluster_and_score, kmeans
from .cp import AlsOptions, cp_als_fit, cp_relative_error
from .dataio import Dataset, load_dataset, load_dataset_view, save_labels, save_matrix
from .solver import (M2eConfig, M2eSolution, SolverNumericsError, check_settings,
                     m2e_ds_fit, m2e_fit, m2e_ts_fit)

# method name -> fitter, named so that `_fit` finds the fitter bound in this
# module when it is called (a profiler or a test may rebind it)
_FITTERS = {"m2e": "m2e_fit", "m2e-ds": "m2e_ds_fit", "m2e-ts": "m2e_ts_fit"}
METHODS = tuple(_FITTERS)
_GRID_CELL_LIMIT = 10_000


@dataclass(frozen=True)
class RunConfig:
    """Full experiment configuration: solver settings plus protocol knobs."""

    method: str = "m2e"
    solver: M2eConfig = field(default_factory=M2eConfig)
    kmeans_k: int = 2
    kmeans_restarts: int = 20
    eval_repeats: int = 20
    positive_class: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        check_settings(self, counts=("kmeans_k", "kmeans_restarts", "eval_repeats"))
        try:  # a label, so as_labels' rule
            object.__setattr__(self, "positive_class", as_labels([self.positive_class]).item())
        except ValueError as exc:
            raise ValueError(f"positive_class: {exc}") from None


@dataclass(frozen=True)
class GridSpec:
    """Search grid: per-view weight values crossed with embedding ranks."""

    lambda_grid: tuple[float, ...] = (1e-4, 1e-2, 1.0, 1e2, 1e4)
    rank_grid: tuple[int, ...] = tuple(range(1, 21))

    def __post_init__(self):
        check_settings(self, counts=("rank_grid",), weights=("lambda_grid",))


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _as_dataset(dataset: Dataset | str | Path) -> Dataset:
    if isinstance(dataset, Dataset):
        return dataset
    return load_dataset(dataset)


def _fit(config: RunConfig, dataset: Dataset) -> M2eSolution:
    return globals()[_FITTERS[config.method]](dataset.views, config.solver)


def run_fit(config: RunConfig, dataset: Dataset | str | Path,
            out_dir: str | Path) -> M2eSolution:
    """Fit the configured method and write embedding, factors and traces.

    Warns when the fit stops at `max_outer_iters` without converging.
    """
    ds = _as_dataset(dataset)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    solution = _fit(config, ds)
    elapsed = time.perf_counter() - start

    save_matrix(out / "consensus.txt", solution.consensus, "consensus embedding")
    for name, h, f in zip(ds.view_names, solution.node_factors,
                          solution.subject_factors):
        save_matrix(out / f"{name}_node_factor.txt", h, f"node factor {name}")
        save_matrix(out / f"{name}_subject_factor.txt", f, f"subject factor {name}")
    trace = np.column_stack([
        np.arange(1, solution.iterations + 1),
        solution.objective_trace,
        solution.residual_trace,
    ])
    save_matrix(out / "trace.txt", trace, "iteration objective residual")
    _write_json(out / "summary.json", {
        "config": dataclasses.asdict(config),
        "iterations": solution.iterations,
        "converged": solution.converged,
        "final_objective": solution.final_objective,
        "wall_time_seconds": elapsed,
    })
    if not solution.converged:
        warnings.warn(f"{config.method} fit did not converge: stopped at the iteration "
                      f"cap after {solution.iterations} iterations", stacklevel=2)
    return solution


def run_cluster(embedding: np.ndarray, config: RunConfig, out_dir: str | Path) -> dict:
    """k-means on embedding rows; writes labels and per-restart inertias."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = kmeans(embedding, config.kmeans_k, restarts=config.kmeans_restarts,
                    seed=config.solver.seed)
    save_labels(out / "labels.txt", result.labels)
    save_matrix(out / "inertias.txt", result.inertias.reshape(-1, 1),
                "inertia per restart")
    doc = {
        "config": dataclasses.asdict(config),
        "best_restart": result.best_restart,
        "best_inertia": float(result.inertias[result.best_restart]),
    }
    _write_json(out / "summary.json", doc)
    return doc


def run_evaluate(embedding: np.ndarray, labels: np.ndarray, config: RunConfig,
                 out_dir: str | Path | None = None) -> dict:
    """Repeat the clustering protocol and aggregate metrics.

    Runs `eval_repeats` independent repetitions, each a full restart
    k-means plus label matching, and reports per-repetition metrics along
    with their mean and standard deviation.
    """
    embedding = np.asarray(embedding, dtype=float)
    labels = as_labels(labels)
    if embedding.shape[0] != labels.shape[0]:
        raise ValueError(
            f"embedding has {embedding.shape[0]} rows but {labels.shape[0]} labels"
        )
    arity = len(np.unique(labels))
    if arity != config.kmeans_k:
        warnings.warn(
            f"labels carry {arity} distinct values but clustering uses "
            f"k={config.kmeans_k}; proceeding with the configured k",
            stacklevel=2,
        )
    if config.positive_class not in labels:
        warnings.warn(f"no label is positive_class {config.positive_class}; precision, "
                      "recall and F1 will read 0", stacklevel=2)
    reps = []
    for rep in range(config.eval_repeats):
        report = cluster_and_score(
            embedding, labels, k=config.kmeans_k, restarts=config.kmeans_restarts,
            seed=config.solver.seed + rep, positive_class=config.positive_class)
        reps.append({f.name: getattr(report, f.name) for f in dataclasses.fields(BinaryMetrics)})
    metric_names = ("accuracy", "precision", "recall", "f1")
    doc = {
        "config": dataclasses.asdict(config),
        "repetitions": reps,
        "mean": {m: float(np.mean([r[m] for r in reps])) for m in metric_names},
        "std": {m: float(np.std([r[m] for r in reps])) for m in metric_names},
    }
    if out_dir is not None:
        _write_json(Path(out_dir) / "metrics.json", doc)
    return doc


def _grid_cells(grid: GridSpec, n_views: int):
    return [
        {"lambdas": combo, "rank": rank}
        for combo in itertools.product(grid.lambda_grid, repeat=n_views)
        for rank in grid.rank_grid
    ]


def _evaluate_cell(cell, config: RunConfig, dataset: Dataset) -> dict:
    """The cell's accuracy row, or its "error" if the fit raised SolverNumericsError."""
    solver = dataclasses.replace(config.solver, lambdas=cell["lambdas"],
                                 rank=cell["rank"])
    cfg = dataclasses.replace(config, solver=solver)
    row = {"lambdas": list(cell["lambdas"]), "rank": cell["rank"]}
    try:
        solution = _fit(cfg, dataset)
    except SolverNumericsError as exc:
        return {**row, "error": exc}
    doc = run_evaluate(solution.consensus, dataset.labels, cfg)
    return {
        **row,
        "mean_accuracy": doc["mean"]["accuracy"],
        "std_accuracy": doc["std"]["accuracy"],
    }


def run_gridsearch(grid: GridSpec, dataset: Dataset | str | Path, config: RunConfig,
                   out_dir: str | Path, allow_large: bool = False) -> list[dict]:
    """Evaluate every (view weights, rank) cell; returns rows ranked by accuracy.

    Writes the ranked table plus two sensitivity slices: accuracy versus
    rank at the best weights, and accuracy versus weights at the best rank.
    A cell whose fit raises SolverNumericsError is left out of all three;
    summary.json lists it under failed_cells with its error and iteration,
    and a warning counts the failed cells. If every cell fails, the first
    cell's error is raised.
    """
    ds = _as_dataset(dataset)
    if ds.labels is None:
        raise ValueError("grid search needs ground-truth labels in the dataset")
    cells = _grid_cells(grid, len(ds.views))
    if len(cells) > _GRID_CELL_LIMIT and not allow_large:
        raise ValueError(
            f"grid has {len(cells)} cells (> {_GRID_CELL_LIMIT}); "
            "pass allow_large / --force-large-grid to proceed"
        )
    results = [_evaluate_cell(c, config, ds) for c in cells]
    rows = [r for r in results if "error" not in r]
    failed = [r for r in results if "error" in r]
    if not rows:
        raise failed[0]["error"]
    if failed:
        warnings.warn(f"{len(failed)} of {len(cells)} cells failed; summary.json lists "
                      "them under failed_cells", stacklevel=2)

    order = sorted(range(len(rows)),
                   key=lambda i: (-rows[i]["mean_accuracy"], i))
    ranked = [rows[i] for i in order]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    table = np.array([[*r["lambdas"], r["rank"], r["mean_accuracy"], r["std_accuracy"]]
                      for r in ranked])
    lam_cols = " ".join(f"lambda{v + 1}" for v in range(len(ds.views)))
    save_matrix(out / "grid_results.txt", table,
                f"{lam_cols} rank mean_accuracy std_accuracy")

    best = ranked[0]
    vs_rank = np.array([[r["rank"], r["mean_accuracy"]]
                        for r in rows
                        if r["lambdas"] == best["lambdas"]])
    save_matrix(out / "accuracy_vs_rank.txt", vs_rank, "rank mean_accuracy")
    vs_lambda = np.array([[*r["lambdas"], r["mean_accuracy"]]
                          for r in rows if r["rank"] == best["rank"]])
    save_matrix(out / "accuracy_vs_lambda.txt", vs_lambda,
                f"{lam_cols} mean_accuracy")
    _write_json(out / "summary.json", {
        "config": dataclasses.asdict(config),
        "lambda_grid": list(grid.lambda_grid),
        "rank_grid": list(grid.rank_grid),
        "cells": len(cells),
        "best": best,
        "failed_cells": [{"lambdas": r["lambdas"], "rank": r["rank"], "error": str(r["error"]),
                          "iteration": r["error"].iteration} for r in failed],
    })
    return ranked


def run_cp(dataset: str | Path, view: str | int, opts: AlsOptions,
           out_dir: str | Path) -> dict:
    """CP factorization of one view (a name or 0-based index); writes factors and trace.

    Only that view's file is read from the dataset directory.
    """
    name, graph = load_dataset_view(dataset, view)
    fit = cp_als_fit(graph, opts)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for mode, factor in enumerate(fit.factors, start=1):
        save_matrix(out / f"factor_mode{mode}.txt", factor, f"mode-{mode} factor")
    save_matrix(out / "error_trace.txt", fit.fit_trace.reshape(-1, 1),
                "relative error per iteration")
    doc = {
        "view": name,
        "rank": opts.rank,
        "iterations": fit.iterations,
        "converged": fit.converged,
        "degenerate": fit.degenerate,
        "relative_error": cp_relative_error(graph, fit.factors),
    }
    _write_json(out / "summary.json", doc)
    return doc
