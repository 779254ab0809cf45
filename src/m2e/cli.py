"""Command-line driver.

Subcommands: generate, fit, cluster, evaluate, gridsearch, cp. Settings
come from defaults, then an optional JSON config file (fit, cluster,
evaluate, gridsearch), then flags (flags win). A flag's dest is the name of
the config field it sets. Every command checks its settings before it reads
an input, so a bad setting is reported ahead of a missing file. On failure
an error document is written to the output directory and the exit status is
nonzero.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .cp import AlsOptions
from .dataio import (load_dataset, load_dataset_labels, load_labels, load_matrix, save_dataset,
                     write_json)
from .datagen import PRESETS, SyntheticSpec, generate
from .runner import (METHODS, GridSpec, RunConfig, run_cluster, run_cp, run_evaluate,
                     run_fit, run_gridsearch)
from .solver import M2eConfig


def _parse_lambda(items: list[str] | None) -> tuple[float, ...] | None:
    """Parse repeated --lambda v=x flags into a per-view weight tuple."""
    if not items:
        return None
    pairs = {}
    for item in items:
        try:
            key, value = item.split("=", 1)
            view, weight = int(key), float(value)
        except ValueError as exc:
            raise ValueError(f"--lambda expects v=x (e.g. 1=0.01), got {item!r}") from exc
        if view in pairs:
            raise ValueError(f"--lambda gives view {view} more than once")
        pairs[view] = weight
    if sorted(pairs) != list(range(1, len(pairs) + 1)):
        raise ValueError(f"--lambda views must be 1..V, got {sorted(pairs)}")
    return tuple(pairs[v] for v in sorted(pairs))


def _parse_grid_values(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _parse_rank_grid(text: str) -> tuple[int, ...]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(x) for x in text.split(","))


def _parse_sizes(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _flags(args, cls) -> dict:
    """The given flags whose dest names a field of the dataclass `cls`."""
    names = {f.name for f in dataclasses.fields(cls)}
    return {k: v for k, v in vars(args).items() if k in names and v is not None}


def _build_run_config(args) -> RunConfig:
    top = json.loads(Path(args.config).read_text()) if args.config else {}
    solver_cfg = dict(top.pop("solver", {}))
    solver_cfg.update(_flags(args, M2eConfig))
    lambdas = _parse_lambda(getattr(args, "lam", None))
    if lambdas is not None:
        solver_cfg["lambdas"] = lambdas
    top.update(_flags(args, RunConfig))
    return RunConfig(solver=M2eConfig(**solver_cfg), **top)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)


def _add_solver_flags(p: argparse.ArgumentParser):
    p.add_argument("--method", choices=METHODS, default=None)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--lambda", dest="lam", action="append", metavar="V=X",
                   help="per-view weight, repeatable (e.g. --lambda 1=0.01)")
    p.add_argument("--max-iters", dest="max_outer_iters", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="m2e",
        description="Consensus embedding and clustering of multi-view graph data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic dataset")
    _add_common(g)
    g.add_argument("--preset", choices=tuple(PRESETS))
    g.add_argument("--views", type=int, default=None)
    g.add_argument("--nodes", type=int, default=None)
    g.add_argument("--subjects", type=int, default=None)
    g.add_argument("--cluster-sizes", type=_parse_sizes, default=None,
                   metavar="N1,N2,...")
    g.add_argument("--latent-rank", type=int, default=None)
    g.add_argument("--separation", type=float, default=None)
    g.add_argument("--noise", dest="noise_sigma", type=float, default=None)
    g.add_argument("--jitter", type=float, default=None)

    f = sub.add_parser("fit", help="fit an embedding to a dataset")
    _add_common(f)
    f.add_argument("--dataset", required=True)
    _add_solver_flags(f)

    c = sub.add_parser("cluster", help="k-means on an embedding file")
    _add_common(c)
    c.add_argument("--embedding", required=True)
    c.add_argument("--k", dest="kmeans_k", type=int, default=None)
    c.add_argument("--restarts", dest="kmeans_restarts", type=int, default=None)

    e = sub.add_parser("evaluate", help="score an embedding against labels")
    _add_common(e)
    e.add_argument("--embedding", required=True)
    e.add_argument("--labels", help="labels file (one integer per line)")
    e.add_argument("--dataset", help="dataset directory providing the labels")
    e.add_argument("--k", dest="kmeans_k", type=int, default=None)
    e.add_argument("--restarts", dest="kmeans_restarts", type=int, default=None)
    e.add_argument("--repeats", dest="eval_repeats", type=int, default=None)
    e.add_argument("--positive-class", type=int, default=None)

    gs = sub.add_parser("gridsearch", help="search view weights and rank")
    _add_common(gs)
    gs.add_argument("--dataset", required=True)
    gs.add_argument("--lambda-grid", type=_parse_grid_values, default=None,
                    metavar="X1,X2,...")
    gs.add_argument("--rank-grid", type=_parse_rank_grid, default=None,
                    metavar="LO:HI|R1,R2,...")
    gs.add_argument("--force-large-grid", action="store_true")
    gs.add_argument("--restarts", dest="kmeans_restarts", type=int, default=None)
    gs.add_argument("--repeats", dest="eval_repeats", type=int, default=None)
    gs.add_argument("--method", choices=METHODS, default=None)
    gs.add_argument("--max-iters", dest="max_outer_iters", type=int, default=None)
    for p in (f, c, e, gs):
        p.add_argument("--config", help="JSON config file; flags override its values")

    cp = sub.add_parser("cp", help="plain CP factorization of one view")
    _add_common(cp)
    cp.add_argument("--dataset", required=True)
    cp.add_argument("--view", default="0", help="a view name; otherwise a 0-based index")
    cp.add_argument("--rank", type=int, required=True)
    cp.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    cp.add_argument("--tol", dest="rel_tol", type=float, default=None)

    return parser


def _cmd_generate(args) -> None:
    spec = PRESETS[args.preset]() if args.preset else SyntheticSpec()
    spec = dataclasses.replace(spec, **_flags(args, SyntheticSpec))
    views, labels = generate(spec)
    save_dataset(args.out, views, labels,
                 metadata={"generator": dataclasses.asdict(spec)})


def _cmd_fit(args) -> None:
    run_fit(_build_run_config(args), load_dataset(args.dataset), args.out)


def _cmd_cluster(args) -> None:
    config = _build_run_config(args)
    run_cluster(load_matrix(args.embedding), config, args.out)


def _cmd_evaluate(args) -> None:
    config = _build_run_config(args)
    if args.labels:
        labels = load_labels(args.labels)
    elif args.dataset:
        labels = load_dataset_labels(args.dataset)
        if labels is None:
            raise ValueError(
                f"dataset {args.dataset} has no labels file; evaluation needs "
                "ground truth (pass --labels or add labels to the manifest)"
            )
    else:
        raise ValueError("evaluate needs --labels or --dataset to supply ground truth")
    run_evaluate(load_matrix(args.embedding), labels, config, args.out)


def _cmd_gridsearch(args) -> None:
    grid, config = GridSpec(**_flags(args, GridSpec)), _build_run_config(args)
    run_gridsearch(grid, load_dataset(args.dataset), config, args.out,
                   allow_large=args.force_large_grid)


def _cmd_cp(args) -> None:
    run_cp(args.dataset, args.view, AlsOptions(**_flags(args, AlsOptions)), args.out)


_COMMANDS = {
    "generate": _cmd_generate,
    "fit": _cmd_fit,
    "cluster": _cmd_cluster,
    "evaluate": _cmd_evaluate,
    "gridsearch": _cmd_gridsearch,
    "cp": _cmd_cp,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except Exception as exc:  # noqa: BLE001 - boundary: report, emit, fail
        out = getattr(args, "out", None)
        if out:
            write_json(Path(out) / "error.json", {"error": type(exc).__name__,
                                                  "message": str(exc), "command": args.command})
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
