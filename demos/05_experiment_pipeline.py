#!/usr/bin/env python3
"""Full experiment pipeline on disk: generate, fit, evaluate, grid search.

Everything here is also reachable from the command line:

    m2e generate --out data --views 2 --nodes 12 --subjects 24 \
        --cluster-sizes 12,12 --latent-rank 3 --separation 3 --noise 0.1 --seed 1
    m2e fit --dataset data --out fit --rank 3 --lambda 1=1 --lambda 2=1
    m2e evaluate --embedding fit/consensus.txt --dataset data --out eval
    m2e gridsearch --dataset data --out grid --lambda-grid 0.01,1,100 \
        --rank-grid 2:4 --repeats 5
"""
import json
import tempfile
from pathlib import Path

from m2e import (GridSpec, M2eConfig, RunConfig, SyntheticSpec, generate,
                 load_matrix, run_evaluate, run_fit, run_gridsearch, save_dataset)

work = Path(tempfile.mkdtemp(prefix="m2e_demo_"))
print("working under", work)

spec = SyntheticSpec(views=2, nodes=12, subjects=24, cluster_sizes=(12, 12),
                     latent_rank=3, separation=3.0, noise_sigma=0.1, seed=1)
views, labels = generate(spec)
save_dataset(work / "data", views, labels)
print("dataset written:", sorted(p.name for p in (work / "data").iterdir()))

config = RunConfig(solver=M2eConfig(rank=3, lambdas=(1.0, 1.0), seed=1),
                   kmeans_restarts=20, eval_repeats=10)
solution = run_fit(config, work / "data", work / "fit")
print(f"fit wrote consensus.txt with shape "
      f"{load_matrix(work / 'fit' / 'consensus.txt').shape}; "
      f"{solution.iterations} iterations")

metrics = run_evaluate(solution.consensus, labels, config, work / "eval")
print(f"accuracy {metrics['mean']['accuracy']:.3f} "
      f"+/- {metrics['std']['accuracy']:.3f} over "
      f"{len(metrics['repetitions'])} repetitions")

grid = GridSpec(lambda_grid=(1e-2, 1.0, 1e2), rank_grid=(2, 3))
ranked = run_gridsearch(grid, work / "data", config, work / "grid")
best = ranked[0]
print(f"grid search over {len(ranked)} cells; best: lambdas={best['lambdas']} "
      f"rank={best['rank']} accuracy={best['mean_accuracy']:.3f}")
print("sensitivity files:",
      sorted(p.name for p in (work / "grid").iterdir() if p.suffix == ".txt"))

summary = json.loads((work / "fit" / "summary.json").read_text())
print("summary echoes the full config, e.g. solver.max_outer_iters =",
      summary["config"]["solver"]["max_outer_iters"])
