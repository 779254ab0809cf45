#!/usr/bin/env python3
"""CP factorization by alternating least squares.

Builds an exact rank-3 graph view (symmetric slices, [[a, a, c]]), recovers
it, and shows the error trace; then adds symmetric noise to show the
graceful degradation. CP-ALS takes graph views only: its passes read the
packed upper triangles, and its model [[a, b, c]] is not held to a = b.
"""
import numpy as np

from m2e import AlsOptions, GraphViewTensor, cp_als_fit, cp_relative_error
from m2e.tensors import cp_reconstruct

rng = np.random.default_rng(42)
nodes, subjects, rank = 10, 8, 3
a, c = rng.standard_normal((nodes, rank)), rng.standard_normal((subjects, rank))
dense = cp_reconstruct((a, a, c))
clean = GraphViewTensor(dense)

fit = cp_als_fit(clean, AlsOptions(rank=rank, seed=0))
print(f"noiseless recovery: relative error {cp_relative_error(clean, fit.factors):.2e} "
      f"after {fit.iterations} sweeps (converged={fit.converged})")
print("error trace (first 8):", np.array2string(fit.fit_trace[:8], precision=3))

w = rng.standard_normal(dense.shape)
noise = 0.05 * np.linalg.norm(dense.ravel()) / np.sqrt(dense.size) * (w + w.transpose(1, 0, 2)) / 2
noisy = GraphViewTensor(dense + noise)
fit_noisy = cp_als_fit(noisy, AlsOptions(rank=rank, seed=0))
print(f"5% symmetric noise: relative error "
      f"{cp_relative_error(noisy, fit_noisy.factors):.3f}")

# Underestimating the rank still gives the best low-rank summary.
fit_low = cp_als_fit(clean, AlsOptions(rank=2, seed=0))
print(f"rank-2 fit of a rank-3 view: relative error "
      f"{cp_relative_error(clean, fit_low.factors):.3f}")
