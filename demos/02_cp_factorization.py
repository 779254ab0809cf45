#!/usr/bin/env python3
"""CP factorization by alternating least squares.

Builds an exact rank-3 tensor, recovers it, and shows the error trace; then
adds noise to show the graceful degradation.
"""
import numpy as np

from m2e import AlsOptions, cp_als_fit, cp_relative_error
from m2e.tensors import cp_reconstruct

rng = np.random.default_rng(42)
dims, rank = (10, 12, 8), 3
factors = [rng.standard_normal((d, rank)) for d in dims]
clean = cp_reconstruct(factors)

fit = cp_als_fit(clean, AlsOptions(rank=rank, seed=0))
print(f"noiseless recovery: relative error {cp_relative_error(clean, fit.factors):.2e} "
      f"after {fit.iterations} sweeps (converged={fit.converged})")
print("error trace (first 8):", np.array2string(fit.fit_trace[:8], precision=3))

noisy = clean + 0.05 * np.linalg.norm(clean.ravel()) / np.sqrt(clean.size) \
    * rng.standard_normal(dims)
fit_noisy = cp_als_fit(noisy, AlsOptions(rank=rank, seed=0))
print(f"5% entrywise noise: relative error "
      f"{cp_relative_error(noisy, fit_noisy.factors):.3f}")

# Underestimating the rank still gives the best low-rank summary.
fit_low = cp_als_fit(clean, AlsOptions(rank=2, seed=0))
print(f"rank-2 fit of a rank-3 tensor: relative error "
      f"{cp_relative_error(clean, fit_low.factors):.3f}")
