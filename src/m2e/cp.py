"""Rank-R CP factorization of a third-order tensor by alternating least squares.

Sweeps run on the M2E solver's core: the two-pass MTTKRP kernel, the ridge
R x R solve (:func:`ridge_solve`) and the objective's Gram error routine
(:func:`cp_squared_error`).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensors import (cp_reconstruct, cp_squared_error, frobenius_norm, mode3_mttkrp,
                      mttkrp_from_partial, partial_mttkrp, ridge_solve)

# Below this share of ||X||^2 (relative error < 1e-3) the Gram error has lost
# half its digits, so a sweep measures its error against the dense model.
DENSE_ERROR_BELOW = 1e-6


@dataclass(frozen=True)
class CpFactors:
    """Three factor matrices (I1 x R, I2 x R, I3 x R) of a rank-R model."""

    factors: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self):
        mats = tuple(np.asarray(f, dtype=float) for f in self.factors)
        if len(mats) != 3 or any(m.ndim != 2 for m in mats):
            raise ValueError("CpFactors needs exactly three matrices")
        if len({m.shape[1] for m in mats}) != 1:
            raise ValueError("factor matrices disagree on column count")
        if any(not np.isfinite(m).all() for m in mats):
            raise ValueError("factor entries must be finite")
        object.__setattr__(self, "factors", mats)

    def __iter__(self):
        return iter(self.factors)

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(m.shape[0] for m in self.factors)


@dataclass(frozen=True)
class AlsOptions:
    """Knobs for :func:`cp_als_fit`.

    `rel_tol` stops the sweep loop once the relative fit improves by less
    than this between iterations.
    """

    rank: int
    max_iters: int = 500
    rel_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")


@dataclass(frozen=True)
class CpFit:
    factors: CpFactors
    fit_trace: np.ndarray = field(repr=False)  # relative error per iteration
    iterations: int
    converged: bool
    degenerate: bool  # zero input tensor; factors are all-zero


def _dense_error(t: np.ndarray, factors) -> float:
    """||t - [[a, b, c]]||_F from the dense model, built once and overwritten by the residual."""
    resid = cp_reconstruct(factors)
    np.subtract(t, resid, out=resid)
    return frobenius_norm(resid)


def cp_relative_error(tensor: np.ndarray, factors: CpFactors) -> float:
    """||T - reconstruction||_F / ||T||_F (absolute norm for a zero tensor); dense.

    Allocates one tensor of T's size, the model, which then holds the residual.
    """
    t = np.asarray(tensor, dtype=float)
    if t.shape != factors.dims:
        raise ValueError(f"shape mismatch: tensor {t.shape} vs factors {factors.dims}")
    resid = _dense_error(t, factors)
    scale = frobenius_norm(t)
    return resid / scale if scale > 0 else resid


def cp_als_fit(tensor: np.ndarray, opts: AlsOptions) -> CpFit:
    """Fit a rank-R CP model by alternating least squares.

    Parameters
    ----------
    tensor : ndarray, shape (I1, I2, I3)
        Dense real tensor; entries must be finite. It is made C-contiguous
        once, so each sweep reads it in two passes without copying.
    opts : AlsOptions
        Rank, iteration cap, stopping tolerance and seed.

    Returns
    -------
    CpFit
        Factors, the per-iteration relative error trace (non-increasing up
        to 1e-10 per sweep), iteration count and convergence flags. A zero
        input tensor short-circuits to all-zero factors with
        ``degenerate=True``.
    """
    t = np.ascontiguousarray(tensor, dtype=float)
    if t.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={t.ndim}")
    if not np.isfinite(t).all():
        raise ValueError("tensor entries must be finite")
    r = opts.rank
    scale = frobenius_norm(t)
    if scale == 0.0:
        zeros = CpFactors(tuple(np.zeros((d, r)) for d in t.shape))
        return CpFit(zeros, np.zeros(1), iterations=0, converged=True, degenerate=True)
    energy = float(np.vdot(t, t))

    rng = np.random.default_rng(opts.seed)
    a, b, c = (rng.standard_normal((d, r)) for d in t.shape)

    trace = []
    converged = False
    for it in range(opts.max_iters):
        y = partial_mttkrp(t, c)  # modes 1 and 2 leave c fixed
        a = ridge_solve((c.T @ c) * (b.T @ b), mttkrp_from_partial(y, b, 1))
        b = ridge_solve((c.T @ c) * (a.T @ a), mttkrp_from_partial(y, a, 2))
        g = mode3_mttkrp(t, a, b)
        c = ridge_solve((b.T @ b) * (a.T @ a), g)
        sq = cp_squared_error(energy, g, a, b, c)
        err = np.sqrt(sq) / scale
        if sq < DENSE_ERROR_BELOW * energy:
            err = _dense_error(t, (a, b, c)) / scale
        trace.append(err)
        if it >= 1 and abs(trace[-2] - err) < opts.rel_tol:
            converged = True
            break

    return CpFit(CpFactors((a, b, c)), np.asarray(trace), iterations=len(trace),
                 converged=converged, degenerate=False)
