"""Rank-R CP factorization of a graph view by alternating least squares.

The model [[a, b, c]] is not held to a = b. Sweeps run on the M2E solver's
core: the two packed MTTKRP passes, its block systems (:func:`node_system`
for a and b, :func:`subject_system` for c) and their ridge R x R solve
(:func:`ridge_solve`), and the Gram error routine (:func:`cp_squared_error`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .solver import (STOP_OBJ_CHANGE, SolverNumericsError, check_settings, node_system,
                     spectral_start, subject_system)
from .tensors import (GraphViewTensor, as_views, cp_reconstruct, cp_squared_error,
                      packed_energy, packed_mode3_mttkrp, packed_partial_mttkrp,
                      ridge_solve, symmetric_index)

# Below this share of ||X||^2 (relative error < 1e-3) the Gram error has lost
# half its digits, so a sweep measures its error from the residual instead.
RESIDUAL_ERROR_BELOW = 1e-6
_RESIDUAL_ROWS = 4  # node rows of the view and the model that the residual holds at once


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

    `rel_tol` (positive, finite) stops the sweeps once the squared error moves by
    at most `rel_tol` * ||X||^2, the M2E fitters' test; it defaults to their
    STOP_OBJ_CHANGE. `seed` draws only start columns past the node count, as theirs.
    """

    rank: int
    max_iters: int = 500
    rel_tol: float = STOP_OBJ_CHANGE
    seed: int = 0

    def __post_init__(self):
        check_settings(self, counts=("rank", "max_iters"), seeds=("seed",), weights=("rel_tol",))


@dataclass(frozen=True)
class CpFit:
    factors: CpFactors
    fit_trace: np.ndarray = field(repr=False)  # relative error per iteration
    iterations: int
    converged: bool
    degenerate: bool  # zero input tensor, ||X||^2 = 0


def _residual_norm(xp: np.ndarray, factors) -> float:
    """||X - [[a, b, c]]||_F from the packed rows X_p of X.

    The model's (i, j) and (j, i) entries differ, so each block of node rows
    i is unpacked to X[i, :, :] and its model rows built by cp_reconstruct.
    """
    a, b, c = factors
    m = a.shape[0]
    sym = symmetric_index(m)[2]

    def squared(i: int) -> float:  # a block's temporaries are freed before the next
        resid = xp.take(sym[i * m:(i + _RESIDUAL_ROWS) * m], axis=0)
        resid -= cp_reconstruct((a[i:i + _RESIDUAL_ROWS], b, c)).reshape(resid.shape)
        return float(np.vdot(resid, resid))

    return math.sqrt(sum(squared(i) for i in range(0, m, _RESIDUAL_ROWS)))


def cp_relative_error(tensor: GraphViewTensor | np.ndarray, factors: CpFactors) -> float:
    """||T - reconstruction||_F / ||T||_F (absolute norm for a zero tensor).

    `tensor` is a view, or an (M, M, N) array with symmetric slices that is
    validated and packed. Neither the dense view nor the dense model is built.
    """
    view = as_views([tensor])[0]
    if view.shape != factors.dims:
        raise ValueError(f"shape mismatch: tensor {view.shape} vs factors {factors.dims}")
    resid = _residual_norm(view.packed, factors)
    scale = math.sqrt(packed_energy(view.packed))
    return resid / scale if scale > 0 else resid


def cp_als_fit(tensor: GraphViewTensor | np.ndarray, opts: AlsOptions) -> CpFit:
    """Fit a rank-R CP model by alternating least squares.

    Parameters
    ----------
    tensor : GraphViewTensor or ndarray of shape (M, M, N)
        A graph view. An array must have finite entries and symmetric
        slices; it is validated and packed. Each sweep reads the packed rows
        in two passes.
    opts : AlsOptions
        Rank, iteration cap, stopping tolerance and seed.

    Returns
    -------
    CpFit
        Factors, the per-iteration relative error trace (non-increasing up
        to 1e-10 per sweep), iteration count and convergence flags. The start
        is the M2E fitters' :func:`spectral_start`, a = b = its node factor and
        c its subject factor, and ridge_solve's ridge follows each Gram's scale,
        so the sweeps do not depend on the data's units. A zero tensor runs the
        same sweeps, its trace holds the absolute error and ``degenerate`` is set.

    Raises
    ------
    SolverNumericsError
        From the start at iteration 0 if ||X||^2 overflows, else at the first
        non-finite sweep, named in the message and ``.iteration`` (0-based).
    """
    xp = as_views([tensor])[0].packed
    energy = packed_energy(xp)
    scale = math.sqrt(energy) or 1.0  # a zero tensor's error is absolute
    # the M2E fitters' start; a = b, and the first sweep solves a from b and c
    b, c = spectral_start(xp, energy, opts.rank, np.random.default_rng(opts.seed))

    trace, prev_sq = [], math.inf
    converged = False
    for it in range(opts.max_iters):
        y = packed_partial_mttkrp(xp, c)  # modes 1 and 2 leave c fixed
        a = ridge_solve(*node_system(y, b, c, 0.0, 0.0))
        b = ridge_solve(*node_system(y, a, c, 0.0, 0.0))
        g = packed_mode3_mttkrp(xp, a, b)
        c = ridge_solve(*subject_system(g, a, b, None, 0.0))
        sq = cp_squared_error(energy, g, a, b, c)
        err = np.sqrt(sq) / scale
        if sq < RESIDUAL_ERROR_BELOW * energy:
            err = _residual_norm(xp, (a, b, c)) / scale
        if not (math.isfinite(err) and all(np.isfinite(f).all() for f in (a, b, c))):
            raise SolverNumericsError(f"non-finite error or factors at CP-ALS sweep {it}", it)
        trace.append(err)
        if abs(prev_sq - sq) <= opts.rel_tol * energy:
            converged = True
            break
        prev_sq = sq

    return CpFit(CpFactors((a, b, c)), np.asarray(trace), iterations=len(trace),
                 converged=converged, degenerate=energy == 0.0)
