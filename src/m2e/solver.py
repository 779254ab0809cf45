"""Consensus embedding of multi-view graph tensors.

Each view is an (M_v, M_v, N) stack of symmetric affinity matrices. The
solver factors every view as a partially symmetric rank-R model whose
first two factors are constrained equal through an auxiliary copy and
Lagrange multipliers (an ADMM splitting), while the per-view subject
factors are softly pulled toward a shared consensus embedding. Every block
update is the exact minimiser of its quadratic subproblem, built by
:func:`node_system` or :func:`subject_system` and found by the ridge R x R
solve on the Gram's own scale (:func:`m2e.tensors.ridge_solve`), as CP-ALS
sweeps with the same builders and solve.

The joint model (:func:`m2e_fit`) and its two ablations run one outer loop
and differ only in how the subject factors move: "joint" pulls each view's
factor toward the consensus and re-averages the consensus every iteration;
"independent" (:func:`m2e_ts_fit`) does the same with no pull, so each view
fits on its own and the consensus is only read out; "shared"
(:func:`m2e_ds_fit`) solves for one subject factor on all views at once.
One Gram-based routine evaluates the objective for the per-iteration trace
and the final objective.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .tensors import (GraphViewTensor, as_views, cp_squared_error, frobenius_norm,
                      mttkrp_from_partial, packed_energy, packed_mode3_mttkrp,
                      packed_partial_mttkrp, packed_slice_gram, ridge_solve, scaled_identity)

# Monitor callbacks receive (event, info-dict); see m2e_fit.
Monitor = Callable[[str, dict], None]

# M2eConfig's stopping test, energy-scaled so that it holds as the objective nears 0
STOP_RESIDUAL = 1e-3
STOP_OBJ_CHANGE = 1e-9


class SolverNumericsError(RuntimeError):
    """A non-finite value or a singular block system mid-run, at the iteration and block named."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


_SETTING_RULES = (  # count, seed, weight, amount: (number type, kind, stored as, test, wording)
    (numbers.Integral, "an integer", int, lambda x: x >= 1, ">= 1"),
    (numbers.Integral, "an integer", int, lambda x: x >= 0, ">= 0"),
    (numbers.Real, "a number", float, lambda x: 0 < x < np.inf, "positive and finite"),
    (numbers.Real, "a number", float, lambda x: 0 <= x < np.inf, "finite and >= 0"),
)


def check_settings(config, counts=(), seeds=(), weights=(), amounts=()) -> None:
    """Check the named fields of the dataclass `config`; store each as a Python int or float.

    A count is an integer >= 1, a seed an integer >= 0, a weight a positive, finite
    number and an amount a finite number >= 0; a bool is none of them. A field
    annotated as a tuple is a non-empty sequence, checked entry by entry. So
    dataclasses.asdict(config) is valid JSON. A ValueError names the field.
    """
    tuples = {f.name for f in fields(config) if str(f.type).startswith("tuple")}
    for names, (number, kind, cast, holds, wording) in zip((counts, seeds, weights, amounts),
                                                          _SETTING_RULES):
        for name in names:
            entries = getattr(config, name) if name in tuples else (getattr(config, name),)
            if not np.iterable(entries) or not (entries := tuple(entries)):
                raise ValueError(f"{name} must be a non-empty sequence, got {entries!r}")
            values = []
            for x in entries:
                if isinstance(x, bool) or not isinstance(x, number):
                    raise ValueError(f"{name} must be {kind}, got {x!r}")
                try:
                    values.append(cast(x))
                except OverflowError:  # e.g. float(10**400)
                    raise ValueError(f"{name} must be {wording}, got a number past "
                                     "the float range") from None
                if not holds(values[-1]):
                    raise ValueError(f"{name} must be {wording}, got {values[-1]!r}")
            object.__setattr__(config, name, tuple(values) if name in tuples else values[0])


@dataclass(frozen=True)
class M2eConfig:
    """Solver configuration.

    `lambdas` holds one positive, finite view weight per view; None means equal
    weights (1.0 each). A fit stops after `max_outer_iters` iterations, or
    earlier with `converged` set once the coupling residual is <= STOP_RESIDUAL
    and |obj_{k-1} - obj_k| <= STOP_OBJ_CHANGE * sum_v ||X_v||^2. `seed` seeds
    the noise columns the spectral start adds when `rank` exceeds the node count.
    """

    rank: int = 2
    lambdas: tuple[float, ...] | None = None
    max_outer_iters: int = 500
    seed: int = 0

    def __post_init__(self):
        check_settings(self, counts=("rank", "max_outer_iters"), seeds=("seed",),
                       weights=() if self.lambdas is None else ("lambdas",))


@dataclass
class M2eState:
    """Mutable iterate: per-view factor blocks plus the shared consensus.

    `node[v]` and `node_aux[v]` are the (M_v, R) node factor and its
    auxiliary copy, `dual[v]` the matching multipliers, `subject[v]` the
    (N, R) per-view subject factor, `consensus` the shared (N, R) embedding.
    """

    node: list[np.ndarray]
    node_aux: list[np.ndarray]
    dual: list[np.ndarray]
    subject: list[np.ndarray]
    consensus: np.ndarray


@dataclass(frozen=True)
class M2eSolution:
    """Fit result.

    `node_factors` are the symmetrized (node + aux) / 2 per-view factors.
    `objective_trace` records the working objective (reconstruction with
    the split node factors, plus the consensus penalty where the model has
    one) once per outer iteration; `final_objective` re-evaluates with the
    symmetrized node factor in both graph modes. `converged` says whether
    the last iteration met the stopping test of :class:`M2eConfig`.
    """

    consensus: np.ndarray
    node_factors: list[np.ndarray]
    subject_factors: list[np.ndarray]
    objective_trace: np.ndarray = field(repr=False)
    residual_trace: np.ndarray = field(repr=False)
    converged: bool
    iterations: int
    final_objective: float


# ---------------------------------------------------------------------------
# block subproblems
#
# Every block update minimizes a quadratic  tr(M A M^T) - 2 tr(B^T M)  in its
# matrix M; the gradient is 2 M A - 2 B, so the minimiser solves the normal
# equations M A = B and is ridge_solve(A, B). The systems take the view's
# MTTKRPs from the two-pass kernel in m2e.tensors, so each outer iteration
# reads a view's packed rows X_p twice: pass 1, packed_partial_mttkrp(X_p, F),
# serves node_system in both the node and the aux step, since F is fixed
# during both; pass 2, packed_mode3_mttkrp(X_p, H, P), serves the subject
# system and the objective's cross term.


def quadratic_objective(m: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Value tr(M A M^T) - 2 tr(B^T M) of a block subproblem (constants dropped)."""
    return float(np.einsum("ij,jk,ik->", m, a, m) - 2.0 * np.einsum("ij,ij->", b, m))


def node_system(y: np.ndarray, other: np.ndarray, f: np.ndarray, u: np.ndarray, mu: float):
    """Quadratic (A, B) for one copy of a view's node factor, given the other copy and subject f.

    `y` is the view's pass-1 product packed_partial_mttkrp(X_p, f). With symmetric
    slices the data term ||X - [[h, p, f]]||^2 is unchanged when the copies h
    and p swap, and the coupling term only flips the sign of u: the node step
    passes (p, u), the aux step (h, -u). CP-ALS's mode-1 and mode-2 systems
    are these with no coupling, mu = u = 0.
    """
    r = other.shape[1]
    a = (f.T @ f) * (other.T @ other) + scaled_identity(r, 0.5 * mu)
    b = mttkrp_from_partial(y, other) + 0.5 * (mu * other - u)
    return a, b


def subject_system(g: np.ndarray, h: np.ndarray, p: np.ndarray,
                   consensus: np.ndarray | None, lam: float):
    """Quadratic (A, B) for a view's subject factor; lam=0 drops the pull.

    `g` is the view's mode-3 MTTKRP packed_mode3_mttkrp(X_p, h, p). The
    spectral start's subject solve and CP-ALS's mode-3 system are these at lam=0.
    """
    r = h.shape[1]
    a = (p.T @ p) * (h.T @ h)
    b = g
    if lam > 0:
        if consensus is None:
            raise ValueError("a consensus matrix is required when lam > 0")
        a = a + scaled_identity(r, lam)
        b = b + lam * consensus
    return a, b


def update_dual(u, h, p, mu) -> np.ndarray:
    """Multiplier ascent u <- u + mu (h - p)."""
    return u + mu * (h - p)


def balance_columns(h, p, u, f, g, norm: float):
    """Rescale a view's blocks so that every column of h has norm `norm`.

    Column r of the node factor h, its aux copy p and multipliers u is
    multiplied by s_r = norm / ||h_r|| and column r of the subject factor f is
    divided by s_r^2, which leaves the model [[h, p, f]] unchanged (the CP
    column normalisation of Kolda & Bader, SIAM Review 2009, sec. 3). The
    pass-2 product g = packed_mode3_mttkrp(X_p, h, p) is bilinear in h and
    p, so it is multiplied by s_r^2. Zero columns, and all columns when
    `norm` is 0, keep their scale.
    """
    norms = np.sqrt(np.add.reduce(h * h, axis=0))  # np.linalg.norm(h, axis=0)'s arithmetic
    if norm > 0 and (norms > 0).all():
        s = norm / norms
    else:
        s = np.divide(norm, norms, out=np.ones_like(norms), where=(norms > 0) & (norm > 0))
    s2 = s * s
    return h * s, p * s, u * s, f / s2, g * s2


def update_consensus(subject_factors: Sequence[np.ndarray],
                     lambdas: Sequence[float]) -> np.ndarray:
    """Closed-form consensus: the weight-averaged subject factor."""
    if len(subject_factors) == 0:
        raise ValueError("need at least one subject factor")
    if len(subject_factors) != len(lambdas):
        raise ValueError("one weight per subject factor required")
    if len(subject_factors) == 1:
        return subject_factors[0].copy()  # exact for any weight
    total = sum(float(l) for l in lambdas)
    out = np.zeros_like(subject_factors[0])
    for f, lam in zip(subject_factors, lambdas):
        out += float(lam) * f
    return out / total


# ---------------------------------------------------------------------------
# objective and residual


def _objective(energies, mttkrps, nodes, auxes, subjects, consensus, pulls) -> float:
    """Sum over views of ||X - [[h, p, f]]||^2 + pull ||f - consensus||^2.

    `energies[v]` is ||X_v||^2 and `mttkrps[v]` is packed_mode3_mttkrp(X_v, h_v, p_v),
    so cp_squared_error gives each squared error without a pass over X or an
    M x M x N model. A zero pull drops the view's consensus term.
    """
    total = 0.0
    for energy, g, h, p, f, lam in zip(energies, mttkrps, nodes, auxes, subjects, pulls):
        total += cp_squared_error(energy, g, h, p, f)
        if lam:
            diff = f - consensus
            total += float(lam) * float(np.vdot(diff, diff))
    return total


def coupling_residual(state: M2eState) -> float:
    """max_v ||h_v - p_v||_F / max(1, ||h_v||_F)."""
    worst = 0.0
    for h, p in zip(state.node, state.node_aux):
        num = frobenius_norm(h - p)
        den = max(1.0, frobenius_norm(h))
        worst = max(worst, num / den)
    return worst


# ---------------------------------------------------------------------------
# initialization


def balanced_column_norm(energy: float, rank: int, power: int = 1) -> float:
    """t**power for t = (||X||^2/R)^(1/6), the balanced column norm.

    A rank-R factorization of a tensor of energy ||X||^2 whose three factors
    share every column's scale has column norms about t. The power is taken
    as one pow of ||X||^2/R, so t**4 reads exactly (||X||^2/R)^(2/3).
    """
    return (energy / rank) ** (power / 6.0)


def balanced_penalty(energy: float, rank: int) -> float:
    """Coupling penalty matched to the data-term curvature, 2 t^4, for ||X||^2 = `energy`.

    At a norm-balanced rank-R factorization each factor column has norm
    about t (:func:`balanced_column_norm`), so the node-block Gram has
    eigenvalues of order t^4; matching mu to that scale keeps the equality
    constraint active without freezing the data fit. A zero view gets 0,
    which drops its coupling term.
    """
    return 2.0 * balanced_column_norm(energy, rank, 4)


def spectral_start(xp: np.ndarray, energy: float, rank: int, rng: np.random.Generator):
    """Deterministic data-driven start for one view, from its packed rows `xp`.

    Node factor: leading eigenvectors of the slice-wise Gram sum
    sum_k X_k X_k^T (:func:`m2e.tensors.packed_slice_gram`), sign-fixed and
    scaled to the balanced column norm of `energy` = ||X||^2; columns beyond
    the node count are filled with seeded noise at the same scale. Subject
    factor: one ridge least-squares solve against the node start.
    """
    gram = packed_slice_gram(xp)
    m = gram.shape[0]
    _, vec = np.linalg.eigh(gram)
    vec = vec[:, ::-1][:, :min(rank, m)]
    sign = np.sign(vec[np.abs(vec).argmax(axis=0), np.arange(vec.shape[1])])
    vec = vec * sign
    col_scale = balanced_column_norm(energy, rank)
    h = vec * col_scale
    if h.shape[1] < rank:
        extra = rng.standard_normal((m, rank - h.shape[1]))
        h = np.hstack([h, extra * col_scale / np.sqrt(m)])
    return h, ridge_solve(*subject_system(packed_mode3_mttkrp(xp, h, h), h, h, None, 0.0))


def _init_state(views: Sequence[GraphViewTensor], config: M2eConfig,
                lambdas: Sequence[float]) -> tuple[M2eState, list[float]]:
    """The spectral start of every view, and each view's energy ||X_v||^2.

    Both read the packed rows. A view whose energy overflows raises
    SolverNumericsError at iteration 0, naming the view. Every view restarts
    the generator from the same seed, so equally shaped views start from
    identical factors and runs are reproducible.
    """
    node, aux, dual, subject, energies = [], [], [], [], []
    for v, view in enumerate(views):
        energies.append(packed_energy(view.packed))
        if not np.isfinite(energies[-1]):  # eigh would fail on the overflowed Gram
            raise SolverNumericsError(
                f"||X||^2 of view {v} overflows: non-finite before the spectral start", 0)
        h, f = spectral_start(view.packed, energies[-1], config.rank,
                              np.random.default_rng(config.seed))
        node.append(h)
        aux.append(h.copy())  # zero initial coupling residual
        dual.append(np.zeros_like(h))
        subject.append(f)
    return M2eState(node, aux, dual, subject, update_consensus(subject, lambdas)), energies


# ---------------------------------------------------------------------------
# fitting loop


def _resolve_lambdas(lambdas: Sequence[float] | None, n_views: int) -> tuple[float, ...]:
    if lambdas is None:
        return (1.0,) * n_views
    if len(lambdas) != n_views:
        raise ValueError(f"got {len(lambdas)} view weights for {n_views} views")
    return tuple(lambdas)


def _ensure_finite(state: M2eState, objective: float, iteration: int):
    """Raise naming the first non-finite block, in update order, or the objective."""
    every = [*state.node, *state.node_aux, *state.dual, *state.subject, state.consensus]
    if np.isfinite(objective) and np.isfinite(np.concatenate(every, axis=None)).all():
        return  # one check over all blocks; the scan below only names the culprit
    blocks = [(f"view {v} {name}", m) for v, ms in
              enumerate(zip(state.node, state.node_aux, state.dual, state.subject))
              for name, m in zip(("node", "aux", "dual", "subject"), ms)]
    for where, m in blocks + [("consensus", state.consensus), ("objective", objective)]:
        if not np.isfinite(m).all():
            raise SolverNumericsError(
                f"non-finite values at outer iteration {iteration}, {where}", iteration)


def _block_solve(monitor, iteration, view, block, m, a, b):
    """The block's exact minimiser ridge_solve(a, b); `m` is its current value.

    View -1 is the shared subject factor. A singular system raises
    SolverNumericsError naming the iteration, view and block.
    """
    try:
        out = ridge_solve(a, b)
    except np.linalg.LinAlgError as exc:
        where = "shared subject" if view < 0 else f"view {view} {block}"
        raise SolverNumericsError(
            f"singular block system at outer iteration {iteration}, {where}: {exc}",
            iteration) from exc
    if monitor is not None:
        monitor("block_step", {
            "view": view, "block": block,
            "before": quadratic_objective(m, a, b), "after": quadratic_objective(out, a, b),
        })
    return out


def _fit(views: Sequence, config: M2eConfig, monitor: Monitor | None,
         subjects: str) -> M2eSolution:
    """The outer loop of all three fitters.

    `subjects` is "joint", "shared" or "independent" (see the module
    docstring). The spectral start computes each view's energy ||X_v||^2
    once, for its coupling penalty, its column norm and the stopping test.
    Every pass reads only the packed upper triangles that each
    GraphViewTensor holds, half the dense tensor, as they are. Each
    iteration visits the views in order: pass 1 over X_v feeds the node,
    aux and dual updates; pass 2 feeds view v's subject solve
    (under "shared", one solve on the summed systems after the views) and
    the traced objective. "joint" and "independent" then re-average the
    consensus. This repeats until M2eConfig's stopping test holds. The
    final objective takes one more pass 2 per view.

    The model is unchanged by h, p -> c h, c p with f -> f / c^2, but the pull
    is not, so a view that owns its subject factor ("joint", "independent")
    has its scale pinned after its subject solve: balance_columns gives every
    node column the spectral start's norm balanced_column_norm(||X_v||^2, R).
    Under "shared" the factor is common to all views and is left as solved.
    """
    graphs = as_views(views)
    lambdas = _resolve_lambdas(config.lambdas, len(graphs))
    st, energies = _init_state(graphs, config, lambdas)
    if subjects == "shared":  # every view holds view 0's start
        st.subject = [st.subject[0]] * len(graphs)
        st.consensus = st.subject[0]
    pulls = lambdas if subjects == "joint" else (0.0,) * len(graphs)
    mus = [balanced_penalty(e, config.rank) for e in energies]
    norms = [balanced_column_norm(e, config.rank) for e in energies]
    packed = [g.packed for g in graphs]
    obj_trace: list[float] = []
    res_trace: list[float] = []
    converged = False
    for it in range(config.max_outer_iters):
        mttkrps = []
        for v, xp in enumerate(packed):
            y = packed_partial_mttkrp(xp, st.subject[v])
            st.node[v] = _block_solve(
                monitor, it, v, "node", st.node[v],
                *node_system(y, st.node_aux[v], st.subject[v], st.dual[v], mus[v]))
            st.node_aux[v] = _block_solve(
                monitor, it, v, "aux", st.node_aux[v],
                *node_system(y, st.node[v], st.subject[v], -st.dual[v], mus[v]))
            st.dual[v] = update_dual(st.dual[v], st.node[v], st.node_aux[v], mus[v])
            mttkrps.append(packed_mode3_mttkrp(xp, st.node[v], st.node_aux[v]))
            if subjects != "shared":
                st.subject[v] = _block_solve(
                    monitor, it, v, "subject", st.subject[v],
                    *subject_system(mttkrps[v], st.node[v], st.node_aux[v],
                                    st.consensus, pulls[v]))
                (st.node[v], st.node_aux[v], st.dual[v], st.subject[v],
                 mttkrps[v]) = balance_columns(st.node[v], st.node_aux[v], st.dual[v],
                                               st.subject[v], mttkrps[v], norms[v])
        if subjects == "shared":
            a, b = map(sum, zip(*(subject_system(g, h, p, None, 0.0) for g, h, p
                                  in zip(mttkrps, st.node, st.node_aux))))
            st.consensus = _block_solve(monitor, it, -1, "subject", st.consensus, a, b)
            st.subject = [st.consensus] * len(graphs)
        else:
            st.consensus = update_consensus(st.subject, lambdas)
        obj = _objective(energies, mttkrps, st.node, st.node_aux, st.subject,
                         st.consensus, pulls)
        res = coupling_residual(st)
        _ensure_finite(st, obj, it)
        obj_trace.append(obj)
        res_trace.append(res)
        if monitor is not None:
            monitor("iteration", {"iteration": it, "objective": obj,
                                  "residual": res, "state": st})
        if (it >= 1 and res <= STOP_RESIDUAL
                and abs(obj_trace[-2] - obj) <= STOP_OBJ_CHANGE * sum(energies)):
            converged = True
            break
    node_factors = [(h + p) / 2.0 for h, p in zip(st.node, st.node_aux)]
    final = _objective(energies, [packed_mode3_mttkrp(xp, h, h)
                                  for xp, h in zip(packed, node_factors)],
                       node_factors, node_factors, st.subject, st.consensus, pulls)
    return M2eSolution(
        consensus=st.consensus,
        node_factors=node_factors,
        subject_factors=list(st.subject),
        objective_trace=np.asarray(obj_trace),
        residual_trace=np.asarray(res_trace),
        converged=converged,
        iterations=len(obj_trace),
        final_objective=final,
    )


def m2e_fit(views: Sequence, config: M2eConfig, monitor: Monitor | None = None) -> M2eSolution:
    """Fit the joint consensus model over V views.

    Parameters
    ----------
    views : sequence of GraphViewTensor or (M_v, M_v, N) arrays
        Stacks of symmetric affinity matrices; subject counts must agree
        across views, node counts may differ.
    config : M2eConfig
        Rank, view weights, iteration cap and seed.
    monitor : callable, optional
        Called as ``monitor(event, info)`` with event ``"block_step"``
        (before/after subproblem values) and ``"iteration"`` (objective and
        coupling residual). Intended for diagnostics and tests.

    Returns
    -------
    M2eSolution
        Consensus embedding, per-view factors and convergence traces.
        Deterministic for a fixed config; views are updated sequentially
        but depend on each other only through the consensus step.
    """
    return _fit(views, config, monitor, "joint")


def m2e_ds_fit(views: Sequence, config: M2eConfig, monitor: Monitor | None = None) -> M2eSolution:
    """Variant with a single subject factor shared by every view.

    The shared factor is solved exactly against the summed normal equations
    of all views' reconstruction terms; there is no consensus penalty. The
    returned solution reports the shared factor as both the consensus and
    each view's subject factor.
    """
    return _fit(views, config, monitor, "shared")


def m2e_ts_fit(views: Sequence, config: M2eConfig, monitor: Monitor | None = None) -> M2eSolution:
    """Two-step baseline: factor views independently, then average.

    Runs the split factorization per view with no consensus pull (views
    advance in lockstep; their updates never interact). The consensus is
    the weight-averaged per-view subject factor, re-averaged every
    iteration as in :func:`m2e_fit` but never read by a view's update.
    """
    return _fit(views, config, monitor, "independent")
