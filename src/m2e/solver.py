"""Consensus embedding of multi-view graph tensors.

Each view is an (M_v, M_v, N) stack of symmetric affinity matrices. The
solver factors every view as a partially symmetric rank-R model whose
first two factors are constrained equal through an auxiliary copy and
Lagrange multipliers (an ADMM splitting), while the per-view subject
factors are softly pulled toward a shared consensus embedding. Blocks are
updated by proximal gradient steps whose step size comes from the exact
Lipschitz constant of each quadratic subproblem.

Three fitting modes are exposed: the joint model (:func:`m2e_fit`), a
variant that shares one subject factor across all views
(:func:`m2e_ds_fit`), and a two-step baseline that factors each view
independently and averages afterwards (:func:`m2e_ts_fit`).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .tensors import (GraphViewTensor, check_partial_symmetry, mode3_mttkrp,
                      mttkrp_from_partial, partial_mttkrp)

# Monitor callbacks receive (event, info-dict); see m2e_fit.
Monitor = Callable[[str, dict], None]

INIT_MODES = ("spectral", "random")


class SolverNumericsError(RuntimeError):
    """Non-finite values or vanishing curvature encountered mid-run."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


@dataclass(frozen=True)
class M2eConfig:
    """Solver configuration.

    `lambdas` holds one positive view weight per view; None means equal
    weights (1.0 each). `mu` is the coupling penalty: None picks, per view,
    a value matched to the data-term curvature at the balanced-factor
    scale, 2 (||X||_F^2 / R)^(2/3), which keeps the splitting stable across
    data magnitudes; an explicit number is used as given. The penalty can
    grow geometrically by `mu_growth` per outer iteration up to `mu_max`.
    `inner_steps` is the number of proximal steps per block per outer
    iteration. Convergence requires both the relative objective change to
    drop below `obj_rel_tol` and the coupling residual below
    `residual_tol`. `init` selects the deterministic data-driven start
    ("spectral") or seeded standard-normal factors ("random").
    """

    rank: int = 2
    lambdas: tuple[float, ...] | None = None
    mu: float | None = None
    mu_growth: float = 1.0
    mu_max: float = 1e6
    inner_steps: int = 1
    max_outer_iters: int = 500
    obj_rel_tol: float = 1e-6
    residual_tol: float = 1e-3
    seed: int = 0
    init: str = "spectral"

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.lambdas is not None:
            lam = tuple(float(x) for x in self.lambdas)
            if not lam or any(x <= 0 for x in lam):
                raise ValueError("view weights must be positive")
            object.__setattr__(self, "lambdas", lam)
        if self.mu is not None and self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.mu_growth < 1:
            raise ValueError("mu_growth must be >= 1")
        if self.inner_steps < 1:
            raise ValueError("inner_steps must be >= 1")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be >= 1")
        if self.obj_rel_tol <= 0 or self.residual_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.init not in INIT_MODES:
            raise ValueError(f"init must be one of {INIT_MODES}, got {self.init!r}")


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
    iteration: int = 0


@dataclass(frozen=True)
class M2eSolution:
    """Fit result.

    `node_factors` are the symmetrized (node + aux) / 2 per-view factors.
    `objective_trace` records the working objective (reconstruction with
    the split node factors, plus the consensus penalty where the model has
    one) once per outer iteration; `final_objective` re-evaluates with the
    symmetrized node factor in both graph modes.
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
# Every block update minimizes a quadratic  tr(M A M^T) - tr(B^T M)  in its
# matrix M; the gradient is 2 M A - B and its Lipschitz constant is the top
# eigenvalue of 2 A. The systems take the view's MTTKRPs from the two-pass
# kernel in m2e.tensors, so each outer iteration reads a view twice: pass 1,
# partial_mttkrp(X, F), serves the node and aux systems, since F is fixed
# during both; pass 2, mode3_mttkrp(X, H, P), serves the subject system and
# the objective's cross term.


def lipschitz_constant(a: np.ndarray) -> float:
    """Largest eigenvalue of 2 A for a symmetric matrix A.

    A must be symmetric to 1e-8 relative to its largest entry.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got {a.shape}")
    if a.size:
        scale = max(1.0, float(np.abs(a).max()))
        if float(np.abs(a - a.T).max()) > 1e-8 * scale:
            raise ValueError("matrix is not symmetric within 1e-8")
    return float(np.linalg.eigvalsh(a + a.T)[-1])


def proximal_step(m: np.ndarray, a: np.ndarray, b: np.ndarray, steps: int = 1) -> np.ndarray:
    """`steps` gradient steps m <- m - (2 m a - b) / L with L = lam_max(2a)."""
    lip = lipschitz_constant(a)
    if lip <= 0:
        raise SolverNumericsError("subproblem has no curvature (L <= 0)")
    for _ in range(steps):
        m = m - (2.0 * (m @ a) - b) / lip
    return m


def quadratic_objective(m: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Value tr(M A M^T) - tr(B^T M) of a block subproblem (constants dropped)."""
    return float(np.einsum("ij,jk,ik->", m, a, m) - np.einsum("ij,ij->", b, m))


def node_system(y: np.ndarray, p: np.ndarray, f: np.ndarray, u: np.ndarray, mu: float):
    """Quadratic (A, B) for the node-factor block given aux copy p, subject f.

    `y` is the view's pass-1 product partial_mttkrp(X, f).
    """
    r = p.shape[1]
    a = (f.T @ f) * (p.T @ p) + 0.5 * mu * np.eye(r)
    b = 2.0 * mttkrp_from_partial(y, p, 1) + mu * p - u
    return a, b


def aux_system(y: np.ndarray, h: np.ndarray, f: np.ndarray, u: np.ndarray, mu: float):
    """Quadratic (A, B) for the auxiliary node copy given node factor h.

    `y` is the view's pass-1 product partial_mttkrp(X, f).
    """
    r = h.shape[1]
    a = (f.T @ f) * (h.T @ h) + 0.5 * mu * np.eye(r)
    b = 2.0 * mttkrp_from_partial(y, h, 2) + mu * h + u
    return a, b


def subject_system(g: np.ndarray, h: np.ndarray, p: np.ndarray,
                   consensus: np.ndarray | None, lam: float):
    """Quadratic (A, B) for a view's subject factor; lam=0 drops the pull.

    `g` is the view's mode-3 MTTKRP mode3_mttkrp(X, h, p).
    """
    r = h.shape[1]
    a = (p.T @ p) * (h.T @ h)
    b = 2.0 * g
    if lam > 0:
        if consensus is None:
            raise ValueError("a consensus matrix is required when lam > 0")
        a = a + lam * np.eye(r)
        b = b + 2.0 * lam * consensus
    return a, b


def update_node_factor(x, h, p, f, u, mu, inner_steps: int = 1) -> np.ndarray:
    a, b = node_system(partial_mttkrp(x, f), p, f, u, mu)
    return proximal_step(h, a, b, inner_steps)


def update_aux_factor(x, h, p, f, u, mu, inner_steps: int = 1) -> np.ndarray:
    a, b = aux_system(partial_mttkrp(x, f), h, f, u, mu)
    return proximal_step(p, a, b, inner_steps)


def update_dual(u, h, p, mu) -> np.ndarray:
    """Multiplier ascent u <- u + mu (h - p)."""
    return u + mu * (h - p)


def update_subject_factor(x, h, p, f, consensus, lam, inner_steps: int = 1) -> np.ndarray:
    a, b = subject_system(mode3_mttkrp(x, h, p), h, p, consensus, lam)
    return proximal_step(f, a, b, inner_steps)


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


def _model(h: np.ndarray, p: np.ndarray, f: np.ndarray) -> np.ndarray:
    return np.einsum("ir,jr,kr->ijk", h, p, f, optimize=True)


def _squared_error(x_energy: float, g: np.ndarray, h, p, f) -> float:
    """||X - model||_F^2 via <X,X> - 2<X,model> + <model,model>.

    `g` is mode3_mttkrp(X, h, p), so the cross term <X,model> is <g, f>.
    The model Gram collapses to factor Grams, so no M x M x N temporary is
    formed; clamped at zero against cancellation noise near exact fits.
    """
    cross = float(np.vdot(g, f))
    gram = (h.T @ h) * (p.T @ p) * (f.T @ f)
    return max(x_energy - 2.0 * cross + float(gram.sum()), 0.0)


def objective_value(views: Sequence[np.ndarray], state: M2eState,
                    lambdas: Sequence[float]) -> float:
    """Sum of squared reconstruction errors plus the weighted consensus pull."""
    total = 0.0
    for x, h, p, f, lam in zip(views, state.node, state.node_aux, state.subject, lambdas):
        resid = x - _model(h, p, f)
        total += float(np.vdot(resid, resid))
        diff = f - state.consensus
        total += float(lam) * float(np.vdot(diff, diff))
    return total


def coupling_residual(state: M2eState) -> float:
    """max_v ||h_v - p_v||_F / max(1, ||h_v||_F)."""
    worst = 0.0
    for h, p in zip(state.node, state.node_aux):
        num = float(np.linalg.norm(h - p))
        den = max(1.0, float(np.linalg.norm(h)))
        worst = max(worst, num / den)
    return worst


# ---------------------------------------------------------------------------
# initialization


def balanced_penalty(x: np.ndarray, rank: int) -> float:
    """Coupling penalty matched to the data-term curvature, 2 (||X||^2/R)^(2/3).

    At a norm-balanced rank-R factorization each factor column has squared
    norm about (||X||^2/R)^(1/3), so the node-block Gram has eigenvalues of
    order (||X||^2/R)^(2/3); matching mu to that scale keeps the equality
    constraint active without freezing the data fit.
    """
    energy = float(np.vdot(x, x))
    return max(2.0 * (energy / rank) ** (2.0 / 3.0), 1e-8)


def spectral_start(x: np.ndarray, rank: int, rng: np.random.Generator):
    """Deterministic data-driven start for one view.

    Node factor: leading eigenvectors of the slice-wise Gram sum
    X_(1) X_(1)^T, sign-fixed and scaled to the balanced column norm;
    columns beyond the node count are filled with seeded noise at the same
    scale. Subject factor: one ridge least-squares solve against the node
    start. `x` should be C-contiguous, so that its (M, M*N) unfolding is a
    view; the Gram does not depend on the order of that unfolding's columns.
    """
    m = x.shape[0]
    unfolded = x.reshape(m, -1)
    gram = unfolded @ unfolded.T
    _, vec = np.linalg.eigh(gram)
    vec = vec[:, ::-1][:, :min(rank, m)]
    sign = np.sign(vec[np.abs(vec).argmax(axis=0), np.arange(vec.shape[1])])
    sign[sign == 0] = 1.0
    vec = vec * sign
    col_scale = (float(np.vdot(x, x)) / rank) ** (1.0 / 6.0)
    h = vec * col_scale
    if h.shape[1] < rank:
        extra = rng.standard_normal((m, rank - h.shape[1]))
        h = np.hstack([h, extra * col_scale / np.sqrt(m)])
    a = (h.T @ h) * (h.T @ h) + 1e-8 * np.eye(rank)
    b = mode3_mttkrp(x, h, h)
    f = np.linalg.solve(a, b.T).T
    return h, f


def _init_state(views: Sequence[np.ndarray], config: M2eConfig,
                lambdas: Sequence[float]) -> tuple[M2eState, list[float]]:
    # Every view restarts the generator from the same seed, so equally
    # shaped views start from identical factors and runs are reproducible.
    node, aux, dual, subject, mus = [], [], [], [], []
    for x in views:
        rng = np.random.default_rng(config.seed)
        if config.init == "spectral":
            h, f = spectral_start(x, config.rank, rng)
        else:
            h = rng.standard_normal((x.shape[0], config.rank))
            f = rng.standard_normal((x.shape[2], config.rank))
        node.append(h)
        aux.append(h.copy())  # zero initial coupling residual
        dual.append(np.zeros_like(h))
        subject.append(f)
        mus.append(config.mu if config.mu is not None
                   else balanced_penalty(x, config.rank))
    consensus = update_consensus(subject, lambdas)
    return M2eState(node, aux, dual, subject, consensus), mus


# ---------------------------------------------------------------------------
# fitting loops


def _as_view_arrays(views: Sequence) -> list[np.ndarray]:
    """Validated, C-contiguous view arrays (contiguity keeps the kernel copy-free)."""
    arrays = []
    for i, v in enumerate(views):
        if isinstance(v, GraphViewTensor):
            arrays.append(np.ascontiguousarray(v.data))
            continue
        t = np.asarray(v, dtype=float)
        if t.ndim != 3 or t.shape[0] != t.shape[1]:
            raise ValueError(f"view {i}: expected shape (M, M, N), got {t.shape}")
        if not np.isfinite(t).all():
            raise ValueError(f"view {i}: entries must be finite")
        ok, asym = check_partial_symmetry(t)
        if not ok:
            raise ValueError(f"view {i}: slices asymmetric by {asym:.3g}")
        arrays.append(np.ascontiguousarray(t))
    if not arrays:
        raise ValueError("need at least one view")
    subjects = {a.shape[2] for a in arrays}
    if len(subjects) != 1:
        raise ValueError(f"views disagree on subject count: {sorted(subjects)}")
    return arrays


def _resolve_lambdas(config: M2eConfig, n_views: int) -> tuple[float, ...]:
    if config.lambdas is None:
        return (1.0,) * n_views
    if len(config.lambdas) != n_views:
        raise ValueError(
            f"got {len(config.lambdas)} view weights for {n_views} views"
        )
    return config.lambdas


def _ensure_finite(state: M2eState, objective: float, iteration: int):
    blocks = state.node + state.node_aux + state.dual + state.subject + [state.consensus]
    if not np.isfinite(objective) or any(not np.isfinite(b).all() for b in blocks):
        raise SolverNumericsError(
            f"non-finite values at outer iteration {iteration}", iteration
        )


def _monitored_step(monitor, view, block, m, a, b, steps):
    if monitor is None:
        return proximal_step(m, a, b, steps)
    before = quadratic_objective(m, a, b)
    out = proximal_step(m, a, b, steps)
    monitor("block_step", {
        "view": view, "block": block,
        "before": before, "after": quadratic_objective(out, a, b),
    })
    return out


def _loop_objective(energies, mttkrps, state, lambdas, consensus_term: bool) -> float:
    """Trace objective from each view's energy and last subject MTTKRP.

    `mttkrps[v]` is mode3_mttkrp(X_v, node[v], node_aux[v]) at the current
    node factors, as the sweep's subject step computed it, so the objective
    takes no pass over the views.
    """
    total = 0.0
    for energy, g, h, p, f, lam in zip(energies, mttkrps, state.node, state.node_aux,
                                       state.subject, lambdas):
        total += _squared_error(energy, g, h, p, f)
        if consensus_term:
            diff = f - state.consensus
            total += float(lam) * float(np.vdot(diff, diff))
    return total


def _symmetrized_objective(views, state, lambdas, consensus_term: bool) -> float:
    total = 0.0
    for x, h, p, f, lam in zip(views, state.node, state.node_aux, state.subject, lambdas):
        hs = (h + p) / 2.0
        resid = x - _model(hs, hs, f)
        total += float(np.vdot(resid, resid))
        if consensus_term:
            diff = f - state.consensus
            total += float(lam) * float(np.vdot(diff, diff))
    return total


def _grow(mus: list[float], config: M2eConfig) -> list[float]:
    if config.mu_growth == 1.0:
        return mus
    # growth caps at mu_max but never reduces a penalty already above it
    return [min(m * config.mu_growth, max(config.mu_max, m)) for m in mus]


def _run_outer_loop(views, config, lambdas, state, mus, sweep, consensus_term, monitor):
    """Shared outer loop: sweep blocks, trace, check the dual stopping rule.

    `sweep(state, mus)` updates every block and returns each view's last
    subject MTTKRP, from which the objective is traced.
    """
    energies = [float(np.vdot(x, x)) for x in views]
    obj_trace: list[float] = []
    res_trace: list[float] = []
    converged = False
    for it in range(config.max_outer_iters):
        mttkrps = sweep(state, mus)
        obj = _loop_objective(energies, mttkrps, state, lambdas, consensus_term)
        res = coupling_residual(state)
        _ensure_finite(state, obj, it)
        obj_trace.append(obj)
        res_trace.append(res)
        state.iteration = it + 1
        if monitor is not None:
            monitor("iteration", {"iteration": it, "objective": obj,
                                  "residual": res, "state": state})
        mus = _grow(mus, config)
        if it >= 1 and res <= config.residual_tol:
            prev = obj_trace[-2]
            rel = abs(prev - obj) / max(abs(prev), np.finfo(float).tiny)
            if rel < config.obj_rel_tol:
                converged = True
                break
    return np.asarray(obj_trace), np.asarray(res_trace), converged


def _node_steps(monitor, steps, st: M2eState, v: int, x: np.ndarray, mu: float):
    """Node, aux and dual updates of view v, sharing one pass over x."""
    y = partial_mttkrp(x, st.subject[v])
    st.node[v] = _monitored_step(
        monitor, v, "node", st.node[v],
        *node_system(y, st.node_aux[v], st.subject[v], st.dual[v], mu), steps=steps)
    st.node_aux[v] = _monitored_step(
        monitor, v, "aux", st.node_aux[v],
        *aux_system(y, st.node[v], st.subject[v], st.dual[v], mu), steps=steps)
    st.dual[v] = update_dual(st.dual[v], st.node[v], st.node_aux[v], mu)


def _subject_step(monitor, steps, st: M2eState, v: int, x: np.ndarray,
                  consensus: np.ndarray | None, lam: float) -> np.ndarray:
    """Subject update of view v; returns its MTTKRP, the second pass over x."""
    g = mode3_mttkrp(x, st.node[v], st.node_aux[v])
    st.subject[v] = _monitored_step(
        monitor, v, "subject", st.subject[v],
        *subject_system(g, st.node[v], st.node_aux[v], consensus, lam), steps=steps)
    return g


def _solution(views, state, lambdas, traces, consensus_term: bool) -> M2eSolution:
    obj_trace, res_trace, converged = traces
    node_factors = [(h + p) / 2.0 for h, p in zip(state.node, state.node_aux)]
    final = _symmetrized_objective(views, state, lambdas, consensus_term)
    return M2eSolution(
        consensus=state.consensus,
        node_factors=node_factors,
        subject_factors=list(state.subject),
        objective_trace=obj_trace,
        residual_trace=res_trace,
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
        Rank, view weights, penalty schedule, tolerances and seed.
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
    xs = _as_view_arrays(views)
    lambdas = _resolve_lambdas(config, len(xs))
    state, mus = _init_state(xs, config, lambdas)

    def sweep(st: M2eState, penalties):
        mttkrps = []
        for v, x in enumerate(xs):
            _node_steps(monitor, config.inner_steps, st, v, x, penalties[v])
            mttkrps.append(_subject_step(monitor, config.inner_steps, st, v, x,
                                         st.consensus, lambdas[v]))
        st.consensus = update_consensus(st.subject, lambdas)
        return mttkrps

    traces = _run_outer_loop(xs, config, lambdas, state, mus, sweep, True, monitor)
    return _solution(xs, state, lambdas, traces, True)


def m2e_ds_fit(views: Sequence, config: M2eConfig, monitor: Monitor | None = None) -> M2eSolution:
    """Variant with a single subject factor shared by every view.

    The shared factor takes proximal steps on the summed gradient of all
    views' reconstruction terms; there is no consensus penalty. The
    returned solution reports the shared factor as both the consensus and
    each view's subject factor.
    """
    xs = _as_view_arrays(views)
    lambdas = _resolve_lambdas(config, len(xs))
    state, mus = _init_state(xs, config, lambdas)
    # collapse the per-view subject factors onto view 0's start
    shared = state.subject[0]
    state.subject = [shared for _ in xs]
    state.consensus = shared

    def sweep(st: M2eState, penalties):
        for v, x in enumerate(xs):
            _node_steps(monitor, config.inner_steps, st, v, x, penalties[v])
        mttkrps = [mode3_mttkrp(x, st.node[v], st.node_aux[v]) for v, x in enumerate(xs)]
        a_sum, b_sum = None, None
        for v, g in enumerate(mttkrps):
            a, b = subject_system(g, st.node[v], st.node_aux[v], None, 0.0)
            a_sum = a if a_sum is None else a_sum + a
            b_sum = b if b_sum is None else b_sum + b
        new = _monitored_step(monitor, -1, "subject", st.subject[0], a_sum, b_sum,
                              steps=config.inner_steps)
        st.subject = [new for _ in xs]
        st.consensus = new
        return mttkrps

    traces = _run_outer_loop(xs, config, lambdas, state, mus, sweep, False, monitor)
    return _solution(xs, state, lambdas, traces, False)


def m2e_ts_fit(views: Sequence, config: M2eConfig, monitor: Monitor | None = None) -> M2eSolution:
    """Two-step baseline: factor views independently, then average.

    Step one runs the split factorization per view with no consensus pull
    (views advance in lockstep; their updates never interact). Step two
    sets the consensus to the weight-averaged per-view subject factors.
    """
    xs = _as_view_arrays(views)
    lambdas = _resolve_lambdas(config, len(xs))
    state, mus = _init_state(xs, config, lambdas)

    def sweep(st: M2eState, penalties):
        mttkrps = []
        for v, x in enumerate(xs):
            _node_steps(monitor, config.inner_steps, st, v, x, penalties[v])
            mttkrps.append(_subject_step(monitor, config.inner_steps, st, v, x, None, 0.0))
        return mttkrps

    traces = _run_outer_loop(xs, config, lambdas, state, mus, sweep, False, monitor)
    state.consensus = update_consensus(state.subject, lambdas)
    return _solution(xs, state, lambdas, traces, False)
