import math

import numpy as np
import pytest

from m2e.cluster import cluster_and_score
from m2e.datagen import SyntheticSpec, generate
from m2e.cp import AlsOptions, cp_als_fit
from m2e import solver, tensors
from m2e.solver import (M2eConfig, M2eState, SolverNumericsError, _ensure_finite,
                        _objective, m2e_ds_fit, m2e_fit, m2e_ts_fit,
                        node_system, quadratic_objective,
                        subject_system, update_consensus, update_dual)
from m2e.tensors import (RIDGE, GraphViewTensor, packed_mode3_mttkrp,
                         packed_partial_mttkrp, ridge_solve)
from oracles import matricize, mode3_mttkrp, objective_value, partial_mttkrp


def shared_factor_views(seed, n_views=2, nodes=20, subjects=30, rank=3):
    """Noiseless views with per-view node factors and one shared subject factor."""
    rng = np.random.default_rng([100, seed])
    f = rng.standard_normal((subjects, rank))
    views, energy = [], 0.0
    for _ in range(n_views):
        h = rng.standard_normal((nodes, rank))
        x = np.einsum("ir,jr,kr->ijk", h, h, f)
        x = (x + x.transpose(1, 0, 2)) / 2
        views.append(x)
        energy += float(np.vdot(x, x))
    return views, energy


def random_state(rng, n_views=2, nodes=5, subjects=6, rank=2):
    node = [rng.standard_normal((nodes, rank)) for _ in range(n_views)]
    aux = [rng.standard_normal((nodes, rank)) for _ in range(n_views)]
    dual = [rng.standard_normal((nodes, rank)) for _ in range(n_views)]
    subject = [rng.standard_normal((subjects, rank)) for _ in range(n_views)]
    consensus = rng.standard_normal((subjects, rank))
    return M2eState(node, aux, dual, subject, consensus)


# --------------------------------------------------------------------------
# block systems and solves


def test_node_step_pinned_scalar_case():
    # one node, one subject, rank one: X = [2], p = f = 1, mu = 2, u = 0
    x = np.full((1, 1, 1), 2.0)
    p = np.ones((1, 1))
    f = np.ones((1, 1))
    u = np.zeros((1, 1))
    a, b = node_system(partial_mttkrp(x, f), p, f, u, mu=2.0)
    assert a[0, 0] == pytest.approx(2.0)
    assert b[0, 0] == pytest.approx(3.0)
    h = ridge_solve(a, b)
    assert h[0, 0] == pytest.approx(1.5)


def test_subject_step_pinned_scalar_case():
    x = np.full((1, 1, 1), 2.0)
    h = np.ones((1, 1))
    p = np.ones((1, 1))
    consensus = np.ones((1, 1))
    a, b = subject_system(mode3_mttkrp(x, h, p), h, p, consensus, lam=1.0)
    assert a[0, 0] == pytest.approx(2.0)
    assert b[0, 0] == pytest.approx(3.0)
    f = ridge_solve(a, b)
    assert f[0, 0] == pytest.approx(1.5)


def _assert_gram_plus_diagonal(a, gram, diagonal):
    """a is gram with exactly `diagonal` added on its diagonal, bit for bit."""
    off = ~np.eye(gram.shape[0], dtype=bool)
    np.testing.assert_array_equal(a[off], gram[off])
    np.testing.assert_array_equal(np.diag(a), np.diag(gram) + diagonal)


@pytest.mark.parametrize("mu", [0.0, 0.7, 3e5])
def test_node_system_adds_half_mu_on_the_grams_diagonal_only(mu):
    rng = np.random.default_rng(31)
    x = rng.standard_normal((5, 5, 6))
    x = x + x.transpose(1, 0, 2)
    other, f, u = (rng.standard_normal(shape) for shape in ((5, 4), (6, 4), (5, 4)))
    a, _ = node_system(partial_mttkrp(x, f), other, f, u, mu)
    _assert_gram_plus_diagonal(a, (f.T @ f) * (other.T @ other), 0.5 * mu)


@pytest.mark.parametrize("lam", [0.0, 0.35, 1e4])
def test_subject_system_adds_lam_on_the_grams_diagonal_only(lam):
    rng = np.random.default_rng(32)
    x = rng.standard_normal((5, 5, 6))
    x = x + x.transpose(1, 0, 2)
    h, p, consensus = (rng.standard_normal(shape) for shape in ((5, 4), (5, 4), (6, 4)))
    a, _ = subject_system(mode3_mttkrp(x, h, p), h, p, consensus, lam)
    _assert_gram_plus_diagonal(a, (p.T @ p) * (h.T @ h), lam)


def test_stationary_point_is_fixed():
    rng = np.random.default_rng(21)
    g = rng.standard_normal((3, 3))
    a = g.T @ g + np.eye(3)
    m = rng.standard_normal((4, 3))
    # normal equations of the block ridged by RIDGE times its mean diagonal hold
    b = m @ (a + RIDGE * np.trace(a) / 3 * np.eye(3))
    np.testing.assert_allclose(ridge_solve(a, b), m, atol=1e-12)


def test_proximal_step_descends_quadratic():
    rng = np.random.default_rng(22)
    for _ in range(10):
        g = rng.standard_normal((3, 3))
        a = g.T @ g + 0.1 * np.eye(3)
        b = rng.standard_normal((5, 3))
        m = rng.standard_normal((5, 3))
        before = quadratic_objective(m, a, b)
        after = quadratic_objective(ridge_solve(a, b), a, b)
        assert after <= before + 1e-9


def test_block_solves_return_exact_minimisers():
    # each block's gradient 2 M A - 2 B vanishes at ridge_solve(A, B); the
    # gradients are taken from the definitional model, not from the systems
    rng = np.random.default_rng(40)
    w = rng.standard_normal((6, 6, 7))
    x = (w + w.transpose(1, 0, 2)) / 2
    h, p, u = (rng.standard_normal((6, 3)) for _ in range(3))
    f, consensus = rng.standard_normal((7, 3)), rng.standard_normal((7, 3))
    mu, lam = 3.0, 1.5

    def resid(h, p, f):
        return x - np.einsum("ir,jr,kr->ijk", h, p, f)

    def relative(grad, b):
        return np.linalg.norm(grad) / np.linalg.norm(2.0 * b)

    y = partial_mttkrp(x, f)
    a, b = node_system(y, p, f, u, mu)
    h_new = ridge_solve(a, b)
    grad = (-2.0 * np.einsum("ijk,jr,kr->ir", resid(h_new, p, f), p, f)
            + u + mu * (h_new - p))
    assert relative(grad, b) < 1e-10

    a, b = node_system(y, h, f, -u, mu)  # the aux copy: the copies swap, u changes sign
    p_new = ridge_solve(a, b)
    grad = (-2.0 * np.einsum("ijk,ir,kr->jr", resid(h, p_new, f), h, f)
            - u - mu * (h - p_new))
    assert relative(grad, b) < 1e-10

    a, b = subject_system(mode3_mttkrp(x, h, p), h, p, consensus, lam)
    f_new = ridge_solve(a, b)
    grad = (-2.0 * np.einsum("ijk,ir,jr->kr", resid(h, p, f_new), h, p)
            + 2.0 * lam * (f_new - consensus))
    assert relative(grad, b) < 1e-10

    # the shared subject factor solves all views' summed systems; nothing
    # moves after it within an iteration, so the state at the iteration
    # event is its block's minimiser
    views, _ = shared_factor_views(41, nodes=6, subjects=7)
    views = [v + 0.1 * noise for v, noise in zip(views, (x, x[::-1, ::-1]))]
    seen = []

    def monitor(event, info):
        if event == "iteration":
            st = info["state"]
            grad = sum(-2.0 * np.einsum("ijk,ir,jr->kr",
                                        v - np.einsum("ir,jr,kr->ijk", hv, pv, st.consensus),
                                        hv, pv)
                       for v, hv, pv in zip(views, st.node, st.node_aux))
            b = sum(mode3_mttkrp(v, hv, pv) for v, hv, pv in zip(views, st.node, st.node_aux))
            seen.append(relative(grad, b))

    m2e_ds_fit(views, M2eConfig(rank=3, seed=41, max_outer_iters=5), monitor=monitor)
    assert len(seen) == 5 and max(seen) < 1e-10


def test_cp_and_every_fitter_solve_through_ridge_solve(monkeypatch):
    # every least-squares block is built by node_system or subject_system and
    # solved by ridge_solve: CP-ALS's sweep, the spectral start and the fitters
    import m2e.cp as cp
    import m2e.solver as solver
    calls = {}

    def counted(module, name, function):
        def wrapper(*args):
            calls[module, name] = calls.get((module, name), 0) + 1
            return function(*args)
        monkeypatch.setattr(module, name, wrapper)

    for module in (cp, solver):
        for name, function in (("ridge_solve", ridge_solve), ("node_system", node_system),
                               ("subject_system", subject_system)):
            counted(module, name, function)
    rng = np.random.default_rng(42)
    w = rng.standard_normal((4, 4, 6))
    cp_als_fit(w + w.transpose(1, 0, 2), AlsOptions(rank=2, max_iters=4, rel_tol=1e-300))
    # the spectral start builds and solves one subject system; a sweep builds
    # two node systems and one subject system, and solves all three
    assert calls == {(solver, "ridge_solve"): 1, (solver, "subject_system"): 1,
                     (cp, "ridge_solve"): 3 * 4, (cp, "node_system"): 2 * 4,
                     (cp, "subject_system"): 4}
    views, _ = shared_factor_views(42, nodes=6, subjects=7)
    cfg = M2eConfig(rank=2, seed=42, max_outer_iters=3)
    # the spectral start builds and solves one subject system per view; then
    # every iteration builds node, aux and subject systems per view, and
    # solves them, but the shared subject factor is one solve of the summed systems
    for fitter, solves in ((m2e_fit, 6), (m2e_ts_fit, 6), (m2e_ds_fit, 5)):
        calls.clear()
        fitter(views, cfg)
        assert calls == {(solver, "ridge_solve"): 2 + 3 * solves,
                         (solver, "node_system"): 3 * 4,
                         (solver, "subject_system"): 2 + 3 * 2}, fitter.__name__


def test_balance_columns_keeps_the_model_and_scales_the_mode3_product():
    rng = np.random.default_rng(44)
    x = rng.standard_normal((5, 5, 6))
    h, p, u = (rng.standard_normal((5, 3)) for _ in range(3))
    f = rng.standard_normal((6, 3))
    h[:, 2] = 0.0  # a zero column keeps its scale
    h2, p2, u2, f2, g2 = solver.balance_columns(h, p, u, f, mode3_mttkrp(x, h, p), 1.7)
    np.testing.assert_allclose(np.linalg.norm(h2[:, :2], axis=0), 1.7, rtol=1e-14)
    np.testing.assert_array_equal(h2[:, 2], 0.0)
    np.testing.assert_array_equal(p2[:, 2], p[:, 2])
    np.testing.assert_allclose(np.einsum("ir,jr,kr->ijk", h2, p2, f2),
                               np.einsum("ir,jr,kr->ijk", h, p, f), atol=1e-12)
    np.testing.assert_allclose(g2, mode3_mttkrp(x, h2, p2), rtol=1e-12, atol=1e-12)
    s = 1.7 / np.linalg.norm(h[:, 0])
    np.testing.assert_allclose(u2[:, 0], s * u[:, 0], rtol=1e-14)
    # a zero norm (a view of zero energy) leaves every block as it is
    for before, after in zip((h, p, u, f), solver.balance_columns(h, p, u, f, f, 0.0)):
        np.testing.assert_array_equal(after, before)


def test_balance_and_residual_match_numpy_norms_bit_for_bit():
    # the fitters' scale pin and coupling residual avoid np.linalg.norm's
    # argument checks but must keep its arithmetic, in C and Fortran order
    rng = np.random.default_rng(46)
    for order in ("C", "F"):
        h, p, u = (np.asarray(rng.standard_normal((7, 3)), order=order) for _ in range(3))
        f = rng.standard_normal((5, 3))
        s = 1.3 / np.linalg.norm(h, axis=0)
        for got, want in zip(solver.balance_columns(h, p, u, f, f, 1.3),
                             (h * s, p * s, u * s, f / (s * s), f * (s * s))):
            np.testing.assert_array_equal(got, want)
        for m in (h, h - p, h[::2, 1:]):
            assert tensors.frobenius_norm(m) == float(np.linalg.norm(m))
    state = random_state(rng)
    assert solver.coupling_residual(state) == max(
        float(np.linalg.norm(h - p)) / max(1.0, float(np.linalg.norm(h)))
        for h, p in zip(state.node, state.node_aux))


def test_spectral_start_and_penalty_share_the_balanced_column_norm():
    rng = np.random.default_rng(45)
    x = rng.standard_normal((6, 6, 7))
    x = x + x.transpose(1, 0, 2)
    energy = float(np.vdot(x, x))
    t = solver.balanced_column_norm(energy, 3)
    assert t == pytest.approx((energy / 3) ** (1 / 6), rel=1e-15)
    h, _ = solver.spectral_start(GraphViewTensor(x).packed, energy, 3, np.random.default_rng(0))
    np.testing.assert_allclose(np.linalg.norm(h, axis=0), t, rtol=1e-12)
    assert solver.balanced_penalty(energy, 3) == 2.0 * solver.balanced_column_norm(energy, 3, 4)
    assert solver.balanced_penalty(energy, 3) == pytest.approx(2.0 * t**4, rel=1e-14)


def test_fit_past_the_node_count_starts_from_the_seed():
    # at rank M + 2 the spectral start adds two node columns of noise drawn from M2eConfig.seed
    views, _ = shared_factor_views(47, nodes=4, subjects=9, rank=2)

    def fit(seed):
        return m2e_fit(views, M2eConfig(rank=6, seed=seed, max_outer_iters=5))

    first, again, other = fit(3), fit(3), fit(4)
    assert np.isfinite(first.consensus).all() and np.isfinite(first.objective_trace).all()
    assert first.consensus.shape == (9, 6) and first.node_factors[0].shape == (4, 6)
    np.testing.assert_array_equal(again.consensus, first.consensus)
    np.testing.assert_array_equal(again.objective_trace, first.objective_trace)
    assert not np.array_equal(other.consensus, first.consensus)


def test_update_dual():
    u = np.zeros((2, 2))
    h = np.ones((2, 2))
    p = np.zeros((2, 2))
    u1 = update_dual(u, h, p, mu=10.0)
    np.testing.assert_array_equal(u1, 10.0 * np.ones((2, 2)))
    u2 = update_dual(u1, h, p, mu=10.0)
    np.testing.assert_array_equal(u2, 20.0 * np.ones((2, 2)))
    np.testing.assert_array_equal(update_dual(u, h, h, mu=10.0), u)


def test_subject_update_keeps_exact_consensus_stationary():
    # data built exactly from the consensus: any lam leaves it fixed
    rng = np.random.default_rng(24)
    h = rng.standard_normal((6, 2))
    p = rng.standard_normal((6, 2))
    f_star = rng.standard_normal((7, 2))
    x = np.einsum("ir,jr,kr->ijk", h, p, f_star)
    for lam in (1e-6, 1.0, 1e6):
        a, b = subject_system(mode3_mttkrp(x, h, p), h, p, f_star, lam)
        out = ridge_solve(a, b)
        np.testing.assert_allclose(out, f_star, atol=1e-9 * max(1.0, lam))


# --------------------------------------------------------------------------
# consensus


def test_consensus_unweighted_mean():
    out = update_consensus([np.array([[2.0]]), np.array([[4.0]])], (1.0, 1.0))
    assert out[0, 0] == pytest.approx(3.0)


def test_consensus_single_view_identity():
    f = np.random.default_rng(25).standard_normal((4, 2))
    for lam in (1.0, 7.0, 0.3):
        np.testing.assert_array_equal(update_consensus([f], (lam,)), f)


def test_consensus_weighted_mean():
    out = update_consensus([np.array([[0.0]]), np.array([[4.0]])], (1.0, 3.0))
    assert out[0, 0] == pytest.approx(3.0)


def test_consensus_rejects_empty():
    with pytest.raises(ValueError):
        update_consensus([], ())


@pytest.mark.parametrize("call, message", [
    (lambda: subject_system(np.ones((3, 2)), np.ones((4, 2)), np.ones((4, 2)), None, 1.0),
     "a consensus matrix is required when lam > 0"),
    (lambda: update_consensus([np.ones((3, 2))] * 2, (1.0,)),
     "one weight per subject factor required"),
], ids=["subject-pull-without-consensus", "consensus-weight-count"])
def test_block_helpers_reject_bad_arguments_naming_the_fault(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_consensus_minimizes_weighted_sum():
    rng = np.random.default_rng(26)
    for _ in range(10):
        fs = [rng.standard_normal((5, 3)) for _ in range(3)]
        lams = rng.uniform(0.5, 2.0, size=3)
        star = update_consensus(fs, lams)
        base = sum(l * np.sum((f - star) ** 2) for f, l in zip(fs, lams))
        direction = rng.standard_normal(star.shape)
        direction *= 1e-3 / np.linalg.norm(direction)
        moved = sum(l * np.sum((f - (star + direction)) ** 2) for f, l in zip(fs, lams))
        assert moved > base


def test_consensus_scale_covariance():
    rng = np.random.default_rng(27)
    fs = [rng.standard_normal((4, 2)) for _ in range(2)]
    lams = (1.0, 2.5)
    base = update_consensus(fs, lams)
    np.testing.assert_array_equal(update_consensus([2.0 * f for f in fs], lams), 2.0 * base)
    np.testing.assert_array_equal(update_consensus([0.5 * f for f in fs], lams), 0.5 * base)


# --------------------------------------------------------------------------
# objective


def test_objective_zero_at_exact_fit():
    rng = np.random.default_rng(28)
    state = random_state(rng)
    state.subject = [state.consensus.copy() for _ in state.subject]
    state.node_aux = [h.copy() for h in state.node]  # so that the views are symmetric
    views = [np.einsum("ir,jr,kr->ijk", h, p, f)
             for h, p, f in zip(state.node, state.node_aux, state.subject)]
    assert objective_value(views, state, (1.0, 1.0)) == pytest.approx(0.0, abs=1e-12)


def test_objective_zero_factors_gives_data_energy():
    rng = np.random.default_rng(29)
    views = [w + w.transpose(1, 0, 2) for w in rng.standard_normal((2, 4, 4, 5))]
    state = M2eState(
        node=[np.zeros((4, 2)) for _ in range(2)],
        node_aux=[np.zeros((4, 2)) for _ in range(2)],
        dual=[np.zeros((4, 2)) for _ in range(2)],
        subject=[np.zeros((5, 2)) for _ in range(2)],
        consensus=np.zeros((5, 2)),
    )
    energy = sum(float(np.vdot(x, x)) for x in views)
    assert objective_value(views, state, (3.0, 0.5)) == pytest.approx(energy)
    with pytest.raises(ValueError, match="1 view weights for 2 views"):
        m2e_fit(views, M2eConfig(rank=2, lambdas=(3.0,)))
    graphs = [GraphViewTensor((x + x.transpose(1, 0, 2)) / 2) for x in views]
    graph_energy = sum(float(np.vdot(g.data, g.data)) for g in graphs)
    assert objective_value(graphs, state, (3.0, 0.5)) == pytest.approx(graph_energy)


def test_objective_agrees_with_matricized_evaluation():
    rng = np.random.default_rng(30)
    state = random_state(rng)
    views = [w + w.transpose(1, 0, 2) for w in rng.standard_normal((2, 5, 5, 6))]
    lambdas = (1.5, 0.5)
    direct = objective_value(views, state, lambdas)
    via_mode3 = 0.0
    for x, h, p, f, lam in zip(views, state.node, state.node_aux, state.subject, lambdas):
        from m2e.tensors import khatri_rao
        resid = matricize(x, 3) - f @ khatri_rao(p, h).T
        via_mode3 += np.sum(resid**2) + lam * np.sum((f - state.consensus) ** 2)
    assert direct == pytest.approx(via_mode3, rel=1e-10)


def einsum_objective(views, nodes, auxes, subjects, consensus, pulls):
    """Definitional objective: the full M x M x N model of every view."""
    total = 0.0
    for x, h, p, f, lam in zip(views, nodes, auxes, subjects, pulls):
        resid = x - np.einsum("ir,jr,kr->ijk", h, p, f)
        total += np.sum(resid**2) + lam * np.sum((f - consensus) ** 2)
    return total


def test_loop_objective_matches_definitional_form():
    rng = np.random.default_rng(34)
    state = random_state(rng, nodes=8, subjects=9, rank=3)
    views = [rng.standard_normal((8, 8, 9)) for _ in range(2)]
    energies = [float(np.vdot(x, x)) for x in views]
    mttkrps = [mode3_mttkrp(x, h, p) for x, h, p in zip(views, state.node, state.node_aux)]
    lambdas = (1.5, 0.5)
    fast = _objective(energies, mttkrps, state.node, state.node_aux, state.subject,
                      state.consensus, lambdas)
    direct = einsum_objective(views, state.node, state.node_aux, state.subject,
                              state.consensus, lambdas)
    assert fast == pytest.approx(direct, rel=1e-9)


def test_objective_column_permutation_invariance():
    rng = np.random.default_rng(31)
    state = random_state(rng, rank=3)
    views = [w + w.transpose(1, 0, 2) for w in rng.standard_normal((2, 5, 5, 6))]
    lambdas = (1.0, 2.0)
    base = objective_value(views, state, lambdas)
    perm = rng.permutation(3)
    permuted = M2eState(
        node=[m[:, perm] for m in state.node],
        node_aux=[m[:, perm] for m in state.node_aux],
        dual=[m[:, perm] for m in state.dual],
        subject=[m[:, perm] for m in state.subject],
        consensus=state.consensus[:, perm],
    )
    assert objective_value(views, permuted, lambdas) == pytest.approx(base, rel=1e-12)


# --------------------------------------------------------------------------
# full fits


def test_construct_and_recover_single_view():
    views, energy = shared_factor_views(0, n_views=1)
    sol = m2e_fit(views, M2eConfig(rank=3, seed=0))
    assert sol.final_objective / energy < 1e-3
    assert sol.residual_trace[-1] < 1e-3


def test_identical_views_evolve_identically():
    views, _ = shared_factor_views(1, n_views=1)
    pair = [views[0], views[0].copy()]
    gaps = []

    def monitor(event, info):
        if event == "iteration":
            st = info["state"]
            gaps.append(float(np.abs(st.subject[0] - st.subject[1]).max()))

    sol = m2e_fit(pair, M2eConfig(rank=3, lambdas=(1.0, 1.0), seed=1,
                                  max_outer_iters=50), monitor=monitor)
    # identical views start identically and update identically, so the
    # per-view subject factors coincide at every iteration
    assert gaps and max(gaps) <= 1e-8
    np.testing.assert_allclose(sol.subject_factors[0], sol.subject_factors[1],
                               atol=1e-8)
    np.testing.assert_allclose(sol.node_factors[0], sol.node_factors[1], atol=1e-8)
    np.testing.assert_allclose(sol.consensus, sol.subject_factors[0], atol=1e-8)


def test_traces_have_length_iterations():
    views, _ = shared_factor_views(2)
    sol = m2e_fit(views, M2eConfig(rank=3, lambdas=(1.0, 1.0), seed=2,
                                   max_outer_iters=40))
    assert len(sol.objective_trace) == sol.iterations
    assert len(sol.residual_trace) == sol.iterations


def test_objective_trace_non_increasing_after_transient():
    views, _ = shared_factor_views(3)
    sol = m2e_fit(views, M2eConfig(rank=3, lambdas=(1.0, 1.0), seed=3))
    t = sol.objective_trace
    for i in range(3, len(t) - 1):
        assert t[i + 1] <= t[i] * (1 + 1e-6)


def test_converged_run_meets_residual_tolerance():
    views, energy = shared_factor_views(4)
    cfg = M2eConfig(rank=3, lambdas=(1.0, 1.0), seed=4, max_outer_iters=2000)
    for fitter in (m2e_ds_fit, m2e_ts_fit):
        sol = fitter(views, cfg)
        assert sol.converged and sol.iterations < cfg.max_outer_iters
        obj, res = sol.objective_trace, sol.residual_trace
        meets = [(res[k] <= solver.STOP_RESIDUAL
                  and abs(obj[k - 1] - obj[k]) <= solver.STOP_OBJ_CHANGE * energy)
                 for k in range(1, sol.iterations)]
        assert meets[-1] and not any(meets[:-1]), fitter.__name__


def test_noiseless_fit_converges_as_objective_vanishes():
    # the objective falls geometrically toward 0, so its relative change
    # stays large; the energy-scaled test still ends the fit
    views, _ = generate(SyntheticSpec(noise_sigma=0.0, seed=1))
    sol = m2e_ts_fit(views, M2eConfig(rank=4, seed=1))
    assert sol.converged and sol.iterations < 500
    energy = sum(float(np.vdot(v.data, v.data)) for v in views)
    assert sol.objective_trace[-1] < 1e-6 * energy


@pytest.mark.parametrize("fitter", (m2e_fit, m2e_ts_fit))
def test_each_view_keeps_the_balanced_column_norm(fitter):
    # after every iteration each view's node columns have the spectral
    # start's norm, and the traced objective, computed from the rescaled
    # pass-2 products, equals a fresh dense evaluation of the state
    views, _ = generate(SyntheticSpec(seed=2))
    views = [views[0].data, 3.0 * views[1].data]  # two different balanced norms
    energy = sum(float(np.vdot(x, x)) for x in views)
    rank = 4
    norms = [solver.balanced_column_norm(float(np.vdot(x, x)), rank) for x in views]
    pulls = (1.0, 2.0) if fitter is m2e_fit else (0.0, 0.0)
    seen = []

    def monitor(event, info):
        if event == "iteration":
            st = info["state"]
            for h, t in zip(st.node, norms):
                np.testing.assert_allclose(np.linalg.norm(h, axis=0), t, rtol=1e-12)
            assert abs(info["objective"] - objective_value(views, st, pulls)) <= 1e-12 * energy
            seen.append(info["iteration"])

    sol = fitter(views, M2eConfig(rank=rank, lambdas=(1.0, 2.0), seed=2, max_outer_iters=40),
                 monitor=monitor)
    assert seen == list(range(sol.iterations))


@pytest.mark.parametrize("preset", ("default", "hiv", "bp"))
@pytest.mark.parametrize("fitter", (m2e_fit, m2e_ts_fit))
def test_fits_with_own_subject_factors_converge_on_the_presets(preset, fitter):
    import dataclasses
    from m2e.datagen import bp_shape_preset, hiv_shape_preset
    preset = {"default": SyntheticSpec, "hiv": hiv_shape_preset, "bp": bp_shape_preset}[preset]
    spec = dataclasses.replace(preset(), seed=1)
    views, _ = generate(spec)
    cfg = M2eConfig(rank=spec.latent_rank, seed=1)
    sol = fitter(views, cfg)
    assert sol.converged and sol.iterations < cfg.max_outer_iters


def test_determinism_bit_identical():
    views, _ = shared_factor_views(5)
    cfg = M2eConfig(rank=2, lambdas=(1.0, 1.0), seed=5, max_outer_iters=60)
    a = m2e_fit(views, cfg)
    b = m2e_fit(views, cfg)
    np.testing.assert_array_equal(a.objective_trace, b.objective_trace)
    np.testing.assert_array_equal(a.residual_trace, b.residual_trace)
    np.testing.assert_array_equal(a.consensus, b.consensus)


def test_block_steps_never_increase_subobjective_over_run():
    views, labels = generate(SyntheticSpec(subjects=20, cluster_sizes=(10, 10), seed=7))
    events = []

    def monitor(event, info):
        if event == "block_step":
            events.append(info)

    m2e_fit(views, M2eConfig(rank=4, lambdas=(1.0, 1.0), seed=7,
                             max_outer_iters=100), monitor=monitor)
    assert events, "monitor should observe block steps"
    for e in events:
        assert e["after"] <= e["before"] + 1e-9


@pytest.mark.parametrize("fitter", (m2e_fit, m2e_ds_fit, m2e_ts_fit))
def test_each_outer_iteration_reads_each_view_twice(fitter, monkeypatch):
    import m2e.solver as solver
    views, _ = shared_factor_views(14, nodes=9)
    views[1] = views[1][:7, :7]  # views of different sizes are told apart
    passes = {x.shape[0]: 0 for x in views}
    per_iteration = []

    def counted(kernel, nodes):
        def wrapper(x, *args):
            passes[nodes(x)] += 1
            return kernel(x, *args)
        return wrapper

    def monitor(event, info):
        if event == "iteration":
            per_iteration.append(dict(passes))
            passes.update(dict.fromkeys(passes, 0))

    for name, kernel in (("packed_partial_mttkrp", packed_partial_mttkrp),
                         ("packed_mode3_mttkrp", packed_mode3_mttkrp)):
        # M(M+1)/2 packed rows: isqrt(M^2 + M) = M
        monkeypatch.setattr(solver, name, counted(kernel, lambda xp: math.isqrt(2 * len(xp))))
    fitter(views, M2eConfig(rank=3, lambdas=(1.0, 1.0), seed=14, max_outer_iters=5),
           monitor=monitor)
    # the first entry also counts the spectral start's subject solve
    assert per_iteration[0] == {9: 3, 7: 3}
    assert per_iteration[1:] == [{9: 2, 7: 2}] * 4


@pytest.mark.parametrize("fitter, order", (
    (m2e_fit, [(0, "node"), (0, "aux"), (0, "subject"), (1, "node"), (1, "aux"), (1, "subject")]),
    (m2e_ts_fit, [(0, "node"), (0, "aux"), (0, "subject"), (1, "node"), (1, "aux"), (1, "subject")]),
    (m2e_ds_fit, [(0, "node"), (0, "aux"), (1, "node"), (1, "aux"), (-1, "subject")]),
))
def test_block_step_order_per_iteration(fitter, order):
    views, _ = shared_factor_views(16, nodes=6, subjects=8)
    iterations = [[]]

    def monitor(event, info):
        if event == "block_step":
            iterations[-1].append((info["view"], info["block"]))
        else:
            iterations.append([])

    fitter(views, M2eConfig(rank=2, lambdas=(1.0, 1.0), seed=16, max_outer_iters=3),
           monitor=monitor)
    assert iterations == [order] * 3 + [[]]


@pytest.mark.parametrize("fitter", (m2e_fit, m2e_ds_fit, m2e_ts_fit))
def test_final_objective_matches_definitional_form(fitter):
    views, _ = shared_factor_views(17, nodes=7, subjects=9)
    views = [x + 0.1 * (w + w.transpose(1, 0, 2)) for x, w in
             zip(views, np.random.default_rng(17).standard_normal((2, 7, 7, 9)))]
    lambdas = (1.5, 0.5)
    sol = fitter(views, M2eConfig(rank=2, lambdas=lambdas, seed=17, max_outer_iters=30))
    pulls = lambdas if fitter is m2e_fit else (0.0, 0.0)
    direct = einsum_objective(views, sol.node_factors, sol.node_factors,
                              sol.subject_factors, sol.consensus, pulls)
    assert sol.final_objective == pytest.approx(direct, rel=1e-9)


def test_non_contiguous_views_fit_like_contiguous_copies():
    views, _ = shared_factor_views(15, nodes=8, subjects=10)
    cfg = M2eConfig(rank=3, lambdas=(1.0, 1.0), seed=15, max_outer_iters=30)
    ref = m2e_fit(views, cfg)
    fortran = [np.asfortranarray(views[0]), views[1].transpose(1, 0, 2)]
    assert not any(x.flags.c_contiguous for x in fortran)
    for inputs in (fortran, [GraphViewTensor(x) for x in fortran]):
        sol = m2e_fit(inputs, cfg)
        np.testing.assert_array_equal(sol.consensus, ref.consensus)
        np.testing.assert_array_equal(sol.objective_trace, ref.objective_trace)


def test_views_may_differ_in_node_count():
    rng = np.random.default_rng(60)
    f = rng.standard_normal((10, 2))
    views = []
    for nodes in (6, 9):
        h = rng.standard_normal((nodes, 2))
        x = np.einsum("ir,jr,kr->ijk", h, h, f)
        views.append((x + x.transpose(1, 0, 2)) / 2)
    sol = m2e_fit(views, M2eConfig(rank=2, lambdas=(1.0, 1.0), seed=60,
                                   max_outer_iters=50))
    assert sol.node_factors[0].shape == (6, 2)
    assert sol.node_factors[1].shape == (9, 2)
    assert sol.consensus.shape == (10, 2)


def test_rejects_subject_count_mismatch():
    rng = np.random.default_rng(32)
    w1 = rng.standard_normal((4, 4, 5))
    w2 = rng.standard_normal((4, 4, 6))
    views = [(w + w.transpose(1, 0, 2)) / 2 for w in (w1, w2)]
    with pytest.raises(ValueError, match="subject count"):
        m2e_fit(views, M2eConfig(rank=2))


def test_rejects_asymmetric_views():
    rng = np.random.default_rng(33)
    x = rng.standard_normal((4, 4, 3))
    worst = int(np.argmax(np.abs(x - x.transpose(1, 0, 2)).max(axis=(0, 1))))
    with pytest.raises(ValueError, match=f"view 0: frontal slice {worst} is asymmetric"):
        m2e_fit([x], M2eConfig(rank=2))


def test_rejects_lambda_count_mismatch():
    views, _ = shared_factor_views(8)
    with pytest.raises(ValueError, match="weights"):
        m2e_fit(views, M2eConfig(rank=2, lambdas=(1.0,)))


def test_non_finite_state_reported_with_iteration():
    state = M2eState(
        node=[np.full((2, 2), np.nan)], node_aux=[np.zeros((2, 2))],
        dual=[np.zeros((2, 2))], subject=[np.zeros((3, 2))],
        consensus=np.zeros((3, 2)),
    )
    with pytest.raises(SolverNumericsError, match="iteration 7, view 0 node$") as err:
        _ensure_finite(state, 1.0, 7)
    assert err.value.iteration == 7
    # the first non-finite block in update order is named
    state.node = [np.zeros((2, 2)), np.zeros((2, 2))]
    state.node_aux = state.node_aux * 2
    state.dual = [np.zeros((2, 2)), np.full((2, 2), np.inf)]
    state.subject = [np.zeros((3, 2)), np.full((3, 2), np.nan)]
    with pytest.raises(SolverNumericsError, match="iteration 3, view 1 dual$"):
        _ensure_finite(state, 1.0, 3)
    state.dual[1] = np.zeros((2, 2))
    with pytest.raises(SolverNumericsError, match="iteration 3, view 1 subject$"):
        _ensure_finite(state, 1.0, 3)
    state.subject[1] = np.zeros((3, 2))
    state.consensus = np.full((3, 2), np.nan)
    with pytest.raises(SolverNumericsError, match="iteration 3, consensus$"):
        _ensure_finite(state, 1.0, 3)
    state.consensus = np.zeros((3, 2))
    with pytest.raises(SolverNumericsError, match="iteration 3, objective$"):
        _ensure_finite(state, np.nan, 3)
    _ensure_finite(state, 1.0, 3)


@pytest.mark.parametrize("fitter, iteration, view, block, where", [
    (m2e_fit, 1, 0, "node", "view 0 node"),
    (m2e_fit, 2, 1, "subject", "view 1 subject"),
    (m2e_ts_fit, 0, 1, "aux", "view 1 aux"),
    (m2e_ts_fit, 2, 0, "subject", "view 0 subject"),
    (m2e_ds_fit, 1, 1, "aux", "view 1 aux"),
    (m2e_ds_fit, 2, -1, "subject", "shared subject"),
])
def test_singular_block_reported_with_iteration_view_and_block(monkeypatch, fitter, iteration,
                                                               view, block, where):
    rng = np.random.default_rng(47)
    views = [w + w.transpose(1, 0, 2) for w in rng.standard_normal((2, 5, 5, 6))]
    config = M2eConfig(rank=2, max_outer_iters=4, seed=47)
    steps, iterations = [], []

    def record(event, info):
        if event == "iteration":
            iterations.append(info["iteration"])
        else:
            steps.append((len(iterations), info["view"], info["block"]))

    fitter(views, config, monitor=record)
    # the spectral start makes one solve per view before the first block step
    failing_call = len(views) + steps.index((iteration, view, block)) + 1
    calls = []

    def ridge_solve_failing_once(gram, rhs):
        calls.append(1)
        if len(calls) == failing_call:
            raise np.linalg.LinAlgError("Singular matrix")
        return ridge_solve(gram, rhs)

    monkeypatch.setattr(solver, "ridge_solve", ridge_solve_failing_once)
    with pytest.raises(SolverNumericsError,
                       match=f"outer iteration {iteration}, {where}: Singular matrix$") as err:
        fitter(views, config)
    assert err.value.iteration == iteration
    assert isinstance(err.value.__cause__, np.linalg.LinAlgError)


@pytest.mark.parametrize("fitter", (m2e_fit, m2e_ds_fit, m2e_ts_fit))
def test_view_whose_energy_overflows_is_named(fitter):
    # every entry is finite, but ||X||^2 is not; the second view is at fault
    rng = np.random.default_rng(48)
    views = [w + w.transpose(1, 0, 2) for w in rng.standard_normal((2, 5, 5, 6))]
    with np.errstate(all="ignore"), pytest.raises(SolverNumericsError) as err:
        fitter([views[0], views[1] * 1e155], M2eConfig(rank=2))
    assert str(err.value) == "||X||^2 of view 1 overflows: non-finite before the spectral start"
    assert err.value.iteration == 0


@pytest.mark.parametrize("fitter", (m2e_fit, m2e_ds_fit, m2e_ts_fit))
def test_all_zero_view_fits_finite(fitter):
    # a zero view has a zero spectral start and a zero data term; its exact
    # subject solve without a pull is exactly zero
    views, _ = shared_factor_views(43, n_views=1, nodes=6, subjects=5)
    sol = fitter([views[0], np.zeros((4, 4, 5))], M2eConfig(rank=2, seed=43))
    for block in [sol.consensus, *sol.node_factors, *sol.subject_factors]:
        assert np.isfinite(block).all()
    if fitter is m2e_ts_fit:
        np.testing.assert_array_equal(sol.subject_factors[1], 0.0)


@pytest.mark.parametrize("fitter", (m2e_ds_fit, m2e_ts_fit))
def test_fit_without_a_pull_does_not_depend_on_the_data_units(fitter):
    # with no consensus pull every block's scale follows ||X||^2: the start,
    # the coupling penalty and ridge_solve's ridge
    views, _ = generate(SyntheticSpec(seed=1))

    def fit(s):
        scaled = [GraphViewTensor.from_packed(s * v.packed) for v in views]
        sol = fitter(scaled, M2eConfig(rank=4))
        return sol, sol.final_objective / sum(np.vdot(v.data, v.data) for v in scaled)

    base, ratio = fit(1.0)
    for s in (1e-8, 1e-4, 1e4, 1e8):
        sol, scaled_ratio = fit(s)
        assert (sol.iterations, sol.converged) == (base.iterations, base.converged), s
        assert scaled_ratio == pytest.approx(ratio, rel=1e-9), s


def test_joint_fit_of_a_one_node_view_past_its_rank_is_finite():
    # every node Gram of a 1 x 1 x 3 view at rank 3 has rank one, at 1e20 scale
    sol = m2e_fit([np.full((1, 1, 3), 1e10)], M2eConfig(rank=3))
    for block in [sol.consensus, *sol.node_factors, *sol.subject_factors]:
        assert np.isfinite(block).all()


def test_config_validation():
    with pytest.raises(ValueError):
        M2eConfig(rank=0)
    with pytest.raises(ValueError):
        M2eConfig(rank=1, lambdas=(0.0,))


# --------------------------------------------------------------------------
# variants


def test_ds_matches_vanishing_consensus_weight_single_view(monkeypatch):
    # both fits reach rounding noise well before 200 iterations and would stop
    # there at different noise levels; running both to the cap brings each to 0
    monkeypatch.setattr(solver, "STOP_RESIDUAL", -1.0)  # never stop: run all 200
    views, energy = shared_factor_views(9, n_views=1)
    ds = m2e_ds_fit(views, M2eConfig(rank=3, seed=9, max_outer_iters=200))
    soft = m2e_fit(views, M2eConfig(rank=3, lambdas=(1e-8,), seed=9,
                                    max_outer_iters=200))
    assert ds.final_objective == pytest.approx(soft.final_objective, rel=1e-3, abs=1e-9)


def test_ds_identical_views_agree_with_joint_fit_clusters():
    views, labels = generate(SyntheticSpec(seed=10))
    pair = [views[0], views[0]]
    cfg = M2eConfig(rank=4, lambdas=(1.0, 1.0), seed=10)
    ds = m2e_ds_fit(pair, cfg)
    joint = m2e_fit(pair, cfg)
    labels_ds = cluster_and_score(ds.consensus, labels, seed=10).matched_labels
    labels_joint = cluster_and_score(joint.consensus, labels, seed=10).matched_labels
    assert (labels_ds == labels_joint).mean() >= 0.9


def test_ds_recovers_exact_shared_factor_data():
    views, energy = shared_factor_views(11)
    sol = m2e_ds_fit(views, M2eConfig(rank=3, seed=11))
    assert sol.final_objective / energy < 1e-3
    for f in sol.subject_factors:
        np.testing.assert_array_equal(f, sol.consensus)


def test_ts_single_view_consensus_equals_subject_factor():
    views, _ = shared_factor_views(12, n_views=1)
    sol = m2e_ts_fit(views, M2eConfig(rank=3, seed=12, max_outer_iters=50))
    np.testing.assert_array_equal(sol.consensus, sol.subject_factors[0])


def test_ts_identical_views_consensus_equals_each_view():
    views, _ = shared_factor_views(13, n_views=1)
    pair = [views[0], views[0].copy()]
    sol = m2e_ts_fit(pair, M2eConfig(rank=3, lambdas=(1.0, 1.0), seed=13,
                                     max_outer_iters=50))
    np.testing.assert_allclose(sol.consensus, sol.subject_factors[0], atol=1e-10)
    np.testing.assert_allclose(sol.consensus, sol.subject_factors[1], atol=1e-10)
