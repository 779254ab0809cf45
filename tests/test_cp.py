import numpy as np
import pytest

import m2e.cp as cp
from m2e.cp import AlsOptions, CpFactors, cp_als_fit, cp_relative_error
from m2e.solver import SolverNumericsError
from m2e.tensors import GraphViewTensor, cp_reconstruct, frobenius_norm, khatri_rao, ridge_solve
from oracles import matricize


def rank_r_tensor(rng, nodes, subjects, rank, scale=1.0):
    """The symmetric-slice tensor [[a, a, c]] and its factors [a, a, c]."""
    a = scale * rng.standard_normal((nodes, rank))
    c = scale * rng.standard_normal((subjects, rank))
    return cp_reconstruct((a, a, c)), [a, a, c]


def symmetric_noise(rng, shape):
    w = rng.standard_normal(shape)
    return (w + w.transpose(1, 0, 2)) / 2


def test_recovers_exact_rank_one():
    rng = np.random.default_rng(10)
    vecs = [rng.standard_normal(d) for d in (6, 4)]
    a, c = (v.reshape(-1, 1) / np.linalg.norm(v) for v in vecs)
    t = 5.0 * cp_reconstruct((a, a, c))
    fit = cp_als_fit(t, AlsOptions(rank=1, seed=0))
    assert cp_relative_error(t, fit.factors) < 1e-6


def test_zero_tensor_short_circuits():
    fit = cp_als_fit(np.zeros((3, 3, 5)), AlsOptions(rank=2))
    assert fit.degenerate
    assert fit.factors.dims == (3, 3, 5)
    for f in fit.factors:
        np.testing.assert_array_equal(f, 0.0)
    assert cp_relative_error(np.zeros((3, 3, 5)), fit.factors) == 0.0


def test_recovers_exact_rank_two():
    rng = np.random.default_rng(11)
    t, _ = rank_r_tensor(rng, 7, 5, 2)
    fit = cp_als_fit(t, AlsOptions(rank=2, max_iters=500, seed=1))
    assert cp_relative_error(t, fit.factors) < 1e-4
    assert fit.iterations <= 500


def test_fit_trace_non_increasing():
    rng = np.random.default_rng(12)
    t, _ = rank_r_tensor(rng, 6, 7, 3)
    t = t + 0.05 * symmetric_noise(rng, t.shape)
    fit = cp_als_fit(t, AlsOptions(rank=2, max_iters=100, seed=2))
    diffs = np.diff(fit.fit_trace)
    assert (diffs <= 1e-10).all()


def test_als_update_satisfies_normal_equations():
    rng = np.random.default_rng(13)
    t, _ = rank_r_tensor(rng, 6, 4, 2)
    factors = [rng.standard_normal((d, 2)) for d in t.shape]
    ridge = 1e-10
    for mode in (1, 2, 3):
        others = [factors[m] for m in range(3) if m != mode - 1]
        kr = khatri_rao(others[1], others[0])
        gram = (others[1].T @ others[1]) * (others[0].T @ others[0])
        lhs = matricize(t, mode) @ kr
        new = ridge_solve(gram, lhs)
        rhs = new @ (gram + ridge * np.eye(2))
        scale = max(1.0, np.linalg.norm(lhs))
        assert np.linalg.norm(lhs - rhs) / scale < 1e-8
        factors[mode - 1] = new


def test_als_sweep_reads_the_tensor_twice_and_builds_no_model(monkeypatch):
    import m2e.cp as cp
    rng = np.random.default_rng(16)
    t, _ = rank_r_tensor(rng, 6, 7, 2)
    t = t + 0.1 * symmetric_noise(rng, t.shape)
    calls = dict.fromkeys(("packed_partial_mttkrp", "packed_mode3_mttkrp", "cp_reconstruct"), 0)

    def counted(name, kernel):
        def wrapper(*args):
            calls[name] += 1
            return kernel(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cp, name, counted(name, getattr(cp, name)))
    cp_als_fit(t, AlsOptions(rank=2, max_iters=1, seed=0))
    assert calls == {"packed_partial_mttkrp": 1, "packed_mode3_mttkrp": 1, "cp_reconstruct": 0}


@pytest.mark.parametrize("noise", (0.0, 1e-4, 0.1))
def test_last_trace_entry_matches_relative_error(noise):
    rng = np.random.default_rng(17)
    t, _ = rank_r_tensor(rng, 7, 5, 2)
    t = t + noise * symmetric_noise(rng, t.shape)
    fit = cp_als_fit(t, AlsOptions(rank=2, seed=3))
    assert abs(fit.fit_trace[-1] - cp_relative_error(t, fit.factors)) <= 1e-11


def test_relative_error_basics():
    rng = np.random.default_rng(14)
    t, factors = rank_r_tensor(rng, 5, 6, 2)
    exact = CpFactors(tuple(factors))
    assert cp_relative_error(t, exact) < 1e-12

    zero = CpFactors(tuple(np.zeros_like(f) for f in factors))
    assert cp_relative_error(t, zero) == pytest.approx(1.0)

    doubled = CpFactors((2.0 * factors[0], factors[1], factors[2]))
    assert cp_relative_error(t, doubled) == pytest.approx(1.0)


def test_relative_error_rejects_shape_mismatch():
    factors = CpFactors((np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((2, 1))))
    with pytest.raises(ValueError):
        cp_relative_error(np.zeros((3, 3, 2)), factors)


def test_column_permutation_invariance():
    rng = np.random.default_rng(15)
    t, factors = rank_r_tensor(rng, 5, 6, 3)
    approx = [f + 0.1 * rng.standard_normal(f.shape) for f in factors]
    err = cp_relative_error(t, CpFactors(tuple(approx)))
    perm = rng.permutation(3)
    permuted = CpFactors(tuple(f[:, perm] for f in approx))
    assert cp_relative_error(t, permuted) == pytest.approx(err, rel=1e-12)


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        AlsOptions(rank=0)
    with pytest.raises(ValueError):
        cp_als_fit(np.full((2, 2, 2), np.nan), AlsOptions(rank=1))
    with pytest.raises(ValueError):
        cp_als_fit(np.zeros((2, 2)), AlsOptions(rank=1))
    with pytest.raises(ValueError, match="asymmetric"):
        cp_als_fit(np.random.default_rng(0).standard_normal((3, 3, 2)), AlsOptions(rank=1))


@pytest.mark.parametrize("factors, message", [
    ((np.ones((2, 2)), np.ones((2, 2))), "CpFactors needs exactly three matrices"),
    ((np.ones((2, 2)), np.ones((2, 2)), np.ones(2)), "CpFactors needs exactly three matrices"),
    ((np.ones((2, 2)), np.ones((2, 3)), np.ones((2, 2))),
     "factor matrices disagree on column count"),
    ((np.ones((2, 2)), np.full((2, 2), np.nan), np.ones((2, 2))), "factor entries must be finite"),
], ids=["two-matrices", "a-vector", "column-counts", "non-finite"])
def test_cp_factors_reject_malformed_matrices(factors, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        CpFactors(factors)


def test_non_finite_sweep_raises_naming_it(monkeypatch):
    t, _ = rank_r_tensor(np.random.default_rng(15), 6, 5, 2)
    with np.errstate(all="ignore"), pytest.raises(SolverNumericsError) as err:
        cp_als_fit(t * 1e160, AlsOptions(rank=3))  # ||X||^2 overflows
    assert str(err.value) == "non-finite error or factors at CP-ALS sweep 0"
    assert err.value.iteration == 0

    calls, mode3 = [], cp.packed_mode3_mttkrp

    def nan_at_the_third_sweep(xp, a, b):  # once per sweep
        calls.append(1)
        return mode3(xp, a, b) * (np.nan if len(calls) == 3 else 1.0)

    monkeypatch.setattr(cp, "packed_mode3_mttkrp", nan_at_the_third_sweep)
    with pytest.raises(SolverNumericsError) as err:
        cp_als_fit(t, AlsOptions(rank=2, rel_tol=1e-300))
    assert str(err.value) == "non-finite error or factors at CP-ALS sweep 2"
    assert err.value.iteration == 2 and len(calls) == 3


def test_relative_error_matches_the_dense_formula():
    # the packed residual counts the model's (i, j) and (j, i) entries, which
    # differ when its first two factors do; 20 nodes span three row blocks
    rng = np.random.default_rng(14)
    t, _ = rank_r_tensor(rng, 20, 5, 3)
    t = t + 0.1 * symmetric_noise(rng, t.shape)
    for tensor in (t, np.asfortranarray(t), GraphViewTensor(t)):
        for rank in (1, 3):
            f = CpFactors(tuple(rng.standard_normal((d, rank)) for d in t.shape))
            expected = frobenius_norm(t - cp_reconstruct(f)) / frobenius_norm(t)
            assert cp_relative_error(tensor, f) == pytest.approx(expected, rel=1e-12)
