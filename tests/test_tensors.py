import itertools
import re
import tracemalloc

import numpy as np
import pytest

from m2e.cp import AlsOptions, CpFactors, cp_als_fit, cp_relative_error
from m2e.dataio import DatasetError, save_dataset
from m2e.solver import M2eConfig, M2eState, m2e_ds_fit, m2e_fit, m2e_ts_fit, objective_value
from m2e.tensors import (RIDGE, GraphViewTensor, all_finite, as_views, cp_reconstruct,
                         cp_squared_error, frobenius_norm, khatri_rao,
                         mttkrp_from_partial, pack_slice, packed_energy,
                         packed_mode3_mttkrp, packed_partial_mttkrp, packed_slice_gram,
                         ridge_solve, scaled_identity, symmetric_index)
from oracles import matricize, mode3_mttkrp, partial_mttkrp, refold


def unfold_by_index_formula(t, mode):
    """Independent oracle: place every entry by the explicit column formula.

    For a third-order tensor the non-mode indices p contribute
    (i_p - 1) * J_p to the (1-based) column, where J_p is 1 for the smaller
    non-mode index and the size of that smaller index for the larger one.
    """
    dims = t.shape
    rest = [ax for ax in range(3) if ax != mode - 1]
    j_small, j_large = 1, dims[rest[0]]
    out = np.zeros((dims[mode - 1], dims[rest[0]] * dims[rest[1]]))
    for idx in itertools.product(*(range(d) for d in dims)):
        col = idx[rest[0]] * j_small + idx[rest[1]] * j_large
        out[idx[mode - 1], col] = t[idx]
    return out


def test_matricize_pinned_2x2x2():
    # entries 1..8 laid out so t[i,j,k] = (i+1) + 2j + 4k (0-based indices)
    t = np.arange(1, 9).reshape(2, 2, 2, order="F")
    expected = np.array([[1, 3, 5, 7], [2, 4, 6, 8]])
    np.testing.assert_array_equal(matricize(t, 1), expected)


@pytest.mark.parametrize("dims", list(itertools.product((1, 2, 3), repeat=3)))
@pytest.mark.parametrize("mode", (1, 2, 3))
def test_matricize_matches_index_formula(dims, mode):
    t = np.arange(1, np.prod(dims) + 1, dtype=float).reshape(dims)
    np.testing.assert_array_equal(matricize(t, mode), unfold_by_index_formula(t, mode))


@pytest.mark.parametrize("dims", list(itertools.product((1, 2, 3), repeat=3)))
@pytest.mark.parametrize("mode", (1, 2, 3))
def test_matricize_refold_round_trip(dims, mode):
    rng = np.random.default_rng(hash(dims) % 2**32)
    t = rng.standard_normal(dims)
    np.testing.assert_array_equal(refold(matricize(t, mode), mode, dims), t)


def test_matricize_singleton():
    t = np.full((1, 1, 1), 7.5)
    for mode in (1, 2, 3):
        np.testing.assert_array_equal(matricize(t, mode), [[7.5]])


def test_matricize_rejects_bad_mode():
    t = np.zeros((2, 2, 2))
    with pytest.raises(ValueError):
        matricize(t, 0)
    with pytest.raises(ValueError):
        matricize(t, 4)


def test_khatri_rao_identity_columns():
    eye = np.eye(2)
    expected = np.array([[1, 0], [0, 0], [0, 0], [0, 1]])
    np.testing.assert_array_equal(khatri_rao(eye, eye), expected)


def test_khatri_rao_single_columns():
    a = np.array([[1.0], [2.0]])
    b = np.array([[3.0], [4.0]])
    np.testing.assert_array_equal(khatri_rao(a, b), [[3], [4], [6], [8]])


def test_khatri_rao_gram_identity():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 2))
    b = rng.standard_normal((4, 2))
    kr = khatri_rao(a, b)
    np.testing.assert_allclose(kr.T @ kr, (a.T @ a) * (b.T @ b), atol=1e-10)


def test_khatri_rao_rejects_column_mismatch():
    with pytest.raises(ValueError):
        khatri_rao(np.zeros((2, 2)), np.zeros((2, 3)))


def test_cp_reconstruct_rank_one():
    a = np.array([[1.0], [0.0]])
    b = np.array([[0.0], [1.0]])
    c = np.array([[1.0]])
    t = cp_reconstruct((a, b, c))
    expected = np.zeros((2, 2, 1))
    expected[0, 1, 0] = 1.0
    np.testing.assert_array_equal(t, expected)


def test_cp_reconstruct_zero_factors():
    t = cp_reconstruct((np.zeros((2, 2)), np.zeros((3, 2)), np.zeros((4, 2))))
    np.testing.assert_array_equal(t, np.zeros((2, 3, 4)))


def test_cp_reconstruct_matches_mode3_identity():
    rng = np.random.default_rng(1)
    a, b, c = (rng.standard_normal((d, 2)) for d in (3, 4, 5))
    t = cp_reconstruct((a, b, c))
    np.testing.assert_allclose(matricize(t, 3), c @ khatri_rao(b, a).T, atol=1e-12)


def test_cp_reconstruct_rejects_rank_mismatch():
    with pytest.raises(ValueError):
        cp_reconstruct((np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2))))


@pytest.mark.parametrize("call, message", [
    (lambda: khatri_rao(np.zeros(3), np.zeros((3, 2))), "khatri_rao expects two matrices"),
    (lambda: cp_reconstruct((np.zeros((2, 2)), np.zeros((2, 2)))),
     "expected 3 factor matrices, got 2"),
], ids=["khatri-rao-vector", "reconstruct-two-factors"])
def test_kernels_reject_malformed_factors_naming_the_fault(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def random_symmetric(rng, m, n):
    x = rng.standard_normal((m, m, n))
    return x + x.transpose(1, 0, 2)


def mttkrp_oracle(t, factors, mode):
    """matricize(T, mode) @ khatri_rao of the other factors, larger mode first."""
    small, big = (factors[m] for m in range(3) if m != mode - 1)
    return matricize(t, mode) @ khatri_rao(big, small)


@pytest.mark.parametrize("rank", (1, 3))
@pytest.mark.parametrize("mode", (1, 2, 3))
def test_mttkrp_matches_matricized_oracle(mode, rank):
    rng = np.random.default_rng(7 + rank)
    t = random_symmetric(rng, 5, 6)
    factors = [rng.standard_normal((d, rank)) for d in t.shape]  # factors[0] != factors[1]
    expected = mttkrp_oracle(t, factors, mode)
    scale = np.abs(expected).max()
    xp = GraphViewTensor(t).packed
    if mode == 3:
        got = packed_mode3_mttkrp(xp, factors[0], factors[1])
    else:  # one contraction of the pass-1 product, with the other node mode's factor
        got = mttkrp_from_partial(packed_partial_mttkrp(xp, factors[2]), factors[2 - mode])
    assert got.shape == (t.shape[mode - 1], rank)
    assert np.abs(got - expected).max() <= 1e-12 * scale


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("m", [1, 2, 9])
def test_pass_one_product_is_symmetric_bit_for_bit(m, order):
    # Y[r, i, j] and Y[r, j, i] are gathered from one packed entry, so one
    # contraction of Y serves the mode-1 and the mode-2 MTTKRP
    rng = np.random.default_rng(70 + m)
    xp = rng.standard_normal((m * (m + 1) // 2, 7))
    c = np.array(rng.standard_normal((7, 3)), order=order)
    y = packed_partial_mttkrp(xp, c)
    assert y.shape == (3, m, m)
    assert y.tobytes() == np.ascontiguousarray(y.transpose(0, 2, 1)).tobytes()


@pytest.mark.parametrize("noise", (0.1, 1.0))
def test_cp_squared_error_matches_dense_residual(noise):
    # a symmetric view against a model whose first two factors differ
    rng = np.random.default_rng(19)
    for _ in range(10):
        a, c = rng.standard_normal((6, 3)), rng.standard_normal((7, 3))
        x = cp_reconstruct((a, a, c)) + noise * random_symmetric(rng, 6, 7)
        xp = GraphViewTensor(x).packed
        a, b, c = (f + noise * rng.standard_normal(f.shape) for f in (a, a, c))
        dense = float(np.sum((x - cp_reconstruct((a, b, c))) ** 2))
        got = cp_squared_error(packed_energy(xp), packed_mode3_mttkrp(xp, a, b), a, b, c)
        assert got == pytest.approx(dense, rel=1e-10)


def test_cp_squared_error_is_clamped_at_an_exact_fit():
    rng = np.random.default_rng(20)
    clamped = 0
    for _ in range(20):
        a, b, c = (rng.standard_normal((d, 3)) for d in (6, 5, 7))
        x = cp_reconstruct((a, b, c))
        energy, g = float(np.vdot(x, x)), mode3_mttkrp(x, a, b)
        raw = energy - 2.0 * np.vdot(g, c) + ((a.T @ a) * (b.T @ b) * (c.T @ c)).sum()
        got = cp_squared_error(energy, g, a, b, c)
        assert 0.0 <= got <= 1e-12 * energy
        if raw < 0:
            assert got == 0.0
            clamped += 1
    assert clamped  # rounding drove the identity below zero at least once


def test_mttkrp_kernel_does_not_copy_the_tensor():
    rng = np.random.default_rng(9)
    t = random_symmetric(rng, 60, 40)
    xp = GraphViewTensor(t).packed
    a, b, c = (rng.standard_normal((d, 2)) for d in (60, 60, 40))
    tracemalloc.start()
    try:
        y = packed_partial_mttkrp(xp, c)
        mttkrp_from_partial(y, b)
        mttkrp_from_partial(y, a)
        packed_mode3_mttkrp(xp, a, b)
        packed_energy(xp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < t.nbytes / 4


def test_graph_view_packs_the_plain_upper_triangle():
    x = np.array([[1.0, 2.0], [2.0, 3.0]])[:, :, None]
    packed = GraphViewTensor(x).packed
    np.testing.assert_array_equal(packed, [[1.0], [2.0], [3.0]])
    assert not packed.flags.writeable


@pytest.mark.parametrize("m, n", list(itertools.product((1, 2, 7), (1, 5))))
def test_packed_kernels_match_dense(m, n):
    rng = np.random.default_rng([m, n])
    x = random_symmetric(rng, m, n)
    packed = GraphViewTensor(x).packed
    assert packed.shape == (m * (m + 1) // 2, n)
    for r in sorted({1, 3, m + 2}):
        h, p = rng.standard_normal((2, m, r))
        c = rng.standard_normal((n, r))
        for got, want in ((packed_partial_mttkrp(packed, c), partial_mttkrp(x, c)),
                          (packed_mode3_mttkrp(packed, h, p), mode3_mttkrp(x, h, p))):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert packed_energy(packed) == pytest.approx(float(np.vdot(x, x)), rel=1e-14)
    gram = np.einsum("ijk,ljk->il", x, x)
    assert np.abs(packed_slice_gram(packed) - gram).max() <= 1e-12 * np.abs(gram).max()


@pytest.mark.parametrize("shape", ((3, 4, 2), (3, 3), (3, 3, 2, 1)))
def test_graph_view_rejects_non_square_slices(shape):
    with pytest.raises(ValueError, match="expected shape"):
        GraphViewTensor(np.zeros(shape))


def test_graph_view_of_non_contiguous_input_matches_contiguous_copy():
    x = random_symmetric(np.random.default_rng(21), 6, 8)
    strided = np.asfortranarray(x)[:, :, ::2]
    assert not (strided.flags.c_contiguous or strided.flags.f_contiguous)
    packed = GraphViewTensor(strided).packed
    np.testing.assert_array_equal(packed, GraphViewTensor(np.ascontiguousarray(strided)).packed)


def test_scaled_identity_is_a_cached_read_only_scaled_eye():
    a = scaled_identity(4, 0.35)
    np.testing.assert_array_equal(a, 0.35 * np.eye(4))
    assert scaled_identity(4, 0.35) is a
    with pytest.raises(ValueError):
        a[0, 0] = 1.0
    rng = np.random.default_rng(7)
    g = rng.standard_normal((4, 4))
    g = g @ g.T
    rhs = rng.standard_normal((9, 4))
    # the cached ridge gives the same bits as building it in place
    expected = np.linalg.solve(g + RIDGE * np.eye(4), rhs.T).T
    np.testing.assert_array_equal(ridge_solve(g, rhs), expected)


def test_frobenius_norm():
    assert frobenius_norm(np.zeros((2, 2, 2))) == 0.0
    assert frobenius_norm(np.full((1, 1, 1), 3.0)) == 3.0
    assert frobenius_norm(np.array([3.0, 4.0]).reshape(1, 1, 2)) == pytest.approx(5.0)


def test_norm_agrees_with_matricized_norm():
    rng = np.random.default_rng(2)
    a, b, c = (rng.standard_normal((d, 3)) for d in (4, 4, 5))
    t = cp_reconstruct((a, b, c))
    direct = frobenius_norm(t)
    for mode in (1, 2, 3):
        assert abs(direct - np.linalg.norm(matricize(t, mode))) < 1e-12


def test_symmetry_check_keeps_symmetric_slices_and_measures_an_asymmetric_one():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((4, 4, 3))
    sym = (w + w.transpose(1, 0, 2)) / 2
    assert GraphViewTensor(sym).data.tobytes() == sym.tobytes()

    broken = sym.copy()
    broken[0, 1, 1] = 1.0
    broken[1, 0, 1] = 0.0
    with pytest.raises(ValueError) as err:
        GraphViewTensor(broken)
    assert str(err.value) == "frontal slice 1 is asymmetric by 1 (tolerance 1e-06)"
    out = np.empty(10)
    assert [pack_slice(broken[:, :, k], out)[0] for k in range(3)] == [0.0, 1.0, 0.0]


def test_symmetric_factors_reconstruct_symmetric():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((5, 2))
    c = rng.standard_normal((6, 2))
    t = cp_reconstruct((a, a, c))
    out = np.empty(15)
    assert max(pack_slice(t[:, :, k], out)[0] for k in range(6)) <= 1e-12
    GraphViewTensor(t)  # accepted as a view


def test_symmetry_check_rejects_non_square_slices():
    with pytest.raises(ValueError, match=r"expected shape \(M, M, N\), got \(2, 3, 4\)"):
        GraphViewTensor(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError, match=r"expected shape \(M, M\), got \(2, 3\)"):
        pack_slice(np.zeros((2, 3)), np.empty(3))


def test_graph_view_averages_drift_up_to_the_tolerance():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((3, 3, 2))
    sym = (w + w.transpose(1, 0, 2)) / 2
    drifted = sym.copy()
    drifted[0, 1, 0] += 1e-8
    fixed = GraphViewTensor(drifted).data
    assert (fixed == fixed.transpose(1, 0, 2)).all()

    bad = sym.copy()
    bad[0, 1, 1] += 1e-3
    with pytest.raises(ValueError, match="slice 1"):
        GraphViewTensor(bad)


def test_asymmetry_errors_name_the_worst_slice():
    t = np.zeros((3, 3, 4))
    t[0, 1, 0] = 1e-3
    t[1, 2, 2] = 0.1
    with pytest.raises(ValueError) as err:
        GraphViewTensor(t)
    assert str(err.value) == "frontal slice 2 is asymmetric by 0.1 (tolerance 1e-06)"
    out = np.empty(6)
    assert [pack_slice(t[:, :, k], out)[0] for k in range(4)] == [1e-3, 0.0, 0.1, 0.0]


def test_graph_view_tensor_validation():
    rng = np.random.default_rng(6)
    w = rng.standard_normal((4, 4, 2))
    sym = (w + w.transpose(1, 0, 2)) / 2
    view = GraphViewTensor(sym)
    assert view.node_count == 4
    assert view.subject_count == 2

    bad = sym.copy()
    bad[0, 1, 0] += 1e-3
    with pytest.raises(ValueError, match="asymmetric"):
        GraphViewTensor(bad)
    with pytest.raises(ValueError, match="finite"):
        GraphViewTensor(np.full((2, 2, 1), np.nan))
    with pytest.raises(ValueError):
        GraphViewTensor(np.zeros((2, 3, 1)))
    for shape in ((0, 0, 3), (2, 2, 0), (0, 0, 0)):  # no nodes or no subjects
        with pytest.raises(ValueError, match="expected shape"):
            GraphViewTensor(np.zeros(shape))


@pytest.mark.parametrize("m", [1, 2, 7])
def test_graph_view_data_round_trips_symmetric_input_bit_for_bit(m):
    w = np.random.default_rng(50 + m).standard_normal((m, m, 5))
    sym = w + w.transpose(1, 0, 2)
    sym[0, 0, 0], sym[-1, -1, 1] = 5e-324, -1e-310  # subnormal diagonal entries
    sym[0, -1, 2] = sym[-1, 0, 2] = 3e-320  # and a subnormal pair, off the diagonal if m > 1
    for t in _layouts(sym):
        view = GraphViewTensor(t)
        data = view.data
        assert data.flags.c_contiguous and data.shape == (m, m, 5)
        assert data.tobytes() == sym.tobytes()
        assert view.data is not data  # each access builds a new array
        assert GraphViewTensor.from_packed(view.packed).data.tobytes() == sym.tobytes()
    assert view.packed.nbytes == m * (m + 1) // 2 * 5 * 8


def test_graph_view_holds_the_pair_average_of_a_near_symmetric_input():
    w = np.random.default_rng(8).standard_normal((4, 4, 3))
    near = w + w.transpose(1, 0, 2)
    near[0, 1, 2] += 1e-10
    near[3, 3, 0] += 1e-10
    assert GraphViewTensor(near).data.tobytes() == \
        ((near + near.transpose(1, 0, 2)) / 2.0).tobytes()


def test_graph_view_packed_rows_are_read_only():
    w = np.random.default_rng(9).standard_normal((3, 3, 2))
    view = GraphViewTensor(w + w.transpose(1, 0, 2))
    assert not view.packed.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        view.packed[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        view.packed *= 2.0


def test_graph_view_from_packed_rows():
    w = np.random.default_rng(10).standard_normal((5, 5, 4))
    view = GraphViewTensor(w + w.transpose(1, 0, 2))
    rows = np.array(view.packed)
    again = GraphViewTensor.from_packed(rows)
    assert again.packed is rows  # kept, not copied
    assert (again.node_count, again.subject_count) == (5, 4)
    assert again.data.tobytes() == view.data.tobytes()
    for value in (np.nan, np.inf, -np.inf):
        bad = np.array(rows)
        bad[7, 2] = value
        with pytest.raises(ValueError, match="finite"):
            GraphViewTensor.from_packed(bad)
    for shape in ((4, 2), (0, 2), (0, 3), (3, 0), (15,), (15, 2, 1)):
        with pytest.raises(ValueError, match="expected shape"):
            GraphViewTensor.from_packed(np.zeros(shape))


def _layouts(x):
    """x in C order, in Fortran order and as a strided view."""
    return [x, np.asfortranarray(x), np.ascontiguousarray(x.transpose(2, 0, 1)).transpose(1, 2, 0)]


@pytest.mark.parametrize("m", [1, 8, 19])
def test_in_place_average_matches_the_dense_formula_bit_for_bit(m):
    rng = np.random.default_rng(m)
    x = rng.standard_normal((m, m, 5))
    expected = (x + x.transpose(1, 0, 2)) / 2.0
    upper = symmetric_index(m)[0]
    out = np.empty(upper.size)
    for t in _layouts(x):
        for k in range(x.shape[2]):
            pack_slice(t[:, :, k], out)
            assert out.tobytes() == expected[:, :, k].ravel().take(upper).tobytes()
    drifted = expected + rng.uniform(-4e-7, 4e-7, x.shape)  # within DRIFT_TOL
    expected = (drifted + drifted.transpose(1, 0, 2)) / 2.0
    for t in _layouts(drifted):
        assert GraphViewTensor(t).data.tobytes() == expected.tobytes()


@pytest.mark.parametrize("m", [3, 19])
def test_tiled_symmetry_scan_matches_the_dense_scan(m):
    x = np.random.default_rng(40 + m).standard_normal((m, m, 6))
    x[m - 1, 0, 4] += 10.0  # worst entry in the lowest, leftmost tile, slice 4
    per_slice = np.abs(x - x.transpose(1, 0, 2)).max(axis=(0, 1))
    out = np.empty(m * (m + 1) // 2)
    for t in _layouts(x):
        assert [pack_slice(t[:, :, k], out) for k in range(6)] == \
            [(float(a), True) for a in per_slice]
        with pytest.raises(ValueError, match="frontal slice 4 is asymmetric"):
            GraphViewTensor(t)
    x[m - 1, m - 1, 2] = np.nan
    asym, finite = pack_slice(x[:, :, 2], out)
    assert not finite and np.isnan(asym)
    with pytest.raises(ValueError, match="affinity entries must be finite"):
        GraphViewTensor(x)


def test_all_finite_scans_every_row():
    x = np.zeros((19, 19, 3))
    assert all_finite(x)
    for value in (np.nan, np.inf, -np.inf):
        y = x.copy()
        y[18, 0, 2] = value
        assert not all_finite(y)


@pytest.mark.parametrize("m", [1, 2, 9])
def test_pack_slice_measures_and_packs_one_slice(m):
    s = np.random.default_rng(60 + m).standard_normal((m, m))
    upper, lower, _ = symmetric_index(m)
    out = np.full(upper.size, np.nan)
    strided = np.repeat(s, 2, axis=1)[:, ::2]
    for t in (s, np.asfortranarray(s), strided):
        out[:] = np.nan
        asymmetry, finite = pack_slice(t, out)
        assert asymmetry == np.abs(s - s.T).max() and finite
        assert out.tobytes() == ((s + s.T) / 2.0).ravel().take(upper).tobytes()
    sym = s + s.T
    assert pack_slice(sym, out) == (0.0, True)
    assert out.tobytes() == sym.ravel().take(upper).tobytes()
    assert out.tobytes() == sym.ravel().take(lower).tobytes()


def test_pack_slice_flags_non_finite_entries_and_bad_shapes():
    for value in (np.nan, np.inf, -np.inf):
        for at in ((0, 0), (2, 1)):
            s = np.zeros((3, 3))
            s[at] = value
            asymmetry, finite = pack_slice(s, np.empty(6))
            assert not finite and not np.isfinite(asymmetry)
    # finite entries whose difference overflows are still finite
    s = np.array([[0.0, 1.7e308], [-1.7e308, 0.0]])
    out = np.empty(3)
    assert pack_slice(s, out) == (np.inf, True)
    assert out.tolist() == [0.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="asymmetric by inf"):
        GraphViewTensor(s[:, :, None])
    for shape in ((2, 3), (3,), (2, 2, 1)):
        with pytest.raises(ValueError, match=r"expected shape \(M, M\)"):
            pack_slice(np.zeros(shape), np.empty(3))


def _bad_views():
    """(views, message) for each way a list of views can be wrong."""
    w = np.random.default_rng(60).standard_normal((4, 4, 3))
    sym = w + w.transpose(1, 0, 2)
    skew, nan = sym.copy(), sym.copy()
    skew[0, 1, 2] += 1e-3
    nan[2, 3, 1] = np.nan
    return {
        "empty": ([], "need at least one view"),
        "shape": ([np.zeros((3, 4, 5))], "view 0: expected shape (M, M, N), got (3, 4, 5)"),
        "asymmetric": ([skew], "view 0: frontal slice 2 is asymmetric by 0.001 "
                               "(tolerance 1e-06)"),
        "nan": ([nan], "view 0: affinity entries must be finite"),
        "subject-counts": ([sym, sym[:, :, :2]], "views disagree on subject count: [2, 3]"),
    }


@pytest.mark.parametrize("case", list(_bad_views()))
def test_every_entry_point_rejects_a_bad_view_alike(case, tmp_path):
    views, message = _bad_views()[case]
    config = M2eConfig(rank=2)
    state = M2eState([np.ones((4, 2))], [np.ones((4, 2))], [np.zeros((4, 2))],
                     [np.ones((3, 2))], np.ones((3, 2)))
    calls = {
        "as_views": lambda: as_views(views),
        "m2e_fit": lambda: m2e_fit(views, config),
        "m2e_ds_fit": lambda: m2e_ds_fit(views, config),
        "m2e_ts_fit": lambda: m2e_ts_fit(views, config),
        "objective_value": lambda: objective_value(views, state, None),
        "save_dataset": lambda: save_dataset(tmp_path / "ds", views),
    }
    if len(views) == 1:  # CP-ALS takes one view
        factors = CpFactors(tuple(np.ones((d, 2)) for d in views[0].shape))
        calls["cp_als_fit"] = lambda: cp_als_fit(views[0], AlsOptions(rank=2))
        calls["cp_relative_error"] = lambda: cp_relative_error(views[0], factors)
    for name, call in calls.items():
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message, name
    with pytest.raises(DatasetError):
        save_dataset(tmp_path / "ds", views)
    assert not (tmp_path / "ds").exists()

