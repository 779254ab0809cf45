import dataclasses

import numpy as np
import pytest

from m2e import datagen
from m2e.datagen import (SyntheticSpec, _centroids, bp_shape_preset, generate,
                         hiv_shape_preset)
from m2e.solver import M2eConfig, m2e_fit
from oracles import dense_generate


def test_single_cluster_no_noise_gives_identical_slices():
    spec = SyntheticSpec(views=1, nodes=8, subjects=5, cluster_sizes=(5,),
                         latent_rank=2, separation=3.0, noise_sigma=0.0,
                         jitter=0.0, seed=0)
    views, labels = generate(spec)
    data = views[0].data
    for n in range(1, 5):
        np.testing.assert_array_equal(data[:, :, n], data[:, :, 0])
    np.testing.assert_array_equal(labels, np.ones(5, dtype=int))


def test_noiseless_slices_exactly_symmetric():
    spec = SyntheticSpec(noise_sigma=0.0, seed=1)
    views, _ = generate(spec)
    for v in views:
        assert (v.data == v.data.transpose(1, 0, 2)).all()


@pytest.mark.parametrize("preset", [hiv_shape_preset, bp_shape_preset])
def test_noiseless_presets_give_c_contiguous_symmetric_views(preset):
    views, _ = generate(dataclasses.replace(preset(), noise_sigma=0.0))
    for v in views:
        assert v.data.flags.c_contiguous
        assert (v.data == v.data.transpose(1, 0, 2)).all()


def test_noisy_slices_exactly_symmetric_too():
    views, _ = generate(SyntheticSpec(seed=2))
    for v in views:
        assert (v.data == v.data.transpose(1, 0, 2)).all()


def test_determinism():
    spec = SyntheticSpec(seed=3)
    views_a, labels_a = generate(spec)
    views_b, labels_b = generate(spec)
    np.testing.assert_array_equal(labels_a, labels_b)
    for va, vb in zip(views_a, views_b):
        np.testing.assert_array_equal(va.data, vb.data)


def test_labels_follow_cluster_sizes():
    spec = SyntheticSpec(subjects=10, cluster_sizes=(3, 7), seed=4)
    _, labels = generate(spec)
    np.testing.assert_array_equal(labels, [1] * 3 + [2] * 7)


def test_centroid_separation_is_exact():
    rng = np.random.default_rng(5)
    cents = _centroids(rng, 3, 6, separation=4.0)
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.linalg.norm(cents[i] - cents[j]) == pytest.approx(4.0)


def test_presets_match_expected_shapes():
    hiv = hiv_shape_preset()
    assert (hiv.views, hiv.nodes, hiv.subjects) == (2, 90, 70)
    assert hiv.cluster_sizes == (35, 35)

    bp = bp_shape_preset()
    assert (bp.views, bp.nodes, bp.subjects) == (2, 82, 97)
    assert bp.cluster_sizes == (52, 45)


def test_presets_generate_solver_ready_views():
    for preset in (hiv_shape_preset(), bp_shape_preset()):
        small = SyntheticSpec(views=preset.views, nodes=12, subjects=preset.subjects,
                              cluster_sizes=preset.cluster_sizes,
                              latent_rank=preset.latent_rank, seed=6)
        views, _ = generate(small)
        sol = m2e_fit(views, M2eConfig(rank=2, max_outer_iters=3, seed=6))
        assert sol.iterations >= 1


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(subjects=10, cluster_sizes=(4, 4))
    with pytest.raises(ValueError):
        SyntheticSpec(cluster_sizes=())
    with pytest.raises(ValueError):
        SyntheticSpec(latent_rank=1, cluster_sizes=(20, 20))
    with pytest.raises(ValueError):
        SyntheticSpec(separation=-1.0)


@pytest.mark.parametrize("spec", [
    SyntheticSpec(seed=7),
    SyntheticSpec(noise_sigma=0.0, seed=7),
    SyntheticSpec(nodes=19, subjects=6, cluster_sizes=(3, 3), latent_rank=2, seed=8),
    dataclasses.replace(hiv_shape_preset(), seed=9),
    dataclasses.replace(hiv_shape_preset(), noise_sigma=0.0, seed=9),
    dataclasses.replace(bp_shape_preset(), seed=10),
], ids=["default", "noiseless", "nodes-19", "hiv", "hiv-noiseless", "bp"])
def test_generate_matches_the_dense_arithmetic_bit_for_bit(spec):
    # the labels bit for bit; the views to rounding, as the signal sums in another order
    views, labels = generate(spec)
    expected, expected_labels = dense_generate(spec)
    np.testing.assert_array_equal(labels, expected_labels)
    for got, want in zip(views, expected):
        assert np.abs(got.data - want).max() <= 1e-13 * np.abs(want).max()


def test_noise_is_sigma_on_the_diagonal_and_sigma_over_root_two_off_it():
    spec = dataclasses.replace(hiv_shape_preset(), separation=0.0, jitter=0.0, seed=11)
    views, _ = generate(spec)  # the signal is 0, so the rows are noise alone
    i, j = np.triu_indices(spec.nodes)
    rows = np.hstack([v.packed for v in views])
    for pairs, variance in ((i == j, spec.noise_sigma ** 2),
                            (i != j, spec.noise_sigma ** 2 / 2)):
        assert np.mean(rows[pairs] ** 2) == pytest.approx(variance, rel=0.05)


def test_views_do_not_depend_on_the_noise_block_size(monkeypatch):
    spec = dataclasses.replace(hiv_shape_preset(), seed=12)
    expected = [v.packed.tobytes() for v in generate(spec)[0]]
    for rows in (1, 10 ** 9):
        monkeypatch.setattr(datagen, "_NOISE_ROWS", rows)
        assert [v.packed.tobytes() for v in generate(spec)[0]] == expected
