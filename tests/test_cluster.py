import dataclasses
import itertools
import re

import numpy as np
import pytest

from m2e.cluster import (BinaryMetrics, KmeansResult, binary_metrics, cluster_and_score,
                         kmeans, lloyd, match_labels)
from m2e.dataio import save_dataset, save_labels
from m2e.runner import RunConfig, run_evaluate
from oracles import best_assignment_hits, congruence, exhaustive_label_mapping


def two_clouds(rng, n_per=4, dist=50.0, dim=2):
    a = rng.standard_normal((n_per, dim))
    b = rng.standard_normal((n_per, dim)) + dist
    return np.vstack([a, b])


def labels_from_contingency(table):
    """(pred, truth) whose contingency table is `table`: table[i, j] points
    carry predicted id i+1 and true id j+1."""
    k = len(table)
    ids = np.arange(1, k + 1)
    counts = np.asarray(table).ravel()
    return np.repeat(np.repeat(ids, k), counts), np.repeat(np.tile(ids, k), counts)


def brute_force_best_inertia(points, k=2):
    """Enumerate every assignment of points to k clusters; centroids at means."""
    n = len(points)
    best = np.inf
    for assignment in itertools.product(range(k), repeat=n):
        labels = np.asarray(assignment)
        if len(set(assignment)) < k:
            continue
        inertia = 0.0
        for kk in range(k):
            members = points[labels == kk]
            inertia += np.sum((members - members.mean(axis=0)) ** 2)
        best = min(best, inertia)
    return best


def test_kmeans_matches_brute_force_on_separated_clouds():
    rng = np.random.default_rng(40)
    pts = two_clouds(rng)
    result = kmeans(pts, 2, restarts=5, seed=0)
    oracle = brute_force_best_inertia(pts, 2)
    assert result.inertias[result.best_restart] == pytest.approx(oracle, rel=1e-9)
    # the partition separates the clouds
    first, second = result.labels[:4], result.labels[4:]
    assert len(set(first)) == 1 and len(set(second)) == 1
    assert first[0] != second[0]


def test_kmeans_single_cluster_inertia_is_total_variance():
    rng = np.random.default_rng(41)
    pts = rng.standard_normal((10, 3))
    result = kmeans(pts, 1, restarts=3, seed=0)
    expected = np.sum((pts - pts.mean(axis=0)) ** 2)
    assert result.inertias[result.best_restart] == pytest.approx(expected)
    assert set(result.labels) == {1}


def test_kmeans_k_equals_n_zero_inertia():
    rng = np.random.default_rng(42)
    pts = rng.standard_normal((6, 2))
    result = kmeans(pts, 6, restarts=2, seed=0)
    assert result.inertias[result.best_restart] == pytest.approx(0.0, abs=1e-12)


def test_kmeans_rejects_bad_k():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError):
        kmeans(pts, 0)
    with pytest.raises(ValueError):
        kmeans(pts, 4)


def test_kmeans_rejects_non_finite_rows():
    pts = np.zeros((5, 2))
    pts[3, 1] = np.nan
    with pytest.raises(ValueError, match="1 non-finite rows .*row 3"):
        kmeans(pts, 2)


@pytest.mark.parametrize("call, message", [
    (lambda: kmeans(np.zeros(3), 2), "expected an (N, R) matrix, got shape (3,)"),
    (lambda: kmeans(np.zeros((3, 2)), 2, restarts=0), "restarts must be >= 1"),
    (lambda: match_labels([1, 2, 1], [1, 2], 2), "pred and truth must have equal length"),
    (lambda: binary_metrics([1, 2, 1], [1, 2]),
     "matched labels and truth must have equal length"),
], ids=["kmeans-vector", "kmeans-no-restart", "match-lengths", "metrics-lengths"])
def test_clustering_argument_checks_name_the_fault(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_kmeans_best_restart_is_minimum():
    rng = np.random.default_rng(43)
    pts = rng.standard_normal((30, 2))
    result = kmeans(pts, 3, restarts=10, seed=1)
    assert result.inertias[result.best_restart] <= result.inertias.min() + 1e-12


def test_kmeans_deterministic():
    rng = np.random.default_rng(44)
    pts = rng.standard_normal((25, 3))
    a = kmeans(pts, 3, restarts=8, seed=7)
    b = kmeans(pts, 3, restarts=8, seed=7)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.inertias, b.inertias)


def test_lloyd_iterations_never_increase_inertia():
    rng = np.random.default_rng(45)
    pts = rng.standard_normal((40, 2))
    init = pts[rng.choice(40, 4, replace=False)]
    _, _, trace = lloyd(pts, init)
    assert (np.diff(trace) <= 1e-9).all()


def test_lloyd_reseeds_empty_clusters():
    # both centroids start on top of one point; the empty-cluster rule must
    # still produce two non-empty clusters for well-separated clouds
    rng = np.random.default_rng(46)
    pts = two_clouds(rng)
    init = np.vstack([pts[0], pts[0]])
    labels, _, trace = lloyd(pts, init)
    assert len(set(labels.tolist())) == 2


def test_match_labels_identity():
    truth = np.array([1, 1, 2, 2])
    match = match_labels(truth, truth, 2)
    np.testing.assert_array_equal(match.mapping, [1, 2])
    assert match.accuracy == 1.0


def test_match_labels_swap():
    truth = np.array([1, 1, 2, 2])
    pred = np.array([2, 2, 1, 1])
    match = match_labels(pred, truth, 2)
    np.testing.assert_array_equal(match.mapping, [2, 1])
    np.testing.assert_array_equal(match.matched_labels, truth)
    assert match.accuracy == 1.0


def test_match_labels_partial_agreement():
    pred = np.array([1, 1, 2, 2])
    truth = np.array([1, 2, 2, 2])
    match = match_labels(pred, truth, 2)
    assert match.accuracy == pytest.approx(0.75)
    np.testing.assert_array_equal(match.mapping, [1, 2])  # identity wins


def test_match_labels_large_k_uses_assignment():
    rng = np.random.default_rng(47)
    k = 8
    truth = rng.integers(1, k + 1, size=200)
    perm = rng.permutation(k) + 1
    pred = perm[truth - 1]
    match = match_labels(pred, truth, k)
    assert match.accuracy == 1.0
    # on random tables with ties, the hits equal the exhaustive optimum at
    # k = 7-9, and at k = 7 the mapping is the exhaustive oracle's
    for k in (7, 8, 9):
        for t in range(100):
            table = rng.integers(0, 4, (k, k))
            pred, truth = labels_from_contingency(table)
            match = match_labels(pred, truth, k)
            assert sorted(match.mapping.tolist()) == list(range(1, k + 1))
            assert (match.matched_labels == truth).sum() == best_assignment_hits(table)
            if k == 7 and t < 20:
                assert match.mapping.tolist() == exhaustive_label_mapping(table).tolist()


def test_match_labels_ties_follow_the_exhaustive_oracle():
    # lexicographically first optimal mapping: every table with entries 0-2
    # for k <= 3, then random tables with ties for k = 4-6
    tables = [np.reshape(entries, (k, k)) for k in (1, 2, 3)
              for entries in itertools.product(range(3), repeat=k * k)]
    rng = np.random.default_rng(51)
    tables += [rng.integers(0, 3, (k, k)) for k in (4, 5, 6) for _ in range(300)]
    for table in tables:
        pred, truth = labels_from_contingency(table)
        mapping = match_labels(pred, truth, len(table)).mapping
        assert mapping.tolist() == exhaustive_label_mapping(table).tolist(), table


def test_match_labels_relabeling_invariance():
    rng = np.random.default_rng(48)
    truth = rng.integers(1, 4, size=60)
    pred = rng.integers(1, 4, size=60)
    base = match_labels(pred, truth, 3).accuracy
    for _ in range(5):
        perm = rng.permutation(3) + 1
        assert match_labels(perm[pred - 1], truth, 3).accuracy == pytest.approx(base)


def test_match_labels_rejects_out_of_range():
    with pytest.raises(ValueError):
        match_labels(np.array([0, 1]), np.array([1, 1]), 2)
    with pytest.raises(ValueError):
        match_labels(np.array([1, 3]), np.array([1, 2]), 2)


# every entry point that takes labels, called with two labels in the checked argument
LABEL_ENTRY_POINTS = {
    "match_labels-pred": lambda labels, _: match_labels(labels, [1, 2], 2),
    "match_labels-truth": lambda labels, _: match_labels([1, 2], labels, 2),
    "binary_metrics-matched": lambda labels, _: binary_metrics(labels, [1, 2]),
    "binary_metrics-truth": lambda labels, _: binary_metrics([1, 2], labels),
    "cluster_and_score-truth": lambda labels, _: cluster_and_score(np.eye(2), labels, k=2,
                                                                   restarts=2),
    "run_evaluate": lambda labels, _: run_evaluate(np.eye(2), labels, RunConfig()),
    "save_labels": lambda labels, root: save_labels(root / "labels.txt", labels),
    "save_dataset": lambda labels, root: save_dataset(root / "ds", [np.ones((1, 1, 2))], labels),
}


@pytest.mark.parametrize("call", list(LABEL_ENTRY_POINTS))
def test_fractional_labels_raise_instead_of_truncating(call, tmp_path):
    with pytest.raises(ValueError, match="labels must be integers, got 1.7"):
        LABEL_ENTRY_POINTS[call](np.array([1.7, 2.0]), tmp_path)
    for bools in ([True, 2], [np.True_, 2], np.array([True, False])):  # a bool is no label
        with pytest.raises(ValueError, match="^labels must be integers, got True$"):
            LABEL_ENTRY_POINTS[call](bools, tmp_path)
    assert not any(tmp_path.iterdir())


OUT_OF_RANGE_LABELS = {
    "zero": ([0, 2], "0"),
    "negative": ([-1, 2], "-1"),
    "1e20": ([1e20, 2.0], "1e+20"),
    "uint64-max": (np.array([2**64 - 1, 2], dtype=np.uint64), "18446744073709551615"),
}


@pytest.mark.parametrize("bad", list(OUT_OF_RANGE_LABELS))
@pytest.mark.parametrize("call", list(LABEL_ENTRY_POINTS))
def test_out_of_range_labels_raise_naming_the_value(call, bad, tmp_path):
    labels, shown = OUT_OF_RANGE_LABELS[bad]
    with pytest.raises(ValueError) as err:
        LABEL_ENTRY_POINTS[call](labels, tmp_path)
    assert str(err.value) == f"labels must be positive integers (1..K), got {shown}"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("call", list(LABEL_ENTRY_POINTS))
def test_labels_that_are_not_one_dimensional_raise(call, tmp_path):
    with pytest.raises(ValueError, match=r"labels must be a 1-D sequence, got shape \(1, 2\)"):
        LABEL_ENTRY_POINTS[call]([[1, 2]], tmp_path)
    assert not any(tmp_path.iterdir())


def test_binary_metrics_perfect():
    truth = np.array([1, 1, 2, 2])
    m = binary_metrics(truth, truth, positive_class=1)
    assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)
    assert not m.degenerate


def test_binary_metrics_all_positive_prediction():
    truth = np.array([1, 1, 2, 2])
    pred = np.array([1, 1, 1, 1])
    m = binary_metrics(pred, truth, positive_class=1)
    assert m.recall == 1.0
    assert m.precision == pytest.approx(0.5)
    assert m.accuracy == pytest.approx(0.5)
    assert m.f1 == pytest.approx(2 / 3)


def test_binary_metrics_degenerate_flag():
    truth = np.array([2, 2, 2])
    pred = np.array([2, 2, 2])
    m = binary_metrics(pred, truth, positive_class=1)
    assert m.degenerate
    assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0


def test_f1_is_harmonic_mean():
    rng = np.random.default_rng(49)
    for _ in range(20):
        truth = rng.integers(1, 3, size=30)
        pred = rng.integers(1, 3, size=30)
        m = binary_metrics(pred, truth, positive_class=1)
        if m.precision > 0 and m.recall > 0:
            expected = 2 * m.precision * m.recall / (m.precision + m.recall)
            assert m.f1 == pytest.approx(expected)
        else:
            assert m.f1 == 0.0


def test_cluster_and_score_report_consistency():
    rng = np.random.default_rng(50)
    pts = two_clouds(rng, n_per=10)
    truth = np.repeat([1, 2], 10)
    report = cluster_and_score(pts, truth, k=2, restarts=5, seed=0)
    assert report.accuracy == 1.0
    assert report.f1 == 1.0
    assert report.inertias.shape == (5,)
    assert (report.matched_labels == truth).all()


@pytest.mark.parametrize("truth_classes", (2, 3))
def test_cluster_and_score_is_its_three_steps(truth_classes):
    # a report is the k-means result, the metrics of its matched labels and
    # those labels, each as the step run alone at the same seed gives it
    rng = np.random.default_rng(51)
    pts = rng.standard_normal((24, 3))
    truth = np.arange(24) % truth_classes + 1
    report = cluster_and_score(pts, truth, k=2, restarts=4, seed=9, positive_class=2)
    assert isinstance(report, KmeansResult) and isinstance(report, BinaryMetrics)
    result = kmeans(pts, 2, restarts=4, seed=9)
    match = match_labels(result.labels, truth, truth_classes)
    metrics = binary_metrics(match.matched_labels, truth, positive_class=2)
    expected = {**vars(result), **vars(metrics), "matched_labels": match.matched_labels}
    assert {f.name for f in dataclasses.fields(report)} == set(expected)
    for name, value in expected.items():
        np.testing.assert_array_equal(getattr(report, name), value, err_msg=name)
        assert type(getattr(report, name)) is type(value), name
    assert report.accuracy == match.accuracy


def test_congruence_oracle_pairs_columns_as_an_exhaustive_search_does():
    rng = np.random.default_rng(16)
    planted = rng.standard_normal((30, 4))
    # a column permutation, sign flips and column scales leave every column recovered
    moved = planted[:, [2, 0, 3, 1]] * np.array([-1.0, 2.0, 0.5, -3.0])
    np.testing.assert_allclose(congruence(moved, planted), 1.0, rtol=0, atol=1e-12)
    for _ in range(20):
        estimate = planted + rng.standard_normal((30, 4))
        got = congruence(estimate, planted)
        phi = np.abs((planted / np.linalg.norm(planted, axis=0)).T
                     @ (estimate / np.linalg.norm(estimate, axis=0)))
        best = max(sum(phi[r, c] for r, c in enumerate(p))
                   for p in itertools.permutations(range(4)))
        assert got.sum() == pytest.approx(best, rel=1e-12)
        assert (got <= 1.0 + 1e-12).all()
    assert np.isnan(congruence(np.zeros((30, 4)), planted)).all()
