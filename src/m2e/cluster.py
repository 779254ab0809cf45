"""Restart k-means over embedding rows, label matching and binary metrics.

Cluster ids are 1-based everywhere in this module, matching the on-disk
label convention.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LLOYD_MAX_ITERS = 100  # per k-means restart
LABEL_MAX = 2**63 - 1  # the largest int64


@dataclass(frozen=True)
class KmeansResult:
    labels: np.ndarray          # (N,) ints in 1..K, from the best restart
    inertias: np.ndarray        # per-restart within-cluster sum of squares
    best_restart: int


@dataclass(frozen=True)
class LabelMatch:
    mapping: np.ndarray         # mapping[i] = truth id assigned to predicted id i+1
    matched_labels: np.ndarray
    accuracy: float


@dataclass(frozen=True)
class BinaryMetrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    degenerate: bool            # a precision/recall denominator was zero


@dataclass(frozen=True)
class ClusteringReport(KmeansResult, BinaryMetrics):
    """One clustering run: its k-means result, its metrics and the matched labels."""

    matched_labels: np.ndarray


def as_labels(labels) -> np.ndarray:
    """`labels` as a 1-D int64 array of class ids, each an integer in 1..LABEL_MAX.

    A whole float such as 2.0 counts as an integer; a bool does not. Any
    other value raises ValueError naming the first bad value, exactly as
    given, where a cast would truncate or wrap it. A sequence that is not an
    array is checked on its own values, before any cast: np.asarray would
    round an int of 2**53 or more to float64 when a float sits beside it.
    Every function that takes labels checks them here.
    """
    values = labels if isinstance(labels, np.ndarray) else np.array(labels, dtype=object)
    if values.ndim != 1:
        raise ValueError(f"labels must be a 1-D sequence, got shape {values.shape}")
    if values.dtype.kind != "i" or not (values >= 1).all():
        for x in values.tolist():  # Python numbers compare exactly at any size
            x = x.item() if isinstance(x, np.generic) else x
            if isinstance(x, bool) or not (isinstance(x, int) or
                                           isinstance(x, float) and x.is_integer()):
                raise ValueError(f"labels must be integers, got {x!r}")
            if not 1 <= x <= LABEL_MAX:
                raise ValueError(f"labels must be positive integers (1..K), got {x!r}")
    return values.astype(np.int64)


def lloyd(points: np.ndarray, centroids: np.ndarray):
    """At most LLOYD_MAX_ITERS Lloyd iterations from given centroids.

    Returns (labels 0-based, centroids, inertia_trace) where the trace holds
    the inertia after every assignment step and is non-increasing. Ties go
    to the lowest centroid index; a cluster left empty is re-seeded from the
    point currently farthest from its centroid.
    """
    pts = np.asarray(points, dtype=float)
    cent = np.array(centroids, dtype=float)
    n, k = pts.shape[0], cent.shape[0]
    labels = np.full(n, -1)
    trace = []
    for _ in range(LLOYD_MAX_ITERS):
        d2 = ((pts[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        occupied = np.bincount(new_labels, minlength=k) > 0
        if not occupied.all():
            far_order = np.argsort(-d2[np.arange(n), new_labels], kind="stable")
            for slot, kk in enumerate(np.flatnonzero(~occupied)):
                cent[kk] = pts[far_order[slot]]
            d2 = ((pts[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
            new_labels = d2.argmin(axis=1)
        trace.append(float(d2[np.arange(n), new_labels].sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for kk in range(k):
            members = pts[labels == kk]
            if len(members):
                cent[kk] = members.mean(axis=0)
    return labels, cent, np.asarray(trace)


def kmeans(points: np.ndarray, k: int, restarts: int = 20, seed: int = 0) -> KmeansResult:
    """k-means with several restarts, keeping the lowest-inertia run.

    Each restart draws K distinct data points as initial centroids from its
    own generator stream, so results do not depend on restart scheduling.
    Ties between restarts go to the lower restart index.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"expected an (N, R) matrix, got shape {pts.shape}")
    n = pts.shape[0]
    if k <= 0:
        raise ValueError("k must be positive")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of points ({n})")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
        raise ValueError(f"embedding has {bad.size} non-finite rows (first: row {bad[0]})")
    inertias = np.empty(restarts)
    best_labels = None
    best = np.inf
    best_restart = -1
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        init = pts[rng.choice(n, size=k, replace=False)]
        labels, _, trace = lloyd(pts, init)
        inertias[r] = trace[-1]
        if inertias[r] < best:
            best = inertias[r]
            best_labels = labels
            best_restart = r
    return KmeansResult(best_labels + 1, inertias, best_restart)


def _min_cost_assignment(cost: list[list[int]]) -> list[int]:
    """Column of each row in a minimum-cost assignment of a square cost table.

    The Hungarian method (Kuhn 1955) in the shortest-augmenting-path form of
    Jonker & Volgenant (1987): O(n^3), exact on Python integers.
    """
    n, inf = len(cost), float("inf")
    u, v = [0] * (n + 1), [0] * (n + 1)   # dual potentials; column 0 is the search root
    owner, way = [0] * (n + 1), [0] * (n + 1)  # 1-based row on each column; path links
    for row in range(1, n + 1):
        owner[0], col = row, 0
        slack, used = [inf] * (n + 1), [False] * (n + 1)
        while owner[col]:  # grow shortest paths over reduced costs until a free column
            used[col] = True
            i, delta, nxt = owner[col], inf, 0
            for j in range(1, n + 1):
                if not used[j]:
                    reduced = cost[i - 1][j - 1] - u[i] - v[j]
                    if reduced < slack[j]:
                        slack[j], way[j] = reduced, col
                    if slack[j] < delta:
                        delta, nxt = slack[j], j
            for j in range(n + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            col = nxt
        while col:  # flip the augmenting path
            owner[col], col = owner[way[col]], way[col]
    return [j for _, j in sorted(zip(owner[1:], range(n)))]


def match_labels(pred: np.ndarray, truth: np.ndarray, k: int) -> LabelMatch:
    """Permute predicted cluster ids to best agree with the ground truth.

    One exact assignment solve on the contingency table, for every k. Ties
    go to the lexicographically first optimal mapping (the smallest
    mapping[0], then mapping[1], ...), which puts the identity ahead of any
    relabeling: the solve minimises -hits * k**k + sum_i (mapping[i] - 1) *
    k**(k-1-i), whose tie term, below k**k, never outweighs one hit.
    """
    pred = as_labels(pred)
    truth = as_labels(truth)
    if pred.shape != truth.shape:
        raise ValueError("pred and truth must have equal length")
    for name, arr in (("pred", pred), ("truth", truth)):
        if arr.max(initial=1) > k:
            raise ValueError(f"{name} labels must lie in 1..{k}")
    contingency = np.bincount((pred - 1) * k + (truth - 1), minlength=k * k).reshape(k, k)
    cost = [[-hits * k ** k + j * k ** (k - 1 - i) for j, hits in enumerate(row)]
            for i, row in enumerate(contingency.tolist())]
    mapping = np.asarray(_min_cost_assignment(cost)) + 1
    matched = mapping[pred - 1]
    accuracy = float((matched == truth).mean()) if pred.size else 0.0
    return LabelMatch(mapping, matched, accuracy)


def binary_metrics(matched_labels: np.ndarray, truth: np.ndarray,
                   positive_class: int = 1) -> BinaryMetrics:
    """Confusion-matrix metrics for a two-cluster problem.

    Precision and recall fall back to 0 when their denominator is zero and
    the result is flagged degenerate; f1 is the harmonic mean when both are
    positive and 0 otherwise.
    """
    matched = as_labels(matched_labels)
    truth = as_labels(truth)
    if matched.shape != truth.shape:
        raise ValueError("matched labels and truth must have equal length")
    pred_pos = matched == positive_class
    true_pos = truth == positive_class
    tp = int(np.sum(pred_pos & true_pos))
    fp = int(np.sum(pred_pos & ~true_pos))
    fn = int(np.sum(~pred_pos & true_pos))
    degenerate = (tp + fp == 0) or (tp + fn == 0)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    accuracy = float((matched == truth).mean())
    return BinaryMetrics(accuracy, precision, recall, f1, degenerate)


def cluster_and_score(embedding: np.ndarray, truth: np.ndarray, k: int = 2,
                      restarts: int = 20, seed: int = 0,
                      positive_class: int = 1) -> ClusteringReport:
    """kmeans + label matching + metrics in one call.

    Matching runs over the union of predicted and true id ranges, so truth
    with more classes than k still scores (the surplus classes simply
    cannot be hit).
    """
    truth = as_labels(truth)
    result = kmeans(embedding, k, restarts=restarts, seed=seed)
    match = match_labels(result.labels, truth, max(k, int(truth.max(initial=1))))
    metrics = binary_metrics(match.matched_labels, truth, positive_class)
    return ClusteringReport(**vars(result), **vars(metrics), matched_labels=match.matched_labels)
