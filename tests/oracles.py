"""Reference forms that the tests check the package against.

The package holds every graph view packed and has no dense unfolding or
dense MTTKRP. These are the textbook definitions, on dense (I, J, K)
tensors whose slices need not be symmetric; `objective_value` evaluates the
fitters' objective from them, and `congruence` says how well a fit recovers
a planted factor. The label matcher solves one assignment problem; the
exhaustive searches below are its references. The generator draws packed
rows; `dense_generate` builds the same views densely.
"""
import itertools

import numpy as np

from m2e.cluster import _min_cost_assignment
from m2e.datagen import _centroids
from m2e.solver import _objective


def matricize(tensor, mode):
    """Unfold a third-order tensor along `mode` (1, 2 or 3).

    Returns an I_mode x (product of the other dims) matrix. Entry
    (i1, i2, i3) lands in row i_mode; the column index runs over the
    remaining two indices with the smaller one varying fastest.
    """
    t = np.asarray(tensor, dtype=float)
    if t.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={t.ndim}")
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    return np.reshape(np.moveaxis(t, mode - 1, 0), (t.shape[mode - 1], -1), order="F")


def refold(matrix, mode, dims):
    """Inverse of :func:`matricize`: rebuild the tensor of shape `dims`."""
    dims = tuple(int(d) for d in dims)
    rest = [d for ax, d in enumerate(dims) if ax != mode - 1]
    t = np.reshape(np.asarray(matrix, dtype=float), (dims[mode - 1], *rest), order="F")
    return np.moveaxis(t, 0, mode - 1)


def partial_mttkrp(x, c):
    """Pass 1's product Y[r, i, j] = sum_k X[i, j, k] C[k, r], shape (R, I, J)."""
    return np.einsum("ijk,kr->rij", x, c)


def mode3_mttkrp(x, a, b):
    """The mode-3 MTTKRP sum_ij X[i, j, k] A[i, r] B[j, r], shape (K, R)."""
    return np.einsum("ijk,ir,jr->kr", x, a, b)


def objective_value(views, state, lambdas):
    """The fitters' objective of `state` on dense views, by `m2e.solver._objective`.

    sum_v ||X_v - [[h_v, p_v, f_v]]||^2 + lambdas[v] ||f_v - consensus||^2, with
    each ||X_v||^2 and mode-3 MTTKRP taken from the dense view (a
    `GraphViewTensor`'s `.data`).
    """
    dense = [np.asarray(getattr(x, "data", x), dtype=float) for x in views]
    return _objective([float(np.vdot(x, x)) for x in dense],
                      [mode3_mttkrp(x, h, p) for x, h, p in zip(dense, state.node, state.node_aux)],
                      state.node, state.node_aux, state.subject, state.consensus, lambdas)


def congruence(estimate, planted):
    """Tucker's congruence |cos| of each planted column with its estimate column.

    Columns are paired one to one by the assignment that maximises the summed
    congruence, solved by `m2e.cluster._min_cost_assignment` on integer costs
    (-congruence * 2**40). Read 0.95 as equal (Lorenzo-Seva and ten Berge,
    Methodology 2006). A zero column gives NaN, which reads as not recovered.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        phi = np.abs((planted / np.linalg.norm(planted, axis=0)).T
                     @ (estimate / np.linalg.norm(estimate, axis=0)))
    cols = _min_cost_assignment([[int(round(-x * 2**40)) if np.isfinite(x) else 0 for x in row]
                                 for row in phi])
    return phi[np.arange(len(cols)), cols]


def exhaustive_label_mapping(contingency):
    """Walk all k! permutations in lexicographic order and keep the first
    with the most hits: mapping[i] = truth id assigned to predicted id i+1."""
    k = len(contingency)
    best_perm, best_hits = None, -1
    for perm in itertools.permutations(range(k)):
        hits = sum(contingency[i, perm[i]] for i in range(k))
        if hits > best_hits:
            best_perm, best_hits = perm, hits
    return np.asarray(best_perm) + 1


def best_assignment_hits(contingency):
    """The most hits any one-to-one mapping of rows to columns scores, found
    by exhaustive search over the sets of columns the first rows take."""
    k = len(contingency)
    best = {0: 0}  # columns taken by rows 0..i-1 (bit mask) -> most hits
    for i in range(k):
        grown = {}
        for mask, hits in best.items():
            for j in range(k):
                if not mask >> j & 1:
                    key = mask | 1 << j
                    grown[key] = max(grown.get(key, -1), hits + int(contingency[i, j]))
        best = grown
    return best[(1 << k) - 1]


def dense_generate(spec):
    """`m2e.datagen.generate`'s (views, labels) from the same draws, as dense (M, M, N) arrays.

    Slice n is H diag(f_n) H^T, by einsum, plus noise whose pair i <= j takes
    the next N(0, 1) draw in the order of `np.triu_indices`, times sigma on
    the diagonal and sigma / sqrt(2) off it, in both (i, j) and (j, i).
    """
    labels = np.repeat(np.arange(1, spec.n_clusters + 1), np.asarray(spec.cluster_sizes))
    views = []
    for v in range(spec.views):
        rng = np.random.default_rng([spec.seed, v])
        h = rng.standard_normal((spec.nodes, spec.latent_rank))
        centroids = _centroids(rng, spec.n_clusters, spec.latent_rank, spec.separation)
        subject_factors = centroids[labels - 1] + spec.jitter * rng.standard_normal(
            (spec.subjects, spec.latent_rank))
        x = np.einsum("ir,jr,nr->ijn", h, h, subject_factors)
        if spec.noise_sigma > 0:
            i, j = np.triu_indices(spec.nodes)
            z = rng.standard_normal((i.size, spec.subjects))
            noise = np.empty_like(x)
            noise[i, j] = noise[j, i] = np.where(i == j, 1.0, np.sqrt(0.5))[:, None] * (
                spec.noise_sigma * z)
            x += noise
        views.append(x)
    return views, labels
