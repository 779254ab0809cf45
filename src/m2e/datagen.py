"""Synthetic multi-view graph collections with planted cluster structure.

Each view draws its own node factor and its own cluster centroids in
subject-factor space; only the cluster memberships are shared across
views. Affinities follow the low-rank model W_n = H diag(f_n) H^T with
additive symmetrized noise, so every generated slice is exactly symmetric
and, in the noiseless limit, the generating factors are an exact optimum
for the solver.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensors import GraphViewTensor, symmetric_index

_SIGNAL_ROWS = 8  # node rows, and columns, of the signal computed at a time


@dataclass(frozen=True)
class SyntheticSpec:
    """Generator settings.

    `cluster_sizes` must sum to `subjects`; `separation` is the exact
    pairwise distance between cluster centroids in subject-factor space,
    `jitter` the per-subject factor spread around its centroid and
    `noise_sigma` the std of the additive affinity noise (applied before
    symmetrization).
    """

    views: int = 2
    nodes: int = 20
    subjects: int = 40
    cluster_sizes: tuple[int, ...] = (20, 20)
    latent_rank: int = 4
    separation: float = 5.0
    noise_sigma: float = 0.05
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.cluster_sizes)
        object.__setattr__(self, "cluster_sizes", sizes)
        if self.views < 1 or self.nodes < 1 or self.subjects < 1 or self.latent_rank < 1:
            raise ValueError("views, nodes, subjects and latent_rank must be positive")
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError("cluster sizes must be positive")
        if sum(sizes) != self.subjects:
            raise ValueError(
                f"cluster sizes {sizes} sum to {sum(sizes)}, expected {self.subjects}"
            )
        if len(sizes) > self.latent_rank:
            raise ValueError("need latent_rank >= number of clusters")
        if not all(0 <= x < np.inf for x in (self.separation, self.noise_sigma, self.jitter)):
            raise ValueError("separation, noise_sigma and jitter must be finite and >= 0")

    @property
    def n_clusters(self) -> int:
        return len(self.cluster_sizes)


def _centroids(rng: np.random.Generator, k: int, rank: int, separation: float) -> np.ndarray:
    # a random orthonormal k-frame scaled so all pairwise distances equal
    # `separation` exactly
    basis, _ = np.linalg.qr(rng.standard_normal((rank, k)))
    return (separation / np.sqrt(2.0)) * basis.T


def generate(spec: SyntheticSpec) -> tuple[list[GraphViewTensor], np.ndarray]:
    """Draw a multi-view dataset plus its ground-truth labels (ints 1..K).

    Deterministic: the same spec always produces bit-identical output.
    """
    labels = np.repeat(np.arange(1, spec.n_clusters + 1),
                       np.asarray(spec.cluster_sizes))
    return [_draw_view(spec, v, labels) for v in range(spec.views)], labels


def _draw_view(spec: SyntheticSpec, v: int, labels: np.ndarray) -> GraphViewTensor:
    """View v of `spec`, written straight into its packed rows.

    Bit for bit x_ij = ((s_ij + a_ij) + (s_ji + a_ij)) / 2 for the signal
    s = einsum("ir,jr,nr->ijn", h, h, f) and the noise average
    a_ij = (z_ij + z_ji) / 2 of one (M, M, N) draw z, as the dense form
    computes it, holding one node row of z and _SIGNAL_ROWS of s at a time.
    """
    rng = np.random.default_rng([spec.seed, v])
    h = rng.standard_normal((spec.nodes, spec.latent_rank))
    centroids = _centroids(rng, spec.n_clusters, spec.latent_rank, spec.separation)
    subject_factors = centroids[labels - 1] + spec.jitter * rng.standard_normal(
        (spec.subjects, spec.latent_rank))
    m = spec.nodes
    sym = symmetric_index(m)[2]
    starts = sym[::m + 1]  # the packed row of pair (i, i); pairs (i, j > i) follow it
    rows = np.empty((m * (m + 1) // 2, spec.subjects))
    if spec.noise_sigma > 0:
        # z_ij lands on pair (i, j) for j >= i and is added to pair (j, i) for j < i
        for i in range(m):
            z = rng.normal(0.0, spec.noise_sigma, (m, spec.subjects))
            rows[starts[i]:starts[i] + m - i] = z[i:]
            rows[sym[i * m:i * m + i]] += z[:i]
        rows[starts] *= 2.0  # z_ii + z_ii
        rows /= 2.0
    # the path einsum picks for the full shapes: on a block it may pick
    # another, and s is not bitwise symmetric, so s_ji is taken as computed
    path = np.einsum_path("ir,jr,nr->ijn", h, h, subject_factors, optimize=True)[0]
    for i0 in range(0, m, _SIGNAL_ROWS):
        block = slice(i0, i0 + _SIGNAL_ROWS)
        s_rows = np.einsum("ir,jr,nr->ijn", h[block], h, subject_factors, optimize=path)
        s_cols = np.einsum("ir,jr,nr->ijn", h, h[block], subject_factors, optimize=path)
        for i in range(i0, min(i0 + _SIGNAL_ROWS, m)):
            out = rows[starts[i]:starts[i] + m - i]
            s_ij, s_ji = s_rows[i - i0, i:], s_cols[i:, i - i0]
            if spec.noise_sigma > 0:
                np.add(s_ij + out, s_ji + out, out=out)
            else:
                np.add(s_ij, s_ji, out=out)
            out /= 2.0
        del s_rows, s_cols, s_ij, s_ji  # freed before the next block's are computed
    return GraphViewTensor.from_packed(rows)


def hiv_shape_preset() -> SyntheticSpec:
    """Spec shaped like a 70-subject, 90-node, two-view cohort (35/35)."""
    return SyntheticSpec(views=2, nodes=90, subjects=70, cluster_sizes=(35, 35),
                         latent_rank=7)


def bp_shape_preset() -> SyntheticSpec:
    """Spec shaped like a 97-subject, 82-node, two-view cohort (52/45)."""
    return SyntheticSpec(views=2, nodes=82, subjects=97, cluster_sizes=(52, 45),
                         latent_rank=12)
