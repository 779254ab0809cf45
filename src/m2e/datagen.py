"""Synthetic multi-view graph collections with planted cluster structure.

Each view draws its own node factor and its own cluster centroids in
subject-factor space; only the cluster memberships are shared across
views. Affinities follow the low-rank model W_n = H diag(f_n) H^T plus
symmetric noise, each pair i <= j drawn once: N(0, sigma^2) on the diagonal
and N(0, sigma^2 / 2) off it, the law of the pair average (z_ij + z_ji) / 2 of
i.i.d. N(0, sigma^2) noise. So every slice is exactly symmetric and, in the
noiseless limit, the generating factors are an exact optimum for the solver.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solver import check_settings
from .tensors import GraphViewTensor

_NOISE_ROWS = 256  # packed rows of noise drawn at a time; the view does not depend on it


@dataclass(frozen=True)
class SyntheticSpec:
    """Generator settings.

    `cluster_sizes` must sum to `subjects`; `separation` is the exact
    pairwise distance between cluster centroids in subject-factor space,
    `jitter` the per-subject factor spread around its centroid and
    `noise_sigma` the std of the additive affinity noise before its pair
    average: a diagonal entry has std sigma, an off-diagonal one sigma / sqrt(2).
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
        check_settings(self, counts=("views", "nodes", "subjects", "latent_rank", "cluster_sizes"),
                       seeds=("seed",), amounts=("separation", "noise_sigma", "jitter"))
        sizes = self.cluster_sizes
        if sum(sizes) != self.subjects:
            raise ValueError(f"cluster sizes {sizes} sum to {sum(sizes)}, expected {self.subjects}")
        if len(sizes) > self.latent_rank:
            raise ValueError("need latent_rank >= number of clusters")

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
    """View v of `spec`, drawn straight into its packed rows.

    Row e is the pair (i, j), i <= j, of `np.triu_indices`, the order of
    `symmetric_index`: sum_r h_ir h_jr f_nr for each subject n, one GEMM, plus noise.
    """
    rng = np.random.default_rng([spec.seed, v])
    h = rng.standard_normal((spec.nodes, spec.latent_rank))
    centroids = _centroids(rng, spec.n_clusters, spec.latent_rank, spec.separation)
    subject_factors = centroids[labels - 1] + spec.jitter * rng.standard_normal(
        (spec.subjects, spec.latent_rank))
    i, j = np.triu_indices(spec.nodes)
    rows = (h[i] * h[j]) @ subject_factors.T
    if spec.noise_sigma > 0:
        std = np.where(i == j, spec.noise_sigma, spec.noise_sigma / np.sqrt(2.0))[:, None]
        for start in range(0, len(rows), _NOISE_ROWS):
            sd = std[start:start + _NOISE_ROWS]
            rows[start:start + len(sd)] += sd * rng.standard_normal((len(sd), spec.subjects))
    return GraphViewTensor.from_packed(rows)


def hiv_shape_preset() -> SyntheticSpec:
    """Spec shaped like a 70-subject, 90-node, two-view cohort (35/35)."""
    return SyntheticSpec(views=2, nodes=90, subjects=70, cluster_sizes=(35, 35),
                         latent_rank=7)


def bp_shape_preset() -> SyntheticSpec:
    """Spec shaped like a 97-subject, 82-node, two-view cohort (52/45)."""
    return SyntheticSpec(views=2, nodes=82, subjects=97, cluster_sizes=(52, 45),
                         latent_rank=12)
