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

from .tensors import GraphViewTensor, average_with_transpose


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
        if self.separation < 0 or self.noise_sigma < 0 or self.jitter < 0:
            raise ValueError("separation, noise_sigma and jitter must be >= 0")

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
    """View v of `spec`; its dense draw is freed once the view is packed."""
    rng = np.random.default_rng([spec.seed, v])
    h = rng.standard_normal((spec.nodes, spec.latent_rank))
    centroids = _centroids(rng, spec.n_clusters, spec.latent_rank, spec.separation)
    subject_factors = centroids[labels - 1] + spec.jitter * rng.standard_normal(
        (spec.subjects, spec.latent_rank))
    x = np.einsum("ir,jr,nr->ijn", h, h, subject_factors, optimize=True)
    if spec.noise_sigma > 0:
        x += average_with_transpose(rng.normal(0.0, spec.noise_sigma,
                                               (spec.nodes, spec.nodes, spec.subjects)))
    # exact symmetry regardless of the einsum contraction path
    return GraphViewTensor(average_with_transpose(x))


def hiv_shape_preset() -> SyntheticSpec:
    """Spec shaped like a 70-subject, 90-node, two-view cohort (35/35)."""
    return SyntheticSpec(views=2, nodes=90, subjects=70, cluster_sizes=(35, 35),
                         latent_rank=7)


def bp_shape_preset() -> SyntheticSpec:
    """Spec shaped like a 97-subject, 82-node, two-view cohort (52/45)."""
    return SyntheticSpec(views=2, nodes=82, subjects=97, cluster_sizes=(52, 45),
                         latent_rank=12)
