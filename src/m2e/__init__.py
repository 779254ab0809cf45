"""Consensus embedding of multi-view graph collections.

Stacks each view's symmetric affinity matrices into a partially symmetric
tensor, factors all views jointly with a consensus-regularized rank-R
model, and clusters the shared subject embedding. The root exports what a
user calls: the fitters and their results, CP-ALS, clustering and
metrics, the synthetic generator, dataset I/O and the experiment drivers.
Kernels and block-level helpers stay importable from their modules:
Khatri-Rao, the MTTKRP passes and the view check :func:`as_views` from
:mod:`m2e.tensors`; the iterate, the objective, block systems and the
spectral start from :mod:`m2e.solver`; Lloyd iterations from :mod:`m2e.cluster`.
"""

from .cluster import (BinaryMetrics, ClusteringReport, KmeansResult, LabelMatch,
                      binary_metrics, cluster_and_score, kmeans, match_labels)
from .cp import AlsOptions, CpFactors, CpFit, cp_als_fit, cp_relative_error
from .datagen import SyntheticSpec, bp_shape_preset, generate, hiv_shape_preset
from .dataio import (Dataset, DatasetError, load_dataset, load_labels, load_matrix,
                     save_dataset, save_labels, save_matrix)
from .runner import (GridSpec, RunConfig, run_cluster, run_cp, run_evaluate,
                     run_fit, run_gridsearch)
from .solver import M2eConfig, M2eSolution, SolverNumericsError, m2e_ds_fit, m2e_fit, m2e_ts_fit
from .tensors import GraphViewTensor

__version__ = "0.1.0"

__all__ = [
    "AlsOptions", "BinaryMetrics", "ClusteringReport", "CpFactors", "CpFit",
    "Dataset", "DatasetError", "GraphViewTensor", "GridSpec", "KmeansResult",
    "LabelMatch", "M2eConfig", "M2eSolution", "RunConfig", "SolverNumericsError",
    "SyntheticSpec", "binary_metrics", "bp_shape_preset",
    "cluster_and_score", "cp_als_fit", "cp_relative_error", "generate",
    "hiv_shape_preset", "kmeans", "load_dataset", "load_labels", "load_matrix",
    "m2e_ds_fit", "m2e_fit", "m2e_ts_fit", "match_labels", "run_cluster", "run_cp",
    "run_evaluate", "run_fit", "run_gridsearch", "save_dataset", "save_labels",
    "save_matrix",
]
