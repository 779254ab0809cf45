"""Consensus embedding of multi-view graph collections.

Stacks each view's symmetric affinity matrices into a partially symmetric
tensor, factors all views jointly with a consensus-regularized rank-R
model, and clusters the shared subject embedding. Block-level solver
helpers (block systems, the spectral start) are importable from
:mod:`m2e.solver`; the ridge least-squares solve that every block update and
CP-ALS share is :func:`m2e.tensors.ridge_solve`.
"""

from .cluster import (BinaryMetrics, ClusteringReport, KmeansResult, LabelMatch,
                      binary_metrics, cluster_and_score, kmeans, lloyd, match_labels)
from .cp import AlsOptions, CpFactors, CpFit, cp_als_fit, cp_relative_error
from .datagen import SyntheticSpec, bp_shape_preset, generate, hiv_shape_preset
from .dataio import (Dataset, DatasetError, load_dataset, load_labels, load_matrix,
                     save_dataset, save_labels, save_matrix)
from .runner import (GridSpec, RunConfig, run_cluster, run_cp, run_evaluate,
                     run_fit, run_gridsearch)
from .solver import (M2eConfig, M2eSolution, M2eState, SolverNumericsError,
                     m2e_ds_fit, m2e_fit, m2e_ts_fit, objective_value)
from .tensors import (GraphViewTensor, check_partial_symmetry, cp_reconstruct,
                      frobenius_norm, khatri_rao, matricize, refold, symmetrize_slices)

__version__ = "0.1.0"

__all__ = [
    "AlsOptions", "BinaryMetrics", "ClusteringReport", "CpFactors", "CpFit",
    "Dataset", "DatasetError", "GraphViewTensor", "GridSpec", "KmeansResult",
    "LabelMatch", "M2eConfig", "M2eSolution", "M2eState", "RunConfig",
    "SolverNumericsError", "SyntheticSpec", "binary_metrics", "bp_shape_preset",
    "check_partial_symmetry", "cluster_and_score", "cp_als_fit", "cp_reconstruct",
    "cp_relative_error", "frobenius_norm", "generate", "hiv_shape_preset",
    "khatri_rao", "kmeans", "lloyd", "load_dataset", "load_labels", "load_matrix",
    "m2e_ds_fit", "m2e_fit", "m2e_ts_fit", "match_labels", "matricize",
    "objective_value", "refold", "run_cluster", "run_cp", "run_evaluate", "run_fit",
    "run_gridsearch", "save_dataset", "save_labels", "save_matrix", "symmetrize_slices",
]
