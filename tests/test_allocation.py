"""Peak traced allocation of the calls that read, write, check, draw or fit a view.

Each bound is in units of the dense view bytes a call takes or returns. The
shape, 64 nodes x 48 subjects, makes a view 1.5 MB, so numpy's fixed buffers
and the few lines of text the loader parses at a time are small beside it. A
GraphViewTensor holds its view packed, in PACKED of those bytes.
"""
import tracemalloc

import numpy as np
import pytest

from m2e.cp import AlsOptions, cp_als_fit, cp_relative_error
from m2e.datagen import SyntheticSpec, generate
from m2e.dataio import load_dataset, load_dataset_view, save_dataset
from m2e.runner import run_cp
from m2e.solver import M2eConfig, m2e_fit
from m2e.tensors import GraphViewTensor, khatri_rao

SPEC = SyntheticSpec(views=2, nodes=64, subjects=48, cluster_sizes=(24, 24), seed=4)
PACKED = (SPEC.nodes + 1) / (2 * SPEC.nodes)  # M(M+1)/2 of M^2 entries


def traced_peak(call):
    """Bytes allocated at the peak of call(), above what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def views():
    return generate(SPEC)[0]


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory, views):
    path = tmp_path_factory.mktemp("alloc") / "ds"
    save_dataset(path, views)
    return path


@pytest.fixture(scope="module")
def factors(views):
    return cp_als_fit(views[0], AlsOptions(rank=3, max_iters=2)).factors


# call(dataset_dir, views, x, factors) and its bound, in views of x's size,
# where x is views[0] unpacked. One whole-view temporary, such as a transposed
# or stacked copy, breaks each bound.
BOUNDS = {
    "load_dataset": (lambda d, v, x, f: load_dataset(d), 1.2 * 2),
    # the packed rows it returns, plus a few lines of text
    "load_dataset_view": (lambda d, v, x, f: load_dataset_view(d, 1), 0.6),
    "save_dataset": (lambda d, v, x, f: save_dataset(d.parent / "out", v[:1]), 0.5),
    "GraphViewTensor": (lambda d, v, x, f: GraphViewTensor(x), PACKED + 0.25),
    # a few node rows of the residual at a time; no dense view or model
    "cp_relative_error": (lambda d, v, x, f: cp_relative_error(v[0], f), 0.2),
    "cp_als_fit": (lambda d, v, x, f: cp_als_fit(v[0], AlsOptions(rank=3, max_iters=5)), 0.3),
    # the packed view it loads, plus a few lines of text, then the fit and its error
    "run_cp": (lambda d, v, x, f: run_cp(d, 1, AlsOptions(rank=3, max_iters=5),
                                         d.parent / "cp"), 0.8),
    # the two packed views it returns, plus the pair products and a block of noise rows
    "generate": (lambda d, v, x, f: generate(SPEC), 2 * PACKED + 0.45),
    # the passes, and the spectral start's Gram over a few slices at a time
    "m2e_fit": (lambda d, v, x, f: m2e_fit(v, M2eConfig(rank=SPEC.latent_rank, seed=4,
                                                       max_outer_iters=3)), 0.6),
}


@pytest.mark.parametrize("name", BOUNDS)
def test_peak_allocation_is_bounded_in_views(name, dataset_dir, views, factors):
    call, bound = BOUNDS[name]
    x = views[0].data
    assert traced_peak(lambda: call(dataset_dir, views, x, factors)) <= bound * x.nbytes


@pytest.mark.parametrize("order", ["C", "F"])
def test_khatri_rao_peaks_at_its_result_and_matches_the_broadcast_product(order):
    rng = np.random.default_rng(11)
    a, b = (np.asarray(rng.standard_normal((rows, 7)), order=order) for rows in (90, 82))
    expected = (a[:, None, :] * b[None, :, :]).reshape(90 * 82, 7)
    assert khatri_rao(a, b).tobytes() == expected.tobytes()
    # a broadcast multiply's ufunc buffers add 30 % here, and a reshape that copies 100 %
    assert traced_peak(lambda: khatri_rao(a, b)) <= 1.05 * expected.nbytes
