"""Third-order tensor kernels on packed symmetric slices, and small-matrix helpers.

A graph view is an (M, M, N) tensor X with symmetric frontal slices.
:class:`GraphViewTensor` stores only each slice's plain upper triangle, an
(M(M+1)/2, N) matrix X_p with one row per pair i <= j in the order of
:func:`symmetric_index` (the packed storage of Schatz, Low, van de Geijn and
Kolda, SIAM J. Sci. Comput. 2014); a dataset's view file holds X_p as text,
one row per line. This module alone decides what a valid view is: its
entries are finite, and each frontal slice of a dense array is asymmetric by
at most DRIFT_TOL, float drift that is averaged away, since every slice is
stored as its pair averages. :class:`GraphViewTensor` is the one check of
a dense view, and :func:`as_views` checks and packs the views that the
fitters, CP-ALS and the dataset writer take.

MTTKRP kernel. For a rank-R CP model [[A, B, C]], with entries
sum_r A[i, r] B[j, r] C[k, r], the mode-n MTTKRP contracts X with the
factors of the other two modes, e.g. G3[k, r] = sum_ij X[i, j, k] A[i, r] B[j, r].
CP-ALS and every M2E fit spend nearly all their time in it. It reads only
X_p, in two passes that reuse work across modes (the dimension-tree MTTKRP
of Phan, Tichavsky and Cichocki, IEEE TSP 2013):

* pass 1, :func:`packed_partial_mttkrp`: Y[r, i, j] = sum_k X[i, j, k] C[k, r],
  computed as C^T X_p^T and unpacked to (R, M, M) by one gather that reads
  Y[r, i, j] and Y[r, j, i] from one packed entry. So each Y[r] is symmetric
  bit for bit, and the mode-1 and mode-2 MTTKRPs are one O(M^2 R) contraction
  of Y (:func:`mttkrp_from_partial`); C stays fixed between the two, as in an
  ALS sweep and the M2E node and aux steps.
* pass 2, :func:`packed_mode3_mttkrp`: G3 = (W^T X_p)^T with the packed
  weights W = a_i b_j + a_j b_i for i < j and a_i b_i for i = j. The model
  cross term <X, [[A, B, C]]> is then <G3, C>, and :func:`cp_squared_error`
  turns it into the model error with no further pass.

:func:`packed_energy` gives ||X||^2 and :func:`packed_slice_gram` the slice
Gram sum sum_k X_k X_k^T, both from X_p.

Cost model: per sweep, two GEMMs over X_p, each O(M^2 N R / 2) flops and
one read of half the dense tensor, plus O(M^2 R) of gathers. Both put the
R-row operand on the left (C^T X_p^T, W^T X_p), the order BLAS ran 1.5-2x
faster at the `hiv` preset shape, and neither copies X_p. Only
:attr:`GraphViewTensor.data` builds the dense tensor.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Asymmetry of a view's frontal slice up to this is float drift, averaged away;
# anything larger is rejected as wrong data, whichever path the view comes by.
DRIFT_TOL = 1e-6
# ridge_solve's ridge, as a share of the R x R Gram's mean diagonal
RIDGE = 1e-12
_SMALLEST_NORMAL = float(np.finfo(float).tiny)

def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Columnwise Kronecker product; b's row index varies fastest."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("khatri_rao expects two matrices")
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"column counts must match, got {a.shape[1]} and {b.shape[1]}"
        )
    # einsum allocates only its result, where a broadcast multiply adds ufunc buffers
    # (2x the result at 64 x 64 x 4); order="C" keeps the reshape a view
    return np.einsum("ir,jr->ijr", a, b, order="C").reshape(a.shape[0] * b.shape[0], a.shape[1])


def mttkrp_from_partial(y: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Mode-1 or mode-2 MTTKRP from the pass-1 product `y` of packed_partial_mttkrp.

    Contracts each symmetric y[r] with column r of the other node mode's
    factor, giving (M, R): the mode-1 MTTKRP given the mode-2 factor, or the
    mode-2 MTTKRP given the mode-1 factor. X is not read.
    """
    return (factor.T[:, None, :] @ y)[:, 0, :].T


@functools.lru_cache(maxsize=16)
def symmetric_index(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(upper, lower, sym): where the packed upper triangle of an m x m matrix sits.

    Packed entry e is the pair i <= j, in row-major order, and holds s[i, j]
    as it is, the diagonal included. `upper[e]` and `lower[e]` are its flat
    positions i*m + j and j*m + i, equal on the diagonal, and `sym` gives the
    packed entry of every flat position, so that packed.take(sym) is the
    full matrix, flattened. Built once per m; the arrays are read-only.
    """
    rows, cols = np.triu_indices(m)
    upper, lower = rows * m + cols, cols * m + rows
    sym = np.empty(m * m, dtype=np.intp)
    sym[upper] = sym[lower] = np.arange(rows.size)
    for a in (upper, lower, sym):
        a.flags.writeable = False
    return upper, lower, sym


def _packed_node_count(rows: int) -> int:
    """M of a packed matrix with `rows` = M(M+1)/2 rows; 0 if `rows` is not of that form."""
    m = (math.isqrt(8 * rows + 1) - 1) // 2
    return m if m * (m + 1) // 2 == rows else 0


def pack_slice(s: np.ndarray, out: np.ndarray) -> tuple[float, bool]:
    """(max |s[i, j] - s[j, i]|, every entry finite) of an (M, M) slice; NaN if an entry is.

    Gathers the pairs i <= j in the order of :func:`symmetric_index` and
    writes their averages (s[i, j] + s[j, i]) / 2 to the M(M+1)/2 vector
    `out`, so an exactly symmetric slice packs as its upper triangle, bit for
    bit. Where a sum of two finite entries overflows, the average is taken as
    s[i, j] / 2 + s[j, i] / 2, so it stays finite.
    """
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected shape (M, M), got {s.shape}")
    upper, lower, _ = symmetric_index(s.shape[0])
    flat = s.ravel()  # a copy only if the slice is strided
    pairs, mirrored = flat.take(upper), flat.take(lower)
    try:
        with np.errstate(over="raise"):  # raised after `out` is written in full
            np.add(pairs, mirrored, out=out)
        out /= 2.0
    except FloatingPointError:  # two finite entries whose sum is beyond the float range
        spill = np.isinf(out)
        out /= 2.0
        out[spill] = pairs[spill] / 2.0 + mirrored[spill] / 2.0
    with np.errstate(invalid="ignore", over="ignore"):  # reported as a non-finite result
        pairs -= mirrored
    asymmetry = float(np.abs(pairs, out=pairs).max(initial=0.0))
    # a non-finite entry makes its pair's difference non-finite; finite ones may overflow
    return asymmetry, math.isfinite(asymmetry) or bool(np.isfinite(flat).all())


def packed_partial_mttkrp(xp: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Pass 1: Y[r, i, j] = sum_k X[i, j, k] C[k, r], shape (R, M, M), from packed rows."""
    m = _packed_node_count(xp.shape[0])
    return (c.T @ xp.T).take(symmetric_index(m)[2], axis=1).reshape(c.shape[1], m, m)


def packed_mode3_mttkrp(xp: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pass 2: the mode-3 MTTKRP sum_ij X[i, j, k] A[i, r] B[j, r], shape (N, R), from packed rows."""
    m = _packed_node_count(xp.shape[0])
    upper, lower, _ = symmetric_index(m)
    at, bt = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
    # a_i b_j at i*M + j; einsum allocates only its result, a broadcast multiply twice it
    outer = np.einsum("ri,rj->rij", at, bt).reshape(a.shape[1], -1)
    outer[:, ::m + 1] *= 0.5  # a diagonal pair is one entry, and gathered twice below
    w = outer.take(upper, axis=1)
    w += outer.take(lower, axis=1)
    return (w @ xp).T


def packed_energy(xp: np.ndarray) -> float:
    """||X||^2 of the unpacked tensor: every off-diagonal pair counts twice."""
    m = _packed_node_count(xp.shape[0])
    diagonal = xp.take(symmetric_index(m)[2][::m + 1], axis=0)
    return 2.0 * float(np.vdot(xp, xp)) - float(np.vdot(diagonal, diagonal))


def packed_slice_gram(xp: np.ndarray) -> np.ndarray:
    """sum_k X_k X_k^T over the unpacked slices X_k, shape (M, M).

    _TILE slices are unpacked at a time, as an (M, M * _TILE) unfolding, so
    the dense temporaries stay a small share of the view.
    """
    m = _packed_node_count(xp.shape[0])
    sym = symmetric_index(m)[2]
    gram = np.zeros((m, m))
    for k in range(0, xp.shape[1], _TILE):
        unfolded = xp[:, k:k + _TILE].take(sym, axis=0).reshape(m, -1)
        gram += unfolded @ unfolded.T
    return gram


def cp_squared_error(energy: float, g: np.ndarray, a: np.ndarray, b: np.ndarray,
                     c: np.ndarray) -> float:
    """||X - [[a, b, c]]||^2 from ||X||^2 and G3 = packed_mode3_mttkrp(X_p, a, b).

    Uses the Gram identity ||X||^2 - 2<G3, c> + sum((a^T a) * (b^T b) * (c^T c))
    (Kolda and Bader, SIAM Review 2009): no pass over X, no dense model. Near
    an exact fit the terms cancel to rounding noise, so it is clamped at 0.
    """
    gram = (a.T @ a) * (b.T @ b) * (c.T @ c)
    return max(energy - 2.0 * float(np.vdot(g, c)) + float(gram.sum()), 0.0)


@functools.lru_cache(maxsize=64)
def scaled_identity(n: int, scale: float) -> np.ndarray:
    """Read-only scale * I_n, built once per (n, scale).

    The fits add the same few diagonals (a view's coupling penalty, its
    consensus weight) to R x R Grams every iteration, and at small R building
    np.eye costs more than the addition.
    """
    out = scale * np.eye(n)
    out.flags.writeable = False
    return out


def ridge_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """rhs (gram + ridge I)^-1: M solving the ridged normal equations M (gram + ridge I) = rhs.

    The least-squares update of one factor with the others fixed (Kolda and
    Bader, SIAM Review 2009, section 3.4), shared by CP-ALS and every M2E block.
    The ridge is RIDGE times gram's mean diagonal trace / R, floored at the
    smallest normal float: on the Gram's own scale, so that a rank-deficient
    Gram is solvable at any data units and the fit does not depend on them,
    and positive, so that an all-zero Gram is solvable too.
    """
    r = gram.shape[0]
    gram = gram.copy()
    diagonal = gram.reshape(-1)[::r + 1]  # a view: the copy is C-contiguous
    diagonal += max(RIDGE * float(diagonal.sum()) / r, _SMALLEST_NORMAL)
    # gram is symmetric: solve gram @ M.T = rhs.T
    return np.linalg.solve(gram, rhs.T).T


def cp_reconstruct(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Sum of R rank-one outer products from three factor matrices."""
    mats = [np.asarray(f, dtype=float) for f in factors]
    if len(mats) != 3:
        raise ValueError(f"expected 3 factor matrices, got {len(mats)}")
    ranks = {m.shape[1] for m in mats}
    if len(ranks) != 1:
        raise ValueError(f"factor matrices disagree on rank: {sorted(ranks)}")
    a, b, c = mats
    return (khatri_rao(a, b) @ c.T).reshape(a.shape[0], b.shape[0], c.shape[0])


def frobenius_norm(tensor: np.ndarray) -> float:
    """Square root of the sum of squared entries, by np.linalg.norm's arithmetic.

    np.linalg.norm's argument checks cost more than the sum on a small factor matrix.
    """
    flat = np.asarray(tensor, dtype=float).ravel(order="K")
    return math.sqrt(float(flat.dot(flat)))


# packed_slice_gram unpacks _TILE slices, and all_finite scans _TILE leading-axis
# rows, at a time, so their temporaries stay a small share of the view.
_TILE = 8


def all_finite(tensor: np.ndarray) -> bool:
    """True when every entry is finite; scans a few leading-axis rows at a time."""
    return all(np.isfinite(tensor[i:i + _TILE]).all() for i in range(0, len(tensor), _TILE))


@dataclass(frozen=True, init=False, eq=False)
class GraphViewTensor:
    """One view: N symmetric M x M affinity matrices stacked along axis 2, held packed.

    `packed` is the only stored form: the slices' upper triangles, a read-only
    (M(M+1)/2, N) array in the order of :func:`symmetric_index`, about half
    the dense bytes. Construction from a dense (M, M, N) array, M and N at
    least 1, packs the pair averages (s[i, j] + s[j, i]) / 2 in one :func:`pack_slice`
    scan per slice, and rejects non-finite entries, then asymmetry beyond
    DRIFT_TOL, naming the worst slice. An exactly symmetric view is kept bit
    for bit, and `GraphViewTensor(x).data` is x with each slice's drift
    averaged away. :meth:`from_packed` wraps rows that are packed already.
    Instances are immutable and safe to share.
    """

    packed: np.ndarray

    def __init__(self, data: np.ndarray):
        t = np.asarray(data, dtype=float)
        if t.ndim != 3 or t.shape[0] != t.shape[1] or t.size == 0:
            raise ValueError(f"expected shape (M, M, N), got {t.shape}")
        # the index is built before the rows: built after them, it raised peak RSS by 1 MB
        packed = np.empty((symmetric_index(t.shape[0])[0].size, t.shape[2]))
        asymmetry, finite = zip(*(pack_slice(t[:, :, k], packed[:, k])
                                  for k in range(t.shape[2])))
        if not all(finite):
            raise ValueError("affinity entries must be finite")
        worst = int(np.argmax(asymmetry))
        if not asymmetry[worst] <= DRIFT_TOL:
            raise ValueError(f"frontal slice {worst} is asymmetric by "
                             f"{asymmetry[worst]:.3g} (tolerance {DRIFT_TOL:.3g})")
        packed.flags.writeable = False
        object.__setattr__(self, "packed", packed)

    @classmethod
    def from_packed(cls, rows: np.ndarray) -> GraphViewTensor:
        """A view from its (M(M+1)/2, N) packed rows, the slices' plain upper triangles.

        Row e holds the pair i <= j of :func:`symmetric_index`, as
        :attr:`packed` does. The rows must be finite, with M and N
        at least 1. A C-contiguous float array is kept, not copied, and is marked
        read-only.
        """
        rows = np.ascontiguousarray(rows, dtype=float)
        if rows.ndim != 2 or _packed_node_count(rows.shape[0]) == 0 or rows.shape[1] == 0:
            raise ValueError(f"expected shape (M(M+1)/2, N), got {rows.shape}")
        if not all_finite(rows):
            raise ValueError("affinity entries must be finite")
        rows.flags.writeable = False
        view = cls.__new__(cls)
        object.__setattr__(view, "packed", rows)
        return view

    @property
    def data(self) -> np.ndarray:
        """The dense C-contiguous (M, M, N) tensor, built by one gather.

        Every access allocates a new full-size array, so a caller that reads
        the tensor more than once holds the result.
        """
        m = self.node_count
        return self.packed.take(symmetric_index(m)[2], axis=0).reshape(m, m, self.subject_count)

    @property
    def shape(self) -> tuple[int, int, int]:
        """(M, M, N), the shape of the dense tensor."""
        return (self.node_count, self.node_count, self.subject_count)

    @property
    def node_count(self) -> int:
        return _packed_node_count(self.packed.shape[0])

    @property
    def subject_count(self) -> int:
        return self.packed.shape[1]


def as_views(views: Sequence) -> list[GraphViewTensor]:
    """Validated views; arrays are packed into GraphViewTensor."""
    graphs = []
    for i, v in enumerate(views):
        if not isinstance(v, GraphViewTensor):
            try:
                v = GraphViewTensor(v)
            except ValueError as exc:
                raise ValueError(f"view {i}: {exc}") from exc
        graphs.append(v)
    if not graphs:
        raise ValueError("need at least one view")
    subjects = {g.subject_count for g in graphs}
    if len(subjects) != 1:
        raise ValueError(f"views disagree on subject count: {sorted(subjects)}")
    return graphs
