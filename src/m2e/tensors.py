"""Third-order tensor kernels on packed symmetric slices, and small-matrix helpers.

A graph view is an (M, M, N) tensor X with symmetric frontal slices.
:func:`pack_symmetric` keeps each slice's plain upper triangle, an
(M(M+1)/2, N) matrix X_p with one row per pair i <= j in the order of
:func:`symmetric_index`, which the dataset reader and writer share (the
packed storage of Schatz, Low, van de Geijn and Kolda, SIAM J. Sci. Comput.
2014). :class:`GraphViewTensor` stores only X_p.

MTTKRP kernel. For a rank-R CP model [[A, B, C]], with entries
sum_r A[i, r] B[j, r] C[k, r], the mode-n MTTKRP contracts X with the
factors of the other two modes, e.g. G3[k, r] = sum_ij X[i, j, k] A[i, r] B[j, r].
CP-ALS and every M2E fit spend nearly all their time in it. It reads only
X_p, in two passes that reuse work across modes (the dimension-tree MTTKRP
of Phan, Tichavsky and Cichocki, IEEE TSP 2013):

* pass 1, :func:`packed_partial_mttkrp`: Y[r, i, j] = sum_k X[i, j, k] C[k, r],
  computed as C^T X_p^T and unpacked to (R, M, M) by one gather. The mode-1
  and mode-2 MTTKRPs both contract Y at O(M^2 R) (:func:`mttkrp_from_partial`);
  C must stay fixed between the two, as it does in an ALS sweep and in the
  M2E node and aux steps.
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

# Frontal slices of a stacked graph view must be symmetric to this tolerance.
SYMMETRY_TOL = 1e-8
# added to the R x R Gram before each least-squares solve
RIDGE = 1e-10

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


def mttkrp_from_partial(y: np.ndarray, factor: np.ndarray, mode: int) -> np.ndarray:
    """Mode-1 or mode-2 MTTKRP from the pass-1 product `y` of packed_partial_mttkrp.

    Mode 1 contracts y with the mode-2 factor over j, giving (M, R); mode 2
    contracts it with the mode-1 factor over i, giving (M, R). X is not read.
    """
    if mode == 1:
        return (y @ factor.T[:, :, None])[:, :, 0].T
    if mode == 2:
        return (factor.T[:, None, :] @ y)[:, 0, :].T
    raise ValueError(f"mode must be 1 or 2, got {mode}")


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


def pack_symmetric(tensor: np.ndarray) -> np.ndarray:
    """Pack each frontal slice's pair averages (s[i, j] + s[j, i]) / 2, i <= j.

    Returns the read-only (M(M+1)/2, N) upper triangles, in the order of
    :func:`symmetric_index`. An exactly symmetric slice packs as its upper
    triangle, bit for bit. One node row is averaged at a time straight into
    the packed array, so no temporary is allocated whatever the input's
    layout.
    """
    t = np.asarray(tensor, dtype=float)
    if t.ndim != 3 or t.shape[0] != t.shape[1]:
        raise ValueError(f"expected shape (M, M, N), got {t.shape}")
    m = t.shape[0]
    # Taking the row count from the cached index builds it before the first
    # view's rows; built after them, it raised cohort-fit's peak RSS by 1 MB.
    data = np.empty((symmetric_index(m)[0].size, t.shape[2]))
    start = 0
    for i in range(m):
        np.add(t[i, i:], t[i:, i], out=data[start:start + m - i])
        start += m - i
    data /= 2.0
    data.flags.writeable = False
    return data


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

    The fits add the same few diagonals (the ridge, a view's coupling
    penalty, its consensus weight) to R x R Grams every iteration, and at
    small R building np.eye costs more than the addition.
    """
    out = scale * np.eye(n)
    out.flags.writeable = False
    return out


def ridge_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """rhs (gram + RIDGE I)^-1: M solving the normal equations M gram = rhs.

    The least-squares update of one factor with the others fixed (Kolda and
    Bader, SIAM Review 2009, section 3.4), shared by CP-ALS and every M2E block.
    """
    gram = gram + scaled_identity(gram.shape[0], RIDGE)
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


# Scans and in-place averages over an (M, M, N) tensor take _TILE leading-axis
# rows, or _TILE x _TILE x N tiles, at a time, so their temporaries stay a
# small share of the tensor whatever M is. Frontal slices are strided in this
# layout, so the scans do not loop over them.
_TILE = 8


def _upper_tiles(m: int):
    """(rows, cols) slices of the tiles on and above the diagonal of an m x m grid."""
    for i in range(0, m, _TILE):
        for j in range(i, m, _TILE):
            yield slice(i, i + _TILE), slice(j, j + _TILE)


def all_finite(tensor: np.ndarray) -> bool:
    """True when every entry is finite; scans a few leading-axis rows at a time."""
    return all(np.isfinite(tensor[i:i + _TILE]).all() for i in range(0, len(tensor), _TILE))


def _slice_asymmetry(t: np.ndarray) -> np.ndarray:
    """max_ij |t[i, j, n] - t[j, i, n]| for each frontal slice n of an (M, M, N) tensor.

    Each upper tile is compared with its mirror, which covers every pair
    (i, j) once.
    """
    if t.ndim != 3 or t.shape[0] != t.shape[1]:
        raise ValueError(f"expected shape (M, M, N), got {t.shape}")
    worst = np.zeros(t.shape[2])
    for rows, cols in _upper_tiles(t.shape[0]):
        diff = t[rows, cols] - t[cols, rows].transpose(1, 0, 2)
        np.maximum(worst, np.abs(diff, out=diff).max(axis=(0, 1)), out=worst)
    return worst


def check_partial_symmetry(tensor: np.ndarray, tol: float = SYMMETRY_TOL) -> tuple[bool, float]:
    """Check that every frontal slice of an (M, M, N) tensor is symmetric.

    Returns (ok, max_asymmetry) where max_asymmetry is the largest
    |t[i, j, n] - t[j, i, n]| over all entries (NaN if an entry is NaN).
    The scan compares one 8 x 8 x N tile with its mirror at a time, so it
    allocates no transposed copy.
    """
    max_asym = float(_slice_asymmetry(np.asarray(tensor, dtype=float)).max(initial=0.0))
    return max_asym <= tol, max_asym


def require_symmetric(t: np.ndarray, tol: float, advice: str = "") -> None:
    """Raise naming the most asymmetric frontal slice if it is asymmetric beyond `tol`."""
    raise_on_asymmetry(_slice_asymmetry(t), tol, advice)


def raise_on_asymmetry(per_slice: np.ndarray, tol: float, advice: str = "") -> None:
    """Raise naming the worst slice if any of the per-slice asymmetries exceeds `tol`."""
    asym = float(per_slice.max(initial=0.0))
    if not asym <= tol:
        raise ValueError(f"frontal slice {int(np.argmax(per_slice))} is asymmetric by "
                         f"{asym:.3g} (tolerance {tol:.3g}){advice}")


def average_with_transpose(t: np.ndarray) -> np.ndarray:
    """Replace each frontal slice W of `t` by (W + W.T) / 2, in place; returns `t`.

    Each upper tile and its mirror are averaged from their old values and
    then both written, and no tile is read after it is written, so the result
    equals (t + t.transpose(1, 0, 2)) / 2.0 bit for bit.
    """
    for rows, cols in _upper_tiles(t.shape[0]):
        avg = t[rows, cols] + t[cols, rows].transpose(1, 0, 2)
        avg /= 2.0
        t[rows, cols] = avg
        t[cols, rows] = avg.transpose(1, 0, 2)
    return t


def symmetrize_slices(tensor: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """Return a new tensor whose frontal slices are (W + W.T) / 2 of the input's.

    Rejects input whose asymmetry exceeds `tol`, naming the most asymmetric
    slice; small asymmetries are treated as float-level noise and averaged
    away. The input is not changed, and the result is the only full-size
    allocation: the check scans tiles, and a copy is averaged in place.
    """
    t = np.asarray(tensor, dtype=float)
    require_symmetric(t, tol)
    return average_with_transpose(np.array(t, order="C"))


@dataclass(frozen=True, init=False, eq=False)
class GraphViewTensor:
    """One view: N symmetric M x M affinity matrices stacked along axis 2, held packed.

    `packed` is the only stored form: the slices' upper triangles, the
    read-only (M(M+1)/2, N) array of :func:`pack_symmetric`, about half the
    dense bytes. Construction from a dense (M, M, N) array validates shape,
    finiteness and per-slice symmetry to SYMMETRY_TOL, then packs the pair
    averages (s[i, j] + s[j, i]) / 2, so an exactly symmetric view is kept
    bit for bit. :meth:`from_packed` wraps rows that are packed already.
    Instances are immutable and safe to share.
    """

    packed: np.ndarray

    def __init__(self, data: np.ndarray):
        t = np.asarray(data, dtype=float)
        if t.ndim != 3 or t.shape[0] != t.shape[1]:
            raise ValueError(f"expected shape (M, M, N), got {t.shape}")
        if not all_finite(t):
            raise ValueError("affinity entries must be finite")
        require_symmetric(t, SYMMETRY_TOL, "; symmetrize first")
        object.__setattr__(self, "packed", pack_symmetric(t))

    @classmethod
    def from_packed(cls, rows: np.ndarray) -> GraphViewTensor:
        """A view from its (M(M+1)/2, N) packed rows, the slices' plain upper triangles.

        Row e holds the pair i <= j of :func:`symmetric_index`, as
        :func:`pack_symmetric` returns it. The rows must be finite. A C-contiguous float array is kept, not
        copied, and is marked read-only.
        """
        rows = np.ascontiguousarray(rows, dtype=float)
        if rows.ndim != 2 or _packed_node_count(rows.shape[0]) == 0:
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
