#!/usr/bin/env python3
"""Tour of the tensor kernels.

Shows how a stack of symmetric affinity matrices becomes a graph view held
as packed upper triangles, the Khatri-Rao identity that the solver leans
on, and the two-pass MTTKRP kernel that every fit runs on those packed
rows, checked against its einsum definition.
"""
import numpy as np

from m2e import GraphViewTensor
from m2e.tensors import (cp_reconstruct, frobenius_norm, khatri_rao, mttkrp_from_partial,
                         packed_energy, packed_mode3_mttkrp, packed_partial_mttkrp)

rng = np.random.default_rng(0)

# Two subjects' graphs on three nodes: a stack of two symmetric 3 x 3
# matrices along the last axis. The view keeps each slice's upper triangle,
# one row per node pair i <= j and one column per subject.
w = rng.integers(0, 5, size=(3, 3, 2)).astype(float)
view = GraphViewTensor(w + w.transpose(1, 0, 2))
print("slice 0:\n", view.data[:, :, 0])
pairs = [(i, j) for i in range(3) for j in range(i, 3)]
for pair, row in zip(pairs, view.packed):
    print(f"packed row for pair {pair}: {row}")
print(f"packed {view.packed.shape} from dense {view.shape}")

# A rank-2 model: three factor matrices, one per mode. Its entries are
# sum_r a[i, r] b[j, r] c[k, r].
a = rng.standard_normal((4, 2))
b = rng.standard_normal((4, 2))
c = rng.standard_normal((5, 2))
model = cp_reconstruct((a, b, c))
gap = np.abs(model - np.einsum("ir,jr,kr->ijk", a, b, c)).max()
print(f"reconstruction vs einsum definition: max gap {gap:.2e}")

# The Gram of a Khatri-Rao product collapses to an elementwise product of
# the two small Grams; the solver uses this to avoid large intermediates.
kr = khatri_rao(a, b)
gap = np.abs(kr.T @ kr - (a.T @ a) * (b.T @ b)).max()
print(f"khatri-rao gram identity: max gap {gap:.2e}")

# MTTKRP (tensor times Khatri-Rao product) is where every fit spends its
# time. The kernel reads a view's packed rows twice per sweep: pass 1
# contracts the subject mode once, and its slices are symmetric, so one
# contraction of it serves either node mode, given the other node mode's
# factor; pass 2 is one GEMM for the subject mode. Each matches its einsum
# definition, also when the first two factors differ, as CP-ALS's do.
x = rng.standard_normal((6, 6, 5))
x = x + x.transpose(1, 0, 2)
xp = GraphViewTensor(x).packed
f1, f2, f3 = rng.standard_normal((6, 3)), rng.standard_normal((6, 3)), rng.standard_normal((5, 3))
y = packed_partial_mttkrp(xp, f3)  # pass 1, shape (R, M, M)
kernel = {1: mttkrp_from_partial(y, f2), 2: mttkrp_from_partial(y, f1),
          3: packed_mode3_mttkrp(xp, f1, f2)}  # pass 2 for mode 3
oracle = {1: np.einsum("ijk,jr,kr->ir", x, f2, f3), 2: np.einsum("ijk,ir,kr->jr", x, f1, f3),
          3: np.einsum("ijk,ir,jr->kr", x, f1, f2)}
for mode in (1, 2, 3):
    print(f"mode-{mode} MTTKRP on packed rows vs einsum: max relative gap "
          f"{np.abs(kernel[mode] - oracle[mode]).max() / np.abs(oracle[mode]).max():.1e}")
print(f"energy from packed rows vs dense: {packed_energy(xp):.6f} vs {np.vdot(x, x):.6f}")

# Equal factors in the first two modes give symmetric slices, which is the
# invariant every graph view must satisfy: GraphViewTensor accepts such a
# model, and rejects one whose first two factors differ, naming its worst slice.
sym_model = cp_reconstruct((a, a, c))
print(f"model with a = b accepted as a view of shape {GraphViewTensor(sym_model).shape}, "
      f"norm {frobenius_norm(sym_model):.3f}")
try:
    GraphViewTensor(model)
except ValueError as exc:
    print(f"model with a != b rejected: {exc}")
