#!/usr/bin/env python3
"""Tour of the dense tensor kernels.

Shows how a stack of symmetric affinity matrices becomes a third-order
tensor, what the three unfoldings look like, the Khatri-Rao identity
that the solver leans on, the two-pass MTTKRP kernel every fit runs, and
its packed form, which the M2E fitters run on the upper triangles of the
symmetric slices.
"""
import numpy as np

from m2e import check_partial_symmetry
from m2e.tensors import (cp_reconstruct, frobenius_norm, khatri_rao, matricize,
                         mode3_mttkrp, mttkrp_from_partial, pack_symmetric,
                         packed_mode3_mttkrp, packed_partial_mttkrp, partial_mttkrp, refold)

rng = np.random.default_rng(0)

# A tiny tensor with entries 1..8 makes the unfolding layout easy to read:
# the first index runs down the rows, the remaining ones across the columns
# with the smaller index moving fastest.
t = np.arange(1, 9, dtype=float).reshape(2, 2, 2, order="F")
print("tensor slices (last index = 0, 1):")
print(t[:, :, 0])
print(t[:, :, 1])
for mode in (1, 2, 3):
    print(f"mode-{mode} unfolding:\n{matricize(t, mode)}")

# Unfold and refold is lossless.
restored = refold(matricize(t, 2), 2, t.shape)
print("refold restores the tensor:", np.array_equal(restored, t))

# A rank-2 model: three factor matrices, one per mode. Reconstructing and
# unfolding on mode 3 matches the matrix product with the Khatri-Rao of the
# first two factors.
a = rng.standard_normal((4, 2))
b = rng.standard_normal((4, 2))
c = rng.standard_normal((5, 2))
model = cp_reconstruct((a, b, c))
gap = np.abs(matricize(model, 3) - c @ khatri_rao(b, a).T).max()
print(f"mode-3 unfolding vs factor product: max gap {gap:.2e}")

# The Gram of a Khatri-Rao product collapses to an elementwise product of
# the two small Grams; the solver uses this to avoid large intermediates.
kr = khatri_rao(a, b)
gap = np.abs(kr.T @ kr - (a.T @ a) * (b.T @ b)).max()
print(f"khatri-rao gram identity: max gap {gap:.2e}")

# MTTKRP (tensor times Khatri-Rao product) is where every fit spends its
# time. The kernel reads a C-contiguous tensor twice per sweep through its
# (I*J, K) unfolding: pass 1 contracts the third mode once and serves both
# mode-1 and mode-2, pass 2 is one GEMM for mode 3. Each matches the
# matricized definition.
x = rng.standard_normal((4, 3, 5))
f1, f2, f3 = (rng.standard_normal((d, 2)) for d in x.shape)
y = partial_mttkrp(x, f3)  # pass 1, shape (R, I, J)
kernel = {1: mttkrp_from_partial(y, f2, 1), 2: mttkrp_from_partial(y, f1, 2),
          3: mode3_mttkrp(x, f1, f2)}  # pass 2 for mode 3
oracle = {1: matricize(x, 1) @ khatri_rao(f3, f2), 2: matricize(x, 2) @ khatri_rao(f3, f1),
          3: matricize(x, 3) @ khatri_rao(f2, f1)}
for mode in (1, 2, 3):
    print(f"mode-{mode} MTTKRP vs matricized form: max gap "
          f"{np.abs(kernel[mode] - oracle[mode]).max():.2e}")

# Equal factors in the first two modes give symmetric slices, which is the
# invariant every graph view must satisfy.
sym_model = cp_reconstruct((a, a, c))
ok, asym = check_partial_symmetry(sym_model, 1e-12)
print(f"slices symmetric: {ok} (max asymmetry {asym:.1e}, "
      f"norm {frobenius_norm(sym_model):.3f})")

# A graph view's symmetric slices hold only M(M+1)/2 distinct entries each.
# Packing keeps each slice's plain upper triangle, and both passes run on
# them, reading half the tensor; they agree with the dense passes to rounding.
view = rng.standard_normal((6, 6, 5))
view = view + view.transpose(1, 0, 2)
packed = pack_symmetric(view)
h, p, f = rng.standard_normal((6, 3)), rng.standard_normal((6, 3)), rng.standard_normal((5, 3))
print(f"packed view: {packed.shape} from {view.shape}")
for name, got, want in (
        ("pass 1", packed_partial_mttkrp(packed, f), partial_mttkrp(view, f)),
        ("pass 2", packed_mode3_mttkrp(packed, h, p), mode3_mttkrp(view, h, p))):
    print(f"packed {name} vs dense: max relative gap "
          f"{np.abs(got - want).max() / np.abs(want).max():.1e}")
