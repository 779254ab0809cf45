#!/usr/bin/env python3
"""Restart k-means, label matching and the binary metrics.

Clustering ids are arbitrary, so accuracy is only meaningful after the
predicted ids are permuted against the ground truth; this walks through
each stage on a toy embedding.
"""
import numpy as np

from m2e import binary_metrics, kmeans, match_labels

rng = np.random.default_rng(3)
cloud_a = rng.standard_normal((12, 2))
cloud_b = rng.standard_normal((8, 2)) + np.array([6.0, 0.0])
points = np.vstack([cloud_a, cloud_b])
truth = np.array([1] * 12 + [2] * 8)

result = kmeans(points, k=2, restarts=20, seed=0)
print("per-restart inertias:", np.array2string(result.inertias, precision=2))
print(f"best restart: {result.best_restart} "
      f"(inertia {result.inertias[result.best_restart]:.2f})")
print("raw labels:     ", result.labels)

# The raw ids may be swapped relative to the truth; matching fixes that.
match = match_labels(result.labels, truth, k=2)
print("matched labels: ", match.matched_labels)
print(f"id mapping {match.mapping.tolist()}, matched accuracy {match.accuracy:.3f}")

metrics = binary_metrics(match.matched_labels, truth, positive_class=1)
print(f"precision={metrics.precision:.3f} recall={metrics.recall:.3f} "
      f"f1={metrics.f1:.3f} accuracy={metrics.accuracy:.3f}")

# The matching solves one exact assignment problem for any K (ties go to the
# lexicographically first mapping). The best number of hits does not depend
# on how the predicted ids are named, so relabeling never changes the
# matched accuracy:
shuffled = 3 - result.labels  # swap ids 1 and 2
assert match_labels(shuffled, truth, k=2).accuracy == match.accuracy
print("relabeling invariance holds")
