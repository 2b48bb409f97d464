"""Summary statistics the benchmark reports: tail percentiles that the
sample supports, medians and ROC AUC.

Pure functions over plain sequences, so the unit tests can pin every
rule without a server.
"""

from __future__ import annotations

import math
from typing import Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; below that, one unlucky sample decides the value.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float,
               min_beyond: int = MIN_BEYOND) -> float | None:
    """Nearest-rank ``q``-quantile (0 < q < 1) of ``samples``, or ``None``
    when fewer than ``min_beyond`` samples rank above it.

    The median of 20 samples is reported (10 lie beyond it); the p95 needs
    200 samples and the p99 1,000.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    if n == 0 or n - rank < min_beyond:
        return None
    return float(sorted(samples)[rank - 1])


def median(samples: Sequence[float]) -> float:
    """Plain median (mean of the middle two on even counts)."""
    if not samples:
        raise ValueError("median of no samples")
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def roc_auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Area under the ROC curve (Mann-Whitney U over average ranks, so
    tied scores count half)."""
    if len(scores) != len(labels):
        raise ValueError("scores and labels differ in length")
    positives = sum(1 for label in labels if label)
    negatives = len(labels) - positives
    if positives == 0 or negatives == 0:
        raise ValueError("AUC needs both positive and negative labels")
    order = sorted(range(len(scores)), key=lambda i: scores[i])
    ranks = [0.0] * len(scores)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        average = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = average
        i = j + 1
    positive_rank_sum = sum(rank for rank, label in zip(ranks, labels) if label)
    u = positive_rank_sum - positives * (positives + 1) / 2.0
    return u / (positives * negatives)

