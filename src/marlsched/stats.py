"""Welch's t-test and confidence intervals for cross-scheduler comparison."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def welch_t_test(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Unequal-variance two-sample t statistic and two-sided p-value."""
    from scipy.stats import ttest_ind  # on first use: importing scipy.stats is slow
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) < 2 or len(b) < 2:
        raise ValueError("both samples need at least 2 observations")
    if a.var(ddof=1) == 0.0 and b.var(ddof=1) == 0.0:
        raise ValueError("both samples have zero variance; t statistic undefined")
    t, p = ttest_ind(a, b, equal_var=False)
    return float(t), float(p)


def confidence_interval_95(samples: Sequence[float]) -> tuple[float, float]:
    """mean +/- t_{0.975, n-1} * s / sqrt(n)."""
    from scipy.stats import t as t_dist
    x = np.asarray(samples, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least 2 samples")
    n = len(x)
    half = float(t_dist.ppf(0.975, n - 1)) * x.std(ddof=1) / np.sqrt(n)
    m = float(x.mean())
    return m - half, m + half


def bonferroni(p: float, m: int) -> float:
    return min(p * m, 1.0)
