"""Estimators for the benchmark's percentiles and spreads (stdlib only)."""

from __future__ import annotations

import math
import statistics


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 400):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return h


def _ibeta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile (0-100).

    A Beta-weighted mean of all order statistics rather than one or two
    of them.  Job times here have a gap: the ~10% of jobs that absorb a
    full collection of CPython's cyclic GC take about twice as long, so
    p90 sits on the gap's edge, and a single order statistic there jumps
    across it when one more or one fewer job is hit.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q / 100 * (n + 1), (1 - q / 100) * (n + 1)
    total, prev = 0.0, 0.0
    for i, x in enumerate(xs, 1):
        cur = _ibeta(a, b, i / n)
        total += (cur - prev) * x
        prev = cur
    return total


def spread(values: list[float]) -> dict[str, float]:
    """Median, quartiles, IQR/median, CV and max/min of ``values``."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    mean = statistics.fmean(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_frac": (q3 - q1) / med if med else 0.0,
        "cv": statistics.pstdev(values) / mean if mean else 0.0,
        "max_min": max(values) / min(values) if min(values) else 0.0,
    }
