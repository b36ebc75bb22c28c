"""Small statistics helpers used across experiments and reports."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of strictly positive values (1.0 for an empty input)."""
    values = list(values)
    if not values:
        return 1.0
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires strictly positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def filtered_geomean(values: Iterable[float], default: float = 1.0) -> float:
    """Geometric mean over the strictly positive subset of ``values``.

    Degenerate runs (zero-cycle traces from tiny instruction budgets) can feed
    aggregation paths non-positive ratios that carry no speedup information;
    the figure harnesses use this variant so such runs are excluded instead of
    crashing :func:`geomean`.  Returns ``default`` when nothing positive
    remains.
    """
    positive = [value for value in values if value > 0]
    return geomean(positive) if positive else default


def median(values: Iterable[float]) -> float:
    """Median of ``values`` (0.0 for an empty input).

    ``repro query --agg median`` rolls metrics up with it: one outlier
    workload moves a median far less than it moves a mean.
    """
    data = sorted(values)
    if not data:
        return 0.0
    return _percentile(data, 0.50)


def _percentile(sorted_values: List[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = fraction * (len(sorted_values) - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    if lower == upper:
        return sorted_values[lower]
    weight = position - lower
    interpolated = sorted_values[lower] * (1 - weight) + sorted_values[upper] * weight
    # Rounding (e.g. with subnormal inputs) can push the interpolation outside
    # [lower, upper]; clamp so quantiles always respect the value ordering.
    return min(max(interpolated, sorted_values[lower]), sorted_values[upper])


def box_whisker_summary(values: Iterable[float]) -> Dict[str, float]:
    """Summary matching the paper's box-and-whiskers plots (Figs. 9, 18, 21).

    Returns the quartiles, the 1.5*IQR whiskers (clamped to observed values)
    and the mean.
    """
    data = sorted(values)
    if not data:
        return {"min": 0.0, "q1": 0.0, "median": 0.0, "q3": 0.0, "max": 0.0,
                "mean": 0.0, "whisker_low": 0.0, "whisker_high": 0.0}
    q1 = _percentile(data, 0.25)
    median = _percentile(data, 0.50)
    q3 = _percentile(data, 0.75)
    iqr = q3 - q1
    low_bound = q1 - 1.5 * iqr
    high_bound = q3 + 1.5 * iqr
    whisker_low = min((v for v in data if v >= low_bound), default=data[0])
    whisker_high = max((v for v in data if v <= high_bound), default=data[-1])
    return {
        "min": data[0],
        "q1": q1,
        "median": median,
        "q3": q3,
        "max": data[-1],
        "mean": sum(data) / len(data),
        "whisker_low": whisker_low,
        "whisker_high": whisker_high,
    }
