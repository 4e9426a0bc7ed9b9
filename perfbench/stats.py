"""Order statistics used by the benchmark report."""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: candidate tail percentiles, in tenths of a percent, highest first
TAIL_LADDER_PERMILLE = (999, 990, 950, 900, 750)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct`` % at or below."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with at least ten of ``n`` samples
    beyond it, or None when even the 75th has fewer than ten."""
    for pm in TAIL_LADDER_PERMILLE:
        if n * (1000 - pm) >= 10 * 1000:
            return pm / 10
    return None
