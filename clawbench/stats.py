"""Latency ranking, tail percentile and ratio summaries for the benchmark."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

# Percentiles the tail may be reported at; the highest one with at least
# TAIL_BEYOND samples ranked after it is used.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10


def rank(samples: list[tuple[float, bool]]) -> list[tuple[float, bool]]:
    """Order (latency, ok) samples: successes by latency, then every failure.

    A failed op ranks slower than every success whatever its own latency,
    because it never delivered a result.
    """
    return sorted(samples, key=lambda s: (not s[1], s[0]))


def _nearest_rank(n: int, q: float) -> int:
    """0-based index of the q-th percentile by the nearest-rank rule."""
    return max(0, math.ceil(q / 100.0 * n) - 1)


def percentile(ranked: list[tuple[float, bool]], q: float) -> tuple[float, bool]:
    """Latency at percentile q of the ranked samples, and whether that rank is a success.

    Failures tie with one another after every success, so a rank that
    falls among them reads the median latency of the failed ops.
    """
    value, ok = ranked[_nearest_rank(len(ranked), q)]
    if ok:
        return value, True
    return statistics.median_low([v for v, good in ranked if not good]), False


def tail(ranked: list[tuple[float, bool]]) -> dict:
    """The highest ladder percentile with at least TAIL_BEYOND samples ranked after it.

    With fewer than 2 * TAIL_BEYOND samples no percentile qualifies and
    the median is reported; `beyond` then says how many samples lie
    past it.
    """
    n = len(ranked)
    chosen = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if n - 1 - _nearest_rank(n, q) >= TAIL_BEYOND:
            chosen = q
    value, ok = percentile(ranked, chosen)
    beyond = n - 1 - _nearest_rank(n, chosen)
    return {"percentile": chosen, "value": value, "ok": ok, "samples": n, "beyond": beyond}


def geometric_mean(ratios: list[Fraction]) -> float | None:
    """Geometric mean of positive rationals, from the logarithms of their exact parts."""
    if not ratios:
        return None
    logs = [math.log(r.numerator) - math.log(r.denominator) for r in ratios]
    return math.exp(math.fsum(logs) / len(logs))

