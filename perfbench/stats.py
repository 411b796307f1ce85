"""Order statistics used by the report."""

from __future__ import annotations

TAIL_BEYOND = 10


def tail(samples, beyond: int = TAIL_BEYOND):
    """Highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, n)``: ``value`` is the sample with exactly
    ``beyond`` samples ranked above it and ``percentile`` the share of
    samples at or below that rank.  With ``beyond`` or fewer samples no
    percentile qualifies and ``None`` is returned.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= beyond:
        return None
    return xs[n - 1 - beyond], 100.0 * (n - beyond) / n, n
