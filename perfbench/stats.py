"""Summary statistics shared by the harness (stdlib only).

The tail rule reports the highest percentile that still has at least
``TAIL_BEYOND`` samples strictly above its rank, so a tail value is never
read off fewer than ten slower samples.
"""

from __future__ import annotations

TAIL_BEYOND = 10


def tail(values) -> tuple:
    """(value, percentile, beyond) under the ten-beyond rule.

    With N sorted samples the value is the one at nearest rank N - 10, which
    is the N - 10 over N percentile and has exactly ten samples ranked
    above it.  With ten or fewer samples no percentile qualifies; the
    maximum is returned with percentile 100 and zero samples beyond.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("tail of no samples")
    n = len(xs)
    if n <= TAIL_BEYOND:
        return float(xs[-1]), 100.0, 0
    rank = n - TAIL_BEYOND
    return float(xs[rank - 1]), 100.0 * rank / n, TAIL_BEYOND

