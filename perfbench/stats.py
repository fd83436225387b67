"""Summary statistics the benchmark reports: medians and tails, never a
fastest-of-N minimum."""

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it; with fewer, the value is one or two outliers, not a tail.
MIN_BEYOND = 10


def median(xs):
    if not xs:
        raise ValueError("median of no samples")
    return statistics.median(xs)


def percentile(xs, q):
    """Nearest-rank `q`-quantile (0 < q < 1), or None when fewer than
    MIN_BEYOND samples lie beyond it."""
    if not 0 < q < 1:
        raise ValueError("quantile must lie strictly between 0 and 1")
    n = len(xs)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < MIN_BEYOND:
        return None
    return sorted(xs)[rank - 1]


def p90(xs):
    return percentile(xs, 0.9)


def failed_frac(failed, attempted):
    if attempted <= 0:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed count outside 0..attempted")
    return failed / attempted
