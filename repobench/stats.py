"""Statistics the repository benchmark reports over its runs."""

import statistics

# A tail percentile counts as measured only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First, second and third quartile, as statistics.quantiles(n=4)."""
    values = list(values)
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def relative_spread(values):
    """(q3 - q1) / median: the spread a metric's bound is judged against."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def tail_percentile(values, q):
    """The q-quantile (0 <= q <= 1), interpolated between closest ranks.

    Returns (value, beyond, supported): `beyond` counts the samples strictly
    greater than the value, and the value is a measured tail only when
    `supported`, that is when at least MIN_TAIL_SAMPLES lie beyond it.
    """
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    value = ordered[low] + (position - low) * (ordered[high] - ordered[low])
    beyond = sum(1 for v in ordered if v > value)
    return value, beyond, beyond >= MIN_TAIL_SAMPLES
