"""Statistics of the workload benchmark: medians, quartile spread, the tail
rule, error rate and span self time. Pure functions, tested by
test_stats.py."""

import statistics

# A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10
# A run's tail is the median of the tails of up to this many blocks of
# consecutive ops (see block_tail).
TAIL_BLOCKS = 4


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """(q1, q2, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two samples")
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median: the run-to-run noise a metric's bound is held against."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile that has at least `beyond` samples beyond it.

    Returns (value, percentile, sample_count), or None when there are too
    few samples (no more than `beyond`). The value is the sample with
    exactly `beyond` samples above it in sorted order, so the percentile
    grows with the sample count: 100 * (n - beyond) / n.
    """
    n = len(values)
    if n <= beyond:
        return None
    ordered = sorted(values)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, n


def block_tail(values, blocks=TAIL_BLOCKS, beyond=TAIL_BEYOND):
    """A run's tail that a burst of host noise cannot carry: the values
    (in run order) are cut into up to `blocks` blocks of consecutive values,
    each holding at least 10 * `beyond` of them so that its tail is at least
    p90, and the result is the median of the blocks' tails (see tail()).
    With fewer than 20 * `beyond` values there is one block: tail() of the
    whole run.

    Returns (value, percentile, block_samples, block_count), with the
    percentile and sample count of the smallest block, or None when there
    are too few values for tail().
    """
    n = len(values)
    k = max(1, min(blocks, n // (10 * beyond)))
    bounds = [i * n // k for i in range(k + 1)]
    tails = [tail(values[lo:hi], beyond) for lo, hi in zip(bounds, bounds[1:])]
    if any(t is None for t in tails):
        return None
    smallest = min(tails, key=lambda t: t[2])
    return median([t[0] for t in tails]), smallest[1], smallest[2], k


def error_rate(failed, attempted):
    """Failed / attempted ops; None when nothing was attempted."""
    if attempted <= 0:
        return None
    return failed / attempted


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its direct children cover (overlapping children are counted once).

    `spans` is a list of (start, end, parent) with parent an index into the
    list or -1. Returns a list of self times in the spans' time unit.
    """
    children = [[] for _ in spans]
    for i, (_, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered = 0
        cursor = start
        for c_start, c_end in sorted((spans[c][0], spans[c][1])
                                     for c in children[i]):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def layer_of(name):
    """A span named "<layer>.<call>" belongs to <layer>."""
    return name.split(".", 1)[0]
