"""Arithmetic of the repository benchmark: robust summaries of repeated
timings, span self time, the failure ratio, and the exact-field diff.

Kept free of I/O so perfbench/test_benchstats.py can pin every formula.
"""

import math
import statistics


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(Q1, Q3) as statistics.quantiles(values, n=4) gives them.

    A single value is its own quartiles.
    """
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Interquartile distance as a share of the median (0 for one value)."""
    q1, q3 = quartiles(values)
    m = median(values)
    return (q3 - q1) / m if m else 0.0


def best_segment_rate(count, segment_lists):
    """Work per second when each fixed slice of a pass runs at its best.

    segment_lists holds one list of slice durations per pass, all over
    the same slices of work; count is the work one pass does. Taking each
    slice's minimum over the passes discards the stretches a shared host
    slowed, slice by slice.
    """
    if not segment_lists or len({len(s) for s in segment_lists}) != 1:
        raise ValueError("passes must have the same slices")
    best = [min(col) for col in zip(*segment_lists)]
    return count / sum(best)


def percentile(values, p):
    """The p-th percentile (0 <= p <= 100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= p <= 100:
        raise ValueError("percentile out of range: %r" % p)
    s = sorted(values)
    pos = (len(s) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it, for
    n samples; None when even p90 has fewer than ten beyond it."""
    best = None
    for permille in (900, 990, 999):  # integers: no rounding at the edge
        if n * (1000 - permille) >= 10 * 1000:
            best = permille / 10.0
    return best


def self_times(spans):
    """Self time of every span: its busy time minus its children's.

    spans is a list of dicts with keys id, parent (0 = none) and busy.
    Returns {id: self_busy}.
    """
    out = {s["id"]: s["busy"] for s in spans}
    for s in spans:
        if s["parent"] in out:
            out[s["parent"]] -= s["busy"]
    return out


def fail_ratio(failed, attempted):
    """Failed checks over attempted checks (0 when nothing was checked)."""
    if failed < 0 or attempted < 0 or failed > attempted:
        raise ValueError("bad check counts %r/%r" % (failed, attempted))
    return failed / attempted if attempted else 0.0


def exact_diff(a, b):
    """Fields whose values differ between two exact-field maps.

    A field present on one side only differs. Returns a sorted list of
    (field, a_value, b_value), with None for a missing side.
    """
    out = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if key not in a or key not in b or va != vb:
            out.append((key, va, vb))
    return out
