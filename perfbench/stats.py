"""Statistics of the repository benchmark: one implementation of each rule.

- A timing is reported as a median of its samples.
- A tail percentile is reported only when at least ten samples lie beyond
  it, i.e. n * (1 - q) >= 10 (p90 needs 100 samples, p99 needs 1000).
- Failures are counted against operations attempted.
- Within a run, a tail percentile is taken per pool of consecutive solves
  (or schedules) holding enough samples, and the median over pools is
  reported.
"""

import math
import statistics

MIN_SAMPLES_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than its rule allows."""


def median(values):
    if not values:
        raise TooFewSamples("median of no samples")
    return statistics.median(values)


def samples_needed(q):
    """Smallest sample count whose q-th quantile has ten samples beyond it."""
    return math.ceil(MIN_SAMPLES_BEYOND / (1.0 - q) - 1e-9)


def tail_percentile(values, q):
    """The q-quantile (0 < q < 1) of `values`, linearly interpolated between
    closest ranks; raises TooFewSamples unless n * (1 - q) >= 10."""
    n = len(values)
    if n < samples_needed(q):
        raise TooFewSamples(
            f"p{round(q * 100)} needs {samples_needed(q)} samples, got {n}")
    ordered = sorted(values)
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def grouped_percentile(groups, q):
    """Median over pools of the q-quantile, where each pool joins consecutive
    sample groups (one group per solve or schedule) until it holds enough
    samples for the tail rule; a short remainder joins the last pool.  A
    burst of outside load then moves one pool's tail, not the median."""
    need = samples_needed(q)
    pools, current = [], []
    for group in groups:
        current.extend(group)
        if len(current) >= need:
            pools.append(current)
            current = []
    if current:
        if not pools:
            raise TooFewSamples(
                f"p{round(q * 100)} needs {need} samples, got {len(current)}")
        pools[-1].extend(current)
    return median([tail_percentile(p, q) for p in pools])


def failure_share(outcomes):
    """(attempted, failed) of an iterable of per-operation booleans (True =
    the operation's output passed its check)."""
    attempted = failed = 0
    for ok in outcomes:
        attempted += 1
        failed += 0 if ok else 1
    return attempted, failed
