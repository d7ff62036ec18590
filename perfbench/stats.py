"""Statistics the benchmark reports: medians, quartiles, nearest-rank
tail percentiles with their sample support, and ratios with their base."""

import collections
import math
import statistics

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99, 95, 90, 80, 75, 50)
# A tail percentile is only reported where at least this many samples
# lie beyond it.
MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(n=4) gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def rank(n, percentile):
    """1-based nearest rank of `percentile` among n samples."""
    return max(1, math.ceil(percentile / 100.0 * n))


def samples_beyond(n, percentile):
    """Samples strictly above the nearest-rank position of `percentile`."""
    return n - rank(n, percentile)


def percentile(values, pct):
    """Nearest-rank percentile: the smallest sample with at least pct %
    of the samples at or below it."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), pct) - 1]


def tail_percentile(n, ladder=TAIL_LADDER, min_beyond=MIN_BEYOND):
    """Highest ladder percentile with at least `min_beyond` of n samples
    beyond it, or None when even the lowest has too few."""
    for pct in ladder:
        if samples_beyond(n, pct) >= min_beyond:
            return pct
    return None


def ratio(numerator, base):
    """A ratio together with the base it was taken over; 0 over an empty base."""
    return {"value": numerator / base if base else 0.0, "base": base}


def unit_rates(units, overhead):
    """Simulated seconds per host second of each unit, where a unit
    carries an equal share of its cycle's overhead phases.

    units: [ms, sim_seconds, cycle] per unit; overhead: [wall_seconds,
    sim_seconds] per cycle."""
    per_cycle = collections.Counter(cycle for _, _, cycle in units)
    rates = []
    for ms, sim, cycle in units:
        share = per_cycle[cycle]
        wall_extra, sim_extra = overhead[cycle] if cycle < len(overhead) else (0.0, 0.0)
        rates.append((sim + sim_extra / share) / (ms / 1e3 + wall_extra / share))
    return rates


def cycle_walls(units, overhead):
    """Measured host seconds of each cycle: its timed units plus its
    other window phases. Cycles with nothing measured (warm-up only)
    are left out.

    units and overhead as for unit_rates; returns {cycle: seconds}."""
    walls = collections.defaultdict(float)
    for ms, _, cycle in units:
        walls[cycle] += ms / 1e3
    for cycle, (wall_extra, _) in enumerate(overhead):
        if cycle in walls:
            walls[cycle] += wall_extra
    return dict(walls)


def paired_ratio(numerators, bases):
    """Median of numerators[k] / bases[k] over the keys both have, with
    the number of pairs as its base."""
    pairs = [numerators[k] / bases[k] for k in numerators if bases.get(k)]
    return {"value": median(pairs) if pairs else 0.0, "base": len(pairs)}
