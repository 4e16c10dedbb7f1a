"""Test-side reference for one pair's BLP sum, searched on its own distance signal.

The library reads every measure off one extremum search of the excited
population P = |b|^2. The reference builds a pair's trace distance along
b(t) from its closed form, finds that signal's own extrema and sums its
rises, as the library did before it searched P alone.
"""

import math

from nonmarkov.dynamics import ScalarTrajectory, trace_distance_single
from nonmarkov.measure import find_extrema


def signal(traj, values):
    """`values` on the grid of `traj`."""
    return ScalarTrajectory(dt=traj.dt, values=values)


def pair_distance(traj, pair):
    """The trace distance of `pair` along b(t), from `trace_distance_single`."""
    return signal(traj, trace_distance_single(pair, traj.values))


def sum_of_rises(sig):
    """The rises of a distance signal summed over its own rising intervals."""
    return math.fsum(iv.value_at_max - iv.value_at_min for iv in find_extrema(sig))


def pair_blp_sum(traj, pair):
    """The per-pair BLP sum: the rises of the pair's distance over its own extrema."""
    return sum_of_rises(pair_distance(traj, pair))
