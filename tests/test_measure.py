"""Tests for extremum detection and the non-Markovianity sums."""

import dataclasses
import json
import logging
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest

from nonmarkov import constants, measure
from nonmarkov.amplitude import (
    AmplitudeTrajectory,
    Method,
    SolverConfig,
    compute_trajectory,
    default_horizon,
    lorentzian_min_times,
)
from nonmarkov.dynamics import (
    QubitInitialState,
    ScalarTrajectory,
    StatePair,
    excited_state,
    ground_state,
    optimal_pair,
    population_excited,
    trace_distance_two,
)
from nonmarkov.errors import HorizonError, PhysicalityError
from nonmarkov.measure import (
    TheoremVerification,
    brute_force_max,
    find_extrema,
    population_measures,
    sample_state_pairs,
    verify_theorem,
)
from nonmarkov.reservoir import Lorentzian, OhmicFamily, Regime, Tabulated, classify_regime, kappa
from pair_reference import pair_blp_sum, pair_distance, signal, sum_of_rises


def lorentzian_trajectory(width, dt=1e-3, t_max=None):
    if t_max is None:
        t_max = default_horizon(1.0, width)
    cfg = SolverConfig(dt=dt, t_max=t_max, method=Method.CLOSED_FORM)
    return compute_trajectory(Lorentzian(1.0, width), cfg)


def geometric_ratio(width):
    return math.exp(-math.pi * width / kappa(Lorentzian(1.0, width)))


def measures(traj, model=None):
    """(n_single, n_eg, n_two_lower) of b(t), read off its excited population, for `model`."""
    return population_measures(population_excited(traj), model)


def lorentzian_measures(width, dt=1e-3, t_max=None):
    """The three measures of a resonant Lorentzian's closed form on a grid."""
    return measures(lorentzian_trajectory(width, dt, t_max), Lorentzian(1.0, width))


def single(traj, model=None):
    """The single-qubit measure of b(t), read off its excited population."""
    return measures(traj, model)[0]


class TestFindExtrema:
    def test_monotone_signal_is_empty(self):
        sig = ScalarTrajectory(dt=0.1, values=np.linspace(1.0, 0.0, 50))
        assert find_extrema(sig) == []

    def test_needs_three_samples(self):
        with pytest.raises(PhysicalityError):
            find_extrema(ScalarTrajectory(dt=0.1, values=np.array([1.0, 0.5])))

    def test_damped_rectified_cosine(self):
        dt = 1e-3
        t = np.arange(0.0, 20.0, dt)
        sig = ScalarTrajectory(dt=dt, values=np.abs(np.cos(t)) * np.exp(-0.1 * t))
        intervals = find_extrema(sig)
        mins = np.array([iv.t_min for iv in intervals])
        odd_half_pi = np.pi / 2.0 + np.pi * np.arange(mins.size)
        assert np.max(np.abs(mins - odd_half_pi)) < dt
        assert max(iv.value_at_min for iv in intervals) < 1e-4

    def test_lorentzian_amplitude_extrema(self):
        traj = lorentzian_trajectory(0.1, t_max=80.0)
        intervals = find_extrema(pair_distance(traj, optimal_pair()))
        k = kappa(Lorentzian(1.0, 0.1))
        expected_min = 2.0 * (np.arange(1, len(intervals) + 1) * np.pi - np.arctan(k / 0.1)) / k
        expected_max = 2.0 * np.arange(1, len(intervals) + 1) * np.pi / k
        got_min = np.array([iv.t_min for iv in intervals])
        got_max = np.array([iv.t_max for iv in intervals])
        assert np.max(np.abs(got_min - expected_min)) < 1e-6
        assert np.max(np.abs(got_max - expected_max)) < 1e-6
        assert max(iv.value_at_min for iv in intervals) <= 1e-6
        q = geometric_ratio(0.1)
        vals = np.array([iv.value_at_max for iv in intervals])
        assert np.max(np.abs(vals - q ** np.arange(1, vals.size + 1))) < 1e-9

    def test_plateau_reports_leftmost_sample(self):
        v = np.concatenate(
            [
                np.linspace(1.0, 0.2, 9),
                np.full(5, 0.2),
                np.linspace(0.2, 0.6, 9)[1:],
                np.linspace(0.6, 0.1, 6)[1:],
            ]
        )
        sig = ScalarTrajectory(dt=1.0, values=v)
        intervals = find_extrema(sig)
        assert len(intervals) == 1
        assert intervals[0].t_min == 8.0  # first sample of the flat stretch
        assert intervals[0].value_at_min == pytest.approx(0.2, abs=0)
        # the max is a slope kink, so sub-grid refinement only lands nearby
        assert intervals[0].value_at_max == pytest.approx(0.6, abs=5e-3)

    def test_non_rising_interval_dropped(self):
        # Minima within the slack below zero are clipped to 0, so the small
        # bump between them, still below zero, does not rise.
        v = np.array([0.3, 0.1, -2e-9, -1e-9, -3e-9, 0.2, 0.4, 0.3])
        [interval] = find_extrema(ScalarTrajectory(dt=1.0, values=v))
        assert interval.t_min == pytest.approx(4.0, abs=0.5)
        assert interval.value_at_min == 0.0 and interval.value_at_max >= 0.4


def _reference_parabolic_vertex(ym1, y0, yp1):
    """Sub-grid extremum from three samples; offset in grid units from the middle."""
    den = 2.0 * (2.0 * y0 - yp1 - ym1)
    if abs(den) < 1e-300:
        return 0.0, y0
    p = (yp1 - ym1) / den
    return p, y0 - 0.25 * (ym1 - yp1) * p


def _reference_v_vertex(v, m):
    """Two-line intersection for a cusp-shaped minimum near sample m.

    An absolute-value kink (|b| crossing zero) is not a parabola; the
    crossing point is where the descending and ascending secant lines
    meet. Returns (offset, value) or None when the configuration is not
    cusp-like.
    """
    if v[m + 1] < v[m - 1]:
        if m + 2 >= v.size:
            return None
        s_left = v[m] - v[m - 1]
        s_right = v[m + 2] - v[m + 1]
        if not (s_left < 0.0 < s_right):
            return None
        x = (v[m + 1] - s_right - v[m]) / (s_left - s_right)
        if not (0.0 <= x <= 1.0):
            return None
        return x, v[m] + s_left * x
    if m - 2 < 0:
        return None
    s_left = v[m - 1] - v[m - 2]
    s_right = v[m + 1] - v[m]
    if not (s_left < 0.0 < s_right):
        return None
    x = (v[m] - v[m - 1] - s_left) / (s_left - s_right)
    if not (-1.0 <= x <= 0.0):
        return None
    return x, v[m] + s_right * x


def reference_find_extrema(sig):
    """The per-sign-change loop that `find_extrema` replaced: its bit oracle.

    Locates rising intervals (local min -> next local max) of a signal.

    Sign changes of the forward difference mark extrema; isolated ones are
    refined by parabolic interpolation (minima additionally try the
    cusp-aware two-line fit and keep whichever lies lower). Plateau runs
    (|difference| < plateau tolerance) are merged and reported at their
    leftmost sample. Intervals that do not rise are dropped. A monotone
    signal yields an empty list.
    """
    v = sig.values
    if v.size < 3:
        raise PhysicalityError("extremum detection needs at least 3 samples")
    d = np.diff(v)
    # Plateau threshold is relative to the local signal scale: signals like
    # the excited population decay over many decades and their late
    # oscillations must not be flattened by an absolute cutoff.
    local = np.maximum(np.abs(v[:-1]), np.abs(v[1:]))
    s = np.where(np.abs(d) < constants.PLATEAU_TOL * np.maximum(local, 1e-300), 0, np.sign(d)).astype(np.int8)
    nz = np.flatnonzero(s)
    if nz.size < 2:
        return []
    sgn = s[nz]
    changes = np.flatnonzero(sgn[:-1] != sgn[1:])
    extrema = []  # (time, value, kind) with kind +1 max / -1 min
    for c in changes:
        m = int(nz[c]) + 1  # leftmost sample of the extremum plateau
        width = int(nz[c + 1]) - int(nz[c])
        kind = 1 if sgn[c] > 0 else -1
        if width > 1:
            extrema.append((m * sig.dt, float(v[m]), kind))
            continue
        p, val = _reference_parabolic_vertex(v[m - 1], v[m], v[m + 1])
        if kind < 0:
            cusp = _reference_v_vertex(v, m)
            if cusp is not None and cusp[1] < val:
                p, val = cusp
        if kind < 0:
            val = max(0.0, val)
        extrema.append(((m + p) * sig.dt, float(val), kind))
    intervals = []
    for i, (t_lo, v_lo, kind) in enumerate(extrema):
        if kind >= 0 or i + 1 >= len(extrema):
            continue
        t_hi, v_hi, _ = extrema[i + 1]
        if v_hi <= v_lo:
            continue
        intervals.append(measure.ExtremumInterval(t_min=t_lo, t_max=t_hi, value_at_min=v_lo, value_at_max=v_hi))
    return intervals

def interval_bits(intervals):
    """Each interval's four floats as hex strings, so that -0.0 differs from 0.0."""
    return [tuple(float(x).hex() for x in dataclasses.astuple(iv)) for iv in intervals]


def assert_same_extrema(values, dt=0.01):
    sig = ScalarTrajectory(dt=dt, values=values)
    want = reference_find_extrema(sig)
    assert interval_bits(find_extrema(sig)) == interval_bits(want)
    return len(want)


def fuzz_signals(seed, count):
    """Seeded signals that reach every branch of the extremum refinement."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, 60))
        kind = rng.integers(6)
        if kind == 0:  # rough: a sign change at almost every sample
            v = rng.uniform(size=n)
        elif kind == 1:  # few levels: equal neighbours make plateaus
            v = rng.integers(0, 4, n) / 4.0
        elif kind == 2:  # rectified cosine on a coarse grid: cusp minima
            t = np.linspace(0.0, rng.uniform(1.0, 30.0), n)
            v = np.abs(np.cos(t + rng.uniform(0, 3)) * np.exp(-rng.uniform(0, 0.3) * t))
        elif kind == 3:  # around 1e-300: curvature terms below the 1e-300 cutoff
            v = rng.uniform(size=n) * 10.0 ** rng.uniform(-308, -298)
        elif kind == 4:  # minima within the slack below zero, clipped to 0
            v = rng.uniform(-1e-8, 1e-8, n)
        else:  # a smooth signal with rounding-level noise on top
            t = np.linspace(0.0, 10.0, n)
            v = 0.5 + 0.4 * np.sin(t) + rng.normal(scale=1e-15, size=n)
        yield v


class TestFindExtremaMatchesReference:
    """The array version of find_extrema against the per-sign-change loop, bit for bit."""

    def test_seeded_fuzz(self):
        found = sum(assert_same_extrema(v) for v in fuzz_signals(2024, 1000))
        assert found > 1000

    @pytest.mark.parametrize("values", [
        [1.0, 0.1, 0.9, 1.0],  # cusp at index 1, right secant: found
        [0.5, 0.1, 0.9, 1.0],  # cusp at index 1, left secant needs index -1
        [1.0, 0.9, 0.1, 0.5],  # cusp at n - 2, right secant needs index n
        [1.0, 0.4, 0.1, 0.9],  # cusp at n - 2, left secant: found
        [1.0, 0.5, 0.5, 0.5, 0.8, 0.8, 0.2, 0.2, 0.6],  # plateau minima and maxima
        [3e-301, 1e-301, 3e-301, 2e-301, 5e-301],  # |curvature term| < 1e-300
        [1.0, 0.0, 0.0, 1.0, -0.0, 0.5],  # signed zeros
        [1.0, -0.0, 0.5, 1.0],  # a cusp at a signed zero
        [1.0, 0.25, 0.5, 0.75],  # secants meeting exactly at the minimum's sample
        [0.3, -1e-9, 0.0, -1e-9, 0.3],  # a clipped minimum, then a maximum of exactly 0
    ])
    def test_edge_cases(self, values):
        assert_same_extrema(np.array(values))

    B = measure._SIGN_BLOCK

    @pytest.mark.parametrize("feature", [(0.1, 0.95, 0.3), (0.1, 0.97, 0.97, 0.97, 0.3)],
                             ids=["sign_change", "plateau"])
    @pytest.mark.parametrize("n", [B - 1, B, B + 1, B + 2, 3 * B + 1,
                                   4 * B - 1, 4 * B, 4 * B + 1, 4 * B + 2, 12 * B + 1])
    def test_sign_blocks(self, n, feature):
        # The signs are taken _SIGN_BLOCK = B differences at a time,
        # difference k joining samples k and k + 1. On a slow cosine, centre a
        # maximum on sample jB of each block boundary inside the signal and on
        # the last sample that leaves room for it: a peak, whose two
        # differences lie in different blocks, or a plateau whose zero
        # differences run across the boundary. Each follows a minimum, so
        # each is a reported interval.
        B = self.B
        v = 0.5 + 0.3 * np.cos(2.0 * np.pi * np.arange(n) / 5000.0)
        half = len(feature) // 2
        for b in (*range(B, n - 1 - half, B), n - 1 - half):
            v[b - half:b + half + 1] = feature
        sig = ScalarTrajectory(dt=0.01, values=v)
        # First, so that no array of it can reuse one the reference freed.
        got = interval_bits(find_extrema(sig))
        assert got == interval_bits(reference_find_extrema(sig))
        assert len(got) >= n // 5000

    @staticmethod
    def shelf(n, at, length, peak):
        """A slow cosine around 0.5 whose phase stops for `length` samples from sample `at`.

        With `peak`, the stop is on a maximum, so a plateau maximum follows
        a minimum; without, the stop is halfway down a slope, where the
        signs on both sides agree and no extremum lies.
        """
        k = np.arange(n, dtype=float)
        u = np.where(k < at, k, np.maximum(k - length, at)) - at
        return 0.5 + 0.3 * np.cos(2.0 * np.pi * (u if peak else u + 1250.0) / 5000.0)

    @pytest.mark.parametrize("at, length, peak", [
        (B // 2, 2 * B + 7, True),  # a plateau maximum longer than a block: one block has no sign
        (B // 2, 2 * B + 7, False),  # a shelf across a whole block on a slope: no extremum there
        (B - 3, 7, True),  # a plateau across the boundary
        (B - 1, 1, True),  # a plateau of two samples, B - 1 and B
        (2 * B, 3 * B, True),  # a plateau from the boundary through three blocks
    ])
    def test_sign_carry(self, at, length, peak):
        # The last nonzero sign of one block, and its index, carry to the next.
        n = 6 * self.B + 5
        v = self.shelf(n, at, length, peak)
        assert assert_same_extrema(v) >= (n - length) // 5000 - 1
        maxima = [iv.t_max for iv in find_extrema(ScalarTrajectory(dt=0.01, values=v))]
        assert (at * 0.01 in maxima) == peak  # the plateau maximum, at its leftmost sample

    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_sign_change_at_boundary(self, shift):
        # The last difference of block 0 rises and the first of block 1
        # falls (shift 0), or the change sits one sample either side.
        v = self.shelf(3 * self.B, self.B + shift, 0, True)
        assert assert_same_extrema(v) >= 3 * self.B // 5000 - 1

    @pytest.mark.parametrize("step_at", [0, 5, B - 1, B, 2 * B + 3])
    def test_single_nonzero_sign(self, step_at):
        # One step up in a constant signal: one nonzero sign, so no extremum,
        # wherever the step falls, also alone in a later block.
        v = np.zeros(3 * self.B + 1)
        v[step_at + 1:] = 1.0
        assert assert_same_extrema(v) == 0
        assert find_extrema(ScalarTrajectory(dt=0.01, values=v)) == []

    def test_memory_per_sample(self):
        # One block's temporaries and the sign changes, and no array of the
        # signal's length: at most 2 bytes a sample beyond it, at 2^20 samples.
        traj = lorentzian_trajectory(0.1, dt=2**-10, t_max=2**10 - 2**-10)
        sig = population_excited(traj)
        assert sig.values.size == 2**20
        tracemalloc.start()
        try:
            intervals = find_extrema(sig)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(intervals) > 50
        assert peak <= 2 * sig.values.size, f"peak {peak / sig.values.size:.2f} bytes per sample"

    def test_volterra_noise_tail(self):
        # Past t ~ 55 an 80k-step solve's |b| is rounding noise at |b|^2 ~ 1e-24,
        # with thousands of sign changes; a 60k-step noise tail holds fewer than 1000.
        cfg = SolverConfig(dt=1e-3, t_max=80.0, method=Method.VOLTERRA)
        traj = compute_trajectory(Lorentzian(1.0, 1.0), cfg)
        eg = pair_distance(traj, StatePair(excited_state(), ground_state()))
        for sig in (pair_distance(traj, optimal_pair()), population_excited(traj), eg):
            assert assert_same_extrema(sig.values, dt=sig.dt) > 1000


class TestBlp:
    def test_markovian_pair_total_zero(self):
        traj = lorentzian_trajectory(10.0, t_max=20.0)
        assert find_extrema(pair_distance(traj, EG_PAIR)) == []
        _, report, _ = measures(traj, Lorentzian(1.0, 10.0))
        assert report.total == 0.0
        assert report.contributions == ()
        assert report.tail_bound == 0.0

    def test_excited_ground_geometric_total(self):
        _, report, _ = lorentzian_measures(0.1)
        q2 = geometric_ratio(0.1) ** 2
        # oracle: direct summation over the maxima ladder q^{2n}
        oracle = sum(q2**n for n in range(1, 40))
        assert report.total == pytest.approx(oracle, abs=1e-6)
        assert report.total == pytest.approx(q2 / (1 - q2), abs=1e-6)

    def test_optimal_pair_equals_single_measure(self):
        traj = lorentzian_trajectory(0.1)
        blp = pair_blp_sum(traj, optimal_pair())
        assert blp == pytest.approx(single(traj, Lorentzian(1.0, 0.1)).total, abs=1e-8)
        assert blp == pytest.approx(0.9470, abs=1e-3)

    def test_total_is_sum_of_contributions(self):
        report = lorentzian_measures(0.3)[0]
        assert report.total == pytest.approx(math.fsum(report.contributions), abs=1e-12)
        assert all(c >= 0 for c in report.contributions)


class TestSingleMeasure:
    def test_geometric_value_wide(self):
        report = lorentzian_measures(0.1)[0]
        q = geometric_ratio(0.1)
        assert report.total == pytest.approx(q / (1 - q), abs=1e-3)
        assert report.closed_form_total == pytest.approx(q / (1 - q), abs=1e-12)
        assert report.regime is Regime.NON_MARKOVIAN
        assert report.kappa == pytest.approx(np.sqrt(0.19), abs=1e-12)

    def test_geometric_value_equal_rates(self):
        report = lorentzian_measures(1.0)[0]
        assert report.total == pytest.approx(1.0 / (math.exp(math.pi) - 1.0), abs=1e-4)

    def test_markovian_and_critical_zero(self):
        for width in (2.0, 5.0, 10.0):
            report = lorentzian_measures(width, t_max=60.0)[0]
            assert report.total == 0.0
            assert len(report.contributions) == 0

    def test_tail_bound_overestimates_remainder(self):
        for width in (0.1, 0.5, 1.0):
            report = lorentzian_measures(width)[0]
            q = geometric_ratio(width)
            omitted = q / (1 - q) - report.total
            assert report.tail_bound >= omitted > 0

    @pytest.mark.parametrize("method", (Method.CLOSED_FORM, Method.VOLTERRA))
    def test_short_horizon_is_measured(self, method):
        # At t_max 60 the envelope is still 0.055: the first four maxima are
        # summed and the tail covers the rest, on either grid.
        cfg = SolverConfig(dt=1e-3, t_max=60.0, method=method)
        model = Lorentzian(1.0, 0.1)
        report = single(compute_trajectory(model, cfg), model)
        assert len(report.intervals) == 4
        assert 0.0 <= report.closed_form_total - report.total <= report.tail_bound

    def test_nonvanishing_minima_summed_as_rises(self):
        # |b| lifted away from zero: 0.5|b| + 0.4 rises by half as much as |b|,
        # and its population's minima sit at 0.4^2.
        traj = lorentzian_trajectory(0.1)
        values = 0.5 * np.abs(traj.values) + 0.4
        values[0] = 1.0
        model = Lorentzian(1.0, 0.1)
        lifted = AmplitudeTrajectory(dt=traj.dt, values=values)
        report = single(lifted, model)
        assert all(abs(iv.value_at_min - 0.16) <= 1e-8 for iv in report.intervals)
        assert report.contributions == tuple(
            math.sqrt(iv.value_at_max) - math.sqrt(iv.value_at_min) for iv in report.intervals)
        assert report.total == pytest.approx(0.5 * single(traj, model).total, abs=1e-8)


class TestPopulationMeasure:
    def test_matches_amplitude_route(self):
        # |b| searched by itself: its minima are refined on |b|, not on |b|^2.
        traj = lorentzian_trajectory(0.1)
        p = single(traj, Lorentzian(1.0, 0.1))
        assert abs(pair_blp_sum(traj, optimal_pair()) - p.total) <= 1e-9

    def test_half_width_value(self):
        # Independently derived: kappa = sqrt(3)/2, total = 1/(e^{pi G/k} - 1).
        report = lorentzian_measures(0.5)[0]
        q = geometric_ratio(0.5)
        oracle = sum(q**n for n in range(1, 60))
        assert report.total == pytest.approx(oracle, abs=1e-6)
        assert report.total == pytest.approx(0.194790, abs=1e-4)

    def test_amplitude_above_one_within_slack(self):
        values = lorentzian_trajectory(1.0).values.copy()
        values[1] = 1.0 + 9e-9  # AmplitudeTrajectory accepts up to 1 + 1e-8
        traj = AmplitudeTrajectory(dt=1e-3, values=values)
        pop = population_excited(traj)
        assert pop.values.max() == 1.0
        report = population_measures(pop, Lorentzian(1.0, 1.0))[0]
        assert abs(report.total - lorentzian_measures(1.0)[0].total) <= 1e-9

    def test_eg_pair_above_one_within_slack(self):
        clean = lorentzian_trajectory(1.0)
        values = clean.values.copy()
        values[1] = 1.0 + 9e-9
        traj = AmplitudeTrajectory(dt=1e-3, values=values)
        eg_pair = StatePair(excited_state(), ground_state())
        assert abs(pair_blp_sum(traj, eg_pair) - pair_blp_sum(clean, eg_pair)) <= 1e-9

    def test_constant_population_zero(self):
        sig = ScalarTrajectory(dt=0.1, values=np.ones(100))
        report = population_measures(sig)[0]
        assert report.total == 0.0


class TestTwoQubitLowerBound:
    def test_term_by_term_oracle(self):
        report = lorentzian_measures(0.1)[2]
        q = geometric_ratio(0.1)
        xs = q ** np.arange(1, 200)
        oracle = float(np.sum(xs * np.sqrt(2.0 - 2.0 * xs**2 + xs**4)))
        assert report.total == pytest.approx(oracle, abs=1e-6)
        assert report.total == pytest.approx(1.2529, abs=1e-3)

    def test_first_contribution(self):
        report = lorentzian_measures(0.1)[2]
        x = geometric_ratio(0.1)
        assert report.contributions[0] == pytest.approx(
            x * math.sqrt(2 - 2 * x * x + x**4), abs=1e-8
        )
        assert report.contributions[0] == pytest.approx(0.611934, abs=1e-5)

    def test_population_form_agrees(self):
        # The |++>/|--> distance searched by itself, against the population form.
        traj = lorentzian_trajectory(0.1)
        a = sum_of_rises(signal(traj, trace_distance_two(traj.values)))
        p = measures(traj, Lorentzian(1.0, 0.1))[2]
        assert abs(a - p.total) <= 1e-9

    def test_markovian_zero(self):
        report = lorentzian_measures(5.0, t_max=60.0)[2]
        assert report.total == 0.0


EG_PAIR = StatePair(excited_state(), ground_state())


def detuned_trajectory(detuning):
    cfg = SolverConfig(dt=0.01, t_max=default_horizon(1.0, 0.1, detuning), method=Method.CLOSED_FORM)
    return compute_trajectory(Lorentzian(1.0, 0.1, detuning), cfg)


def per_pair_sums(traj):
    """The BLP sums of the |+>/|->, |e>/|g> and |++>/|--> distance signals, each searched by itself."""
    return (pair_blp_sum(traj, optimal_pair()), pair_blp_sum(traj, EG_PAIR),
            sum_of_rises(signal(traj, trace_distance_two(traj.values))))


class TestNonvanishingMinima:
    """The population's sums of rises where its minima stay well above zero."""

    @pytest.mark.parametrize("detuning", [0.3, 1.0])
    def test_detuned_lorentzian_equals_per_pair_sums(self, detuning):
        traj = detuned_trajectory(detuning)
        reports = measures(traj)
        assert min(iv.value_at_min for iv in reports[0].intervals) > 0.05
        for report, want in zip(reports, per_pair_sums(traj)):
            assert abs(report.total - want) <= 1e-9
        n_single, n_eg, _ = (r.total for r in reports)
        assert n_eg > n_single  # the paper's |+>/|-> pair is no longer the best
        assert brute_force_max(traj, 21).best_total >= n_eg - 1e-9

    def test_raised_minima_equal_per_pair_sums(self):
        # At dt = 0.01 the parabolic refinements of b and of b^2 differ by
        # about 1e-9 per extremum, so over six intervals the sums searched on
        # each agree to 1e-8 (2.6e-9 and 4.2e-9 seen).
        traj = decayed(raised_minima_trajectory())
        reports = measures(traj)
        assert min(iv.value_at_min for iv in reports[0].intervals) > 0.04
        for report, want in zip(reports, per_pair_sums(traj)):
            assert abs(report.total - want) <= 1e-8
        assert brute_force_max(traj, 21).best_total >= max(r.total for r in reports[:2]) - 1e-9

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_random_trajectory_eg_equals_per_pair_sum(self, seed):
        # Only the |e>/|g> distance |b|^2 is the population itself. |b| has a
        # kink after the forced b(0) = 1 and cusps where b crosses zero, whose
        # refined minima are not those of |b|^2, so the other pairs' sums
        # searched on their own signals differ at dt = 0.01.
        traj = decayed(random_trajectory(seed))
        _, n_eg, _ = measures(traj)
        assert abs(n_eg.total - per_pair_sums(traj)[1]) <= 1e-9


OHMIC = OhmicFamily(coupling=0.1, exponent=1.0, cutoff=1.0, qubit_frequency=1.0)


def gaussian_table():
    """A Gaussian spectrum of weight 7.5 and width 3 centred on the qubit frequency 100."""
    w = np.linspace(0.0, 200.0, 1000)
    j = 7.5 / (math.sqrt(2.0 * math.pi) * 3.0) * np.exp(-0.5 * ((w - 100.0) / 3.0) ** 2)
    return Tabulated(points=np.column_stack([w, j]), qubit_frequency=100.0)


class TestModelArgument:
    """`population_measures` reads its model only where that is a resonant Lorentzian."""

    @pytest.mark.parametrize("model, solver", [
        (Lorentzian(1.0, 0.1, 0.3), SolverConfig(dt=0.01, t_max=default_horizon(1.0, 0.1, 0.3))),
        (OHMIC, SolverConfig(dt=0.01, t_max=100.0, method=Method.VOLTERRA)),
        (gaussian_table(), SolverConfig(dt=0.01, t_max=10.0, method=Method.VOLTERRA)),
    ], ids=["detuned", "ohmic", "tabulated"])
    def test_other_models_report_as_no_model(self, model, solver):
        p = population_excited(compute_trajectory(model, solver))
        reports = population_measures(p, model)
        assert reports == population_measures(p)
        for report in reports:
            assert report.intervals and report.regime is None and report.kappa is None
            assert report.closed_form_total is None

    @pytest.mark.parametrize("model", [None, Lorentzian(1.0, 0.1, 0.3), OHMIC],
                             ids=["none", "detuned", "ohmic"])
    def test_other_models_keep_the_trailing_check(self, model):
        # |b| still oscillates near 0.6 at the horizon, and no model bounds what follows.
        p = population_excited(raised_minima_trajectory())
        with pytest.raises(HorizonError) as err:
            population_measures(p, model)
        assert str(err.value) == (
            "signal still reaches 6.208e-01 over the last 5% of the horizon; extend t_max")

    @pytest.mark.parametrize("width", [2.0, 5.0])
    def test_resonant_markovian_model_reports_exact_zeros(self, width):
        # At t_max 5 |b| is still above 1e-2, and P falls without a rise.
        model = Lorentzian(1.0, width)
        for report in lorentzian_measures(width, t_max=5.0):
            assert report.regime is classify_regime(model) is not Regime.NON_MARKOVIAN
            assert report.kappa == kappa(model)
            assert report.total == report.tail_bound == 0.0 and report.intervals == ()
            assert report.closed_form_total is None

    def test_resonant_markovian_model_skips_the_trailing_check(self):
        p = population_excited(raised_minima_trajectory())
        reports = population_measures(p, Lorentzian(1.0, 5.0))
        assert reports[0].regime is Regime.MARKOVIAN and len(reports[0].intervals) == 9

    @pytest.mark.parametrize("route, line", [
        (lambda: lorentzian_measures(0.1, t_max=60.0),
         r"measure: grid of 60001 samples, 4 rising intervals found, 4 kept, "
         r"tail 0\.0530060697\d+, exact geometric remainder"),
        (lambda: measures(detuned_trajectory(0.3)),
         r"measure: grid of 89306 samples, 3 rising intervals found, 3 kept, "
         r"tail 3\.605\d+e-05, estimate"),
    ], ids=["resonant", "detuned"])
    def test_one_debug_line(self, caplog, route, line):
        with caplog.at_level(logging.DEBUG, logger="nonmarkov.measure"):
            route()
        lines = [r.getMessage() for r in caplog.records if r.name == "nonmarkov.measure"]
        assert len(lines) == 1 and re.fullmatch(line, lines[0]), lines


class TestMonotonicityAcrossWidths:
    def test_measure_decreases_and_eg_dominated(self):
        totals, eg_totals = [], []
        for width in np.linspace(0.1, 1.0, 10):
            traj = lorentzian_trajectory(float(width))
            totals.append(single(traj, Lorentzian(1.0, float(width))).total)
            eg_totals.append(pair_blp_sum(traj, EG_PAIR))
        assert np.all(np.diff(totals) < 0)
        assert all(eg < full for eg, full in zip(eg_totals, totals))


def reference_state_pairs(samples, seed):
    """The pairs drawn array after array from one generator, in one pass."""
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(size=samples)
    mu = rng.uniform(size=samples)
    r1 = np.sqrt(alpha * (1.0 - alpha)) * np.sqrt(rng.uniform(size=samples))
    th1 = rng.uniform(0.0, 2.0 * np.pi, size=samples)
    r2 = np.sqrt(mu * (1.0 - mu)) * np.sqrt(rng.uniform(size=samples))
    th2 = rng.uniform(0.0, 2.0 * np.pi, size=samples)
    return alpha, r1 * np.exp(1j * th1), mu, r2 * np.exp(1j * th2)


def reference_verify(b_traj, samples, seed, bound_scale=1.0):
    """`verify_theorem` over the full arrays at once, the oracle for its blocked scan."""
    alpha, beta, mu, nu = reference_state_pairs(samples, seed)
    x = float(np.max(np.abs(b_traj.values)))
    ratios = np.sqrt(x * x * (alpha - mu) ** 2 + np.abs(beta - nu) ** 2)
    excess = x * (ratios - bound_scale)
    violations = int(np.sum(excess > constants.THEOREM_SLACK))
    worst = int(np.argmax(excess))
    worst_pair = None
    if violations:
        worst_pair = StatePair(
            first=QubitInitialState(float(alpha[worst]), complex(beta[worst])),
            second=QubitInitialState(float(mu[worst]), complex(nu[worst])),
        )
    canonical_error = abs(1.0 - bound_scale) * x
    return TheoremVerification(
        samples=samples,
        seed=seed,
        violations=violations,
        max_ratio=float(np.max(ratios)),
        worst_excess=float(np.max(excess)),
        worst_pair=worst_pair,
        canonical_error=canonical_error,
        ok=violations == 0 and canonical_error <= constants.CANONICAL_EQUALITY_TOL,
    )


class TestVerifyTheorem:
    def test_canonical_pair_exact(self):
        traj = lorentzian_trajectory(0.1, t_max=60.0)
        report = verify_theorem(traj, samples=100, seed=1)
        assert report.canonical_error == 0.0
        assert report.ok

    def test_excited_ground_ratio_is_amplitude(self):
        pair = StatePair(excited_state(), ground_state())
        traj = lorentzian_trajectory(0.1, t_max=60.0)
        x = float(np.max(np.abs(traj.values)))
        from nonmarkov.dynamics import trace_distance_single

        assert trace_distance_single(pair, x) == pytest.approx(x * x, abs=1e-12)

    def test_no_violations_large_sample(self):
        traj = lorentzian_trajectory(0.1, t_max=60.0)
        report = verify_theorem(traj, samples=10000, seed=42)
        assert report.violations == 0
        assert report.max_ratio <= 1.0 + 1e-12

    def test_fault_injection_detected(self):
        traj = lorentzian_trajectory(0.1, t_max=60.0)
        report = verify_theorem(traj, samples=500, seed=42, bound_scale=0.9)
        assert not report.ok
        assert report.canonical_error == pytest.approx(0.1 * np.max(np.abs(traj.values)))
        assert report.violations > 0
        assert report.worst_pair is not None

    def test_deterministic_given_seed(self):
        traj = lorentzian_trajectory(0.1, t_max=60.0)
        a = verify_theorem(traj, samples=200, seed=7)
        b = verify_theorem(traj, samples=200, seed=7)
        assert a == b

    def test_sampler_respects_disk(self):
        alpha, beta, mu, nu = sample_state_pairs(5000, 3)
        assert np.all(np.abs(beta) ** 2 <= alpha * (1 - alpha) + 1e-12)
        assert np.all(np.abs(nu) ** 2 <= mu * (1 - mu) + 1e-12)

    def test_sampler_matches_one_pass(self):
        got = sample_state_pairs(1000, 11)
        for a, b in zip(got, reference_state_pairs(1000, 11)):
            assert np.array_equal(a, b)
        block = measure._state_pair_block(1000, 11, 300, 701)
        for a, b in zip(block, got):
            assert np.array_equal(a, b[300:701])

    @pytest.mark.parametrize("block", [7, 64, 1000])
    @pytest.mark.parametrize("bound_scale", [1.0, 0.9])
    def test_blocked_scan_matches_full_arrays(self, monkeypatch, block, bound_scale):
        # 0.9 gives violations, so the first worst pair across blocks is compared too.
        monkeypatch.setattr(measure, "_VERIFY_BLOCK", block)
        traj = lorentzian_trajectory(0.1, t_max=60.0)
        got = verify_theorem(traj, samples=1000, seed=42, bound_scale=bound_scale)
        assert got == reference_verify(traj, 1000, 42, bound_scale)
        assert (got.worst_pair is not None) == (bound_scale < 1.0)

    @pytest.mark.parametrize("block", [7, 64, 1000, measure._VERIFY_BLOCK, 1 << 16])
    @pytest.mark.parametrize("bound_scale", [1.0, 0.9, 0.5, 0.0, 1.1])
    def test_pruned_scan_matches_every_pair(self, monkeypatch, block, bound_scale):
        # The angle-free bound leaves pairs out; the report must not notice.
        # The last two blocks each hold all 2000 pairs.
        monkeypatch.setattr(measure, "_VERIFY_BLOCK", block)
        traj = lorentzian_trajectory(0.1, t_max=60.0)
        for seed in range(20):
            assert verify_theorem(traj, 2000, seed, bound_scale) == reference_verify(
                traj, 2000, seed, bound_scale)

    @pytest.mark.parametrize("bound_scale", [1.0, 0.9])
    def test_pruned_scan_matches_above_unit_amplitude(self, bound_scale):
        values = lorentzian_trajectory(0.1, t_max=60.0).values.copy()
        values[1] = 1.0 + 5e-9  # inside AMPLITUDE_BOUND_SLACK, so x != 1
        traj = AmplitudeTrajectory(dt=1e-3, values=values)
        for seed in range(5):
            got = verify_theorem(traj, 20_000, seed, bound_scale)
            assert got == reference_verify(traj, 20_000, seed, bound_scale)

    def test_pruned_scan_matches_at_benchmark_size(self):
        traj = lorentzian_trajectory(0.1, t_max=60.0)
        assert verify_theorem(traj, 10**6, 12345) == reference_verify(traj, 10**6, 12345)

    @pytest.mark.parametrize("block", [7, 16])
    def test_pairs_at_their_bound_are_kept(self, monkeypatch, block):
        # With nu = 0 and one alpha and |beta| for all pairs, every ratio is
        # its bound up to the rounding of |beta|, and a few lie above it: a
        # floor without its rounding margin would drop them.
        draws = measure._draws

        def degenerate(samples, seed, i, start, stop):
            if i in (3, 5):  # the angles stay random
                return draws(samples, seed, i, start, stop)
            return np.full(stop - start, {0: 0.3, 1: 0.0, 2: 0.7, 4: 0.5}[i])

        monkeypatch.setattr(measure, "_draws", degenerate)
        monkeypatch.setattr(measure, "_VERIFY_BLOCK", block)
        traj = lorentzian_trajectory(0.1, t_max=60.0)
        alpha, beta, mu, nu = sample_state_pairs(1000, 5)
        ratios = np.sqrt((alpha - mu) ** 2 + np.abs(beta - nu) ** 2)  # max|b| = 1 here
        assert np.ptp(ratios) > 0.0
        for bound_scale in (1.0, float(np.max(ratios)) - constants.THEOREM_SLACK):
            excess = ratios - bound_scale
            got = verify_theorem(traj, 1000, 5, bound_scale)
            assert got.max_ratio == np.max(ratios) and got.worst_excess == np.max(excess)
            assert got.violations == np.sum(excess > constants.THEOREM_SLACK)
            if got.violations:
                k = int(np.argmax(excess))
                assert (got.worst_pair.first.beta, got.worst_pair.second.alpha) == (beta[k], mu[k])

    @pytest.mark.parametrize("bound_scale", [math.nan, math.inf, -math.inf])
    def test_non_finite_bound_scale_rejected(self, bound_scale):
        traj = lorentzian_trajectory(0.1, t_max=60.0)
        with pytest.raises(PhysicalityError, match=f"bound_scale must be finite, got {bound_scale}"):
            verify_theorem(traj, samples=100, seed=1, bound_scale=bound_scale)

    def test_negative_bound_scale_flags_every_pair(self):
        traj = lorentzian_trajectory(0.1, t_max=60.0)
        report = verify_theorem(traj, samples=100, seed=1, bound_scale=-1.0)
        assert report.violations == 100 and not report.ok

    @pytest.mark.parametrize("bound_scale", [1.0, 0.9])
    def test_debug_line_counts_pairs_evaluated(self, caplog, bound_scale):
        traj = lorentzian_trajectory(0.1, t_max=60.0)
        with caplog.at_level(logging.DEBUG, logger="nonmarkov.measure"):
            report = verify_theorem(traj, samples=10**5, seed=42, bound_scale=bound_scale)
        [line] = [r.getMessage() for r in caplog.records if r.name == "nonmarkov.measure"]
        match = re.fullmatch(r"verify_theorem: evaluated (\d+) of 100000 pairs exactly, floor (\S+)",
                             line)
        assert match, line
        evaluated, floor = int(match[1]), float(match[2])
        if bound_scale == 1.0:
            assert 1 <= evaluated <= 1000 and floor <= report.max_ratio
        else:
            assert evaluated >= report.violations > 0 and floor < 0.9 + 1e-9

    def test_memory_does_not_grow_with_samples(self):
        traj = lorentzian_trajectory(0.5, t_max=60.0)
        peaks = []
        for samples in (200_000, 800_000):
            tracemalloc.start()
            try:
                verify_theorem(traj, samples=samples, seed=3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # Full arrays would take about 12 x 8 bytes per pair: 19 MB, then 77 MB.
        assert peaks[1] <= 1.1 * peaks[0]
        assert peaks[1] < 16 * 2**20

    def test_peak_is_one_block(self):
        # max|b| makes no |b| of the grid's length, and a block holds seven
        # float arrays and one index array of _VERIFY_BLOCK pairs: the traced
        # peak is that block's, the same at 10^5 and 10^6 pairs.
        traj = lorentzian_trajectory(0.5)
        verify_theorem(traj, samples=10, seed=3)  # allocations made once per process
        peaks = []
        for samples in (10**5, 10**6):
            tracemalloc.start()
            try:
                verify_theorem(traj, samples=samples, seed=3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.01 * peaks[0]
        assert peaks[1] <= 72 * measure._VERIFY_BLOCK, f"{peaks[1] / measure._VERIFY_BLOCK:.1f} bytes per pair"


def amplitude_extrema(b_traj):
    """The rising intervals of the excited population P at x = sqrt(P), where every pair's distance rises."""
    return [measure.ExtremumInterval(iv.t_min, iv.t_max, math.sqrt(iv.value_at_min), math.sqrt(iv.value_at_max))
            for iv in find_extrema(population_excited(b_traj))]


def full_grid_best(b_traj, density):
    """Reference pair search scoring the whole 4-d grid at once."""
    intervals = amplitude_extrema(b_traj)
    level = np.linspace(0.0, 1.0, density)
    radius = np.linspace(-1.0, 1.0, density)
    al, rb, mu, rn = np.meshgrid(level, radius, level, radius, indexing="ij")
    beta = rb * np.sqrt(al * (1.0 - al))
    nu = rn * np.sqrt(mu * (1.0 - mu))
    a2 = (al - mu) ** 2
    b2 = (beta - nu) ** 2
    score = np.zeros_like(a2)
    for iv in intervals:
        hi, lo = iv.value_at_max, iv.value_at_min
        score += hi * np.sqrt(hi * hi * a2 + b2) - lo * np.sqrt(lo * lo * a2 + b2)
    idx = np.unravel_index(int(np.argmax(score)), score.shape)
    return (float(level[idx[0]]), complex(beta[idx]), float(level[idx[2]]), complex(nu[idx]))


def reference_brute_force(b_traj, density):
    """The pair search scoring every interval's full expression, one alpha slice at a time.

    Returns the best pair and its score.
    """
    intervals = amplitude_extrema(b_traj)
    level = np.linspace(0.0, 1.0, density)
    radius = np.linspace(-1.0, 1.0, density)
    mu = level[None, :, None]
    nu = radius[None, None, :] * np.sqrt(mu * (1.0 - mu))
    best_score = -np.inf
    for al in level:
        beta = radius[:, None, None] * np.sqrt(al * (1.0 - al))
        a2 = (al - mu) ** 2
        b2 = (beta - nu) ** 2
        score = np.zeros(b2.shape)
        for iv in intervals:
            hi, lo = iv.value_at_max, iv.value_at_min
            score += hi * np.sqrt(hi * hi * a2 + b2) - lo * np.sqrt(lo * lo * a2 + b2)
        flat = int(np.argmax(score))
        if score.flat[flat] > best_score:
            best_score = score.flat[flat]
            j, k, m = np.unravel_index(flat, score.shape)
            best_pair = StatePair(
                first=QubitInitialState(float(al), complex(beta[j, 0, 0])),
                second=QubitInitialState(float(level[k]), complex(nu[0, k, m])),
            )
    return best_pair, float(best_score)


def random_trajectory(seed, samples=3001, dt=0.01):
    """A seeded damped three-tone b(t) with |b| <= 1: raised minima for some seeds, zero crossings for others."""
    rng = np.random.default_rng(seed)
    t = dt * np.arange(samples)
    wave = sum(a * np.cos(w * t + p) for a, w, p in zip(
        rng.uniform(0.2, 1.0, 3), rng.uniform(0.3, 3.0, 3), rng.uniform(0.0, 2 * np.pi, 3)))
    wave /= np.max(np.abs(wave))
    center = rng.uniform(-0.2, 0.6)
    values = (center + (1.0 - abs(center)) * wave) * np.exp(-rng.uniform(0.01, 0.1) * t)
    values[0] = 1.0
    return AmplitudeTrajectory(dt=dt, values=values)


def raised_minima_trajectory():
    t = 0.01 * np.arange(6001)
    values = 0.6 + 0.4 * np.cos(t) * np.exp(-0.05 * t)
    values[0] = 1.0
    return AmplitudeTrajectory(dt=0.01, values=values)


def decayed(traj):
    """traj times exp(-20 (t/T)^8): |b| ends below the general-spectrum horizon check's 1e-4."""
    t = traj.times()
    return AmplitudeTrajectory(dt=traj.dt, values=traj.values * np.exp(-20.0 * (t / t[-1]) ** 8))


def grid_scores(intervals, density):
    """Every cell score of the (alpha, beta, mu, nu) grid, by the full expression."""
    level = np.linspace(0.0, 1.0, density)
    radius = np.linspace(-1.0, 1.0, density)
    al, rb, mu, rn = np.meshgrid(level, radius, level, radius, indexing="ij")
    a2 = (al - mu) ** 2
    b2 = (rb * np.sqrt(al * (1.0 - al)) - rn * np.sqrt(mu * (1.0 - mu))) ** 2
    score = np.zeros_like(a2)
    for iv in intervals:
        hi, lo = iv.value_at_max, iv.value_at_min
        score += hi * np.sqrt(hi * hi * a2 + b2) - lo * np.sqrt(lo * lo * a2 + b2)
    return score


class TestBruteForce:
    def test_memory_per_step(self):
        # The benchmark's op: b and its population (8 bytes a step each)
        # beside the search's fixed blocks, at width 0.1 (386 407 steps).
        cfg = SolverConfig(dt=1e-3, t_max=default_horizon(1.0, 0.1))
        tracemalloc.start()
        try:
            brute_force_max(compute_trajectory(Lorentzian(1.0, 0.1), cfg), 41)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * cfg.steps, f"peak {peak / cfg.steps:.1f} bytes per step"

    def test_converges_to_single_measure(self):
        traj = lorentzian_trajectory(0.1)
        n_single = single(traj, Lorentzian(1.0, 0.1))
        result = brute_force_max(traj, grid_density=21)
        assert result.best_total <= n_single.total + 1e-6
        assert abs(result.best_total - n_single.total) < 1e-3
        pair = result.best_pair
        assert abs(pair.first.alpha - 0.5) <= 0.05
        assert abs(pair.second.alpha - 0.5) <= 0.05
        assert abs(pair.first.beta - pair.second.beta) >= 0.95

    def test_markovian_input_zero(self):
        traj = lorentzian_trajectory(10.0, t_max=20.0)
        result = brute_force_max(traj, grid_density=5)
        assert result.best_total == 0.0

    @pytest.mark.parametrize("width", [0.1, 0.5, 10.0])
    @pytest.mark.parametrize("density", [3, 4, 5, 8])
    def test_matches_full_grid_search(self, width, density):
        # Every grid has ties: the score is symmetric under swapping the two
        # states and under flipping both coherences, and a Markovian signal
        # scores 0 everywhere. The first index in C order must win.
        traj = lorentzian_trajectory(width, t_max=20.0 if width > 2 else 60.0)
        pair = brute_force_max(traj, grid_density=density).best_pair
        got = (pair.first.alpha, pair.first.beta, pair.second.alpha, pair.second.beta)
        assert got == full_grid_best(traj, density)

    @pytest.mark.parametrize(
        "width, t_max, density",
        [(0.1, None, 9), (0.1, None, 21), (0.1, None, 8), (0.5, 60.0, 9), (0.5, 60.0, 8),
         (10.0, 20.0, 9)],
    )
    def test_matches_reference_search(self, width, t_max, density):
        traj = lorentzian_trajectory(width, t_max=t_max)
        result = brute_force_max(traj, grid_density=density)
        assert (result.best_pair, result.best_total) == reference_brute_force(traj, density)

    @pytest.mark.parametrize("density", [8, 9])
    def test_matches_reference_search_on_raised_minima(self, density):
        # Minima near 0.2 make the excited/ground pair beat |+>/|->, so the
        # winner depends on every minimum term.
        t = 0.01 * np.arange(6001)
        values = 0.6 + 0.4 * np.cos(t) * np.exp(-0.05 * t)
        values[0] = 1.0
        traj = AmplitudeTrajectory(dt=0.01, values=values)
        result = brute_force_max(traj, grid_density=density)
        assert abs(result.best_pair.first.alpha - result.best_pair.second.alpha) == 1.0
        assert (result.best_pair, result.best_total) == reference_brute_force(traj, density)

    @pytest.mark.parametrize("seed", [None, 1, 2, 3, 4, 5])
    @pytest.mark.parametrize("density", [8, 9, 12])
    def test_row_bound_covers_its_row_and_is_a_cell_score(self, seed, density):
        # seed None is the raised-minima trajectory, where lo > 0 makes the
        # monotonicity argument carry the minimum terms too.
        traj = raised_minima_trajectory() if seed is None else random_trajectory(seed)
        intervals = amplitude_extrema(traj)
        assert intervals
        bound, tol = measure._row_bounds(intervals, np.linspace(0.0, 1.0, density))
        score = grid_scores(intervals, density)
        assert np.array_equal(bound, score[:, 0, :, -1])
        assert np.all(score <= bound[:, None, :, None] + tol)

    def test_matches_reference_search_at_benchmark_density(self):
        traj = lorentzian_trajectory(0.1)
        result = brute_force_max(traj, grid_density=41)
        assert (result.best_pair, result.best_total) == reference_brute_force(traj, 41)

    @pytest.mark.parametrize("seed", range(10, 18))
    @pytest.mark.parametrize("density", [8, 9])
    def test_matches_reference_search_on_random_trajectories(self, seed, density):
        traj = random_trajectory(seed)
        result = brute_force_max(traj, grid_density=density)
        assert (result.best_pair, result.best_total) == reference_brute_force(traj, density)

    def test_debug_line_counts_rows_scored(self, caplog):
        traj = lorentzian_trajectory(0.1)
        with caplog.at_level(logging.DEBUG, logger="nonmarkov.measure"):
            brute_force_max(traj, grid_density=41)
        [line] = [r.getMessage() for r in caplog.records if r.name == "nonmarkov.measure"]
        match = re.fullmatch(r"brute_force_max: scored (\d+) of 1681 \(alpha, mu\) rows, "
                             r"(\d+) intervals, tol (\S+)", line)
        assert match, line
        # The whole grid is 1681 rows; the bound leaves only the optimal pair's.
        assert 1 <= int(match[1]) <= 2
        assert int(match[2]) == len(find_extrema(population_excited(traj)))
        assert 0.0 < float(match[3]) < 1e-6

    @pytest.mark.parametrize("seed", range(1, 17))
    def test_not_below_single_measure(self, seed):
        # The |+>/|-> cell scores the rises n_single sums, on the same extrema.
        traj = decayed(random_trajectory(seed))
        n_single = single(traj).total
        result = brute_force_max(traj, grid_density=21)
        assert result.best_total >= n_single - 1e-12
        pair = result.best_pair
        if pair.first.alpha == pair.second.alpha == 0.5 and abs(pair.first.beta - pair.second.beta) == 1.0:
            assert abs(result.best_total - n_single) <= 1e-12

    @pytest.mark.parametrize("width", [0.1, 0.5])
    def test_resonant_total_within_tail_bound(self, width):
        # n_single stops at the envelope cutoff; the search keeps every interval.
        traj = lorentzian_trajectory(width)
        n_single = single(traj, Lorentzian(1.0, width))
        assert abs(brute_force_max(traj, grid_density=21).best_total - n_single.total) <= n_single.tail_bound

    def test_scores_zero_and_nonzero_minima(self):
        # The minimum term is 0 at an exact zero of P and subtracted elsewhere:
        # this trajectory's P has 14 minima clipped to 0 and 5 above it.
        traj = decayed(random_trajectory(1))
        lows = [iv.value_at_min for iv in find_extrema(population_excited(traj))]
        assert 0.0 in lows and any(v != 0.0 for v in lows)
        result = brute_force_max(traj, grid_density=9)
        assert (result.best_pair, result.best_total) == reference_brute_force(traj, 9)

    def test_grid_density_floor(self):
        traj = lorentzian_trajectory(0.5, t_max=60.0)
        with pytest.raises(PhysicalityError):
            brute_force_max(traj, grid_density=2)


def mpmath_ratio(width):
    """q = e^{-pi width/kappa} at 50 digits, gamma0 = 1."""
    with mpmath.workdps(50):
        w = mpmath.mpf(width)
        return mpmath.exp(-mpmath.pi * w / mpmath.sqrt(2 * w - w * w))


def mpmath_two_sum(q, first, last=None):
    """Sum of D2(q^n) = q^n sqrt(2 - 2 q^2n + q^4n) over n = first .. last (to 1e-45 if None)."""
    with mpmath.workdps(50):
        total, n = mpmath.mpf(0), first
        while last is None or n <= last:
            x = q**n
            term = x * mpmath.sqrt(2 - 2 * x * x + x**4)
            if last is None and term < mpmath.mpf(10) ** -45:
                return total
            total += term
            n += 1
        return total


NARROW_TO_WIDE = (0.0005, 0.002, 0.01, 0.1, 0.5, 1.9)


def resonant(width, t_max=None):
    model = Lorentzian(1.0, width)
    return measure._resonant_measures(model, default_horizon(1.0, width) if t_max is None else t_max)


class TestResonantMeasures:
    """The grid-free reports of a resonant Lorentzian in closed form."""

    @pytest.mark.parametrize("width", NARROW_TO_WIDE)
    def test_totals_against_the_exact_series(self, width):
        # Each total is the partial sum to the N-th maximum of its series, and
        # the series' full value lies within the tail bound above the total;
        # where the remainder is below rounding (n_eg), the total may exceed it
        # by that rounding.
        reports = resonant(width)
        n = len(reports[0].intervals)
        q = mpmath_ratio(width)
        with mpmath.workdps(50):
            full = (q / (1 - q), q * q / (1 - q * q), mpmath_two_sum(q, 1))
            partial = (sum(q**m for m in range(1, n + 1)),
                       sum(q ** (2 * m) for m in range(1, n + 1)),
                       mpmath_two_sum(q, 1, n))
            for report, whole, part in zip(reports, full, partial):
                # q is rounded within about 8 |ln q| ulps, and |ln q| = 13.7 at width 1.9.
                assert abs(report.total - part) <= 1e-13 * whole
                assert -1e-14 * whole <= whole - report.total <= report.tail_bound
        assert reports[0].closed_form_total == pytest.approx(float(full[0]), rel=1e-13)

    @pytest.mark.parametrize("width", NARROW_TO_WIDE)
    def test_closed_form_total_within_the_tail_in_floating_point(self, width):
        report = resonant(width)[0]
        assert report.total <= report.closed_form_total <= report.total + report.tail_bound

    @pytest.mark.parametrize("width", (0.1, 0.5, 1.0))
    @pytest.mark.parametrize("dt", (1e-3, 5e-4))
    def test_grid_route_agrees(self, width, dt):
        exact = resonant(width)
        grid = lorentzian_measures(width, dt)
        for a, b in zip(exact, grid):
            assert len(a.intervals) == len(b.intervals)
            assert abs(a.total - b.total) <= 1e-11

    @pytest.mark.parametrize("width", (0.1, 0.5, 1.0))
    @pytest.mark.parametrize("t_max", (30.0, 60.0, 200.0, None))
    def test_grid_route_keeps_the_same_maxima(self, width, t_max):
        # Both routes keep a maximum by `_kept_maxima`, at short horizons too.
        exact = resonant(width, t_max)
        horizon = exact[0].horizon
        grid = lorentzian_measures(width, t_max=horizon)
        for a, b in zip(exact, grid):
            assert len(a.intervals) == len(b.intervals) > 0
            assert abs(a.total - b.total) <= 1e-11
        assert 0.0 <= grid[0].closed_form_total - grid[0].total <= grid[0].tail_bound

    @pytest.mark.parametrize("width", (0.0005, 0.1, 1.0))
    def test_extrema_are_exact(self, width):
        report = resonant(width)[0]
        n = len(report.intervals)
        k = kappa(Lorentzian(1.0, width))
        t_min = np.array([iv.t_min for iv in report.intervals])
        t_max = np.array([iv.t_max for iv in report.intervals])
        np.testing.assert_allclose(t_min, lorentzian_min_times(1.0, width, n), rtol=1e-12, atol=0)
        np.testing.assert_allclose(t_max, 2 * np.pi * np.arange(1, n + 1) / k, rtol=1e-12, atol=0)
        assert all(iv.value_at_min == 0.0 for iv in report.intervals)
        q = geometric_ratio(width)
        np.testing.assert_allclose([iv.value_at_max for iv in report.intervals],
                                   q ** (2.0 * np.arange(1, n + 1)), rtol=1e-12)

    def test_short_horizon_keeps_the_maxima_before_it(self):
        # The tail covers what the horizon leaves out.
        report = resonant(0.1, t_max=60.0)[0]
        k = kappa(Lorentzian(1.0, 0.1))
        assert len(report.intervals) == math.floor(60.0 * k / (2 * math.pi)) == 4
        assert report.horizon == 60.0
        assert report.total <= report.closed_form_total <= report.total + report.tail_bound

    @pytest.mark.parametrize("width", (2.0, 5.0, 1e16))
    def test_markovian_and_critical_exactly_zero(self, width):
        for report in resonant(width):
            assert report.total == 0.0 and report.tail_bound == 0.0
            assert report.intervals == () and report.closed_form_total is None

    def test_ratio_underflow_near_the_critical_width(self):
        # q = e^{-4443} is 0 in floating point: no maximum survives the cutoff.
        for report in resonant(2.0 - 1e-6):
            assert report.regime is Regime.NON_MARKOVIAN
            assert report.total == report.tail_bound == 0.0 and report.intervals == ()
        assert resonant(2.0 - 1e-6)[0].closed_form_total == 0.0

    @pytest.mark.parametrize("width", [5e-324, 1e-300, 1e-40])
    def test_ratio_of_one_rejected(self, width):
        # q = e^{-pi width/kappa} rounds to 1: the maxima do not decay, and 1 - q would divide by 0.
        with pytest.raises(PhysicalityError, match=f"width {width:g} is too narrow: .* q = 1 per period"):
            resonant(width, 5.0)

    def test_count_before_any_array(self):
        tracemalloc.start()
        try:
            count = measure._resonant_interval_count(Lorentzian(1.0, 1e-300), 1e301)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count > 2**100 and peak < 2**14
        assert measure._resonant_interval_count(Lorentzian(1.0, 0.1), default_horizon(1.0, 0.1)) == 25
        assert measure._resonant_interval_count(Lorentzian(1.0, 5.0), 100.0) == 0

    def test_one_debug_line(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="nonmarkov.measure"):
            resonant(0.1)
        lines = [r.getMessage() for r in caplog.records]
        assert len(lines) == 1
        assert re.fullmatch(r"measure: resonant closed form, 25 intervals to t_max 386\.4073394, "
                            r"q 0\.486\d+, no grid", lines[0])


class TestReportSerialization:
    def test_json_fields(self):
        report = lorentzian_measures(0.5)[0]
        data = report.to_dict()
        for key in ("regime", "kappa", "extrema", "contributions", "total", "tail_bound"):
            assert key in data
        encoded = json.dumps(data)
        assert json.loads(encoded)["regime"] == "non_markovian"

    def test_verification_dict_roundtrips(self):
        traj = lorentzian_trajectory(0.5, t_max=60.0)
        report = verify_theorem(traj, samples=50, seed=5)
        data = report.to_dict()
        assert data["ok"] is True
        json.dumps(data)
