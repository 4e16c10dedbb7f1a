"""Tests for spectral models, regime classification, and correlation functions."""

import logging
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.special import gamma as gamma_fn

from nonmarkov import reservoir
from nonmarkov.amplitude import AmplitudeTrajectory
from nonmarkov.dynamics import ScalarTrajectory
from nonmarkov.errors import PhysicalityError, UnsupportedModelError
from nonmarkov.reservoir import (
    CorrelationSamples,
    Lorentzian,
    OhmicFamily,
    Regime,
    Tabulated,
    classify_regime,
    correlation,
    kappa,
    load_tabulated,
    spectral_density,
)


class TestModels:
    def test_lorentzian_validation(self):
        with pytest.raises(PhysicalityError):
            Lorentzian(gamma0=-1.0, width=0.1)
        with pytest.raises(PhysicalityError):
            Lorentzian(gamma0=1.0, width=0.0)

    def test_tabulated_validation(self):
        with pytest.raises(PhysicalityError):
            Tabulated(points=np.array([[1.0, 0.1], [0.5, 0.2]]), qubit_frequency=1.0)
        with pytest.raises(PhysicalityError):
            Tabulated(points=np.array([[0.5, -0.1], [1.0, 0.2]]), qubit_frequency=1.0)

    def test_load_tabulated(self, tmp_path):
        path = tmp_path / "spectrum.txt"
        path.write_text("# omega  J\n0.5 0.0\n1.0 0.3\n2.0   0.1\n")
        model = load_tabulated(path, qubit_frequency=1.0)
        assert model.points.shape == (3, 2)
        assert model.points[1, 1] == 0.3


class TestRegime:
    def test_non_markovian(self):
        assert classify_regime(Lorentzian(1.0, 0.1)) is Regime.NON_MARKOVIAN

    def test_markovian(self):
        assert classify_regime(Lorentzian(1.0, 10.0)) is Regime.MARKOVIAN

    def test_critical(self):
        assert classify_regime(Lorentzian(1.0, 2.0)) is Regime.CRITICAL

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            g0, w = rng.uniform(0.01, 5.0, size=2)
            base = classify_regime(Lorentzian(g0, w))
            for c in rng.uniform(1e-3, 1e3, size=3):
                assert classify_regime(Lorentzian(c * g0, c * w)) is base

    def test_unsupported_model(self):
        ohmic = OhmicFamily(coupling=0.1, exponent=1.0, cutoff=1.0, qubit_frequency=1.0)
        with pytest.raises(UnsupportedModelError):
            classify_regime(ohmic)


class TestKappa:
    def test_values(self):
        assert kappa(Lorentzian(1.0, 0.1)) == pytest.approx(np.sqrt(0.19), abs=1e-15)
        assert kappa(Lorentzian(1.0, 2.0)) == 0.0
        assert kappa(Lorentzian(1.0, 1.0)) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("width", [0.1, 1.9, 3.0, 1e8, 1e150, 1.3e154])
    def test_square_has_the_bits_of_power(self, width):
        assert kappa(Lorentzian(1.0, width)) == float(np.sqrt(abs(width**2 - 2.0 * width)))

    @pytest.mark.parametrize("gamma0, width", [(8e307, 1.0), (1e300, 1e7), (1e-300, 1e150)])
    def test_finite_product_has_its_bits(self, gamma0, width):
        assert kappa(Lorentzian(gamma0, width)) == float(np.sqrt(abs(width * width - 2.0 * gamma0 * width)))

    @pytest.mark.parametrize("gamma0, width", [(1e300, 1e10), (1.7e308, 2.0), (np.float64(1e300), 1e10)],
                             ids=["float", "near_max", "numpy_scalar"])
    def test_overflowing_product_rejected(self, gamma0, width):
        message = f"gamma0 {gamma0:g} and width {width:g} are too large: 2*gamma0*width overflows"
        with pytest.raises(PhysicalityError, match=re.escape(message)):
            kappa(Lorentzian(gamma0, width))

    @pytest.mark.parametrize("width", [1.4e154, 1e200, 1.7e308])
    def test_overflowing_square_rejected(self, width):
        message = f"width {width:g} is too large: width^2 overflows"
        with pytest.raises(PhysicalityError, match=re.escape(message)):
            kappa(Lorentzian(1.0, width))


def lorentzian_j(delta, gamma0, width):
    return gamma0 * width**2 / (2.0 * np.pi * (delta**2 + width**2))


class TestLorentzianCorrelation:
    def test_initial_value(self):
        f = correlation(Lorentzian(1.0, 0.5), dt=0.1, n=5)
        assert f.values[0] == pytest.approx(0.25, abs=1e-15)

    def test_exponential_decay(self):
        model = Lorentzian(1.0, 0.5)
        f = correlation(model, dt=0.2, n=40)
        t = 0.2 * np.arange(40)
        assert np.allclose(f.values / f.values[0], np.exp(-model.width * t), atol=1e-12)

    def test_detuning_phase(self):
        model = Lorentzian(1.0, 0.5, detuning=2.0)
        f = correlation(model, dt=0.1, n=20)
        t = 0.1 * np.arange(20)
        expected = 0.25 * np.exp((2.0j - 0.5) * t)
        assert np.allclose(f.values, expected, atol=1e-12)

    def test_closed_form_matches_wideband_quadrature(self):
        """Residue closed form vs direct oscillatory quadrature of J.

        The quadrature runs in detuning coordinates over a symmetric window
        wide enough that the truncated Lorentzian tails sit below the
        target accuracy. Relative error is measured against f(0).
        """
        gamma0, width = 1.0, 0.5
        window = 4.0e6 * width
        f0 = 0.5 * gamma0 * width
        for t in np.linspace(0.0, 10.0 / width, 9):
            if t == 0.0:  # QAWO is degenerate at zero oscillation frequency
                cos_part, cos_err = integrate.quad(
                    lorentzian_j, 0, window, args=(gamma0, width),
                    points=[width, 1e2 * width, 1e4 * width],
                    limit=400, epsabs=1e-10, epsrel=1e-10,
                )
            else:
                cos_part, cos_err = integrate.quad(
                    lorentzian_j, 0, window, args=(gamma0, width), weight="cos",
                    wvar=t, limit=400, epsabs=1e-10, epsrel=1e-10,
                )
            closed = f0 * np.exp(-width * t)
            # J is even in detuning, so the sine part cancels and the full
            # integral is twice the cosine half-line piece.
            assert abs(2.0 * cos_part - closed) / f0 < 1e-6
            assert cos_err < 1e-8

    def test_imaginary_part_vanishes_at_zero(self):
        for model in (Lorentzian(1.0, 0.1), Lorentzian(2.0, 3.0, detuning=1.0)):
            f = correlation(model, dt=0.05, n=10)
            assert abs(f.values[0].imag) < 1e-10


def ohmic_quad(model, t):
    """f(t) by adaptive quadrature of J(w) e^{i(w0-w)t} over [0, 60*cutoff].

    J has decayed by e^-60 at the upper limit; QAWO handles the oscillatory
    weight for t > 0. The absolute target sits far below the smallest |f|
    compared (about 6e-11) without asking for accuracy roundoff forbids.
    """
    def j(w):
        return spectral_density(model, w)

    top = 60.0 * model.cutoff
    opts = dict(epsabs=1e-20, epsrel=1e-10, limit=400)
    if t == 0.0:
        return integrate.quad(j, 0.0, top, **opts)[0] + 0j
    re = integrate.quad(j, 0.0, top, weight="cos", wvar=t, **opts)[0]
    im = integrate.quad(j, 0.0, top, weight="sin", wvar=t, **opts)[0]
    return np.exp(1j * model.qubit_frequency * t) * (re - 1j * im)


class TestOhmicCorrelation:
    @pytest.mark.parametrize("exponent", [0.5, 1.0, 2.0])
    def test_matches_gamma_closed_form(self, exponent):
        model = OhmicFamily(coupling=0.1, exponent=exponent, cutoff=2.0, qubit_frequency=5.0)
        dt, n = 0.05, 101
        f = correlation(model, dt, n)
        t = dt * np.arange(n)
        z = 1.0 / model.cutoff + 1j * t
        exact = (
            model.coupling
            * model.cutoff ** (1.0 - exponent)
            * gamma_fn(exponent + 1.0)
            * np.exp(1j * model.qubit_frequency * t)
            / z ** (exponent + 1.0)
        )
        assert np.max(np.abs(f.values - exact)) / abs(exact[0]) < 1e-6

    def test_imaginary_part_vanishes_at_zero(self):
        model = OhmicFamily(coupling=0.2, exponent=1.0, cutoff=1.0, qubit_frequency=3.0)
        f = correlation(model, dt=0.1, n=5)
        assert abs(f.values[0].imag) < 1e-10

    @pytest.mark.parametrize("exponent", [0.5, 1.0, 2.0])
    def test_matches_independent_quadrature(self, exponent):
        model = OhmicFamily(coupling=0.1, exponent=exponent, cutoff=2.0, qubit_frequency=5.0)
        dt = 0.37
        f = correlation(model, dt, 60)
        for i in (0, 1, 5, 17, 59):
            got = f.values[i]
            assert abs(got - ohmic_quad(model, i * dt)) <= 1e-8 * abs(got)

    def test_long_horizon(self):
        # 40k inverse cutoffs: f stays finite and exact deep in its t^-(s+1) tail.
        model = OhmicFamily(coupling=0.1, exponent=1.0, cutoff=1.0, qubit_frequency=1.0)
        f = correlation(model, dt=1.0, n=40001)
        assert np.isfinite(f.values).all()
        for i in (3, 250, 40000):
            got = f.values[i]
            assert abs(got - ohmic_quad(model, float(i))) <= 1e-8 * abs(got)

    def test_gamma_overflow_rejected(self):
        model = OhmicFamily(coupling=0.1, exponent=200.0, cutoff=1.0, qubit_frequency=1.0)
        with pytest.raises(PhysicalityError, match="overflows"):
            correlation(model, dt=0.1, n=5)

    @pytest.mark.parametrize("coupling, cutoff", [(1e300, 1e200), (1e300, 1e100), (1e10, 1e150)])
    def test_prefactor_overflow_names_the_prefactor(self, coupling, cutoff):
        model = OhmicFamily(coupling=coupling, exponent=1.0, cutoff=cutoff, qubit_frequency=1.0)
        with pytest.raises(PhysicalityError, match=r"^coupling \* cutoff\^2 \* Gamma\(2\) overflows"):
            correlation(model, dt=0.1, n=5)


def reference_tabulated(model, t):
    """The exact integral segment by segment, one Python step per segment.

    Each segment's integral of the linear interpolant times exp(-i w t) is
    taken in closed form, with a cubic series where the phase is below
    1e-4. This is the loop the node sum replaced, kept as its oracle.
    """

    def segment(j1, j2, w1, w2):
        length = w2 - w1
        slope = (j2 - j1) / length
        phase = length * t
        z = -1j * phase
        small = np.abs(phase) < 1e-4
        with np.errstate(divide="ignore", invalid="ignore"):
            it = 1j * t
            e = np.exp(z)
            e0 = np.where(small, length * (1.0 + z / 2.0 + z**2 / 6.0 + z**3 / 24.0),
                          np.divide(1.0 - e, it, out=np.full(t.shape, length + 0j), where=~small))
            e1 = np.where(
                small,
                length**2 * (0.5 + z / 3.0 + z**2 / 8.0 + z**3 / 30.0),
                np.divide(e0 - length * e, it, out=np.full(t.shape, 0.5 * length**2 + 0j), where=~small),
            )
        return np.exp(-1j * w1 * t) * (j1 * e0 + slope * e1)

    w = model.points[:, 0]
    j = model.points[:, 1]
    total = np.zeros(t.shape, dtype=complex)
    for k in range(w.size - 1):
        if j[k] == 0.0 and j[k + 1] == 0.0:
            continue
        total += segment(j[k], j[k + 1], w[k], w[k + 1])
    return np.exp(1j * model.qubit_frequency * t) * total


def quad_tabulated(model, t):
    """f(t) by adaptive quadrature of the interpolant, one segment at a time.

    Integrates J(w0 + x) [cos(x t) - i sin(x t)] over x = w - w0, so the
    phase is measured from the qubit frequency as in the library.
    """
    x = model.points[:, 0] - model.qubit_frequency
    j = model.points[:, 1]
    re = im = 0.0
    for k in range(x.size - 1):
        def interp(u, k=k):
            return j[k] + (j[k + 1] - j[k]) * (u - x[k]) / (x[k + 1] - x[k])

        opts = dict(epsabs=1e-14, epsrel=1e-12, limit=200)
        re += integrate.quad(lambda u: interp(u) * math.cos(u * t), x[k], x[k + 1], **opts)[0]
        im -= integrate.quad(lambda u: interp(u) * math.sin(u * t), x[k], x[k + 1], **opts)[0]
    return complex(re, im)


FOUR_POINTS = np.array([[0.5, 0.0], [1.0, 0.4], [1.8, 0.25], [3.0, 0.0]])

# Hard edges: J is nonzero at both ends of the table. (points, w0) by name.
HARD_EDGED_TABLES = {
    "hard_edges": (np.array([[0.8, 0.3], [1.1, 0.5], [1.6, 0.2]]), 1.0),
    "hard_edges_node_at_w0": (np.array([[0.8, 0.3], [1.6, 0.7]]), 1.6),
}


def benchmark_gaussian_table():
    """1000 points over [0, 200] of a Gaussian of weight 7.5 and width 3 at w0 = 100."""
    w = np.linspace(0.0, 200.0, 1000)
    j = 7.5 / (math.sqrt(2.0 * math.pi) * 3.0) * np.exp(-0.5 * ((w - 100.0) / 3.0) ** 2)
    return Tabulated(points=np.column_stack([w, j]), qubit_frequency=100.0)


def ragged_table():
    """300 seeded random values on uneven spacing, w0 at the 150th node."""
    rng = np.random.default_rng(17)
    w = 1.0 + np.cumsum(rng.uniform(0.001, 0.05, size=300))
    j = rng.uniform(0.0, 1.0, size=300)
    return Tabulated(points=np.column_stack([w, j]), qubit_frequency=float(w[150]))


class TestTabulatedCorrelation:
    def test_narrow_peak_gives_flat_correlation(self):
        w0 = 5.0
        w = np.linspace(4.99, 5.01, 41)
        j = np.exp(-0.5 * ((w - w0) / 0.002) ** 2)
        model = Tabulated(points=np.column_stack([w, j]), qubit_frequency=w0)
        f = correlation(model, dt=0.1, n=50)
        mags = np.abs(f.values)
        assert (mags.max() - mags.min()) / mags[0] < 1e-3
        assert abs(f.values[0].imag) < 1e-10

    def test_matches_scipy_quadrature(self):
        pts = FOUR_POINTS
        model = Tabulated(points=pts, qubit_frequency=1.2)

        def j_interp(w):
            return np.interp(w, pts[:, 0], pts[:, 1], left=0.0, right=0.0)

        f = correlation(model, dt=0.7, n=6)
        for i, t in enumerate(0.7 * np.arange(6)):
            re, _ = integrate.quad(
                lambda w: j_interp(w) * np.cos((model.qubit_frequency - w) * t),
                0.5, 3.0, points=pts[:, 0], limit=200,
            )
            im, _ = integrate.quad(
                lambda w: j_interp(w) * np.sin((model.qubit_frequency - w) * t),
                0.5, 3.0, points=pts[:, 0], limit=200,
            )
            assert f.values[i] == pytest.approx(re + 1j * im, abs=1e-9)

    @pytest.mark.parametrize("table", [benchmark_gaussian_table, ragged_table])
    def test_matches_reference_loop(self, table):
        model = table()
        f = correlation(model, dt=1e-3, n=10001)
        ref = reference_tabulated(model, 1e-3 * np.arange(10001))
        assert np.max(np.abs(f.values - ref)) <= 1e-10 * abs(ref[0])

    @pytest.mark.parametrize("n", [1, 2, 6, 50, 127])
    def test_fewer_samples_than_a_block(self, n):
        # Below _NODE_BLOCK_TIMES samples the table has n offsets. On the
        # benchmark's Gaussian at its step 2, the first n of a long run agree
        # to 1e-16 f(0): the matrix products differ only in their shapes.
        assert n < reservoir._NODE_BLOCK_TIMES
        model = benchmark_gaussian_table()
        long = correlation(model, dt=2.0, n=300).values
        assert np.max(np.abs(correlation(model, dt=2.0, n=n).values - long[:n])) <= 1e-16 * abs(long[0])

    @pytest.mark.parametrize("n", [2, 6, 127])
    @pytest.mark.parametrize("table", [benchmark_gaussian_table, ragged_table])
    def test_fewer_samples_than_a_block_match_reference_loop(self, table, n):
        model = table()
        ref = reference_tabulated(model, 1e-3 * np.arange(n))
        assert np.max(np.abs(correlation(model, dt=1e-3, n=n).values - ref)) <= 1e-10 * abs(ref[0])

    def test_small_times_match_quadrature(self):
        # y_m = x_m t is far below 1 here: the terms 1 - cos y and y - sin y
        # must not come from cancelling differences.
        model = Tabulated(points=FOUR_POINTS, qubit_frequency=1.2)
        f = correlation(model, dt=1e-4, n=101)
        for i in (1, 10, 100):
            assert abs(f.values[i] - quad_tabulated(model, i * 1e-4)) <= 1e-11 * abs(f.values[0])

    @pytest.mark.parametrize(
        "points, w0",
        [
            # a kink exactly at the qubit frequency: its y_m is 0 at every t
            (np.array([[0.5, 0.0], [1.2, 0.6], [2.0, 0.1], [2.5, 0.0]]), 1.2),
            *HARD_EDGED_TABLES.values(),
        ],
        ids=["node_at_w0", *HARD_EDGED_TABLES],
    )
    def test_matches_quadrature(self, points, w0):
        model = Tabulated(points=points, qubit_frequency=w0)
        dt = 0.37
        f = correlation(model, dt=dt, n=30)
        assert f.values[0].imag == 0.0
        for i in (0, 1, 4, 13, 29):
            assert abs(f.values[i] - quad_tabulated(model, i * dt)) <= 1e-11 * abs(f.values[0])

    def test_all_zero_table(self):
        model = Tabulated(points=np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]), qubit_frequency=2.0)
        f = correlation(model, dt=0.1, n=20)
        assert np.array_equal(f.values, np.zeros(20))

    def test_zero_outer_segments_change_nothing(self):
        # The nodes of J's zero stretches carry no slope jump and are skipped;
        # the nodes where J leaves and rejoins zero must be kept.
        w = np.linspace(0.0, 6.0, 13)
        j = np.array([0, 0, 0, 0, 0.2, 0.5, 0.4, 0.45, 0.1, 0, 0, 0, 0])
        trimmed = slice(3, 10)
        full = correlation(Tabulated(np.column_stack([w, j]), 2.6), dt=0.05, n=400).values
        span = correlation(Tabulated(np.column_stack([w[trimmed], j[trimmed]]), 2.6), dt=0.05, n=400).values
        assert np.max(np.abs(full - span)) <= 1e-14 * abs(full[0])

    def test_memory_bounded(self):
        # About 19k nodes of this 200k-point table carry curvature: unblocked,
        # one 128-sample row of the node sum alone would be 19 MiB.
        w = np.linspace(0.0, 200.0, 200_000)
        j = np.exp(-0.5 * ((w - 100.0) / 0.25) ** 2)
        model = Tabulated(points=np.column_stack([w, j]), qubit_frequency=100.0)
        tracemalloc.start()
        try:
            correlation(model, dt=1e-2, n=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_zero_outside_table(self):
        pts = np.array([[1.0, 0.2], [2.0, 0.2]])
        model = Tabulated(points=pts, qubit_frequency=1.5)
        assert spectral_density(model, np.array([0.5, 2.5])).tolist() == [0.0, 0.0]


def mpmath_tabulated(model, t):
    """f(t) from each segment's exact integral at 40 digits.

    On a segment where J = j_a + s (u - x_a), the integral of J(u) e^{-iut}
    has the antiderivative e^{-iut} [i J(u)/t + s/t^2]. Its cancellation at
    small t costs far fewer than the 40 digits carried.
    """
    mp = mpmath.mpf
    with mpmath.workdps(40):
        t = mp(t)
        w0 = mp(model.qubit_frequency)
        total = mpmath.mpc(0)
        for (wa, ja), (wb, jb) in zip(model.points[:-1], model.points[1:]):
            xa, xb, ja, jb = mp(wa) - w0, mp(wb) - w0, mp(ja), mp(jb)
            slope = (jb - ja) / (xb - xa)

            def antiderivative(u, ju):
                return mpmath.expj(-u * t) * (1j * ju / t + slope / t**2)

            total += antiderivative(xb, jb) - antiderivative(xa, ja)
        return complex(total)


def trapezoid_f0(model):
    w, j = model.points[:, 0], model.points[:, 1]
    return 0.5 * float(np.dot(j[:-1] + j[1:], np.diff(w)))


# The pruning bound, stated here independently of the library's constant.
UNIT_ROUNDOFF = 2.0**-52


class TestNodePruning:
    """Nodes whose terms are bounded together by the unit roundoff of f(0) are dropped."""

    @pytest.mark.parametrize("t", [1e-4, 1e-3, 0.7, 2.0, 10.0])
    def test_realised_error_within_stated_bound(self, t):
        model = benchmark_gaussian_table()
        f0 = trapezoid_f0(model)
        got = correlation(model, dt=t, n=2).values[1]
        assert abs(got - mpmath_tabulated(model, t)) <= (UNIT_ROUNDOFF + 1e-15) * f0

    def test_realised_error_within_stated_bound_across_blocks(self):
        # Five blocks of 128 samples, the last one partial: the samples on
        # either side of each block start and the last sample.
        model = benchmark_gaussian_table()
        f0 = trapezoid_f0(model)
        dt, n = 1e-3, 600
        f = correlation(model, dt=dt, n=n)
        for k in (1, 127, 128, 129, 255, 256, 511, 512, n - 1):
            assert abs(f.values[k] - mpmath_tabulated(model, k * dt)) <= (UNIT_ROUNDOFF + 1e-15) * f0

    def test_gaussian_table_drops_most_nodes(self):
        model = benchmark_gaussian_table()
        f0 = trapezoid_f0(model)
        nodes, jumps = reservoir._slope_jumps(model.points[:, 0], model.points[:, 1])
        x = nodes - model.qubit_frequency
        keep, dropped = reservoir._prune_nodes(x, jumps, f0)
        assert keep.size == 1000 and np.count_nonzero(~keep) >= 700
        bounds = 0.5 * np.abs(jumps) * x**2
        assert dropped == pytest.approx(np.sum(bounds[~keep]), rel=1e-12, abs=0.0)
        assert dropped <= UNIT_ROUNDOFF * f0

    @pytest.mark.parametrize("name", ["ragged", *HARD_EDGED_TABLES])
    def test_unprunable_tables_keep_every_node_in_order(self, monkeypatch, name):
        model = ragged_table() if name == "ragged" else Tabulated(*HARD_EDGED_TABLES[name])
        summed = []
        node_sum = reservoir._node_sum

        def recording_node_sum(dt, n, x, jumps):
            summed.append((x, jumps))
            return node_sum(dt, n, x, jumps)

        monkeypatch.setattr(reservoir, "_node_sum", recording_node_sum)
        correlation(model, dt=0.37, n=30)
        nodes, jumps = reservoir._slope_jumps(model.points[:, 0], model.points[:, 1])
        x = nodes - model.qubit_frequency
        # Only a node at w0 is dropped: its term is exactly zero at every t.
        kept = x != 0.0
        [(x_summed, jumps_summed)] = summed
        assert np.array_equal(x_summed, x[kept]) and np.array_equal(jumps_summed, jumps[kept])

    def test_debug_line_per_tabulated_call(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="nonmarkov.reservoir"):
            correlation(benchmark_gaussian_table(), dt=1e-3, n=11)
            correlation(Lorentzian(1.0, 0.5), dt=1e-3, n=11)
        [record] = caplog.records
        match = re.fullmatch(r"tabulated correlation: (\d+) of (\d+) nodes kept, "
                             r"dropped terms <= (\S+) f\(0\), (\d+) samples", record.getMessage())
        assert match and record.levelno == logging.DEBUG
        kept, total, bound, samples = match.groups()
        assert int(kept) <= 300 and int(total) == 1000
        assert 0.0 < float(bound) <= UNIT_ROUNDOFF and int(samples) == 11


def mpmath_g(u, v):
    """g(y) = 1 - i y - e^{-iy} at y = u + v, summed and evaluated at 40 digits."""
    with mpmath.workdps(40):
        y = mpmath.mpf(u) + mpmath.mpf(v)
        return complex(1 - 1j * y - mpmath.expj(-y))


class TestNodeSumBlocks:
    """The node sum splits each phase at its block start: g(u + v) from g(u), g(v) and e^{-iu}."""

    def test_one_node_matches_direct_phase_sum(self):
        # One node of unit jump, so the sum is g(x t) itself, at the phases
        # u = x t_a and v = x tau_r the sum forms; |u + v| spans 1e-6 to 1e3.
        rng = np.random.default_rng(29)
        block = reservoir._NODE_BLOCK_TIMES
        for _ in range(300):
            x = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 1.0)
            dt = 10.0 ** rng.uniform(-5.0, 0.0)
            b, r = int(rng.integers(0, 4)), int(rng.integers(0, block))
            n = b * block + r + 1
            got = reservoir._node_sum(dt, n, np.array([x]), np.array([1.0]))
            u, v = (dt * (b * block)) * x, (dt * r) * x
            want = mpmath_g(u, v)
            assert abs(got[-1] - want) <= 4 * UNIT_ROUNDOFF * abs(want)
            assert got[0] == 0.0


class TestCorrelationSamples:
    def test_requires_positive_f0(self):
        with pytest.raises(PhysicalityError):
            CorrelationSamples(dt=0.1, values=np.array([-1.0 + 0j, 0.5]))

    def test_zero_kernel_allowed(self):
        f = CorrelationSamples(dt=0.1, values=np.zeros(5, dtype=complex))
        assert f.values.size == 5


GRID_TYPES = [CorrelationSamples, AmplitudeTrajectory, ScalarTrajectory]


class TestSampleGrid:
    """The grid checks that the correlation, amplitude and signal containers share."""

    @pytest.mark.parametrize("grid_type", GRID_TYPES, ids=lambda c: c.__name__)
    @pytest.mark.parametrize(
        "dt, values, message",
        [(0.0, [1.0, 0.5], "dt must be positive"),
         (math.nan, [1.0, 0.5], "dt must be positive"),
         (math.inf, [1.0, 0.5], "dt must be positive"),
         (0.1, [[1.0, 0.5], [0.5, 0.25]], "values must be a nonempty 1-d array"),
         (0.1, [], "values must be a nonempty 1-d array"),
         (0.1, [1.0, math.nan], "values must be finite")],
        ids=["dt_zero", "dt_nan", "dt_inf", "two_d", "empty", "nan_value"],
    )
    def test_bad_grid_rejected(self, grid_type, dt, values, message):
        with pytest.raises(PhysicalityError, match=re.escape(message)):
            grid_type(dt, np.array(values))

    @pytest.mark.parametrize("grid_type", GRID_TYPES, ids=lambda c: c.__name__)
    def test_read_only_values_and_times(self, grid_type):
        grid = grid_type(0.5, [1.0, 0.5, 0.25])
        assert not grid.values.flags.writeable
        assert grid.t_max == 1.0
        assert np.array_equal(grid.times(), [0.0, 0.5, 1.0])
