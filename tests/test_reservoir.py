"""Tests for spectral models, regime classification, and correlation functions."""

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gamma as gamma_fn

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
        pts = np.array([[0.5, 0.0], [1.0, 0.4], [1.8, 0.25], [3.0, 0.0]])
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

    def test_zero_outside_table(self):
        pts = np.array([[1.0, 0.2], [2.0, 0.2]])
        model = Tabulated(points=pts, qubit_frequency=1.5)
        assert spectral_density(model, np.array([0.5, 2.5])).tolist() == [0.0, 0.0]


class TestCorrelationSamples:
    def test_requires_positive_f0(self):
        with pytest.raises(PhysicalityError):
            CorrelationSamples(dt=0.1, values=np.array([-1.0 + 0j, 0.5]))

    def test_zero_kernel_allowed(self):
        f = CorrelationSamples(dt=0.1, values=np.zeros(5, dtype=complex))
        assert f.values.size == 5
