"""Tests for the closed-form amplitude and the Volterra solver."""

import dataclasses
import logging
import re
import tracemalloc

import mpmath
import numpy as np
import pytest

from nonmarkov import amplitude, constants
from nonmarkov.amplitude import (
    AmplitudeTrajectory,
    Method,
    SolverConfig,
    amplitude_envelope,
    compute_trajectory,
    default_horizon,
    lorentzian_closed_form,
    lorentzian_min_times,
    solve_volterra,
    _detuned_closed_form,
    _fft_length,
    _poles,
)
from nonmarkov.dynamics import population_excited
from nonmarkov.errors import NoZerosError, NumericalFailureError, PhysicalityError, UnsupportedModelError
from nonmarkov.reservoir import (
    _ABS_BLOCK,
    CorrelationSamples,
    Lorentzian,
    OhmicFamily,
    Tabulated,
    _max_abs,
    correlation,
    kappa,
)


def reference_volterra(f, cfg):
    """The scheme as a step loop: one history dot product per step, O(N^2).

    Same discretisation as `solve_volterra` (implicit trapezoid, Gregory end
    weights), written step by step as the oracle for the series solver.
    """
    n, dt = cfg.steps, cfg.dt
    fv = f.values[: n + 1]
    frev = fv[::-1].copy()  # frev[i] = f[n - i]; forward slices stay contiguous
    b = np.empty(n + 1, dtype=complex)
    b[0] = 1.0
    bprime = 0.0 + 0.0j  # b'(0): the memory integral vanishes at t = 0
    limit = 1.0 + constants.AMPLITUDE_INSTABILITY_SLACK
    for k in range(1, n + 1):
        # Trapezoidal history sum without the j = k endpoint:
        # S = f[k] b[0]/2 + sum_{j=1}^{k-1} f[k-j] b[j]
        s = 0.5 * fv[k] * b[0]
        if k > 1:
            s += np.dot(frev[n - k + 1 : n], b[1:k])
        if k >= 2:
            # Gregory end correction -dt/12 (grad_n - delta_0) on the history
            # integral; kills the O(dt^2) endpoint error that otherwise
            # dominates for wide (stiff) spectra.
            c0 = 5.0 / 12.0
            g = s + (fv[1] * b[k - 1] + fv[k - 1] * b[1] - fv[k] * b[0]) / 12.0
        else:
            c0 = 0.5
            g = s
        bk = (b[k - 1] + 0.5 * dt * (bprime - dt * g)) / (1.0 + 0.5 * dt * dt * c0 * fv[0])
        if abs(bk) > limit:
            raise NumericalFailureError(f"|b({k * dt:g})| = {abs(bk):.6f}")
        b[k] = bk
        bprime = -dt * (g + c0 * fv[0] * bk)
    return b


def _gaussian_table():
    w = np.linspace(1.0, 9.0, 1000)
    return Tabulated(points=np.column_stack([w, 0.3 * np.exp(-((w - 5.0) ** 2))]),
                     qubit_frequency=5.0)


ORACLE_KERNELS = {
    "resonant_0.1": (Lorentzian(1.0, 0.1), 1e-2),
    "resonant_10": (Lorentzian(1.0, 10.0), 1e-3),
    "detuned_0.3": (Lorentzian(1.0, 1.0, detuning=0.3), 1e-2),
    "ohmic": (OhmicFamily(coupling=0.2, exponent=1.0, cutoff=2.0, qubit_frequency=5.0), 1e-2),
    "gaussian_table": (_gaussian_table(), 1e-2),
}


def mpmath_closed_form(width, t):
    """b(t) at gamma0 = 1 from the three-regime formula, to 50 digits."""
    with mpmath.workdps(50):
        w, t = mpmath.mpf(width), mpmath.mpf(t)
        d = w * w - 2 * w
        if d == 0:
            return mpmath.exp(-w * t / 2) * (1 + w * t / 2)
        k = mpmath.sqrt(abs(d))
        cos, sin = (mpmath.cosh, mpmath.sinh) if d > 0 else (mpmath.cos, mpmath.sin)
        return mpmath.exp(-w * t / 2) * (cos(k * t / 2) + (w / k) * sin(k * t / 2))


def oscillatory_closed_form(gamma0, width, t):
    """The oscillatory branch as one expression, kappa from width**2: the bit oracle."""
    k = np.sqrt(abs(width**2 - 2.0 * gamma0 * width))
    out = np.exp(-0.5 * width * t) * (np.cos(0.5 * k * t) + (width / k) * np.sin(0.5 * k * t))
    return np.where(t == 0.0, 1.0, out)


def reference_closed_form(gamma0, width, t):
    """`lorentzian_closed_form` as whole-array expressions with a temporary per step: its bit oracle."""
    k = kappa(Lorentzian(gamma0=gamma0, width=width))
    tt = np.asarray(t, dtype=float)
    if gamma0 > 0.5 * width and k > 0.0:
        out = np.exp(-0.5 * width * tt) * (
            np.cos(0.5 * k * tt) + (width / k) * np.sin(0.5 * k * tt)
        )
    else:
        with np.errstate(over="ignore"):
            kt = k * tt
        decay = -np.expm1(-kt) / k if k > 0.0 else tt
        out = np.exp(-(gamma0 * width / (width + k)) * tt) * (
            0.5 * (1.0 + np.exp(-kt)) + 0.5 * width * decay
        )
    out = np.where(tt == 0.0, 1.0, out)
    return out if out.ndim else float(out)


def reference_detuned_closed_form(model, t):
    """`_detuned_closed_form` as whole-array expressions with a temporary per step: its bit oracle."""
    s1, d = _poles(model)
    tt = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        decay = -np.expm1(-d * tt) / d if d != 0.0 else tt
        out = np.exp(s1 * tt) * (1.0 - s1 * decay)
    return np.where(tt == 0.0, 1.0, out)


def bits(x):
    """The bytes of a float or an array with its dtype and shape, so that -0.0 differs from 0.0."""
    x = np.asarray(x)
    return x.dtype.str, x.shape, x.tobytes()


# Around the critical width 2 on both sides, then Markovian out to where
# width - kappa cancels to zero in floating point.
ORACLE_WIDTHS = [2 * (1 - 1e-10), 2.0, 2 * (1 + 1e-10), 2 * (1 + 2e-9), 3.0, 10.0,
                 1e4, 1e8, 1e12, 1e16]


class TestClosedForm:
    @pytest.mark.parametrize("width", ORACLE_WIDTHS)
    def test_matches_mpmath_oracle(self, width):
        t = np.array([0.01, 0.1, 0.5, 1.0]) * min(default_horizon(1.0, width), 50.0)
        got = lorentzian_closed_form(1.0, width, t)
        exact = [mpmath_closed_form(width, ti) for ti in t]
        rel = np.array([float(abs((g - e) / e)) for g, e in zip(got, exact)])
        # The oscillatory branch rounds the argument of exp(-width t/2) once,
        # which alone moves b by up to 2^-53 * width t/2 relative.
        slack = 2.0**-53 * 0.5 * width * t if width < 2.0 else 0.0
        assert np.all(rel <= 1e-15 + slack), rel

    @pytest.mark.parametrize("width", [0.1, 0.5, 1.0, 1.9])
    def test_oscillatory_branch_bits(self, width):
        t = np.linspace(0.0, default_horizon(1.0, width), 20001)
        assert np.array_equal(lorentzian_closed_form(1.0, width, t),
                              oscillatory_closed_form(1.0, width, t))

    def test_critical_limit_is_exact_at_zero_kappa(self):
        t = np.linspace(0.0, 10.0, 1001)
        assert np.array_equal(lorentzian_closed_form(1.0, 2.0, t), np.exp(-t) * (1.0 + t))

    def test_overflowing_kappa_product_rejected(self):
        message = "gamma0 1e+300 and width 1e+10 are too large: 2*gamma0*width overflows"
        with pytest.raises(PhysicalityError, match=re.escape(message)):
            lorentzian_closed_form(1e300, 1e10, 1.0)

    def test_initial_condition(self):
        for width in (0.1, 0.5, 1.0, 2.0, 10.0):
            assert lorentzian_closed_form(1.0, width, 0.0) == 1.0

    def test_first_maximum_value(self):
        # b'(t) = -exp(-w t/2) sin(k t/2) (w^2 + k^2)/(2k) vanishes at 2 pi/k,
        # where b = -exp(-pi w / k).
        k = kappa(Lorentzian(1.0, 0.1))
        t_peak = 2.0 * np.pi / k
        expected = -np.exp(-np.pi * 0.1 / k)
        assert lorentzian_closed_form(1.0, 0.1, t_peak) == pytest.approx(expected, abs=1e-12)

    def test_first_maximum_by_dense_sampling(self):
        k = kappa(Lorentzian(1.0, 0.1))
        t = np.linspace(10.0, 20.0, 200001)
        b = lorentzian_closed_form(1.0, 0.1, t)
        i = np.argmax(np.abs(b))
        assert t[i] == pytest.approx(2.0 * np.pi / k, abs=1e-4)
        assert abs(b[i]) == pytest.approx(np.exp(-np.pi * 0.1 / k), abs=1e-9)

    def test_critical_value(self):
        assert lorentzian_closed_form(1.0, 2.0, 1.0) == pytest.approx(
            2.0 * np.exp(-1.0), abs=1e-14
        )

    def test_continuous_across_critical_point(self):
        # Both regime formulas, just off the critical width, agree with the
        # critical one.
        t = np.linspace(0.0, 5.0, 101)
        crit = lorentzian_closed_form(1.0, 2.0, t)
        above = lorentzian_closed_form(1.0, 2.0 + 1e-8, t)
        below = lorentzian_closed_form(1.0, 2.0 - 1e-8, t)
        assert np.max(np.abs(crit - above)) < 1e-6
        assert np.max(np.abs(crit - below)) < 1e-6

    def test_kappa_t_past_overflow_decays_to_zero(self):
        # kappa t overflows to inf, where e^{-kappa t} = 0 is exact.
        b = lorentzian_closed_form(1.0, 1e150, np.array([0.0, 1.0, 1e160]))
        assert b[0] == 1.0 and 0.0 < b[1] < 1.0 and b[2] == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(PhysicalityError):
            lorentzian_closed_form(1.0, 0.1, -0.5)

    def test_markovian_no_overflow(self):
        b = lorentzian_closed_form(1.0, 10.0, 500.0)
        assert np.isfinite(b) and 0 <= b < 1e-10


class TestClosedFormBits:
    """The closed forms, written into one output array, against the whole-array expressions."""

    GRID = 1e-3 * np.arange(400001)  # t = 0 to 400, the default width-0.1 horizon
    # Out of order, with repeated zeros, and a time where kappa t overflows at width 1e16.
    MIXED = np.array([3.5, 0.0, 1e-300, 17.25, 0.0, 1e300, 2.0, 1e-3])

    @pytest.mark.parametrize("width", [0.1, 2.0, 5.0, 1e16], ids=["oscillatory", "critical", "monotone", "wide"])
    def test_array_t(self, width):
        for t in (self.GRID, self.MIXED, self.MIXED.reshape(2, 4)):
            assert bits(lorentzian_closed_form(1.0, width, t)) == bits(reference_closed_form(1.0, width, t))

    @pytest.mark.parametrize("t", [0.0, 1e-3, 0.37, 12.5, 400.0, np.float64(3.0), np.array(0.0)])
    @pytest.mark.parametrize("width", [0.1, 2.0, 5.0], ids=["oscillatory", "critical", "monotone"])
    def test_scalar_t(self, width, t):
        got = lorentzian_closed_form(1.0, width, t)
        assert type(got) is float
        assert bits(got) == bits(reference_closed_form(1.0, width, t))

    @pytest.mark.parametrize("detuning", [0.3, 1.0])
    @pytest.mark.parametrize("width", [0.1, 1.0])
    def test_detuned(self, width, detuning):
        model = Lorentzian(1.0, width, detuning)
        for t in (self.GRID, self.MIXED[self.MIXED < 1e300]):
            assert bits(_detuned_closed_form(model, t)) == bits(reference_detuned_closed_form(model, t))

    def test_detuned_at_equal_poles(self):
        # d = 0 only at zero detuning and the critical width, where (1 - e^{-d t})/d is t.
        model = Lorentzian(1.0, 2.0, 0.0)
        assert _poles(model)[1] == 0.0
        assert bits(_detuned_closed_form(model, self.GRID)) == bits(reference_detuned_closed_form(model, self.GRID))


class TestBlockedTrajectory:
    """compute_trajectory writes a closed form block by block: the bits of the whole grid at once."""

    B = amplitude._CLOSED_FORM_BLOCK
    MODELS = {"oscillatory": Lorentzian(1.0, 0.1), "critical": Lorentzian(1.0, 2.0),
              "monotone": Lorentzian(1.0, 5.0), "detuned_0.3": Lorentzian(1.0, 0.1, 0.3),
              "detuned_1": Lorentzian(1.0, 1.0, 1.0)}

    @pytest.mark.parametrize("samples", [11, B - 1, B, B + 1, B + 2, 3 * B - 1, 3 * B, 3 * B + 1])
    @pytest.mark.parametrize("name", MODELS)
    def test_matches_whole_grid(self, name, samples):
        # At 3B + 1 samples the last block takes B + 1: a lone last sample
        # of a complex b would round differently in numpy's in-place product.
        model, dt = self.MODELS[name], 1e-3
        traj = compute_trajectory(model, SolverConfig(dt=dt, t_max=(samples - 1) * dt))
        t = dt * np.arange(samples)
        if model.detuning == 0.0:
            want = lorentzian_closed_form(model.gamma0, model.width, t)
            assert bits(want) == bits(reference_closed_form(model.gamma0, model.width, t))
        else:
            want = _detuned_closed_form(model, t)
            assert bits(want) == bits(reference_detuned_closed_form(model, t))
        assert bits(traj.values) == bits(want)

    def test_phase_overflow_names_the_last_time(self):
        # Every block overflows; the message names the grid's end, not a block's.
        cfg = SolverConfig(dt=1e-3, t_max=3 * self.B * 1e-3)
        with pytest.raises(PhysicalityError, match=f"too large for t up to {cfg.steps * 1e-3:g}: "):
            compute_trajectory(Lorentzian(1.0, 0.1, 1e308), cfg)

    def test_checks_make_no_float_temporary(self):
        # Finiteness takes one byte a sample; max|b| takes none (real b) or
        # one block of moduli (complex b).
        for dtype in (float, complex):
            v = np.full(2**20, -0.5, dtype=dtype)
            v[0] = 1.0
            tracemalloc.start()
            try:
                AmplitudeTrajectory(dt=0.1, values=v)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.25 * v.size, f"{dtype.__name__}: {peak / v.size:.2f} bytes per sample"


class TestMaxAbs:
    @pytest.mark.parametrize("size", [1, 2, _ABS_BLOCK - 1, _ABS_BLOCK, _ABS_BLOCK + 1, 3 * _ABS_BLOCK + 2])
    def test_matches_whole_array(self, size):
        rng = np.random.default_rng(size)
        real = rng.normal(size=size)
        for v in (real, -np.abs(real), np.abs(real), real + 1j * rng.normal(size=size)):
            for at in {0, size // 2, size - 1}:  # the largest modulus in each block in turn
                w = v.copy()
                w[at] *= 10.0
                assert bits(_max_abs(w)) == bits(float(np.max(np.abs(w))))

    def test_rejection_message_unchanged(self):
        values = np.full(3 * _ABS_BLOCK, 0.5 + 0.0j)
        values[0], values[-1] = 1.0, 1.0 + 0.5j
        with pytest.raises(PhysicalityError, match=re.escape(f"|b| reaches {abs(1.0 + 0.5j)!r}, beyond")):
            AmplitudeTrajectory(dt=0.1, values=values)


class TestMinTimes:
    def test_first_zero_value(self):
        k = np.sqrt(0.19)
        expected = 2.0 * (np.pi - np.arctan(k / 0.1)) / k
        got = lorentzian_min_times(1.0, 0.1, 1)
        assert got[0] == pytest.approx(expected, abs=1e-12)
        assert got[0] == pytest.approx(8.24203, abs=1e-4)

    def test_equal_rates_case(self):
        got = lorentzian_min_times(1.0, 1.0, 1)
        assert got[0] == pytest.approx(2.0 * np.pi - np.pi / 2.0, abs=1e-12)

    def test_spacing(self):
        k = kappa(Lorentzian(1.0, 0.1))
        times = lorentzian_min_times(1.0, 0.1, 6)
        assert np.allclose(np.diff(times), 2.0 * np.pi / k, atol=1e-12)

    def test_closed_form_vanishes_there(self):
        times = lorentzian_min_times(1.0, 0.1, 10)
        vals = lorentzian_closed_form(1.0, 0.1, times)
        assert np.max(np.abs(vals)) < 1e-12

    def test_markovian_has_no_zeros(self):
        with pytest.raises(NoZerosError):
            lorentzian_min_times(1.0, 10.0, 3)
        with pytest.raises(NoZerosError):
            lorentzian_min_times(1.0, 2.0, 3)


class TestTrajectoryType:
    def test_requires_unit_start(self):
        with pytest.raises(PhysicalityError):
            AmplitudeTrajectory(dt=0.1, values=np.array([0.9, 0.8], dtype=complex))

    def test_rejects_excursions(self):
        with pytest.raises(PhysicalityError):
            AmplitudeTrajectory(dt=0.1, values=np.array([1.0, 1.1], dtype=complex))


class TestSolverConfig:
    def test_horizon_floor(self):
        with pytest.raises(PhysicalityError):
            SolverConfig(dt=0.1, t_max=0.5)

    def test_steps(self):
        assert SolverConfig(dt=0.1, t_max=6.0).steps == 60


class TestVolterra:
    def test_zero_kernel_keeps_unit_amplitude(self):
        cfg = SolverConfig(dt=0.01, t_max=1.0, method=Method.VOLTERRA)
        f = CorrelationSamples(dt=0.01, values=np.zeros(cfg.steps + 1, dtype=complex))
        traj = solve_volterra(f, cfg)
        assert np.all(traj.values == 1.0)

    def test_matches_closed_form(self):
        cfg = SolverConfig(dt=1e-3, t_max=60.0, method=Method.VOLTERRA)
        model = Lorentzian(1.0, 0.1)
        f = correlation(model, cfg.dt, cfg.steps + 1)
        traj = solve_volterra(f, cfg)
        exact = lorentzian_closed_form(1.0, 0.1, traj.times())
        assert np.max(np.abs(traj.values - exact)) <= 1e-6

    def test_second_order_convergence(self):
        model = Lorentzian(1.0, 0.5)

        def max_error(dt):
            cfg = SolverConfig(dt=dt, t_max=20.0, method=Method.VOLTERRA)
            f = correlation(model, dt, cfg.steps + 1)
            traj = solve_volterra(f, cfg)
            return np.max(np.abs(traj.values - lorentzian_closed_form(1.0, 0.5, traj.times())))

        coarse, fine = max_error(2e-3), max_error(1e-3)
        assert coarse / fine >= 3.0

    def test_resonant_solution_stays_real(self):
        cfg = SolverConfig(dt=2e-3, t_max=30.0, method=Method.VOLTERRA)
        f = correlation(Lorentzian(1.0, 0.1), cfg.dt, cfg.steps + 1)
        traj = solve_volterra(f, cfg)
        assert np.max(np.abs(traj.values.imag)) == 0.0

    def test_markovian_strictly_decreasing(self):
        cfg = SolverConfig(dt=1e-3, t_max=5.0, method=Method.VOLTERRA)
        f = correlation(Lorentzian(1.0, 10.0), cfg.dt, cfg.steps + 1)
        traj = solve_volterra(f, cfg)
        assert np.all(np.diff(np.abs(traj.values)) < 0)

    def test_sign_changes_bracket_zero_times(self):
        dt = 1e-3
        cfg = SolverConfig(dt=dt, t_max=60.0, method=Method.CLOSED_FORM)
        traj = compute_trajectory(Lorentzian(1.0, 0.1), cfg)
        b = traj.values.real
        flips = np.flatnonzero(np.sign(b[:-1]) != np.sign(b[1:]))
        zeros = lorentzian_min_times(1.0, 0.1, flips.size)
        for i, idx in enumerate(flips):
            assert zeros[i] - dt <= idx * dt <= zeros[i] + dt

    def test_time_rescaling_invariance(self):
        c = 3.0
        cfg1 = SolverConfig(dt=1e-3, t_max=20.0, method=Method.VOLTERRA)
        f1 = correlation(Lorentzian(1.0, 0.5), cfg1.dt, cfg1.steps + 1)
        traj1 = solve_volterra(f1, cfg1)
        cfg2 = SolverConfig(dt=1e-3 * c, t_max=20.0 * c, method=Method.VOLTERRA)
        f2 = correlation(Lorentzian(1.0 / c, 0.5 / c), cfg2.dt, cfg2.steps + 1)
        traj2 = solve_volterra(f2, cfg2)
        assert np.max(np.abs(traj1.values - traj2.values)) < 1e-6

    def test_instability_reported(self):
        # A kernel whose memory turns strongly negative pumps |b| past 1.
        dt = 0.01
        n = 2000
        t = dt * np.arange(n + 1)
        values = (0.25 - 4.0 * t).astype(complex)
        f = CorrelationSamples(dt=dt, values=values)
        cfg = SolverConfig(dt=dt, t_max=dt * n, method=Method.VOLTERRA)
        # The first step past the slack is the one reported, as by the loop.
        with pytest.raises(NumericalFailureError, match=r"\|b\(0\.19\)\| = 1\.000067 .*reduce dt"):
            solve_volterra(f, cfg)
        with pytest.raises(NumericalFailureError, match=r"\|b\(0\.19\)\| = 1\.000067$"):
            reference_volterra(f, cfg)

    def test_grid_mismatch_rejected(self):
        f = CorrelationSamples(dt=0.02, values=np.full(100, 0.1, dtype=complex))
        cfg = SolverConfig(dt=0.01, t_max=0.5, method=Method.VOLTERRA)
        with pytest.raises(PhysicalityError):
            solve_volterra(f, cfg)

    def test_too_few_samples_rejected(self):
        f = CorrelationSamples(dt=0.01, values=np.full(10, 0.1, dtype=complex))
        cfg = SolverConfig(dt=0.01, t_max=0.5, method=Method.VOLTERRA)
        with pytest.raises(PhysicalityError):
            solve_volterra(f, cfg)


class TestVolterraMatchesStepLoop:
    # N + 1 = 2^k, 2^k + 1, 3 2^k or a prime (7919) among the step counts N.
    @pytest.mark.parametrize("steps", [10, 1000, 2047, 2048, 3071, 4097, 6000, 7918])
    @pytest.mark.parametrize("kernel", sorted(ORACLE_KERNELS))
    def test_matches_reference_loop(self, kernel, steps):
        model, dt = ORACLE_KERNELS[kernel]
        cfg = SolverConfig(dt=dt, t_max=dt * steps, method=Method.VOLTERRA)
        assert cfg.steps == steps
        f = correlation(model, dt, steps + 1)
        got = solve_volterra(f, cfg).values
        want = reference_volterra(f, cfg)
        assert got[0] == 1.0
        assert np.max(np.abs(got - want)) <= 1e-11

    def test_long_weakly_damped_horizon(self):
        cfg = SolverConfig(dt=1e-3, t_max=30.0, method=Method.VOLTERRA)
        f = correlation(Lorentzian(1.0, 0.1), cfg.dt, cfg.steps + 1)
        got = solve_volterra(f, cfg).values
        assert np.max(np.abs(got - reference_volterra(f, cfg))) <= 1e-11

    def test_first_failing_step_matches_reference_loop(self):
        # Far detuned at a coarse step: the scheme itself goes unstable.
        cfg = SolverConfig(dt=0.1, t_max=10.0, method=Method.VOLTERRA)
        f = correlation(Lorentzian(1.0, 1.0, detuning=100.0), cfg.dt, cfg.steps + 1)
        with pytest.raises(NumericalFailureError) as want:
            reference_volterra(f, cfg)
        with pytest.raises(NumericalFailureError, match="reduce dt") as got:
            solve_volterra(f, cfg)
        assert str(got.value).startswith(str(want.value) + " exceeds")


class TestVolterraTransforms:
    def test_fft_length_is_smallest_5_smooth(self):
        top = 10**5
        smooth = sorted(2**i * 3**j * 5**k for i in range(18) for j in range(12) for k in range(9)
                        if 2**i * 3**j * 5**k < 2 * top)
        want = np.array(smooth)[np.searchsorted(smooth, np.arange(1, top + 1))]
        got = np.array([_fft_length(n) for n in range(1, top + 1)])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("model, kind", [(Lorentzian(1.0, 0.5), "real"),
                                             (Lorentzian(1.0, 0.5, detuning=0.3), "complex")],
                             ids=["resonant", "detuned"])
    def test_debug_line_per_solve(self, caplog, model, kind):
        cfg = SolverConfig(dt=1e-2, t_max=25.0, method=Method.VOLTERRA)
        f = correlation(model, cfg.dt, cfg.steps + 1)
        with caplog.at_level(logging.DEBUG, logger="nonmarkov.amplitude"):
            solve_volterra(f, cfg)
        [record] = caplog.records
        assert record.levelno == logging.DEBUG
        # Blocks end at 1, 2, 3, 5, 10, 20, 40, 79, 157, 313, 626, 1251 and 2501;
        # the last is transformed at 2560 = 2^9 5, the smallest even 5-smooth length.
        assert record.getMessage() == (
            f"solve_volterra: 2500 steps, {kind} transforms, 12 doublings, largest transform 2560")


def mpmath_detuned(width, detuning, t):
    """b(t) at gamma0 = 1 from the two Laplace poles, to 50 digits."""
    with mpmath.workdps(50):
        a = mpmath.mpc(width, -detuning)
        root = mpmath.sqrt(a * a - 2 * mpmath.mpf(width))
        s1, s2 = (root - a) / 2, -(a + root) / 2
        return [complex(((s1 + a) * mpmath.exp(s1 * mpmath.mpf(ti))
                         - (s2 + a) * mpmath.exp(s2 * mpmath.mpf(ti))) / root) for ti in t]


class TestDetunedClosedForm:
    @pytest.mark.parametrize("detuning", [1e-12, 1e-6, 0.3, 1.0, 10.0])
    @pytest.mark.parametrize("width", [0.1, 1.0, 2 * (1 - 1e-6), 2.0, 2 * (1 + 1e-6), 5.0])
    def test_matches_mpmath_oracle(self, width, detuning):
        t = np.linspace(0.0, 60.0, 241)
        got = _detuned_closed_form(Lorentzian(1.0, width, detuning), t)
        assert np.max(np.abs(got - mpmath_detuned(width, detuning, t))) <= 1e-13

    @pytest.mark.parametrize("detuning", [0.3, 1e4])
    @pytest.mark.parametrize("width", [1e4, 1e8])
    def test_wide_or_far_detuned_matches_oracle(self, width, detuning):
        # The slower pole is small against |a| here: taken as the difference
        # (r - a)/2 it would lose up to 1e-9 of b.
        t = np.linspace(0.0, 60.0, 61)
        got = _detuned_closed_form(Lorentzian(1.0, width, detuning), t)
        assert np.max(np.abs(got - mpmath_detuned(width, detuning, t))) <= 1e-13

    @pytest.mark.parametrize("width", [0.1, 1.0, 2.0, 5.0])
    def test_zero_detuning_is_the_resonant_form(self, width):
        cfg = SolverConfig(dt=1e-3, t_max=60.0, method=Method.CLOSED_FORM)
        traj = compute_trajectory(Lorentzian(1.0, width, detuning=0.0), cfg)
        want = lorentzian_closed_form(1.0, width, traj.times()).astype(complex)
        assert np.array_equal(traj.values, want)

    def test_detuned_trajectory_carries_no_model(self):
        cfg = SolverConfig(dt=1e-2, t_max=10.0, method=Method.CLOSED_FORM)
        traj = compute_trajectory(Lorentzian(1.0, 0.5, detuning=1.0), cfg)
        assert np.array_equal(traj.values,
                              _detuned_closed_form(Lorentzian(1.0, 0.5, 1.0), traj.times()))

    @pytest.mark.parametrize("detuning", [0.3, 1.0])
    def test_horizon_bounds_amplitude_by_cutoff(self, detuning):
        model = Lorentzian(1.0, 0.1, detuning)
        horizon = default_horizon(1.0, 0.1, detuning)
        t = np.linspace(0.0, 3.0 * horizon, 300001)
        b = np.abs(_detuned_closed_form(model, t))
        assert np.max(b[t >= horizon]) <= constants.ENVELOPE_CUTOFF / 2
        # The bound it comes from holds everywhere and is tight at the horizon.
        s1, d = _poles(model)
        bound = np.exp(s1.real * t) * (1.0 + abs(s1) * np.minimum(t, 2.0 / abs(d)))
        assert np.all(b <= bound * (1.0 + 1e-12))
        at = float(np.exp(s1.real * horizon) * (1.0 + abs(s1) * min(horizon, 2.0 / abs(d))))
        assert at == pytest.approx(constants.ENVELOPE_CUTOFF / 2, rel=1e-9)


class TestTrajectoryDtype:
    @pytest.mark.parametrize("method", [Method.CLOSED_FORM, Method.VOLTERRA])
    @pytest.mark.parametrize("width", [0.5, 2.0, 5.0])
    def test_resonant_is_float64(self, method, width):
        cfg = SolverConfig(dt=1e-2, t_max=10.0, method=method)
        assert compute_trajectory(Lorentzian(1.0, width), cfg).values.dtype == np.float64

    @pytest.mark.parametrize("method", [Method.CLOSED_FORM, Method.VOLTERRA])
    def test_detuned_is_complex128(self, method):
        cfg = SolverConfig(dt=1e-2, t_max=10.0, method=method)
        assert compute_trajectory(Lorentzian(1.0, 0.5, 0.3), cfg).values.dtype == np.complex128

    @pytest.mark.parametrize("model", [OhmicFamily(coupling=0.1, exponent=1.0, cutoff=1.0, qubit_frequency=1.0),
                                       _gaussian_table()], ids=["ohmic", "tabulated"])
    def test_general_spectrum_is_complex128(self, model):
        cfg = SolverConfig(dt=1e-2, t_max=10.0, method=Method.VOLTERRA)
        assert compute_trajectory(model, cfg).values.dtype == np.complex128

    @pytest.mark.parametrize("values, dtype", [
        ([1.0, 0.5], np.float64), ([1, 0], np.float64), (np.array([1.0, 0.5], np.float32), np.float64),
        ([1.0, 0.5j], np.complex128), (np.array([1.0, 0.5], complex), np.complex128),
    ])
    def test_real_values_stay_real(self, values, dtype):
        assert AmplitudeTrajectory(dt=0.1, values=values).values.dtype == dtype

    def test_float_values_stored_without_a_copy(self):
        values = np.array([1.0, 0.5, 0.25])
        traj = AmplitudeTrajectory(dt=0.1, values=values)
        assert traj.values is values and not values.flags.writeable


class TestComputeTrajectory:
    def test_closed_form_requires_lorentzian(self):
        cfg = SolverConfig(dt=0.01, t_max=1.0, method=Method.CLOSED_FORM)
        ohmic = OhmicFamily(coupling=0.1, exponent=1.0, cutoff=1.0, qubit_frequency=1.0)
        for model in (ohmic, _gaussian_table()):
            with pytest.raises(UnsupportedModelError):
                compute_trajectory(model, cfg)

    @pytest.mark.parametrize("method", [Method.CLOSED_FORM, Method.VOLTERRA])
    def test_holds_samples_only(self, method):
        # The measures take the model as an argument; no trajectory carries it.
        cfg = SolverConfig(dt=0.01, t_max=1.0, method=method)
        traj = compute_trajectory(Lorentzian(1.0, 0.1), cfg)
        assert [f.name for f in dataclasses.fields(traj)] == ["dt", "values"]
        assert [f.name for f in dataclasses.fields(population_excited(traj))] == ["dt", "values"]

    def test_resonant_volterra_checked_once(self, monkeypatch):
        calls = []
        check = AmplitudeTrajectory._check
        monkeypatch.setattr(AmplitudeTrajectory, "_check", lambda traj, v: calls.append(v.size) or check(traj, v))
        cfg = SolverConfig(dt=1e-2, t_max=10.0, method=Method.VOLTERRA)
        compute_trajectory(Lorentzian(1.0, 0.5), cfg)
        assert calls == [1001]

    def test_volterra_detuned_lorentzian_runs(self):
        cfg = SolverConfig(dt=5e-3, t_max=10.0, method=Method.VOLTERRA)
        traj = compute_trajectory(Lorentzian(1.0, 0.5, detuning=1.0), cfg)
        assert np.max(np.abs(traj.values.imag)) > 1e-3  # detuning makes b complex


class TestHorizonAndEnvelope:
    def test_envelope_bounds_amplitude(self):
        t = np.linspace(0.0, 100.0, 2001)
        b = np.abs(lorentzian_closed_form(1.0, 0.1, t))
        env = amplitude_envelope(1.0, 0.1, t)
        assert np.all(b <= env + 1e-12)

    @pytest.mark.parametrize("width", [2.0, 2.5, 3.0, 10.0])
    def test_envelope_outside_oscillatory_regime_raises(self, width):
        # There |b| decays more slowly than exp(-width t/2): at width 10 and
        # t = 100 the formula would give 1.5e-217, against |b| = 1.3e-23.
        with pytest.raises(NoZerosError):
            amplitude_envelope(1.0, width, 100.0)

    def test_default_horizon_covers_envelope_cutoff(self):
        for width in (0.1, 0.5, 1.0):
            horizon = default_horizon(1.0, width)
            assert float(amplitude_envelope(1.0, width, horizon)) <= 1e-8

    def test_default_horizon_monotone_regimes(self):
        assert default_horizon(1.0, 10.0) == pytest.approx(
            10.0 / (10.0 - kappa(Lorentzian(1.0, 10.0))), abs=1e-12
        )
        assert default_horizon(1.0, 2.0) == pytest.approx(5.0, abs=1e-12)

    @pytest.mark.parametrize("width", [3.0, 1e4, 1e8, 1e16, 1e150])
    def test_default_horizon_is_ten_decay_times(self, width):
        # 10/(width - kappa) at gamma0 = 1, which cancels in floating point;
        # 400 digits hold width^2 - 2 width at width 1e150.
        with mpmath.workdps(400):
            w = mpmath.mpf(width)
            exact = 10 / (w - mpmath.sqrt(w * w - 2 * w))
            assert float(abs(default_horizon(1.0, width) / exact - 1)) <= 1e-15
