"""Excited-state survival amplitude b(t).

For the resonant Lorentzian reservoir b(t) has a closed form, one formula
for the oscillatory regime and one for the critical and Markovian regimes.
For everything else (and as a cross-check), the time-domain
Volterra equation

    b'(t) = -int_0^t f(t - s) b(s) ds,   b(0) = 1,

is integrated with implicit trapezoidal product integration (the fully
converged corrector, second order overall) plus Gregory end corrections on
the history integral. The scheme is linear with a Toeplitz history sum, so
all steps are solved at once as one power-series division, by Newton
doubling with FFT products: O(N log N) in the step count, with no loop
over steps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import constants
from .errors import NoZerosError, NumericalFailureError, PhysicalityError, UnsupportedModelError
from .reservoir import CorrelationSamples, Lorentzian, Regime, SpectralModel, classify_regime, correlation, is_resonant, kappa


class Method(enum.Enum):
    CLOSED_FORM = "closed_form"
    VOLTERRA = "volterra"


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_max: float
    method: Method = Method.CLOSED_FORM

    def __post_init__(self):
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise PhysicalityError(f"dt must be positive, got {self.dt}")
        if not (self.t_max >= 10 * self.dt):
            raise PhysicalityError(f"t_max must be at least 10*dt, got {self.t_max}")

    @property
    def steps(self) -> int:
        return int(round(self.t_max / self.dt))


@dataclass(frozen=True, eq=False)
class AmplitudeTrajectory:
    """b(n*dt) on a uniform grid, b(0) = 1.

    `lorentzian` carries the generating model when it is a resonant
    Lorentzian; the measure module uses it for envelope-based truncation
    bounds. It is None for general spectra.
    """

    dt: float
    values: np.ndarray
    lorentzian: Lorentzian | None = None

    def __post_init__(self):
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise PhysicalityError(f"dt must be positive, got {self.dt}")
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 1 or v.size < 2:
            raise PhysicalityError("trajectory needs at least two samples")
        if not np.isfinite(v).all():
            raise PhysicalityError("trajectory contains non-finite samples")
        if v[0] != 1.0:
            raise PhysicalityError(f"b(0) must be exactly 1, got {v[0]}")
        peak = float(np.max(np.abs(v)))
        if peak > 1.0 + constants.AMPLITUDE_BOUND_SLACK:
            raise PhysicalityError(f"|b| reaches {peak!r}, beyond 1 + slack")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def t_max(self) -> float:
        return self.dt * (self.values.size - 1)

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.values.size)


def lorentzian_closed_form(gamma0: float, width: float, t):
    """Resonant-Lorentzian b(t); scalar or array t, real-valued result.

    With kappa = sqrt(|width^2 - 2 gamma0 width|) from `reservoir.kappa`
    (Breuer & Petruccione, The Theory of Open Quantum Systems, sec. 10.1):
    for gamma0 > width/2 and kappa > 0, b oscillates,
        b = exp(-width t/2) [cos(kappa t/2) + (width/kappa) sin(kappa t/2)].
    Otherwise b decays monotonically,
        b = exp(-r t) [(1 + e^{-kappa t})/2 + (width/2) (1 - e^{-kappa t})/kappa],
    with r = (width - kappa)/2 written as gamma0 width/(width + kappa), which
    does not cancel, and 1 - e^{-kappa t} from expm1. The last term tends to
    width t/2 as kappa -> 0, so at kappa = 0 the same line is the critical
    exp(-width t/2)(1 + width t/2).
    """
    k = kappa(Lorentzian(gamma0=gamma0, width=width))  # Lorentzian checks both rates
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 0):
        raise PhysicalityError("t must be nonnegative")
    if gamma0 > 0.5 * width and k > 0.0:
        out = np.exp(-0.5 * width * tt) * (
            np.cos(0.5 * k * tt) + (width / k) * np.sin(0.5 * k * tt)
        )
    else:
        with np.errstate(over="ignore"):  # kappa t = inf is exact: e^{-kappa t} = 0
            kt = k * tt
        # (1 - e^{-kappa t})/kappa, and its limit t at kappa = 0.
        decay = -np.expm1(-kt) / k if k > 0.0 else tt
        out = np.exp(-(gamma0 * width / (width + k)) * tt) * (
            0.5 * (1.0 + np.exp(-kt)) + 0.5 * width * decay
        )
    out = np.where(tt == 0.0, 1.0, out)  # initial condition exact by definition
    return out if out.ndim else float(out)


def lorentzian_min_times(gamma0: float, width: float, n_max: int) -> np.ndarray:
    """First n_max zero times 2[n*pi - arctan(kappa/width)]/kappa of b(t).

    Only the non-Markovian regime has zeros; elsewhere raises NoZerosError.
    """
    model = Lorentzian(gamma0=gamma0, width=width)
    if classify_regime(model) is not Regime.NON_MARKOVIAN:
        raise NoZerosError(
            "b(t) decays monotonically for gamma0 <= width/2; no zero times exist"
        )
    if n_max < 1:
        raise PhysicalityError("n_max must be at least 1")
    k = kappa(model)
    n = np.arange(1, n_max + 1)
    return 2.0 * (n * np.pi - np.arctan(k / width)) / k


def amplitude_envelope(gamma0: float, width: float, t) -> np.ndarray:
    """Decaying bound exp(-width*t/2)(1 + width/kappa) on |b(t)|, non-Markovian."""
    k = kappa(Lorentzian(gamma0=gamma0, width=width))
    if k == 0.0:
        raise NoZerosError("envelope bound is defined for the oscillatory regime")
    return np.exp(-0.5 * width * np.asarray(t, dtype=float)) * (1.0 + width / k)


def default_horizon(gamma0: float, width: float) -> float:
    """Default t_max: long enough for measure truncation.

    Non-Markovian: at least 20 oscillation periods and long enough that the
    amplitude envelope drops below the truncation cutoff. Otherwise ten
    times the slowest decay time 1/(width - kappa) of |b|^2, written as
    (width + kappa)/(2 gamma0 width), which does not cancel.
    """
    model = Lorentzian(gamma0=gamma0, width=width)
    k = kappa(model)
    if classify_regime(model) is Regime.NON_MARKOVIAN:
        periods = 40.0 * np.pi / k
        # Aim halfway below the cutoff so the truncation check has margin.
        envelope = 2.0 * np.log(2.0 * (1.0 + width / k) / constants.ENVELOPE_CUTOFF) / width
        return max(periods, envelope)
    return 10.0 * (width + k) / (2.0 * gamma0 * width)


def solve_volterra(f: CorrelationSamples, cfg: SolverConfig) -> AmplitudeTrajectory:
    """Integrate the memory-kernel equation for b(t) on cfg's grid.

    Implicit trapezoid in time with the Gregory-weighted history sum
    (weights 5/12, 13/12, 1, ..., 1, 13/12, 5/12). With F(z) = sum f_k z^k,
    h = dt^2/2 and T = F - 7 f0/12 + f1 z/12, the scheme is exactly the
    power-series equation P(z) B(z) = R(z) with

        P = (1 - z) + h (1 + z) T,
        R = 1 + h (1 + z) (7F/12 - b1 z F/12 - f0/6),

    where b1 is the first (plain trapezoid) step. The solver divides R by P
    for W = B - 1/(1 - z), the series of b[k] - 1, so that a vanishing
    kernel gives b = 1 exactly. 1/P comes from Newton doubling with FFT
    products (Brent & Kung, J. ACM 25 (1978) 581); each doubling also yields
    the next block of b, O(N log N) in all. Aborts with a numerical failure
    at the first step where |b| leaves the unit disk by more than the
    instability slack.
    """
    if abs(f.dt - cfg.dt) > 1e-12 * cfg.dt:
        raise PhysicalityError(f"correlation sampled at dt={f.dt}, solver wants {cfg.dt}")
    n = cfg.steps
    if f.values.size < n + 1:
        raise PhysicalityError(
            f"correlation has {f.values.size} samples, need {n + 1} to cover t_max"
        )
    dt = cfg.dt
    h = 0.5 * dt * dt
    fv = f.values[: n + 1]
    f0, f1 = fv[0], fv[1]
    b1 = (1.0 - 0.5 * h * f1) / (1.0 + 0.5 * h * f0)
    fg = fv.copy()  # T: F with the Gregory end weights folded in
    fg[0] -= 7.0 * f0 / 12.0
    fg[1] += f1 / 12.0
    p = _times_one_plus_z(h * fg)
    p[0] += 1.0
    p[1] -= 1.0
    # P W = R - P/(1 - z) = h (1 + z) (7F/12 - b1 z F/12 - f0/6 - T/(1 - z)).
    rhs = np.cumsum(fg)
    rhs *= -1.0
    rhs += 7.0 / 12.0 * fv
    rhs[1:] -= b1 / 12.0 * fv[:-1]
    rhs[0] = 0.0  # 7f0/12 - f0/6 - 5f0/12: zero, so W starts at 0
    s = _times_one_plus_z(h * rhs)
    del fg, rhs

    q = np.empty(n + 1, dtype=complex)  # 1/P, one doubling at a time
    b = np.empty(n + 1, dtype=complex)
    q[0] = 1.0 / p[0]
    b[0] = 1.0
    limit = 1.0 + constants.AMPLITUDE_INSTABILITY_SLACK
    lo = 1
    while lo <= n:
        hi = min(2 * lo, n + 1)
        m = hi - lo
        size = 1 << (hi - 1).bit_length()  # cyclic length; no product wraps into [lo, hi)
        fq = np.fft.fft(q[:lo], size)
        # Residual of P Q = 1 on [lo, hi); Newton: q[lo:hi] = -(Q residual)[:m].
        acc = np.fft.fft(p[:hi], size)
        acc *= fq
        acc = np.fft.fft(np.fft.ifft(acc)[lo:hi], size)
        acc *= fq if m == lo else np.fft.fft(q[:m], size)
        q[lo:hi] = -np.fft.ifft(acc)[:m]
        # W on [lo, hi): old Q against S[:hi], the new block against S[:m].
        acc = np.fft.fft(s[:hi], size)
        acc *= fq
        block = np.zeros(size, dtype=complex)
        block[lo:hi] = q[lo:hi]
        block = np.fft.fft(block)
        block *= np.fft.fft(s[:m], size)
        acc += block
        del block
        b[lo:hi] = np.fft.ifft(acc)[lo:hi]
        b[lo:hi] += 1.0
        over = np.flatnonzero(np.abs(b[lo:hi]) > limit)
        if over.size:
            k = lo + int(over[0])
            raise NumericalFailureError(
                f"|b({k * dt:g})| = {abs(b[k]):.6f} exceeds 1 + {constants.AMPLITUDE_INSTABILITY_SLACK:g}; "
                "reduce dt"
            )
        lo = hi
    return AmplitudeTrajectory(dt=dt, values=b)


def _times_one_plus_z(a: np.ndarray) -> np.ndarray:
    """Coefficients of (1 + z) a(z), truncated to len(a); overwrites a."""
    a[1:] += a[:-1].copy()
    return a


def compute_trajectory(model: SpectralModel, cfg: SolverConfig) -> AmplitudeTrajectory:
    """Produce b(t) for a spectral model using the configured method."""
    n = cfg.steps
    if cfg.method is Method.CLOSED_FORM:
        if not is_resonant(model):
            raise UnsupportedModelError(
                "the closed-form path covers the resonant Lorentzian only; "
                "use the Volterra method for this model"
            )
        t = cfg.dt * np.arange(n + 1)
        values = lorentzian_closed_form(model.gamma0, model.width, t).astype(complex)
        return AmplitudeTrajectory(dt=cfg.dt, values=values, lorentzian=model)
    f = correlation(model, cfg.dt, n + 1)
    traj = solve_volterra(f, cfg)
    if is_resonant(model):
        traj = AmplitudeTrajectory(dt=traj.dt, values=traj.values, lorentzian=model)
    return traj

