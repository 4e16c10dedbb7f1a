"""Excited-state survival amplitude b(t).

For the resonant Lorentzian reservoir b(t) has closed forms in all three
regimes. For everything else (and as a cross-check), the time-domain
Volterra equation

    b'(t) = -int_0^t f(t - s) b(s) ds,   b(0) = 1,

is integrated with implicit trapezoidal product integration (the fully
converged corrector, second order overall) plus Gregory end corrections on
the history integral. The history convolution is direct O(N^2) summation
via BLAS dot products.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import constants
from .errors import NoZerosError, NumericalFailureError, PhysicalityError, UnsupportedModelError
from .reservoir import CorrelationSamples, Lorentzian, Regime, SpectralModel, classify_regime, correlation, kappa


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

    Regime-appropriate branch, with the kappa -> 0 series limit inside a
    relative window around the critical point to avoid cancellation.
    """
    if not (gamma0 > 0 and width > 0):
        raise PhysicalityError("rates must be positive")
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 0):
        raise PhysicalityError("t must be nonnegative")
    k = np.sqrt(abs(width**2 - 2.0 * gamma0 * width))
    if abs(width - 2.0 * gamma0) <= constants.CRITICAL_BRANCH_REL_TOL * width:
        out = np.exp(-0.5 * width * tt) * (1.0 + 0.5 * width * tt)
    elif gamma0 < 0.5 * width:
        # exp(-width*t/2)[cosh + (width/k)sinh] regrouped into two decaying
        # exponentials so large t cannot overflow the cosh.
        out = 0.5 * (1.0 + width / k) * np.exp(-0.5 * (width - k) * tt) + 0.5 * (
            1.0 - width / k
        ) * np.exp(-0.5 * (width + k) * tt)
    else:
        out = np.exp(-0.5 * width * tt) * (
            np.cos(0.5 * k * tt) + (width / k) * np.sin(0.5 * k * tt)
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
    times the slowest decay time.
    """
    model = Lorentzian(gamma0=gamma0, width=width)
    k = kappa(model)
    regime = classify_regime(model)
    if regime is Regime.NON_MARKOVIAN:
        periods = 40.0 * np.pi / k
        # Aim halfway below the cutoff so the truncation check has margin.
        envelope = 2.0 * np.log(2.0 * (1.0 + width / k) / constants.ENVELOPE_CUTOFF) / width
        return max(periods, envelope)
    if regime is Regime.CRITICAL:
        return 10.0 / width
    return 10.0 / (width - k)


def solve_volterra(f: CorrelationSamples, cfg: SolverConfig) -> AmplitudeTrajectory:
    """Integrate the memory-kernel equation for b(t) on cfg's grid.

    Implicit trapezoidal product integration: the corrector equation is
    linear in b[k] and solved exactly each step. Aborts with a numerical
    failure if |b| leaves the unit disk by more than the instability slack.
    """
    if abs(f.dt - cfg.dt) > 1e-12 * cfg.dt:
        raise PhysicalityError(f"correlation sampled at dt={f.dt}, solver wants {cfg.dt}")
    n = cfg.steps
    if f.values.size < n + 1:
        raise PhysicalityError(
            f"correlation has {f.values.size} samples, need {n + 1} to cover t_max"
        )
    dt = cfg.dt
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
            raise NumericalFailureError(
                f"|b({k * dt:g})| = {abs(bk):.6f} exceeds 1 + {constants.AMPLITUDE_INSTABILITY_SLACK:g}; "
                "reduce dt"
            )
        b[k] = bk
        bprime = -dt * (g + c0 * fv[0] * bk)
    return AmplitudeTrajectory(dt=dt, values=b)


def compute_trajectory(model: SpectralModel, cfg: SolverConfig) -> AmplitudeTrajectory:
    """Produce b(t) for a spectral model using the configured method."""
    n = cfg.steps
    if cfg.method is Method.CLOSED_FORM:
        if not isinstance(model, Lorentzian) or model.detuning != 0.0:
            raise UnsupportedModelError(
                "the closed-form path covers the resonant Lorentzian only; "
                "use the Volterra method for this model"
            )
        t = cfg.dt * np.arange(n + 1)
        values = lorentzian_closed_form(model.gamma0, model.width, t).astype(complex)
        return AmplitudeTrajectory(dt=cfg.dt, values=values, lorentzian=model)
    f = correlation(model, cfg.dt, n + 1)
    traj = solve_volterra(f, cfg)
    meta = model if isinstance(model, Lorentzian) and model.detuning == 0.0 else None
    if meta is not None:
        traj = AmplitudeTrajectory(dt=traj.dt, values=traj.values, lorentzian=meta)
    return traj

