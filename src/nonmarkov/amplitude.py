"""Excited-state survival amplitude b(t).

For every Lorentzian reservoir b(t) has a closed form. At zero detuning
there is one formula for the oscillatory regime and one for the critical
and Markovian regimes; `_oscillates` holds the condition between them,
which also decides where the envelope bound on |b| exists. At any other
detuning b(t) is a sum over the two poles of its Laplace transform,
written from the slower pole so that it does not cancel.
For the other spectra (and as a cross-check), the time-domain
Volterra equation

    b'(t) = -int_0^t f(t - s) b(s) ds,   b(0) = 1,

is integrated with implicit trapezoidal product integration (the fully
converged corrector, second order overall) plus Gregory end corrections on
the history integral. The scheme is linear with a Toeplitz history sum, so
all steps are solved at once as one power-series division, in blocks that
end where halving N + 1 lands: each block of b comes from its own residual,
and a Newton step extends the reciprocal series for the next. Products are
cyclic at 5-smooth lengths, and real transforms serve a real kernel (a
resonant Lorentzian): O(N log N) in the step count, with no loop over steps.

`AmplitudeTrajectory` stores b on `reservoir`'s sample grid and adds
b(0) = 1, at least two samples and |b| <= 1 + AMPLITUDE_BOUND_SLACK. A
real b stays float64, as the resonant closed form and the real-transform
Volterra solve give it, at half the bytes of a complex one; a detuned or
general-spectrum b is complex128. One function, `_closed_form_into`,
writes either closed form: `lorentzian_closed_form` beside one temporary
of t's size, and `compute_trajectory` block by block, with temporaries of
one block.
"""

from __future__ import annotations

import cmath
import enum
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import constants
from .errors import NoZerosError, NumericalFailureError, PhysicalityError, UnsupportedModelError
from .reservoir import (CorrelationSamples, Lorentzian, Regime, SpectralModel, _check_phase,
                        _max_abs, _SampleGrid, classify_regime, correlation, kappa)

log = logging.getLogger(__name__)


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
class AmplitudeTrajectory(_SampleGrid):
    """b(n*dt) on a uniform grid, b(0) = 1.

    Real values stay float64 and any others are stored as complex128.
    The check of max|b| (`reservoir._max_abs`) makes no array of b's
    length; the finiteness check makes one of a byte a sample.
    """

    _dtype = None

    def _check(self, v: np.ndarray) -> None:
        if v.size < 2:
            raise PhysicalityError("trajectory needs at least two samples")
        if v[0] != 1.0:
            raise PhysicalityError(f"b(0) must be exactly 1, got {v[0]}")
        peak = _max_abs(v)
        if peak > 1.0 + constants.AMPLITUDE_BOUND_SLACK:
            raise PhysicalityError(f"|b| reaches {peak!r}, beyond 1 + slack")


def _oscillates(gamma0: float, width: float, k: float) -> bool:
    """The closed form's oscillatory condition, gamma0 > width/2 and kappa > 0."""
    return gamma0 > 0.5 * width and k > 0.0


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

    b is built by `_closed_form_into` in one output array beside one
    temporary of t's size.
    """
    model = Lorentzian(gamma0=gamma0, width=width)
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 0):
        raise PhysicalityError("t must be nonnegative")
    out = np.empty(tt.shape)
    _closed_form_into(model, tt, out, np.empty(tt.shape), tt)
    return out if out.ndim else float(out)


def _closed_form_into(model: Lorentzian, tt: np.ndarray, out: np.ndarray, tmp: np.ndarray,
                      t_end) -> None:
    """The Lorentzian b at times tt >= 0, written into out; tmp, of out's shape and dtype, is overwritten.

    At zero detuning out is real and holds `lorentzian_closed_form`. At any
    other detuning out is complex: the Laplace transform of b is
    (s + a)/(s^2 + a s + gamma0 width/2), with a = width - i detuning
    (Breuer & Petruccione, sec. 10.1), so with the poles of `_poles`
        b = [(s1 + a) e^{s1 t} - (s2 + a) e^{s2 t}]/d = e^{s1 t} [1 - s1 (1 - e^{-d t})/d],
    as s2 + a = -s1. Re d >= 0, so e^{-d t} stays bounded, and
    (1 - e^{-d t})/d comes from expm1: it does not cancel where s1 ~ s2, and
    it is t where d = 0. Each step is an operation of these formulas on the
    operands they give it, so the bits are those of evaluating them one
    whole array at a time. t_end is the grid's last time (or the times),
    named when the detuned phase overflows.
    """
    if model.detuning == 0.0:
        gamma0, width, k = model.gamma0, model.width, kappa(model)
        if _oscillates(gamma0, width, k):
            np.multiply(0.5 * k, tt, out=tmp)
            np.sin(tmp, out=out)
            out *= width / k
            out += np.cos(tmp, out=tmp)
            np.multiply(-0.5 * width, tt, out=tmp)
        else:
            with np.errstate(over="ignore"):  # kappa t = inf is exact: e^{-kappa t} = 0
                np.multiply(k, tt, out=tmp)
            np.negative(tmp, out=tmp)
            # (1 - e^{-kappa t})/kappa, and its limit t at kappa = 0.
            if k > 0.0:
                np.negative(np.expm1(tmp, out=out), out=out)
                out /= k
            else:
                out[...] = tt
            out *= 0.5 * width
            np.exp(tmp, out=tmp)
            tmp += 1.0
            tmp *= 0.5
            out += tmp
            np.multiply(-(gamma0 * width / (width + k)), tt, out=tmp)
        out *= np.exp(tmp, out=tmp)
    else:
        s1, d = _poles(model)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing phase d t is rejected below
            if d != 0.0:
                np.multiply(-d, tt, out=out)
                np.negative(np.expm1(out, out=out), out=out)
                out /= d
            else:
                out[...] = tt
            np.multiply(s1, out, out=out)
            np.subtract(1.0, out, out=out)
            np.multiply(s1, tt, out=tmp)
            np.multiply(np.exp(tmp, out=tmp), out, out=out)
        _check_phase(model, out, t_end)
    out[tt == 0.0] = 1.0  # initial condition exact by definition


def _poles(model: Lorentzian) -> tuple[complex, complex]:
    """(s1, d): the slower root s1 of s^2 + a s + gamma0 width/2, a = width - i detuning, and d = s1 - s2.

    With r the principal square root of a^2 - 2 gamma0 width, so Re r >= 0,
    the roots are s1 = (r - a)/2 and s2 = -(a + r)/2, and d = r. So
    Re s1 >= Re s2, and s2 does not cancel: Re(a + r) >= width > 0. s1 comes
    from s1 s2 = gamma0 width/2 instead of the difference. r is formed in
    units of |a|, so no square overflows.
    """
    kappa(model)  # checks that width^2 and 2 gamma0 width are finite
    gamma0, width = model.gamma0, model.width
    scale = math.hypot(width, model.detuning)
    a = complex(width, -model.detuning) / scale
    r = cmath.sqrt(a * a - 2.0 * gamma0 * width / scale / scale)
    s2 = -0.5 * scale * (a + r)
    return 0.5 * gamma0 * width / s2, scale * r


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
    """Decaying bound exp(-width*t/2)(1 + width/kappa) on |b(t)| in the oscillatory regime.

    Elsewhere |b| decays more slowly than exp(-width*t/2), so there is no
    such bound and NoZerosError is raised.
    """
    k = kappa(Lorentzian(gamma0=gamma0, width=width))
    if not _oscillates(gamma0, width, k):
        raise NoZerosError("envelope bound is defined for the oscillatory regime")
    return np.exp(-0.5 * width * np.asarray(t, dtype=float)) * (1.0 + width / k)


def _envelope_time(width: float, k: float, level: float) -> float:
    """When `amplitude_envelope` falls to level: 2 ln((1 + width/kappa)/level)/width.

    A Python float, so a subnormal width gives inf with no numpy warning.
    """
    return 2.0 * float(np.log((1.0 + width / k) / level)) / width


def default_horizon(gamma0: float, width: float, detuning: float = 0.0) -> float:
    """Default t_max: long enough for measure truncation.

    At zero detuning: non-Markovian, at least 20 oscillation periods and
    long enough that the amplitude envelope drops below the truncation
    cutoff; otherwise ten times the slowest decay time 1/(width - kappa)
    of |b|^2, written as (width + kappa)/(2 gamma0 width), which does not
    cancel. At any other detuning, where |b| stays below the cutoff:
    see `_detuned_horizon`.
    """
    model = Lorentzian(gamma0=gamma0, width=width, detuning=detuning)
    if detuning != 0.0:
        return _detuned_horizon(model)
    k = kappa(model)
    if classify_regime(model) is Regime.NON_MARKOVIAN:
        periods = 40.0 * np.pi / k
        # Aim halfway below the cutoff, so that the kept maxima and simulate's
        # trajectory reach below it; a subnormal width gives inf, which the caps reject.
        return max(periods, _envelope_time(width, k, 0.5 * constants.ENVELOPE_CUTOFF))
    return 10.0 * (width + k) / (2.0 * gamma0 * width)


def _detuned_horizon(model: Lorentzian) -> float:
    """The time past which a bound on |b| stays below ENVELOPE_CUTOFF/2, at any detuning.

    In `_closed_form_into`, b = e^{s1 t} [1 - s1 E] with
    E = (1 - e^{-d t})/d = t int_0^1 e^{-d t u} du. Since Re d >= 0,
    |E| <= t and |E| <= 2/|d|, so for every t
        |b(t)| <= B(t) = e^{-r t} (1 + |s1| min(t, 2/|d|)),   r = -Re s1 > 0.
    The horizon is the root of h(t) = r t - ln(2 (1 + |s1| min(t, 2/|d|))/cutoff),
    where B = cutoff/2. min(t, 2/|d|) is concave in t, so h is convex; and
    h(0) < 0, so h has one root and B < cutoff/2 beyond it. Doubling from
    ln(2/cutoff)/r, where h <= 0, finds a t with h(t) >= 0; Newton steps
    from there stay right of the root, by convexity, and converge down to
    it. An r so small that the root is not finite gives inf.
    """
    s1, d = _poles(model)
    r, c = -s1.real, abs(s1)
    knee = 2.0 / abs(d) if d != 0.0 else math.inf
    log_cut = math.log(2.0 / constants.ENVELOPE_CUTOFF)

    def h(t):
        return r * t - log_cut - math.log1p(c * min(t, knee))

    t = log_cut / r if r > 0.0 else math.inf
    while t < math.inf and h(t) < 0.0:
        t *= 2.0
    if t == math.inf:
        return t
    for _ in range(100):
        step = h(t) / (r - (c / (1.0 + c * t) if t < knee else 0.0))
        t -= step
        if step <= 1e-13 * t:
            break
    return t


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
    kernel gives b = 1 exactly: P W = S with S = R - P/(1 - z).

    The blocks [lo, hi) end where halving N + 1 (rounding up) lands, so each
    block is at most as long as what precedes it. Each block of W comes from
    its own residual, W[lo:hi] = Q (S - P W[:lo]) on [lo, hi), with Q = 1/P
    to order lo; while another block follows, one Newton step (Brent & Kung,
    J. ACM 25 (1978) 581) extends Q to order hi from the residual of
    P Q = 1, sharing P's transform. Every product is cyclic at the smallest
    even 5-smooth length at least hi: 9 transforms a block, 6 in the last,
    and O(N log N) in all. A real kernel (a resonant Lorentzian) keeps P, S, Q
    and W real, and is solved with real transforms. Aborts at the first step
    where |b| leaves the unit disk by more than AMPLITUDE_BOUND_SLACK, the
    bound of `AmplitudeTrajectory`: with a numerical failure, or with a
    PhysicalityError where |b| is not finite because the correlation is too
    large for the arithmetic.
    """
    if abs(f.dt - cfg.dt) > 1e-12 * cfg.dt:
        raise PhysicalityError(f"correlation sampled at dt={f.dt}, solver wants {cfg.dt}")
    n = cfg.steps
    if f.values.size < n + 1:
        raise PhysicalityError(
            f"correlation has {f.values.size} samples, need {n + 1} to cover t_max"
        )
    dt = cfg.dt
    # Overflow and NaN are not reported here: a b that is not finite fails its bound check.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        h = 0.5 * dt * dt
        fv = f.values[: n + 1]
        real = not fv.imag.any()
        if real:
            fv = fv.real
        fwd, inv = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)
        f0, f1 = fv[0], fv[1]
        b1 = (1.0 - 0.5 * h * f1) / (1.0 + 0.5 * h * f0)
        # (1 + z) T: T is F with the Gregory end weights 5/12 and 13/12 folded in.
        p = _times_one_plus_z(fv)
        p[:3] = (5.0 * f0 / 12.0, 5.0 * f0 / 12.0 + 13.0 * f1 / 12.0, 13.0 * f1 / 12.0 + fv[2])
        p *= h
        p[0] += 1.0
        p[1] -= 1.0
        # S = h (1 + z) (7F/12 - b1 z F/12 - f0/6 - T/(1 - z)), where T/(1 - z)
        # is the running sum of F less 7 f0/12 - f1/12 past its first term.
        rhs = np.cumsum(fv)
        rhs -= 7.0 * f0 / 12.0 - f1 / 12.0
        np.subtract(7.0 / 12.0 * fv, rhs, out=rhs)
        rhs[1:] -= b1 / 12.0 * fv[:-1]
        rhs[0] = 0.0  # 7f0/12 - f0/6 - 5f0/12: zero, so W starts at 0
        s = _times_one_plus_z(rhs)
        s *= h
        del rhs

        ends = [n + 1]
        while ends[-1] > 1:
            ends.append((ends[-1] + 1) // 2)
        ends.reverse()
        q = np.empty(ends[-2], dtype=fv.dtype)  # 1/P, up to the last block
        w = np.empty(n + 1, dtype=fv.dtype)  # W, and b once the last block is in
        q[0] = 1.0 / p[0]
        w[0] = 0.0
        limit = 1.0 + constants.AMPLITUDE_BOUND_SLACK
        for lo, hi in zip(ends, ends[1:]):
            m = hi - lo
            # At least hi, so no product wraps into [lo, hi), nor one with Q into
            # [0, m); even, since odd lengths slow numpy's real transforms.
            size = 2 * _fft_length(-(-hi // 2))
            fp = fwd(p[:hi], size)
            fq = fwd(q[:lo], size)
            # W[lo:hi] = (Q r)[:m] with r = (S - P W[:lo])[lo:hi], which needs Q to order m <= lo.
            acc = fwd(w[:lo], size)
            acc *= fp
            acc = fwd(s[lo:hi] - inv(acc, size)[lo:hi], size)
            acc *= fq
            w[lo:hi] = inv(acc, size)[:m]
            over = np.flatnonzero(~(np.abs(w[lo:hi] + 1.0) <= limit))
            if over.size:
                k = lo + int(over[0])
                peak = abs(w[k] + 1.0)
                if not math.isfinite(peak):
                    raise PhysicalityError(f"|b({k * dt:g})| is not finite: the correlation, |f(0)| = "
                                           f"{abs(f0):g}, overflows the solve at dt {dt:g}")
                raise NumericalFailureError(f"|b({k * dt:g})| = {peak:.6f} exceeds "
                                            f"1 + {constants.AMPLITUDE_BOUND_SLACK:g}; reduce dt")
            if hi <= n:
                # Newton: q[lo:hi] = -(Q e)[:m] with e = (P Q)[lo:hi], the residual of P Q = 1.
                fp *= fq
                acc = fwd(inv(fp, size)[lo:hi], size)
                acc *= fq
                q[lo:hi] = -inv(acc, size)[:m]
        w += 1.0
    log.debug("solve_volterra: %d steps, %s transforms, %d doublings, largest transform %d",
              n, "real" if real else "complex", len(ends) - 1, size)
    return AmplitudeTrajectory(dt=dt, values=w)


def _times_one_plus_z(a: np.ndarray) -> np.ndarray:
    """Coefficients of (1 + z) a(z), truncated to len(a), as a new array."""
    out = np.empty(a.size, dtype=a.dtype)
    out[0] = a[0]
    np.add(a[1:], a[:-1], out=out[1:])
    return out


def _fft_length(n: int) -> int:
    """The smallest 5-smooth integer 2^i 3^j 5^k at least n."""
    best = 1 << (n - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


# compute_trajectory writes a closed-form b this many samples at a time, so
# its times and temporaries do not grow with the step count.
_CLOSED_FORM_BLOCK = 1 << 14


def _closed_form_blocks(model: Lorentzian, dt: float, n: int) -> np.ndarray:
    """The Lorentzian closed form at t = dt*k, k = 0 .. n, written block by block into one array.

    Block [lo, hi) takes its times from dt * arange(lo, hi), the elements of
    dt * arange(n + 1), and `_closed_form_into` runs the elementwise
    operations of the whole-array closed form on them, so b (float64 at
    zero detuning, complex128 otherwise) has the bits of the whole grid at
    once. Beside b, the times and one temporary exist at one block's
    length, at most `_CLOSED_FORM_BLOCK` + 1 samples; no block has fewer
    than two.
    """
    out = np.empty(n + 1, dtype=float if model.detuning == 0.0 else complex)
    tmp = np.empty(min(n + 1, _CLOSED_FORM_BLOCK + 1), dtype=out.dtype)
    for lo in range(0, n, _CLOSED_FORM_BLOCK):
        # The last block takes the last sample: numpy multiplies a lone complex
        # sample in place by another path than an array's, whose bits differ.
        hi = n + 1 if lo + _CLOSED_FORM_BLOCK >= n else lo + _CLOSED_FORM_BLOCK
        _closed_form_into(model, dt * np.arange(lo, hi), out[lo:hi], tmp[:hi - lo], dt * n)
    return out


def compute_trajectory(model: SpectralModel, cfg: SolverConfig) -> AmplitudeTrajectory:
    """Produce b(t) for a spectral model using the configured method.

    A closed form is written into b in blocks of `_CLOSED_FORM_BLOCK`
    samples, so beyond b's 8 (real) or 16 (complex) bytes a step its
    temporaries have a fixed size; the checks of `AmplitudeTrajectory` add
    one byte a step while they run.
    """
    n = cfg.steps
    if cfg.method is Method.CLOSED_FORM:
        if not isinstance(model, Lorentzian):
            raise UnsupportedModelError(
                "the closed-form path covers the Lorentzian only; "
                "use the Volterra method for this model"
            )
        return AmplitudeTrajectory(dt=cfg.dt, values=_closed_form_blocks(model, cfg.dt, n))
    return solve_volterra(correlation(model, cfg.dt, n + 1), cfg)

