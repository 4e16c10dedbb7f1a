"""Spectral densities J(w) and the reservoir correlation function f(t).

Rates are in units of an arbitrary reference rate chosen by the caller
(the CLI uses gamma0 = 1); times are in inverse units of the same rate.

The Lorentzian correlation uses the wide-band closed form
f(t) = (gamma0*width/2) * exp((i*detuning - width) * t), and the Ohmic
family the Gamma-function closed form
f(t) = coupling * cutoff^2 * Gamma(s+1) * exp(i*w0*t) / (1 + i*cutoff*t)^(s+1)
(Leggett et al., Rev. Mod. Phys. 59, 1 (1987)). Tabulated spectra
integrate their linear interpolant times the oscillatory factor exactly,
as one sum over the table's nodes weighted by the jumps in its slope (the
linear case of the endpoint-corrected Fourier integrals in Numerical
Recipes, 3rd ed., section 13.9). Each node's term is bounded for every t
by |d_m| x_m^2 / 2 (its slope jump times its squared offset from the qubit
frequency, halved), so the nodes with the smallest bounds are dropped while
those bounds sum to at most _PRUNE_EPS * f(0), with _PRUNE_EPS = 2^-52 the
double-precision unit roundoff. The sum over the kept nodes splits each
sample's phase at the start of its 128-sample block, so for n samples its
trig work is (n/128 + 128) * kept nodes, plus one complex matrix product of
(n/128) x kept nodes by kept nodes x 128. It runs over bounded chunks of
nodes and blocks and takes y - sin(y) from its Taylor series at small
phases, so it loses no digits to cancellation at small t.
"""

from __future__ import annotations

import enum
import logging
import math
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import constants
from .errors import PhysicalityError, UnsupportedModelError

log = logging.getLogger(__name__)


class Regime(enum.Enum):
    MARKOVIAN = "markovian"
    NON_MARKOVIAN = "non_markovian"
    CRITICAL = "critical"


@dataclass(frozen=True)
class Lorentzian:
    """Lorentzian spectral density of width `width` centered at resonance.

    `detuning` shifts the qubit frequency off the spectral center; the
    closed-form amplitude path requires detuning == 0.
    """

    gamma0: float
    width: float
    detuning: float = 0.0

    def __post_init__(self):
        if not (self.gamma0 > 0 and np.isfinite(self.gamma0)):
            raise PhysicalityError(f"gamma0 must be positive, got {self.gamma0}")
        if not (self.width > 0 and np.isfinite(self.width)):
            raise PhysicalityError(f"width must be positive, got {self.width}")
        if not np.isfinite(self.detuning):
            raise PhysicalityError("detuning must be finite")


@dataclass(frozen=True)
class OhmicFamily:
    """J(w) = coupling * cutoff^(1-exponent) * w^exponent * exp(-w/cutoff).

    exponent < 1 is sub-ohmic, 1 ohmic, > 1 super-ohmic.
    """

    coupling: float
    exponent: float
    cutoff: float
    qubit_frequency: float

    def __post_init__(self):
        for name in ("coupling", "exponent", "cutoff", "qubit_frequency"):
            v = getattr(self, name)
            if not (v > 0 and np.isfinite(v)):
                raise PhysicalityError(f"{name} must be positive, got {v}")


@dataclass(frozen=True, eq=False)
class Tabulated:
    """Spectral density given as (w, J) samples, linearly interpolated.

    Zero outside the tabulated range. Frequencies must be strictly
    increasing and J nonnegative.
    """

    points: np.ndarray
    qubit_frequency: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise PhysicalityError("points must be an (n >= 2, 2) array of (w, J)")
        if not np.isfinite(pts).all():
            raise PhysicalityError("tabulated points must be finite")
        if np.any(np.diff(pts[:, 0]) <= 0):
            raise PhysicalityError("tabulated frequencies must be strictly increasing")
        if np.any(pts[:, 1] < 0):
            raise PhysicalityError("tabulated J values must be nonnegative")
        if not (self.qubit_frequency > 0 and np.isfinite(self.qubit_frequency)):
            raise PhysicalityError("qubit_frequency must be positive")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)


SpectralModel = Union[Lorentzian, OhmicFamily, Tabulated]


def load_tabulated(path, qubit_frequency: float) -> Tabulated:
    """Read a two-column (w, J) whitespace-separated file; '#' comments."""
    with warnings.catch_warnings():
        # A table with no rows fails Tabulated's shape check; numpy's warning
        # about it would only repeat that on stderr.
        warnings.simplefilter("ignore", UserWarning)
        pts = np.loadtxt(path, comments="#", ndmin=2)
    return Tabulated(points=pts, qubit_frequency=qubit_frequency)


def is_resonant(model: SpectralModel) -> bool:
    """True for a Lorentzian at zero detuning, the one model whose b(t) has a closed form."""
    return isinstance(model, Lorentzian) and model.detuning == 0.0


def classify_regime(model: SpectralModel) -> Regime:
    """Markovian for gamma0 < width/2, non-Markovian above, critical at the edge."""
    if not isinstance(model, Lorentzian):
        raise UnsupportedModelError(
            f"regime classification is defined for Lorentzian models, got {type(model).__name__}"
        )
    edge = 0.5 * model.width
    if abs(model.gamma0 - edge) <= constants.CRITICAL_REGIME_REL_TOL * model.width:
        return Regime.CRITICAL
    return Regime.MARKOVIAN if model.gamma0 < edge else Regime.NON_MARKOVIAN


def kappa(model: Lorentzian) -> float:
    """Oscillation/relaxation rate scale sqrt(|width^2 - 2*gamma0*width|)."""
    if not isinstance(model, Lorentzian):
        raise UnsupportedModelError("kappa is defined for Lorentzian models")
    width = float(model.width)
    square = width * width
    if square == math.inf:
        raise PhysicalityError(f"width {width:g} is too large: width^2 overflows")
    return float(np.sqrt(abs(square - 2.0 * model.gamma0 * width)))


@dataclass(frozen=True, eq=False)
class CorrelationSamples:
    """f(n*dt) on a uniform grid, n = 0 .. len(values)-1."""

    dt: float
    values: np.ndarray

    def __post_init__(self):
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise PhysicalityError(f"dt must be positive, got {self.dt}")
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 1 or v.size < 1:
            raise PhysicalityError("values must be a nonempty 1-d array")
        if not np.isfinite(v).all():
            raise PhysicalityError("correlation samples must be finite")
        if np.max(np.abs(v)) > 0 and not v[0].real > 0:
            raise PhysicalityError("f(0) must have positive real part for nontrivial coupling")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def correlation(model: SpectralModel, dt: float, n: int) -> CorrelationSamples:
    """Sample the reservoir correlation f(t) = integral J(w) e^{i(w0-w)t} dw.

    Returns n samples at t = 0, dt, ..., (n-1)*dt.
    """
    if n < 1:
        raise PhysicalityError(f"need at least one sample, got n={n}")
    if not (dt > 0 and np.isfinite(dt)):
        raise PhysicalityError(f"dt must be positive, got {dt}")
    t = dt * np.arange(n)
    if isinstance(model, Lorentzian):
        amp = 0.5 * model.gamma0 * model.width
        values = amp * np.exp((1j * model.detuning - model.width) * t)
    elif isinstance(model, OhmicFamily):
        values = _ohmic_correlation(model, t)
    elif isinstance(model, Tabulated):
        values = _tabulated_correlation(model, dt, t)
    else:
        raise UnsupportedModelError(f"unknown spectral model {type(model).__name__}")
    return CorrelationSamples(dt=dt, values=values)


def spectral_density(model: SpectralModel, omega) -> np.ndarray | float:
    """Evaluate J(w) for models defined on an absolute frequency axis."""
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    if isinstance(model, OhmicFamily):
        j = model.coupling * model.cutoff ** (1.0 - model.exponent)
        out = np.zeros_like(w)
        pos = w > 0
        out[pos] = j * w[pos] ** model.exponent * np.exp(-w[pos] / model.cutoff)
    elif isinstance(model, Tabulated):
        out = np.interp(w, model.points[:, 0], model.points[:, 1], left=0.0, right=0.0)
    else:
        raise UnsupportedModelError(
            "spectral_density on an absolute axis is defined for OhmicFamily/Tabulated"
        )
    return out if np.ndim(omega) else float(out[0])


def _ohmic_correlation(model: OhmicFamily, t: np.ndarray) -> np.ndarray:
    s = model.exponent
    try:
        gamma = math.gamma(s + 1.0)
    except OverflowError:
        raise PhysicalityError(
            f"exponent {s:g} is too large: Gamma({s + 1.0:g}) overflows"
        ) from None
    scale = model.coupling * (model.cutoff * model.cutoff) * gamma
    if scale == math.inf:
        raise PhysicalityError(
            f"coupling * cutoff^2 * Gamma({s + 1.0:g}) overflows "
            f"(coupling {model.coupling:g}, cutoff {model.cutoff:g})"
        )
    # (1 + i*cutoff*t)^-(s+1) on the principal branch, taken through its
    # logarithm so that large exponents underflow to 0 instead of inf/inf.
    log_denominator = (s + 1.0) * np.log1p(1j * model.cutoff * t)
    return scale * np.exp(1j * model.qubit_frequency * t - log_denominator)


# The tabulated node sum runs over blocks of this many consecutive samples,
# this many block starts and this many nodes at once, so its temporaries do
# not grow with n or the table size.
_NODE_BLOCK_TIMES = 128
_NODE_BLOCK_STARTS = 64
_NODE_BLOCK_NODES = 512

# The tabulated node sum drops nodes whose terms are bounded, together and
# for every t, by this fraction of f(0): the double-precision unit roundoff.
_PRUNE_EPS = 2.0**-52

# Taylor coefficients of y - sin(y) = sum_k c_k y^(2k+1), k = 1 .. 9 (y^3 .. y^19).
_Y_MINUS_SIN_TAYLOR = tuple((-1) ** (k + 1) / math.factorial(2 * k + 1) for k in range(1, 10))


def _y_minus_sin(y: np.ndarray) -> np.ndarray:
    """y - sin(y), by its Taylor series where |y| < 1 to avoid cancellation."""
    out = np.sin(y)
    np.subtract(y, out, out=out)
    small = np.abs(y) < 1.0
    if small.any():
        ys = y[small]
        y2 = ys * ys
        series = np.full_like(ys, _Y_MINUS_SIN_TAYLOR[-1])
        for c in _Y_MINUS_SIN_TAYLOR[-2::-1]:
            series *= y2
            series += c
        series *= y2
        series *= ys
        out[small] = series
    return out


def _slope_jumps(w: np.ndarray, j: np.ndarray):
    """Nodes where the interpolant's slope jumps, and the jumps there.

    d_m = s_m - s_{m-1} with s_{-1} = s_{M-1} = 0, so the table's edges count
    as jumps from and to a zero slope. Nodes with d_m == 0 are dropped.
    """
    slope = np.diff(j)
    slope /= np.diff(w)
    jump = np.zeros(w.size)
    jump[:-1] = slope
    jump[1:] -= slope
    nonzero = jump != 0.0
    return w[nonzero], jump[nonzero]


def _prune_nodes(x: np.ndarray, jumps: np.ndarray, f0: float):
    """Which nodes to keep, and the bound on the terms of the dropped ones.

    2 sin^2(y/2) - i (y - sin y) = 1 - i y - e^{-iy} has modulus at most
    y^2/2, so node m's term in the sum of `_tabulated_correlation` is at
    most w_m = |d_m| x_m^2 / 2 for every t. The nodes with the smallest w_m
    are dropped while their w_m sum to at most _PRUNE_EPS * f0. Returns a
    mask over the nodes, so the kept ones stay in their original order, and
    that sum.
    """
    bound = 0.5 * np.abs(jumps) * x * x
    order = np.argsort(bound, kind="stable")
    dropped = np.cumsum(bound[order])
    n_drop = int(np.searchsorted(dropped, _PRUNE_EPS * f0, side="right"))
    keep = np.ones(x.size, dtype=bool)
    keep[order[:n_drop]] = False
    return keep, float(dropped[n_drop - 1]) if n_drop else 0.0


def _g(y: np.ndarray) -> np.ndarray:
    """g(y) = 1 - i y - e^{-iy}, as 2 sin^2(y/2) - i (y - sin y) so neither part cancels."""
    return 2.0 * np.sin(0.5 * y) ** 2 - 1j * _y_minus_sin(y)


def _node_sum(dt: float, n: int, x: np.ndarray, jumps: np.ndarray) -> np.ndarray:
    """sum_m d_m g(x_m t), g(y) = 1 - i y - e^{-iy}, at t = dt*k for k = 0 .. n-1.

    The samples fall in blocks of _NODE_BLOCK_TIMES. In the block that starts
    at t_a, the phase at t_a + tau_r (tau_r = dt*r) is y = u + v, u = x_m t_a,
    v = x_m tau_r, and
        g(u + v) = g(u) - i v (1 - e^{-iu}) + e^{-iu} g(v),
        1 - e^{-iu} = 2 sin^2(u/2) + i sin u.
    So a block takes the two dot products sum d_m g(u_m) and
    sum d_m x_m (1 - e^{-iu_m}), and one row of the matrix product of
    d_m e^{-iu_m} with the table g(x_m tau_r), which is built once per node.
    No part cancels by itself, and at small phases the three add with the
    same sign. The trig work is (n/_NODE_BLOCK_TIMES + _NODE_BLOCK_TIMES)
    per node.
    """
    tau = dt * np.arange(_NODE_BLOCK_TIMES)
    starts = dt * np.arange(0, n, _NODE_BLOCK_TIMES)
    total = np.zeros((starts.size, _NODE_BLOCK_TIMES), dtype=complex)
    for c in range(0, x.size, _NODE_BLOCK_NODES):
        xc = x[c:c + _NODE_BLOCK_NODES]
        dc = jumps[c:c + _NODE_BLOCK_NODES]
        dxc = dc * xc
        table = _g(xc[:, None] * tau)
        for a in range(0, starts.size, _NODE_BLOCK_STARTS):
            rows = slice(a, a + _NODE_BLOCK_STARTS)
            u = starts[rows, None] * xc
            versin = 2.0 * np.sin(0.5 * u) ** 2  # Re g(u) = Re(1 - e^{-iu})
            sin_u = np.sin(u)
            g_u = versin @ dc - 1j * (_y_minus_sin(u) @ dc)
            h_u = versin @ dxc + 1j * (sin_u @ dxc)
            coef = dc * ((1.0 - versin) - 1j * sin_u)  # d_m e^{-iu_m}
            total[rows] += coef @ table + g_u[:, None] - 1j * np.multiply.outer(h_u, tau)
    return total.ravel()[:n]


def _tabulated_correlation(model: Tabulated, dt: float, t: np.ndarray) -> np.ndarray:
    """Exact Fourier integral of the linear interpolant, as one node sum.

    With x_m = w_m - w0, y_m = x_m t and the slope jumps d_m of
    `_slope_jumps`, integrating by parts twice and cancelling the 1 - i y_m
    terms (sum d_m = 0, sum d_m x_m = J_0 - J_{M-1}) gives
    f(t) = t^-2 sum_m d_m [2 sin^2(y_m/2) - i (y_m - sin y_m)]
           + t^-1 [J_{M-1} e(y_{M-1}) - J_0 e(y_0)],  e(y) = sin y - 2i sin^2(y/2),
    with no cancellation left; f(0) is the trapezoid sum. Node m's term in
    the sum, t^-2 included, is at most |d_m| x_m^2 / 2 in modulus for every
    t, and `_prune_nodes` drops nodes whose bounds sum to at most
    _PRUNE_EPS * f(0), with _PRUNE_EPS = 2^-52, so no sample moves by more
    than that. The edge terms and f(0) are never pruned. `t` is dt*k for
    k = 0 .. n-1, so only t[0] is zero.
    """
    w = model.points[:, 0]
    j = model.points[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        # Overflows are reported below; an infinite bound only keeps its node.
        f0 = 0.5 * np.dot(j[:-1] + j[1:], np.diff(w))
        nodes, jumps = _slope_jumps(w, j)
        x = nodes - model.qubit_frequency
        keep, dropped = _prune_nodes(x, jumps, f0)
    if not np.isfinite(f0):
        raise PhysicalityError("the trapezoid integral of the tabulated J overflows")
    if not np.isfinite(jumps).all():
        raise PhysicalityError("a slope of the tabulated J overflows")
    log.debug("tabulated correlation: %d of %d nodes kept, dropped terms <= %.3g f(0), %d samples",
              np.count_nonzero(keep), keep.size, dropped / f0 if f0 else 0.0, t.size)
    tp = t[1:]

    def edge(jv, wv):
        y = (wv - model.qubit_frequency) * tp
        return jv * (np.sin(y) - 2j * np.sin(0.5 * y) ** 2)

    values = np.empty(t.shape, dtype=complex)
    values[0] = f0
    values[1:] = _node_sum(dt, t.size, x[keep], jumps[keep])[1:] / tp**2 + (edge(j[-1], w[-1]) - edge(j[0], w[0])) / tp
    return values
