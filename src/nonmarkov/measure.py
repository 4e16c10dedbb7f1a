"""Extremum detection and trace-distance non-Markovianity measures.

The central quantity is the summed growth of a distance signal over its
rising intervals [t_min_n, t_max_n]. Every pair the measures report has a
distance w(P) that grows with the excited population P = |b|^2, so each
measure sums w(P_hi) - w(P_lo) over the rising intervals of P alone. For
the resonant Lorentzian the minima are exact zeros, the sums are
geometric, and the truncated tail is reported explicitly; its closed form
gives the extrema themselves, so `_resonant_measures` needs no grid.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import constants
from .amplitude import AmplitudeTrajectory, amplitude_envelope, lorentzian_min_times
from .dynamics import (
    ScalarTrajectory,
    StatePair,
    QubitInitialState,
    _distance_over_b,
    population_excited,
    trace_distance_two,
)
from .errors import HorizonError, PhysicalityError
from .reservoir import Lorentzian, Regime, SpectralModel, _max_abs, classify_regime, kappa

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExtremumInterval:
    """One rising interval of a signal: local minimum to the following maximum."""

    t_min: float
    t_max: float
    value_at_min: float
    value_at_max: float


# find_extrema takes the signs of this many differences at a time, so its
# temporaries do not grow with the signal.
_SIGN_BLOCK = 1 << 14


def find_extrema(sig: ScalarTrajectory) -> list[ExtremumInterval]:
    """Locate rising intervals (local min -> next local max) of a signal.

    Sign changes of the forward difference mark extrema; isolated ones are
    refined by parabolic interpolation (minima additionally try the
    cusp-aware two-line fit and keep whichever lies lower, then clip at 0).
    Plateau runs (|difference| < plateau tolerance) are merged and reported
    at their leftmost sample. Intervals that do not rise are dropped. A
    monotone signal yields an empty list. The signs are taken in blocks of
    `_SIGN_BLOCK` differences, and each block keeps only its sign changes:
    the last nonzero sign before it, and that sign's index, carry over from
    the blocks before. So the temporaries are those of one block beside the
    extrema; every later step is one array operation over all sign changes.
    """
    v = sig.values
    if v.size < 3:
        raise PhysicalityError("extremum detection needs at least 3 samples")
    carry = None  # the index and sign of the last nonzero sign so far, as length-1 arrays
    found = []
    for lo in range(0, v.size - 1, _SIGN_BLOCK):
        w = v[lo:lo + _SIGN_BLOCK + 1]
        d = np.diff(w)
        # Plateau threshold is relative to the local signal scale: signals like
        # the excited population decay over many decades and their late
        # oscillations must not be flattened by an absolute cutoff.
        local = np.abs(w)
        local = np.maximum(local[:-1], local[1:])
        np.maximum(local, 1e-300, out=local)
        local *= constants.PLATEAU_TOL
        s = np.sign(d).astype(np.int8)
        s[np.abs(d, out=d) < local] = 0
        k = np.flatnonzero(s)
        if k.size == 0:
            continue
        nz, sgn = k + lo, s[k]
        if carry is not None:
            nz, sgn = np.concatenate((carry[0], nz)), np.concatenate((carry[1], sgn))
        changes = np.flatnonzero(sgn[:-1] != sgn[1:])
        found.append((nz[changes] + 1, nz[changes + 1], sgn[changes]))
        carry = nz[-1:], sgn[-1:]
    if not found:
        return []
    m, after, sgn = (np.concatenate(parts) for parts in zip(*found))
    plateau = after - m > 0  # m is the leftmost sample of each extremum's plateau
    is_min = sgn < 0
    offset, value = _parabolic_vertices(v[m - 1], v[m], v[m + 1])
    cusp_offset, cusp_value, cusp = _v_vertices(v, m)
    cusp &= is_min & (cusp_value < value)
    offset = np.where(cusp, cusp_offset, offset)
    value = np.where(cusp, cusp_value, value)
    value = np.where(is_min & ~(value > 0.0), 0.0, value)  # minima clipped at 0
    offset[plateau] = 0.0
    value = np.where(plateau, v[m], value)
    times = (m + offset) * sig.dt
    lo = np.flatnonzero(is_min[:-1])  # each minimum with a maximum after it
    lo = lo[value[lo + 1] > value[lo]]
    return [ExtremumInterval(*row) for row in zip(
        times[lo].tolist(), times[lo + 1].tolist(), value[lo].tolist(), value[lo + 1].tolist())]


def _parabolic_vertices(ym1, y0, yp1):
    """Sub-grid extrema from three samples each: (offset in grid units from the middle, value).

    A vertex whose curvature term is below 1e-300 in size stays at its
    middle sample.
    """
    den = 2.0 * (2.0 * y0 - yp1 - ym1)
    flat = np.abs(den) < 1e-300
    offset = (yp1 - ym1) / np.where(flat, 1.0, den)
    offset[flat] = 0.0
    return offset, np.where(flat, y0, y0 - 0.25 * (ym1 - yp1) * offset)


def _v_vertices(v, m):
    """Two-line intersections for cusp-shaped minima near samples m: (offset, value, found).

    An absolute-value kink (|b| crossing zero) is not a parabola; the
    crossing point is where the descending and ascending secant lines
    meet. The secants are taken on the side of m's lower neighbour. `found`
    is False where that needs a sample past either end, or where the
    configuration is not cusp-like: the secants do not descend then ascend,
    or they meet outside the step next to m.
    """
    right = v[m + 1] < v[m - 1]
    m2 = np.where(right, np.minimum(m + 2, v.size - 1), np.maximum(m - 2, 0))
    s_left = np.where(right, v[m] - v[m - 1], v[m - 1] - v[m2])
    s_right = np.where(right, v[m2] - v[m + 1], v[m + 1] - v[m])
    found = np.where(right, m + 2 < v.size, m >= 2) & (s_left < 0.0) & (0.0 < s_right)
    num = np.where(right, v[m + 1] - s_right - v[m], v[m] - v[m - 1] - s_left)
    with np.errstate(over="ignore"):  # an overflowing offset is out of range
        offset = num / np.where(found, s_left - s_right, -1.0)
    found &= np.where(right, (0.0 <= offset) & (offset <= 1.0), (-1.0 <= offset) & (offset <= 0.0))
    return offset, v[m] + np.where(right, s_left, s_right) * offset, found


@dataclass(frozen=True)
class NonMarkovianityReport:
    """Truncated backflow sum with its per-interval contributions."""

    total: float
    contributions: tuple[float, ...]
    intervals: tuple[ExtremumInterval, ...]
    horizon: float
    tail_bound: float
    regime: Regime | None = None
    kappa: float | None = None
    closed_form_total: float | None = None

    def __post_init__(self):
        if any(c < 0 for c in self.contributions):
            raise PhysicalityError("contributions must be nonnegative")
        if abs(self.total - math.fsum(self.contributions)) > 1e-12:
            raise PhysicalityError("total must equal the sum of contributions")
        if not (self.tail_bound >= 0):
            raise PhysicalityError("tail bound must be nonnegative")

    def to_dict(self) -> dict:
        out = {
            "regime": self.regime.value if self.regime is not None else None,
            "kappa": self.kappa,
            "extrema": [
                {
                    "t_min": iv.t_min,
                    "t_max": iv.t_max,
                    "value_at_min": iv.value_at_min,
                    "value_at_max": iv.value_at_max,
                }
                for iv in self.intervals
            ],
            "contributions": list(self.contributions),
            "total": self.total,
            "tail_bound": self.tail_bound,
            "horizon": self.horizon,
        }
        if self.closed_form_total is not None:
            out["closed_form_total"] = self.closed_form_total
        return out


def _is_resonant_lorentzian(model) -> bool:
    """Whether the measures know `model`'s extrema and tail exactly: a Lorentzian at zero detuning."""
    return isinstance(model, Lorentzian) and model.detuning == 0.0


def _generic_tail_bound(contributions) -> float:
    """Geometric extrapolation from the last two contributions, inflated 2x.

    An estimate, not a bound, for populations measured without a resonant
    Lorentzian: detuned Lorentzians and the other spectra. The resonant
    Lorentzian uses the exact geometric tail instead.
    """
    if not contributions:
        return 0.0
    if len(contributions) == 1:
        return contributions[-1]
    last, prev = contributions[-1], contributions[-2]
    if prev <= 0 or last >= prev:
        return last
    r = last / prev
    return 2.0 * r * last / (1.0 - r)


def _geometric_tail(model: Lorentzian, n: int) -> tuple[float, float]:
    """(q, q^(n+1)/(1 - q)) of a non-Markovian resonant Lorentzian.

    |b| peaks at q^m, q = e^{-pi width/kappa}, at t_m = 2 pi m/kappa, so
    the second value is the sum of those maxima past the n-th.
    """
    q = math.exp(-math.pi * model.width / kappa(model))
    return q, q ** (n + 1) / (1.0 - q)


def _kept_maxima(model: Lorentzian, horizon: float, t):
    """Which maxima of |b| at times t the measures sum for a non-Markovian resonant Lorentzian.

    Those at or before the horizon whose amplitude envelope is at or above
    ENVELOPE_CUTOFF; both routes keep the maxima by this rule.
    """
    t = np.asarray(t, dtype=float)
    return (t <= horizon) & (amplitude_envelope(model.gamma0, model.width, t) >= constants.ENVELOPE_CUTOFF)


def _lorentzian_truncation(model: Lorentzian, horizon: float, intervals):
    """The `_kept_maxima` of a grid's intervals and the exact geometric tail past them.

    Returns (kept intervals, q, tail_bound for a sum whose omitted terms are
    each at most |b| at their maximum). The kept maxima are the first N, so
    q^(N+1)/(1 - q) is the remainder at any horizon.
    """
    keep = _kept_maxima(model, horizon, [iv.t_max for iv in intervals])
    kept = [iv for iv, k in zip(intervals, keep) if k]
    q, tail = _geometric_tail(model, len(kept))
    tail = tail * (1.0 + constants.TAIL_SAFETY) + 1e-9  # covers refinement error
    return kept, q, tail


def _resonant_interval_count(model: Lorentzian, horizon: float):
    """How many rising intervals `_resonant_measures` lists for a resonant Lorentzian.

    These are the n >= 1 whose maximum t_n = 2 pi n/kappa is one of the
    `_kept_maxima`, as on a grid. Zero outside the non-Markovian regime,
    and inf where n does not fit a float; past 2^52, where floats no longer
    tell n from n + 1, the count is left unsettled by one. Scalar
    arithmetic only, so the count is known before any array exists.
    """
    if classify_regime(model) is not Regime.NON_MARKOVIAN:
        return 0
    k, width = kappa(model), model.width

    def kept(n):
        return bool(_kept_maxima(model, horizon, 2.0 * math.pi * n / k))

    # The envelope reaches the cutoff at t_cut; the loops settle the rounding at the edge.
    t_cut = 2.0 * math.log((1.0 + width / k) / constants.ENVELOPE_CUTOFF) / width
    last = min(horizon, t_cut) * k / (2.0 * math.pi)
    if not math.isfinite(last):
        return math.inf
    n = math.floor(last)
    if n >= 2**52:
        return n
    while n > 0 and not kept(n):
        n -= 1
    while kept(n + 1):
        n += 1
    return n


def _rises(intervals, weight) -> list:
    """weight(hi) - weight(lo) of each interval's extremum values."""
    hi = np.array([iv.value_at_max for iv in intervals])
    lo = np.array([iv.value_at_min for iv in intervals])
    return (weight(hi) - weight(lo)).tolist()


# The weights w(P) and tail scales of the population sums: the |+>/|-> pair,
# whose distance is |b|, with its closed geometric value; the |e>/|g> pair,
# whose distance is P; and the |++>/|--> pair of the two-qubit lower bound.
# Each w(P) is at most sqrt(P) times the tail scale.
_SINGLE = {"weight": np.sqrt, "tail_scale": 1.0, "closed_form": lambda q: q / (1.0 - q)}
_EG = {"weight": lambda p: p, "tail_scale": 1.0}
_TWO = {"weight": lambda p: trace_distance_two(np.sqrt(p)), "tail_scale": math.sqrt(2.0)}


def _reports(intervals, horizon: float, unit_tail: float | None, model: Lorentzian | None,
             q: float | None) -> tuple[NonMarkovianityReport, ...]:
    """(n_single, n_eg, n_two_lower): each pair's rises w(P_hi) - w(P_lo) over the same intervals.

    Each tail is the pair's tail scale times `unit_tail`, or, where that is
    None, `_generic_tail_bound` of the pair's own contributions. A given q
    attaches n_single's closed geometric value q/(1 - q). Regime and kappa
    are reported for a given (resonant Lorentzian) model only.
    """
    regime = classify_regime(model) if model is not None else None
    k = kappa(model) if model is not None else None
    reports = []
    for spec in (_SINGLE, _EG, _TWO):
        contributions = _rises(intervals, spec["weight"])
        reports.append(NonMarkovianityReport(
            total=math.fsum(contributions),
            contributions=tuple(contributions),
            intervals=tuple(intervals),
            horizon=horizon,
            tail_bound=(_generic_tail_bound(contributions) if unit_tail is None
                        else spec["tail_scale"] * unit_tail),
            regime=regime,
            kappa=k,
            closed_form_total=spec["closed_form"](q) if q is not None and "closed_form" in spec else None,
        ))
    return tuple(reports)


def population_measures(p_traj: ScalarTrajectory, model: SpectralModel | None = None):
    """(n_single, n_eg, n_two_lower) reports from one extremum search of the excited population P.

    `p_traj` is P = |b|^2 of a qubit in the reservoir `model`. Each pair's
    distance w(P) grows with P, so it rises exactly where P does, and each
    report sums w(P_hi) - w(P_lo) over the rising intervals of P:
    n_single for sqrt(P) = |b|, the distance of the optimal |+>/|-> pair
    (the BLP measure, Breuer, Laine and Piilo, PRL 103, 210401 (2009));
    n_eg for P, that of |e>/|g>; n_two_lower for x sqrt(2 - 2x^2 + x^4),
    x = sqrt(P), that of |++>/|-->, a lower bound on the two-qubit measure.

    A resonant Lorentzian `model` gives the reports its regime and kappa.
    In the non-Markovian regime its minima are exact zeros: the reports
    keep the `_lorentzian_truncation` of the intervals, each tail is the
    pair's tail scale times the exact geometric remainder, and n_single
    carries the closed geometric value q/(1 - q), q = e^{-pi width/kappa}.
    Any other model reports as no model does: each tail is
    `_generic_tail_bound`'s estimate, and a P with rising intervals whose
    |b| still reaches 1e-4 over the last 5% of the horizon raises
    HorizonError.
    """
    intervals = find_extrema(p_traj)
    found = len(intervals)
    model = model if _is_resonant_lorentzian(model) else None
    q = unit_tail = None
    if model is None and intervals:
        trailing = p_traj.values[int(0.95 * (p_traj.values.size - 1)):]
        peak = math.sqrt(float(np.max(trailing)))  # the check and its message are on |b|
        if peak > 1e-4:
            raise HorizonError(
                f"signal still reaches {peak:.3e} over the last 5% of the horizon; extend t_max")
    if model is not None and classify_regime(model) is Regime.NON_MARKOVIAN:
        intervals, q, unit_tail = _lorentzian_truncation(model, p_traj.t_max, intervals)
    reports = _reports(intervals, p_traj.t_max, unit_tail, model, q)
    log.debug("measure: grid of %d samples, %d rising intervals found, %d kept, tail %.17g, %s",
              p_traj.values.size, found, len(intervals), reports[0].tail_bound,
              "estimate" if unit_tail is None else "exact geometric remainder")
    return reports


def _resonant_measures(model: Lorentzian, horizon: float):
    """(n_single, n_eg, n_two_lower) of a resonant Lorentzian from its exact extrema, with no grid.

    In the non-Markovian regime P = |b|^2 rises on [z_n, t_n]: z_n is the
    n-th zero of b (`lorentzian_min_times`), where P = 0, and
    t_n = 2 pi n/kappa its n-th maximum, where P = q^(2n) (`_geometric_tail`).
    The intervals are the `_resonant_interval_count` first ones. Each tail
    is the weight's tail scale times the exact remainder q^(N+1)/(1 - q)
    past the N-th maximum and a rounding margin,
    TAIL_ROUNDING q (1 + |ln q|)/(1 - q)^2. With u = 2^-53, q is rounded
    within about (8 |ln q| + 2) u relative, each q^n within n times that
    and 3 u more, so the series moves by at most about
    u q/(1 - q) [(8 |ln q| + 2)/(1 - q) + 4], and the remainder by as
    much again: TAIL_ROUNDING = 32 u covers both, for the total and for
    `closed_form_total`. In the other regimes P falls monotonically: no
    intervals, totals and tails of exactly 0. No report depends on a time
    step.
    """
    if classify_regime(model) is not Regime.NON_MARKOVIAN:
        log.debug("measure: resonant closed form, 0 intervals to t_max %.10g, q none, no grid",
                  horizon)
        return _reports([], horizon, 0.0, model, None)
    n = _resonant_interval_count(model, horizon)
    q, remainder = _geometric_tail(model, n)
    log.debug("measure: resonant closed form, %d intervals to t_max %.10g, q %.17g, no grid",
              n, horizon, q)
    m = np.arange(1.0, n + 1.0)
    t_max = 2.0 * math.pi * m / kappa(model)
    t_min = lorentzian_min_times(model.gamma0, model.width, n) if n else np.empty(0)
    intervals = [ExtremumInterval(lo, hi, 0.0, p) for lo, hi, p in zip(
        t_min.tolist(), t_max.tolist(), np.power(q, 2.0 * m).tolist())]
    # q underflows to 0 near the critical width, where the margin's limit is 0.
    margin = q * (1.0 - math.log(q)) / (1.0 - q) ** 2 if q > 0.0 else 0.0
    return _reports(intervals, horizon, remainder + constants.TAIL_ROUNDING * margin, model, q)


@dataclass(frozen=True)
class TheoremVerification:
    """Outcome of the random-pair bound check D(t) <= |b(t)|."""

    samples: int
    seed: int
    violations: int
    max_ratio: float
    worst_excess: float
    worst_pair: StatePair | None
    canonical_error: float
    ok: bool

    def to_dict(self) -> dict:
        out = {
            "samples": self.samples,
            "seed": self.seed,
            "violations": self.violations,
            "max_ratio": self.max_ratio,
            "worst_excess": self.worst_excess,
            "canonical_error": self.canonical_error,
            "ok": self.ok,
        }
        if self.worst_pair is not None:
            out["worst_pair"] = {
                "alpha": self.worst_pair.first.alpha,
                "beta": [self.worst_pair.first.beta.real, self.worst_pair.first.beta.imag],
                "mu": self.worst_pair.second.alpha,
                "nu": [self.worst_pair.second.beta.real, self.worst_pair.second.beta.imag],
            }
        return out


# verify_theorem scans its pairs this many at a time, so its memory does not
# grow with the sample count.
_VERIFY_BLOCK = 1 << 14


def _draws(samples: int, seed: int, i: int, start: int, stop: int) -> np.ndarray:
    """Elements start .. stop-1 of uniform array i of `sample_state_pairs(samples, seed)`.

    The six uniform arrays are consecutive blocks of one PCG64 stream, one
    64-bit draw per double, so array i's element k is draw i*samples + k and
    each block is reached with `advance` instead of drawing what precedes it.
    Arrays 0, 1, 2, 4 are alpha, mu and the radial draws of beta and nu, and
    3, 5 the angles of beta and nu in units of 2 pi: `random() * high` is
    bit for bit `uniform(0.0, high)`, which numpy computes as
    0.0 + high * random().
    """
    bits = np.random.PCG64(seed)
    bits.advance(i * samples + start)
    return np.random.Generator(bits).random(stop - start)


def _radius(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The coherence radius sqrt(p (1 - p)) sqrt(u) of populations p and radial draws u, in u."""
    np.sqrt(u, out=u)
    r = np.subtract(1.0, p)
    r *= p
    u *= np.sqrt(r, out=r)
    return u


def _radii(samples: int, seed: int, start: int, stop: int):
    """(alpha, |beta|, mu, |nu|) of pairs start .. stop-1."""
    alpha = _draws(samples, seed, 0, start, stop)
    r1 = _radius(alpha, _draws(samples, seed, 2, start, stop))
    mu = _draws(samples, seed, 1, start, stop)
    r2 = _radius(mu, _draws(samples, seed, 4, start, stop))
    return alpha, r1, mu, r2


def _angles(samples: int, seed: int, i: int, start: int, stop: int) -> np.ndarray:
    """The phases 2 pi u of uniform array i (3 for beta, 5 for nu), pairs start .. stop-1."""
    theta = _draws(samples, seed, i, start, stop)
    theta *= 2.0 * np.pi
    return theta


def _state_pair_block(samples: int, seed: int, start: int, stop: int):
    """Pairs start .. stop-1 of `sample_state_pairs(samples, seed)`."""
    alpha, r1, mu, r2 = _radii(samples, seed, start, stop)
    return (alpha, r1 * np.exp(1j * _angles(samples, seed, 3, start, stop)),
            mu, r2 * np.exp(1j * _angles(samples, seed, 5, start, stop)))


def sample_state_pairs(samples: int, seed: int):
    """Seeded random valid pairs: populations uniform, coherences uniform on
    their disk via rejection-free polar sampling (r = R*sqrt(u)).

    Uses numpy's PCG64 generator, so identical seeds give identical pair
    sequences on every platform. Returns (alpha, beta, mu, nu) arrays.
    """
    return _state_pair_block(samples, seed, 0, samples)


def _candidates(samples: int, seed: int, start: int, stop: int, x: float, max_ratio: float,
                line: float, tol: float):
    """The floor of block start .. stop-1 of `verify_theorem`'s scan, and the pairs at or above it.

    The pairs come as (alpha, beta, mu, nu, ratio) arrays, or None when
    there are none. When no bound reaches min(max_ratio, line) - tol, which
    the floor is at least, the angles are not drawn and that value is the
    floor. Every array of the block's length dies on return.
    """
    alpha, r1, mu, r2 = _radii(samples, seed, start, stop)
    a2 = alpha - mu
    a2 *= a2
    b2 = r1 + r2
    b2 *= b2
    bound = _distance_over_b(x, a2, b2, out=a2)  # U, in a2's array
    del a2, b2
    floor = min(max_ratio, line) - tol
    if bound.max() < floor:
        return floor, None
    th1, th2 = _angles(samples, seed, 3, start, stop), _angles(samples, seed, 5, start, stop)

    def exact(k):
        a, m = alpha[k], mu[k]
        beta, nu = r1[k] * np.exp(1j * th1[k]), r2[k] * np.exp(1j * th2[k])
        return a, beta, m, nu, _distance_over_b(x, (a - m) ** 2, np.abs(beta - nu) ** 2)

    top = np.argpartition(bound, -min(16, bound.size))[-16:]  # the 16 largest bounds
    floor = min(max(max_ratio, float(np.max(exact(top)[4]))), line) - tol
    k = np.flatnonzero(bound >= floor)
    return floor, exact(k) if k.size else None


def verify_theorem(
    b_traj: AmplitudeTrajectory, samples: int, seed: int, bound_scale: float = 1.0
) -> TheoremVerification:
    """Check D(pair, b(t)) <= |b(t)| + slack on the whole grid for random pairs.

    The pairs of `sample_state_pairs(samples, seed)` are scanned in blocks
    of `_VERIFY_BLOCK`; the reductions, including the first worst pair, are
    the same as over the full arrays. `bound_scale` deliberately weakens the
    bound (test hook for the negative control); production use keeps it at 1.

    D(t) - scale*|b(t)| = |b| (sqrt(|b|^2 A + B) - scale) grows with |b|
    wherever it is positive, so the grid maximum sits at x = max|b|, and a
    pair's report is its ratio R = sqrt(x^2 A + B), A = (alpha - mu)^2 and
    B = |beta - nu|^2, and its excess x (R - scale). R grows with B, and
    |beta - nu| <= r_alpha + r_mu for coherence radii r = |beta|, |nu|, so
    U = sqrt(x^2 A + (r_alpha + r_mu)^2) bounds R without the angles. Each
    block computes U for all its pairs and R, with the two complex
    exponentials, only for those with U >= min(M, scale + slack/x) - tol.
    M is the largest of the running maximum of R and R of the block's 16
    largest-U pairs, so it is a ratio some pair attains. A block with no U
    at or above min(running maximum, scale + slack/x) - tol, which that
    floor is at least, evaluates no pair, and its angles are not drawn.

    The computed R exceeds the computed U, with the same A and radii, by at
    most about 14 eps U <= 20 eps: each of the exponential, the products,
    the difference, the hypot, the square, the sum and the sqrt rounds
    relative to a value no larger than U's. tol = 2^-30 exceeds that by a
    factor above 10^5. So a pair left out has R < M - tol/2 and cannot set
    the maximum. Since x >= |b(0)| = 1, its excess is below slack - tol/2,
    so it is no violation. Pairs are left out only when the floor is above
    0 <= U, so scale > -slack, and a violation needs scale < R < 1.5; then
    the excess rounds to far finer than tol, and a left-out pair cannot tie
    the worst pair's excess either. The counts, the maxima and the first
    worst pair are those of evaluating every pair. x is max|b| by
    `reservoir._max_abs`, so no |b| of the grid's length is made; a block
    holds at most seven float arrays of its length and one index array.
    """
    if samples < 1:
        raise PhysicalityError("need at least one sample")
    if not math.isfinite(bound_scale):
        raise PhysicalityError(f"bound_scale must be finite, got {bound_scale}")
    x = _max_abs(b_traj.values)
    line = bound_scale + constants.THEOREM_SLACK / x
    tol = 2.0**-30
    violations = evaluated = 0
    max_ratio = worst_excess = -np.inf
    worst = None
    for start in range(0, samples, _VERIFY_BLOCK):
        floor, pairs = _candidates(samples, seed, start, min(start + _VERIFY_BLOCK, samples),
                                   x, max_ratio, line, tol)
        if pairs is None:
            continue
        alpha, beta, mu, nu, ratios = pairs
        evaluated += ratios.size
        excess = x * (ratios - bound_scale)
        violations += int(np.sum(excess > constants.THEOREM_SLACK))
        max_ratio = max(max_ratio, float(np.max(ratios)))
        j = int(np.argmax(excess))
        if excess[j] > worst_excess:  # strict: the first worst pair wins ties
            worst_excess = float(excess[j])
            worst = (float(alpha[j]), complex(beta[j]), float(mu[j]), complex(nu[j]))
    log.debug("verify_theorem: evaluated %d of %d pairs exactly, floor %.17g",
              evaluated, samples, floor)
    worst_pair = None
    if violations:
        worst_pair = StatePair(
            first=QubitInitialState(worst[0], worst[1]),
            second=QubitInitialState(worst[2], worst[3]),
        )
    # The optimal pair (A = 0, B = 1) has D(t) = |b(t)| exactly.
    canonical_error = abs(1.0 - bound_scale) * x
    return TheoremVerification(
        samples=samples,
        seed=seed,
        violations=violations,
        max_ratio=max_ratio,
        worst_excess=worst_excess,
        worst_pair=worst_pair,
        canonical_error=canonical_error,
        ok=violations == 0 and canonical_error <= constants.CANONICAL_EQUALITY_TOL,
    )


@dataclass(frozen=True)
class BruteForceResult:
    best_pair: StatePair
    best_total: float
    grid_density: int


def _score(intervals, a2, b2) -> np.ndarray:
    """Sum hi sqrt(hi^2 a2 + b2) - lo sqrt(lo^2 a2 + b2) over `intervals`.

    The terms are added in interval order. The row bounds and the cell
    scores both come from here, so equal inputs give equal bits.
    """
    score = np.zeros(np.broadcast_shapes(np.shape(a2), np.shape(b2)))
    for iv in intervals:
        hi, lo = iv.value_at_max, iv.value_at_min
        score += hi * _distance_over_b(hi, a2, b2) - lo * _distance_over_b(lo, a2, b2)
    return score


def _row_bounds(intervals, level: np.ndarray) -> tuple[np.ndarray, float]:
    """U[i, k], the bound on every cell score of row (alpha, mu) = (level[i], level[k]), and tol.

    U is the score at A = (alpha - mu)^2 and B = (r_alpha + r_mu)^2, with
    r = sqrt(level (1 - level)); it is computed as the cell (i, 0, k, G-1)
    is, whose coherences are -r_alpha and r_mu, so it has that cell's bits.
    """
    r = np.sqrt(level * (1.0 - level))
    a2 = (level[:, None] - level[None, :]) ** 2
    bound = _score(intervals, a2, (r[:, None] + r[None, :]) ** 2)
    tol = 2.0**-30 * (len(intervals) + 8) * math.fsum(
        iv.value_at_max + iv.value_at_min for iv in intervals)
    return bound, tol


def brute_force_max(b_traj: AmplitudeTrajectory, grid_density: int) -> BruteForceResult:
    """Grid search over parameterized pairs maximizing the backflow sum.

    Validation-only counterpart of the closed-form optimal pair. Because
    D = x sqrt(x^2 A + B) grows with x = |b| = sqrt(P), every pair's
    distance rises exactly where the excited population P does, so the
    grid is scored on the one extremum search of P that the measures use,
    at hi, lo = sqrt(P_hi), sqrt(P_lo). The best cell's score is
    `best_total`; at an odd density the grid holds |+>/|->, whose cell
    scores the rises that `n_single` sums.

    A pair's score is S(A, B) = sum hi sqrt(hi^2 A + B) - lo sqrt(lo^2 A + B)
    over the intervals, with A = (alpha - mu)^2, B = |beta - nu|^2 and
    hi >= lo >= 0. Both x / sqrt(x^2 A + B) and x^3 / sqrt(x^2 A + B) grow
    with x, so each interval's term, and S, is non-decreasing in A and in B.
    On the grid row of one (alpha, mu), A is fixed and
    |beta - nu| <= r_alpha + r_mu with r = sqrt(level (1 - level)), so
    U = S(A, (r_alpha + r_mu)^2) bounds every cell of the row. The radius
    grid runs from exactly -1 to exactly 1, so U is also the score of that
    row's cell (beta, nu) = (-r_alpha, r_mu), bit for bit: max(U) is a score
    the grid attains, so the best score is at least max(U).

    With A, B <= 1 and x <= 1, rounding moves each cell score and each U by
    at most about (n + 8) eps sqrt(2) sum(hi + lo) for n intervals. The
    rows kept are those with U >= max(U) - tol, where
    tol = 2^-30 (n + 8) sum(hi + lo) exceeds both roundings together by a
    factor above 10^5; every row left out scores strictly below max(U)
    everywhere. Each kept row is scored by itself, with the elementwise
    operations of a full-grid search, so the cell scores have its bits,
    and the best cell is the least by (-score, alpha, beta, mu, nu) index:
    ties go to the first index of the (alpha, beta, mu, nu) grid in C
    order. If every row is kept, as when there are no intervals and every
    score is 0, the work is that of the full grid; memory stays at
    grid_density^2 per row.
    """
    if grid_density < 3:
        raise PhysicalityError("grid_density must be at least 3")
    intervals = [
        ExtremumInterval(iv.t_min, iv.t_max, math.sqrt(iv.value_at_min), math.sqrt(iv.value_at_max))
        for iv in find_extrema(population_excited(b_traj))
    ]
    level = np.linspace(0.0, 1.0, grid_density)
    radius = np.linspace(-1.0, 1.0, grid_density)
    r = np.sqrt(level * (1.0 - level))
    bound, tol = _row_bounds(intervals, level)
    rows = np.argwhere(bound >= bound.max() - tol)
    log.debug("brute_force_max: scored %d of %d (alpha, mu) rows, %d intervals, tol %.3g",
              len(rows), bound.size, len(intervals), tol)
    cells = []
    for i, k in rows:
        b2 = (radius[:, None] * r[i] - radius[None, :] * r[k]) ** 2
        score = _score(intervals, np.square(level[i] - level[k]), b2)
        j, m = np.unravel_index(int(np.argmax(score)), score.shape)
        cells.append((-score[j, m], i, j, k, m))
    neg_score, i, j, k, m = min(cells)
    best_pair = StatePair(
        first=QubitInitialState(float(level[i]), complex(radius[j] * r[i])),
        second=QubitInitialState(float(level[k]), complex(radius[m] * r[k])),
    )
    return BruteForceResult(best_pair=best_pair, best_total=-float(neg_score), grid_density=grid_density)
