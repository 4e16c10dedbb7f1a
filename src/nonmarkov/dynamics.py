"""Reduced qubit dynamics driven by the amplitude b(t).

The single-qubit channel scales the excited population by |b|^2 and the
coherences by b; its Kraus pair (phase kept on b) is

    K0 = [[b, 0], [0, 1]],   K1 = [[0, 0], [sqrt(1-|b|^2), 0]]

in the (|e>, |g>) basis. Two noninteracting qubits in independent
reservoirs evolve under the tensor square of the channel, which also
covers entangled (Bell) inputs.

The closed forms (`trace_distance_single`, `trace_distance_two`,
`concurrence_bell`) take a scalar or an array of amplitudes and broadcast
over it. The one trajectory signal is the excited population |b(t)|^2,
stored as `ScalarTrajectory` on `reservoir`'s sample grid: every measure
is read off it. The channel takes |b| up to 1 + AMPLITUDE_BOUND_SLACK,
the bound on stored trajectories. The population |b|^2 and the
single-qubit distance are clipped at 1, so those amplitudes still give
values in [0, 1].
The square root in a pair's single-qubit distance is `_distance_over_b`,
which `measure` also uses to check D <= |b| and to score pairs.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import constants
from .amplitude import AmplitudeTrajectory
from .errors import PhysicalityError
from .linalg import DensityMatrix, _product_state
from .reservoir import _SampleGrid


@dataclass(frozen=True)
class QubitInitialState:
    """(alpha, beta): excited population and coherence of a qubit state."""

    alpha: float
    beta: complex

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise PhysicalityError(f"alpha must lie in [0, 1], got {self.alpha}")
        b = complex(self.beta)
        if not cmath.isfinite(b):
            raise PhysicalityError("beta must be finite")
        if abs(b) ** 2 > self.alpha * (1.0 - self.alpha) + constants.COHERENCE_SLACK:
            raise PhysicalityError(
                f"|beta|^2 = {abs(b)**2:.3e} exceeds alpha(1-alpha) = "
                f"{self.alpha * (1 - self.alpha):.3e}"
            )
        object.__setattr__(self, "beta", b)


@dataclass(frozen=True)
class StatePair:
    first: QubitInitialState
    second: QubitInitialState


@dataclass(frozen=True, eq=False)
class ScalarTrajectory(_SampleGrid):
    """A real signal in [0, 1] on a uniform grid, such as the excited population."""

    _dtype = float

    def _check(self, v: np.ndarray) -> None:
        if v.min() < -constants.AMPLITUDE_BOUND_SLACK or v.max() > 1.0 + constants.AMPLITUDE_BOUND_SLACK:
            raise PhysicalityError("signal leaves [0, 1] beyond tolerance")


def excited_state() -> QubitInitialState:
    return QubitInitialState(alpha=1.0, beta=0.0)


def ground_state() -> QubitInitialState:
    return QubitInitialState(alpha=0.0, beta=0.0)


def plus_state() -> QubitInitialState:
    """(|g> + |e>)/sqrt(2): alpha = 1/2, beta = 1/2."""
    return QubitInitialState(alpha=0.5, beta=0.5)


def minus_state() -> QubitInitialState:
    """(|g> - |e>)/sqrt(2): alpha = 1/2, beta = -1/2."""
    return QubitInitialState(alpha=0.5, beta=-0.5)


def optimal_pair() -> StatePair:
    """The |+>/|-> pair that saturates the maximum trace distance |b(t)|."""
    return StatePair(first=plus_state(), second=minus_state())


def density_matrix(state: QubitInitialState) -> DensityMatrix:
    a, b = state.alpha, state.beta
    return DensityMatrix(np.array([[a, b], [np.conj(b), 1.0 - a]], dtype=complex))


def _check_amplitude(b: complex | np.ndarray) -> float | np.ndarray:
    """|b| of a scalar or array amplitude, each element at most 1 + slack; NaN fails."""
    x = np.abs(b)
    top = x.max(initial=0.0) if isinstance(x, np.ndarray) else x
    if not top <= 1.0 + constants.AMPLITUDE_BOUND_SLACK:
        raise PhysicalityError(f"|b| = {float(top)!r} exceeds 1 beyond tolerance")
    return x


def _population(b: complex | np.ndarray) -> float | np.ndarray:
    """Excited population |b|^2 after the channel, clipped at 1.

    A float array of |b| is squared and clipped in place, so no further
    temporary of its size is made.
    """
    x = _check_amplitude(b)
    if isinstance(x, np.ndarray) and x.dtype.kind == "f":
        x *= x
        return np.minimum(x, 1.0, out=x)
    return np.minimum(x * x, 1.0)


def _evolved(state: QubitInitialState, b: complex) -> np.ndarray:
    """The channel's 2x2 output, rho_ee -> alpha|b|^2 and rho_eg -> beta*b, unchecked.

    Scalar arithmetic, with |b| from `np.abs`: Python's `abs` of a complex
    differs from it in the last bit for about a third of amplitudes. The
    output is exactly Hermitian, so `DensityMatrix` stores it unchanged.
    """
    x = float(_check_amplitude(b))
    pop = state.alpha * min(x * x, 1.0)
    coh = state.beta * complex(b)
    return np.array([[pop, coh], [coh.conjugate(), 1.0 - pop]], dtype=complex)


def evolve_single(state: QubitInitialState, b: complex) -> DensityMatrix:
    """Apply the channel: rho_ee -> alpha|b|^2, rho_eg -> beta*b."""
    return DensityMatrix(_evolved(state, b))


def _distance_over_b(x, a2, b2, out=None):
    """sqrt(x^2 a2 + b2), a pair's trace distance over |b| = x.

    a2 = (alpha-mu)^2 and b2 = |beta-nu|^2; `measure` scores pairs with it.
    An `out` array (a2 itself, say) receives the result, with the same bits.
    """
    return np.sqrt(np.add(np.multiply(x * x, a2, out=out), b2, out=out), out=out)


def trace_distance_single(pair: StatePair, b: complex | np.ndarray) -> float | np.ndarray:
    """|b| sqrt(|b|^2 (alpha-mu)^2 + |beta-nu|^2), the closed-form distance, clipped at 1."""
    x = _check_amplitude(b)
    da = pair.first.alpha - pair.second.alpha
    db = abs(pair.first.beta - pair.second.beta)
    return np.minimum(x * _distance_over_b(x, da * da, db * db), 1.0)


def population_excited(traj: AmplitudeTrajectory) -> ScalarTrajectory:
    """Excited population |b(t)|^2 of a qubit prepared in |e>."""
    return ScalarTrajectory(dt=traj.dt, values=_population(traj.values))


def bell_psi() -> DensityMatrix:
    """(|ge> + |eg>)/sqrt(2) as a density matrix (basis ee, eg, ge, gg)."""
    v = np.zeros(4, dtype=complex)
    v[1] = v[2] = 1.0 / np.sqrt(2.0)
    return DensityMatrix(np.outer(v, v.conj()))


def bell_phi() -> DensityMatrix:
    """(|gg> + |ee>)/sqrt(2) as a density matrix (basis ee, eg, ge, gg)."""
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return DensityMatrix(np.outer(v, v.conj()))


def evolve_two_qubit(
    a: QubitInitialState | DensityMatrix,
    b_state: QubitInitialState | None,
    b: complex,
) -> DensityMatrix:
    """Evolve two noninteracting qubits under the channel's tensor square.

    Product inputs are given as two single-qubit states, and the 4x4 product
    is checked through its two 2x2 factors (`linalg._product_state`); an entangled
    input (e.g. a Bell state) is given as a 4x4 DensityMatrix with
    b_state = None, and goes through the Kraus tensor representation: the
    four products K_i x K_j of the amplitude-damping pair
    K_0 = [[b, 0], [0, 1]], K_1 = [[0, 0], [sqrt(1 - |b|^2), 0]] act as one
    stack, summed in the order (00, 01, 10, 11).
    """
    if isinstance(a, DensityMatrix):
        if b_state is not None:
            raise PhysicalityError("joint 4x4 input takes b_state=None")
        if a.dim != 4:
            raise PhysicalityError("joint input must be 4x4")
        k = np.array([[[b, 0.0], [0.0, 1.0]], [[0.0, 0.0], [np.sqrt(1.0 - _population(b)), 0.0]]],
                     dtype=complex)
        ops = (k[:, None, :, None, :, None] * k[None, :, None, :, None, :]).reshape(4, 4, 4)
        return DensityMatrix((ops @ a.matrix @ ops.conj().transpose(0, 2, 1)).sum(axis=0))
    if b_state is None:
        raise PhysicalityError("product input needs two single-qubit states")
    return _product_state(_evolved(a, b), _evolved(b_state, b))


def trace_distance_two(b: complex | np.ndarray) -> float | np.ndarray:
    """|b| sqrt(2 - 2|b|^2 + |b|^4): distance of evolved |++> vs |-->."""
    x = _check_amplitude(b)
    x2 = x * x
    return x * np.sqrt(2.0 - 2.0 * x2 + x2 * x2)


def concurrence_bell(b: complex | np.ndarray) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Concurrences (|b|^2, |b|^4) of evolved Bell states |Psi> and |Phi>."""
    x2 = _population(b)
    return x2, x2 * x2
