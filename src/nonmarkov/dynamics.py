"""Reduced qubit dynamics driven by the amplitude b(t).

The single-qubit channel scales the excited population by |b|^2 and the
coherences by b; its Kraus pair (phase kept on b) is

    K0 = [[b, 0], [0, 1]],   K1 = [[0, 0], [sqrt(1-|b|^2), 0]]

in the (|e>, |g>) basis. Two noninteracting qubits in independent
reservoirs evolve under the tensor square of the channel, which also
covers entangled (Bell) inputs.

The closed forms (`trace_distance_single`, `trace_distance_two`,
`concurrence_bell`) take a scalar or an array of amplitudes and broadcast
over it; the trajectory signals are these same functions applied to b(t).
The population |b|^2 and the single-qubit distance are clipped at 1, so
amplitudes within the channel's slack above 1 still give signals in
[0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import constants
from .amplitude import AmplitudeTrajectory
from .errors import PhysicalityError
from .linalg import DensityMatrix, kron
from .reservoir import Lorentzian


@dataclass(frozen=True)
class QubitInitialState:
    """(alpha, beta): excited population and coherence of a qubit state."""

    alpha: float
    beta: complex

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise PhysicalityError(f"alpha must lie in [0, 1], got {self.alpha}")
        b = complex(self.beta)
        if not (np.isfinite(b.real) and np.isfinite(b.imag)):
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
class ScalarTrajectory:
    """A real signal on a uniform grid: trace distance, population, concurrence."""

    dt: float
    values: np.ndarray
    lorentzian: Lorentzian | None = None

    def __post_init__(self):
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise PhysicalityError(f"dt must be positive, got {self.dt}")
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise PhysicalityError("values must be a nonempty 1-d array")
        if not np.isfinite(v).all():
            raise PhysicalityError("signal contains non-finite samples")
        if v.min() < -constants.AMPLITUDE_BOUND_SLACK or v.max() > 1.0 + constants.AMPLITUDE_BOUND_SLACK:
            raise PhysicalityError("signal leaves [0, 1] beyond tolerance")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def t_max(self) -> float:
        return self.dt * (self.values.size - 1)

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.values.size)


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
    """|b| of a scalar or array amplitude, each element at most 1 + slack."""
    x = np.abs(b)
    if np.count_nonzero(x > 1.0 + constants.CHANNEL_INPUT_SLACK):
        raise PhysicalityError(f"|b| = {float(np.max(x))!r} exceeds 1 beyond tolerance")
    return x


def _population(b: complex | np.ndarray) -> float | np.ndarray:
    """Excited population |b|^2 after the channel, clipped at 1."""
    x = _check_amplitude(b)
    return np.minimum(x * x, 1.0)


def _signal(traj: AmplitudeTrajectory, values) -> ScalarTrajectory:
    return ScalarTrajectory(dt=traj.dt, values=values, lorentzian=traj.lorentzian)


def kraus_pair(b: complex) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude-damping Kraus pair with survival amplitude b."""
    decay = np.sqrt(1.0 - _population(b))
    k0 = np.array([[b, 0.0], [0.0, 1.0]], dtype=complex)
    k1 = np.array([[0.0, 0.0], [decay, 0.0]], dtype=complex)
    return k0, k1


def _evolved(state: QubitInitialState, b: complex) -> np.ndarray:
    """The channel's 2x2 output, rho_ee -> alpha|b|^2 and rho_eg -> beta*b, unchecked.

    It is exactly Hermitian, so `DensityMatrix` stores it unchanged.
    """
    pop = state.alpha * _population(b)
    coh = state.beta * complex(b)
    return np.array([[pop, coh], [np.conj(coh), 1.0 - pop]], dtype=complex)


def evolve_single(state: QubitInitialState, b: complex) -> DensityMatrix:
    """Apply the channel: rho_ee -> alpha|b|^2, rho_eg -> beta*b."""
    return DensityMatrix(_evolved(state, b))


def trace_distance_single(pair: StatePair, b: complex | np.ndarray) -> float | np.ndarray:
    """|b| sqrt(|b|^2 (alpha-mu)^2 + |beta-nu|^2), the closed-form distance, clipped at 1."""
    x = _check_amplitude(b)
    da = pair.first.alpha - pair.second.alpha
    db = abs(pair.first.beta - pair.second.beta)
    return np.minimum(x * np.sqrt(x * x * da * da + db * db), 1.0)


def pair_distance_trajectory(traj: AmplitudeTrajectory, pair: StatePair) -> ScalarTrajectory:
    """Closed-form trace distance of an evolving pair along a trajectory."""
    return _signal(traj, trace_distance_single(pair, traj.values))


def optimal_distance_trajectory(traj: AmplitudeTrajectory) -> ScalarTrajectory:
    """|b(t)|: the trace distance of the optimal |+>/|-> pair."""
    return _signal(traj, _check_amplitude(traj.values))


def population_excited(traj: AmplitudeTrajectory) -> ScalarTrajectory:
    """Excited population |b(t)|^2 of a qubit prepared in |e>."""
    return _signal(traj, _population(traj.values))


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

    Product inputs are given as two single-qubit states; an entangled
    input (e.g. a Bell state) is given as a 4x4 DensityMatrix with
    b_state = None, and goes through the Kraus tensor representation.
    """
    if isinstance(a, DensityMatrix):
        if b_state is not None:
            raise PhysicalityError("joint 4x4 input takes b_state=None")
        if a.dim != 4:
            raise PhysicalityError("joint input must be 4x4")
        k0, k1 = kraus_pair(b)
        out = np.zeros((4, 4), dtype=complex)
        for ki in (k0, k1):
            for kj in (k0, k1):
                op = kron(ki, kj)
                out += op @ a.matrix @ op.conj().T
        return DensityMatrix(out)
    if b_state is None:
        raise PhysicalityError("product input needs two single-qubit states")
    # One check, on the 4x4 product: each factor is a valid state by construction.
    return DensityMatrix(kron(_evolved(a, b), _evolved(b_state, b)))


def trace_distance_two(b: complex | np.ndarray) -> float | np.ndarray:
    """|b| sqrt(2 - 2|b|^2 + |b|^4): distance of evolved |++> vs |-->."""
    x = _check_amplitude(b)
    x2 = x * x
    return x * np.sqrt(2.0 - 2.0 * x2 + x2 * x2)


def two_qubit_distance_trajectory(traj: AmplitudeTrajectory) -> ScalarTrajectory:
    return _signal(traj, trace_distance_two(traj.values))


def concurrence_bell(b: complex | np.ndarray) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Concurrences (|b|^2, |b|^4) of evolved Bell states |Psi> and |Phi>."""
    x2 = _population(b)
    return x2, x2 * x2


def concurrence_trajectories(traj: AmplitudeTrajectory) -> tuple[ScalarTrajectory, ScalarTrajectory]:
    c_psi, c_phi = concurrence_bell(traj.values)
    return _signal(traj, c_psi), _signal(traj, c_phi)
