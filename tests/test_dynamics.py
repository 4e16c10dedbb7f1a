"""Tests for the reduced dynamics against matrix oracles."""

import numpy as np
import pytest

from nonmarkov.amplitude import AmplitudeTrajectory
from nonmarkov.dynamics import (
    QubitInitialState,
    ScalarTrajectory,
    StatePair,
    bell_phi,
    bell_psi,
    concurrence_bell,
    concurrence_trajectories,
    density_matrix,
    evolve_single,
    evolve_two_qubit,
    excited_state,
    ground_state,
    minus_state,
    optimal_pair,
    pair_distance_trajectory,
    plus_state,
    population_excited,
    trace_distance_single,
    trace_distance_two,
)
from nonmarkov.errors import PhysicalityError
from nonmarkov.linalg import DensityMatrix, kron, trace_distance, wootters_concurrence
from nonmarkov.measure import sample_state_pairs

FIRST_MAX_AMPLITUDE = float(np.exp(-np.pi * 0.1 / np.sqrt(0.19)))  # width ratio 0.1


def kraus_oracle(rho, b):
    """Test-side amplitude-damping Kraus sum, written out independently."""
    k0 = np.array([[b, 0.0], [0.0, 1.0]], dtype=complex)
    k1 = np.array([[0.0, 0.0], [np.sqrt(1.0 - abs(b) ** 2), 0.0]], dtype=complex)
    return k0 @ rho @ k0.conj().T + k1 @ rho @ k1.conj().T


def kraus_oracle_two(rho4, b):
    k0 = np.array([[b, 0.0], [0.0, 1.0]], dtype=complex)
    k1 = np.array([[0.0, 0.0], [np.sqrt(1.0 - abs(b) ** 2), 0.0]], dtype=complex)
    out = np.zeros((4, 4), dtype=complex)
    for ki in (k0, k1):
        for kj in (k0, k1):
            op = np.kron(ki, kj)
            out += op @ rho4 @ op.conj().T
    return out


def random_states(rng, n):
    alpha, beta, _, _ = sample_state_pairs(n, int(rng.integers(1 << 30)))
    return [QubitInitialState(float(a), complex(b)) for a, b in zip(alpha, beta)]


class TestInitialStates:
    def test_coherence_bound_enforced(self):
        with pytest.raises(PhysicalityError):
            QubitInitialState(alpha=0.1, beta=0.5)
        with pytest.raises(PhysicalityError):
            QubitInitialState(alpha=1.2, beta=0.0)

    def test_named_states(self):
        assert excited_state().alpha == 1.0
        assert ground_state().alpha == 0.0
        assert plus_state().beta == 0.5
        assert minus_state().beta == -0.5
        pair = optimal_pair()
        assert abs(pair.first.beta - pair.second.beta) == 1.0

    def test_density_matrix(self):
        rho = density_matrix(plus_state())
        assert np.allclose(rho.matrix, 0.5 * np.ones((2, 2)), atol=0)


class TestEvolveSingle:
    def test_excited_at_b06(self):
        rho = evolve_single(excited_state(), 0.6)
        assert np.allclose(rho.matrix, np.diag([0.36, 0.64]), atol=1e-15)

    def test_identity_at_b1(self):
        rng = np.random.default_rng(3)
        for state in random_states(rng, 20):
            rho = evolve_single(state, 1.0)
            assert np.allclose(rho.matrix, density_matrix(state).matrix, atol=1e-15)

    def test_matches_kraus_oracle(self):
        rng = np.random.default_rng(4)
        states = random_states(rng, 200)
        bs = rng.uniform(0, 1, 200) * np.exp(1j * rng.uniform(0, 2 * np.pi, 200))
        for state, b in zip(states, bs):
            got = evolve_single(state, b).matrix
            want = kraus_oracle(density_matrix(state).matrix, b)
            assert np.max(np.abs(got - want)) < 1e-14

    def test_channel_physicality_random(self):
        # DensityMatrix construction itself enforces the invariants.
        n = 10**4
        rng = np.random.default_rng(5)
        states = random_states(rng, n)
        bs = rng.uniform(0, 1, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        for state, b in zip(states, bs):
            evolve_single(state, b)

    def test_rejects_oversized_amplitude(self):
        with pytest.raises(PhysicalityError):
            evolve_single(excited_state(), 1.0 + 1e-6)


class TestTraceDistanceSingle:
    def test_excited_ground_pair(self):
        pair = StatePair(excited_state(), ground_state())
        assert trace_distance_single(pair, 0.6) == pytest.approx(0.36, abs=1e-15)

    def test_optimal_pair_reaches_amplitude(self):
        pair = optimal_pair()
        for b in (1.0, 0.7, 0.5j, 0.123):
            assert trace_distance_single(pair, b) == abs(b)

    def test_matches_eigenvalue_oracle(self):
        rng = np.random.default_rng(6)
        alpha, beta, mu, nu = sample_state_pairs(500, 99)
        bs = rng.uniform(0, 1, 500) * np.exp(1j * rng.uniform(0, 2 * np.pi, 500))
        for i in range(500):
            pair = StatePair(
                QubitInitialState(float(alpha[i]), complex(beta[i])),
                QubitInitialState(float(mu[i]), complex(nu[i])),
            )
            closed = trace_distance_single(pair, bs[i])
            oracle = trace_distance(
                evolve_single(pair.first, bs[i]), evolve_single(pair.second, bs[i])
            )
            assert closed == pytest.approx(oracle, abs=1e-10)

    def test_bounded_by_amplitude(self):
        alpha, beta, mu, nu = sample_state_pairs(2000, 123)
        for x in (1.0, 0.6, 0.2):
            d = x * np.sqrt(x * x * (alpha - mu) ** 2 + np.abs(beta - nu) ** 2)
            assert np.all(d <= x + 1e-9)

    def test_ellipse_containment(self):
        # (|b| alpha, beta) stays inside the ellipse centred at |b|/2.
        alpha, beta, _, _ = sample_state_pairs(2000, 77)
        for x in (0.9, 0.5, 0.1):
            lhs = (x * alpha - x / 2.0) ** 2 / (x / 2.0) ** 2 + np.abs(beta) ** 2 / 0.25
            assert np.all(lhs <= 1.0 + 1e-9)


class TestTrajectories:
    def _traj(self):
        values = np.array([1.0, 0.8, 0.5, 0.2, 0.1], dtype=complex)
        return AmplitudeTrajectory(dt=0.5, values=values)

    def test_population(self):
        pop = population_excited(self._traj())
        assert np.allclose(pop.values, np.abs(self._traj().values) ** 2, atol=0)

    def test_population_of_first_maximum(self):
        assert FIRST_MAX_AMPLITUDE**2 == pytest.approx(0.2365817, abs=1e-6)

    def test_pair_distance_trajectory(self):
        pair = StatePair(excited_state(), ground_state())
        d = pair_distance_trajectory(self._traj(), pair)
        assert np.allclose(d.values, np.abs(self._traj().values) ** 2, atol=1e-15)

    def test_scalar_trajectory_bounds(self):
        with pytest.raises(PhysicalityError):
            ScalarTrajectory(dt=0.1, values=np.array([0.5, 1.5]))


class TestTwoQubit:
    def test_identity_at_b1(self):
        rho = evolve_two_qubit(bell_psi(), None, 1.0)
        assert np.max(np.abs(rho.matrix - bell_psi().matrix)) < 1e-14

    def test_product_input_matches_kraus_tensor(self):
        rng = np.random.default_rng(8)
        for b in rng.uniform(0.1, 1.0, 20):
            got = evolve_two_qubit(plus_state(), plus_state(), b).matrix
            want = kraus_oracle_two(
                np.kron(density_matrix(plus_state()).matrix,
                        density_matrix(plus_state()).matrix),
                b,
            )
            assert np.max(np.abs(got - want)) < 1e-14

    def test_bell_psi_keeps_double_excitation_empty(self):
        for b in (1.0, 0.9, 0.5, 0.2, 0.0):
            rho = evolve_two_qubit(bell_psi(), None, b)
            assert abs(rho.matrix[0, 0]) < 1e-15

    def test_joint_requires_4x4(self):
        with pytest.raises(PhysicalityError):
            evolve_two_qubit(density_matrix(plus_state()), None, 0.5)

    def test_product_input_equals_three_constructor_route(self):
        """One 4x4 check gives the bits of checking both 2x2 factors and then their kron."""
        alpha, beta, mu, nu = sample_state_pairs(2000, seed=12)
        rng = np.random.default_rng(13)
        bs = rng.uniform(0, 1, 2000) * np.exp(2j * np.pi * rng.uniform(size=2000))
        bs[:2] = (1.0, 0.0)
        for a, be, m, n, b in zip(alpha, beta, mu, nu, bs):
            first, second = QubitInitialState(a, be), QubitInitialState(m, n)
            old = DensityMatrix(kron(evolve_single(first, b).matrix,
                                     evolve_single(second, b).matrix))
            assert np.array_equal(evolve_two_qubit(first, second, b).matrix, old.matrix)


class TestTraceDistanceTwo:
    def test_endpoints(self):
        assert trace_distance_two(1.0) == pytest.approx(1.0, abs=1e-15)
        assert trace_distance_two(0.0) == 0.0

    def test_first_maximum_value(self):
        x = FIRST_MAX_AMPLITUDE
        assert trace_distance_two(x) == pytest.approx(0.6119340, abs=1e-6)

    def test_matches_4x4_oracle(self):
        for x in np.linspace(0.0, 1.0, 101):
            oracle = trace_distance(
                evolve_two_qubit(plus_state(), plus_state(), x),
                evolve_two_qubit(minus_state(), minus_state(), x),
            )
            assert trace_distance_two(x) == pytest.approx(oracle, abs=1e-10)


class TestConcurrence:
    def test_bell_inputs_at_b1(self):
        assert concurrence_bell(1.0) == (1.0, 1.0)

    def test_half_population(self):
        c_psi, c_phi = concurrence_bell(np.sqrt(0.5))
        assert c_psi == pytest.approx(0.5, abs=1e-15)
        assert c_phi == pytest.approx(0.25, abs=1e-15)

    def test_matches_wootters_oracle(self):
        for x in np.linspace(0.0, 1.0, 51):
            c_psi, c_phi = concurrence_bell(x)
            w_psi = wootters_concurrence(evolve_two_qubit(bell_psi(), None, x))
            w_phi = wootters_concurrence(evolve_two_qubit(bell_phi(), None, x))
            assert c_psi == pytest.approx(w_psi, abs=1e-8)
            assert c_phi == pytest.approx(w_phi, abs=1e-8)

    def test_trajectories(self):
        values = np.array([1.0, 0.5, 0.25], dtype=complex)
        traj = AmplitudeTrajectory(dt=1.0, values=values)
        c_psi, c_phi = concurrence_trajectories(traj)
        assert np.allclose(c_psi.values, [1.0, 0.25, 0.0625], atol=0)
        assert np.allclose(c_phi.values, [1.0, 0.0625, 0.00390625], atol=0)


class TestBroadcasting:
    PAIR = StatePair(QubitInitialState(0.7, 0.2 + 0.1j), QubitInitialState(0.1, -0.2j))

    @pytest.mark.parametrize(
        "closed_form",
        [lambda b: trace_distance_single(TestBroadcasting.PAIR, b), trace_distance_two,
         lambda b: concurrence_bell(b)[0], lambda b: concurrence_bell(b)[1]],
        ids=["single", "two", "conc_psi", "conc_phi"],
    )
    def test_array_equals_scalar_calls(self, closed_form):
        rng = np.random.default_rng(10)
        bs = rng.uniform(0, 1, 300) * np.exp(1j * rng.uniform(0, 2 * np.pi, 300))
        bs = np.append(bs, (1.0 + 9e-9) * np.exp(0.3j))  # above 1, within the slack
        got = closed_form(bs)
        assert got.shape == bs.shape
        assert np.array_equal(got, [closed_form(complex(b)) for b in bs])

    def test_population_clipped_at_one(self):
        b = (1.0 + 9e-9) * np.exp(0.3j)
        assert concurrence_bell(b) == (1.0, 1.0)
        assert evolve_single(excited_state(), b).matrix[0, 0] == 1.0

    def test_single_distance_clipped_at_one(self):
        # The excited/ground distance is |b|^2: 1 + 1.8e-8 unclipped, past the signal slack.
        eg_pair = StatePair(excited_state(), ground_state())
        assert trace_distance_single(eg_pair, (1.0 + 9e-9) * np.exp(0.3j)) == 1.0
        values = np.exp(-0.01 * np.arange(50)).astype(complex)
        values[1] = 1.0 + 9e-9  # AmplitudeTrajectory accepts up to 1 + 1e-8
        traj = AmplitudeTrajectory(dt=1e-3, values=values)
        signal = pair_distance_trajectory(traj, eg_pair)
        assert signal.values[1] == 1.0
        assert np.array_equal(signal.values, population_excited(traj).values)

    def test_array_rejected_beyond_slack(self):
        with pytest.raises(PhysicalityError, match="exceeds 1"):
            trace_distance_two(np.array([0.5, 1.0 + 1e-6, 0.2]))

