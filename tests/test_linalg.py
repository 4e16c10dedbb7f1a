"""Tests for the small dense Hermitian linear algebra."""

import numpy as np
import pytest

from nonmarkov import constants
from nonmarkov.errors import PhysicalityError
from nonmarkov.linalg import (
    DensityMatrix,
    hermitian_eigenvalues,
    kron,
    trace_distance,
    wootters_concurrence,
)


def charpoly_roots(m):
    """Independent eigenvalue oracle: Faddeev-LeVerrier coefficients of the
    characteristic polynomial, roots via the companion matrix (np.roots)."""
    n = m.shape[0]
    coeffs = [1.0 + 0.0j]
    mk = np.zeros_like(m)
    for k in range(1, n + 1):
        mk = m @ (mk + coeffs[-1] * np.eye(n))
        coeffs.append(-mk.trace() / k)
    roots = np.roots(np.array(coeffs))
    return np.sort(roots.real)


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(rho / rho.trace().real)


def perturbed_density(rng, dim):
    """A density matrix plus non-Hermitian noise that the constructor still accepts.

    The off-diagonal noise and the imaginary diagonal noise keep
    |M - M^dagger| below HERMITICITY_TOL and leave the trace unchanged.
    """
    noise = rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim))
    noise[np.diag_indices(dim)] = 1j * noise.imag.diagonal()
    return random_density(rng, dim).matrix + 0.3 * constants.HERMITICITY_TOL * noise


class TestHermitianEigenvalues:
    def test_half_identity(self):
        assert np.allclose(hermitian_eigenvalues(np.eye(2) / 2), [0.5, 0.5], atol=0)

    def test_diagonal(self):
        got = hermitian_eigenvalues(np.diag([0.36, 0.64]).astype(complex))
        assert np.allclose(got, [0.36, 0.64], atol=0)

    def test_matches_charpoly_oracle_4x4(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = a + a.conj().T
            assert np.max(np.abs(hermitian_eigenvalues(h) - charpoly_roots(h))) < 1e-8

    def test_sum_equals_trace(self):
        rng = np.random.default_rng(8)
        for dim in (2, 4):
            for _ in range(100):
                rho = random_density(rng, dim)
                assert abs(hermitian_eigenvalues(rho.matrix).sum() - 1.0) < 1e-10

    def test_ascending_order(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lam = hermitian_eigenvalues(a + a.conj().T)
        assert np.all(np.diff(lam) >= 0)

    def test_non_hermitian_rejected(self):
        with pytest.raises(PhysicalityError):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_finite_rejected(self):
        with pytest.raises(PhysicalityError):
            hermitian_eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestDensityMatrix:
    def test_trace_enforced(self):
        with pytest.raises(PhysicalityError):
            DensityMatrix(np.diag([0.6, 0.6]).astype(complex))

    def test_positivity_enforced(self):
        with pytest.raises(PhysicalityError):
            DensityMatrix(np.diag([1.2, -0.2]).astype(complex))

    def test_hermiticity_enforced(self):
        m = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)
        with pytest.raises(PhysicalityError):
            DensityMatrix(m)

    def test_stored_matrix_is_exactly_hermitian(self):
        # The PSD check, eigenvalues() and trace_distance rely on this: they
        # pass the stored matrix, or a difference of two, to eigvalsh untested.
        rng = np.random.default_rng(15)
        for i in range(1000):
            raw = perturbed_density(rng, (2, 4)[i % 2])
            assert not np.array_equal(raw, raw.conj().T)
            m = DensityMatrix(raw).matrix
            assert np.array_equal(m, m.conj().T)

    def test_eigenvalues_match_checked_route(self):
        rng = np.random.default_rng(16)
        for i in range(200):
            raw = perturbed_density(rng, (2, 4)[i % 2])
            sym = 0.5 * (raw + raw.conj().T)
            assert np.array_equal(DensityMatrix(raw).eigenvalues(), hermitian_eigenvalues(sym))

    def test_tiny_negative_eigenvalue_tolerated(self):
        rho = DensityMatrix(np.diag([1.0 + 5e-11, -5e-11]).astype(complex))
        assert rho.dim == 2


class TestTraceDistance:
    def test_identical_states(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        e = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        g = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
        assert trace_distance(e, g) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal_example(self):
        a = DensityMatrix(np.diag([0.36, 0.64]).astype(complex))
        b = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
        assert trace_distance(a, b) == pytest.approx(0.36, abs=1e-14)

    def test_dimension_mismatch(self):
        a = DensityMatrix(np.eye(2, dtype=complex) / 2)
        b = DensityMatrix(np.eye(4, dtype=complex) / 4)
        with pytest.raises(PhysicalityError):
            trace_distance(a, b)

    def test_matches_checked_route(self):
        rng = np.random.default_rng(17)
        for i in range(200):
            dim = (2, 4)[i % 2]
            raw_a, raw_b = perturbed_density(rng, dim), perturbed_density(rng, dim)
            diff = 0.5 * (raw_a + raw_a.conj().T) - 0.5 * (raw_b + raw_b.conj().T)
            want = 0.5 * float(np.sum(np.abs(hermitian_eigenvalues(diff))))
            assert trace_distance(DensityMatrix(raw_a), DensityMatrix(raw_b)) == want

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            a, b = random_density(rng, 2), random_density(rng, 2)
            d = trace_distance(a, b)
            assert d == trace_distance(b, a)
            assert -1e-12 <= d <= 1.0 + 1e-12

    def test_triangle_inequality(self):
        rng = np.random.default_rng(11)
        for dim in (2, 4):
            for _ in range(50):
                a, b, c = (random_density(rng, dim) for _ in range(3))
                assert trace_distance(a, c) <= (
                    trace_distance(a, b) + trace_distance(b, c) + 1e-10
                )

    def test_unitary_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            a, b = random_density(rng, 2), random_density(rng, 2)
            z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            u, _ = np.linalg.qr(z)
            ua = DensityMatrix(u @ a.matrix @ u.conj().T)
            ub = DensityMatrix(u @ b.matrix @ u.conj().T)
            assert trace_distance(ua, ub) == pytest.approx(
                trace_distance(a, b), abs=1e-10
            )


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_projector(self):
        e = np.diag([1.0, 0.0])
        g = np.diag([0.0, 1.0])
        out = kron(e, g)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0  # |eg> in the (ee, eg, ge, gg) ordering
        assert np.array_equal(out, expected.astype(complex))

    @pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (2, 4), (4, 2), (4, 4)])
    def test_equals_numpy_kron_exactly(self, n, m):
        rng = np.random.default_rng(10 * n + m)
        for _ in range(20):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            b = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            assert np.array_equal(kron(a, b), np.kron(a, b))

    def test_mixed_product_property(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            a, b, c, d = (
                rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                for _ in range(4)
            )
            lhs = kron(a, b) @ kron(c, d)
            rhs = kron(a @ c, b @ d)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestWoottersConcurrence:
    def test_bell_state(self):
        v = np.zeros(4, dtype=complex)
        v[1] = v[2] = 1 / np.sqrt(2)
        rho = DensityMatrix(np.outer(v, v.conj()))
        assert wootters_concurrence(rho) == pytest.approx(1.0, abs=1e-12)

    def test_product_states_separable(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            a, b = random_density(rng, 2), random_density(rng, 2)
            rho = DensityMatrix(kron(a.matrix, b.matrix))
            assert wootters_concurrence(rho) <= 1e-8

    def test_wrong_dimension(self):
        rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
        with pytest.raises(PhysicalityError):
            wootters_concurrence(rho)
