"""Tests for the small dense Hermitian linear algebra."""

import numpy as np
import pytest

from nonmarkov import constants
from nonmarkov.errors import PhysicalityError
from nonmarkov.linalg import (
    DensityMatrix,
    _product_state,
    hermitian_eigenvalues,
    kron,
    trace_distance,
    wootters_concurrence,
)
from matrix_reference import (
    outcome,
    reference_density_matrix,
    reference_product,
    reference_trace_distance,
    same_outcome,
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


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return np.linalg.qr(z)[0]


def with_spectrum(rng, eigenvalues):
    """U diag(eigenvalues) U^H for a random unitary U: Hermitian within roundoff."""
    u = random_unitary(rng, len(eigenvalues))
    return (u * eigenvalues) @ u.conj().T


def random_states(rng, dim, n):
    """n inputs the constructor accepts: perturbed mixed states and pure states, alternating."""
    return [perturbed_density(rng, dim) if i % 2 else
            with_spectrum(rng, np.eye(dim)[rng.integers(dim)]) for i in range(n)]


def rejected_inputs(rng, dim):
    """One input per rejection class of the checked route, drawn at random."""
    rho = random_density(rng, dim).matrix.copy()
    i, j = rng.choice(dim, 2, replace=False)
    bad = rho.copy()
    bad[i, rng.integers(dim)] = (np.nan, np.inf, -np.inf, complex(0.1, np.nan))[rng.integers(4)]
    skew = rho.copy()
    skew[i, j] += 10 ** rng.uniform(-11, -1) * np.exp(2j * np.pi * rng.uniform())
    skew[j, j] += 1j * 10 ** rng.uniform(-11, -1) * rng.integers(2)
    s = 10 ** rng.uniform(-4, -0.5)  # far enough below the floor that 4 digits of it agree
    negative = np.append(-s, rng.dirichlet(np.ones(dim - 1)) * (1.0 + s))
    return {
        "shape": rng.normal(size=(dim, dim + 1)) if rng.integers(2) else random_density(rng, 4).matrix[:3, :3],
        "non-finite": bad,
        "non-Hermitian": skew,
        "trace": rho * (1.0 + rng.choice((-1, 1)) * 10 ** rng.uniform(-11.9, -1)),
        "negative eigenvalue": with_spectrum(rng, negative),
    }


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

    @pytest.mark.parametrize("dim", [2, 4])
    def test_stored_bits_equal_reference_route(self, dim):
        # 2000 accepted inputs: the stored matrices and the trace distances of neighbours.
        rng = np.random.default_rng(40 + dim)
        raw = random_states(rng, dim, 2000)
        got = [DensityMatrix(m) for m in raw]
        want = [reference_density_matrix(m) for m in raw]
        for g, w in zip(got, want):
            assert np.array_equal(g.matrix, w)
        for k in range(len(raw) - 1):
            assert trace_distance(got[k], got[k + 1]) == reference_trace_distance(want[k], want[k + 1])

    @pytest.mark.parametrize("dim", [2, 4])
    def test_rejections_equal_reference_route(self, dim):
        # Each class the reference rejects raises the same PhysicalityError message.
        rng = np.random.default_rng(50 + dim)
        for _ in range(200):
            for kind, m in rejected_inputs(rng, dim).items():
                want = outcome(reference_density_matrix, m)
                assert isinstance(want, str), kind
                assert outcome(lambda x: DensityMatrix(x).matrix, m) == want, kind

    def test_overflow_rejected_2x2(self):
        # A diagonal whose symmetrization would overflow is no state; no warning is raised.
        with pytest.raises(PhysicalityError):
            DensityMatrix([[1e308, 0.0], [0.0, -1e308 + 1.0]])

    def test_overflow_rejected_4x4(self):
        # The NaN trace fails its gate before eigvalsh sees the matrix; numpy warns of the overflow.
        with pytest.warns(RuntimeWarning), pytest.raises(PhysicalityError, match=r"trace \S*nan"):
            DensityMatrix(np.diag([1e308, -1e308, 0.5, 0.5]).astype(complex))

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


class TestProductState:
    def test_stored_bits_equal_reference_route(self):
        # Exactly Hermitian factors, as the channel makes them: 2000 products.
        rng = np.random.default_rng(60)
        factors = [DensityMatrix(m).matrix for m in random_states(rng, 2, 4000)]
        pairs = list(zip(factors[::2], factors[1::2]))
        got = [_product_state(a, b) for a, b in pairs]
        want = [reference_product(a, b) for a, b in pairs]
        for g, w in zip(got, want):
            assert np.array_equal(g.matrix, w)
        for k in range(len(pairs) - 1):
            assert trace_distance(got[k], got[k + 1]) == reference_trace_distance(want[k], want[k + 1])

    def test_rejections_equal_reference_route(self):
        # One rejected factor beside an accepted one, in either place.
        rng = np.random.default_rng(61)
        rejected = 0
        for _ in range(200):
            good = random_density(rng, 2).matrix
            for kind, m in rejected_inputs(rng, 2).items():
                for a, b in ((m, good), (good, m)):
                    want = outcome(reference_product, a, b)
                    rejected += isinstance(want, str)
                    assert same_outcome(outcome(lambda x, y: _product_state(x, y).matrix, a, b), want), kind
        assert rejected >= 1800

    def test_product_trace_checked(self):
        # Each factor's trace within tolerance, the product's beyond it.
        rng = np.random.default_rng(62)
        for _ in range(200):
            u = rng.choice((-1, 1)) * rng.uniform(0.55, 1.0) * constants.TRACE_TOL
            a, b = (DensityMatrix(m).matrix * (1.0 + u) for m in random_states(rng, 2, 2))
            want = outcome(reference_product, a, b)
            assert want.startswith("trace ")
            assert outcome(lambda x, y: _product_state(x, y).matrix, a, b) == want


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
