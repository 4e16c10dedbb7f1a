"""Each reference against an independent route: ODE integration, quadrature, SVD."""

import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.optimize import minimize_scalar

import reference


def pseudomode_b(gamma0, width, detuning, t):
    """b(t) from the Lorentzian memory kernel written as two coupled ODEs.

    With c(t) = int_0^t e^{-(lambda - i Delta)(t - s)} b(s) ds the kernel
    equation becomes b' = -(gamma0 lambda/2) c, c' = b - (lambda - i Delta) c.
    """
    a = complex(width, -detuning)

    def rhs(_, y):
        return [-0.5 * gamma0 * width * y[1], y[0] - a * y[1]]

    sol = solve_ivp(rhs, (0.0, float(t[-1])), [1.0 + 0j, 0j], t_eval=t, method="DOP853",
                    rtol=1e-12, atol=1e-14)
    assert sol.success
    return sol.y[0]


@pytest.mark.parametrize("width", [0.1, 0.5, 2.0, 5.0])
def test_lorentzian_b_matches_ode(width):
    t = np.linspace(0.0, 40.0, 401)
    assert np.max(np.abs(reference.lorentzian_b(1.0, width, t) - pseudomode_b(1.0, width, 0.0, t))) < 1e-9


@pytest.mark.parametrize("width,detuning", [(1.0, 0.3), (0.1, 0.5), (4.0, 2.0)])
def test_detuned_b_matches_ode(width, detuning):
    t = np.linspace(0.0, 40.0, 401)
    got = reference.detuned_b(1.0, width, detuning, t)
    assert np.max(np.abs(got - pseudomode_b(1.0, width, detuning, t))) < 1e-9


def test_detuned_b_reduces_to_resonant():
    t = np.linspace(0.0, 30.0, 301)
    assert np.max(np.abs(reference.detuned_b(1.0, 0.3, 0.0, t) - reference.lorentzian_b(1.0, 0.3, t))) < 1e-12


@pytest.mark.parametrize("width", [0.1, 0.5, 1.0, 1.8])
def test_geometric_totals_match_located_maxima(width):
    k = reference.kappa(1.0, width)
    # Zeros of b(t) from the paper; one maximum of |b| lies between each two.
    zeros = [2.0 * (n * math.pi - math.atan(k / width)) / k for n in range(1, 40)]
    maxima = []
    for lo, hi in zip(zeros, zeros[1:]):
        res = minimize_scalar(lambda t: -abs(reference.lorentzian_b(1.0, width, t)), bounds=(lo, hi),
                              method="bounded", options={"xatol": 1e-10 * (hi - lo)})
        maxima.append(-res.fun)
    q = reference.maxima_ratio(1.0, width)
    xs = np.array(maxima)
    assert np.allclose(xs, q ** np.arange(1, xs.size + 1), rtol=1e-7, atol=1e-300)
    totals = reference.geometric_totals(1.0, width)
    # The located maxima leave out a tail smaller than q^40/(1-q).
    assert totals["n_single"] == pytest.approx(xs.sum(), abs=1e-7 + q ** 40 / (1 - q))
    assert totals["n_eg"] == pytest.approx((xs ** 2).sum(), abs=1e-7 + q ** 40 / (1 - q))
    assert totals["n_two_lower"] == pytest.approx(
        float(np.sum(reference.two_qubit_distance(xs))), abs=1e-7 + 2 * q ** 40 / (1 - q))


@pytest.mark.parametrize("exponent", [0.5, 1.0, 2.0])
def test_ohmic_f_matches_quadrature(exponent):
    c, wc, w0 = 0.1, 1.0, 1.0
    for t in (0.0, 0.7, 3.0, 10.0):
        def j(w):
            return c * wc ** (1 - exponent) * w ** exponent * math.exp(-w / wc)

        # QUADPACK's Fourier-weighted rule; J(w) is below 1e-30 past w = 80 wc.
        cos_part = quad(j, 0.0, 80.0 * wc, weight="cos", wvar=t, epsabs=1e-14, limit=500)[0]
        sin_part = quad(j, 0.0, 80.0 * wc, weight="sin", wvar=t, epsabs=1e-14, limit=500)[0]
        want = np.exp(1j * w0 * t) * complex(cos_part, -sin_part)
        assert abs(complex(reference.ohmic_f(c, exponent, wc, w0, t)) - want) < 1e-11


def test_tabulated_f_matches_dense_trapezoid():
    w = np.linspace(90.0, 110.0, 41)
    j = np.exp(-0.5 * ((w - 100.0) / 3.0) ** 2)
    points = np.column_stack([w, j])
    t = np.array([0.0, 0.5, 2.0])
    got = reference.tabulated_f(points, 100.0, t)
    fine = np.linspace(90.0, 110.0, 400_001)
    jf = np.interp(fine, w, j)
    want = [np.exp(1j * 100.0 * tk) * np.trapezoid(jf * np.exp(-1j * fine * tk), fine) for tk in t]
    assert np.max(np.abs(got - np.array(want))) < 1e-8


def random_density(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("dim", [2, 4])
def test_trace_distance_matches_nuclear_norm(dim):
    rng = np.random.default_rng(3)
    for _ in range(20):
        rho, sigma = random_density(rng, dim), random_density(rng, dim)
        nuclear = 0.5 * np.sum(np.linalg.svd(rho - sigma, compute_uv=False))
        assert reference.trace_distance(rho, sigma) == pytest.approx(nuclear, abs=1e-13)


def test_evolved_qubit_matches_kraus_pair():
    rng = np.random.default_rng(4)
    for _ in range(20):
        alpha = rng.uniform()
        beta = math.sqrt(alpha * (1 - alpha)) * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        b = rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        rho = np.array([[alpha, beta], [np.conj(beta), 1 - alpha]])
        k0 = np.array([[b, 0], [0, 1]])
        k1 = np.array([[0, 0], [math.sqrt(1 - abs(b) ** 2), 0]])
        want = k0 @ rho @ k0.conj().T + k1 @ rho @ k1.conj().T
        assert np.max(np.abs(reference.evolved_qubit(alpha, beta, b) - want)) < 1e-15


def x_state_concurrence(rho):
    """Concurrence of a two-qubit X state (nonzero only on both diagonals)."""
    return 2.0 * max(0.0, abs(rho[0, 3]) - math.sqrt(rho[1, 1].real * rho[2, 2].real),
                     abs(rho[1, 2]) - math.sqrt(rho[0, 0].real * rho[3, 3].real))


def test_bell_concurrences_match_x_state_formula():
    psi = np.zeros(4, complex)
    psi[1] = psi[2] = 1 / math.sqrt(2)
    phi = np.zeros(4, complex)
    phi[0] = phi[3] = 1 / math.sqrt(2)
    for x in np.linspace(0.0, 1.0, 21):
        k = [np.array([[x, 0], [0, 1]]), np.array([[0, 0], [math.sqrt(1 - x * x), 0]])]
        got_psi, got_phi = reference.bell_concurrences(x)
        for state, want in ((psi, got_psi), (phi, got_phi)):
            rho = np.outer(state, state.conj())
            out = sum(np.kron(a, c) @ rho @ np.kron(a, c).conj().T for a in k for c in k)
            assert x_state_concurrence(out) == pytest.approx(float(want), abs=1e-14)
