"""Reference values for the benchmark's output checks, computed apart from nonmarkov.

Nothing here imports the package under test. Each function is written
from the physics (the paper's formulas, a Laplace-domain solution, a
Gamma-function integral, general-purpose quadrature, LAPACK) so that a
fault in the program cannot also sit in the value it is compared with.
The benchmark's own tests check every function here against a second,
independent route.

Units follow the program's CLI: rates in units of gamma0, times in 1/gamma0.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def lorentzian_b(gamma0: float, width: float, t) -> np.ndarray:
    """Resonant-Lorentzian survival amplitude, the paper's three-regime formula.

    b(t) = e^{-lambda t/2} [cosh(d t/2) + (lambda/d) sinh(d t/2)] with
    d = sqrt(lambda^2 - 2 gamma0 lambda): hyperbolic when d is real
    (Markovian), trigonometric when it is imaginary (non-Markovian) and
    e^{-lambda t/2}(1 + lambda t/2) at d = 0 (critical).
    """
    t = np.asarray(t, dtype=float)
    disc = width * width - 2.0 * gamma0 * width
    decay = np.exp(-0.5 * width * t)
    if disc > 0.0:
        d = math.sqrt(disc)
        return decay * (np.cosh(0.5 * d * t) + (width / d) * np.sinh(0.5 * d * t))
    if disc < 0.0:
        omega = math.sqrt(-disc)
        return decay * (np.cos(0.5 * omega * t) + (width / omega) * np.sin(0.5 * omega * t))
    return decay * (1.0 + 0.5 * width * t)


def detuned_b(gamma0: float, width: float, detuning: float, t) -> np.ndarray:
    """Detuned-Lorentzian survival amplitude from its two Laplace poles.

    With f(t) = (gamma0 lambda/2) e^{(i Delta - lambda) t}, the Laplace
    transform of b is (s + a)/(s^2 + a s + gamma0 lambda/2), a = lambda - i Delta,
    so b(t) = [(s1 + a) e^{s1 t} - (s2 + a) e^{s2 t}] / (s1 - s2) with s1, s2
    the roots of s^2 + (lambda - i Delta) s + gamma0 lambda/2.
    """
    t = np.asarray(t, dtype=float)
    a = complex(width, -detuning)
    root = cmath.sqrt(a * a - 2.0 * gamma0 * width)
    s1 = 0.5 * (-a + root)
    s2 = 0.5 * (-a - root)
    return ((s1 + a) * np.exp(s1 * t) - (s2 + a) * np.exp(s2 * t)) / (s1 - s2)


def kappa(gamma0: float, width: float) -> float:
    """sqrt(|lambda^2 - 2 gamma0 lambda|), the rate in the paper's b(t)."""
    return math.sqrt(abs(width * width - 2.0 * gamma0 * width))


def maxima_ratio(gamma0: float, width: float) -> float:
    """q = e^{-pi lambda/kappa}: the n-th local maximum of |b| is q^n."""
    return math.exp(-math.pi * width / kappa(gamma0, width))


def geometric_totals(gamma0: float, width: float) -> dict:
    """Infinite maxima sums of the non-Markovian resonant Lorentzian.

    n_single = sum q^n = q/(1-q), n_eg = sum q^{2n} = q^2/(1-q^2) and the
    two-qubit term sum sum x_n sqrt(2 - 2 x_n^2 + x_n^4) with x_n = q^n.
    """
    q = maxima_ratio(gamma0, width)
    two = 0.0
    x = q
    while x > 1e-300:
        term = x * math.sqrt(2.0 - 2.0 * x * x + x ** 4)
        two += term
        if term < 1e-18 * two:
            break
        x *= q
    return {"n_single": q / (1.0 - q), "n_eg": q * q / (1.0 - q * q), "n_two_lower": two}


def ohmic_f(coupling: float, exponent: float, cutoff: float, qubit_frequency: float, t):
    """Ohmic-family correlation from the Gamma-function integral.

    For J(w) = c wc^(1-s) w^s e^{-w/wc} on w > 0,
    f(t) = int J(w) e^{i(w0 - w)t} dw = c wc^(1-s) Gamma(s+1) e^{i w0 t} / (1/wc + i t)^(s+1).
    """
    t = np.asarray(t, dtype=float)
    scale = coupling * cutoff ** (1.0 - exponent) * math.gamma(exponent + 1.0)
    return scale * np.exp(1j * qubit_frequency * t) / (1.0 / cutoff + 1j * t) ** (exponent + 1.0)


def tabulated_f(points: np.ndarray, qubit_frequency: float, t) -> np.ndarray:
    """Correlation of a linearly interpolated table, by adaptive quadrature.

    f(t) = e^{i w0 t} int J(w) [cos(w t) - i sin(w t)] dw, integrated
    segment by segment with `scipy.integrate.quad`, because the
    interpolant has a kink at every table node.
    """
    from scipy.integrate import quad

    w = np.asarray(points[:, 0], dtype=float)
    j = np.asarray(points[:, 1], dtype=float)
    out = []
    for tk in np.atleast_1d(np.asarray(t, dtype=float)):
        re = im = 0.0
        for k in range(w.size - 1):
            if j[k] == 0.0 and j[k + 1] == 0.0:
                continue
            w0, w1, j0, j1 = w[k], w[k + 1], j[k], j[k + 1]

            def interp(x, w0=w0, w1=w1, j0=j0, j1=j1):
                return j0 + (j1 - j0) * (x - w0) / (w1 - w0)

            re += quad(lambda x: interp(x) * math.cos(x * tk), w0, w1, epsabs=1e-14, epsrel=1e-12)[0]
            im -= quad(lambda x: interp(x) * math.sin(x * tk), w0, w1, epsabs=1e-14, epsrel=1e-12)[0]
        out.append(cmath.exp(1j * qubit_frequency * tk) * complex(re, im))
    return np.array(out)


def evolved_qubit(alpha: float, beta: complex, b: complex) -> np.ndarray:
    """Amplitude-damped qubit, basis (|e>, |g>): populations alpha|b|^2, coherence beta b."""
    pop = alpha * abs(b) ** 2
    coh = beta * b
    return np.array([[pop, coh], [np.conj(coh), 1.0 - pop]], dtype=complex)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2) sum |eigenvalues of rho - sigma|, with LAPACK's `eigvalsh`."""
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(rho - sigma))))


def bell_concurrences(x) -> tuple[np.ndarray, np.ndarray]:
    """Concurrences |b|^2 and |b|^4 of the evolved Bell states |Psi> and |Phi>."""
    x = np.asarray(x, dtype=float)
    return x * x, x ** 4


def two_qubit_distance(x) -> np.ndarray:
    """x sqrt(2 - 2x^2 + x^4): distance of the evolved |++> and |--> pair at |b| = x."""
    x = np.asarray(x, dtype=float)
    return x * np.sqrt(2.0 - 2.0 * x * x + x ** 4)
