"""Dense complex linear algebra for 2x2 and 4x4 Hermitian matrices.

Only what the trace-distance and concurrence oracles need: Hermitian
eigenvalues, Kronecker products, and the Wootters concurrence. Matrices are
plain complex numpy arrays; :class:`DensityMatrix` wraps one with
physicality checks. Every eigenvalue returned, or summed into a trace
distance, is LAPACK `eigvalsh`'s.

Each matrix is tested for Hermiticity once, where it enters: by
:func:`hermitian_eigenvalues` or by the :class:`DensityMatrix` constructor.
The constructor stores the symmetrized (a + a^H)/2, which is exactly
Hermitian in IEEE arithmetic, as is the difference of two such matrices; so
`eigenvalues` and `trace_distance` pass them to `eigvalsh` without testing
them again. A 2x2 input is checked in scalar arithmetic, its positivity on
its lowest eigenvalue in closed form; a product of two 2x2 states is
checked through its factors. A NaN trace or eigenvalue fails its gate.
`kron` broadcasts one product per element, the same products `np.kron`
forms, without its per-call overhead.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import constants
from .errors import PhysicalityError

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SIGMA_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise PhysicalityError(f"expected a square matrix, got shape {a.shape}")
    return a


def _as_complex_matrix(m) -> np.ndarray:
    a = _as_square(m)
    if not np.isfinite(a).all():
        raise PhysicalityError("matrix contains non-finite entries")
    return a


def _check_hermitian(a: np.ndarray) -> np.ndarray:
    """Return a^H, raising unless `a` is Hermitian within the shared tolerance.

    `eigvalsh` reads one triangle only, so this test is what keeps a
    non-Hermitian input from passing silently.
    """
    ah = a.conj().T
    if a.size:
        dev = np.abs(a - ah).max()
        _check_deviation(dev, float(np.abs(a).max()))
    return ah


def _check_deviation(dev: float, largest: float) -> None:
    if dev > constants.HERMITICITY_TOL * max(1.0, largest):
        raise PhysicalityError(f"matrix is not Hermitian (deviation {dev:.3e})")


def _check_trace(tr: float) -> None:
    if not abs(tr - 1.0) <= constants.TRACE_TOL:
        # numpy's repr on every route, as the 4x4 route's trace (a numpy scalar) prints.
        raise PhysicalityError(f"trace {np.float64(tr)!r} differs from 1 beyond tolerance")


def _check_lowest(lo: float) -> None:
    if not lo >= constants.PSD_EIGENVALUE_FLOOR:
        raise PhysicalityError(f"negative eigenvalue {lo:.3e} beyond tolerance")


def _checked_2x2(a) -> tuple[np.ndarray, float, float]:
    """A 2x2 state's stored matrix and its two eigenvalues, checked in scalar arithmetic.

    The gates and messages of the 4x4 route. The stored matrix has the bits
    of 0.5 (a + a^H): the real part of a's diagonal, and each off-diagonal
    entry as the same complex mean. The eigenvalues m -+ hypot((p-q)/2, |c|),
    m = (p+q)/2, only gate positivity, here and for a product of factors; no
    output eigenvalue is taken from them.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape != (2, 2):
        raise PhysicalityError(f"expected a 2x2 matrix, got shape {a.shape}")
    (p, c), (d, q) = a.tolist()
    if not all(map(cmath.isfinite, (p, c, d, q))):
        raise PhysicalityError("matrix contains non-finite entries")
    dev = max(abs(c - d.conjugate()), 2.0 * abs(p.imag), 2.0 * abs(q.imag))
    _check_deviation(dev, max(abs(p), abs(c), abs(d), abs(q)))
    p, q, c, d = p.real, q.real, 0.5 * (c + d.conjugate()), 0.5 * (d + c.conjugate())
    _check_trace(p + q)
    m, r = 0.5 * (p + q), math.hypot(0.5 * (p - q), abs(c))
    _check_lowest(m - r)
    return np.array([[p, c], [d, q]]), m - r, m + r


def hermitian_eigenvalues(m) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending, from LAPACK `eigvalsh`.

    Raises :class:`PhysicalityError` if the input deviates from Hermiticity
    by more than the shared tolerance.
    """
    a = _as_complex_matrix(m)
    _check_hermitian(a)
    return np.linalg.eigvalsh(a)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A physical 2x2 or 4x4 density matrix.

    Stored exactly Hermitian (symmetrized on construction); trace and
    positivity are validated against the shared tolerance table.
    """

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = _as_square(self.matrix)
        if a.shape == (2, 2):
            sym = _checked_2x2(a)[0]
        else:
            a = _as_complex_matrix(a)
            if a.shape[0] != 4:
                raise PhysicalityError(f"only 2x2 and 4x4 states supported, got {a.shape}")
            sym = 0.5 * (a + _check_hermitian(a))
            _check_trace(sym.trace().real)
            _check_lowest(np.linalg.eigvalsh(sym)[0])
        self._store(sym)

    def _store(self, sym: np.ndarray) -> None:
        sym.setflags(write=False)
        object.__setattr__(self, "matrix", sym)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """(1/2) tr|a - b|: distinguishability of two states, in [0, 1]."""
    if a.dim != b.dim:
        raise PhysicalityError(f"dimension mismatch: {a.dim} vs {b.dim}")
    lam = np.linalg.eigvalsh(a.matrix - b.matrix)
    return 0.5 * float(np.abs(lam).sum())


def kron(a, b) -> np.ndarray:
    """Kronecker product of two square matrices, element for element `np.kron`'s."""
    return _kron(_as_complex_matrix(a), _as_complex_matrix(b))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n, m = a.shape[0], b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n * m, n * m)


def _product_state(a: np.ndarray, b: np.ndarray) -> DensityMatrix:
    """The 4x4 state a x b of two 2x2 states, checked through its factors.

    Each factor passes the 2x2 gates. In IEEE arithmetic conj(x) conj(y) =
    conj(xy), so the product of the exactly Hermitian stored factors is
    exactly Hermitian, and its spectrum is the products of theirs: only its
    trace is summed anew. Factors that are exactly Hermitian already, as the
    channel's outputs are, give the bits of the 4x4 route's stored matrix.
    An input that fails any gate here takes that checked 4x4 route,
    `DensityMatrix(kron(a, b))`, which rejects it with that route's
    message, or accepts it, as any 4x4 input.
    """
    try:
        (fa, la, ha), (fb, lb, hb) = _checked_2x2(a), _checked_2x2(b)
        k = _kron(fa, fb)
        _check_trace(k.trace().real)
        _check_lowest(min(la * lb, la * hb, ha * lb, ha * hb))
    except PhysicalityError:
        return DensityMatrix(kron(a, b))
    rho = object.__new__(DensityMatrix)
    rho._store(k)
    return rho


def wootters_concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence of a two-qubit state.

    C = max(0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4)) with l_i the
    descending eigenvalues of rho (sy x sy) rho* (sy x sy).
    """
    if rho.dim != 4:
        raise PhysicalityError("concurrence requires a 4x4 state")
    tilde = _SIGMA_YY @ rho.matrix.conj() @ _SIGMA_YY
    lam = np.linalg.eigvals(rho.matrix @ tilde)
    # The spectrum of rho*rho_tilde is real nonnegative; discard the
    # tiny imaginary/negative parts introduced by roundoff.
    lam = np.sort(np.clip(lam.real, 0.0, None))[::-1]
    roots = np.sqrt(lam)
    return max(0.0, float(roots[0] - roots[1] - roots[2] - roots[3]))
