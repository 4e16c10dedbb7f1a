"""Dense complex linear algebra for 2x2 and 4x4 Hermitian matrices.

Only what the trace-distance and concurrence oracles need: Hermitian
eigenvalues (LAPACK `eigvalsh`), Kronecker products, and the Wootters
concurrence. Matrices are plain complex numpy arrays; :class:`DensityMatrix`
wraps one with physicality checks.

Each matrix is tested for Hermiticity once, where it enters: by
:func:`hermitian_eigenvalues` or by the :class:`DensityMatrix` constructor.
The constructor stores the symmetrized (a + a^H)/2, which is exactly
Hermitian in IEEE arithmetic, as is the difference of two such matrices; so
the PSD check, `eigenvalues` and `trace_distance` pass them to `eigvalsh`
without testing them again. `kron` broadcasts one product per element,
the same products `np.kron` forms, without its per-call overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import constants
from .errors import PhysicalityError

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SIGMA_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def _as_complex_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise PhysicalityError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise PhysicalityError("matrix contains non-finite entries")
    return a


def _check_hermitian(a: np.ndarray) -> None:
    """Raise unless `a` is Hermitian within the shared tolerance.

    `eigvalsh` reads one triangle only, so this test is what keeps a
    non-Hermitian input from passing silently.
    """
    if not a.size:
        return
    dev = np.abs(a - a.conj().T).max()
    if dev > constants.HERMITICITY_TOL * max(1.0, float(np.abs(a).max())):
        raise PhysicalityError(f"matrix is not Hermitian (deviation {dev:.3e})")


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
        a = _as_complex_matrix(self.matrix)
        if a.shape[0] not in (2, 4):
            raise PhysicalityError(f"only 2x2 and 4x4 states supported, got {a.shape}")
        _check_hermitian(a)
        sym = 0.5 * (a + a.conj().T)
        tr = sym.trace().real
        if abs(tr - 1.0) > constants.TRACE_TOL:
            raise PhysicalityError(f"trace {tr!r} differs from 1 beyond tolerance")
        lo = np.linalg.eigvalsh(sym)[0]
        if lo < constants.PSD_EIGENVALUE_FLOOR:
            raise PhysicalityError(f"negative eigenvalue {lo:.3e} beyond tolerance")
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
    return 0.5 * float(np.sum(np.abs(lam)))


def kron(a, b) -> np.ndarray:
    """Kronecker product of two square matrices, element for element `np.kron`'s."""
    am = _as_complex_matrix(a)
    bm = _as_complex_matrix(b)
    n, m = am.shape[0], bm.shape[0]
    return (am[:, None, :, None] * bm[None, :, None, :]).reshape(n * m, n * m)


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
