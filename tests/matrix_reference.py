"""Test-side references for the checked matrix routes, written with numpy throughout.

`reference_density_matrix` is the `DensityMatrix` constructor before 2x2
inputs were checked in scalar arithmetic: every input takes the numpy
Hermiticity test, the symmetrization 0.5 (a + a^H), the trace and an
`eigvalsh` positivity gate. `reference_product` is the product route before
product states were checked through their factors: one such check of the
Kronecker product. Both return the stored matrix or raise the library's
`PhysicalityError` with the library's message.
"""

import numpy as np

from nonmarkov import constants
from nonmarkov.errors import PhysicalityError
from nonmarkov.linalg import kron


def reference_density_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise PhysicalityError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise PhysicalityError("matrix contains non-finite entries")
    if a.shape[0] not in (2, 4):
        raise PhysicalityError(f"only 2x2 and 4x4 states supported, got {a.shape}")
    dev = np.abs(a - a.conj().T).max()
    if dev > constants.HERMITICITY_TOL * max(1.0, float(np.abs(a).max())):
        raise PhysicalityError(f"matrix is not Hermitian (deviation {dev:.3e})")
    sym = 0.5 * (a + a.conj().T)
    tr = sym.trace().real
    if abs(tr - 1.0) > constants.TRACE_TOL:
        raise PhysicalityError(f"trace {tr!r} differs from 1 beyond tolerance")
    lo = np.linalg.eigvalsh(sym)[0]
    if lo < constants.PSD_EIGENVALUE_FLOOR:
        raise PhysicalityError(f"negative eigenvalue {lo:.3e} beyond tolerance")
    return sym


def reference_product(a, b) -> np.ndarray:
    return reference_density_matrix(kron(a, b))


def reference_trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) sum |eigvalsh(a - b)| of two stored matrices."""
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def outcome(route, *args):
    """The matrix a route stores, or the message of the `PhysicalityError` it raises."""
    try:
        return route(*args)
    except PhysicalityError as exc:
        return str(exc)


def same_outcome(got, want) -> bool:
    """Both routes stored equal matrices, or both raised the same message."""
    if isinstance(got, str) or isinstance(want, str):
        return got == want
    return np.array_equal(got, want)
