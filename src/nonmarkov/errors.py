"""Exception types shared across the package."""


class PhysicalityError(ValueError):
    """An input violates a physical contract (non-Hermitian, trace != 1, ...)."""


class UnsupportedModelError(TypeError):
    """Operation only defined for a different spectral-model variant."""


class NoZerosError(ValueError):
    """The amplitude has no zeros in this regime (monotone decay)."""


class NumericalFailureError(RuntimeError):
    """A numerical routine could not reach its accuracy target."""


class HorizonError(NumericalFailureError):
    """A population measured without a resonant model has not decayed by its horizon.

    Only the measures' trailing check raises it, where |b| still reaches
    1e-4 over the last 5% of the horizon.
    """
