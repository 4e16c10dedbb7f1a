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
    """A signal without model metadata has not decayed by its horizon.

    Only the measures' trailing check raises it, where |b| still reaches
    1e-4 over the last 5% of the horizon; it carries n_single's estimated
    tail bound so callers can report it.
    """

    def __init__(self, message: str, tail_bound: float):
        super().__init__(message)
        self.tail_bound = tail_bound
