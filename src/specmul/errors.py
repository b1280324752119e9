"""Exception types shared across the package."""


class SpecmulError(Exception):
    """Base class for every error raised by this library."""


class DimensionMismatchError(SpecmulError):
    pass


class NonUnitaryError(SpecmulError):
    pass


class ConvergenceFailureError(SpecmulError):
    pass


class ClosureRefusedError(SpecmulError):
    pass


class IncompleteClosureError(SpecmulError):
    pass


class ClosureInvariantError(SpecmulError):
    """A closure whose index tables do not describe a group."""


class DeterminantNotOneError(SpecmulError):
    pass


class InvalidParamsError(SpecmulError):
    pass


class MalformedJsonError(SpecmulError, ValueError):
    """Serialized input without the expected structure."""


class PrimeMismatchError(SpecmulError):
    pass


class ZeroSpectralRadiusError(SpecmulError):
    pass
