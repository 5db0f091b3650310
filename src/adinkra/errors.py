"""Exception types shared across the package."""


class AdinkraError(Exception):
    """Base class for all package-specific errors."""


class InputError(AdinkraError, ValueError):
    """Malformed or out-of-contract input."""


class SizeGuardError(AdinkraError):
    """Instance is too large to build or search.

    The guard caps a graph's n (2**n nodes) and the leaf bound of a
    correction search; it defaults to 20 bits and can be raised
    explicitly via the ADINKRA_SIZE_GUARD environment variable.
    """


class GradedSumError(AdinkraError):
    """Attempted to add monomials carrying different derivative powers."""


class ContradictionError(AdinkraError):
    """Constraints derived two incompatible values, or admit no value.

    Carries the plaquette (or constraint description) where the clash
    surfaced, when propagation found it.
    """

    def __init__(self, message, plaquette=None):
        super().__init__(message)
        self.plaquette = plaquette


class UnderDeterminedError(AdinkraError):
    """The known values leave some edges or positions undetermined."""

    def __init__(self, message, unresolved=()):
        super().__init__(message)
        self.unresolved = tuple(unresolved)


class InsufficientPinningError(UnderDeterminedError):
    """Pinned arrows do not determine every edge direction."""


class UncorrectableError(AdinkraError):
    """No flip set within the allowed budget clears the syndrome."""


class AmbiguousCorrectionError(AdinkraError):
    """More than one minimal flip set clears the syndrome."""

    def __init__(self, message, candidates=()):
        super().__init__(message)
        self.candidates = tuple(candidates)


class ReplayError(AdinkraError):
    """A recorded gate trace does not replay against the given seed bits."""
