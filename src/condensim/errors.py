"""Exception hierarchy for condensim."""


class CondensimError(Exception):
    """Base class for all condensim errors."""


class ChainValidationError(CondensimError):
    """A rate matrix or invariant measure failed validation."""


class ReducibleChainError(ChainValidationError):
    """The rate matrix is not irreducible."""


class NotInvariantError(ChainValidationError):
    """A supplied measure is not invariant for the rate matrix."""


class NonPositiveMeasureError(ChainValidationError):
    """A supplied measure has non-positive entries."""


class BadSubsetError(CondensimError):
    """A site subset is empty, out of range, or otherwise unusable."""


class SubsetTooSmallError(BadSubsetError):
    """The subset has fewer than two sites."""


class SingularSystemError(CondensimError):
    """A linear system that should be solvable was singular.

    Cannot occur for valid irreducible chains; surfaced defensively.
    """


class BadExponentsError(CondensimError):
    """Exponent parameters violate the required inequality chain."""


class NotLatticeError(CondensimError):
    """A point is not on the 1/N lattice of the simplex."""


class BadInitialError(CondensimError):
    """An initial particle configuration has the wrong particle count."""


class ZeroCoordinateError(CondensimError):
    """A coordinate inside the active set is zero (missed absorption)."""


class StepBlowupError(CondensimError):
    """An integrator step left the simplex hyperplane beyond tolerance."""


class StepStallError(CondensimError):
    """An integrator step did not advance a path's clock."""


class NonSimplexStartError(CondensimError):
    """A starting point is not on the simplex."""


class IncompletePathError(CondensimError):
    """A path did not reach its stopping rule (or the input is empty)."""


class MismatchedChainsError(CondensimError):
    """Two summaries being compared come from different chains."""


class EmptyRegionError(CondensimError):
    """Region parameters produce no grid points."""


class ConfigSchemaError(CondensimError):
    """A config document violates the schema.

    ``path`` points at the offending key, e.g. ``experiment.seed``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class ConfigRangeError(CondensimError):
    """A config value or engine parameter is out of its allowed range."""
