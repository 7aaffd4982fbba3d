"""Exception types shared across the library."""


class SSVError(Exception):
    """Base class for all domain errors raised by this library."""


class ContainmentError(SSVError):
    """A vector or subgroup is not contained where it must be."""


class DimensionError(SSVError):
    """Ambient dimension exceeds the supported exact-geometry bound."""


class NotPointedError(SSVError):
    """The cone contains a line, so the requested monoid data is undefined."""


class RankError(SSVError):
    """Root datum rank exceeds the supported bound."""


class NotDominantError(SSVError):
    """A weight required to be dominant is not."""


class ValidationError(SSVError):
    """The complex failed validation; see the attached report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class OutsideSupportError(SSVError):
    """A weight lies in no maximal cell cone of the complex."""


class ParamError(SSVError):
    """A parameter is out of range: catalog entries, degrees, shapes, caps."""


class MissingAutError(SSVError):
    """A cell needed by the gluing complex carries no automorphism data."""


class IncompatibleRestrictionError(SSVError):
    """Supplied restriction maps do not square to zero."""


class DomainError(SSVError):
    """A height function is not defined on the whole required cone."""


class NotReducedError(SSVError):
    """The special fiber is non-reduced; carries the offending weight."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DegenerateLiftError(SSVError):
    """Lifted points violate the preconditions of a regular subdivision."""


class InvalidRankDataError(SSVError):
    """Rank function data violates boundary or submodularity constraints."""


class NonLatticeError(SSVError):
    """A polytope required to have integral vertices does not."""


class SearchBudgetError(SSVError):
    """The subdivision search space exceeds the configured budget."""


class DocumentError(SSVError):
    """A JSON document failed to parse; carries the offending field path."""

    def __init__(self, message, path=""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
