"""Exception types, and the record base class, shared across the library."""


class Frozen:
    """Slotted instances whose attributes cannot be set or deleted after ``__init__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Record(Frozen):
    """A frozen record whose fields are its ``__slots__``, in order.

    Fields are given by position or keyword, ``_defaults`` maps a field to
    the factory of its default, and ``__post_init__`` runs last.  Records of
    one class compare, hash and print by their field values, as frozen
    dataclasses do.
    """

    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs or len(args) != len(fields):
            values = {field: make() for field, make in self._defaults.items()}
            values.update(zip(fields, args), **kwargs)
            extra = len(args) > len(fields) or set(kwargs) - set(fields[len(args):])
            if extra or len(values) < len(fields):
                raise TypeError(f"{type(self).__name__}() takes the fields {fields}")
            args = [values[field] for field in fields]
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self):
        return tuple(getattr(self, field) for field in self.__slots__)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


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
    """Rank function data violates boundary or supermodularity constraints."""


class NonLatticeError(SSVError):
    """A polytope required to have integral vertices does not."""


class SearchBudgetError(SSVError):
    """The subdivision search space exceeds the configured budget."""


class DocumentError(SSVError):
    """A JSON document failed to parse; carries the offending field path."""

    def __init__(self, message, path=""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
