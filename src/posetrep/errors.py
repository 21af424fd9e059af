"""Exception types shared across the package."""


class PosetRepError(Exception):
    """Base class for every error raised by posetrep."""


class ValidationError(PosetRepError):
    """Malformed input: bad JSON shape, bad field, inconsistent sizes."""


class DuplicateLabel(PosetRepError):
    """A poset was built with repeated element labels."""


class CycleDetected(PosetRepError):
    """Transitive closure of the given relations would violate irreflexivity."""


class UnknownElement(PosetRepError):
    """An element label does not belong to the poset at hand."""


class NotMaximal(PosetRepError):
    """A derivation pivot must be a maximal element."""


class FieldMismatch(PosetRepError):
    """Two operands live over different fields (or different posets)."""


class ContextMismatch(PosetRepError):
    """An integration input is not defined over the given derived poset."""


class NotFiniteType(PosetRepError):
    """Construction was requested for a dimension that is not of finite type."""


class FieldTooRestrictive(PosetRepError):
    """An enumeration was requested over a field that is not a finite prime field."""


class BudgetExceeded(PosetRepError):
    """An exhaustive enumeration would overrun its configured budget."""


class UndecidableAtBudget(PosetRepError):
    """A sound answer could not be certified within the configured budget."""


class ConstructionFailed(PosetRepError):
    """Recursive construction found no pivot route to a finite-type root."""


class InvariantViolated(PosetRepError):
    """An internal invariant failed: a bug in posetrep, not bad input."""
