"""Exception types shared across the library, and the one reader through
which every JSON loader takes its fields."""

from __future__ import annotations

_REQUIRED = object()
_KIND_NAMES = {int: "an integer", str: "a string", dict: "an object",
               list: "a list", object: "a value"}


def json_value(value, kind, what: str):
    """value when it has the JSON shape kind, else ValueError naming what
    and, inside a list or object, the offending item.

    kind is int (bools rejected), str, dict, list, object (any value),
    [kind] for a list of that kind (e.g. [[int]]) or {str: kind} for an
    object whose values have that kind."""
    outer = type(kind) if isinstance(kind, (list, dict)) else kind
    if not isinstance(value, outer) or (outer is int and isinstance(value, bool)):
        raise ValueError(f"{what} must be {_KIND_NAMES[outer]}, got {value!r}")
    if isinstance(kind, list):
        for i, item in enumerate(value):
            json_value(item, kind[0], f"item {i} of {what}")
    elif isinstance(kind, dict):
        for name, item in value.items():
            json_value(item, kind[str], f"field {name!r} of {what}")
    return value


def json_field(obj, name: str, kind, what: str, default=_REQUIRED):
    """Field name of the JSON object obj, described as what, checked against
    kind (see json_value).  An absent or null field gives default, or
    ValueError when no default is given."""
    value = json_value(obj, dict, what).get(name)
    if value is None:
        if default is _REQUIRED:
            raise ValueError(f"{what} needs the field {name!r}")
        return default
    return json_value(value, kind, f"field {name!r} of {what}")


class GralError(Exception):
    """Base class for all library errors."""


class AxiomViolation(GralError):
    """A ring table failed validation; carries the axiom name and a witness."""

    def __init__(self, axiom: str, witness=None):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"ring axiom violated: {axiom} (witness: {witness!r})")


class SearchCapExceeded(GralError):
    """An exhaustive search would exceed the configured state cap."""

    def __init__(self, states: int, cap: int, what: str = "search"):
        self.states = states
        self.cap = cap
        super().__init__(f"{what} needs {states} states, cap is {cap}")


class XNotRegular(GralError):
    """A relative-Cohn subset X contains a non-regular vertex."""


class UnknownGenerator(GralError):
    """A word mentions a symbol that is not a generator of the algebra."""


class SpecMismatch(GralError):
    """Two elements from different algebra specs were combined."""


class NotDegreeZero(GralError):
    """The element is not homogeneous of degree zero."""


class NotInDn(GralError):
    """The element lies outside the requested filtration level."""


class ZeroElement(GralError):
    """The operation requires a nonzero element."""


class CoefficientRingNotVNR(GralError):
    """The constructive witness machinery requires a von Neumann regular
    coefficient ring."""


class InternalVerificationFailure(Exception):
    """A certificate failed its own re-verification; signals a bug.

    Deliberately not a GralError: handlers of refusals never catch it, and
    the CLI reports it as an internal failure (exit 3)."""


class RelationViolation(GralError):
    """A generator assignment does not respect the defining relations."""

    def __init__(self, relation: str, detail: str = ""):
        self.relation = relation
        super().__init__(f"relation {relation} violated{': ' + detail if detail else ''}")


class NotIdempotent(GralError):
    """The designated corner element is not idempotent."""


class NotCornerIso(GralError):
    """The supplied map is not a ring isomorphism onto the corner."""


class NotDegreeOneGenerated(GralError):
    """check_strong_Z refuses oracles that do not declare degree-one
    generation."""
