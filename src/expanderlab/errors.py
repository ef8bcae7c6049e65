"""Exception types shared across the package.

Two families matter to callers: ``ValidationError`` means the input was
bad (the CLI maps it to exit code 2), while ``InternalInvariantError``
means the library reached a state its own mathematics forbids (exit code
1, always a bug).  The message names the fault; a subclass names only the
kind of input, and a new one is added only for code that catches it by type.
Every integer argument is read by :func:`_count`, one wording, and a seed
by :func:`_seed`, which also caps it.
"""


class ValidationError(ValueError):
    """Bad user input or parameters."""


class ParseError(ValidationError):
    """Text that does not parse as a field, element, polynomial or number."""


class FieldMismatchError(ValidationError):
    """Values from two different fields."""


class InvalidParametersError(ValidationError):
    """A well-formed value outside its domain."""


class InternalInvariantError(RuntimeError):
    """A mathematically impossible state was observed; indicates a bug."""


def _count(value, name: str, least: int | None = 0) -> int:
    """The one reading of a count: ``value`` if it is an int, not a bool, of
    at least ``least`` (any int if None); else a ParseError (not an int) or
    InvalidParametersError (an int below ``least``), worded "NAME must be an
    integer >= LEAST, got VALUE", or "NAME must be an integer, got VALUE"."""
    is_int = isinstance(value, int) and not isinstance(value, bool)
    if is_int and (least is None or value >= least):
        return value
    raise (InvalidParametersError if is_int else ParseError)(
        f"{name} must be an integer{'' if least is None else f' >= {least}'}, got {value!r}")


def _seed(value) -> int:
    """The one reading of a seed: a count below 2^64, the width of the
    generator's state, so no two seeds draw alike; a larger int raises
    InvalidParametersError "seed must be below 2^64, got VALUE"."""
    if _count(value, "seed") >> 64:
        raise InvalidParametersError(f"seed must be below 2^64, got {value!r}")
    return value
