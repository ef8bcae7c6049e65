"""Exception types shared across the package.

Two families matter to callers: ``ValidationError`` means the input was
bad (the CLI maps it to exit code 2), while ``InternalInvariantError``
means the library reached a state its own mathematics forbids (exit code
1, always a bug).  The message names the fault; a subclass names only the
kind of input, and a new one is added only for code that catches it by type.
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
