"""Exception hierarchy shared across the package.

PositivityError subclasses ValidationError so that every precondition
failure is a validation failure, while callers (notably the CLI) can
still tell a mathematically meaningful negative (map not completely
n-positive, domination failure) from a malformed input.
"""
import operator


class ValidationError(ValueError):
    """Input violates a structural precondition (shapes, axioms, membership)."""


class SchemaError(ValidationError):
    """JSON document does not match the wire format."""


class PositivityError(ValidationError):
    """A map or operator required to be positive is not, beyond tolerance."""

    def __init__(self, message: str, min_eig: float | None = None):
        super().__init__(message)
        self.min_eig = min_eig


class DominationError(PositivityError):
    """Order precondition theta <= rho fails beyond tolerance."""


class CertificationError(RuntimeError):
    """A computed object failed its own correctness certificate.

    This signals a library defect, never bad user input; value and bound
    are the failed certificate and the bound it crossed, when known.
    """

    def __init__(self, message: str, value: float | None = None, bound: float | None = None):
        super().__init__(message)
        self.value, self.bound = value, bound


def as_index(value, name: str) -> int:
    """value through operator.index: a size such as 2.7 or 2.0 is rejected, not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
