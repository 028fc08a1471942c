"""Exception hierarchy and input checks shared across the package."""

from numbers import Integral, Real


class CatregError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(CatregError):
    """Invalid input: schema violations, unknown names, bad configuration."""


class UnseenCategoryError(ValidationError):
    """A category label was supplied that the model never saw during fitting."""


class NumericalError(CatregError):
    """Numerical failure: rank deficiency, degenerate systems, non-convergence."""


def json_object(obj, allowed, what: str) -> dict:
    """Return obj after checking that it is a JSON object with keys in `allowed`."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be a JSON object")
    unknown = obj.keys() - allowed
    if unknown:
        raise ValidationError(f"{what} has unknown fields: {sorted(unknown)}")
    return obj


def require_number(name: str, value, integer: bool = False) -> None:
    """Reject anything but a real number (an integer when asked); bool is neither."""
    if isinstance(value, bool) or not isinstance(value, Integral if integer else Real):
        kind = "an integer" if integer else "a number"
        raise ValidationError(f"{name} must be {kind}, got {value!r}")
