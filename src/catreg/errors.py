"""Exceptions, input checks, and the one JSON reader and strict encoder: JSON has
no NaN or Infinity (RFC 8259, section 6), so `encode_json` raises NumericalError."""

import json
import math
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


def json_list(obj, what: str) -> list:
    """Return obj after checking that it is a JSON list."""
    if not isinstance(obj, list):
        raise ValidationError(f"{what} must be a JSON list")
    return obj


def require_number(name: str, value, integer: bool = False) -> None:
    """Reject anything but a real number (an integer when asked); bool is neither."""
    if isinstance(value, bool) or not isinstance(value, Integral if integer else Real):
        kind = "an integer" if integer else "a number"
        raise ValidationError(f"{name} must be {kind}, got {value!r}")


def finite_number(value) -> bool:
    """True for an int or float (not bool) with a finite float value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def parse_json(text: str):
    """json.loads that reports every parse failure as json.JSONDecodeError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except (ValueError, RecursionError) as exc:  # digit limit on ints; deep nesting
        raise json.JSONDecodeError(str(exc), text, 0) from None


def read_json(path):
    """The JSON document in the UTF-8 file at path, parsed by parse_json."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_json(fh.read())


def encode_json(value, indent: int | None = 2) -> str:
    """Strict JSON text of value; a NaN or infinity in it is a NumericalError."""
    try:
        return json.dumps(value, indent=indent, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"cannot write JSON: {exc}") from None
