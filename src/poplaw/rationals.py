"""Parsing, formatting and integer arithmetic of exact rationals.

All probabilities in this package are `fractions.Fraction` values. Accepted
input spellings are integers, "p/q" strings, and decimal strings such as
"0.3" (converted exactly, never through binary floating point). Floats are
rejected: a float has already lost the author's intended value.

Booleans are not integers here, though Python's `bool` subclasses `int`:
JSON `true` is neither a rational nor a count. Every count, size, seed, state
and digit count goes through `require_int`, every quantile level through
`parse_quantile_level`.

Numbers are held to CPython's default limit of 4,300 digits for converting
between int and str: a decimal exponent past it is refused on input, before
`Fraction` builds 10**exponent, and output that would need longer digit
strings raises `ResourceLimitError` instead of a bare `ValueError`. A refusal
message echoes every refused value through `shown`, which cuts it short.

Exact sums run in integers by one rule, `over_common_denominator`: rationals
as numerators over their least common denominator. It unpacks a list, not a
generator, into `lcm`, for the reason its comment gives.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import InvariantError, ResourceLimitError

MAX_DIGITS = 4300
_TOO_LONG = f"a number in the output has more than {MAX_DIGITS} digits"
SHOWN_CHARS = 60


def over_common_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Rationals as integer numerators over their least common denominator, and that denominator."""
    # a list, not a generator: CPython sizes a generator's argument tuple
    # by resizing, and each such call leaves one more tuple on a free list
    den = lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def parse_rational(value) -> Fraction:
    """Convert an int, Fraction, "p/q" string or decimal string to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InvariantError(f"not a rational: {shown(value)}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise InvariantError(
            f"refusing float {value!r}: pass a string like \"3/10\" or \"0.3\" for exactness"
        )
    if isinstance(value, str):
        check_exponent(value)
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvariantError(f"not a rational: {shown(value)}") from exc
    raise InvariantError(f"not a rational: {shown(value)}")


def require_int(value, name: str, low: int = 1, high: int | None = None) -> int:
    """Return `value` if its type is int and low <= value (< high when given).

    Otherwise raise `InvariantError` naming the argument.
    """
    if type(value) is not int or value < low or (high is not None and value >= high):
        bound = f">= {low}" if high is None else f"in [{low}, {high})"
        raise InvariantError(f"{name} {shown(value)} is not an integer {bound}")
    return value


def shown(value, render=repr) -> str:
    """`render(value)` cut to SHOWN_CHARS characters, for a refusal message to echo.

    A diagnostic stays one short line however large the refused input is.
    """
    try:
        text = render(value)
    except ValueError:  # an int past the str conversion limit
        return f"with more than {MAX_DIGITS} digits"
    except RecursionError:
        return f"<{type(value).__name__} nested too deeply>"
    return text if len(text) <= SHOWN_CHARS else text[:SHOWN_CHARS] + "..."


def parse_quantile_level(value) -> Fraction:
    """Parse a quantile level alpha and require 0 < alpha <= 1."""
    alpha = parse_rational(value)
    if not 0 < alpha <= 1:
        raise InvariantError(f"quantile level must lie in (0, 1]: {shown(alpha, str)}")
    return alpha


def check_exponent(text: str) -> None:
    """Refuse a decimal literal whose exponent magnitude exceeds MAX_DIGITS."""
    if "e" not in text and "E" not in text:
        return
    _, _, exponent = text.upper().rpartition("E")
    try:
        magnitude = abs(int(exponent))
    except ValueError:
        return  # not an exponent; the caller's parser reports the literal
    if magnitude > MAX_DIGITS:
        raise InvariantError(f"decimal exponent beyond +/-{MAX_DIGITS}")


def format_rational(value: Fraction):
    """Render a Fraction as an int (when integral) or a "p/q" string."""
    if value.denominator == 1:
        return int(value)
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError as exc:
        raise ResourceLimitError(_TOO_LONG) from exc


def format_decimal(value: Fraction, digits: int) -> str:
    """Render a Fraction as a decimal string with `digits` places, round half to even."""
    if require_int(digits, "digits", low=0) > MAX_DIGITS:
        raise ResourceLimitError(f"at most {MAX_DIGITS} decimal places can be rendered")
    scaled = value * 10**digits
    whole = scaled.numerator // scaled.denominator
    remainder2 = 2 * (scaled.numerator - whole * scaled.denominator)
    if remainder2 > scaled.denominator or (remainder2 == scaled.denominator and whole % 2):
        whole += 1
    sign = "-" if whole < 0 else ""
    try:
        text = str(abs(whole)).rjust(digits + 1, "0")
    except ValueError as exc:
        raise ResourceLimitError(_TOO_LONG) from exc
    if digits == 0:
        return sign + text
    return f"{sign}{text[:-digits]}.{text[-digits:]}"
