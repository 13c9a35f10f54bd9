"""Canonical "p/q" string form for exact rationals.

q is always positive and gcd(p, q) = 1, so equal rationals serialize to
equal strings.  Input is an integer or "p/q" (optional sign, surrounding
whitespace); decimals and exponents are refused, since Fraction would
compute 10**exp for a short text like "1e100000000", and so is an int
whose decimal text int() could not parse back.  Any exact rational
prints in full, also past the digit limit of int-to-str conversion.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction

_RATIONAL = re.compile(r"\s*([+-]?\d+)(?:/(\d+))?\s*")


def format_rational(x: Fraction | int) -> str:
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError:  # an integer past str's digit limit; Decimal prints it exactly
        return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"


def _within_digit_limit(n: int) -> bool:
    """Whether int n has at most sys.get_int_max_str_digits() digits (any
    number when that is 0), so that its decimal text parses back with
    int().  Below 2**(3 * limit) < 10**limit no power of ten is built."""
    limit = sys.get_int_max_str_digits()
    return not limit or n.bit_length() <= 3 * limit or abs(n) < 10**limit


def parse_rational(text: str | int) -> Fraction:
    if isinstance(text, int) and not isinstance(text, bool):
        if not _within_digit_limit(text):
            raise ValueError(f"integer of more than {sys.get_int_max_str_digits()} digits")
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {type(text).__name__}")
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError(f"malformed rational {text!r}")
    num, den = match.groups()
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {text!r}") from None
    except ValueError:  # an integer past int's digit limit
        raise ValueError(f"malformed rational {text!r}") from None
