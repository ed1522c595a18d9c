"""Scalar arithmetic shared by the exact (rational) and float evaluation modes.

Exact mode keeps every quantity a :class:`fractions.Fraction` so that metric
audits can distinguish genuine counterexamples from rounding noise.  Float
mode admits irrational inputs and compares with an absolute tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import InputFormatError

Scalar = Union[Fraction, float]

NEG_INF = float("-inf")
POS_INF = float("inf")

#: absolute tolerance used for comparisons in float mode
FLOAT_TOL = 1e-9


def parse_scalar(value, exact: bool = True) -> Scalar:
    """Parse a JSON number, a ``"p/q"`` rational string, or ``"±inf"``.

    A NaN (which Python's JSON reader accepts) raises ``InputFormatError``:
    every comparison with it is False, so it would pass any check.  So
    does a rational beyond the float range in float mode.  A zero
    denominator raises ``ValueError``, as any other malformed string does.
    """
    if isinstance(value, str):
        text = value.strip()
        if text in ("inf", "+inf"):
            return POS_INF
        if text == "-inf":
            return NEG_INF
        num, slash, den = text.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        try:
            if digits.isdigit() and den.isdigit() == bool(slash) and text.isascii():
                # "p/q" or "p" in ASCII digits, which Fraction(text) reads as this
                frac = Fraction(int(num), int(den)) if slash else Fraction(int(num))
            else:
                frac = Fraction(text)  # accepts "3/4", "-2", "0.25", "1_000"
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
        return frac if exact else _float(frac, value)
    if isinstance(value, bool):
        raise ValueError(f"not a number: {value!r}")
    if isinstance(value, int):
        return Fraction(value) if exact else _float(value, value)
    if isinstance(value, Fraction):
        return value if exact else _float(value, value)
    if isinstance(value, float):
        if value != value:
            raise InputFormatError(f"{value!r} is not finite")
        if value == POS_INF or value == NEG_INF:
            return value
        if exact:
            # JSON floats are decimal literals; str() round-trips the literal.
            return Fraction(str(value))
        return value
    raise ValueError(f"not a number: {value!r}")


def _float(x, value) -> float:
    try:
        return float(x)
    except OverflowError:
        raise InputFormatError(f"{value!r} is beyond the float range") from None


def format_scalar(x: Scalar) -> str:
    """Render a scalar the way the JSON interfaces expect it: an exact
    value (a ``Fraction`` or an ``int`` that is no ``bool``) as ``str``."""
    if isinstance(x, Fraction) or isinstance(x, int) and not isinstance(x, bool):
        return str(x)
    if x == POS_INF:
        return "+inf"
    if x == NEG_INF:
        return "-inf"
    return repr(float(x))


def is_finite(x: Scalar) -> bool:
    return not (isinstance(x, float) and (x == POS_INF or x == NEG_INF))
