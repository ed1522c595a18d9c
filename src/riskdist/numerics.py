"""Scalar arithmetic: exact rationals, and how they print.

Every quantity is computed as a :class:`fractions.Fraction` (or an ``int``)
so that metric audits can distinguish genuine counterexamples from rounding
noise.  The CLI parses every JSON number to a ``Fraction`` (``parse_scalar``).
Every number a Python caller gives is lifted once, by ``rational``:
capacity entries, the weights of an expectation, a mixture or a
probability vector, the values of a ``PointFunction``, and the parameters
and inputs of a two-point member.  A float becomes the ``Fraction`` it
equals and a NaN or an infinity is refused, so a float is held only as a
two-point shift of ``±inf``, and every sum and check downstream is exact.
``format_scalar`` prints a scalar exactly, or, while ``FLOAT_OUTPUT`` is
set (the CLI's ``--mode float``), as the nearest float.
"""

from __future__ import annotations

from contextvars import ContextVar
from fractions import Fraction
from typing import Union

from .errors import InputFormatError, InvalidParams

Scalar = Union[Fraction, float]

NEG_INF = float("-inf")
POS_INF = float("inf")

#: set while the CLI prints with ``--mode float``: ``format_scalar`` then
#: prints each exact scalar as ``repr(float(x))``
FLOAT_OUTPUT: ContextVar[bool] = ContextVar("FLOAT_OUTPUT", default=False)


def parse_scalar(value) -> Scalar:
    """Parse a JSON number, a ``"p/q"`` rational string, or ``"±inf"``.

    A JSON float is a decimal literal and parses to the ``Fraction`` it
    spells.  A NaN (which Python's JSON reader accepts) raises
    ``InputFormatError``: every comparison with it is False, so it would
    pass any check.  A zero denominator raises ``ValueError``, as any other
    malformed string does.
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
                return Fraction(int(num), int(den)) if slash else Fraction(int(num))
            return Fraction(text)  # accepts "3/4", "-2", "0.25", "1_000"
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    if isinstance(value, bool):
        raise ValueError(f"not a number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        if value != value:
            raise InputFormatError(f"{value!r} is not finite")
        if value == POS_INF or value == NEG_INF:
            return value
        # JSON floats are decimal literals; str() round-trips the literal.
        return Fraction(str(value))
    raise ValueError(f"not a number: {value!r}")


def rational(x, error: str):
    """x as an exact rational: an ``int`` or a ``Fraction`` as given, a
    float as the ``Fraction`` it equals.  A NaN or an infinity raises
    ``InvalidParams(error)``."""
    if isinstance(x, (int, Fraction)):
        return x
    try:
        return Fraction(x)
    except (ValueError, OverflowError):  # a NaN or an infinity
        raise InvalidParams(error) from None


def format_scalar(x: Scalar) -> str:
    """Render a scalar the way the JSON interfaces expect it: an exact
    value (a ``Fraction`` or an ``int`` that is no ``bool``) as ``str``, or,
    while ``FLOAT_OUTPUT`` is set, as ``repr`` of the nearest float, which
    is ``±inf`` past the float range."""
    if isinstance(x, Fraction) or isinstance(x, int) and not isinstance(x, bool):
        if not FLOAT_OUTPUT.get():
            return str(x)
        try:
            x = float(x)
        except OverflowError:
            x = POS_INF if x > 0 else NEG_INF
    if x == POS_INF:
        return "+inf"
    if x == NEG_INF:
        return "-inf"
    return repr(float(x))


def is_finite(x: Scalar) -> bool:
    return not (isinstance(x, float) and (x == POS_INF or x == NEG_INF))
