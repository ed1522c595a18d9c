"""Scalar arithmetic shared by the exact (rational) and float evaluation modes.

Exact mode keeps every quantity a :class:`fractions.Fraction` so that metric
audits can distinguish genuine counterexamples from rounding noise.  Float
mode admits irrational inputs and compares with an absolute tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, float]

NEG_INF = float("-inf")
POS_INF = float("inf")

#: absolute tolerance used for comparisons in float mode
FLOAT_TOL = 1e-9


def parse_scalar(value, exact: bool = True) -> Scalar:
    """Parse a JSON number, a ``"p/q"`` rational string, or ``"±inf"``."""
    if isinstance(value, str):
        text = value.strip()
        if text in ("inf", "+inf"):
            return POS_INF
        if text == "-inf":
            return NEG_INF
        frac = Fraction(text)  # accepts "3/4", "-2", "0.25"
        return frac if exact else float(frac)
    if isinstance(value, bool):
        raise ValueError(f"not a number: {value!r}")
    if isinstance(value, int):
        return Fraction(value) if exact else float(value)
    if isinstance(value, Fraction):
        return value if exact else float(value)
    if isinstance(value, float):
        if value == POS_INF or value == NEG_INF:
            return value
        if exact:
            # JSON floats are decimal literals; str() round-trips the literal.
            return Fraction(str(value))
        return value
    raise ValueError(f"not a number: {value!r}")


def format_scalar(x: Scalar) -> str:
    """Render a scalar the way the JSON interfaces expect it."""
    if isinstance(x, Fraction):
        return str(x)
    if x == POS_INF:
        return "+inf"
    if x == NEG_INF:
        return "-inf"
    return repr(float(x))


def is_finite(x: Scalar) -> bool:
    return not (isinstance(x, float) and (x == POS_INF or x == NEG_INF))
