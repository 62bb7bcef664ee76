"""Exact rational values and their text form.

Weights, lengths and distance demands are `fractions.Fraction` in every
edge and demand record, in every file and in every report.  The
shortest-path core does not add fractions: it runs on the instance's scaled
integers (:attr:`SpannerInstance.lengths` and :attr:`SpannerInstance.bounds`),
where every length is multiplied by the lcm ``L`` of the length denominators
and every bound is floored to ``floor(delta * L)``.  Scaled distances are
integers, so the floored comparisons are exact, and distances go back to
``Fraction(d, L)`` only where a report shows them.  Python fractions and ints are arbitrary-precision, so
arithmetic can never overflow or wrap.  Floating point only appears inside
the LP layer.

Text form used by instance files: ``"p/q"``, or ``"p"`` alone for denominator 1.
The grammar is exactly ``-?[0-9]+(/[0-9]+)?`` in ASCII, with a nonzero
denominator: no whitespace, no ``+``, no ``_`` between digits, no sign on
the denominator and no non-ASCII digit.  :func:`format_rational` writes a
string of this grammar.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError

Rational = Fraction


def parse_rational(text: str, *, field: str | None = None) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` (the module docstring's grammar) into an exact fraction.

    Text outside the grammar and a zero denominator are parse errors, never
    silent coercions.  JSON ``true``/``false`` are not numbers here, although
    Python's bool is an int.
    """
    if isinstance(text, bool):
        raise ParseError(f"expected rational string, got {text!r}", field=field)
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise ParseError(f"expected rational string, got {type(text).__name__}", field=field)
    head, slash, tail = text.partition("/")
    if not (text.isascii() and head.removeprefix("-").isdigit() and (tail.isdigit() or not slash)):
        raise ParseError(f"malformed rational {text!r}", field=field)
    try:  # int() still refuses a part past Python's digit limit
        num = int(head)
        den = int(tail) if slash else 1
    except ValueError:
        raise ParseError(f"malformed rational {text!r}", field=field) from None
    if den == 0:
        raise ParseError(f"zero denominator in {text!r}", field=field)
    return Fraction(num, den)


def as_fraction(value) -> Fraction:
    """``value`` as a Fraction, without re-wrapping one (every loaded or generated value)."""
    return value if type(value) is Fraction else Fraction(value)


def format_rational(value: Fraction) -> str:
    """Canonical text form: lowest terms, ``"p"`` when the denominator is 1."""
    value = as_fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def is_integer(value: Fraction) -> bool:
    return Fraction(value).denominator == 1
