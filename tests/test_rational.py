import math
import random
import sys
from fractions import Fraction

import pytest

from spannerkit.errors import ParseError
from spannerkit.rational import format_rational, is_integer, parse_rational


def test_parse_plain_and_fraction():
    assert parse_rational("5") == Fraction(5)
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("6/4") == Fraction(3, 2)  # reduced on construction


def test_parse_zero_denominator_is_error():
    with pytest.raises(ParseError):
        parse_rational("1/0")


@pytest.mark.parametrize(
    "bad",
    [
        "", "1/2/3", "a/b", "1.5", "1/ ", None, 2.5,
        # int() accepts each of these; the grammar -?[0-9]+(/[0-9]+)? does not
        "1_0", " 5 ", "+2", "3/ 4", "\u0663", "1/-2",
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)


@pytest.mark.parametrize("text", ["1" * 5000, "1/" + "1" * 5000])
def test_parse_a_part_past_the_int_digit_limit(text):
    # Python caps int() on text at sys.get_int_max_str_digits() digits (4300 by default)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and limit < 5000:
        with pytest.raises(ParseError):
            parse_rational(text)
    else:
        num, _, den = text.partition("/")
        assert parse_rational(text) == Fraction(int(num), int(den or 1))


@pytest.mark.parametrize("flag", [True, False])
def test_parse_rejects_json_booleans(flag):
    # bool is an int in Python, but JSON true/false are not numbers
    with pytest.raises(ParseError) as info:
        parse_rational(flag, field="w")
    assert info.value.field == "w"


def test_format_round_trip():
    for text in ["0", "17", "-3", "1/3", "-22/7", "41/6"]:
        assert format_rational(parse_rational(text)) == text


def test_invariants_lowest_terms_positive_denominator():
    x = Fraction(-6, -4)
    assert x.denominator > 0
    assert math.gcd(abs(x.numerator), x.denominator) == 1
    assert x == Fraction(3, 2)


def test_is_integer():
    assert is_integer(Fraction(4, 2))
    assert not is_integer(Fraction(5, 2))


class _NaiveRational:
    """Independent big-integer reference: (num, den) with manual reduction."""

    def __init__(self, num, den):
        assert den != 0
        if den < 0:
            num, den = -num, -den
        g = math.gcd(abs(num), den)
        self.num = num // (g or 1)
        self.den = den // (g or 1)

    def add(self, other):
        return _NaiveRational(self.num * other.den + other.num * self.den, self.den * other.den)

    def mul(self, other):
        return _NaiveRational(self.num * other.num, self.den * other.den)

    def cmp(self, other):
        lhs = self.num * other.den
        rhs = other.num * self.den
        return (lhs > rhs) - (lhs < rhs)


def test_matches_big_integer_reference_on_random_operands():
    rng = random.Random(12345)
    for _ in range(500):
        a_num = rng.randint(-(2**31) + 1, 2**31 - 1)
        a_den = rng.randint(1, 2**31 - 1)
        b_num = rng.randint(-(2**31) + 1, 2**31 - 1)
        b_den = rng.randint(1, 2**31 - 1)
        fa, fb = Fraction(a_num, a_den), Fraction(b_num, b_den)
        na, nb = _NaiveRational(a_num, a_den), _NaiveRational(b_num, b_den)
        s = na.add(nb)
        assert fa + fb == Fraction(s.num, s.den)
        p = na.mul(nb)
        assert fa * fb == Fraction(p.num, p.den)
        assert (fa > fb) - (fa < fb) == na.cmp(nb)
