"""Tests for p-adic truncations, digits and base-p expansions."""

import math
import random
from fractions import Fraction

import pytest

from bsroots import BasePFraction, PAdicRational, format_rational, parse_rational
from bsroots.padic import grid_denominators, integer_grid, parse_integer, rational_grid


@pytest.mark.parametrize(
    "value,p,e,expected",
    [
        (Fraction(-1), 5, 2, 24),
        (Fraction(7), 3, 3, 7),
        (Fraction(-5, 4), 3, 2, 1),
        (Fraction(0), 7, 4, 0),
    ],
)
def test_truncation(value, p, e, expected):
    assert PAdicRational(value, p).truncation(e) == expected


def test_truncation_congruence_chain():
    alpha = PAdicRational(Fraction(-7, 3), 5)
    for e in range(6):
        t_lo, t_hi = alpha.truncation(e), alpha.truncation(e + 1)
        assert t_hi % 5**e == t_lo


@pytest.mark.parametrize(
    "value,p,e,a,expected",
    [
        (Fraction(-5, 4), 3, 2, 1, 1),
        (Fraction(-3), 5, 1, 2, 22),
        (Fraction(0), 5, 1, 3, 0),
    ],
)
def test_expn_truncation(value, p, e, a, expected):
    assert PAdicRational(value, p).expn_truncation(e, a) == expected


def test_expn_truncation_rejects_non_integral():
    # (5 - 1)/3 is not an integer.
    with pytest.raises(ValueError):
        PAdicRational(Fraction(1, 3), 5).expn_truncation(1, 2)


def test_expn_truncation_rejects_small_a():
    # alpha = -17 needs p^(ae) >= 17.
    alpha = PAdicRational(Fraction(-17), 3)
    with pytest.raises(ValueError):
        alpha.expn_truncation(1, 2)  # 9 < 17
    assert alpha.expn_truncation(1, 3) == 27 - 17


@pytest.mark.parametrize(
    "value,p,i,expected",
    [
        (Fraction(-1), 7, 0, 6),
        (Fraction(-1), 7, 5, 6),
        (Fraction(-5, 4), 3, 0, 1),
        (Fraction(-5, 4), 3, 1, 0),
        (Fraction(7), 7, 0, 0),
        (Fraction(7), 7, 1, 1),
    ],
)
def test_digit(value, p, i, expected):
    assert PAdicRational(value, p).digit(i) == expected


def test_purely_periodic_range():
    # alpha in [-1, 0] with (1 - p^e) alpha integral: truncations follow (1 - p^(ae)) alpha.
    p, e = 3, 2
    for num in range(-(p**e - 1), 1):
        alpha = PAdicRational(Fraction(num, p**e - 1), p)
        for a in range(1, 4):
            assert alpha.truncation(e * a) == (1 - p ** (e * a)) * alpha.value


def test_not_p_integral_rejected():
    with pytest.raises(ValueError):
        PAdicRational(Fraction(1, 5), 5)


def test_non_prime_rejected():
    with pytest.raises(ValueError):
        PAdicRational(Fraction(1), 6)


@pytest.mark.parametrize(
    "value,p,e,expected",
    [
        (Fraction(1), 2, 3, Fraction(7, 8)),
        (Fraction(1, 2), 3, 1, Fraction(1, 3)),
        (Fraction(1, 2), 3, 2, Fraction(4, 9)),
    ],
)
def test_base_truncation(value, p, e, expected):
    assert BasePFraction(value, p).truncation(e) == expected


def test_base_truncation_brackets_value():
    lam = BasePFraction(Fraction(3, 7), 5)
    for e in range(1, 6):
        t = lam.truncation(e)
        assert t < lam.value <= t + Fraction(1, 5**e)


def test_base_digits_never_terminate():
    lam = BasePFraction(Fraction(1, 2), 3)
    digits = [lam.digit(e) for e in range(1, 8)]
    assert digits == [1, 1, 1, 1, 1, 1, 1]  # 1/2 = .111... base 3


def test_base_fraction_domain():
    with pytest.raises(ValueError):
        BasePFraction(Fraction(0), 3)
    with pytest.raises(ValueError):
        BasePFraction(Fraction(3, 2), 3)


@pytest.mark.parametrize(
    "text,expected",
    [("3/4", Fraction(3, 4)), ("-5", Fraction(-5)), (" 7/1 ", Fraction(7)),
     ("0", Fraction(0)), ("3/-4", Fraction(-3, 4)), (" 3 / 2 ", Fraction(3, 2)),
     ("007/14", Fraction(1, 2))],
)
def test_parse_rational(text, expected):
    assert parse_rational(text) == expected


# int() reads '+3' and '\u0663' as 3 and '1_0' as 10; parse_rational refuses them.
@pytest.mark.parametrize(
    "text",
    ["+3/2", "1_0/7", "\u0663/2", "3/+2", "3/\u0662", "\u00b2", "1/2/3", "3/", "/2", "",
     "1/0", "- 3", "--3", "3.5", "0x10", "1e3"],
)
def test_parse_rational_refuses_malformed_text(text):
    with pytest.raises(ValueError, match="cannot parse rational"):
        parse_rational(text)


@pytest.mark.parametrize("text,expected", [("0", 0), ("-7", -7), (" 12 ", 12), ("-0", 0)])
def test_parse_integer_reads_ascii_digits(text, expected):
    assert parse_integer(text) == expected


@pytest.mark.parametrize("text", ["", "-", "+3", "1_0", "\u0663", "3 4", "--3", "3-"])
def test_parse_integer_refuses_anything_else(text):
    with pytest.raises(ValueError, match="digits 0-9"):
        parse_integer(text)


def test_format_rational_roundtrip():
    for value in (Fraction(-3, 2), Fraction(4), Fraction(0)):
        assert parse_rational(format_rational(value)) == value


@pytest.mark.parametrize(
    "p,c_max,b_max,lo,hi",
    [
        (2, 0, 3, Fraction(-2), Fraction(1)),
        (3, 2, 2, Fraction(1, 4), Fraction(7, 5)),
        (5, 1, 1, Fraction(-3, 7), Fraction(-1, 9)),
        (5, 2, 2, Fraction(2, 3), Fraction(2, 3)),
        (7, 1, 2, Fraction(1), Fraction(1, 2)),
    ],
)
def test_rational_grid_matches_brute_force(p, c_max, b_max, lo, hi):
    denominators = grid_denominators(p, c_max, b_max)
    assert denominators == sorted(
        {p**c * (p**b - 1) for c in range(c_max + 1) for b in range(1, b_max + 1)}
    )
    # Scan every numerator over a range that covers [lo, hi] at each denominator.
    brute = {
        Fraction(k, d)
        for d in denominators
        for k in range(-3 * d, 3 * d + 1)
        if lo <= Fraction(k, d) <= hi
    }
    assert rational_grid(lo, hi, denominators) == sorted(brute)


def test_integer_grid_of_overlapping_ranges_lists_each_numerator_once():
    rng = random.Random(5)
    for _ in range(300):
        p, c_max, b_max = rng.choice((2, 3, 5)), rng.randrange(3), rng.randrange(1, 3)
        denominators = grid_denominators(p, c_max, b_max)
        scale = math.lcm(*denominators)
        ranges = []
        for _ in range(rng.randrange(6)):
            lo = rng.randrange(-2 * scale, 2 * scale)
            ranges.append((lo, lo + rng.randrange(-3, scale)))
        brute = {
            n
            for lo, hi in ranges
            for n in range(lo, hi + 1)
            if any(n * d % scale == 0 for d in denominators)
        }
        assert integer_grid(ranges, denominators, scale) == sorted(brute)
