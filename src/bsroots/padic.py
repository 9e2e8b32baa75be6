"""Exact arithmetic in Z_(p): p-adic digits, truncations, and base-p expansions.

It also holds the one candidate grid that roots, thresholds and F-jumping
numbers search: every k/d in an interval with d dividing some p^c (p^b - 1);
at certification level E, roots and thresholds take b <= ceil(E/2)
(`grid_periods`).  The grid is kept in integers: each point is a numerator n
over L, the lcm of its denominators, and `integer_grid` lists the n of a set
of ranges, sorted.  `rational_grid` maps them to Fractions; the
threshold search stays on the integers until its candidates are sorted.

Elements are rationals with denominator coprime to p, kept as exact
`fractions.Fraction` values.  Truncations are computed with modular inverses,
so they are defined for every element of Z_(p); the two-case periodic formula
is kept as a separate cross-check operation restricted to eventually periodic
inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def is_prime(n: int) -> bool:
    """Deterministic primality test for word-sized n (trial division)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_prime(p: int) -> int:
    # p must fit a machine word; powers p^e may exceed it and stay exact ints.
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"p must be prime, got {p!r}")
    if p >= 2**31:
        raise ValueError(f"p must be < 2^31, got {p}")
    return p


def check_level(e: int, least: int = 0, what: str = "level") -> int:
    """Return e, or raise ValueError unless it is an integer >= least.

    Levels start at 0; a level count (certify e = 1..E, a chain up to e_max)
    passes least=1, since no level at all certifies nothing.
    """
    if not isinstance(e, int) or e < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {e!r}")
    return e


def check_interval(interval) -> tuple[Fraction, Fraction]:
    """The interval's ends (lo, hi) as Fractions, or raise ValueError when hi < lo."""
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    if hi < lo:
        raise ValueError(f"interval must satisfy lo <= hi, got {lo}:{hi}")
    return lo, hi


@dataclass(frozen=True)
class PAdicRational:
    """A rational number lying in Z_(p): denominator coprime to p."""

    value: Fraction
    p: int

    def __post_init__(self):
        check_prime(self.p)
        value = Fraction(self.value)
        if value.denominator % self.p == 0:
            raise ValueError(f"{value} is not p-integral for p={self.p}")
        object.__setattr__(self, "value", value)

    @property
    def numerator(self) -> int:
        return self.value.numerator

    @property
    def denominator(self) -> int:
        return self.value.denominator

    def truncation(self, e: int) -> int:
        """The unique n in [0, p^e) congruent to this element mod p^e."""
        if check_level(e) == 0:
            return 0
        q = self.p**e
        inv = pow(self.denominator, -1, q)
        return (self.numerator * inv) % q

    def digit(self, i: int) -> int:
        """The i-th p-adic digit, an integer in [0, p-1]."""
        if i < 0:
            raise ValueError("digit index must be >= 0")
        return (self.truncation(i + 1) - self.truncation(i)) // self.p**i

    def digits(self, count: int) -> list[int]:
        return [self.digit(i) for i in range(count)]

    def expn_truncation(self, e: int, a: int) -> int:
        """Truncation mod p^(e*a) via the closed periodic-expansion formula.

        A test oracle for `truncation`.  Requires (p^e - 1) * alpha to be an
        integer, and `a` large enough that the formula output lands in
        [0, p^(e*a)); validity is checked on the computed value (this is
        equivalent to the two inequalities that make the formula correct).
        Kept independent of `truncation` so the two can cross-check each other.
        """
        if e <= 0 or a <= 0:
            raise ValueError("e and a must be positive")
        alpha = self.value
        if ((self.p**e - 1) * alpha).denominator != 1:
            raise ValueError(f"(p^e - 1)*{alpha} is not an integer at e={e}")
        q = self.p ** (a * e)
        if alpha.denominator == 1 and alpha < 0:
            n = q + alpha.numerator
        else:
            ceil_alpha = math.ceil(alpha)
            # (p^e - 1) | (p^(ae) - 1), so this is an exact integer.
            n = int((1 - q) * (alpha - ceil_alpha) + ceil_alpha)
        if not 0 <= n < q:
            raise ValueError(f"a={a} too small for the expansion formula at alpha={alpha}")
        return n

    def __str__(self) -> str:
        return format_rational(self.value)


@dataclass(frozen=True)
class BasePFraction:
    """A real number in (0, 1] together with its non-terminating base-p expansion."""

    value: Fraction
    p: int

    def __post_init__(self):
        check_prime(self.p)
        value = Fraction(self.value)
        if not 0 < value <= 1:
            raise ValueError(f"value must lie in (0, 1], got {value}")
        object.__setattr__(self, "value", value)

    def truncation(self, e: int) -> Fraction:
        """The e-th base-p truncation (ceil(p^e x) - 1) / p^e; strictly below x."""
        if e < 1:
            raise ValueError("level e must be >= 1")
        q = self.p**e
        return Fraction(math.ceil(self.value * q) - 1, q)

    def digit(self, e: int) -> int:
        """The e-th digit of the non-terminating base-p expansion (e >= 1)."""
        if e < 1:
            raise ValueError("digit index must be >= 1")
        prev = self.truncation(e - 1) if e > 1 else Fraction(0)
        return int((self.truncation(e) - prev) * self.p**e)


def parse_integer(text: str) -> int:
    """Digits 0-9 with an optional leading '-'; int() would also take '+3', '1_0', '\u0663'."""
    digits = text.strip().removeprefix("-")
    if not digits or digits.strip("0123456789"):
        raise ValueError(f"expected an integer in the digits 0-9, got {text!r}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """Parse "num/den" (den omitted when 1), each part read by `parse_integer`, into a Fraction."""
    num, slash, den = text.partition("/")
    try:
        return Fraction(parse_integer(num), parse_integer(den) if slash else 1)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational {text.strip()!r}") from exc


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def grid_periods(levels: int) -> int:
    """The largest b of the (p^b - 1) part of a root or threshold grid at level E: ceil(E/2).

    The E digits a certificate checks then show a candidate's period about
    twice; a larger grid comes with a higher level.
    """
    return (check_level(levels, least=1, what="levels") + 1) // 2


def grid_denominators(p: int, c_max: int, b_max: int) -> list[int]:
    """The denominators p^c (p^b - 1) with 0 <= c <= c_max and 1 <= b <= b_max, sorted.

    Every candidate grid is built from these, so an empty range is refused here.
    """
    check_level(c_max, what="c_max")
    check_level(b_max, least=1, what="b_max")
    return sorted({p**c * (p**b - 1) for c in range(c_max + 1) for b in range(1, b_max + 1)})


def integer_grid(ranges, denominators, scale: int) -> list[int]:
    """The grid's numerators over `scale` that lie in some closed range (lo, hi), sorted.

    `scale` is a common multiple of the denominators, their lcm L in every
    caller, so k/d is the numerator k*(scale/d): the numerators are the
    multiples of scale/d, and n + scale is on the grid with n.  The ranges
    are walked by their lower ends, each from just past the part already
    covered, so overlapping ranges yield each numerator once.
    """
    steps = {scale // d for d in denominators}
    numerators: list[int] = []
    covered = None  # the upper end of the ranges walked so far
    for lo, hi in sorted(ranges):
        if covered is not None:
            lo = max(lo, covered + 1)
        if lo <= hi:
            numerators += sorted(
                {n for step in steps for n in range(-(-lo // step) * step, hi + 1, step)}
            )
            covered = hi
    return numerators


def rational_grid(lo: Fraction, hi: Fraction, denominators) -> list[Fraction]:
    """Every k/d in the closed interval [lo, hi] with d among the denominators, sorted.

    The points are those of `integer_grid`, each made a Fraction once.
    """
    scale = math.lcm(*denominators)
    span = (math.ceil(lo * scale), math.floor(hi * scale))
    return [Fraction(n, scale) for n in integer_grid([span], denominators, scale)]
