"""Tests for polynomial arithmetic, Groebner bases and ideal operations."""

import random

import pytest

from bsroots import Ideal, ParseError, PolyRing
from bsroots.polyring import (
    Polynomial,
    _divides,
    _mono_lcm,
    _mono_quot,
    _reduce_full,
    linear_membership,
    minimal_monomials,
)

from propchecks import check_minimal_monomial_basis, random_monomial_ideal, random_polynomial


@pytest.fixture
def R2():
    return PolyRing(5, ("x", "y"))


def test_parse_and_canonical_text(R2):
    f = R2.parse("x^2*y*z" if False else "x^2*y + 3*x")
    assert str(f) == "x^2*y + 3*x"
    assert R2.parse("y + x - y") == R2.parse("x")
    assert R2.parse("2*x + 3*x") == R2.parse("5*x")  # collapses to 0 mod 5
    assert R2.parse("2*x + 3*x").is_zero()


def test_parse_implicit_product_and_signs(R2):
    assert R2.parse("x y") == R2.parse("x*y")
    assert R2.parse("-x + - y") == R2.parse("4*x + 4*y")
    with pytest.raises(ParseError):
        R2.parse("x + w")
    with pytest.raises(ParseError):
        R2.parse("x ^")


def test_degrevlex_order(R2):
    # Same degree: x^2 > x*y > y^2; degree dominates everything else.
    f = R2.parse("y^2 + x*y + x^2 + y^3")
    assert [m for m, _ in f.terms] == [(0, 3), (2, 0), (1, 1), (0, 2)]


def test_arithmetic_mod_p(R2):
    f, g = R2.parse("x + 2*y"), R2.parse("3*x + y")
    assert f + g == R2.parse("4*x + 3*y")
    assert f - g == R2.parse("3*x + y")
    assert f * g == R2.parse("3*x^2 + 2*x*y + 2*y^2")
    assert (f**2) == f * f


def test_frobenius_is_pth_power(R2):
    f = R2.parse("x + y")
    assert f.frobenius(1) == f**5
    assert f.frobenius(2) == f**25


@pytest.mark.parametrize(
    "gens,expected",
    [
        ("x, y", ("x", "y")),
        ("x^2 - y, x", ("x", "y")),
        ("1", ("1",)),
        ("x^2 + y, y", ("x^2", "y")),
    ],
)
def test_reduced_groebner(R2, gens, expected):
    basis = R2.parse_ideal(gens).groebner()
    assert tuple(str(b) for b in basis) == tuple(
        str(R2.parse(t)) for t in expected
    )


def _s_polynomial(f, g):
    lcm = _mono_lcm(f.leading_monomial(), g.leading_monomial())
    return f.term_multiple(_mono_quot(lcm, f.leading_monomial()), 1) - g.term_multiple(
        _mono_quot(lcm, g.leading_monomial()), 1
    )


def _in_ideal_by_row_reduction(f, generators, max_cap=16):
    # RowSpan membership is complete once the cap covers some representation.
    return any(
        linear_membership(f, generators, degree_cap=cap)
        for cap in range(f.total_degree(), max_cap + 1)
    )


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("nvars", [2, 3])
def test_groebner_against_row_reduction_oracle(p, nvars):
    rng = random.Random(100 * p + nvars)
    ring = PolyRing(p, ("x", "y", "z")[:nvars])
    for _ in range(12):
        gens = []
        while len(gens) < 2 or all(g.is_monomial() for g in gens):
            g = random_polynomial(rng, ring, max_degree=4)
            if not g.is_zero():
                gens.append(g)
        basis = Ideal(ring, gens).groebner()
        leads = [b.leading_monomial() for b in basis]
        # Monic, reduced and sorted by descending leading monomial.
        assert all(b.leading_coefficient() == 1 for b in basis)
        for i, b in enumerate(basis):
            for j, lead in enumerate(leads):
                if i != j:
                    assert not any(_divides(lead, m) for m, _ in b.terms), (gens, b)
        keys = [ring.monomial_key(m) for m in leads]
        assert keys == sorted(keys, reverse=True)
        # A Groebner basis: every S-polynomial and every input reduces to 0.
        for i in range(len(basis)):
            for j in range(i):
                assert _reduce_full(_s_polynomial(basis[i], basis[j]), basis).is_zero()
        assert all(_reduce_full(g, basis).is_zero() for g in gens)
        # Of the input ideal: every member lies in it by row reduction.
        assert all(_in_ideal_by_row_reduction(b, gens) for b in basis), gens


def test_groebner_is_cached_and_unique(R2):
    a = R2.parse_ideal("x^2 - y, x")
    assert a.groebner() is a.groebner()
    b = R2.parse_ideal("x, x^2 - y")
    assert a.groebner() == b.groebner()


@pytest.mark.parametrize(
    "ideal,member,expected",
    [
        ("x^2, x*y", "x^3", True),
        ("x^2, x*y", "y^2", False),
        ("x^2 - y", "x^4 - y^2", True),
        ("x^2 - y", "x^4 - y", False),
    ],
)
def test_contains(R2, ideal, member, expected):
    assert R2.parse_ideal(ideal).contains(R2.parse(member)) is expected


def test_ideal_equality(R2):
    assert R2.parse_ideal("x, y") == R2.parse_ideal("y, x")
    assert R2.parse_ideal("x") != R2.parse_ideal("x^2")
    assert R2.parse_ideal("x^2 + y, y") == R2.parse_ideal("x^2, y")


def test_frobenius_power(R2):
    R = PolyRing(2, ("x", "y"))
    assert Ideal(R, [R.parse("x"), R.parse("y")]).frobenius_power(2) == R.parse_ideal(
        "x^4, y^4"
    )
    R3 = PolyRing(3, ("x", "y"))
    assert Ideal(R3, [R3.parse("x + y")]).frobenius_power(1) == R3.parse_ideal(
        "x^3 + y^3"
    )
    assert R2.parse_ideal("1").frobenius_power(3).is_unit()


def test_ideal_power_basics(R2):
    a = R2.parse_ideal("x, y")
    assert a.power(0).is_unit()
    assert a.power(3) == R2.parse_ideal("x^3, x^2*y, x*y^2, y^3")
    assert a.power(3) == a.power(1).product(a.power(2))
    principal = R2.parse_ideal("x")
    assert principal.power(5) == R2.parse_ideal("x^5")


def test_power_of_general_ideal_matches_repeated_product(R2):
    a = R2.parse_ideal("x^2 - y, x*y")
    by_product = a
    for _ in range(2):
        by_product = by_product.product(a)
    assert a.power(3) == by_product


def test_power_additivity(R2):
    a = R2.parse_ideal("x^2, x*y, y^3")
    assert a.power(2).product(a.power(3)) == a.power(5)


def test_frobenius_power_inside_ordinary_power(R2):
    a = R2.parse_ideal("x, y^2")
    q = 5
    assert a.power(q).contains_ideal(a.frobenius_power(1))


def test_normal_form_is_linear(R2):
    a = R2.parse_ideal("x^2 - y, y^2")
    f, g = R2.parse("x^3 + y"), R2.parse("x*y + 4")
    assert a.normal_form(f + g) == a.normal_form(f) + a.normal_form(g)


def test_minimal_monomials_filters_dominated():
    monos = [(2, 0), (1, 1), (2, 1), (3, 0), (0, 2)]
    assert set(minimal_monomials(monos)) == {(2, 0), (1, 1), (0, 2)}


@pytest.mark.parametrize("nvars", (2, 3))
@pytest.mark.parametrize("p", (2, 3, 5))
def test_monomial_product_against_raw_products(monkeypatch, nvars, p):
    # Minkowski sum of exponents against every raw generator product g*h.
    rng = random.Random(100 * p + nvars)
    ring = PolyRing(p, ("x", "y", "z")[:nvars])
    for _ in range(6):
        a, b = random_monomial_ideal(rng, ring), random_monomial_ideal(rng, ring)
        with monkeypatch.context() as patch:
            patch.setattr(Polynomial, "__mul__", None)  # the kernel multiplies no polynomials
            product = a.product(b)
        check_minimal_monomial_basis(product)
        raw = [g * h for g in a.generators for h in b.generators]
        assert all(linear_membership(f, product.generators) for f in raw), (a, b)
        assert all(linear_membership(f, raw) for f in product.generators), (a, b)


def test_linear_membership_agrees_with_groebner(R2):
    cases = [
        ("x^2, x*y", "x^3"),
        ("x^2, x*y", "y^2"),
        ("x^2 - y", "x^4 - y^2"),
        ("x^2 - y", "x^2"),
        ("x + y", "x^2 - y^2"),
    ]
    for ideal_text, member_text in cases:
        a = R2.parse_ideal(ideal_text)
        f = R2.parse(member_text)
        assert linear_membership(f, a.generators) == a.contains(f)


@pytest.mark.parametrize(
    "ideal,f,expected",
    [
        ("x^30", "x", True),
        ("x^2*y, y^3", "x*y + y^2", True),
        ("x", "y", False),
        ("x^2*y, y^3", "x + y", False),
        ("x^2 + y^3, x*y", "x + y", True),
        ("x^2 + y^3", "x", False),
    ],
)
def test_radical_contains_is_exact(R2, ideal, f, expected):
    assert R2.parse_ideal(ideal).radical_contains(R2.parse(f)) is expected


def test_radical_contains_past_small_powers(R2):
    c = Ideal(R2, (R2.parse("x + y") ** 30,))
    assert c.radical_contains(R2.parse("x + y"))
    assert not c.radical_contains(R2.parse("x + 1"))


def test_radical_contains_with_a_variable_named_t():
    R = PolyRing(3, ("t", "u"))
    c = R.parse_ideal("t^2 + u^3")
    assert c.radical_contains(R.parse("t^2 + u^3"))
    assert not c.radical_contains(R.parse("t"))


def test_zero_and_unit_ideals(R2):
    zero = Ideal(R2, ())
    assert zero.is_zero()
    assert not zero.contains(R2.parse("x"))
    assert zero.contains(R2.zero())
    assert R2.parse_ideal("3").is_unit()


def test_declared_generator_count(R2):
    a = R2.parse_ideal("x, y, x + y")
    assert a.declared_r == 3  # declared count, not minimized
