"""Tests for polynomial arithmetic, Groebner bases and ideal operations."""

import itertools
import random

import pytest

from bsroots import Ideal, ParseError, PolyRing, cli
from bsroots.polyring import (
    Polynomial,
    _reduce_full,
    linear_membership,
    minimal_monomials,
)

from propchecks import (
    check_minimal_monomial_basis,
    in_ideal_by_row_reduction,
    random_generators,
    random_monomial_ideal,
    random_polynomial,
)


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
    assert R2.parse("2x y") == R2.parse("2*x*y") == R2.parse("x*2*y")
    assert R2.parse("-x + - y") == R2.parse("4*x + 4*y")
    with pytest.raises(ParseError):
        R2.parse("x + w")
    with pytest.raises(ParseError):
        R2.parse("x ^")


@pytest.mark.parametrize("text", ["x**2 + y**3", "*x", "x*", "x*-y", "x * * y"])
def test_parse_refuses_a_star_between_fewer_than_two_factors(R2, text):
    with pytest.raises(ParseError, match="between two factors"):
        R2.parse(text)


@pytest.mark.parametrize("text", ["x^1 0", "x^2 1", "2 3 x", "x 2 3", "x^2 + 1 0"])
def test_parse_refuses_a_space_inside_a_number(R2, text):
    # Read as a product, "x^1 0" would be the zero polynomial and "x^2 1" would be x^2.
    with pytest.raises(ParseError, match="write '\\*' between the numbers"):
        R2.parse(text)


def test_parse_ideal_terms_leave_exponents_unpacked(R2):
    big = R2.max_exponent + 1
    assert R2.parse_ideal_terms(f"x^{big}*y - 5*y^2, 6") == [{(big, 1): 1}, {(0, 0): 1}]
    with pytest.raises(ValueError, match="outside the packed field"):
        R2.parse_ideal(f"x^{big}")


@pytest.mark.parametrize("text", ["x^\u00b2", "\u00b2 x", "x^\u0663"])
def test_parse_takes_ascii_digits_only(R2, text):
    with pytest.raises(ParseError):
        R2.parse(text)


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


def _divides(m1, m2):
    return all(a <= b for a, b in zip(m1, m2))


def _s_polynomial(f, g):
    # From exponent tuples, so that the packed lcm is not checked against itself.
    lcm = tuple(map(max, f.leading_monomial(), g.leading_monomial()))

    def cofactor(h):
        return f.ring.pack([a - b for a, b in zip(lcm, h.leading_monomial())])

    return f.term_multiple(cofactor(f), 1) - g.term_multiple(cofactor(g), 1)


def _check_reduced_groebner_basis(ring, gens):
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
            assert _reduce_full(_s_polynomial(basis[i], basis[j]), basis).is_zero(), gens
    assert all(_reduce_full(g, basis).is_zero() for g in gens), gens
    # Of the input ideal: every member lies in it by row reduction.
    assert all(in_ideal_by_row_reduction(b, gens) for b in basis), gens


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("nvars", [2, 3])
def test_groebner_against_row_reduction_oracle(p, nvars):
    rng = random.Random(100 * p + nvars)
    ring = PolyRing(p, ("x", "y", "z")[:nvars])
    for _ in range(12):
        _check_reduced_groebner_basis(ring, random_generators(rng, ring, 2, 4))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_groebner_of_three_to_six_generators_against_row_reduction_oracle(p):
    # More generators make more pairs per new basis element, so the
    # Gebauer-Moller update prunes old pairs and retires active elements.
    rng = random.Random(1000 + p)
    ring = PolyRing(p, ("x", "y", "z"))
    for count in (3, 4, 5, 6) * 3:
        _check_reduced_groebner_basis(ring, random_generators(rng, ring, count, 3))


@pytest.mark.parametrize("nvars", [2, 3])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_lead_only_reduction_against_full_reduction(p, nvars):
    rng = random.Random(10 * p + nvars)
    ring = PolyRing(p, ("x", "y", "z")[:nvars])
    zeros = 0
    for _ in range(30):
        gens = random_generators(rng, ring, rng.randint(2, 3), 3)
        for basis in (gens, Ideal(ring, gens).groebner()):
            f = random_polynomial(rng, ring, max_degree=5, max_terms=4)
            if rng.random() < 0.5:
                # A planted member, so that both routes often reach zero.
                for b in basis:
                    f = f + b * random_polynomial(rng, ring, max_degree=2)
                f = f - random_polynomial(rng, ring, max_degree=1) * basis[0]
            lead_only = _reduce_full(f, basis, lead_only=True)
            full = _reduce_full(f, basis)
            assert lead_only.is_zero() == full.is_zero(), (f, basis)
            if lead_only.is_zero():
                zeros += 1
            else:
                lead = lead_only.leading_monomial()
                assert lead == full.leading_monomial(), (f, basis)
                assert not any(_divides(b.leading_monomial(), lead) for b in basis)
            # Reduction stays below deg f, so the degree-f row span is complete.
            cap = max(f.total_degree(), 0)
            assert linear_membership(lead_only - f, basis, degree_cap=cap), (f, basis)
    assert zeros >= 5


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


def test_power_keeps_the_powers_built_on_the_way(R2, monkeypatch):
    a = R2.parse_ideal("x^2 + y^3, x*y")
    fifth = a.power(5)
    products = []
    original = Ideal.product

    def counting(self, other):
        products.append(other)
        return original(self, other)

    monkeypatch.setattr(Ideal, "product", counting)
    third = a.power(3)
    assert products == []
    monkeypatch.undo()
    assert third == a.power(1).product(a.power(2))
    assert fifth == third.product(a.power(2))
    zero = Ideal(R2, ())
    assert zero.power(0).is_unit()
    assert zero.power(2).is_zero()


def test_power_of_general_ideal_matches_repeated_product(R2):
    a = R2.parse_ideal("x^2 - y, x*y")
    by_product = a
    for _ in range(2):
        by_product = by_product.product(a)
    assert a.power(3) == by_product


def test_power_generators_stay_short():
    # Each power is built from the reduced basis of the one before; raw
    # generator lists interreduced by lead terms about tripled per power here
    # (3,289 generators at a^8, a^13 out of reach).
    a = PolyRing(3, ("x", "y", "z")).parse_ideal("x^2+y^3, y*z, x*z^2")
    assert len(a.power(13).generators) <= 160


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


# -- packed monomials against exponent tuples --------------------------------------


def _old_degrevlex_key(m):
    # The tuple sort key the packed order replaced, kept here as the oracle.
    return (sum(m), tuple(-e for e in reversed(m)))


def _random_exponents(rng, ring, top):
    return tuple(rng.randint(0, top) for _ in range(ring.nvars))


@pytest.fixture(params=[1, 2, 3, 4], ids=lambda n: f"{n}vars")
def ring_and_rng(request):
    n = request.param
    return PolyRing(5, ("x", "y", "z", "w")[:n]), random.Random(700 + n)


def test_pack_round_trips_and_orders_like_the_tuple_key(ring_and_rng):
    ring, rng = ring_and_rng
    top = ring.max_exponent
    monos = [_random_exponents(rng, ring, rng.choice((3, 40, top))) for _ in range(300)]
    monos += [(0,) * ring.nvars, (top,) * ring.nvars]
    for m in monos:
        assert ring.unpack(ring.pack(m)) == m
        assert ring.degree(ring.pack(m)) == sum(m)
    assert sorted(monos, key=ring.pack) == sorted(monos, key=_old_degrevlex_key)
    for a, b in zip(monos, monos[1:]):
        assert (ring.pack(a) < ring.pack(b)) == (_old_degrevlex_key(a) < _old_degrevlex_key(b))


def test_guard_mask_divisibility_products_quotients_and_lcms(ring_and_rng):
    ring, rng = ring_and_rng
    zero, guards = ring.zero_monomial, ring.guards
    for _ in range(400):
        top = rng.choice((2, 9, ring.max_exponent // 2))
        a, b = _random_exponents(rng, ring, top), _random_exponents(rng, ring, top)
        if rng.random() < 0.3:  # plant a divisor
            b = tuple(x + y for x, y in zip(a, _random_exponents(rng, ring, 2)))
        pa, pb = ring.pack(a), ring.pack(b)
        divides = all(x <= y for x, y in zip(a, b))
        assert (not (pa - pb) & guards) is divides, (a, b)
        assert pa + pb - zero == ring.pack([x + y for x, y in zip(a, b)])
        if divides:
            assert pb - pa + zero == ring.pack([y - x for x, y in zip(a, b)])
        assert ring.lcm(pa, pb) == ring.pack(list(map(max, a, b)))
        assert ring.monomial(a) * ring.monomial(b) == ring.monomial([x + y for x, y in zip(a, b)])


def test_exponents_past_the_field_width_raise(ring_and_rng, capsys):
    ring, _ = ring_and_rng
    top = ring.max_exponent
    x = ring.variable(ring.variables[0])
    wide = ring.monomial((top,) + (0,) * (ring.nvars - 1))
    for bad in (top + 1, -1):
        with pytest.raises(ValueError, match="packed field"):
            ring.pack((bad,) + (0,) * (ring.nvars - 1))
    with pytest.raises(ValueError, match="past the packed field width"):
        wide * x
    with pytest.raises(ValueError, match="past the packed field width"):
        x.term_multiple(wide.packed[0][0], 1)
    with pytest.raises(ValueError, match="past the packed field width"):
        Ideal(ring, [wide]).product(Ideal(ring, [x]))
    e = 1
    while ring.p**e <= top:
        e += 1
    with pytest.raises(ValueError, match="packed field"):
        x.frobenius(e)
    if ring.nvars > 1:
        # Reducing x*y^top by x - y leaves y^(top + 1).
        y = ring.variable(ring.variables[1])
        f = x * ring.monomial((0, top) + (0,) * (ring.nvars - 2))
        with pytest.raises(ValueError, match="past the packed field width"):
            _reduce_full(f, [x - y])
    # The CLI refuses with exit code 1, not a traceback: once when the text is
    # packed, once when a power of the ideal is built.
    declaration = f"poly p=5 vars={','.join(ring.variables)}"
    for exponent in (top + 1, top):
        argv = ["jumps", "--ring", declaration, "--ideal", f"x^{exponent}", "--level", "1"]
        code = cli.run(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, ""), exponent
        assert "packed field" in captured.err


def test_minimal_monomials_filters_dominated(R2):
    monos = [(2, 0), (1, 1), (2, 1), (3, 0), (0, 2)]
    kept = minimal_monomials(R2, map(R2.pack, monos))
    assert set(map(R2.unpack, kept)) == {(2, 0), (1, 1), (0, 2)}


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


@pytest.mark.parametrize("p", (2, 3, 5))
def test_product_against_raw_products(p):
    # Mutual row-reduction membership against every raw generator product g*h,
    # with and without a cached reduced basis on either factor.
    rng = random.Random(300 + p)
    ring = PolyRing(p, ("x", "y"))
    used_basis = used_generators = 0
    for _ in range(4):
        a_gens = random_generators(rng, ring, 2, 3)
        # A redundant generator, so that a's reduced basis is often the shorter list.
        a_gens.append(a_gens[0] * ring.variable("y"))
        b_gens = random_generators(rng, ring, 2, 3)
        raw = [g * h for g in a_gens for h in b_gens]
        for cached_a, cached_b in itertools.product((False, True), repeat=2):
            a, b = Ideal(ring, a_gens), Ideal(ring, b_gens)
            if cached_a:
                a.groebner()
            if cached_b:
                b.groebner()
            product = a.product(b)
            # No reduced basis is computed for the product's sake.
            assert (a._gb is not None, b._gb is not None) == (cached_a, cached_b)
            # A known basis no longer than the generator list is multiplied instead.
            short = [
                f.groebner() if known and len(f.groebner()) <= len(f.generators) else f.generators
                for f, known in ((a, cached_a), (b, cached_b))
            ]
            used_basis += short[0] is not a.generators
            used_generators += short[0] is a.generators
            assert set(product.generators) <= {g * h for g in short[0] for h in short[1]}
            assert all(in_ideal_by_row_reduction(f, product.generators) for f in raw), raw
            assert all(in_ideal_by_row_reduction(f, raw) for f in product.generators), raw
    assert used_basis and used_generators


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
