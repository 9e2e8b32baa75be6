"""Tests for Cartier roots, differential closures and Cartier preimages."""

import random

import pytest

from bsroots import (
    Ideal,
    PolyRing,
    cartier_preimage,
    diff_closure,
    eth_root,
    eth_root_power,
    frobenius,
    jump_engine,
    parse_ring_declaration,
)
from bsroots.frobenius import poly_root_coefficients
from bsroots.polyring import linear_membership

from propchecks import (
    check_adjunction,
    check_diff_closure_monotone_in_level,
    check_frobenius_level_shift,
    check_minimal_monomial_basis,
    check_root_kills_diff_closure,
    check_root_of_frobenius_power,
    in_ideal_by_row_reduction,
    random_generators,
    random_ideal,
    random_monomial_ideal,
)


@pytest.fixture
def R1():
    return PolyRing(5, ("x",))


def _principal(ring, text):
    return Ideal(ring, (ring.parse(text),))


def test_eth_root_monomials(R1):
    p = R1.p
    assert eth_root(_principal(R1, f"x^{p}"), 1) == R1.parse_ideal("x")
    assert eth_root(_principal(R1, f"x^{p - 1}"), 1).is_unit()
    assert eth_root(_principal(R1, "x^12"), 1) == R1.parse_ideal("x^2")


def test_eth_root_example_9_4_membership():
    R = PolyRing(13, ("x", "y"))
    f = R.parse("x^4 + y^6")
    root7 = eth_root(Ideal(R, (f**7,)), 1)
    assert root7.contains(R.parse("y"))
    root8 = eth_root(Ideal(R, (f**8,)), 1)
    assert root8.contains(R.parse("x"))
    root9 = eth_root(Ideal(R, (f**9,)), 1)
    assert root9.contains(R.parse("y^2"))


def test_poly_root_coefficients_reassemble():
    # Summing coeff^(p^e) * basis monomial over the decomposition recovers f.
    R = PolyRing(3, ("x", "y"))
    f = R.parse("x^4*y + 2*x^2 + y^3 + 1")
    q = 3
    buckets = {}
    for mono, coeff in f.terms:
        mu = tuple(a % q for a in mono)
        buckets.setdefault(mu, {})[tuple(a // q for a in mono)] = coeff
    total = R.zero()
    for mu, terms in buckets.items():
        total = total + R.polynomial(terms).frobenius(1).term_multiple(R.pack(mu), 1)
    assert total == f
    assert len(poly_root_coefficients(f, 1)) == len(buckets)


@pytest.mark.parametrize("nvars", (2, 3))
@pytest.mark.parametrize("p", (2, 3, 5))
def test_monomial_eth_root_against_root_coefficients(nvars, p):
    # Floor-divided basis exponents against the root coefficients of every
    # generator as given.
    rng = random.Random(10 * p + nvars)
    ring = PolyRing(p, ("x", "y", "z")[:nvars])
    for _ in range(6):
        a = random_monomial_ideal(rng, ring, max_exponent=3 * p)
        for e in (1, 2):
            root = eth_root(a, e)
            check_minimal_monomial_basis(root)
            coefficients = [h for g in a.generators for h in poly_root_coefficients(g, e)]
            assert all(linear_membership(f, root.generators) for f in coefficients), (a, e)
            assert all(linear_membership(f, coefficients) for f in root.generators), (a, e)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_eth_root_against_root_coefficients(p):
    # The root of a non-monomial ideal against the ideal of the root
    # coefficients of every generator as given.
    rng = random.Random(400 + p)
    ring = PolyRing(p, ("x", "y"))
    for _ in range(4):
        gens = random_generators(rng, ring, 2, 2 * p + 1)
        a = Ideal(ring, gens)
        for e in (1, 2):
            root = eth_root(a, e)
            coefficients = [h for g in gens for h in poly_root_coefficients(g, e)]
            assert all(in_ideal_by_row_reduction(f, root.generators) for f in coefficients)
            assert all(in_ideal_by_row_reduction(f, coefficients) for f in root.generators)


def test_diff_closure_examples(R1):
    p = R1.p
    assert diff_closure(_principal(R1, "x"), 1).is_unit()
    assert diff_closure(_principal(R1, f"x^{2 * p}"), 1) == R1.parse_ideal(f"x^{2 * p}")
    assert diff_closure(_principal(R1, f"x^{p + 1}"), 1) == R1.parse_ideal(f"x^{p}")


def test_cartier_preimage_is_frobenius_power():
    R = PolyRing(2, ("x", "y"))
    b = R.parse_ideal("x, y")
    image = cartier_preimage(b, 1)
    assert image == R.parse_ideal("x^2, y^2")
    # Adjunction check on a spanning set: f in I_e(b) iff C^e*f inside b.
    for text in ("x^2", "y^2", "x^2 + y^2", "x*y", "x", "x^3 + y^2"):
        f = R.parse(text)
        assert image.contains(f) == b.contains_ideal(eth_root(Ideal(R, (f,)), 1))
    assert cartier_preimage(R.parse_ideal("1"), 2).is_unit()
    assert cartier_preimage(Ideal(R, ()), 2).is_zero()


def test_eth_root_power_matches_direct():
    R = PolyRing(5, ("x", "y"))
    a = R.parse_ideal("x^2, x*y, y^2")
    for n in (0, 1, 7, 26, 60):
        for e in (1, 2):
            assert eth_root_power(a, n, e) == eth_root(a.power(n), e), (n, e)
    f = Ideal(R, (R.parse("x^2 + y^3"),))
    for n in (4, 11, 30):
        assert eth_root_power(f, n, 2) == eth_root(f.power(n), 2), n


def test_eth_root_power_matches_direct_three_variables():
    R = PolyRing(5, ("x", "y", "z"))
    a = R.parse_ideal("x^2*y*z, x*y^2*z, x*y*z^2")
    # Powers past the pigeonhole bound, where peeling factors through a^[p].
    for n in (60, 64, 65, 70):
        assert eth_root_power(a, n, 2) == eth_root(a.power(n), 2), n


@pytest.mark.parametrize(
    "ring,ideal,e_max,n_max",
    [
        # Full windows [0, r*p^e] at levels 1-2, the bottom of the level-3 one.
        ("poly p=5 vars=x,y", "x^2+y^3, x*y", 3, 50),
        ("poly p=5 vars=x,y,z", "x^2*y*z, x*y^2*z, x*y*z^2", 2, None),
        ("poly p=13 vars=x,y", "x^4+y^6", 1, None),
        ("poly p=3 vars=x,y,z", "x^2+y^3, y*z, x*z^2", 2, 13),
    ],
)
def test_peel_memo_in_scrambled_order(ring, ideal, e_max, n_max):
    # One ideal answers every (n, e), n descending and the levels in the order
    # 1, 3, 2 at each n, so its peel memo is filled by one level and read by
    # the others.  The direct route runs on a fresh ideal, powers ascending so
    # that each power's reduced basis is known when the next one is built.
    pres = parse_ring_declaration(ring)
    shared = pres.parse_ideal(ideal)
    fresh = pres.parse_ideal(ideal)
    p, r = shared.ring.p, shared.declared_r
    keys = [
        (n, e)
        for n in range(r * p**e_max + 1)
        for e in range(1, e_max + 1)
        if n <= r * p**e and (n_max is None or n <= n_max)
    ]
    expected = {(n, e): eth_root(fresh.power(n), e) for n, e in keys}
    for n, e in sorted(keys, key=lambda k: (-k[0], k[1] % 2, k[1])):
        assert eth_root_power(shared, n, e) == expected[n, e], (n, e)


@pytest.mark.parametrize(
    "ring,ideal,most",
    [
        ("poly p=3 vars=x,y,z", "x^2+y^3, y*z, x*z^2", 60),  # 246 without the memo
        ("poly p=5 vars=x,y,z", "x^2*y*z, x*y^2*z, x*y*z^2", 100),  # 1,128 without it
    ],
)
def test_peel_memo_bounds_cartier_root_calls(monkeypatch, ring, ideal, most):
    calls = []

    def counted(a, e):
        calls.append(e)
        return eth_root(a, e)

    monkeypatch.setattr(frobenius, "eth_root", counted)
    pres = parse_ring_declaration(ring)
    jump_engine(pres, pres.parse_ideal(ideal)).jump_set(3)
    assert 0 < len(calls) <= most


@pytest.mark.parametrize(
    "ring,ideal,levels,powers",
    [
        ("poly p=5 vars=x,y", "x^4 + x^2*y^2 + x*y^4", (1, 2), None),
        ("veronese p=5 vars=x,y degree=2", "x^2, x*y, y^2", (2,), None),
        ("poly p=5 vars=x,y,z", "x^2*y*z, x*y^2*z, x*y*z^2", (2,), (60, 64, 65, 70)),
        ("poly p=3 vars=x,y,z", "x^2+y^3, y*z, x*z^2", (1,), None),
        # The whole level-2 window, n <= 18, is too slow on the direct route.
        ("poly p=3 vars=x,y,z", "x^2+y^3, y*z, x*z^2", (2,), range(14)),
    ],
)
def test_engine_labels_match_direct_route(ring, ideal, levels, powers):
    # The engine peels Frobenius levels; the direct route roots a^n itself.
    pres = parse_ring_declaration(ring)
    engine = jump_engine(pres, pres.parse_ideal(ideal))
    for e in levels:
        for n in powers or range(engine.r * engine.p**e + 1):
            direct = eth_root(engine.ideal.power(n), e).canonical_label()
            assert engine.d_label(n, e) == direct, (n, e)


def test_eth_root_composes_across_levels():
    R = PolyRing(3, ("x", "y"))
    a = R.parse_ideal("x^2*y, y^4, x^5")
    assert eth_root(eth_root(a, 1), 1) == eth_root(a, 2)


def test_root_respects_generating_set_choice():
    # The root ideal depends only on the ideal, not the generators handed in.
    R = PolyRing(3, ("x", "y"))
    a = R.parse_ideal("x^3 + y^3, y^3")
    b = R.parse_ideal("x^3, y^3")
    assert a == b
    assert eth_root(a, 1) == eth_root(b, 1)


def test_randomized_adjunction_and_identities():
    rng = random.Random(7)
    for _ in range(30):
        p = rng.choice((2, 3, 5))
        ring = PolyRing(p, ("x", "y"))
        a, b = random_ideal(rng, ring), random_ideal(rng, ring)
        e = rng.randint(1, 2)
        check_adjunction(a, b, e)
        check_root_of_frobenius_power(b, e)
        check_root_kills_diff_closure(a, e)
        check_diff_closure_monotone_in_level(a, 1)
        check_frobenius_level_shift(a, b, 1)


def test_oracle_membership_on_root_ideals():
    # Cross-check one Cartier image against the row-reduction route.
    R = PolyRing(13, ("x", "y"))
    f = R.parse("x^4 + y^6")
    root = eth_root(Ideal(R, (f**7,)), 1)
    y = R.parse("y")
    assert root.contains(y) == linear_membership(y, root.generators, degree_cap=6)
