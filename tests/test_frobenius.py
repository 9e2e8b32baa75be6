"""Tests for Cartier roots, differential closures and Cartier preimages."""

import collections
import itertools
import math
import random

import pytest

from bsroots import (
    Ideal,
    PolyRing,
    cartier_preimage,
    cli,
    diff_closure,
    eth_root,
    eth_root_power,
    frobenius,
    jump_engine,
    parse_ring_declaration,
    polyring,
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
    random_polynomial,
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


def _root_coefficients_by_tuples(f, e):
    """The oracle: divmod of each term's exponent tuple, the roots packed again."""
    ring = f.ring
    q = ring.p**e
    buckets = {}
    for mono, coeff in f.packed:
        split = [divmod(a, q) for a in ring.unpack(mono)]
        mu = tuple(v for _, v in split)
        buckets.setdefault(mu, {})[tuple(u for u, _ in split)] = coeff
    return [ring.polynomial(terms) for terms in buckets.values()]


def _wide_exponents(rng, ring, q):
    # Small exponents, ones near q, and ones anywhere up to the field width.
    top = ring.max_exponent
    choices = (lambda: rng.randint(0, 3 * q), lambda: rng.randint(0, top), lambda: top)
    return tuple(min(top, rng.choice(choices)()) for _ in range(ring.nvars))


def _levels_for(p, top):
    # e <= 3, and the least e with p^e above every exponent a field can hold.
    big = 1
    while p**big <= top:
        big += 1
    return (1, 2, 3, big)


@pytest.mark.parametrize("nvars", (1, 2, 3, 4))
@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_root_coefficients_split_packed_monomials_like_tuples(nvars, p):
    rng = random.Random(100 * p + nvars)
    ring = PolyRing(p, ("x", "y", "z", "w")[:nvars])
    for e in _levels_for(p, ring.max_exponent):
        q = p**e
        for _ in range(15):
            terms = {_wide_exponents(rng, ring, q): rng.randint(1, p - 1) for _ in range(12)}
            f = ring.polynomial(terms)
            got = poly_root_coefficients(f, e)
            assert got == _root_coefficients_by_tuples(f, e), (terms, e)
            for g in got:
                monos = [m for m, _ in g.packed]
                assert all(m1 > m2 for m1, m2 in zip(monos, monos[1:])), (terms, e)
                assert all(0 < c < p for _, c in g.packed), (terms, e)


@pytest.mark.parametrize("nvars", (1, 2, 3, 4))
@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_monomial_eth_root_splits_packed_monomials_like_tuples(nvars, p):
    rng = random.Random(200 * p + nvars)
    ring = PolyRing(p, ("x", "y", "z", "w")[:nvars])
    for e in _levels_for(p, ring.max_exponent):
        q = p**e
        for _ in range(10):
            exponents = [_wide_exponents(rng, ring, q) for _ in range(rng.randint(1, 6))]
            a = Ideal(ring, [ring.monomial(m).scale(rng.randint(1, p - 1)) for m in exponents])
            expected = Ideal(ring, [ring.monomial([x // q for x in m]) for m in exponents])
            assert eth_root(a, e).generators == expected.groebner(), (exponents, e)


@pytest.mark.parametrize(
    "ring,ideal",
    [
        ("poly p=3 vars=x,y,z", "x^2+y^3, y*z, x*z^2"),
        ("poly p=5 vars=x,y,z", "x^2*y*z, x*y^2*z, x*y*z^2"),
    ],
)
def test_peel_builds_no_exponent_tuples(monkeypatch, ring, ideal):
    # Every Cartier root on the peel path splits packed monomials in place,
    # so no exponent tuple is packed or unpacked over the level-2 window.
    pres = parse_ring_declaration(ring)
    fresh = pres.parse_ideal(ideal)
    window = range(fresh.declared_r * pres.p**2 + 1)
    expected = [eth_root_power(fresh, n, 2) for n in window]
    a = pres.parse_ideal(ideal)
    calls = []

    def counted(name, method):
        def wrapper(self, argument):
            calls.append(name)
            return method(self, argument)

        return wrapper

    monkeypatch.setattr(PolyRing, "pack", counted("pack", PolyRing.pack))
    monkeypatch.setattr(PolyRing, "unpack", counted("unpack", PolyRing.unpack))
    roots = [eth_root_power(a, n, 2) for n in window]
    assert calls == []
    a.ring.unpack(a.ring.zero_monomial)  # the counter itself is live
    assert calls == ["unpack"]
    assert [r.canonical_label() for r in roots] == [r.canonical_label() for r in expected]


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


def test_eth_root_makes_no_monic_copies(monkeypatch):
    # Root coefficients are deduped up to a scalar on keys built from their
    # packed terms, so no monic copy of any of them is made.  The root
    # coefficients here are 2x + 2y, 3y, 4x + 4y and x + y + z; 4x + 4y is
    # dropped as a duplicate, so three survivors are reduced.
    ring = PolyRing(5, ("x", "y", "z"))
    a = ring.parse_ideal("2*x^6 + 2*x*y^5 + 3*y^7, 4*x^6 + 4*x*y^5, x^5 + y^5 + z^5")
    calls = []

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(polyring.Polynomial, "monic", counted("monic", polyring.Polynomial.monic))
    monkeypatch.setattr(polyring, "_reduce_full", counted("reduce", polyring._reduce_full))
    root = eth_root(a, 1)
    assert calls == ["reduce"] * 3
    monkeypatch.undo()
    assert not root.is_monomial_ideal()
    assert root == Ideal(ring, [h for g in a.generators for h in poly_root_coefficients(g, 1)])


def test_eth_root_of_monomial_root_coefficients_runs_no_buchberger(monkeypatch):
    # x^6 + y^7 = x^5 * x + y^5 * y^2 over F_5: its root coefficients x and y
    # are monomials, so the root is built as a monomial ideal, basis set.
    def refuse(ring, generators):
        raise AssertionError("Buchberger ran")

    monkeypatch.setattr(polyring, "_buchberger", refuse)
    ring = PolyRing(5, ("x", "y"))
    root = eth_root(ring.parse_ideal("x^6 + y^7"), 1)
    assert root._gb is not None
    assert root == ring.parse_ideal("x, y")


def test_wide_powers_root_their_basis(monkeypatch):
    # Four short generators in three variables: a^n for n >= 2 carries its
    # reduced basis as its generators (15, 28 and 45 of them, against 16, 60
    # and 112 raw products), as every power does.  The peel roots no power:
    # its steps root the products g^alpha with every alpha_i < 3 times the
    # last root, 138 polynomials here, against 168 when each step rooted the
    # basis of a^m0.
    ring = PolyRing(3, ("x", "y", "z"))
    text = "x^2 + y*z, y^2 + x*z, x*y + z^2, x*y*z"
    a = ring.parse_ideal(text)
    for n in range(2, 5):
        assert a.power(n).generators == a.power(n).groebner(), n
    rooted = []

    def counted(f, e):
        rooted.append(f)
        return poly_root_coefficients(f, e)

    monkeypatch.setattr(frobenius, "poly_root_coefficients", counted)
    root = eth_root_power(ring.parse_ideal(text), 8, 2)
    monkeypatch.undo()
    assert len(rooted) <= 168
    assert root == eth_root(ring.parse_ideal(text).power(8), 2)


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


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11))
def test_eth_root_power_matches_direct_on_random_ideals(p):
    # Random ideals of binomials and monomials of degree <= 2, not all
    # monomials, with r <= nvars (a peel step roots raw generator products)
    # and r > nvars (it roots the reduced basis of a^m0), among them four
    # generators in three variables.  Past n = r(p-1) a step factors through
    # a^[p].  The direct route roots a^n on a second copy of the ideal, so no
    # cache is shared; it builds a basis of every power up to n, which takes
    # seconds past n = 24 on four generators.
    rng = random.Random(2100 + p)
    for nvars, r in ((2, 1), (2, 2), (3, 2), (3, 3), (2, 3), (3, 4)):
        ring = PolyRing(p, ("x", "y", "z")[:nvars])
        gens = [ring.one()]
        while any(g.is_constant() for g in gens) or all(g.is_monomial() for g in gens):
            gens = [random_polynomial(rng, ring, max_degree=2, max_terms=2) for _ in range(r)]
        shared, fresh = Ideal(ring, gens), Ideal(ring, gens)
        top = r * (p - 1)
        for e in (1, 2) if p <= 3 else (1,):
            powers = {0, 1, p - 1, p, top + 1, p ** (e - 1) * top + 1}
            for n in sorted(k for k in powers if k <= 24):
                assert eth_root_power(shared, n, e) == eth_root(fresh.power(n), e), (gens, n, e)


def _raw_products(gens, n, one):
    products = itertools.combinations_with_replacement(gens, n)
    return [math.prod(alpha, start=one) for alpha in products]


def _short_generators(rng, ring, r):
    """r nonconstant random generators, not all monomials, that stay r short generators."""
    while True:
        gens = random_generators(rng, ring, r, max_degree=3)[:r]
        nonconstant = all(g.total_degree() > 0 for g in gens)
        if nonconstant and not all(g.is_monomial() for g in gens):
            if len(Ideal(ring, gens).power(1).generators) == r:
                return gens


def _monomial_generators(rng, ring, r):
    """r distinct monomials of one degree, so none divides another."""
    d = max(2, r)
    degree_d = [m for m in itertools.product(range(d + 1), repeat=ring.nvars) if sum(m) == d]
    return [ring.monomial(m) for m in rng.sample(degree_d, r)]


# (p, nvars, r): r <= 6 generators on both sides of nvars, p**r small enough
# for the brute-force oracles.
_PEEL_CASES = [
    (2, 2, 1), (2, 2, 6), (2, 3, 3), (3, 2, 2), (3, 2, 4), (3, 3, 6),
    (5, 2, 2), (5, 2, 4), (5, 3, 3), (7, 2, 1), (7, 2, 3), (7, 3, 2),
]


def _minimal_exponents(exponents):
    """The exponent tuples that no other one divides, by pairwise comparison."""
    exponents = set(exponents)
    return {
        m
        for m in exponents
        if not any(d != m and all(a <= b for a, b in zip(d, m)) for d in exponents)
    }


@pytest.mark.parametrize("p,nvars,r", _PEEL_CASES)
def test_restricted_power_is_the_brute_force_multiset(p, nvars, r):
    # The peel's `restricted(0, k)`: every alpha in [0, p)^r with |alpha| = k,
    # each product once, over the short generators.  A monomial ideal keeps
    # its products packed: after the step at k they are the minimal exponent
    # sums alpha . (exponents of g), ascending, and build no polynomial product.
    rng = random.Random(2800 + 100 * p + 10 * nvars + r)
    ring = PolyRing(p, ("x", "y", "z")[:nvars])
    a = Ideal(ring, _short_generators(rng, ring, r))
    peel = frobenius._Peel(a)
    short = a.power(1).generators
    for k in range(r * (p - 1) + 2):
        expected = collections.Counter(
            math.prod((g**j for g, j in zip(short, alpha)), start=ring.one())
            for alpha in itertools.product(range(p), repeat=len(short))
            if sum(alpha) == k
        )
        assert collections.Counter(peel.restricted(0, k)) == expected, (a, k)
    monomial = Ideal(ring, _monomial_generators(rng, ring, r))
    peel = frobenius._Peel(monomial)
    exponents = [g.leading_monomial() for g in monomial.power(1).generators]
    for k in range(r * (p - 1) + 2):
        sums = (
            tuple(sum(j * m[v] for j, m in zip(alpha, exponents)) for v in range(nvars))
            for alpha in itertools.product(range(p), repeat=len(exponents))
            if sum(alpha) == k
        )
        expected = sorted(map(ring.pack, _minimal_exponents(sums)))
        peel.step(k, peel.start)
        assert peel.restricted(0, k) == expected, (monomial, k)


@pytest.mark.parametrize("p,nvars,r", _PEEL_CASES)
def test_peel_matches_the_root_of_raw_products(p, nvars, r):
    # C^1(a^n) by the peel against eth_root of the raw products of a's
    # generators, built without `power`, on a fresh ideal.  The powers cover
    # the first restricted-only steps (n < p), the first term a * C^1(a^(n-p))
    # (n >= p), the pigeonhole bound r(p - 1) and one step past it.
    rng = random.Random(2900 + 100 * p + 10 * nvars + r)
    ring = PolyRing(p, ("x", "y", "z")[:nvars])
    for _ in range(2):
        gens = _short_generators(rng, ring, r)
        a = Ideal(ring, gens)
        top = r * (p - 1)
        for n in sorted({0, 1, p - 1, p, p + 1, 2 * p, top, top + 1, top + p + 1}):
            if math.comb(n + r - 1, n) > 2000:
                continue
            direct = eth_root(Ideal(ring, _raw_products(gens, n, ring.one())), 1)
            assert eth_root_power(a, n, 1) == direct, (gens, n)


def _monomial_peel_ideals(rng, p):
    """Seeded monomial ideals in 1-4 variables and the edge cases of the packed peel."""
    names = ("x", "y", "z", "w")
    for nvars, r in ((1, 1), (2, 1), (2, 3), (3, 2), (3, 5), (4, 3), (4, 6)):
        ring = PolyRing(p, names[:nvars])
        yield ring, [str(g) for g in _monomial_generators(rng, ring, r)]
        drawn = random_monomial_ideal(rng, ring, max_exponent=3).generators
        yield ring, [str(g) for g in drawn if not g.is_constant()]
    ring = PolyRing(p, names[:3])
    # A repeated generator, one dividing another, a lone variable, the unit ideal.
    for text in ("x*y, x*y, y^3", "x, x^2*y, y^2*z", "z", "1, x^2"):
        yield ring, text.split(", ")


def _peel_states(ring, gens, count, rng):
    """count canonical states, drawn from the memo of one copy of the ideal on gens."""
    donor = Ideal(ring, gens)
    p = ring.p
    for n in range(0, 3 * p * p + 1, p - 1):
        eth_root_power(donor, n, 2)
    states = sorted(set(donor._peel.memo.values()), key=str)
    return rng.sample(states, min(count, len(states)))


@pytest.mark.parametrize("p", (2, 3, 5))
def test_peel_step_is_right_cold_at_any_key_and_state(p):
    # On a fresh peel, on both kernels, the first call is a step at k >= p
    # from a state b taken from another copy's memo, so the step must fetch
    # C^1(a^(k-p) * b) itself.  The direct route roots the raw products of
    # a^k times b.  A second fresh peel takes every (k, b) in shuffled order
    # and ends with the same memo as the first, which took them in order.
    rng = random.Random(3200 + p)
    for nvars, r in ((2, 2), (3, 2), (2, 3)):
        ring = PolyRing(p, ("x", "y", "z")[:nvars])
        for gens in (_short_generators(rng, ring, r), _monomial_generators(rng, ring, r)):
            states = _peel_states(ring, gens, 3, rng)
            top = r * (p - 1)
            keys = [
                (k, b)
                for k in range(p, top + p + 1)
                for b in states
                if math.comb(k + r - 1, k) <= 300
            ]
            assert keys, (gens, p)
            peels = []
            for order in (keys, rng.sample(keys, len(keys))):
                peel = frobenius._Peel(Ideal(ring, gens))
                for k, b in order:
                    peel.step(k, b)
                peels.append(peel)
            cold = frobenius._Peel(Ideal(ring, gens))
            for k, b in rng.sample(keys, min(6, len(keys))):
                got = cold.wrap(ring, cold.step(k, b))
                raw = Ideal(ring, _raw_products(gens, k, ring.one()))
                assert got == eth_root(raw.product(cold.wrap(ring, b)), 1), (gens, k, b)
            assert peels[0].memo == peels[1].memo, gens


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_monomial_peel_matches_the_root_of_the_power(p):
    # The packed peel against the direct route eth_root(a^n, e) on a fresh
    # copy of the ideal, at every level e <= 3 and at powers n on both sides
    # of each pigeonhole bound, up to three base-p digits.
    rng = random.Random(3000 + p)
    sides = set()
    for ring, gens in _monomial_peel_ideals(rng, p):
        shared, fresh = (Ideal(ring, [ring.parse(g) for g in gens]) for _ in range(2))
        r = max(1, len(shared.power(1).generators))
        sides.add((r > ring.nvars) - (r < ring.nvars))
        top = r * (p - 1)
        powers = {0, 1, p - 1, p, p + 1, top, top + 1, top + p, p * top + 1, p * p + p + 1}
        for n in sorted(k for k in powers if math.comb(k + r - 1, k) <= 5000):
            for e in (3, 1, 2):
                assert eth_root_power(shared, n, e) == eth_root(fresh.power(n), e), (gens, n, e)
    assert sides == {-1, 0, 1}


def test_monomial_peel_memo_holds_minimal_monomials():
    # Every memo entry of a monomial ideal, and every label b in its keys, is
    # the ascending tuple of the minimal monomials of that ideal.
    ring = PolyRing(3, ("x", "y", "z"))
    a = ring.parse_ideal("x^2*y, y^2*z, z^2*x, x*y*z")
    for n in range(4 * 27 + 1):
        eth_root_power(a, n, 3)
    assert a._peel.memo
    for (k, label), entry in a._peel.memo.items():
        for monos in (label, entry):
            assert list(monos) == polyring.minimal_monomials(ring, monos), (k, label)


def test_monomial_peel_multiplies_no_polynomials(monkeypatch):
    # A monomial ideal peels on packed monomials: no polynomial product, no
    # step on ideals and no Cartier root of an ideal.
    ring = PolyRing(5, ("x", "y", "z"))
    text = "x^2*y, y^2*z, z^2*x, x*y*z"
    keys = [(n, e) for n in range(61) for e in (1, 2)]
    expected = {(n, e): eth_root_power(ring.parse_ideal(text), n, e) for n, e in keys}

    def refuse(*args):
        raise AssertionError("a monomial peel left the packed kernel")

    a = ring.parse_ideal(text)
    a.power(1)
    monkeypatch.setattr(polyring.Polynomial, "__mul__", refuse)
    monkeypatch.setattr(frobenius._Peel, "_reduced_step", refuse)
    monkeypatch.setattr(frobenius, "eth_root", refuse)
    got = {(n, e): eth_root_power(a, n, e) for n, e in keys}
    monkeypatch.undo()
    assert got == expected


def test_peel_step_refuses_exponents_past_the_field_width(capsys):
    # Over F_2 every restricted product of (x^M, y^M) is x^M, y^M or x^M*y^M,
    # all within the width.  C^2(a^3) peels 3 = 1 + 2 * 1: the level-1 step
    # roots (x^M, y^M) to (x^(M//2), y^(M//2)), and the level-2 step times it
    # by x^M, past the width; the last factor is a^0, so the overflow is the
    # peel step's own.
    ring = PolyRing(2, ("x", "y"))
    top = ring.max_exponent
    text = f"x^{top}, y^{top}"
    with pytest.raises(ValueError, match="past the packed field width"):
        eth_root_power(ring.parse_ideal(text), 3, 2)
    argv = ["jumps", "--ring", "poly p=2 vars=x,y", "--ideal", text, "--level", "2"]
    assert cli.run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "past the packed field width" in captured.err


def test_peel_reads_only_a_and_the_last_factor_of_power(monkeypatch):
    # Each step roots restricted products, so `power` serves a^1 once, while
    # the peel is built (the first call), and the last factor a^m,
    # m <= n / p^e; a peel that rooted a^m0 read powers up to r(p - 1) here.
    read = []
    original = Ideal.power

    def recorded(self, n):
        read.append((n, self._peel is None))
        return original(self, n)

    monkeypatch.setattr(Ideal, "power", recorded)
    ring = PolyRing(3, ("x", "y", "z"))
    a = ring.parse_ideal("x^2+y^3, y*z, x*z^2")
    for n in range(0, 60, 7):
        read.clear()
        eth_root_power(a, n, 2)
        *building, (last, _) = read
        assert building == ([(1, True)] if n == 0 else []) and last <= n // 9, (n, read)


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
        ("poly p=3 vars=x,y,z", "x^2+y^3, y*z, x*z^2", 60),  # 44 steps, 293 without the memo
        ("poly p=5 vars=x,y,z", "x^2*y*z, x*y^2*z, x*y*z^2", 100),  # 80 steps, 579 without it
    ],
)
def test_peel_memo_bounds_cartier_root_calls(monkeypatch, ring, ideal, most):
    # Each peel step takes one Cartier root, computed once and kept as one
    # memo entry.  The peel's kernels are counted, not `eth_root`: no step
    # calls `eth_root`.
    calls = []

    def counted(step):
        def wrapper(*args):
            calls.append(args[1])
            return step(*args)

        return wrapper

    for kernel in ("_reduced_step", "_monomial_step"):
        monkeypatch.setattr(frobenius._Peel, kernel, counted(getattr(frobenius._Peel, kernel)))
    pres = parse_ring_declaration(ring)
    engine = jump_engine(pres, pres.parse_ideal(ideal))
    engine.jump_set(3)
    assert 0 < len(calls) == len(engine.ideal._peel.memo) <= most


_SIX_QUADRICS = "x^2+y*z, y^2+x*z, z^2+x*y, x*y+z^2+x^2, y*z+x*y, x*z+y^2+z^2"


def _counted(monkeypatch, owner, name, calls, most=None):
    """Record each call of owner.name in calls; past `most` calls, fail at once."""
    original = getattr(owner, name)

    def counted(*args):
        calls.append(name)
        assert most is None or len(calls) <= most, (name, len(calls))
        return original(*args)

    monkeypatch.setattr(owner, name, counted)


def test_cold_label_costs_what_it_costs_in_key_order(monkeypatch):
    # Six quadrics over F_3, key 18 at level 1 read first on a fresh engine:
    # every state on the walk is a reduced basis, so the step below k is as
    # short as when the keys are read in order.  5 Buchberger calls and 567
    # polynomial products here; with states kept on raw generator lists, 177
    # and 1,426 generators at k = 9 and 12, the walk ran for minutes.
    pres = parse_ring_declaration("poly p=3 vars=x,y,z")
    _counted(monkeypatch, polyring, "_buchberger", [], most=10)
    _counted(monkeypatch, polyring.Polynomial, "__mul__", [], most=2000)
    cold = jump_engine(pres, pres.parse_ideal(_SIX_QUADRICS)).d_label(18, 1)
    monkeypatch.undo()
    in_order = jump_engine(pres, pres.parse_ideal(_SIX_QUADRICS))
    assert cold == [in_order.d_label(n, 1) for n in range(19)][18]


@pytest.mark.parametrize("p", (2, 3, 5))
def test_labels_and_their_cost_are_the_same_in_any_key_order(monkeypatch, p):
    # Seeded non-monomial ideals in 2-3 variables: the labels of levels 1-2
    # read in shuffled key order equal those read in order, and so do the
    # peel memo and the Buchberger calls, since a state depends only on its key.
    rng = random.Random(3100 + p)
    for nvars in (2, 3, 2, 3):
        pres = parse_ring_declaration(f"poly p={p} vars={','.join('xyz'[:nvars])}")
        text = ", ".join(map(str, random_generators(rng, pres.ring, 2 + nvars % 2, max_degree=3)))
        keys = [(n, e) for e in (1, 2) for n in range(min(40, 3 * p**e) + 1)]
        shuffled = rng.sample(keys, len(keys))
        engines, work = [], []
        for order in (keys, shuffled):
            calls = []
            _counted(monkeypatch, polyring, "_buchberger", calls)
            engine = jump_engine(pres, pres.parse_ideal(text))
            for n, e in order:
                engine.d_label(n, e)
            monkeypatch.undo()
            engines.append(engine)
            work.append(len(calls))
        ordered, scrambled = engines
        assert all(ordered.d_label(*k) == scrambled.d_label(*k) for k in keys), text
        assert ordered.ideal._peel.memo == scrambled.ideal._peel.memo, text
        assert work[0] == work[1], (text, work)


def test_peel_memo_holds_reduced_bases():
    # Every memo entry of a non-monomial ideal, and every state b in its
    # keys, is the reduced basis of the ideal it generates.
    ring = PolyRing(3, ("x", "y", "z"))
    a = ring.parse_ideal("x^2+y^3, y*z, x*z^2")
    for n in range(3 * 27 + 1):
        eth_root_power(a, n, 3)
    assert a._peel.memo
    for (k, state), entry in a._peel.memo.items():
        for basis in (state, entry):
            assert basis == Ideal(ring, basis).groebner(), (k, state)


def test_monomial_peel_minimalizes_its_last_root_once(monkeypatch):
    # The last root is already minimal, so a warm call minimalizes only the
    # product a^m * (last root), once when m > 0 and never when m = 0.
    ring = PolyRing(3, ("x", "y", "z"))
    a = ring.parse_ideal("x^2*y, y^2*z, z^2*x, x*y*z")
    keys = [(n, e) for n in range(4 * 27 + 1) for e in (1, 2, 3)]
    for n, e in keys:
        eth_root_power(a, n, e)
    calls, read = [], []
    power = Ideal.power

    def recorded(self, n):
        read.append(n)
        return power(self, n)

    _counted(monkeypatch, polyring, "minimal_monomials", calls)
    _counted(monkeypatch, frobenius, "minimal_monomials", calls)
    monkeypatch.setattr(Ideal, "power", recorded)
    for n, e in keys:
        calls.clear()
        eth_root_power(a, n, e)
        assert len(calls) <= (read[-1] > 0), (n, e, read[-1])


def test_peel_runs_buchberger_on_roots_not_on_powers(monkeypatch):
    # A peel step roots raw generator products, so Buchberger runs on root
    # ideals and the final small products alone: 26 calls here, against 86
    # when every step took a reduced basis of a^m0 * b.
    calls = []

    def counted(ring, generators):
        calls.append(len(generators))
        return buchberger(ring, generators)

    buchberger = polyring._buchberger
    monkeypatch.setattr(polyring, "_buchberger", counted)
    pres = parse_ring_declaration("poly p=5 vars=x,y,z")
    jumps = jump_engine(pres, pres.parse_ideal("x^2+y^3, y*z, x*z^2")).jump_set(2)
    assert jumps == (36, 42, 43, 48, 54, 61, 67, 68, 73)
    assert 0 < len(calls) <= 30


def test_peel_counts_generators_up_to_a_scalar(monkeypatch):
    # 5xy and 2xy are one generator up to a scalar, so both spellings peel
    # with r = 3: the same steps, at most 2 Buchberger calls each, against 31
    # when r = 4 was read from the generators as typed.
    calls = []

    def counted(ring, generators):
        calls.append("buchberger")
        return buchberger(ring, generators)

    def counted_mul(f, g):
        calls.append("mul")
        return mul(f, g)

    buchberger, mul = polyring._buchberger, polyring.Polynomial.__mul__
    monkeypatch.setattr(polyring, "_buchberger", counted)
    monkeypatch.setattr(polyring.Polynomial, "__mul__", counted_mul)
    ring = PolyRing(11, ("x", "y", "z"))
    roots, work = [], []
    for text in ("6*y^2+4*x, 5*x*y, 2*x*y, 7*x*y+6*x*z", "6*y^2+4*x, x*y, 7*x*y+6*x*z"):
        a = ring.parse_ideal(text)
        for n in (35, 41):
            calls.clear()
            roots.append(eth_root_power(a, n, 1))
            assert calls.count("buchberger") <= 2, (text, n)
            work.append((calls.count("buchberger"), calls.count("mul")))
    assert work[:2] == work[2:]
    assert roots[:2] == roots[2:]


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
