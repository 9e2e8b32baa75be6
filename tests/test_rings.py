"""Tests for ring presentations, the semigroup engine and the catalog."""

import math
import random
from collections import Counter

import pytest

from bsroots import (
    CatalogPresentation,
    NumericalSemigroup,
    ParseError,
    PolyRing,
    PolynomialRingPresentation,
    SemigroupIdeal,
    SemigroupRingPresentation,
    VeronesePresentation,
    bernstein_sato_roots,
    diff_closure,
    differential_thresholds,
    jump_engine,
    jump_set_via_oracle,
    jump_table,
    parse_ring_declaration,
    semigroup_diff_closure,
)
from bsroots import rings
from bsroots.cli import EXIT_PARSE, run
from bsroots.polyring import Ideal, _monomials_of_degree
from propchecks import (
    artinian_label,
    check_descent_lemma,
    check_labels_match_oracle,
    cross_xy_label,
    cusp_label,
    random_sparse_polynomial,
)


@pytest.mark.parametrize(
    "declaration,ideal,cls,f_split",
    [
        ("poly p=5 vars=x,y", "x, y^2", rings.RegularJumpEngine, True),
        ("veronese p=5 vars=x,y degree=2", "x^2, y^2", rings.RegularJumpEngine, True),
        ("semigroup p=5 gens=1", "x^2", rings.SemigroupJumpEngine, True),
        ("semigroup p=5 gens=3,5,7", "x^3", rings.SemigroupJumpEngine, False),
        ("catalog cusp_semigroup p=3", None, rings.SemigroupJumpEngine, False),
        ("catalog cross_xy p=3", None, rings.MonomialQuotientEngine, True),
        ("catalog artinian_x_pow(2) p=3", None, rings.MonomialQuotientEngine, False),
    ],
)
def test_f_split_is_zero_threshold_slack(declaration, ideal, cls, f_split):
    presentation = parse_ring_declaration(declaration)
    engine = jump_engine(presentation, presentation.parse_ideal(ideal))
    assert type(engine) is cls
    assert engine.f_split_certified is f_split is (engine.threshold_slack == 0)


# -- numerical semigroups -----------------------------------------------------


def test_semigroup_2_3():
    S = NumericalSemigroup((2, 3))
    assert S.conductor == 2
    assert S.gaps() == [1]
    assert 0 in S and 1 not in S and 7 in S
    assert S.apery(5) == [0, 6, 2, 3, 4]


def test_semigroup_3_5():
    S = NumericalSemigroup((3, 5))
    assert S.gaps() == [1, 2, 4, 7]
    assert S.conductor == 8


def test_semigroup_needs_gcd_one():
    with pytest.raises(ValueError):
        NumericalSemigroup((2, 4))


def test_semigroup_trivial():
    S = NumericalSemigroup((1,))
    assert S.conductor == 0
    assert S.apery(3) == [0, 1, 2]


# -- declarations ----------------------------------------------------------------


@pytest.mark.parametrize(
    "text,kind",
    [
        ("poly p=5 vars=x,y,z", PolynomialRingPresentation),
        ("veronese p=5 vars=x,y degree=2", VeronesePresentation),
        ("semigroup p=5 gens=2,3", SemigroupRingPresentation),
        ("catalog cross_xy p=3", CatalogPresentation),
        ("catalog artinian_x_pow(4) p=3", CatalogPresentation),
        ("catalog artinian_x_pow(n=2) p=3", CatalogPresentation),
    ],
)
def test_parse_ring_declaration(text, kind):
    assert isinstance(parse_ring_declaration(text), kind)


def test_parse_ring_declaration_errors():
    for text in (
        "poly vars=x",
        "nonsense p=5",
        "catalog p=5",
        "catalog bogus p=5",
        # A key, a repeat or a word the declaration does not take is refused.
        "catalog cross_xy p=3 bogus=1",
        "poly p=5 vars=x,y degree=2",
        "poly p=5 p=7 vars=x",
        "catalog cross_xy cusp_semigroup p=3",
        "semigroup p=5 gens=2,3 cusp",
        # A catalog word is ident, ident(<int>) or ident(n=<int>), nothing looser.
        "catalog artinian_x_pow(n=2 p=3",
        "catalog artinian_x_pow(n=2)) p=3",
        # A Veronese degree below one names no subring.
        "veronese p=5 vars=x,y degree=0",
        "veronese p=5 vars=x,y degree=-1",
    ):
        with pytest.raises(ParseError):
            parse_ring_declaration(text)


def test_a_declared_catalog_word_carries_its_parameter():
    expected = CatalogPresentation(3, "artinian_x_pow", 2)
    for word in ("artinian_x_pow(2)", "artinian_x_pow(n=2)"):
        assert parse_ring_declaration(f"catalog {word} p=3") == expected
        assert CatalogPresentation(3, word) == expected


def test_catalog_fixes_its_element():
    cat = CatalogPresentation(3, "cusp_semigroup")
    assert cat.parse_ideal(None) == "x^2"
    assert cat.parse_ideal("x^2") == "x^2"
    with pytest.raises(ParseError):
        cat.parse_ideal("x^3")


# Semigroup ideal text is read by the polynomial parser in x.  Each form the
# earlier hand-written reader took gives the same ideal; text that is not a list
# of monic monomials of F_p[x] is refused with exit code 2.  Rows: generators of
# S, text, exponents (None: refused).
SEMIGROUP_TEXTS = [
    ((1,), "x", (1,)),
    ((2, 3), "1", (0,)),
    ((2, 3), "x^0", (0,)),
    ((2, 3), " x ^ 3 ", (3,)),
    ((2, 3), "x^4, x^5", (4, 5)),
    ((3, 5, 7), "x^3,x^5 , x^7", (3, 5, 7)),
    ((2, 3), "x*x", (2,)),
    ((2, 3), "2*x^3", None),
    ((2, 3), "-x^2", None),
    ((2, 3), "x^2+x^3", None),
    ((2, 3), "0", None),
    ((2, 3), "x^2, 0", None),
    ((2, 3), "y", None),
    ((2, 3), ",x^2,,", None),
    ((2, 3), "x^2,", None),
    ((2, 3), "x^2 1", None),  # the old reader removed spaces: x^21
    ((2, 3), "x^1 1", None),
    ((2, 3), "x^1 0", None),
    ((2, 3), "x^18446744073709551616, x^3", (18446744073709551616, 3)),  # past the packed width
    ((2, 3), "x^99999999999999999999999", (99999999999999999999999,)),
]


@pytest.mark.parametrize("gens,text,exponents", SEMIGROUP_TEXTS)
def test_semigroup_ideal_text(capsys, gens, text, exponents):
    pres = SemigroupRingPresentation(5, gens)
    if exponents is not None:
        expected = SemigroupIdeal.from_exponents(pres.semigroup, exponents)
        assert pres.parse_ideal(text) == expected
        return
    with pytest.raises(ParseError):
        pres.parse_ideal(text)
    ring = "semigroup p=5 gens=" + ",".join(map(str, gens))
    assert run(["jumps", "--ring", ring, f"--ideal={text}", "--level", "1"]) == EXIT_PARSE
    assert capsys.readouterr().out == ""


def test_catalog_element_is_read_by_the_polynomial_parser():
    cusp, cross = CatalogPresentation(5, "cusp_semigroup"), CatalogPresentation(3, "cross_xy")
    assert cusp.parse_ideal("x*x") == cusp.parse_ideal(" ") == "x^2"
    assert cross.parse_ideal("x + y - y") == "x"
    for pres, text in ((cusp, "x^2, x^2"), (cusp, "x^2, 0"), (cusp, "x^2,"), (cross, "2*x"),
                       (cross, "y"), (cusp, "z"), (cusp, "x^2 1"),
                       (cusp, "x^99999999999999999999999")):
        with pytest.raises(ParseError):
            pres.parse_ideal(text)


# -- an engine takes only what its presentation parsed ----------------------------


def test_polynomial_engine_refuses_an_ideal_of_another_ring():
    pres = PolynomialRingPresentation(5, ("x", "y"))
    with pytest.raises(ValueError, match="not in PolyRing"):
        jump_engine(pres, PolynomialRingPresentation(7, ("x",)).parse_ideal("x"))


def test_semigroup_engine_refuses_an_ideal_of_another_semigroup():
    cusp = SemigroupRingPresentation(5, (2, 3))
    with pytest.raises(ValueError, match="lies over NumericalSemigroup"):
        jump_engine(cusp, SemigroupRingPresentation(5, (3, 5)).parse_ideal("x^3, x^5"))
    # Parsed in <2,3>, the same text is (x^3): one minimal generator.
    engine = jump_engine(cusp, cusp.parse_ideal("x^3, x^5"))
    assert (engine.r, engine.jump_set(1)) == (1, (2, 3, 4))


def test_catalog_engine_refuses_any_element_but_its_own():
    cusp = CatalogPresentation(5, "cusp_semigroup")
    with pytest.raises(ParseError, match="with the element 'x\\^2' only"):
        jump_engine(cusp, "x^3")


def test_veronese_engine_refuses_a_non_ideal():
    pres = VeronesePresentation(5, ("x", "y"), 2)
    with pytest.raises(ValueError, match="ambient coordinates"):
        jump_engine(pres, "x^2")


# -- Veronese subrings ----------------------------------------------------------------


def _veronese_engine(p, variables, degree, ideal):
    pres = VeronesePresentation(p, variables, degree)
    return jump_engine(pres, pres.parse_ideal(ideal))


def test_veronese_engine_runs_on_the_declared_ideal():
    pres = VeronesePresentation(5, ("x", "y"), 2)
    engine = jump_engine(pres, pres.parse_ideal("x^2, x*y, y^2"))
    assert type(engine) is rings.RegularJumpEngine
    assert engine.producer == "summand"
    assert engine.ideal.ring == pres.ambient
    assert engine.r == 3  # the declared generator count


def test_veronese_engine_refuses_an_ideal_of_another_ring():
    pres = VeronesePresentation(5, ("x", "y"), 2)
    with pytest.raises(ValueError, match="ambient coordinates"):
        jump_engine(pres, PolyRing(5, ("x", "y", "z")).parse_ideal("x^2"))


@pytest.mark.parametrize("text", ["x", "x^2 + y"])
def test_veronese_engine_refuses_an_ideal_outside_the_subalgebra(text):
    # The ambient ideal (x) is not an ideal of the Veronese ring; its engine
    # would report the jumps of (x) in F_5[x,y].
    pres = VeronesePresentation(5, ("x", "y"), 2)
    with pytest.raises(ParseError, match="outside the subalgebra"):
        jump_engine(pres, PolyRing(5, ("x", "y")).parse_ideal(text))


def test_veronese_rejects_outside_monomials():
    pres = VeronesePresentation(5, ("x", "y"), 2)
    with pytest.raises(ParseError):
        pres.parse_ideal("x")  # odd degree: not in the subalgebra
    with pytest.raises(ParseError):
        pres.parse_ideal("x^2 + y")


def _veronese_products(nvars, degree, cap):
    """Exponents up to total degree cap that are products of degree-`degree` monomials."""
    found = {(0,) * nvars}
    frontier = set(found)
    while frontier:
        frontier = {
            tuple(a + b for a, b in zip(m, g))
            for m in frontier
            for g in _monomials_of_degree(nvars, degree)
            if sum(m) + degree <= cap
        } - found
        found |= frontier
    return found


@pytest.mark.parametrize(
    "nvars,degree", [(1, 1)] + [(n, d) for n in (2, 3) for d in (1, 2, 3)]
)
def test_veronese_membership_matches_products_of_generators(nvars, degree):
    variables = ("x", "y", "z")[:nvars]
    pres = VeronesePresentation(3, variables, degree)
    cap = 7
    products = _veronese_products(nvars, degree, cap)
    for total in range(cap + 1):
        for mono in _monomials_of_degree(nvars, total):
            text = "*".join(f"{v}^{a}" for v, a in zip(variables, mono) if a) or "1"
            try:
                pres.parse_ideal(text)
                accepted = True
            except ParseError:
                accepted = False
            assert accepted == (mono in products), (text, degree)


@pytest.mark.parametrize("p", [3, 5])
def test_veronese_non_monomial_jump_sets_match_oracle(p):
    engine = _veronese_engine(p, ("x", "y"), 2, "x^2+y^2, x*y")
    for e in (1, 2):
        assert engine.jump_set(e) == jump_set_via_oracle(engine.ideal, e)


def test_unit_ideal_lifts_to_unit():
    assert _veronese_engine(3, ("x", "y"), 2, "1").ideal.is_unit()


def test_second_veronese_of_one_variable():
    # F_5[x^2] is the polynomial ring in t = x^2, where (t) jumps only at
    # q - 1 = 4; in F_5[x], (x^2) also jumps at 2.  The ambient route would
    # answer (2, 4), so the declaration is refused.
    poly = PolynomialRingPresentation(5, ("x",))
    assert jump_engine(poly, poly.parse_ideal("x^2")).jump_set(1) == (2, 4)
    with pytest.raises(ValueError, match="polynomial ring"):
        VeronesePresentation(5, ("x",), 2)
    with pytest.raises(ParseError):
        parse_ring_declaration("veronese p=5 vars=x degree=2")
    one = _veronese_engine(5, ("x",), 1, "x^2")  # degree 1 is F_5[x] itself
    assert [str(g) for g in one.ideal.generators] == ["x^2"]


# -- the semigroup differential-closure engine --------------------------------------


def cusp_closure(p, e, exponent):
    S = NumericalSemigroup((2, 3))
    ideal = SemigroupIdeal.from_exponents(S, (exponent,))
    return semigroup_diff_closure(S, ideal, e, p)


def test_semigroup_closure_matches_piecewise_formula_p5():
    # D^(1)-closures of powers of x^2 in K[x^2,x^3] at p=5:
    # unit for exponents 2j with j <= (p+1)/2, then the shifted ideal.
    assert cusp_closure(5, 1, 0).is_unit()
    assert cusp_closure(5, 1, 2).is_unit()
    assert cusp_closure(5, 1, 4).is_unit()
    assert cusp_closure(5, 1, 6).is_unit()  # j = 3 = (p+1)/2
    assert cusp_closure(5, 1, 8).exponents == frozenset({5})
    assert cusp_closure(5, 1, 10).exponents == frozenset({10})


def test_semigroup_closure_unit_ideal():
    assert cusp_closure(5, 2, 0).is_unit()


def test_semigroup_closure_idempotent():
    S = NumericalSemigroup((2, 3))
    for exponent in (4, 8, 12):
        once = cusp_closure(5, 1, exponent)
        twice = semigroup_diff_closure(S, once, 1, 5)
        assert once.exponents == twice.exponents


def test_semigroup_closure_monotone_in_level():
    S = NumericalSemigroup((2, 3))
    for exponent in (6, 8, 14):
        for e in (1, 2):
            lo = semigroup_diff_closure(
                S, SemigroupIdeal.from_exponents(S, (exponent,)), e, 3
            )
            hi = semigroup_diff_closure(
                S, SemigroupIdeal.from_exponents(S, (exponent,)), e + 1, 3
            )
            # D^(e) grows with e, so the level-e closure sits inside the level-(e+1) one.
            for t in lo.exponents:
                assert any(t == g or (t - g) in S for g in hi.exponents)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_semigroup_oracle_equivalence_with_polynomial_ring(p):
    # S = <1> presents the polynomial ring; the semigroup closure must agree
    # with the Frobenius-descent closure on every principal monomial ideal.
    S = NumericalSemigroup((1,))
    ring = PolyRing(p, ("x",))
    for e in (1, 2):
        for m in range(0, 3 * p**2 + 1):
            semi = semigroup_diff_closure(
                S, SemigroupIdeal.from_exponents(S, (m,)), e, p
            )
            poly = diff_closure(Ideal(ring, (ring.monomial((m,)),)), e)
            expected = min(semi.exponents)
            if poly.is_unit():
                assert expected == 0
            else:
                assert poly == Ideal(ring, (ring.monomial((expected,)),)), (m, e)


@pytest.mark.parametrize(
    "p,e",
    [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (7, 3)],
)
def test_cusp_jump_sets_match_closed_form(p, e):
    pres = SemigroupRingPresentation(p, (2, 3))
    a = pres.parse_ideal("x^2")
    q = p**e
    expected = tuple(sorted({(q + 1) // 2, q - 1}))
    assert jump_engine(pres, a).jump_set(e) == expected


# -- catalog engines -----------------------------------------------------------------


def test_cross_xy_jump_sets():
    engine = jump_engine(CatalogPresentation(3, "cross_xy"), "x")
    assert engine.jump_set(1) == (0, 2)
    assert engine.jump_set(2) == (0, 8)
    # Full set is q-periodic: translates of the window jumps.
    assert engine.is_jump(9, 2) and engine.is_jump(17, 2)
    assert not engine.is_jump(5, 2)


def test_witnesses_stop_at_the_first_level_without_a_jump(monkeypatch):
    # (x) in F_5[x] jumps at n = -1 mod 5^e.  Level 1 tries 3 and then 9, a
    # jump, and never reaches 4; level 2 tries 0 and 1, neither a jump, so the
    # search stops there and never asks for the level-3 window.
    pres = PolynomialRingPresentation(5, ("x",))
    engine = jump_engine(pres, pres.parse_ideal("x"))
    labelled = []
    compute = engine._compute_label
    monkeypatch.setattr(
        engine, "_compute_label", lambda n, e: labelled.append((n, e)) or compute(n, e)
    )
    windows = {1: (3, 9, 4), 2: (0, 1), 3: (124,)}
    asked = []
    assert engine.witnesses(3, lambda e: asked.append(e) or windows[e]) == [9]
    assert asked == [1, 2]
    assert labelled == [(3, 1), (4, 1), (9, 1), (10, 1), (0, 2), (1, 2), (2, 2)]
    assert engine.witnesses(3, lambda e: (5**e - 1,)) == [4, 24, 124]


def test_semigroup_engine_computes_each_label_once(monkeypatch):
    # Powers of a nonzero ideal are distinct, so (power, e) stands for (n, e).
    calls = Counter()
    closure = rings.semigroup_diff_closure

    def counting(S, ideal, e, p):
        calls[(ideal.exponents, e)] += 1
        return closure(S, ideal, e, p)

    monkeypatch.setattr(rings, "semigroup_diff_closure", counting)
    pres = SemigroupRingPresentation(5, (3, 5, 7))
    differential_thresholds(jump_engine(pres, pres.parse_ideal("x^3")), levels=3)
    assert calls and max(calls.values()) == 1


def test_cusp_catalog_matches_closed_form():
    for p in (2, 3, 5, 7):
        engine = jump_engine(CatalogPresentation(p, "cusp_semigroup"), "x^2")
        assert engine.producer == "catalog"
        for e in (1, 2, 3):
            check_labels_match_oracle(engine, lambda n: cusp_label(p, n, e), e)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_monomial_quotient_labels_match_closed_forms(p):
    cross = jump_engine(CatalogPresentation(p, "cross_xy"), "x")
    artinian = {
        top: jump_engine(CatalogPresentation(p, "artinian_x_pow", top), "x")
        for top in range(1, 9)
    }
    for e in (1, 2, 3):
        check_labels_match_oracle(cross, lambda n: cross_xy_label(p, n, e), e)
        for top, engine in artinian.items():
            check_labels_match_oracle(engine, lambda n: artinian_label(p, top, n, e), e)


def test_artinian_jump_sets():
    engine = jump_engine(CatalogPresentation(3, "artinian_x_pow", 4), "x")
    assert engine.jump_set(2) == (4,)  # closed form once p^e > n
    assert engine.jump_set(3) == (4,)
    # Below that bound the endomorphism enumeration gives the exact set.
    assert engine.jump_set(1) == (1, 2)
    assert not engine.is_jump(4 + 9, 2)  # powers above n vanish; no translates


def test_artinian_labels_under_vanishing():
    engine = jump_engine(CatalogPresentation(3, "artinian_x_pow", 4), "x")
    # A label lists the minimal exponents of the ideal of F_3[x] above I = (x^5).
    zero, unit = ((5,),), ((0,),)
    assert engine.d_label(5, 1) == zero
    # Once p^e > n every endomorphism is available, so D*(x^j) = R for j <= n.
    assert engine.d_label(0, 2) == unit
    assert engine.d_label(4, 2) == unit
    assert engine.d_label(5, 2) == zero
    # Below that bound the closure is a proper ideal: D*(x^4) = (x^3) at p = 3.
    assert engine.d_label(4, 1) == ((3,),)


def test_rings_keeps_no_module_caches():
    assert [name for name in dir(rings) if hasattr(getattr(rings, name), "cache_info")] == []
    S = NumericalSemigroup((2, 3))

    def cusp_closure_of_x8():
        return semigroup_diff_closure(S, SemigroupIdeal.from_exponents(S, (8,)), 1, 5)

    first = cusp_closure_of_x8()
    for k in range(40):
        T = SemigroupRingPresentation(5, (2, 2 * k + 5)).semigroup
        semigroup_diff_closure(T, SemigroupIdeal.from_exponents(T, (2,)), 1, 5)
    assert cusp_closure_of_x8().exponents == first.exponents == frozenset({5})


def _reachable(gens, bound):
    """Membership in the semigroup spanned by gens, for 0..bound, by brute force."""
    reach = [True] + [False] * bound
    for s in range(1, bound + 1):
        reach[s] = any(reach[s - g] for g in gens if g <= s)
    return reach


def test_conductor_matches_brute_force_reachability():
    rng = random.Random(15)
    checked = 0
    while checked < 60:
        gens = sorted({rng.randint(1, 30) for _ in range(rng.randint(1, 4))})
        if math.gcd(*gens) != 1:
            continue
        bound = 2 * gens[0] * gens[-1]
        reach = _reachable(gens, bound)
        S = NumericalSemigroup(gens)
        assert S.conductor == max((s + 1 for s in range(bound + 1) if not reach[s]), default=0)
        assert [s in S for s in range(bound + 1)] == reach, gens
        checked += 1


@pytest.mark.parametrize("gens", [(2, 3), (3, 5, 7), (4, 5, 6, 7)])
def test_shift_generators_match_the_definition(gens):
    S = NumericalSemigroup(gens)
    c = S.conductor
    for q in (2, 3, 4, 5, 8, 9, 25, 27):
        reach = _reachable(gens, 4 * (c + q))
        for j in range(q):
            # Past 2(c + q) every class member s has s + d > c for the shifts tried.
            members = [s for s in range(j, 2 * c + 2 * q, q) if reach[s]]
            # d = c is always admissible, and a generator above first + c is
            # first plus an element of S, so every generator lies in [-least, 2c].
            admissible = [
                d for d in range(-members[0], 2 * c + 1)
                if all(reach[s + d] for s in members)
            ]
            minimal = tuple(
                d for d in admissible if not any(reach[d - g] for g in admissible if g < d)
            )
            assert S.shift_generators(q, j) == minimal, (q, j)
            assert S.shift_generators(q, j) is S.shift_generators(q, j)


def test_equal_presentations_give_equal_ideals():
    first, second = (SemigroupRingPresentation(5, (2, 3)) for _ in range(2))
    a, b = first.parse_ideal("x^2"), second.parse_ideal("x^2")
    assert first.semigroup is not second.semigroup
    assert a == b and hash(a) == hash(b)
    assert NumericalSemigroup((3, 2)) == NumericalSemigroup((2, 3))
    assert hash(NumericalSemigroup((3, 2))) == hash(NumericalSemigroup((2, 3)))
    assert NumericalSemigroup((2, 3)) != NumericalSemigroup((2, 5))
    f, g = (PolynomialRingPresentation(5, ("x", "y")).parse_ideal("x^2, y") for _ in range(2))
    assert f == g and hash(f) == hash(g)


def test_artinian_validation():
    with pytest.raises(ValueError):
        CatalogPresentation(3, "artinian_x_pow")
    with pytest.raises(ValueError):
        CatalogPresentation(3, "cross_xy", 4)


# -- the regular engine's descent through the levels ---------------------------------


def _descent_engines():
    """Regular pairs, each with the deepest level e <= 4 whose window r*p^e is <= 150.

    Per p in 2, 3, 5, 7 and nvars in 1, 2, 3: seeded monomial and binomial
    ideals with one generator (r <= nvars) and with nvars + 1 (r > nvars), and
    the last of them again with a scalar multiple of its first generator;
    then the zero ideal, the unit ideal, (x) and two Veronese (summand) ideals.
    """
    rng = random.Random(29)
    pairs = []
    for p in (2, 3, 5, 7):
        for nvars in (1, 2, 3):
            pres = PolynomialRingPresentation(p, ("x", "y", "z")[:nvars])
            for terms in (1, 2):
                for r in (1, nvars + 1):
                    gens = [random_sparse_polynomial(rng, pres.ring, terms) for _ in range(r)]
                    pairs.append((pres, Ideal(pres.ring, gens)))
            gens = pairs[-1][1].generators
            pairs.append((pres, Ideal(pres.ring, (*gens, gens[0].scale(p - 1)))))
        pres = PolynomialRingPresentation(p, ("x", "y"))
        pairs += [(pres, pres.parse_ideal(text)) for text in ("0", "1", "x")]
        if p < 7:
            pres = VeronesePresentation(p, ("x", "y"), 2)
            pairs += [(pres, pres.parse_ideal(t)) for t in ("x^2, y^2", "x^2+y^2, x*y")]
    for pres, ideal in pairs:
        top = 1
        while top < 4 and ideal.declared_r * ideal.ring.p ** (top + 1) <= 150:
            top += 1
        yield pres, ideal, top


def _check_jump_sets_match_the_window_scan(engines):
    # The window scan labels every key, so it is the oracle of the bisection
    # (and of the regular engine's descent); each level is asked of a fresh
    # engine on each side, so that no label of the oracle's run serves the
    # bisection.
    for pres, ideal, top in engines:
        for e in range(top + 1):
            scan = rings.jump_set_via_scan(jump_engine(pres, ideal), e)
            assert jump_engine(pres, ideal).jump_set(e) == scan, (pres, ideal, e)


def test_regular_jump_set_matches_the_window_scan():
    _check_jump_sets_match_the_window_scan(_descent_engines())


def _window_engines():
    """Semigroup and catalog pairs, each with the deepest level e whose window r*p^e is <= 2,000.

    Per p in 2, 3, 5, 7: principal and two-generator ideals of three
    semigroups, then the catalog rings cusp_semigroup, cross_xy and
    artinian_x_pow with n = 1 and n = 3.
    """
    for p in (2, 3, 5, 7):
        pairs = []
        for gens, ideals in (
            ("3,5,7", ("x^3", "x^5, x^7")),
            ("2,5", ("x^2, x^5", "x^7")),
            ("4,5,6,7", ("x^4, x^5",)),
        ):
            pres = parse_ring_declaration(f"semigroup p={p} gens={gens}")
            pairs += [(pres, pres.parse_ideal(text)) for text in ideals]
        for kind in ("cusp_semigroup", "cross_xy", "artinian_x_pow(1)", "artinian_x_pow(3)"):
            pres = parse_ring_declaration(f"catalog {kind} p={p}")
            pairs.append((pres, pres.parse_ideal(None)))
        for pres, ideal in pairs:
            r = jump_engine(pres, ideal).r
            top = 1
            while r * p ** (top + 1) <= 2000:
                top += 1
            yield pres, ideal, top


def test_semigroup_and_catalog_jump_sets_match_the_window_scan():
    _check_jump_sets_match_the_window_scan(_window_engines())


def test_level_jumps_lie_next_to_p_times_the_level_below():
    for pres, ideal, top in _descent_engines():
        engine = jump_engine(pres, ideal)
        for e in range(top):
            check_descent_lemma(engine, e)


def _labels_of_jump_sets(declaration, ideal, levels):
    """How many keys a fresh engine labels for its jump sets at levels 1..levels."""
    pres = parse_ring_declaration(declaration)
    engine = jump_engine(pres, pres.parse_ideal(ideal))
    for e in range(1, levels + 1):
        engine.jump_set(e)
    return len(engine._labels)


@pytest.mark.parametrize(
    "declaration,ideal,levels,bound",
    [
        # The window scan labels 11,720 and 3,282 keys here.
        ("poly p=5 vars=x,y,z", "x^2*y*z, x*y^2*z, x*y*z^2", 5, 300),
        ("poly p=3 vars=x,y,z", "x^2+y^3, y*z, x*z^2", 6, 300),
    ],
)
def test_regular_jump_sets_label_few_keys(declaration, ideal, levels, bound):
    assert _labels_of_jump_sets(declaration, ideal, levels) <= bound


@pytest.mark.parametrize(
    "declaration,ideal,levels,bound",
    [
        # The window scan labels 19,536 and 19,612 keys here; bisection 140 and 87.
        ("semigroup p=5 gens=3,5,7", "x^3", 6, 300),
        ("catalog cusp_semigroup p=7", None, 5, 300),
    ],
)
def test_semigroup_and_catalog_jump_sets_label_few_keys(declaration, ideal, levels, bound):
    assert _labels_of_jump_sets(declaration, ideal, levels) <= bound


# -- one engine per pair ----------------------------------------------------------------

# One pair of each presentation kind, with the engine class it dispatches to.
ENGINE_PAIRS = {
    "poly": ("poly p=3 vars=x,y", "x^2, x*y", rings.RegularJumpEngine),
    "veronese": ("veronese p=3 vars=x,y degree=2", "x^2, x*y, y^2", rings.RegularJumpEngine),
    "semigroup": ("semigroup p=5 gens=3,5,7", "x^3", rings.SemigroupJumpEngine),
    "catalog": ("catalog cross_xy p=3", "x", rings.MonomialQuotientEngine),
}


def _fresh_engine(kind):
    declaration, ideal, engine_class = ENGINE_PAIRS[kind]
    pres = parse_ring_declaration(declaration)
    engine = jump_engine(pres, pres.parse_ideal(ideal))
    assert type(engine) is engine_class
    return engine


@pytest.mark.parametrize("kind", ["poly", "semigroup", "catalog"])
def test_every_engine_class_refuses_a_negative_level(kind):
    engine = _fresh_engine(kind)
    for call in (lambda: engine.is_jump(0, -1), lambda: engine.is_jump(-1, -1)):
        with pytest.raises(ValueError, match="must be an integer >="):
            call()
    with pytest.raises(ValueError, match="must be an integer >="):
        engine.jump_set(-1)


@pytest.mark.parametrize("kind", sorted(ENGINE_PAIRS))
def test_a_shared_engine_answers_like_fresh_engines(kind):
    # The labels, semigroup power lists and ideal power lists an engine keeps
    # between calls must not change any later answer, in either call order.
    calls = {
        "table": lambda engine: jump_table(engine, (1, 2)),
        "roots": lambda engine: bernstein_sato_roots(engine, levels=2),
        "thresholds": lambda engine: differential_thresholds(engine, levels=2),
    }
    fresh = {name: call(_fresh_engine(kind)) for name, call in calls.items()}
    for order in (("table", "roots", "thresholds"), ("thresholds", "roots", "table")):
        shared = _fresh_engine(kind)
        assert {name: calls[name](shared) for name in order} == fresh, order
