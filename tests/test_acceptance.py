"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every equality is exact; the asserted time budgets are the
stated wall-clock limits.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from bsroots import (
    CatalogPresentation,
    Ideal,
    PolyRing,
    PolynomialRingPresentation,
    SemigroupRingPresentation,
    bernstein_sato_roots,
    coset_correspondence_check,
    differential_thresholds,
    f_jumping_numbers,
    fpt,
    jump_engine,
    jump_set_via_oracle,
    parse_ring_declaration,
    verify_root_to_level,
)
from bsroots import test_ideal as tau_ideal
from bsroots.cli import veronese_square_jump_set
from bsroots.roots import RootCertificate

import propchecks


class Criterion:
    def __init__(self, number, description, budget_seconds):
        self.number = number
        self.description = description
        self.budget = budget_seconds
        self.start = None

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] criterion {self.number}: {self.description} ({elapsed:.1f}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget"
            )
        return False


def test_criterion_1_veronese_example():
    with Criterion(1, "Veronese square: jump sets, roots, thresholds (p=3,5)", 60):
        for p in (3, 5):
            pres = parse_ring_declaration(f"veronese p={p} vars=x,y degree=2")
            engine = jump_engine(pres, pres.parse_ideal("x^2, x*y, y^2"))
            for e in (1, 2):
                assert engine.jump_set(e) == veronese_square_jump_set(p, e), (p, e)
            roots = {c.candidate for c in bernstein_sato_roots(engine, levels=2)}
            assert roots == {Fraction(-1), Fraction(-3, 2)}, p
            levels = 4 if p == 3 else 3
            thresholds = differential_thresholds(
                engine, levels=levels, interval=(Fraction(0), Fraction(3))
            )
            assert {c.value for c in thresholds} == {
                Fraction(1),
                Fraction(3, 2),
                Fraction(2),
                Fraction(5, 2),
                Fraction(3),
            }, p


def test_criterion_2_test_ideals_and_fjn():
    with Criterion(2, "test ideals, root -5/4 and F-jumping numbers at p=5", 300):
        pres = PolynomialRingPresentation(5, ("x", "y", "z"))
        a = pres.parse_ideal("x^2*y*z, x*y^2*z, x*y*z^2")
        xyz = pres.parse_ideal("x*y*z")
        for lam in (Fraction(1), Fraction(5, 4), Fraction(29, 20)):
            result = tau_ideal(a, lam, e_max=4)
            assert result.stabilized and result.ideal == xyz, lam
        boundary = tau_ideal(a, Fraction(3, 2), e_max=4)
        assert boundary.ideal != xyz
        verdict = verify_root_to_level(jump_engine(pres, a), Fraction(-5, 4), 2)
        assert isinstance(verdict, RootCertificate)
        fjn = f_jumping_numbers(a, (Fraction(1), Fraction(3, 2)), e_max=4, b_max=1)
        assert Fraction(5, 4) not in fjn
        assert fjn == [Fraction(1), Fraction(3, 2)]


def test_criterion_3_cartier_memberships():
    with Criterion(3, "Cartier-image memberships for x^4 + y^6 at p=13", 60):
        from bsroots import eth_root

        ring = PolyRing(13, ("x", "y"))
        f = ring.parse("x^4 + y^6")
        cases = ((7, "y"), (8, "x"), (9, "y^2"))
        for n, element in cases:
            root = eth_root(Ideal(ring, (f**n,)), 1)
            assert root.contains(ring.parse(element)), (n, element)


def test_criterion_4_singular_engines():
    with Criterion(4, "semigroup/catalog engines and their root pipelines", 60):
        # 9.6: the semigroup engine reproduces {(q+1)/2, q-1} for p in {3, 5}.
        for p in (3, 5):
            pres = SemigroupRingPresentation(p, (2, 3))
            engine = jump_engine(pres, pres.parse_ideal("x^2"))
            for e in (1, 2):
                q = p**e
                assert engine.jump_set(e) == tuple(sorted({(q + 1) // 2, q - 1}))
            roots = {c.candidate for c in bernstein_sato_roots(engine, levels=3)}
            assert roots == {Fraction(-1), Fraction(1, 2)}, p
        # 9.7: the p = 2 variant {q/2 - 1, q-1} with root set {-1}.
        even = SemigroupRingPresentation(2, (2, 3))
        engine = jump_engine(even, even.parse_ideal("x^2"))
        for e in (1, 2, 3):
            q = 2**e
            assert engine.jump_set(e) == tuple(sorted({q // 2 - 1, q - 1}))
        assert {c.candidate for c in bernstein_sato_roots(engine, levels=5)} == {
            Fraction(-1)
        }
        # 9.5: K[x,y]/(xy) gives {0, -1}.
        cross = jump_engine(CatalogPresentation(3, "cross_xy"), "x")
        assert {c.candidate for c in bernstein_sato_roots(cross, levels=3)} == {
            Fraction(0),
            Fraction(-1),
        }
        # 9.8: K[x]/(x^5) gives {4}.
        art = jump_engine(CatalogPresentation(3, "artinian_x_pow", 4), "x")
        assert {c.candidate for c in bernstein_sato_roots(art, levels=5)} == {
            Fraction(4)
        }


def test_criterion_5_principal_classical():
    with Criterion(5, "(x) in F_p[x] for p in {2,3,5}: roots, thresholds, fpt", 10):
        for p in (2, 3, 5):
            pres = PolynomialRingPresentation(p, ("x",))
            engine = jump_engine(pres, pres.parse_ideal("x"))
            assert {c.candidate for c in bernstein_sato_roots(engine, levels=3)} == {
                Fraction(-1)
            }, p
            levels = 4 if p in (2, 3) else 3
            thresholds = differential_thresholds(
                engine, levels=levels, interval=(Fraction(0), Fraction(3))
            )
            assert [c.value for c in thresholds] == [
                Fraction(1),
                Fraction(2),
                Fraction(3),
            ], p
            assert fpt(engine, levels=levels).value == Fraction(1), p


def _antichains_4x4():
    """All antichains in the 4x4 exponent grid: the monomial ideals of the sweep."""
    values = range(4)
    out = []
    for k in range(5):
        for xs in combinations(values, k):
            for ys in combinations(values, k):
                out.append(tuple(zip(xs, sorted(ys, reverse=True))))
    return out


def test_criterion_6_oracle_equivalence():
    with Criterion(6, "Groebner route == linear-algebra route on 2-var monomial ideals", 300):
        ring = PolyRing(2, ("x", "y"))
        pres = PolynomialRingPresentation(2, ("x", "y"))
        count = 0
        for antichain in _antichains_4x4():
            a = Ideal(ring, [ring.monomial(m) for m in antichain])
            engine = jump_engine(pres, a)
            for e in (1, 2):
                assert jump_set_via_oracle(a, e) == engine.jump_set(e), (
                    antichain,
                    e,
                )
            count += 1
        assert count == 70  # C(8, 4) antichains, zero and unit ideals included


def test_criterion_7_invariant_suite():
    with Criterion(7, "property sweep over >= 200 seeded random cases", 600):
        rng = random.Random(20240)
        cases = 0

        def ring_for(p, nvars=2):
            return PolyRing(p, ("x", "y")[:nvars])

        for _ in range(40):  # Frobenius-root adjunction
            p = rng.choice((2, 3, 5))
            ring = ring_for(p)
            a, b = propchecks.random_ideal(rng, ring), propchecks.random_ideal(rng, ring)
            propchecks.check_adjunction(a, b, rng.randint(1, 2))
            cases += 1
        for _ in range(30):  # eth_root of a Frobenius power recovers the base
            p = rng.choice((2, 3, 5))
            b = propchecks.random_ideal(rng, ring_for(p))
            propchecks.check_root_of_frobenius_power(b, rng.randint(1, 2))
            cases += 1
        for _ in range(25):  # jump nesting across levels
            p = rng.choice((2, 3, 5))
            pres = PolynomialRingPresentation(p, ("x", "y"))
            a = propchecks.random_proper_monomial_ideal(rng, pres.ring)
            propchecks.check_nesting(pres, a, 1)
            cases += 1
        for _ in range(25):  # subtraction of p^e
            p = rng.choice((2, 3, 5))
            pres = PolynomialRingPresentation(p, ("x", "y"))
            a = propchecks.random_proper_monomial_ideal(rng, pres.ring)
            propchecks.check_subtract_pe(pres, a, 1)
            cases += 1
        for _ in range(20):  # upward propagation (F-split presentations only)
            p = rng.choice((2, 3, 5))
            pres = PolynomialRingPresentation(p, ("x", "y"))
            a = propchecks.random_proper_monomial_ideal(rng, pres.ring)
            propchecks.check_propagation(pres, a, 1)
            cases += 1
        for _ in range(20):  # Skoda and multiplication by p at certificate level
            p = rng.choice((2, 3, 5))
            pres = PolynomialRingPresentation(p, ("x",))
            a = Ideal(pres.ring, (pres.ring.monomial((rng.randint(1, 3),)),))
            propchecks.check_skoda_certificate(pres, a, levels=2)
            propchecks.check_multiplication_by_p(pres, a, Fraction(1), levels=3)
            cases += 1
        for _ in range(20):  # tau monotonicity
            p = rng.choice((2, 3, 5))
            a = propchecks.random_proper_monomial_ideal(rng, ring_for(p))
            lo = Fraction(rng.randint(0, 8), rng.choice((1, 2, 3, 4)))
            propchecks.check_tau_monotone(a, lo, lo + Fraction(rng.randint(1, 4), 3))
            cases += 1
        propchecks.check_expansion_formula(Fraction(-5, 4), 3, 2, 1)
        cases += 1
        for _ in range(30):  # closed-form truncation vs modular inverse
            p = rng.choice((2, 3, 5))
            e = rng.randint(1, 3)
            numerator = rng.randint(-40, 40)
            value = Fraction(numerator, p**e - 1) if p**e > 2 else Fraction(numerator)
            propchecks.check_expansion_formula(value, p, e, rng.randint(1, 3))
            cases += 1
        assert cases >= 200
        print(f"  ({cases} random cases checked)")


def test_criterion_8_coset_correspondence():
    with Criterion(8, "roots/thresholds coset correspondence on fixtures 1, 4, 5", 10):
        # Fixture 1: the Veronese square at p = 5 (r = 3).
        pres = parse_ring_declaration("veronese p=5 vars=x,y degree=2")
        engine = jump_engine(pres, pres.parse_ideal("x^2, x*y, y^2"))
        roots = [c.candidate for c in bernstein_sato_roots(engine, levels=2)]
        thresholds = [
            c.value
            for c in differential_thresholds(
                engine, levels=3, interval=(Fraction(0), Fraction(3))
            )
        ]
        assert coset_correspondence_check(roots, thresholds, r=3, p=5).passed
        # Fixture 4: the F-split member of the catalog (K[x,y]/(xy), r = 1).
        cross = jump_engine(CatalogPresentation(3, "cross_xy"), "x")
        roots4 = [c.candidate for c in bernstein_sato_roots(cross, levels=3)]
        thresholds4 = [
            c.value
            for c in differential_thresholds(
                cross, levels=3, interval=(Fraction(0), Fraction(2))
            )
        ]
        assert coset_correspondence_check(roots4, thresholds4, r=1, p=3).passed
        # Fixture 5: (x) in F_p[x] for p in {2, 3, 5} (r = 1).
        for p in (2, 3, 5):
            pres5 = PolynomialRingPresentation(p, ("x",))
            engine5 = jump_engine(pres5, pres5.parse_ideal("x"))
            roots5 = [c.candidate for c in bernstein_sato_roots(engine5, levels=3)]
            thresholds5 = [
                c.value
                for c in differential_thresholds(
                    engine5, levels=4, interval=(Fraction(0), Fraction(3))
                )
            ]
            assert coset_correspondence_check(roots5, thresholds5, r=1, p=p).passed, p
