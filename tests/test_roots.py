"""Tests for Bernstein-Sato root certification and refutation."""

from fractions import Fraction

import pytest

from bsroots import (
    CatalogPresentation,
    PolynomialRingPresentation,
    RootCertificate,
    RootRefutation,
    SemigroupRingPresentation,
    admissibility_report,
    bernstein_sato_roots,
    enumerate_candidates,
    jump_engine,
    parse_ring_declaration,
    verify_root_to_level,
)


def frac_set(certs):
    return {c.candidate for c in certs}


# -- candidate enumeration --------------------------------------------------------


def test_enumerate_candidates_period_one():
    got = enumerate_candidates(5, 1, (Fraction(-1), Fraction(0)))
    assert got == [Fraction(-1), Fraction(-3, 4), Fraction(-1, 2), Fraction(-1, 4), Fraction(0)]


def test_enumerate_candidates_period_two_includes_quarters():
    got = enumerate_candidates(3, 2, (Fraction(-3), Fraction(0)))
    assert Fraction(-5, 4) in got  # (3^2 - 1) * 5/4 = 10 is integral
    narrow = enumerate_candidates(3, 2, (Fraction(-1), Fraction(0)))
    assert Fraction(-5, 4) not in narrow


def test_enumerate_candidates_degenerate_interval():
    assert enumerate_candidates(7, 1, (Fraction(0), Fraction(0))) == [Fraction(0)]


def test_enumerate_candidates_denominators_coprime_to_p():
    for alpha in enumerate_candidates(3, 3, (Fraction(-2), Fraction(2))):
        assert alpha.denominator % 3 != 0


# -- verification ------------------------------------------------------------------


def test_verify_principal_minus_one():
    pres = PolynomialRingPresentation(5, ("x",))
    engine = jump_engine(pres, pres.parse_ideal("x"))
    cert = verify_root_to_level(engine, Fraction(-1), 3)
    assert isinstance(cert, RootCertificate)
    assert [(w.e, w.s, w.jump) for w in cert.witnesses] == [
        (1, 0, 4),
        (2, 0, 24),
        (3, 0, 124),
    ]


def test_verify_refutes_zero_for_principal_variable():
    pres = PolynomialRingPresentation(5, ("x",))
    engine = jump_engine(pres, pres.parse_ideal("x"))
    verdict = verify_root_to_level(engine, Fraction(0), 3)
    assert isinstance(verdict, RootRefutation)
    assert verdict.failed_level == 1
    assert verdict.checked == (0,)


def test_refutation_monotone_in_level():
    # Once refuted at level e0, refuted at every deeper level.
    pres = PolynomialRingPresentation(5, ("x",))
    engine = jump_engine(pres, pres.parse_ideal("x"))
    first = verify_root_to_level(engine, Fraction(-1, 2), 1)
    assert isinstance(first, RootRefutation)
    for deeper in (2, 3, 4):
        verdict = verify_root_to_level(engine, Fraction(-1, 2), deeper)
        assert isinstance(verdict, RootRefutation)
        assert verdict.failed_level == first.failed_level


def test_verify_veronese_minus_three_halves():
    vp = parse_ring_declaration("veronese p=5 vars=x,y degree=2")
    engine = jump_engine(vp, vp.parse_ideal("x^2, x*y, y^2"))
    cert = verify_root_to_level(engine, Fraction(-3, 2), 2)
    assert isinstance(cert, RootCertificate)
    assert cert.witnesses[0].jump in (6, 11)  # truncation 1 plus s*5


def test_certificate_witnesses_recheck_independently():
    vp = parse_ring_declaration("veronese p=5 vars=x,y degree=2")
    engine = jump_engine(vp, vp.parse_ideal("x^2, x*y, y^2"))
    cert = verify_root_to_level(engine, Fraction(-3, 2), 2)
    from bsroots import PAdicRational

    for witness in cert.witnesses:
        assert engine.is_jump(witness.jump, witness.e)
        truncation = PAdicRational(cert.candidate, 5).truncation(witness.e)
        assert witness.jump == truncation + witness.s * 5**witness.e


# -- whole-pipeline root sets --------------------------------------------------------


def test_roots_principal_variable():
    pres = PolynomialRingPresentation(5, ("x",))
    engine = jump_engine(pres, pres.parse_ideal("x"))
    assert frac_set(bernstein_sato_roots(engine, levels=3)) == {Fraction(-1)}


def test_roots_unit_ideal_empty():
    pres = PolynomialRingPresentation(5, ("x", "y"))
    assert bernstein_sato_roots(jump_engine(pres, pres.parse_ideal("1")), levels=2) == []


@pytest.mark.parametrize("p", [3, 5])
def test_roots_veronese(p):
    vp = parse_ring_declaration(f"veronese p={p} vars=x,y degree=2")
    engine = jump_engine(vp, vp.parse_ideal("x^2, x*y, y^2"))
    assert frac_set(bernstein_sato_roots(engine, levels=2)) == {
        Fraction(-1),
        Fraction(-3, 2),
    }


def test_roots_cusp_both_characteristics():
    odd = SemigroupRingPresentation(5, (2, 3))
    odd_engine = jump_engine(odd, odd.parse_ideal("x^2"))
    assert frac_set(bernstein_sato_roots(odd_engine, levels=3)) == {
        Fraction(-1),
        Fraction(1, 2),
    }
    even = SemigroupRingPresentation(2, (2, 3))
    even_engine = jump_engine(even, even.parse_ideal("x^2"))
    assert frac_set(bernstein_sato_roots(even_engine, levels=5)) == {
        Fraction(-1)
    }


def test_roots_cross_and_artinian_catalog():
    cross = jump_engine(CatalogPresentation(3, "cross_xy"), "x")
    assert frac_set(bernstein_sato_roots(cross, levels=3)) == {
        Fraction(0),
        Fraction(-1),
    }
    art = jump_engine(CatalogPresentation(3, "artinian_x_pow", 4), "x")
    assert frac_set(bernstein_sato_roots(art, levels=5)) == {Fraction(4)}


def test_roots_cusp_catalog_explicit_interval():
    cusp = jump_engine(CatalogPresentation(5, "cusp_semigroup"), "x^2")
    got = frac_set(
        bernstein_sato_roots(cusp, levels=3, interval=(Fraction(-1), Fraction(1)))
    )
    assert got == {Fraction(-1), Fraction(1, 2)}


def test_root_interval_defaults():
    # F-split: [-r, 0]; cusp: [-r, r]; artinian: [0, n].
    poly = PolynomialRingPresentation(5, ("x",))
    engine = jump_engine(poly, poly.parse_ideal("x"))
    assert engine.default_root_interval() == (Fraction(-1), Fraction(0))
    cusp = SemigroupRingPresentation(5, (2, 3))
    assert jump_engine(cusp, cusp.parse_ideal("x^2")).default_root_interval() == (
        Fraction(-1),
        Fraction(1),
    )
    art = jump_engine(CatalogPresentation(3, "artinian_x_pow", 4), "x")
    assert art.default_root_interval() == (Fraction(0), Fraction(4))


def test_certified_roots_pairwise_incongruent():
    vp = parse_ring_declaration("veronese p=5 vars=x,y degree=2")
    certs = bernstein_sato_roots(jump_engine(vp, vp.parse_ideal("x^2, x*y, y^2")), levels=2)
    seen = set()
    for cert in certs:
        from bsroots import PAdicRational

        t = PAdicRational(cert.candidate, 5).truncation(2)
        assert t not in seen
        seen.add(t)


def test_root_dynamics_on_fixture():
    # For a certified root alpha there is i in [0, r(p-1)] with p*alpha + i
    # certified one level lower (F-split presentations).
    vp = parse_ring_declaration("veronese p=5 vars=x,y degree=2")
    engine = jump_engine(vp, vp.parse_ideal("x^2, x*y, y^2"))
    for cert in bernstein_sato_roots(engine, levels=2):
        assert any(
            isinstance(
                verify_root_to_level(engine, 5 * cert.candidate + i, 1),
                RootCertificate,
            )
            for i in range(0, 3 * 4 + 1)
        )


# -- admissibility diagnostics -------------------------------------------------------


def test_admissibility_counts_principal():
    pres = PolynomialRingPresentation(5, ("x",))
    report = admissibility_report(jump_engine(pres, pres.parse_ideal("x")), levels=3)
    assert report.counts == {1: 1, 2: 1, 3: 1}
    assert report.verdict == "consistent_with_admissible"
    assert report.bound_fit == (Fraction(0), Fraction(1))


def test_admissibility_counts_veronese():
    vp = parse_ring_declaration("veronese p=5 vars=x,y degree=2")
    report = admissibility_report(jump_engine(vp, vp.parse_ideal("x^2, x*y, y^2")), levels=2)
    assert report.counts == {1: 5, 2: 5}
    assert report.verdict == "consistent_with_admissible"


def test_admissibility_unit_ideal():
    pres = PolynomialRingPresentation(3, ("x",))
    report = admissibility_report(jump_engine(pres, pres.parse_ideal("1")), levels=2)
    assert report.counts == {1: 0, 2: 0}
    assert report.to_dict()["verdict"] == "consistent_with_admissible"


def test_roots_of_cusp_pair_at_level_two():
    # (x^2 + y^3, x*y) over F_5: the witnesses agree with an independent
    # route that roots raw generator products.
    pres = PolynomialRingPresentation(5, ("x", "y"))
    certs = bernstein_sato_roots(jump_engine(pres, pres.parse_ideal("x^2 + y^3, x*y")), levels=2)
    got = {c.candidate: [(w.e, w.jump, w.s) for w in c.witnesses] for c in certs}
    assert got == {
        Fraction(-2): [(1, 8, 1), (2, 48, 1)],
        Fraction(-3, 2): [(1, 6, 1), (2, 36, 1)],
        Fraction(-1): [(1, 4, 0), (2, 24, 0)],
    }
