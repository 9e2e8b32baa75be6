"""Tests for thresholds, test ideals, F-jumping numbers and the coset check."""

import math
from dataclasses import replace
from fractions import Fraction

import pytest

from bsroots import (
    CatalogPresentation,
    PolynomialRingPresentation,
    SemigroupRingPresentation,
    admissibility_report,
    bernstein_sato_roots,
    cartier_threshold,
    coset_correspondence_check,
    differential_thresholds,
    eth_root_power,
    f_jumping_numbers,
    f_threshold,
    fpt,
    jump_engine,
    nu_invariant,
    parse_ring_declaration,
    verify_root_to_level,
)
from bsroots import jumps, thresholds
from bsroots.jumps import nu_via_frobenius_power
from bsroots.padic import grid_denominators, grid_periods, rational_grid
from bsroots import test_ideal as tau_ideal
from bsroots.rings import JumpEngine
from bsroots.thresholds import threshold_candidates, verify_threshold

from propchecks import check_multiplication_by_p, check_skoda_certificate


@pytest.fixture
def p5xy():
    return PolynomialRingPresentation(5, ("x", "y"))


@pytest.fixture
def example92():
    pres = PolynomialRingPresentation(5, ("x", "y", "z"))
    return pres, pres.parse_ideal("x^2*y*z, x*y^2*z, x*y*z^2")


# -- F-thresholds and Cartier thresholds ---------------------------------------------


def test_f_threshold_maximal_ideal(p5xy):
    m = p5xy.parse_ideal("x, y")
    seq = f_threshold(m, m, levels=3)
    assert seq.nu == {1: 8, 2: 48, 3: 248}
    assert seq.limit == Fraction(2)


def test_f_threshold_principal(p5xy):
    a = p5xy.parse_ideal("x")
    seq = f_threshold(a, a, levels=3)
    assert seq.nu == {1: 4, 2: 24, 3: 124}
    assert seq.limit == Fraction(1)


def test_f_threshold_cusp_poly():
    pres = PolynomialRingPresentation(7, ("x", "y"))
    f = pres.parse_ideal("x^2 + y^3")
    m = pres.parse_ideal("x, y")
    seq = f_threshold(f, m, levels=3)
    assert seq.nu[1] == 5
    assert seq.limit == Fraction(5, 6)
    assert seq.bracket[0] <= seq.limit <= seq.bracket[1]


def test_f_threshold_radical_needs_a_high_power():
    pres = PolynomialRingPresentation(5, ("x",))
    sequence = f_threshold(pres.parse_ideal("x"), pres.parse_ideal("x^30"), 3)
    assert sequence.nu == {1: 149, 2: 749, 3: 3749}
    assert sequence.limit == 30


def test_cartier_threshold_agrees_with_f_threshold(p5xy):
    # The Cartier-threshold sequence, the program's only route to nu, against
    # the F-threshold sequence searched directly over Frobenius powers.
    p3xyz = PolynomialRingPresentation(3, ("x", "y", "z"))
    for pres, a_text, c_text, levels in (
        (p5xy, "x", "x", 2),
        (p5xy, "x, y", "x, y", 2),
        (p5xy, "x^2 + y^3", "x, y", 2),
        (p5xy, "x^2 + y^3", "x + y^2, y^3", 2),
        # Level 1 only: the direct search needs about 28 s at level 2.
        (p3xyz, "x^2 + y^3, y*z, x*z^2", "x, y, z", 1),
    ):
        a, c = pres.parse_ideal(a_text), pres.parse_ideal(c_text)
        oracle = {e: nu_via_frobenius_power(a, c, e) for e in range(1, levels + 1)}
        assert f_threshold(a, c, levels).nu == oracle, (a_text, c_text)


def test_threshold_preconditions(p5xy):
    with pytest.raises(ValueError):
        f_threshold(p5xy.parse_ideal("x"), p5xy.parse_ideal("1"), levels=1)
    with pytest.raises(ValueError):
        cartier_threshold(p5xy.parse_ideal("y"), p5xy.parse_ideal("x"), levels=1)


def test_f_threshold_runs_each_level_through_nu_invariant(p5xy, monkeypatch):
    # One route to nu: each level is one nu_invariant search, which checks the
    # preconditions itself.
    calls = []
    original = jumps.nu_invariant

    def counting(a, c, e):
        calls.append(e)
        return original(a, c, e)

    monkeypatch.setattr(thresholds, "nu_invariant", counting)
    a, c = p5xy.parse_ideal("x^2 + y^3"), p5xy.parse_ideal("x + y^2, y^3")
    sequence = f_threshold(a, c, levels=3)
    assert calls == [1, 2, 3]
    assert sequence.nu == {e: original(a, c, e) for e in (1, 2, 3)}


def test_levels_below_one_and_negative_levels_are_refused(p5xy):
    a = p5xy.parse_ideal("x, y")
    engine = jump_engine(p5xy, a)
    for call in (
        lambda: bernstein_sato_roots(engine, levels=0),
        lambda: verify_root_to_level(engine, Fraction(-1), 0),
        lambda: admissibility_report(engine, levels=0),
        lambda: differential_thresholds(engine, levels=0),
        lambda: verify_threshold(engine, Fraction(1), 0),
        lambda: threshold_candidates(engine, 0, (Fraction(0), Fraction(1))),
        lambda: fpt(engine, levels=-1),
        lambda: f_threshold(a, a, levels=0),
        lambda: cartier_threshold(a, a, levels=0),
        lambda: tau_ideal(a, Fraction(1), e_max=0),
        lambda: f_jumping_numbers(a, (Fraction(0), Fraction(1)), e_max=0),
        lambda: nu_invariant(a, a, -1),
        lambda: engine.jump_set(-1),
        lambda: engine.is_jump(0, -1),
        lambda: eth_root_power(a, 3, -1),
    ):
        with pytest.raises(ValueError, match="must be an integer >="):
            call()


def test_nu_csv_emission(p5xy):
    a = p5xy.parse_ideal("x")
    csv = f_threshold(a, a, levels=2).csv(5)
    assert csv == "e,nu,nu_over_pe\n1,4,4/5\n2,24,24/25\n"


# -- test ideals ----------------------------------------------------------------------


def test_test_ideal_of_principal_variable():
    pres = PolynomialRingPresentation(5, ("x",))
    a = pres.parse_ideal("x")
    assert tau_ideal(a, Fraction(1, 2), 3).ideal.is_unit()
    assert tau_ideal(a, Fraction(1), 3).ideal == pres.parse_ideal("x")
    assert tau_ideal(a, Fraction(3, 2), 3).ideal == pres.parse_ideal("x")
    assert tau_ideal(a, Fraction(2), 3).ideal == pres.parse_ideal("x^2")
    assert tau_ideal(a, Fraction(0), 3).ideal.is_unit()


def test_test_ideal_example_92_plateau(example92):
    pres, a = example92
    xyz = pres.parse_ideal("x*y*z")
    for lam in (Fraction(1), Fraction(5, 4), Fraction(29, 20)):
        result = tau_ideal(a, lam, e_max=4)
        assert result.stabilized, lam
        assert result.ideal == xyz, lam
    at_boundary = tau_ideal(a, Fraction(3, 2), e_max=4)
    assert at_boundary.ideal == a  # strictly smaller than (xyz)
    assert at_boundary.ideal != xyz


def test_test_ideal_monotone(example92):
    pres, a = example92
    grid = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(5, 4), Fraction(3, 2)]
    taus = [tau_ideal(a, lam, 3).ideal for lam in grid]
    for lower, higher in zip(taus, taus[1:]):
        assert lower.contains_ideal(higher)


def test_test_ideal_chain_plateau_not_trusted(example92):
    # At e_max = 2 the 29/20 chain plateaus at a wrong value; the conservative
    # flag must refuse to call it stabilized.
    pres, a = example92
    result = tau_ideal(a, Fraction(29, 20), e_max=2)
    assert not result.stabilized


# -- F-jumping numbers -----------------------------------------------------------------


def test_fjn_principal_variable():
    pres = PolynomialRingPresentation(5, ("x",))
    a = pres.parse_ideal("x")
    assert f_jumping_numbers(a, (Fraction(0), Fraction(2)), e_max=3) == [
        Fraction(1),
        Fraction(2),
    ]


def test_fjn_example_92(example92):
    pres, a = example92
    values = f_jumping_numbers(a, (Fraction(1), Fraction(3, 2)), e_max=4, b_max=1)
    assert Fraction(5, 4) not in values
    assert values == [Fraction(1), Fraction(3, 2)]


def test_fjn_example_92_from_zero(example92):
    # Over the whole of [0, 3/2] the fpt appears first, then the two jumps.
    pres, a = example92
    values = f_jumping_numbers(a, (Fraction(0), Fraction(3, 2)), e_max=4, b_max=1)
    assert values == [Fraction(3, 4), Fraction(1), Fraction(3, 2)]


def test_fjn_unit_ideal():
    pres = PolynomialRingPresentation(3, ("x",))
    assert f_jumping_numbers(pres.parse_ideal("1"), (Fraction(0), Fraction(2)), 3) == []


def test_fjn_agrees_with_differential_thresholds():
    # Regular ring: the two invariants coincide at matching resolution.
    pres = PolynomialRingPresentation(5, ("x",))
    a = pres.parse_ideal("x")
    fjn = set(f_jumping_numbers(a, (Fraction(0), Fraction(3)), e_max=3))
    engine = jump_engine(pres, a)
    thresholds = {
        c.value
        for c in differential_thresholds(engine, levels=3, interval=(Fraction(0), Fraction(3)))
    }
    assert fjn == thresholds


# -- differential thresholds -------------------------------------------------------------


def test_thresholds_principal(p5xy):
    pres = PolynomialRingPresentation(5, ("x",))
    certs = differential_thresholds(
        jump_engine(pres, pres.parse_ideal("x")), levels=3, interval=(Fraction(0), Fraction(3))
    )
    assert [c.value for c in certs] == [Fraction(1), Fraction(2), Fraction(3)]


@pytest.mark.parametrize("p,levels", [(3, 4), (5, 3)])
def test_thresholds_veronese(p, levels):
    vp = parse_ring_declaration(f"veronese p={p} vars=x,y degree=2")
    engine = jump_engine(vp, vp.parse_ideal("x^2, x*y, y^2"))
    certs = differential_thresholds(engine, levels=levels, interval=(Fraction(0), Fraction(3)))
    assert [c.value for c in certs] == [
        Fraction(1),
        Fraction(3, 2),
        Fraction(2),
        Fraction(5, 2),
        Fraction(3),
    ]


def test_thresholds_cross_catalog():
    cross = jump_engine(CatalogPresentation(3, "cross_xy"), "x")
    certs = differential_thresholds(cross, levels=3, interval=(Fraction(0), Fraction(2)))
    assert [c.value for c in certs] == [Fraction(0), Fraction(1), Fraction(2)]


def test_thresholds_cusp_definition_mode():
    pres = SemigroupRingPresentation(5, (2, 3))
    engine = jump_engine(pres, pres.parse_ideal("x^2"))
    certs = differential_thresholds(engine, levels=3, interval=(Fraction(0), Fraction(3, 2)))
    assert [c.value for c in certs] == [Fraction(1, 2), Fraction(1), Fraction(3, 2)]
    assert all(c.slack == 2 for c in certs)


def test_threshold_witnesses_recheck_independently():
    pres = PolynomialRingPresentation(5, ("x",))
    a = pres.parse_ideal("x")
    engine = jump_engine(pres, a)
    cert = verify_threshold(engine, Fraction(2), 3)
    for witness in cert.witnesses:
        assert engine.is_jump(witness.jump, witness.e)
        target = Fraction(2) * 5**witness.e
        assert target - engine.r <= witness.jump <= target  # F-split window


class _PlantedJumps(JumpEngine):
    """An engine whose level-e jumps are planted: the label of n counts the jumps below n."""

    p, r, threshold_slack, producer = 5, 1, 1, "planted"

    def __init__(self, jumps):
        super().__init__()
        self.jumps = jumps

    def _compute_label(self, n, e):
        return sum(j < n for j in self.jumps[e])


def _nearest_jumps_brute_force(engine, lam, levels):
    """Per level, the jump of the certification window nearest to p^e*lam (the
    smaller on a tie), picked from the whole jump set; None if a level has none."""
    picks = []
    for e in range(1, levels + 1):
        target = lam * engine.p**e
        K = engine.threshold_slack
        lo = max(0, math.ceil(target - engine.r - K))
        hi = math.floor(target + K)
        window = [j for j in range(lo, hi + 1) if engine.is_jump(j, e)]
        if not window:
            return None
        picks.append(min(window, key=lambda j: (abs(j - target), j)))
    return picks


def _declared_engine(declaration, ideal):
    pres = parse_ring_declaration(declaration)
    return jump_engine(pres, pres.parse_ideal(ideal))


@pytest.mark.parametrize(
    "make_engine,levels,interval",
    [
        (lambda: _declared_engine("semigroup p=5 gens=3,5,7", "x^3"), 2, (0, 2)),
        (lambda: _declared_engine("catalog artinian_x_pow(4) p=3", "x"), 3, (0, 2)),
        (lambda: _declared_engine("veronese p=3 vars=x,y degree=2", "x^2, x*y, y^2"), 3, (0, 3)),
        (lambda: _PlantedJumps({1: (2, 3), 2: (12, 13)}), 2, (0, 1)),
    ],
    ids=["semigroup-3-5-7", "artinian-4", "veronese", "planted-tie"],
)
def test_threshold_witnesses_are_the_nearest_jumps(make_engine, levels, interval):
    engine = make_engine()
    candidates = threshold_candidates(engine, levels, interval)
    assert candidates
    for lam in candidates:
        cert = verify_threshold(engine, lam, levels)
        expected = _nearest_jumps_brute_force(engine, lam, levels)
        if expected is None:
            assert cert is None, lam
        else:
            assert [(w.e, w.jump) for w in cert.witnesses] == list(enumerate(expected, 1)), lam


def _survivors(engine, levels, candidates):
    return [lam for lam in candidates if verify_threshold(engine, lam, levels) is not None]


@pytest.mark.parametrize(
    "declaration,ideal,levels,interval",
    [
        ("poly p=3 vars=x,y", "x^2, y^3", 2, (0, 3)),
        ("poly p=3 vars=x,y", "x^2, y^3", 4, (0, 3)),
        ("poly p=2 vars=x,y", "x^2+y^3, x*y", 3, (0, 3)),
        ("veronese p=3 vars=x,y degree=2", "x^2, x*y, y^2", 3, (0, 4)),
        ("veronese p=2 vars=x,y,z degree=2", "x^2, y*z", 4, (0, 3)),
        ("semigroup p=5 gens=3,5,7", "x^3", 2, (0, 3)),
        ("semigroup p=3 gens=3,5,7", "x^3, x^5", 3, (0, 3)),
        ("semigroup p=3 gens=2,5", "x^2", 3, (0, 3)),
        ("semigroup p=2 gens=2,5", "x^2, x^5", 4, (0, 3)),
        ("catalog cross_xy p=3", None, 3, (0, 3)),
        ("catalog cross_xy p=2", None, 4, (0, 3)),
        ("catalog cusp_semigroup p=5", None, 2, (0, 3)),
        ("catalog cusp_semigroup p=2", None, 4, (0, 3)),
        ("catalog artinian_x_pow(2) p=3", None, 3, (0, 3)),
    ],
)
def test_spawned_candidates_keep_every_grid_survivor(declaration, ideal, levels, interval):
    # Oracle: verify every grid point of the interval, not only those spawned
    # around the level-E jumps and their integer translates.
    engine = _declared_engine(declaration, ideal)
    lo, hi = map(Fraction, interval)
    grid = rational_grid(lo, hi, grid_denominators(engine.p, levels, grid_periods(levels)))
    spawned = threshold_candidates(engine, levels, (lo, hi))
    assert set(spawned) <= set(grid)
    survivors = _survivors(engine, levels, grid)
    assert survivors and _survivors(engine, levels, spawned) == survivors


def test_every_spawned_candidate_can_hold_a_top_level_witness():
    # Each jump nu spawns only [(nu - K)/p^E, (nu + r + K)/p^E], where a
    # level-E witness can lie; the wider window (nu - r - K)/p^E spawned 205.
    engine = _declared_engine("poly p=5 vars=x,y", "x^2, y^3")
    candidates = threshold_candidates(engine, 2, (Fraction(0), Fraction(3)))
    assert len(candidates) == len(_survivors(engine, 2, candidates)) == 117


def test_threshold_witness_tie_goes_to_the_smaller_jump():
    # 5^e/2 sits halfway between the planted jumps 2, 3 and 12, 13.
    engine = _PlantedJumps({1: (2, 3), 2: (12, 13)})
    cert = verify_threshold(engine, Fraction(1, 2), 2)
    assert [w.jump for w in cert.witnesses] == [2, 12]


def test_threshold_witness_search_labels_only_the_keys_it_visits(monkeypatch):
    # <3,5,7> with x^3 at p = 5 has slack 5, so each level's window holds 12
    # keys; the jumps 4 and 24 sit next to p^e*lam = 5 and 25, so the search
    # visits p^e*lam, then p^e*lam - 1, and stops.
    pres = SemigroupRingPresentation(5, (3, 5, 7))
    engine = jump_engine(pres, pres.parse_ideal("x^3"))
    labelled = []
    compute = engine._compute_label
    monkeypatch.setattr(
        engine, "_compute_label", lambda n, e: labelled.append((n, e)) or compute(n, e)
    )
    cert = verify_threshold(engine, Fraction(1), 2)
    assert [w.jump for w in cert.witnesses] == [4, 24]
    assert sorted(labelled) == [(4, 1), (5, 1), (6, 1), (24, 2), (25, 2), (26, 2)]


def test_differential_thresholds_verify_each_candidate_once(p5xy, monkeypatch):
    # Each cluster is reported through the certificate of its head's single
    # verification; no second pass re-verifies the heads.
    engine = jump_engine(p5xy, p5xy.parse_ideal("x, y^2"))
    interval = (Fraction(0), Fraction(2))
    candidates = threshold_candidates(engine, 2, interval)
    verified = []
    monkeypatch.setattr(
        thresholds,
        "verify_threshold",
        lambda engine, lam, levels: verified.append(lam) or verify_threshold(engine, lam, levels),
    )
    certs = differential_thresholds(engine, levels=2, interval=interval)
    assert verified == candidates
    assert certs and any(c.merged for c in certs)
    for cert in certs:
        assert replace(cert, merged=()) == verify_threshold(engine, cert.value, 2)


def test_thresholds_artinian_merge_to_zero():
    art = jump_engine(CatalogPresentation(3, "artinian_x_pow", 4), "x")
    certs = differential_thresholds(art, levels=5, interval=(Fraction(0), Fraction(1)))
    assert [c.value for c in certs] == [Fraction(0)]


def test_no_jump_gap_blocks_thresholds(p5xy):
    # [k, l) free of level-e jumps with l - k >= r - 1 bans certificates in
    # ((k + r - 1)/p^e, l/p^e).
    pres = PolynomialRingPresentation(5, ("x",))
    a = pres.parse_ideal("x")
    engine = jump_engine(pres, a)
    e = 1
    jumps = {n for n in range(3 * 5) if engine.is_jump(n, e)}
    k, length = 0, 4  # [0, 4) misses the jump set {4, 9, 14}
    assert not any(j in jumps for j in range(k, k + length))
    for num in range(1, 20):
        lam = Fraction(num, 20)
        if Fraction(k + 1 - 1, 5) < lam < Fraction(k + length, 5):
            assert verify_threshold(engine, lam, 1) is None, lam


def test_skoda_and_multiplication_by_p():
    pres = PolynomialRingPresentation(5, ("x",))
    a = pres.parse_ideal("x")
    check_skoda_certificate(pres, a, levels=2)
    check_multiplication_by_p(pres, a, Fraction(1), levels=3)
    vp = parse_ring_declaration("veronese p=3 vars=x,y degree=2")
    av = vp.parse_ideal("x^2, x*y, y^2")
    check_skoda_certificate(vp, av, levels=2)
    check_multiplication_by_p(vp, av, Fraction(3, 2), levels=3)


def test_f_threshold_limits_are_certified_thresholds(p5xy):
    # Every exact F-threshold limit shows up among the certified thresholds.
    a = p5xy.parse_ideal("x, y")
    limit = f_threshold(a, a, levels=3).limit
    certs = differential_thresholds(
        jump_engine(p5xy, a), levels=3, interval=(Fraction(0), Fraction(3))
    )
    assert limit in {c.value for c in certs}


# -- fpt ---------------------------------------------------------------------------------


def test_fpt_principal():
    pres = PolynomialRingPresentation(5, ("x",))
    assert fpt(jump_engine(pres, pres.parse_ideal("x")), levels=3).value == Fraction(1)


def test_fpt_cusp_polynomial():
    pres = PolynomialRingPresentation(7, ("x", "y"))
    cert = fpt(jump_engine(pres, pres.parse_ideal("x^2 + y^3")), levels=3)
    assert cert.value == Fraction(5, 6)


def test_fpt_example_92_brute_forced(example92):
    pres, a = example92
    m = pres.parse_ideal("x, y, z")
    # Brute-force nu against the maximal ideal; two recurrence confirmations
    # need three levels.
    seq = f_threshold(a, m, levels=3)
    assert seq.nu == {1: 3, 2: 18, 3: 93}
    assert seq.limit == Fraction(3, 4)
    # Level 2 cannot yet separate the clusters at 3/4 and 1; three levels can.
    assert fpt(jump_engine(pres, a), levels=3).value == Fraction(3, 4)


def test_fpt_matches_f_threshold_at_maximal_ideal(p5xy):
    a = p5xy.parse_ideal("x, y")
    assert fpt(jump_engine(p5xy, a), levels=3).value == f_threshold(a, a, levels=3).limit


# -- coset correspondence -----------------------------------------------------------------


def test_coset_check_veronese_data():
    roots = [Fraction(-1), Fraction(-3, 2)]
    thresholds = [Fraction(k, 2) for k in range(2, 8)]  # 1, 3/2, ..., 7/2
    report = coset_correspondence_check(roots, thresholds, r=3, p=5)
    assert report.passed, report


def test_coset_check_principal_data():
    report = coset_correspondence_check(
        [Fraction(-1)], [Fraction(1), Fraction(2)], r=1, p=5
    )
    assert report.passed


def test_coset_check_vacuous():
    assert coset_correspondence_check([], [], r=2, p=3).passed


def test_coset_check_reports_violations():
    report = coset_correspondence_check([Fraction(-1, 2)], [Fraction(1)], r=1, p=5)
    assert not report.passed
    assert report.failures


def test_coset_check_requires_f_split():
    with pytest.raises(ValueError):
        coset_correspondence_check([Fraction(1, 2)], [Fraction(1, 2)], r=1, p=5, f_split=False)


def test_coset_check_would_fail_on_non_f_split_data():
    # The cusp data (roots {-1, 1/2}, thresholds {1/2, 1, 3/2}) violates part
    # (2): threshold 1/2 would need root -1/2.  This is exactly why the check
    # is gated on F-splitness.
    report = coset_correspondence_check(
        [Fraction(-1), Fraction(1, 2)],
        [Fraction(1, 2), Fraction(1), Fraction(3, 2)],
        r=1,
        p=5,
    )
    assert not report.passed


def test_coset_check_skips_non_p_integral_thresholds():
    # 1/2 is not 2-integral: part (2) must skip it rather than fail.
    report = coset_correspondence_check(
        [Fraction(-1)], [Fraction(1, 2), Fraction(1)], r=1, p=2
    )
    assert report.passed
    assert any("not p-integral" in note for note in report.notes)
