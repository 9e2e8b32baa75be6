"""Tests for thresholds, test ideals, F-jumping numbers and the coset check."""

import math
import random
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
from bsroots.padic import format_rational, grid_denominators, grid_periods, rational_grid
from bsroots import test_ideal as tau_ideal
from bsroots.rings import JumpEngine
from bsroots.thresholds import nearest_first, threshold_candidates, verify_threshold

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


_SPAWN_CASES = [
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
]


@pytest.mark.parametrize("declaration,ideal,levels,interval", _SPAWN_CASES)
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


def _fraction_spawn_oracle(engine, levels, interval):
    """Test oracle for `threshold_candidates`: the spawn route on Fractions.

    Each level-E jump nu spawns every k/d of [max(0, (nu - K)/p^E),
    (nu + r + K)/p^E] with d a grid denominator, each point its integer
    translates lam + s, s >= 0, inside the interval, and the union is sorted.
    """
    p, r, K = engine.p, engine.r, engine.threshold_slack
    q = p**levels
    lo_cap, hi_cap = map(Fraction, interval)
    denominators = grid_denominators(p, levels, grid_periods(levels))
    base = set()
    for nu in engine.jump_set(levels):
        lo, hi = max(Fraction(0), Fraction(nu - K, q)), Fraction(nu + r + K, q)
        base |= {
            Fraction(k, d)
            for d in denominators
            for k in range(math.ceil(lo * d), math.floor(hi * d) + 1)
        }
    return sorted(
        {
            lam + s
            for lam in base
            for s in range(max(0, math.ceil(lo_cap - lam)), math.floor(hi_cap - lam) + 1)
        }
    )


@pytest.mark.parametrize("declaration,ideal,levels,interval", _SPAWN_CASES)
def test_integer_spawn_matches_the_fraction_oracle(declaration, ideal, levels, interval):
    engine = _declared_engine(declaration, ideal)
    caps = [interval, (Fraction(1, 3), Fraction(7, 2)), (Fraction(5, 2), Fraction(5, 2)),
            (Fraction(-1, 2), Fraction(3, 4)), (Fraction(2, 7), Fraction(2, 7))]
    for cap in caps:
        assert threshold_candidates(engine, levels, cap) == _fraction_spawn_oracle(
            engine, levels, cap
        ), cap


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


def test_nearest_first_walks_keys_in_sorted_order():
    rng = random.Random(27)
    cases = [
        (5, 2, 0, 6),  # 5/2 is a tie between 2 and 3 (den even)
        (27, 4, 4, 9),  # 27/4 sits between 6 and 7, nearer 7
        (5, 7, 0, 1),  # lam = 1/7, p^e = 5, r = 2, K = 1: the lower end clamped at 0
        (25, 3, 7, 8),  # K = 0, r = 2 at p^e*lam = 25/3: the window [ceil - r, floor]
        (9, 1, 11, 14),  # the target below the range
        (9, 1, 2, 5),  # the target above the range
        (4, 3, 3, 1),  # an empty range
    ]
    cases += [
        (rng.randrange(-40, 400), rng.randrange(1, 13), *rng.choices(range(-5, 40), k=2))
        for _ in range(3000)
    ]
    # Windows as `verify_threshold` builds them: lo clamped at 0, K = 0 included.
    for _ in range(3000):
        p, e = rng.choice((2, 3, 5, 7)), rng.randrange(1, 4)
        lam = Fraction(rng.randrange(0, 60), rng.choice((1, 2, 3, 4, 6, 8, p, p * (p - 1))))
        r, K = rng.randrange(1, 4), rng.choice((0, 0, 1, 2, 5))
        top, den = lam.numerator * p**e, lam.denominator
        cases.append((top, den, max(0, -(-top // den) - r - K), top // den + K))
    assert any(den % 2 == 0 and top % den == den // 2 for top, den, _, _ in cases)
    for top, den, lo, hi in cases:
        by_sort = sorted(range(lo, hi + 1), key=lambda k: (abs(k * den - top), k))
        assert list(nearest_first(top, den, lo, hi)) == by_sort


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


def _fraction_rule_clusters(engine, levels, interval):
    """Test oracle for the merge step of `differential_thresholds`: Fraction gaps.

    Survivors closer than 2(r + K)/p^E join one cluster; its head is the member
    of least (denominator, value), and carries the others as `merged`.
    """
    candidates = threshold_candidates(engine, levels, interval)
    survivors = [c for c in (verify_threshold(engine, lam, levels) for lam in candidates) if c]
    gap = Fraction(2 * (engine.r + engine.threshold_slack), engine.p**levels)
    clusters = []
    for cert in survivors:
        if clusters and cert.value - clusters[-1][-1].value <= gap:
            clusters[-1].append(cert)
        else:
            clusters.append([cert])
    heads = [min(cluster, key=lambda c: (c.value.denominator, c.value)) for cluster in clusters]
    return [
        replace(head, merged=tuple(c.value for c in cluster if c is not head))
        for head, cluster in zip(heads, clusters)
    ], survivors


@pytest.mark.parametrize(
    "jumps,interval,heads,gaps",
    [
        # Survivors fill [0, 2/5] and [6/5, 7/5] on the grid of step 1/20: a gap
        # of exactly 2(r + K)/p = 4/5 merges.
        ((0, 7), (0, 2), [0], {Fraction(4, 5)}),
        # Survivors fill [0, 2/5], then 7/5 and 2: the gap 1 splits, 3/5 merges.
        ((0, 8), (0, 2), [0, 2], {Fraction(1), Fraction(3, 5)}),
        # 1/4 and 5/4 share the least denominator 4; the smaller value heads.
        ((0, 7), (Fraction(1, 10), 2), [Fraction(1, 4)], {Fraction(4, 5)}),
    ],
)
def test_threshold_clusters_cut_at_the_merge_gap(jumps, interval, heads, gaps):
    engine = _PlantedJumps({1: jumps})
    certs = differential_thresholds(engine, levels=1, interval=interval)
    expected, survivors = _fraction_rule_clusters(engine, 1, interval)
    values = [c.value for c in survivors]
    assert {b - a for a, b in zip(values, values[1:])} - {Fraction(1, 20)} == gaps
    assert [c.value for c in certs] == heads
    assert certs == expected


def test_threshold_clusters_match_the_fraction_rule():
    for declaration, ideal, levels, interval in _SPAWN_CASES:
        engine = _declared_engine(declaration, ideal)
        certs = differential_thresholds(engine, levels, interval)
        assert certs == _fraction_rule_clusters(engine, levels, interval)[0], declaration


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


def test_coset_check_has_no_f_split_switch():
    # The F-split precondition is the caller's; there is no switch to state it.
    with pytest.raises(TypeError):
        coset_correspondence_check([Fraction(1, 2)], [Fraction(1, 2)], r=1, p=5, f_split=True)


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


def two_loop_coset_check(root_values, threshold_values, r, p):
    """The coset check as two mirrored loops, one per direction: the oracle."""
    roots = sorted(Fraction(v) for v in root_values)
    thresholds = sorted(Fraction(v) for v in threshold_values)
    passed, failures, notes = True, [], []
    if not roots and not thresholds:
        return True, [], ["both lists empty; vacuously true"]
    for alpha in roots:
        negative_integer = alpha.denominator == 1 and alpha < 0
        offsets = range(1, r + 1) if negative_integer else range(0, r)
        shift = alpha - math.ceil(alpha)
        if not any(
            (shift + lam).denominator == 1 and int(shift + lam) in offsets for lam in thresholds
        ):
            passed = False
            failures.append(
                f"root {format_rational(alpha)} has no matching threshold"
                f" (offsets {list(offsets)}); raise the level or widen the interval cap"
            )
    for lam in thresholds:
        if lam < 0 or lam.denominator % p == 0:
            notes.append(
                f"threshold {format_rational(lam)} is not p-integral; part (2) does not apply"
            )
            continue
        offsets = range(-r, 1) if lam.denominator == 1 else range(1 - r, 1)
        shift = lam - math.floor(lam)
        if not any(
            (alpha + shift).denominator == 1 and int(alpha + shift) in offsets for alpha in roots
        ):
            passed = False
            failures.append(
                f"threshold {format_rational(lam)} has no matching root"
                f" (offsets {list(offsets)}); raise the level or widen the interval cap"
            )
    return passed, failures, notes


def test_coset_check_against_two_loop_oracle():
    # 10,000 seeded cases over p in {2, 3, 5, 7} and r <= 4, with the
    # denominators 1, 2, 3, 4, p, p - 1 and p^2 - 1, negative integers among
    # the roots and negative or non-p-integral thresholds.  Half the
    # thresholds are built near a root's partner, so both outcomes occur.
    rng = random.Random(2500)
    seen = set()
    for _ in range(10_000):
        p, r = rng.choice((2, 3, 5, 7)), rng.randint(1, 4)
        denominators = (1, 2, 3, 4, p, p - 1, p * p - 1)

        def value(lo, hi):
            d = rng.choice(denominators)
            return Fraction(rng.randint(lo * d, hi * d), d)

        roots = [value(-4, 1) for _ in range(rng.randint(0, 4))]
        thresholds = [value(-1, r + 1) for _ in range(rng.randint(0, 4))]
        for alpha in roots:
            if rng.random() < 0.5:
                thresholds.append(math.ceil(alpha) - alpha + rng.randint(-1, r + 1))
        rng.shuffle(thresholds)
        report = coset_correspondence_check(roots, thresholds, r=r, p=p)
        expected = two_loop_coset_check(roots, thresholds, r, p)
        assert (report.passed, report.failures, report.notes) == expected, (roots, thresholds, r, p)
        seen.add((report.passed, bool(report.failures), bool(report.notes)))
    assert {(True, False, True), (True, False, False), (False, True, True), (False, True, False)} <= seen
