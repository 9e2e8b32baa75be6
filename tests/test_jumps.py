"""Tests for jump sets, jump tables, nu invariants and the oracle route."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from bsroots import (
    CatalogPresentation,
    PolynomialRingPresentation,
    SemigroupRingPresentation,
    jump_engine,
    jump_set_via_oracle,
    jump_table,
    nu_invariant,
    parse_ring_declaration,
)
from bsroots.jumps import largest_true
from bsroots.polyring import PolyRing, Ideal

from propchecks import (
    check_gap_propagation,
    check_nesting,
    check_propagation,
    check_subtract_pe,
    random_proper_monomial_ideal,
)


@pytest.fixture
def px():
    return PolynomialRingPresentation(5, ("x",))


def test_principal_variable_jump_set(px):
    engine = jump_engine(px, px.parse_ideal("x"))
    assert engine.jump_set(1) == (4,)
    assert engine.jump_set(2) == (24,)


def test_unit_ideal_has_no_jumps(px):
    assert jump_engine(px, px.parse_ideal("1")).jump_set(1) == ()


def test_proper_ideal_has_jumps_every_level(px):
    # Every proper nonzero ideal keeps a nonempty jump set at every level.
    engine = jump_engine(px, px.parse_ideal("x^3"))
    for e in (1, 2, 3):
        assert engine.jump_set(e)


def test_ideal_from_an_iterator_keeps_its_generator_count():
    # The generators are read once; an exhausted iterator used to give r = 1,
    # which shrank the window to [0, p^e) and lost the jump at 8.
    pres = PolynomialRingPresentation(5, ("x", "y"))
    R = pres.ring
    a = Ideal(R, (R.parse(t) for t in ("x", "y")))
    assert a.declared_r == 2
    assert a.generators == (R.parse("x"), R.parse("y"))
    assert jump_engine(pres, a).jump_set(1) == (8,)
    assert Ideal(R, iter([R.parse("x"), R.zero()])).declared_r == 2


def test_veronese_window_jump_sets():
    vp = parse_ring_declaration("veronese p=5 vars=x,y degree=2")
    engine = jump_engine(vp, vp.parse_ideal("x^2, x*y, y^2"))
    assert engine.jump_set(1) == (4, 6, 9, 11, 14)
    assert engine.jump_set(2) == (24, 36, 49, 61, 74)


def test_is_jump_periodicity_principal(px):
    # Principal ideal on a nonzerodivisor: jumps are p^e-periodic.
    engine = jump_engine(px, px.parse_ideal("x"))
    assert engine.is_jump(9, 1)
    assert not engine.is_jump(7, 1)
    assert engine.is_jump(104, 1)


def test_jump_table_json(px):
    table = jump_table(jump_engine(px, px.parse_ideal("x")), (1, 2))
    payload = json.loads(table.to_json())
    assert payload == {"p": 5, "r": 1, "levels": {"1": [4], "2": [24]}}


def test_nesting_and_subtraction_properties():
    rng = random.Random(11)
    for p in (2, 3, 5):
        pres = PolynomialRingPresentation(p, ("x", "y"))
        for _ in range(3):
            a = random_proper_monomial_ideal(rng, pres.ring)
            check_nesting(pres, a, 1)
            check_subtract_pe(pres, a, 1)
            check_propagation(pres, a, 1)


def test_gap_propagation_f_split():
    rng = random.Random(13)
    for p in (2, 3):
        pres = PolynomialRingPresentation(p, ("x", "y"))
        for _ in range(2):
            a = random_proper_monomial_ideal(rng, pres.ring)
            check_gap_propagation(pres, a, 1)


def test_jump_table_nesting_validator(px):
    table = jump_table(jump_engine(px, px.parse_ideal("x^2")), (1, 2, 3))
    table.check_nesting()  # must not raise
    vp = parse_ring_declaration("veronese p=3 vars=x,y degree=2")
    jump_table(jump_engine(vp, vp.parse_ideal("x^2, x*y, y^2")), (1, 2)).check_nesting()


def test_jump_table_nesting_violation_raises_under_optimisation():
    # 7 reduces to 7 - 5 = 2 in the level-1 window, which holds only 4.  The
    # check raises AssertionError itself, so `python -O` cannot strip it.
    code = (
        "from bsroots import JumpTable\n"
        "table = JumpTable(p=5, r=1, producer='regular', levels={1: (4,), 2: (7,)})\n"
        "try:\n"
        "    table.check_nesting()\n"
        "except AssertionError as exc:\n"
        "    print('raised', exc)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout == "raised (1, 2, 7)\n"


def test_nesting_holds_on_singular_engines():
    pres = SemigroupRingPresentation(3, (2, 3))
    check_nesting(pres, pres.parse_ideal("x^2"), 1)
    art = CatalogPresentation(3, "artinian_x_pow", 4)
    check_nesting(art, "x", 1)


# -- nu invariants --------------------------------------------------------------


def test_nu_maximal_ideal_pigeonhole():
    pres = PolynomialRingPresentation(5, ("x", "y"))
    m = pres.parse_ideal("x, y")
    assert nu_invariant(m, m, 1) == 8  # 2(p - 1)
    assert nu_invariant(m, m, 2) == 48


def test_nu_principal(px):
    a = px.parse_ideal("x")
    for e in (1, 2, 3):
        assert nu_invariant(a, a, e) == 5**e - 1


def test_nu_zero_power_convention(px):
    # a^0 = R never lands in a proper Frobenius power, so nu >= 0 always.
    assert nu_invariant(px.parse_ideal("x"), px.parse_ideal("x"), 0) == 0


def test_nu_rescaling_monotone(px):
    a = px.parse_ideal("x^2 + x")
    c = px.parse_ideal("x")
    values = {e: nu_invariant(a, c, e) for e in (1, 2, 3)}
    assert values[1] * 5 <= values[2]
    assert values[2] * 5 <= values[3]


def test_nu_radical_beyond_small_powers():
    # x + y lies in rad((x + y)^30) only from the 30th power on.
    pres = PolynomialRingPresentation(5, ("x", "y"))
    a = pres.parse_ideal("x + y")
    c = Ideal(pres.ring, (pres.ring.parse("x + y") ** 30,))
    assert nu_invariant(a, c, 1) == 149


@pytest.mark.parametrize("t", [0, 1, 2, 3, 7, 8, 9, 100, 1023, 1024])
def test_largest_true_finds_threshold(t):
    calls = []

    def pred(n):
        calls.append(n)
        return n <= t

    assert largest_true(pred) == t
    assert len(calls) <= 2 * (t + 1).bit_length() + 2


def test_nu_precondition_radical(px):
    with pytest.raises(ValueError):
        nu_invariant(px.parse_ideal("x"), px.parse_ideal("1"), 1)
    pres = PolynomialRingPresentation(5, ("x", "y"))
    with pytest.raises(ValueError):
        nu_invariant(pres.parse_ideal("y"), pres.parse_ideal("x"), 1)


# -- Groebner-free oracle route ---------------------------------------------------


def test_oracle_route_matches_groebner_route():
    pres = PolynomialRingPresentation(2, ("x", "y"))
    for gens in ("x", "x, y", "x^2, x*y", "x^3, y^2", "x^2*y"):
        a = pres.parse_ideal(gens)
        engine = jump_engine(pres, a)
        for e in (1, 2):
            assert jump_set_via_oracle(a, e) == engine.jump_set(e), (gens, e)


@pytest.mark.parametrize("p,levels", [(2, (1, 2)), (3, (1,))])
def test_oracle_route_matches_on_three_variable_monomial_ideals(p, levels):
    rng = random.Random(p)
    pres = PolynomialRingPresentation(p, ("x", "y", "z"))
    for _ in range(8):
        a = random_proper_monomial_ideal(rng, pres.ring, max_degree=3)
        engine = jump_engine(pres, a)
        for e in levels:
            assert jump_set_via_oracle(a, e) == engine.jump_set(e), (a, e)


def test_oracle_route_zero_and_unit():
    ring = PolyRing(2, ("x", "y"))
    assert jump_set_via_oracle(Ideal(ring, ()), 1) == (0,)
    assert jump_set_via_oracle(ring.parse_ideal("1"), 1) == ()
