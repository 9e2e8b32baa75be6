"""Differential jump tables and the nu-style containment invariants.

A level-e differential jump of an ideal a is an n with D^(e)*a^n strictly
containing D^(e)*a^(n+1); the fundamental window [0, r*p^e) determines the
rest through subtraction of p^e.  Jump sets and single-jump queries are
methods of the pair's `JumpEngine` (`engine.jump_set(e)`,
`engine.is_jump(n, e)`); `jump_table` collects the sets of several levels.
`nu_invariant` is the companion quantity max{n : a^n not contained in
c^[p^e]} used by the threshold detectors.  On a polynomial ring a^n lies in
c^[p^e] exactly when C^e*a^n lies in c, so it is searched through peeled
Cartier roots (`frobenius.eth_root_power`); the direct Frobenius-power search
is kept only as the test oracle `nu_via_frobenius_power`.
"""

from __future__ import annotations

import json

from . import frobenius
from .padic import Record, check_level
from .polyring import Ideal, RowSpan
from .rings import JumpEngine


class JumpTable(Record):
    """Per-level jump sets of one (presentation, ideal) pair."""

    def __init__(
        self, p: int, r: int, producer: str, levels: dict[int, tuple[int, ...]] | None = None
    ):
        self.__dict__.update(p=p, r=r, producer=producer, levels={} if levels is None else levels)

    def window(self, e: int) -> int:
        return self.r * self.p**e

    def check_nesting(self) -> None:
        """Jumps at a deeper level reduce (by p^e-subtraction) into shallower sets.

        Raises AssertionError when the stored levels violate the nesting; the
        reduction into the window is licensed exactly when n >= r*p^e.
        """
        levels = sorted(self.levels)
        for shallow, deep in zip(levels, levels[1:]):
            q = self.p**shallow
            window = self.window(shallow)
            allowed = set(self.levels[shallow])
            for n in self.levels[deep]:
                reduced = n
                while reduced >= window:
                    reduced -= q
                if reduced not in allowed:
                    raise AssertionError((shallow, deep, n))

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "r": self.r,
            "levels": {str(e): list(jumps) for e, jumps in sorted(self.levels.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"), sort_keys=True)


def jump_table(engine: JumpEngine, levels) -> JumpTable:
    """The engine's jump sets at the given levels, with its p, r and producer."""
    table = JumpTable(p=engine.p, r=engine.r, producer=engine.producer)
    for e in levels:
        table.levels[e] = engine.jump_set(e)
    return table


# -- nu invariants ---------------------------------------------------------------


def largest_true(pred) -> int:
    """The largest n >= 0 with pred(n), for pred true at 0 and false from some n on.

    Doubles n until pred fails, then bisects the last step.
    """
    lo, hi = 0, 1
    while pred(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo


def check_nu_preconditions(a: Ideal, c: Ideal) -> None:
    """Raise ValueError unless a and c share a ring, c is proper and a lies in rad(c).

    These make max{n : a^n not contained in c^[p^e]} exist for every e.
    """
    if a.ring != c.ring:
        raise ValueError("a and c must live in the same ring")
    if c.is_unit():
        raise ValueError("c must be a proper ideal")
    for g in a.generators:
        if not c.radical_contains(g):
            raise ValueError(f"generator {g} of a is not in the radical of c")


def nu_invariant(a: Ideal, c: Ideal, e: int) -> int:
    """max{n >= 0 : a^n not contained in c^[p^e]} for ideals of a polynomial ring.

    Requires c proper and a inside the radical of c (otherwise no maximum
    exists); both are decided exactly before the search.  The containment is
    tested as C^e*a^n inside c, which on a polynomial ring is equivalent.
    """
    check_nu_preconditions(a, c)
    # a^0 = (1) is never inside the proper ideal, and containment is monotone in n.
    return largest_true(lambda n: not c.contains_ideal(frobenius.eth_root_power(a, n, e)))


def nu_via_frobenius_power(a: Ideal, c: Ideal, e: int) -> int:
    """`nu_invariant` by the direct search a^n not in c^[p^e]; a test oracle.

    Builds every power a^n up to the answer and tests it against the Frobenius
    power of c, with no Cartier root anywhere; the program itself always goes
    through `nu_invariant`.
    """
    check_nu_preconditions(a, c)
    frob = c.frobenius_power(check_level(e))
    return largest_true(lambda n: not frob.contains_ideal(a.power(n)))


# -- Groebner-free route, used as an independent oracle --------------------------


def jump_set_via_oracle(a: Ideal, e: int) -> tuple[int, ...]:
    """Level-e jumps of a polynomial-ring ideal without Groebner bases; a test oracle.

    n is a jump iff a^n is not contained in D^(e)*a^(n+1) = (C^e*a^(n+1))^[p^e].
    Powers are raw generator products, root coefficients are read off the raw
    generators, and every membership goes through degree-bounded row reduction.
    """
    ring = a.ring
    q = ring.p**e
    hi = a.declared_r * q  # the engine's window [0, r*p^e), zero generators counted

    def raw_power(n: int):
        gens = [ring.one()]
        for _ in range(n):
            gens = list({g * h for g in gens for h in a.generators})
        return gens

    powers = {n: raw_power(n) for n in range(hi + 2)}
    jumps = []
    for n in range(hi):
        roots = []
        for g in powers[n + 1]:
            roots.extend(frobenius.poly_root_coefficients(g, e))
        closure_gens = [h.frobenius(e) for h in roots if not h.is_zero()]
        members = [g for g in powers[n] if not g.is_zero()]
        if not closure_gens:
            if members:
                jumps.append(n)
            continue
        cap = max((g.total_degree() for g in members), default=0)
        span = RowSpan(ring, closure_gens, cap)
        if not all(span.contains(g) for g in members):
            jumps.append(n)
    return tuple(jumps)
