#!/usr/bin/env python3
"""Differential jump sets and Bernstein-Sato roots of polynomial-ring ideals.

An integer n is a level-e differential jump of an ideal a when the smallest
D^(e)-stable ideals containing a^n and a^(n+1) differ; over a polynomial ring
this is decided by comparing Cartier images (p^e-th root ideals).  A p-adic
integer alpha is a Bernstein-Sato root when each level holds a jump congruent
to alpha in the fundamental window; refutations at a single level are proofs.
"""

from fractions import Fraction

from bsroots import (
    PolynomialRingPresentation,
    bernstein_sato_roots,
    jump_engine,
    jump_table,
    parse_ring_declaration,
    verify_root_to_level,
)

# -- the simplest case: a = (x) in F_5[x] ------------------------------------------

pres = PolynomialRingPresentation(5, ("x",))
engine = jump_engine(pres, pres.parse_ideal("x"))
table = jump_table(engine, (1, 2, 3))
print("jump sets of (x) in F_5[x]:")
print(" ", table.to_json())
print("  (jumps sit at p^e - 1: the classical root -1 in disguise)")
print()

certs = bernstein_sato_roots(engine, levels=3)
for cert in certs:
    witnesses = ", ".join(f"e={w.e}: {w.jump}" for w in cert.witnesses)
    print(f"root {cert}: witnesses {witnesses}")
print()

# -- an honest rank-2 example: the square of the maximal ideal ----------------------
#
# In F_p[x,y] the ideal (x^2, xy, y^2) presents the image of the second
# Veronese embedding; the invariant ring F_p[x^2, xy, y^2] is a split summand
# and every level of differential structure extends, so the computation done
# here in the ambient ring IS the computation for the summand.

vp = parse_ring_declaration("veronese p=5 vars=x,y degree=2")
engine = jump_engine(vp, vp.parse_ideal("x^2, x*y, y^2"))
print("jump sets of (x,y)^2, window [0, 3*p^e):")
for e in (1, 2):
    print(f"  level {e}:", list(jump_table(engine, (e,)).levels[e]))
print()

roots = bernstein_sato_roots(engine, levels=2)
print("certified roots:", ", ".join(str(c.candidate) for c in roots))
print()

# A refutation names the first level where every window slot misses.
refuted = verify_root_to_level(engine, Fraction(-2), 2)
print(f"candidate -2 is {refuted}")
print(f"  checked window values: {refuted.checked}")
