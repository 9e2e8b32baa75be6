#!/usr/bin/env python3
"""Test ideals, F-jumping numbers, F-thresholds and the fpt.

The running example is a = (x^2yz, xy^2z, xyz^2) in F_5[x,y,z], whose test
ideal is constant equal to (xyz) on the whole interval [1, 3/2).  In
particular 5/4 is NOT an F-jumping number although -5/4 IS a Bernstein-Sato
root: the two invariants genuinely differ beyond the regular principal case.
"""

from fractions import Fraction

from bsroots import (
    PolynomialRingPresentation,
    bernstein_sato_roots,
    f_jumping_numbers,
    f_threshold,
    fpt,
    jump_engine,
    test_ideal,
)

pres = PolynomialRingPresentation(5, ("x", "y", "z"))
a = pres.parse_ideal("x^2*y*z, x*y^2*z, x*y*z^2")
engine = jump_engine(pres, a)

print("tau(a^lambda) along [1, 3/2]:")
for lam in (Fraction(1), Fraction(9, 8), Fraction(5, 4), Fraction(29, 20), Fraction(3, 2)):
    result = test_ideal(a, lam, e_max=4)
    print(f"  lambda = {str(lam):>6}: {result}")
print()

jumps = f_jumping_numbers(a, (Fraction(1), Fraction(3, 2)), e_max=4)
print("F-jumping numbers in [1, 3/2]:", ", ".join(str(v) for v in jumps))
print("5/4 excluded:", Fraction(5, 4) not in jumps)
print()

roots = bernstein_sato_roots(engine, levels=2)
print("Bernstein-Sato roots (certified to level 2):", ", ".join(str(c.candidate) for c in roots))
print("  -5/4 is a root even though 5/4 never jumps tau.")
print()

# The nu-invariants against the maximal ideal recover the F-pure threshold.
m = pres.parse_ideal("x, y, z")
sequence = f_threshold(a, m, levels=3)
print("nu-invariants of a against (x, y, z):")
print(sequence.csv(pres.p).strip())
print("exact limit:", sequence.limit)
print()

cert = fpt(engine, levels=3)
print(f"fpt(a) = {cert} -- the smallest certified differential threshold")
