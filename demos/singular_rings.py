#!/usr/bin/env python3
"""Jump sets and roots over singular rings: semigroup engines and the catalog.

Outside the regular world the invariants misbehave in instructive ways:

* K[x,y]/(xy) is F-split but not a domain, and 0 shows up as a root;
* K[x^2, x^3] is NOT F-split, and the element x^2 picks up the positive root
  1/2 (impossible for F-split rings, whose roots live in [-r, 0]);
* K[x]/(x^(n+1)) is not even reduced, and the fundamental window stops seeing
  the action: the unique root is the integer n and the unique threshold is 0.
"""

from fractions import Fraction

from bsroots import (
    CatalogPresentation,
    SemigroupRingPresentation,
    bernstein_sato_roots,
    differential_thresholds,
    jump_engine,
)


def show(title, engine, levels, root_levels, interval):
    print(title)
    for e in levels:
        print(f"  level {e} jumps:", list(engine.jump_set(e)))
    roots = bernstein_sato_roots(engine, levels=root_levels)
    print("  roots:", ", ".join(str(c.candidate) for c in roots) or "(none)")
    thresholds = differential_thresholds(engine, levels=root_levels, interval=interval)
    print("  thresholds:", ", ".join(str(c.value) for c in thresholds) or "(none)")
    print()


# The coordinate ring of the crossing lines, with the element x.
cross = CatalogPresentation(3, "cross_xy")
show(
    "K[x,y]/(xy) at p=3, element x  (F-split; jump at 0 puts 0 among the roots)",
    jump_engine(cross, "x"),
    (1, 2),
    3,
    (Fraction(0), Fraction(2)),
)

# The cuspidal cubic K[x^2, x^3] = K[t^2, t^3], computed by the semigroup
# engine: endomorphism degrees over the subring of p^e-th powers.
for p, root_levels in ((5, 3), (2, 5)):
    cusp = SemigroupRingPresentation(p, (2, 3))
    show(
        f"K[x^2,x^3] at p={p}, element x^2  (not F-split)",
        jump_engine(cusp, cusp.parse_ideal("x^2")),
        (1, 2),
        root_levels,
        (Fraction(0), Fraction(3, 2)),
    )

# The artinian quotient K[x]/(x^5): once p^e exceeds 4 every endomorphism of
# the finite-dimensional algebra is level-e differential, and the closed-form
# jump set collapses to {4}.
art = jump_engine(CatalogPresentation(3, "artinian_x_pow", 4), "x")
print("K[x]/(x^5) at p=3, element x")
for e in (1, 2, 3):
    print(f"  level {e} jumps:", list(art.jump_set(e)))
roots = bernstein_sato_roots(art, levels=5)
print("  roots:", ", ".join(str(c.candidate) for c in roots))
thresholds = differential_thresholds(art, levels=5, interval=(Fraction(0), Fraction(1)))
print("  thresholds:", ", ".join(str(c.value) for c in thresholds))
print("  (a positive integer root, a threshold at zero: far from the F-split picture)")
