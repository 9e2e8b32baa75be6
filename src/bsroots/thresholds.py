"""Differential thresholds, F-thresholds, test ideals and F-jumping numbers.

A differential threshold is a limit of jumps scaled by p^-e.  For F-split
presentations the per-level witness condition is a jump inside
[p^e*lam - r, p^e*lam]; for the non-F-split engines the detector falls back to
the definition and asks for jumps within a fixed slack K of p^e*lam (the
witnessed sequence then converges at rate (r+K)/p^e).  `verify_threshold`
builds only that window and the certificate; the level loop is the engine's
witness search (`JumpEngine.witnesses`), which roots share.  Each candidate is
verified once, and surviving certificates closer than the level-E resolution
are merged into the simplest member's.  The differential detectors take a
`JumpEngine` (see `rings.jump_engine`), so thresholds, roots and jump sets of
one pair share its labels.

F-thresholds and Cartier thresholds are the same sequence on a polynomial
ring (a^n lies in c^[p^e] exactly when C^e*a^n lies in c), so both names run
the one search through peeled Cartier roots; the direct Frobenius-power search
survives only as the test oracle `jumps.nu_via_frobenius_power`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import frobenius
from .jumps import nu_invariant
from .padic import (
    check_interval, check_level, format_rational, grid_denominators, grid_periods, grid_points,
    rational_grid,
)
from .polyring import Ideal
from .rings import JumpEngine


@dataclass(frozen=True)
class ThresholdWitness:
    e: int
    jump: int  # a level-e jump within the certification window around p^e*lam


@dataclass(frozen=True)
class ThresholdCertificate:
    value: Fraction
    p: int
    certified_level: int
    witnesses: tuple[ThresholdWitness, ...]
    slack: int  # 0 means the strict F-split window [p^e*lam - r, p^e*lam]
    merged: tuple[Fraction, ...] = ()  # indistinguishable survivors folded in

    def value_dict(self) -> dict:
        """The value part of the JSON entry, the whole entry of `fpt`."""
        return {
            "num": self.value.numerator,
            "den": self.value.denominator,
            "certified_level": self.certified_level,
        }

    def to_dict(self) -> dict:
        return {
            **self.value_dict(),
            "slack": self.slack,
            "witnesses": [{"e": w.e, "jump": w.jump} for w in self.witnesses],
            "merged": [format_rational(v) for v in self.merged],
        }

    def __str__(self) -> str:
        return f"{format_rational(self.value)} (certified to level {self.certified_level})"


def verify_threshold(
    engine: JumpEngine, lam: Fraction, levels: int
) -> ThresholdCertificate | None:
    """Per-level witness check for a threshold candidate; None when refuted.

    The level-e witness is the jump in [p^e*lam - r - K, p^e*lam + K] nearest
    to p^e*lam, the smaller one on a tie.
    """
    check_level(levels, least=1, what="levels")
    lam = Fraction(lam)
    if lam < 0:
        return None
    K = engine.threshold_slack
    num, den = lam.numerator, lam.denominator

    def window(e: int) -> list[int]:
        top = num * engine.p**e  # p^e * lam = top / den
        lo = max(0, -(-top // den) - engine.r - K)
        return sorted(range(lo, top // den + K + 1), key=lambda k: (abs(k * den - top), k))

    jumps = engine.witnesses(levels, window)
    if len(jumps) < levels:
        return None
    return ThresholdCertificate(
        value=lam,
        p=engine.p,
        certified_level=levels,
        witnesses=tuple(ThresholdWitness(e=e, jump=jump) for e, jump in enumerate(jumps, 1)),
        slack=K,
    )


def threshold_candidates(
    engine: JumpEngine, levels: int, interval: tuple[Fraction, Fraction]
) -> list[Fraction]:
    """Candidate rationals spawned from the top-level jump set.

    A level-E jump nu can witness lam only when p^E*lam lies in
    [nu - K, nu + r + K] (slack K, see `verify_threshold`), so each jump spawns
    that window scaled by p^-E, filled with every rational of denominator
    dividing p^c (p^b - 1), c <= E, b <= ceil(E/2) (`padic.grid_periods`).
    Integer translates cover the part of the requested interval above the
    fundamental window.  The windows are gathered as one unsorted set, and the
    candidates are sorted once, after the translates.
    """
    p, r, K = engine.p, engine.r, engine.threshold_slack
    E = check_level(levels, least=1, what="levels")
    lo_cap, hi_cap = check_interval(interval)
    q = p**E
    denominators = grid_denominators(p, E, grid_periods(E))
    base: set[Fraction] = set()
    for nu in engine.jump_set(E):
        lo = max(Fraction(0), Fraction(nu - K, q))
        base |= grid_points(lo, Fraction(nu + r + K, q), denominators)
    # Integer translates lam + s, s >= 0, sweep candidates across the requested interval.
    return sorted(
        {
            lam + s
            for lam in base
            for s in range(max(0, math.ceil(lo_cap - lam)), math.floor(hi_cap - lam) + 1)
        }
    )


def differential_thresholds(
    engine: JumpEngine,
    levels: int = 3,
    interval: tuple[Fraction, Fraction] | None = None,
) -> list[ThresholdCertificate]:
    """Certified differential thresholds in the interval, merged at resolution.

    The interval defaults to [0, r], and the candidates are those of
    `threshold_candidates`, so the level alone sets the grid.  Survivors
    closer together than 2(r + K)/p^E cannot be distinguished at
    certification level E; each such cluster is reported once, through its
    smallest-denominator member.
    """
    if interval is None:
        interval = (Fraction(0), Fraction(engine.r))
    candidates = threshold_candidates(engine, levels, interval)
    verdicts = [verify_threshold(engine, lam, levels) for lam in candidates]
    survivors = [c for c in verdicts if c is not None]
    merge_gap = Fraction(2 * (engine.r + engine.threshold_slack), engine.p**levels)
    clusters: list[list[ThresholdCertificate]] = []
    for cert in survivors:  # the candidates come sorted
        if clusters and cert.value - clusters[-1][-1].value <= merge_gap:
            clusters[-1].append(cert)
        else:
            clusters.append([cert])
    heads = [min(cluster, key=lambda c: (c.value.denominator, c.value)) for cluster in clusters]
    return [
        replace(head, merged=tuple(c.value for c in cluster if c is not head))
        for head, cluster in zip(heads, clusters)
    ]


def fpt(engine: JumpEngine, levels: int = 3) -> ThresholdCertificate | None:
    """The smallest certified differential threshold in [0, r] (None for the unit ideal)."""
    certificates = differential_thresholds(engine, levels)
    return certificates[0] if certificates else None


# -- F-thresholds and Cartier thresholds ------------------------------------------


@dataclass
class ThresholdSequence:
    """nu-values per level with an exact limit when the recurrence locks in."""

    nu: dict[int, int]
    limit: Fraction | None
    bracket: tuple[Fraction, Fraction]
    pattern: tuple[int, int] | None  # (b, const) with nu_{e+b} = p^b nu_e + const

    def csv(self, p: int) -> str:
        lines = ["e,nu,nu_over_pe"]
        for e in sorted(self.nu):
            lines.append(f"{e},{self.nu[e]},{format_rational(Fraction(self.nu[e], p**e))}")
        return "\n".join(lines) + "\n"


def _detect_limit(nu: dict[int, int], p: int, r: int) -> ThresholdSequence:
    levels = sorted(nu)
    E = levels[-1]
    bracket = (Fraction(nu[E], p**E), Fraction(nu[E] + r, p**E))
    for b in range(1, len(levels)):
        pairs = [(e, e + b) for e in levels if e + b in nu]
        if len(pairs) < 2:
            continue
        consts = {nu[hi] - p**b * nu[lo] for lo, hi in pairs}
        if len(consts) == 1:
            const = consts.pop()
            e0 = levels[0]
            limit = Fraction(nu[e0] * (p**b - 1) + const, p**e0 * (p**b - 1))
            return ThresholdSequence(nu=nu, limit=limit, bracket=bracket, pattern=(b, const))
    return ThresholdSequence(nu=nu, limit=None, bracket=bracket, pattern=None)


def f_threshold(a: Ideal, c: Ideal, levels: int = 3) -> ThresholdSequence:
    """The F-threshold data of a with respect to c: nu_e = max{n : a^n not in c^[p^e]}.

    Ideals of a polynomial ring only, where nu_e is also the Cartier-threshold
    sequence max{n : C^e*a^n not in c}; each level is one `nu_invariant`
    search through peeled Cartier roots, and each call checks its
    preconditions again.
    """
    check_level(levels, least=1, what="levels")
    nu = {e: nu_invariant(a, c, e) for e in range(1, levels + 1)}
    return _detect_limit(nu, a.ring.p, a.declared_r)


# Cartier-threshold data: the same sequence on a polynomial ring, by the same route.
cartier_threshold = f_threshold


# -- test ideals and F-jumping numbers ---------------------------------------------


@dataclass
class TestIdealResult:
    ideal: Ideal
    stabilization_level: int
    stabilized: bool

    def __str__(self) -> str:
        flag = "stabilized" if self.stabilized else "NOT stabilized"
        return f"({', '.join(str(g) for g in self.ideal.groebner())}) [{flag} at e={self.stabilization_level}]"


def test_ideal(a: Ideal, lam: Fraction, e_max: int = 4) -> TestIdealResult:
    """tau(a^lam) as the ascending chain C^e * a^(ceil(p^e lam)), e <= e_max.

    The reported ideal is always the top of the computed chain (the chain
    ascends, so that is the sharpest lower bound for tau).  `stabilized` is a
    heuristic, not a certificate: it is set when the last two chain terms
    agree and the agreement starts at a level covering the p-part of the
    denominator of lam, or when the last three agree.  A single agreement
    below that level is not trusted, since the chain can plateau for a step
    and grow again (the exponent 29/20 on (x^2yz, xy^2z, xyz^2) at p = 5
    plateaus at levels 1-2 before jumping at level 3).  A longer plateau can
    still pass: (y^2, x^4) at p = 2 and lam = 2/3 reads (x, y) at levels 3-4
    and is flagged stabilized at e_max = 4, yet the chain reaches (1) at
    level 5, which is tau since 2/3 is below the lct 3/4.
    """
    check_level(e_max, least=1, what="e_max")
    lam = Fraction(lam)
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    ring = a.ring
    unit = Ideal(ring, (ring.one(),))
    if lam == 0 or a.is_unit():
        return TestIdealResult(ideal=unit, stabilization_level=0, stabilized=True)
    p = ring.p
    c_part = 0
    den = lam.denominator
    while den % p == 0:
        den //= p
        c_part += 1
    chain = []
    for e in range(1, e_max + 1):
        n = math.ceil(lam * p**e)
        chain.append(frobenius.eth_root_power(a, n, e))
    for prev, nxt in zip(chain, chain[1:]):
        if not nxt.contains_ideal(prev):
            raise AssertionError("test-ideal chain failed to ascend")
    top = chain[-1]
    level = e_max
    while level > 1 and chain[level - 2] == top:
        level -= 1
    agreements = e_max - level
    # Two agreements at the top, or one that starts beyond the p-part of the
    # denominator (where the ceiling sequence is periodic), count as evidence;
    # a single early agreement can be a plateau and is not trusted.
    stabilized = agreements >= 2 or (agreements >= 1 and level >= c_part + 1)
    return TestIdealResult(ideal=top, stabilization_level=level, stabilized=stabilized)


def f_jumping_numbers(
    a: Ideal,
    interval: tuple[Fraction, Fraction],
    e_max: int = 4,
    b_max: int = 1,
) -> list[Fraction]:
    """F-jumping numbers of a in the closed interval, at grid resolution.

    The candidate grid holds every rational with denominator dividing
    p^c (p^b - 1), c <= max(0, e_max - 3), b <= b_max; tau is piecewise constant
    between consecutive true jumping numbers, so whenever the grid contains
    them all, a jump is reported exactly where tau differs from the previous
    grid point.  A grid point with p-part c in its denominator needs roughly
    c + 3 levels of chain to certify (c to enter the periodic ceiling regime,
    two for agreement, one of slack next to a jump), hence the bound
    e_max - 3 on c.  The zero ideal has none: tau(0^lam) = 0 for every lam > 0.
    """
    check_level(e_max, least=1, what="e_max")
    lo, hi = check_interval(interval)
    if lo < 0:
        raise ValueError("interval must satisfy 0 <= lo <= hi")
    if a.is_zero():
        return []
    denominators = grid_denominators(a.ring.p, max(0, e_max - 3), b_max)
    points = rational_grid(lo, hi, denominators)
    if lo > 0:
        # One comparison point just below the interval: the largest grid point < lo.
        points.insert(0, max(Fraction(math.ceil(lo * d) - 1, d) for d in denominators))
    jumps = []
    # tau(a^0) = (1) seeds the comparison when the interval starts at zero.
    previous_ideal = Ideal(a.ring, (a.ring.one(),)) if lo == 0 else None
    for lam in points:
        tau = test_ideal(a, lam, e_max)
        if not tau.stabilized:
            raise ValueError(f"tau(a^{lam}) did not stabilize by e={e_max}; raise e_max")
        if previous_ideal is not None and lo <= lam <= hi and lam > 0:
            if tau.ideal != previous_ideal:
                jumps.append(lam)
        previous_ideal = tau.ideal
    return jumps


# -- comparison between roots and thresholds ---------------------------------------


@dataclass
class CosetReport:
    passed: bool
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        body = "".join(f"\n  - {line}" for line in self.failures + self.notes)
        return f"coset correspondence: {status}{body}"


def coset_correspondence_check(
    root_values,
    threshold_values,
    r: int,
    p: int,
    f_split: bool = True,
) -> CosetReport:
    """Roots and thresholds determine each other in Z_(p)/Z with bounded offsets.

    Every root alpha must admit a threshold lam with alpha - ceil(alpha) + lam
    in {0..r-1} (alpha not a negative integer) or {1..r} (alpha a negative
    integer); conversely every p-integral threshold must admit a root with
    alpha + lam - floor(lam) in {1-r..0} (lam not an integer) or {-r..0}.
    Valid for F-split presentations only.
    """
    if not f_split:
        raise ValueError(
            "the coset correspondence assumes an F-split presentation"
        )
    roots = sorted(Fraction(v) for v in root_values)
    thresholds = sorted(Fraction(v) for v in threshold_values)
    report = CosetReport(passed=True)
    if not roots and not thresholds:
        report.notes.append("both lists empty; vacuously true")
        return report

    for alpha in roots:
        negative_integer = alpha.denominator == 1 and alpha < 0
        offsets = range(1, r + 1) if negative_integer else range(0, r)
        shift = alpha - math.ceil(alpha)
        ok = any(
            (shift + lam).denominator == 1 and int(shift + lam) in offsets
            for lam in thresholds
        )
        if not ok:
            report.passed = False
            report.failures.append(
                f"root {format_rational(alpha)} has no matching threshold"
                f" (offsets {list(offsets)}); raise the level or widen the interval cap"
            )

    for lam in thresholds:
        if lam < 0 or lam.denominator % p == 0:
            report.notes.append(
                f"threshold {format_rational(lam)} is not p-integral; part (2) does not apply"
            )
            continue
        integer = lam.denominator == 1
        offsets = range(-r, 1) if integer else range(1 - r, 1)
        shift = lam - math.floor(lam)
        ok = any(
            (alpha + shift).denominator == 1 and int(alpha + shift) in offsets
            for alpha in roots
        )
        if not ok:
            report.passed = False
            report.failures.append(
                f"threshold {format_rational(lam)} has no matching root"
                f" (offsets {list(offsets)}); raise the level or widen the interval cap"
            )
    return report
