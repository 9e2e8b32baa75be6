"""Differential thresholds, F-thresholds, test ideals and F-jumping numbers.

A differential threshold is a limit of jumps scaled by p^-e.  For F-split
presentations the per-level witness condition is a jump inside
[p^e*lam - r, p^e*lam]; for the non-F-split engines the detector falls back to
the definition and asks for jumps within a fixed slack K of p^e*lam (the
witnessed sequence then converges at rate (r+K)/p^e).  `verify_threshold`
walks that window nearest-first (`nearest_first`) and builds the
certificate; the level loop is the engine's witness search
(`JumpEngine.witnesses`), which roots share.  Candidates are spawned,
translated and sorted as integer numerators over the grid's lcm L (see
`padic.integer_grid`) and made Fractions once; each is verified once, and
surviving certificates closer than the level-E resolution are merged, by
integer differences over L, into the simplest member's.  The differential
detectors take a `JumpEngine` (see `rings.jump_engine`), so thresholds, roots
and jump sets of one pair share its labels.

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
    check_interval, check_level, format_rational, grid_denominators, grid_periods, integer_grid,
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


def nearest_first(top: int, den: int, lo: int, hi: int):
    """The keys of [lo, hi] by distance to top/den (den > 0), the smaller key on a tie.

    One walk goes down from floor(top/den) and one up from the key above it;
    each step yields the nearer of the two heads, so nothing is listed or
    sorted and a search that stops early visits only what it takes.
    """
    down = min(top // den, hi)
    up = max(down + 1, lo)
    while down >= lo or up <= hi:
        if up > hi or (down >= lo and top - down * den <= up * den - top):
            yield down
            down -= 1
        else:
            yield up
            up += 1


def verify_threshold(
    engine: JumpEngine, lam: Fraction, levels: int
) -> ThresholdCertificate | None:
    """Per-level witness check for a threshold candidate; None when refuted.

    The level-e witness is the jump in [p^e*lam - r - K, p^e*lam + K] nearest
    to p^e*lam, the smaller one on a tie; the window is walked nearest-first.
    """
    check_level(levels, least=1, what="levels")
    lam = Fraction(lam)
    if lam.numerator < 0:
        return None
    p, r, K = engine.p, engine.r, engine.threshold_slack
    num, den = lam.numerator, lam.denominator

    def window(e: int):
        top = num * p**e  # p^e * lam = top / den
        return nearest_first(top, den, max(0, -(-top // den) - r - K), top // den + K)

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
    """Candidate rationals spawned from the top-level jump set, sorted.

    A level-E jump nu can witness lam only when p^E*lam lies in
    [nu - K, nu + r + K] (slack K, see `verify_threshold`), so each jump spawns
    that window scaled by p^-E, filled with every rational of denominator
    dividing p^c (p^b - 1), c <= E, b <= ceil(E/2) (`padic.grid_periods`).
    Integer translates cover the part of the requested interval above the
    fundamental window.  Everything runs on numerators over the lcm L of the
    grid's denominators, which p^E divides: a window becomes an integer range,
    its translates by s*L are clipped to the interval, and `padic.integer_grid`
    fills them, deduped and sorted; each candidate becomes a Fraction once.
    """
    p, r, K = engine.p, engine.r, engine.threshold_slack
    E = check_level(levels, least=1, what="levels")
    lo_cap, hi_cap = check_interval(interval)
    denominators = grid_denominators(p, E, grid_periods(E))
    scale = math.lcm(*denominators)
    unit = scale // p**E
    lo_n, hi_n = math.ceil(lo_cap * scale), math.floor(hi_cap * scale)
    windows = []
    for nu in engine.jump_set(E):
        a, b = max(0, nu - K) * unit, (nu + r + K) * unit
        # The translates by s*scale, s >= 0, that meet [lo_n, hi_n].
        windows += [
            (max(lo_n, a + s * scale), min(hi_n, b + s * scale))
            for s in range(max(0, -((b - lo_n) // scale)), (hi_n - a) // scale + 1)
        ]
    return [Fraction(n, scale) for n in integer_grid(windows, denominators, scale)]


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
    smallest-denominator member (the smaller value on a tie).  Clusters are
    cut on integers: each survivor is its numerator n over the grid's lcm L,
    and the gap 2(r + K)/p^E is 2(r + K)*L/p^E, an integer.
    """
    if interval is None:
        interval = (Fraction(0), Fraction(engine.r))
    candidates = threshold_candidates(engine, levels, interval)
    verdicts = [verify_threshold(engine, lam, levels) for lam in candidates]
    survivors = [c for c in verdicts if c is not None]
    scale = math.lcm(*grid_denominators(engine.p, levels, grid_periods(levels)))
    merge_gap = 2 * (engine.r + engine.threshold_slack) * scale // engine.p**levels
    clusters: list[list[ThresholdCertificate]] = []
    last = 0
    for cert in survivors:  # the candidates come sorted
        n = cert.value.numerator * (scale // cert.value.denominator)  # value = n / scale
        if clusters and n - last <= merge_gap:
            clusters[-1].append(cert)
        else:
            clusters.append([cert])
        last = n
    # Equal denominators order by numerator as by value.
    heads = [
        min(cluster, key=lambda c: (c.value.denominator, c.value.numerator))
        for cluster in clusters
    ]
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
    """nu-values per level, the last level's bracket and a guessed `limit`.

    `limit` is the fixed point of an affine recurrence that `_detect_limit`
    reads off as few as two level pairs; it is a guess, not a certified
    value, and None when no recurrence fits.
    """

    nu: dict[int, int]
    limit: Fraction | None
    bracket: tuple[Fraction, Fraction]

    def csv(self, p: int) -> str:
        lines = ["e,nu,nu_over_pe"]
        for e in sorted(self.nu):
            lines.append(f"{e},{self.nu[e]},{format_rational(Fraction(self.nu[e], p**e))}")
        return "\n".join(lines) + "\n"


def _detect_limit(nu: dict[int, int], p: int, r: int) -> ThresholdSequence:
    """The sequence with the bracket (nu_E/p^E, (nu_E + r)/p^E) of its last level E.

    For the first period b = 1, 2, ... with at least two level pairs
    (e, e + b) on which nu_(e+b) - p^b nu_e is one constant, the recurrence is
    taken to hold at every level and its fixed point becomes `limit`.  Two
    pairs do not prove that: x^5 against x^3 over F_2 at three levels has
    nu = 1, 2, 4 and gets the limit 1/2, while nu_e = ceil(3 * 2^e / 5) - 1
    and the F-threshold is 3/5.
    """
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
            return ThresholdSequence(nu=nu, limit=limit, bracket=bracket)
    return ThresholdSequence(nu=nu, limit=None, bracket=bracket)


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


def coset_correspondence_check(root_values, threshold_values, r: int, p: int) -> CosetReport:
    """Roots and thresholds determine each other in Z_(p)/Z with bounded offsets.

    One partner rule runs both ways: a value passes when shift + partner is
    an integer in its offsets for some partner.  A root alpha has the shift
    alpha - ceil(alpha), the thresholds as partners and the offsets {1..r}
    (alpha a negative integer) or {0..r-1}; a p-integral threshold lam has
    the shift lam - floor(lam), the roots as partners and the offsets {-r..0}
    (lam an integer) or {1-r..0}.  Valid for F-split presentations only.
    """
    roots = sorted(Fraction(v) for v in root_values)
    thresholds = sorted(Fraction(v) for v in threshold_values)
    report = CosetReport(passed=True)
    if not roots and not thresholds:
        report.notes.append("both lists empty; vacuously true")
        return report
    checks = []  # (what lacks a partner, its shift, the offsets of shift + partner, the partners)
    for alpha in roots:
        offsets = range(1, r + 1) if alpha.denominator == 1 and alpha < 0 else range(r)
        checks.append((f"root {format_rational(alpha)} has no matching threshold",
                       alpha - math.ceil(alpha), offsets, thresholds))
    for lam in thresholds:
        if lam < 0 or lam.denominator % p == 0:
            report.notes.append(
                f"threshold {format_rational(lam)} is not p-integral; part (2) does not apply"
            )
            continue
        offsets = range(-r, 1) if lam.denominator == 1 else range(1 - r, 1)
        checks.append((f"threshold {format_rational(lam)} has no matching root",
                       lam - math.floor(lam), offsets, roots))
    for claim, shift, offsets, partners in checks:
        if not any((shift + x).denominator == 1 and int(shift + x) in offsets for x in partners):
            report.passed = False
            report.failures.append(
                f"{claim} (offsets {list(offsets)}); raise the level or widen the interval cap"
            )
    return report
