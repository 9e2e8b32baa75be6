"""Bernstein-Sato root detection over F_p.

A p-adic integer alpha is a root of a exactly when, for every level e, some
s in {0, ..., r-1} makes truncation(alpha, e) + s*p^e a level-e differential
jump.  A failure at one level is a proof that alpha is not a root (the failure
propagates upward), so refutations are sound; survivors are reported as
"certified to level E" since no effective bound on E is available.  Every
entry point takes a `JumpEngine` (see `rings.jump_engine`), so the labels one
check computes are reused by the next check on the same engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .padic import (
    PAdicRational, check_interval, check_level, format_rational, grid_denominators, rational_grid
)
from .rings import JumpEngine


@dataclass(frozen=True)
class RootWitness:
    e: int
    s: int
    jump: int  # truncation + s * p^e, an element of the level-e jump set


@dataclass(frozen=True)
class RootCertificate:
    candidate: Fraction
    p: int
    certified_level: int
    witnesses: tuple[RootWitness, ...]

    def to_dict(self) -> dict:
        return {
            "num": self.candidate.numerator,
            "den": self.candidate.denominator,
            "certified_level": self.certified_level,
            "witnesses": [
                {"e": w.e, "s": w.s, "jump": w.jump} for w in self.witnesses
            ],
        }

    def __str__(self) -> str:
        return f"{format_rational(self.candidate)} (certified to level {self.certified_level})"


@dataclass(frozen=True)
class RootRefutation:
    candidate: Fraction
    p: int
    failed_level: int
    checked: tuple[int, ...]  # the window values truncation + s*p^e that all failed

    def __str__(self) -> str:
        return f"{format_rational(self.candidate)} refuted at level {self.failed_level}"


def enumerate_candidates(
    p: int, denominator_bound: int, interval: tuple[Fraction, Fraction]
) -> list[Fraction]:
    """All reduced alpha in the interval with (p^b - 1)*alpha integral, b <= bound."""
    if denominator_bound < 1:
        raise ValueError("denominator bound must be >= 1")
    lo, hi = check_interval(interval)
    return rational_grid(lo, hi, grid_denominators(p, 0, denominator_bound))


def verify_root_to_level(
    engine: JumpEngine, alpha: Fraction, levels: int
) -> RootCertificate | RootRefutation:
    """Check the per-level witness condition for e = 1..levels.

    Level 0 is omitted: its condition (some s < r with a^s != a^(s+1)) holds
    for every proper nonzero ideal handled here and never discriminates.
    """
    check_level(levels, least=1, what="levels")
    padic = PAdicRational(Fraction(alpha), engine.p)
    witnesses = []
    for e in range(1, levels + 1):
        q = engine.p**e
        t = padic.truncation(e)
        window = [t + s * q for s in range(engine.r)]
        jump = engine.first_jump(window, e)
        if jump is None:
            return RootRefutation(
                candidate=padic.value, p=engine.p, failed_level=e, checked=tuple(window)
            )
        witnesses.append(RootWitness(e=e, s=(jump - t) // q, jump=jump))
    return RootCertificate(
        candidate=padic.value,
        p=engine.p,
        certified_level=levels,
        witnesses=tuple(witnesses),
    )


def bernstein_sato_roots(
    engine: JumpEngine,
    levels: int = 3,
    denominator_bound: int | None = None,
    interval: tuple[Fraction, Fraction] | None = None,
) -> list[RootCertificate]:
    """All enumerated candidates that survive verification to the given level.

    Defaults: the interval is [-r, 0] for F-split-certified presentations and
    [-r, r] otherwise, except that the artinian catalog ring K[x]/(x^(n+1)),
    whose sole root is n, uses [0, n]; the denominator bound is
    ceil(levels / 2) so a candidate shows at least two full periods.
    """
    check_level(levels, least=1, what="levels")
    if interval is None:
        interval = engine.default_root_interval()
    if denominator_bound is None:
        denominator_bound = max(1, (levels + 1) // 2)
    candidates = enumerate_candidates(engine.p, denominator_bound, interval)
    verdicts = [verify_root_to_level(engine, a, levels) for a in candidates]
    return [v for v in verdicts if isinstance(v, RootCertificate)]


@dataclass
class AdmissibilityReport:
    """Level-by-level jump counts in the fundamental window and a growth verdict."""

    r: int
    counts: dict[int, int] = field(default_factory=dict)
    bound_fit: tuple[Fraction, Fraction] | None = None
    verdict: str = "consistent_with_admissible"

    def to_dict(self) -> dict:
        return {
            "r": self.r,
            "counts": {str(e): c for e, c in sorted(self.counts.items())},
            "bound_fit": None
            if self.bound_fit is None
            else [format_rational(self.bound_fit[0]), format_rational(self.bound_fit[1])],
            "verdict": self.verdict,
        }


def admissibility_report(engine: JumpEngine, levels: int = 3) -> AdmissibilityReport:
    """Jump counts per level; flags growth incompatible with a uniform bound.

    Bernstein-Sato admissibility demands #(jumps in [0, r*p^e)) <= C for all e;
    on a finite level range the honest verdicts are "consistent" (counts
    bounded by their maximum, reported as the fitted constant) or
    "growth_detected" (counts strictly increase across every observed step).
    """
    check_level(levels, least=1, what="levels")
    report = AdmissibilityReport(r=engine.r)
    for e in range(1, levels + 1):
        report.counts[e] = len(engine.jump_set(e))
    values = [report.counts[e] for e in sorted(report.counts)]
    if len(values) >= 2 and all(b > a for a, b in zip(values, values[1:])):
        report.verdict = "growth_detected"
        # Fitted linear form A*(s/p^e) + B through the last two window counts,
        # with s = r*p^e so the slope rides on r.
        growth = Fraction(values[-1] - values[-2], engine.r)
        report.bound_fit = (growth, Fraction(values[-1]) - growth * engine.r)
    else:
        report.bound_fit = (Fraction(0), Fraction(max(values, default=0)))
    return report
