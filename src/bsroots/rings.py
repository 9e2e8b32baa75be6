"""Ring presentations and their differential-jump engines.

One class per ring kind.  Each declares the keys of its declaration in KEYS
(key -> reader of its value, in the order of its constructor's arguments;
every number goes through `padic.parse_integer`), parses ideal text with
`parse_ideal`, and builds the jump engine of an ideal it parsed with `engine`,
refusing any other.  A new kind adds one such class and one entry in the
`{head: class}` table of `parse_ring_declaration`.

`parse_ideal` parses in the coordinate ring, built once per presentation, with
`PolyRing.parse_ideal` (or its unpacked `parse_ideal_terms`, whose exponents
no field width bounds), then checks membership: Veronese terms of degree in
dZ, monic monomials x^s with s in S, or the catalog ring's fixed element alone.

Four kinds of presentation are supported:

* polynomial rings over F_p (the regular engine: Cartier-root comparisons);
* Veronese subrings of a polynomial ring in two or more variables, which are
  level-differentially extensible direct summands of it: the regular engine
  runs on the extended ideal in the ambient ring, and its jump sets are
  exactly those of the subring;
* numerical semigroup rings K[x^s : s in S] (graded endomorphism enumeration
  over the subring of p^e-th powers);
* a small catalog of named rings with a fixed element: the monomial
  quotients K[x,y]/(xy) with f = x and K[x]/(x^(n+1)) with f = x (the colon
  formula of `MonomialQuotientEngine`), and the cusp K[x^2,x^3] with f = x^2
  (the semigroup engine on <2,3>).

Every engine exposes canonical labels for the ideals D^(e) * a^n, from which
jump sets, single-jump queries and the per-level witness search of roots and
thresholds (`JumpEngine.witnesses`) are derived; the labels are computed, and
each is kept per (n, e) by `JumpEngine.d_label`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from . import frobenius
from .padic import check_level, check_prime, parse_integer
from .polyring import Ideal, ParseError, PolyRing, minimal_monomials


# -- numerical semigroups -------------------------------------------------------


class NumericalSemigroup:
    """A cofinite additive subsemigroup of Z>=0, given by generators with gcd 1.

    Equal generator sets give equal semigroups.  By Schur's bound (Brauer,
    Amer. J. Math. 1942) the Frobenius number is at most
    (g_1 - 1)(g_k - 1) - 1 for the least and largest generators g_1 and g_k,
    so one reachability table up to g_1 * g_k decides the conductor.  The
    admissible shift tables of `shift_generators` are kept per (q, j) on the
    semigroup and live as long as it does.
    """

    def __init__(self, generators):
        gens = sorted(set(int(g) for g in generators))
        if not gens or gens[0] <= 0:
            raise ValueError("semigroup generators must be positive integers")
        g = 0
        for x in gens:
            g = gcd(g, x)
        if g != 1:
            raise ValueError(f"generators {gens} have gcd {g}; no finite conductor")
        self.generators = tuple(gens)
        table = [True] + [False] * (gens[0] * gens[-1])
        for g in gens:  # close under adding g, one generator after another
            for s in range(len(table) - g):
                if table[s]:
                    table[s + g] = True
        self.conductor = max((s + 1 for s, member in enumerate(table) if not member), default=0)
        self._table = table[: self.conductor]
        self._shifts: dict[tuple[int, int], tuple[int, ...]] = {}

    def __eq__(self, other) -> bool:
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self.generators == other.generators

    def __hash__(self) -> int:
        return hash(self.generators)

    def __contains__(self, s: int) -> bool:
        if s < 0:
            return False
        if s >= self.conductor:
            return True
        return self._table[s]

    def gaps(self) -> list[int]:
        return [s for s in range(self.conductor) if not self._table[s]]

    def apery(self, q: int) -> list[int]:
        """The least element of S in each residue class mod q."""
        out = []
        for j in range(q):
            s = j
            while s not in self:
                s += q
            out.append(s)
        return out

    def shift_generators(self, q: int, j: int) -> tuple[int, ...]:
        """Minimal degree shifts d that keep every s in S with s = j (mod q) inside S.

        x^s -> x^(s+d) on the class of j extends to an endomorphism over the
        subring of q-th powers iff s + d lies in S for every s of S in the
        class; beyond the conductor (plus slack for negative d) this is
        automatic.  Computed when first asked and kept per (q, j).
        """
        shifts = self._shifts.get((q, j))
        if shifts is not None:
            return shifts
        c = self.conductor
        least = j
        while least not in self:
            least += q
        admissible = []
        d = -least
        while not admissible or d <= admissible[0] + c:
            if all(s + d in self for s in range(least, c + max(0, -d), q) if s in self):
                admissible.append(d)
            d += 1
        gens: list[int] = []
        for d in admissible:
            if not any(d - g in self for g in gens):
                gens.append(d)
        shifts = self._shifts[(q, j)] = tuple(gens)
        return shifts

    def __repr__(self) -> str:
        return f"NumericalSemigroup{self.generators}"


def minimal_semigroup_exponents(S: NumericalSemigroup, exponents) -> frozenset:
    """Minimal generators of the semigroup ideal spanned by the exponents."""
    exps = sorted(set(exponents))
    kept: list[int] = []
    for t in exps:
        if not any((t - k) in S for k in kept):
            kept.append(t)
    return frozenset(kept)


@dataclass(frozen=True)
class SemigroupIdeal:
    """A monomial ideal of K[x^s : s in S], stored by minimal exponents."""

    semigroup: NumericalSemigroup
    exponents: frozenset

    @staticmethod
    def from_exponents(S: NumericalSemigroup, exponents) -> "SemigroupIdeal":
        exps = tuple(int(x) for x in exponents)
        for x in exps:
            if x not in S:
                raise ValueError(f"exponent {x} is not in the semigroup {S}")
        return SemigroupIdeal(S, minimal_semigroup_exponents(S, exps))

    @property
    def declared_r(self) -> int:
        return max(1, len(self.exponents))

    def is_unit(self) -> bool:
        return 0 in self.exponents


# -- presentations --------------------------------------------------------------


def _comma_list(text: str) -> tuple[str, ...]:
    return tuple(text.split(","))


@dataclass(frozen=True)
class PolynomialRingPresentation:
    KEYS = {"p": parse_integer, "vars": _comma_list}

    p: int
    variables: tuple[str, ...]
    ring: PolyRing = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "ring", PolyRing(self.p, self.variables))

    def parse_ideal(self, text: str) -> Ideal:
        return self.ring.parse_ideal(text)

    def engine(self, ideal: Ideal) -> JumpEngine:
        if not isinstance(ideal, Ideal):
            raise TypeError("polynomial presentations need an Ideal")
        if ideal.ring != self.ring:
            raise ValueError(f"the ideal lies in {ideal.ring}, not in {self.ring}")
        return RegularJumpEngine(ideal)


@dataclass(frozen=True)
class VeronesePresentation:
    """The degree-d Veronese subring R of S = F_p[vars]: monomials of total degree in dZ.

    In two or more variables R is a level-differentially extensible direct
    summand of S (example 9.3), so (R, a) and (S, aS) have the same jump sets
    and the engine runs on aS.  F_p[x^d] is not: (x^d) jumps at ceil(q/d) - 1
    in F_p[x] but not in F_p[x^d], so one variable takes degree 1 only.
    """

    KEYS = {"p": parse_integer, "vars": _comma_list, "degree": parse_integer}

    p: int
    variables: tuple[str, ...]
    degree: int
    ambient: PolyRing = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_prime(self.p)
        object.__setattr__(self, "variables", tuple(self.variables))
        if self.degree < 1:
            raise ValueError(f"Veronese degree must be at least 1, got {self.degree}")
        object.__setattr__(self, "ambient", PolyRing(self.p, self.variables))
        if self.degree > 1 and len(self.variables) == 1:
            raise ValueError("F_p[x^d] is a polynomial ring; declare it with poly")

    def parse_ideal(self, text: str) -> Ideal:
        return self._inside(self.ambient.parse_ideal(text))

    def engine(self, ideal: Ideal) -> JumpEngine:
        if not isinstance(ideal, Ideal) or ideal.ring != self.ambient:
            raise ValueError("ideal must be written in the ambient coordinates")
        return RegularJumpEngine(self._inside(ideal), producer="summand")

    def _inside(self, ideal: Ideal) -> Ideal:
        """The ideal itself, once each term of each generator has degree in dZ."""
        for g in ideal.generators:
            for mono, _ in g.terms:
                if sum(mono) % self.degree:
                    raise ParseError(
                        f"monomial {mono} of {g} lies outside the subalgebra"
                    )
        return ideal


@dataclass(frozen=True)
class SemigroupRingPresentation:
    KEYS = {"p": parse_integer, "gens": lambda text: tuple(map(parse_integer, text.split(",")))}

    p: int
    semigroup_generators: tuple[int, ...]
    semigroup: NumericalSemigroup = field(init=False, repr=False, compare=False)
    ring: PolyRing = field(init=False, repr=False, compare=False)  # F_p[x], holding K[S]

    def __post_init__(self):
        check_prime(self.p)
        object.__setattr__(
            self, "semigroup_generators", tuple(int(g) for g in self.semigroup_generators)
        )
        object.__setattr__(self, "semigroup", NumericalSemigroup(self.semigroup_generators))
        object.__setattr__(self, "ring", PolyRing(self.p, ("x",)))

    def parse_ideal(self, text: str) -> SemigroupIdeal:
        """The ideal of K[S] spanned by monic monomials x^s of F_p[x], each s in S."""
        exps = []
        for terms in self.ring.parse_ideal_terms(text):
            if len(terms) != 1 or 1 not in terms.values():  # one term, coefficient 1
                raise ParseError(f"expected monic monomials in x, got {text!r}")
            (mono,) = terms
            exps.append(mono[0])
        return SemigroupIdeal.from_exponents(self.semigroup, exps)

    def engine(self, ideal: SemigroupIdeal) -> JumpEngine:
        if not isinstance(ideal, SemigroupIdeal):
            raise TypeError("semigroup presentations need a SemigroupIdeal")
        if ideal.semigroup != self.semigroup:
            raise ValueError(f"the ideal lies over {ideal.semigroup}, not {self.semigroup}")
        return SemigroupJumpEngine(self.p, ideal)


# word -> (its variables, its fixed element, the engine of (ring, n)); only
# artinian_x_pow takes n.
_CATALOG = {
    # Slack 0: the squarefree (xy) gives a Stanley-Reisner ring, which is F-split.
    "cross_xy": (
        ("x", "y"),
        "x",
        lambda ring, n: MonomialQuotientEngine(ring, ((1, 1),), (1, 0), 0),
    ),
    "cusp_semigroup": (
        ("x",),
        "x^2",
        lambda ring, n: SemigroupJumpEngine(
            ring.p, SemigroupIdeal.from_exponents(NumericalSemigroup((2, 3)), (2,)), "catalog"
        ),
    ),
    # The sole root of K[x]/(x^(n+1)) is n itself: jump sets stabilize to {n}.
    # Slack n >= 1: the quotient is not reduced, so it is not F-split.
    "artinian_x_pow": (
        ("x",),
        "x",
        lambda ring, n: MonomialQuotientEngine(
            ring, ((n + 1,),), (1,), n, (Fraction(0), Fraction(n))
        ),
    ),
}


@dataclass(frozen=True)
class CatalogPresentation:
    """A named singular ring with a fixed element; its labels are computed.

    cross_xy:        K[x,y]/(xy), fixed element x (colon formula)
    cusp_semigroup:  K[x^2,x^3], fixed element x^2 (semigroup engine on <2,3>)
    artinian_x_pow:  K[x]/(x^(n+1)), fixed element x, parameter n (colon formula)

    The kind may carry its parameter as a declaration writes it, as in
    `artinian_x_pow(4)` or `artinian_x_pow(n=4)`.
    """

    KEYS = {"p": parse_integer, None: str}  # None: the bare word that names the ring

    p: int
    kind: str
    n: int | None = None
    ring: PolyRing = field(init=False, repr=False, compare=False)  # the ambient ring
    element: list = field(init=False, repr=False, compare=False)  # the fixed element's terms

    def __post_init__(self):
        check_prime(self.p)
        word = re.fullmatch(r"(\w+)\((?:n=)?([0-9]+)\)", self.kind)
        if word and self.n is None:
            object.__setattr__(self, "kind", word[1])
            object.__setattr__(self, "n", int(word[2]))
        if self.kind not in _CATALOG:
            raise ValueError(f"unknown catalog ring {self.kind!r}")
        if self.kind == "artinian_x_pow":
            if self.n is None or self.n < 1:
                raise ValueError("artinian_x_pow needs a parameter n >= 1")
        elif self.n is not None:
            raise ValueError(f"{self.kind} takes no parameter")
        object.__setattr__(self, "ring", PolyRing(self.p, _CATALOG[self.kind][0]))
        object.__setattr__(self, "element", self.ring.parse_ideal_terms(_CATALOG[self.kind][1]))

    def parse_ideal(self, text: str | None) -> str:
        """The fixed element, when the text is absent or blank or lists that element alone."""
        expected = _CATALOG[self.kind][1]
        if text is not None and text.strip() and self.ring.parse_ideal_terms(text) != self.element:
            raise ParseError(f"{self.kind} is declared with the element {expected!r} only")
        return expected

    def engine(self, element: str) -> JumpEngine:
        self.parse_ideal(element)
        return _CATALOG[self.kind][2](self.ring, self.n)


Presentation = (
    PolynomialRingPresentation
    | VeronesePresentation
    | SemigroupRingPresentation
    | CatalogPresentation
)


# declaration head -> its presentation class
_PRESENTATIONS = {
    "poly": PolynomialRingPresentation,
    "veronese": VeronesePresentation,
    "semigroup": SemigroupRingPresentation,
    "catalog": CatalogPresentation,
}


def parse_ring_declaration(text: str) -> Presentation:
    """Parse declarations like `poly p=5 vars=x,y` or `catalog cross_xy p=3`.

    The head names the presentation class.  The class reads the value of each
    key of its KEYS, in that order, into its constructor; a bare word stands
    under the key None.  A key the class does not take, a repeated key, an
    extra word or a missing key is refused rather than ignored.
    """
    parts = text.split()
    if not parts:
        raise ParseError("empty ring declaration")
    cls = _PRESENTATIONS.get(parts[0])
    if cls is None:
        raise ParseError(f"unknown ring declaration {parts[0]!r}")
    values = {}
    for item in parts[1:]:
        key, eq, value = item.partition("=")
        if not eq or "(" in key:  # `artinian_x_pow(n=2)` is a word, not a key
            key, value = None, item
        if key not in cls.KEYS or key in values:
            raise ParseError(f"ring declaration {text!r} cannot take {item!r}")
        values[key] = value
    for key in cls.KEYS:
        if key not in values:
            what = "a ring name" if key is None else f"{key}="
            raise ParseError(f"ring declaration {text!r} is missing {what}")
    try:
        return cls(*(read(values[key]) for key, read in cls.KEYS.items()))
    except ValueError as exc:
        raise ParseError(f"bad ring declaration {text!r}: {exc}") from exc


# -- semigroup differential closure ----------------------------------------------


def semigroup_diff_closure(
    S: NumericalSemigroup, ideal: SemigroupIdeal, e: int, p: int
) -> SemigroupIdeal:
    """D^(e) * ideal as a semigroup ideal (union over the minimal exponents)."""
    q = p ** check_level(e)
    out = [m + d for m in ideal.exponents for d in S.shift_generators(q, m % q) if m + d >= 0]
    return SemigroupIdeal(S, minimal_semigroup_exponents(S, out))


# -- jump engines ----------------------------------------------------------------


class JumpEngine:
    """Canonical labels for D^(e)*a^n plus jump queries derived from them.

    An engine that computes labels calls `JumpEngine.__init__` and supplies
    `_compute_label`; `d_label` keeps each label per (n, e), since jump sets,
    jump queries and candidate checks ask for the same labels many times.
    """

    p: int
    r: int
    threshold_slack: int
    producer: str

    def __init__(self):
        self._labels: dict[tuple[int, int], object] = {}

    def d_label(self, n: int, e: int):
        key = (n, e)
        label = self._labels.get(key)
        if label is None:
            label = self._labels[key] = self._compute_label(n, e)
        return label

    def _compute_label(self, n: int, e: int):
        raise NotImplementedError

    def is_jump(self, n: int, e: int) -> bool:
        """Whether n (any integer) is a level-e jump: the labels of n and n + 1 differ."""
        if n < 0:
            check_level(e)  # for n >= 0 the label computation checks it
            return False
        return self.d_label(n, e) != self.d_label(n + 1, e)

    def witnesses(self, levels: int, window) -> list[int]:
        """Per level e = 1, 2, ..., levels, the first key of window(e) that is a level-e jump.

        Keys are tried in the order window(e) gives them.  The search stops at
        the first level whose window holds no jump, so a list shorter than
        `levels` is a refutation at level len + 1.  Only the labels of the keys
        visited (and of their successors) are computed.
        """
        found: list[int] = []
        for e in range(1, levels + 1):
            jump = next((k for k in window(e) if self.is_jump(k, e)), None)
            if jump is None:
                break
            found.append(jump)
        return found

    def jump_set(self, e: int) -> tuple[int, ...]:
        """Sorted level-e jumps inside the fundamental window [0, r*p^e)."""
        hi = self.r * self.p ** check_level(e)
        labels = [self.d_label(n, e) for n in range(hi + 1)]
        return tuple(n for n in range(hi) if labels[n] != labels[n + 1])

    @property
    def f_split_certified(self) -> bool:
        """Every engine here is certified F-split exactly when its threshold slack is 0."""
        return self.threshold_slack == 0

    def default_root_interval(self) -> tuple[Fraction, Fraction]:
        if self.f_split_certified:
            return (Fraction(-self.r), Fraction(0))
        return (Fraction(-self.r), Fraction(self.r))


class RegularJumpEngine(JumpEngine):
    """Polynomial-ring engine: D-ideal comparisons via Cartier roots.

    For a regular ring, D^(e)*a = D^(e)*b exactly when C^e*a = C^e*b, so the
    canonical label of D^(e)*a^n is the reduced basis of C^e*a^n.
    """

    producer = "regular"
    threshold_slack = 0

    def __init__(self, ideal: Ideal, producer: str = "regular"):
        super().__init__()
        self.ideal = ideal
        self.p = ideal.ring.p
        self.r = ideal.declared_r
        self.producer = producer

    def _compute_label(self, n: int, e: int):
        return frobenius.eth_root_power(self.ideal, n, e).canonical_label()


class SemigroupJumpEngine(JumpEngine):
    def __init__(self, p: int, ideal: SemigroupIdeal, producer: str = "semigroup"):
        super().__init__()
        self.p = p
        self.producer = producer
        self.S = ideal.semigroup
        self.ideal = ideal
        self.r = ideal.declared_r
        # F-split would force all Bernstein-Sato roots into [-r, 0]; the only
        # semigroup ring certified F-split (slack 0) is the polynomial ring S = <1>.
        self.threshold_slack = self.S.conductor
        self._powers: list[frozenset] = [frozenset({0})]  # a^0, a^1, ... by exponents

    def _power_exponents(self, n: int) -> frozenset:
        powers = self._powers
        while len(powers) <= n:
            exps = {a + b for a in powers[-1] for b in self.ideal.exponents}
            powers.append(minimal_semigroup_exponents(self.S, exps))
        return powers[n]

    def _compute_label(self, n: int, e: int):
        power = SemigroupIdeal(self.S, self._power_exponents(n))
        return semigroup_diff_closure(self.S, power, e, self.p).exponents


class MonomialQuotientEngine(JumpEngine):
    """F_p[x_1..x_k]/I for a monomial ideal I, with a = (x^b): the colon formula.

    D^(e) of S/I is the set of D^(e)_S-maps that preserve I, modulo those
    into I (Fedder, Trans. AMS 1983).  Such a map sends x^m, m = q*u + mu with
    mu = m mod q, to x^(q*u + t), and it preserves I iff x^(q*c_g + t) lies in
    I for every minimal generator g of I, where c_g = ceil((g - mu)^+ / q).
    Hence D^(e)*x^m = I + x^(q*u) * (intersection over g of I : x^(q*c_g)),
    and the label is its set of minimal exponent vectors.  S is the given
    PolyRing; the colons and intersections run on its packed monomials.
    """

    producer = "catalog"
    r = 1

    def __init__(
        self,
        ring: PolyRing,
        relations: tuple[tuple[int, ...], ...],
        element: tuple[int, ...],
        threshold_slack: int,
        root_interval: tuple[Fraction, Fraction] | None = None,
    ):
        super().__init__()
        self.ring = ring
        self.p = ring.p
        self.relations = relations
        self._packed_relations = [ring.pack(g) for g in relations]
        self.element = element
        self.threshold_slack = threshold_slack
        self.root_interval = root_interval

    def default_root_interval(self) -> tuple[Fraction, Fraction]:
        return self.root_interval or super().default_root_interval()

    def _compute_label(self, n: int, e: int):
        ring, relations = self.ring, self._packed_relations
        q, zero = self.p ** check_level(e), ring.zero_monomial
        m = [n * b for b in self.element]
        mu = [c % q for c in m]
        shifts = [zero]  # the intersection of the colons, from the unit ideal
        for g in self.relations:
            c = ring.pack([q * -(-max(0, gi - ui) // q) for gi, ui in zip(g, mu)])
            colon = [ring.lcm(h, c) - c + zero for h in relations]  # I : x^c
            shifts = minimal_monomials(ring, (ring.lcm(s, t) for s in shifts for t in colon))
        base = ring.pack([mi - ui for mi, ui in zip(m, mu)]) - zero
        gens = [base + s for s in shifts]
        ring.check_width(gens)
        return tuple(sorted(map(ring.unpack, minimal_monomials(ring, [*gens, *relations]))))


def jump_engine(presentation: Presentation, ideal) -> JumpEngine:
    """The jump engine of a presentation and an ideal (or element) it parsed."""
    return presentation.engine(ideal)
