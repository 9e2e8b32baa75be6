"""Sparse multivariate polynomials over F_p, ideals and Groebner bases.

The term order is fixed globally to degrevlex with the variable order taken
from the ring declaration, so every ideal has one reduced Groebner basis and
every printed object is byte-stable.

Monomial ideals are handled as sets of exponent tuples from end to end: they
are built in one place, `_monomial_ideal`, which minimalizes the exponents
once and keeps the minimal monomials as both the generators and the reduced
Groebner basis.  Products of monomial ideals are Minkowski sums of exponent
sets, and their Cartier roots (`frobenius.eth_root`) floor-divide exponents,
so neither builds a polynomial product nor runs Buchberger.

Other ideals go through the Groebner kernel.  `_buchberger` prunes pairs with
the Gebauer-Moller update as each basis element is added, and pops the
remaining pairs from a heap ordered by lcm.  `_reduce_full` keeps its pending
monomials in a heap; its lead-only mode stops at the first irreducible term,
which is all a membership test, an interreduction or an S-pair needs.
`Ideal.product` multiplies a factor's reduced basis only when it is already
cached and no longer than the generator list.

A degree-bounded linear-algebra membership routine (`linear_membership`) is
kept alongside the Groebner route as an independent test oracle.
"""

from __future__ import annotations

import heapq

from .padic import check_level, check_prime

Monomial = tuple  # exponent vector, one entry per ring variable
Term = tuple  # (Monomial, coefficient)


class ParseError(ValueError):
    """Raised for malformed polynomial / ideal / ring text."""


class PolyRing:
    """F_p[x_1, ..., x_n] with the degrevlex order on the declared variables."""

    __slots__ = ("p", "variables", "nvars")

    def __init__(self, p: int, variables: tuple[str, ...] | list[str]):
        self.p = check_prime(p)
        variables = tuple(variables)
        if not variables:
            raise ValueError("a polynomial ring needs at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable names in {variables}")
        for name in variables:
            if not name.isidentifier():
                raise ValueError(f"bad variable name {name!r}")
        self.variables = variables
        self.nvars = len(variables)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyRing)
            and self.p == other.p
            and self.variables == other.variables
        )

    def __hash__(self) -> int:
        return hash((self.p, self.variables))

    def __repr__(self) -> str:
        return f"PolyRing(p={self.p}, vars={','.join(self.variables)})"

    def monomial_key(self, m: Monomial):
        # degrevlex: higher total degree wins; ties broken so that the last
        # nonzero entry of the difference is negative for the larger monomial.
        return (sum(m), tuple(-e for e in reversed(m)))

    def polynomial(self, terms: dict[Monomial, int]) -> "Polynomial":
        reduced = {}
        for mono, coeff in terms.items():
            c = coeff % self.p
            if c:
                reduced[tuple(mono)] = c
        ordered = tuple(
            sorted(reduced.items(), key=lambda t: self.monomial_key(t[0]), reverse=True)
        )
        return Polynomial(self, ordered)

    def zero(self) -> "Polynomial":
        return self.polynomial({})

    def one(self) -> "Polynomial":
        return self.polynomial({(0,) * self.nvars: 1})

    def variable(self, name: str) -> "Polynomial":
        i = self.variables.index(name)
        expo = [0] * self.nvars
        expo[i] = 1
        return self.polynomial({tuple(expo): 1})

    def monomial(self, exponents) -> "Polynomial":
        return self.polynomial({tuple(exponents): 1})

    # -- text grammar: identifiers, ^, optional *, +/-, integer coefficients --

    def parse(self, text: str) -> "Polynomial":
        """Parse e.g. "x^2*y*z + 3*x - 2" into a canonical polynomial."""
        tokens = _tokenize(text)
        if not tokens:
            raise ParseError("empty polynomial")
        terms: dict[Monomial, int] = {}
        pos = 0
        sign = 1
        while pos < len(tokens):
            sign = 1
            while pos < len(tokens) and tokens[pos] in ("+", "-"):
                if tokens[pos] == "-":
                    sign = -sign
                pos += 1
            coeff, expo, pos = self._parse_term(tokens, pos)
            mono = tuple(expo)
            terms[mono] = terms.get(mono, 0) + sign * coeff
        return self.polynomial(terms)

    def _parse_term(self, tokens, pos):
        coeff = 1
        expo = [0] * self.nvars
        saw_factor = False
        while pos < len(tokens):
            tok = tokens[pos]
            if tok in ("+", "-"):
                break
            if tok == "*":  # between two factors only: `x**2`, `*x` and `x*-y` are refused
                after = tokens[pos + 1] if pos + 1 < len(tokens) else ""
                if not saw_factor or not (after.isdigit() or after.isidentifier()):
                    raise ParseError("'*' must stand between two factors")
                pos += 1
                continue
            if tok.isdigit():
                coeff *= int(tok)
                pos += 1
            elif tok.isidentifier():
                if tok not in self.variables:
                    raise ParseError(f"unknown variable {tok!r}")
                power = 1
                pos += 1
                if pos + 1 < len(tokens) and tokens[pos] == "^":
                    if not tokens[pos + 1].isdigit():
                        raise ParseError(f"bad exponent after {tok}^")
                    power = int(tokens[pos + 1])
                    pos += 2
                expo[self.variables.index(tok)] += power
            else:
                raise ParseError(f"unexpected token {tok!r}")
            saw_factor = True
        if not saw_factor:
            raise ParseError("empty term")
        return coeff, expo, pos

    def parse_ideal(self, text: str) -> "Ideal":
        gens = [self.parse(part) for part in text.split(",") if part.strip()]
        if not gens:
            raise ParseError("empty ideal text")
        return Ideal(self, gens)


_DIGITS = frozenset("0123456789")  # ASCII only: str.isdigit() also accepts '²'


def _tokenize(text: str) -> list[str]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*^":
            tokens.append(ch)
            i += 1
        elif ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append(text[i:j])
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}")
    return tokens


class Polynomial:
    """Immutable sparse polynomial; terms stored in descending degrevlex order."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, ordered_terms: tuple[Term, ...]):
        self.ring = ring
        self.terms = ordered_terms
        self._hash = None

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return (
            len(self.terms) == 1
            and self.terms[0][1] == 1
            and not any(self.terms[0][0])
        )

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and not any(self.terms[0][0]))

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(m) for m, _ in self.terms)

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return self.terms[0][0]

    def leading_coefficient(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        inv = pow(self.terms[0][1], -1, self.ring.p)
        if inv == 1:
            return self
        return self.scale(inv)

    def scale(self, c: int) -> "Polynomial":
        c %= self.ring.p
        if c == 0:
            return self.ring.zero()
        if c == 1:
            return self
        p = self.ring.p
        return Polynomial(self.ring, tuple((m, (k * c) % p) for m, k in self.terms))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = acc.get(m, 0) + c
        return self.ring.polynomial(acc)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = acc.get(m, 0) - c
        return self.ring.polynomial(acc)

    def __neg__(self) -> "Polynomial":
        return self.scale(self.ring.p - 1)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        p = self.ring.p
        acc: dict[Monomial, int] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = tuple(a + b for a, b in zip(m1, m2))
                acc[m] = (acc.get(m, 0) + c1 * c2) % p
        return self.ring.polynomial(acc)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def term_multiple(self, mono: Monomial, coeff: int) -> "Polynomial":
        p = self.ring.p
        coeff %= p
        return Polynomial(
            self.ring,
            tuple(
                (tuple(a + b for a, b in zip(m, mono)), (c * coeff) % p)
                for m, c in self.terms
            ),
        )

    def frobenius(self, e: int) -> "Polynomial":
        """The p^e-th power, computed term-by-term (c^(p^e) = c over F_p)."""
        q = self.ring.p**e
        return Polynomial(
            self.ring, tuple((tuple(a * q for a in m), c) for m, c in self.terms)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring, self.terms))
        return self._hash

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.terms:
            factors = []
            if coeff != 1 or not any(mono):
                factors.append(str(coeff))
            for name, e in zip(self.ring.variables, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _divides(m1: Monomial, m2: Monomial) -> bool:
    return all(a <= b for a, b in zip(m1, m2))


def _mono_lcm(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(max(a, b) for a, b in zip(m1, m2))


def _mono_quot(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(a - b for a, b in zip(m1, m2))


def _support(m: Monomial) -> frozenset:
    return frozenset(i for i, a in enumerate(m) if a)


def minimal_monomials(monos) -> list[Monomial]:
    """Minimal elements under divisibility (the minimal monomial generators).

    A divisor of strictly smaller degree is the only way to dominate (equal
    degree forces equality), so candidates are only checked against the
    already-kept monomials of lower degree.
    """
    by_degree = sorted(set(monos), key=sum)
    kept: list[Monomial] = []
    smaller_end = 0
    current_degree = None
    for m in by_degree:
        d = sum(m)
        if d != current_degree:
            smaller_end = len(kept)
            current_degree = d
        if not any(_divides(k, m) for k in kept[:smaller_end]):
            kept.append(m)
    return kept


class Ideal:
    """An ideal with a cached reduced Groebner basis and a declared generator count.

    The declared count `r` is the length of the generating list as given (it
    feeds the jump-set window [0, r*p^e) downstream); it is deliberately not
    minimized.  Three caches fill in place on first use: the reduced basis
    (`_gb`), the powers a^0, a^1, ... built so far (`_powers`) and the peel
    memo of `frobenius.eth_root_power` (`_peels`, C^1(a^m0 * b) keyed by m0
    and the canonical label of b).
    """

    __slots__ = ("ring", "generators", "declared_r", "_gb", "_powers", "_peels")

    def __init__(self, ring: PolyRing, generators, declared_r: int | None = None):
        self.ring = ring
        given = tuple(generators)
        gens = tuple(g for g in given if not g.is_zero())
        for g in gens:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
        self.generators = gens
        self.declared_r = declared_r if declared_r is not None else max(1, len(given))
        self._gb = None
        self._powers: list[Ideal] | None = None
        self._peels: dict | None = None

    # -- basic structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.generators

    def is_unit(self) -> bool:
        return any(g.is_constant() and not g.is_zero() for g in self.generators) or (
            bool(self.generators) and any(b.is_constant() for b in self.groebner())
        )

    def is_monomial_ideal(self) -> bool:
        return all(g.is_monomial() for g in self.generators)

    # -- Groebner machinery ---------------------------------------------------

    def groebner(self) -> tuple[Polynomial, ...]:
        """The reduced Groebner basis, cached; unique for the fixed order."""
        if self._gb is None:
            if not self.generators:
                self._gb = ()
            elif self.is_monomial_ideal():
                leads = (g.leading_monomial() for g in self.generators)
                self._gb = _monomial_ideal(self.ring, leads).generators
            else:
                self._gb = _buchberger(self.ring, self.generators)
        return self._gb

    def normal_form(self, f: Polynomial) -> Polynomial:
        return _reduce_full(f, self.groebner())

    def contains(self, f: Polynomial) -> bool:
        if f.is_zero():
            return True
        if self.is_zero():
            return False
        basis = self.groebner()
        if all(b.is_monomial() for b in basis) and f.is_monomial():
            lead = f.leading_monomial()
            return any(_divides(b.leading_monomial(), lead) for b in basis)
        return _reduce_full(f, basis, lead_only=True).is_zero()

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(self.contains(g) for g in other.generators)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ideal) or self.ring != other.ring:
            return NotImplemented
        return self.groebner() == other.groebner()

    def __hash__(self) -> int:
        return hash((self.ring, self.groebner()))

    def canonical_label(self):
        """Hashable canonical form (the reduced basis as term tuples)."""
        return tuple(b.terms for b in self.groebner())

    # -- constructions ------------------------------------------------------

    def product(self, other: "Ideal") -> "Ideal":
        """The product ideal, generated by the pairwise products of the factors' generators.

        A factor contributes its cached reduced basis in place of its
        generators when that basis is already known and no longer than the
        generator list; no basis is computed for the product's sake (the
        reduced basis of a power of (x^2 + y^3, xy) is about twice as long as
        its generator list).  The products are interreduced before the ideal
        is built.
        """
        if self.is_zero() or other.is_zero():
            return Ideal(self.ring, (), declared_r=1)
        if self.is_one_ideal_fast():
            return other
        if other.is_one_ideal_fast():
            return self
        if self.is_monomial_ideal() and other.is_monomial_ideal():
            mine = [b.leading_monomial() for b in self.groebner()]
            theirs = [b.leading_monomial() for b in other.groebner()]
            return _monomial_ideal(
                self.ring,
                {tuple(a + b for a, b in zip(m1, m2)) for m1 in mine for m2 in theirs},
            )
        gens = [g * h for g in self._short_generators() for h in other._short_generators()]
        return Ideal(self.ring, _interreduce_generators(self.ring, gens))

    def _short_generators(self) -> tuple[Polynomial, ...]:
        """The cached reduced basis when known and no longer than the generators, else those."""
        gb = self._gb
        if gb is not None and len(gb) <= len(self.generators):
            return gb
        return self.generators

    def is_one_ideal_fast(self) -> bool:
        return len(self.generators) == 1 and self.generators[0].is_one()

    def power(self, n: int) -> "Ideal":
        """The n-th power (a^0 = (1) by convention).

        a^0, a^1, ... are kept in one list, grown on demand by multiplying its
        last entry by a, so every power built on the way to a^n is kept too.
        The last entry's reduced basis is computed before each product: its
        raw generator list, interreduced only by lead terms, about triples in
        length per power on (x^2 + y^3, yz, xz^2).
        """
        if n < 0:
            raise ValueError("ideal power must be >= 0")
        if self._powers is None:
            self._powers = [Ideal(self.ring, (self.ring.one(),), declared_r=1), self]
        powers = self._powers
        while len(powers) <= n:
            powers[-1].groebner()
            powers.append(powers[-1].product(self))
        return powers[n]

    def frobenius_power(self, e: int) -> "Ideal":
        """The Frobenius power a^[p^e], generated by p^e-th powers of generators."""
        if check_level(e) == 0:
            return self
        return Ideal(
            self.ring,
            [g.frobenius(e) for g in self.generators],
            declared_r=self.declared_r,
        )

    def radical_contains(self, f: Polynomial) -> bool:
        """Whether f lies in the radical of this ideal, decided exactly.

        The radical of a monomial ideal is generated by the supports of its
        generators, so f lies in it iff the support of every term of f contains
        the support of some generator.  Otherwise the Rabinowitsch trick
        applies: f is in the radical iff 1 lies in this ideal plus (1 - t*f)
        over the ring with one more variable t.
        """
        if self.is_monomial_ideal():
            supports = [_support(g.leading_monomial()) for g in self.generators]
            return all(any(s <= _support(m) for s in supports) for m, _ in f.terms)
        ring = self.ring
        t = "t"
        while t in ring.variables:
            t += "_"
        big = PolyRing(ring.p, ring.variables + (t,))

        def lift(g: Polynomial) -> Polynomial:
            return big.polynomial({m + (0,): c for m, c in g.terms})

        rabinowitsch = big.one() - lift(f) * big.variable(t)
        return Ideal(big, [lift(g) for g in self.generators] + [rabinowitsch]).is_unit()

    def __repr__(self) -> str:
        inside = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({inside})"


def _monomial_ideal(ring: PolyRing, exponents) -> Ideal:
    """The monomial ideal (x^m : m in exponents), its reduced basis already set.

    The minimal exponents, sorted in descending order, give monic one-term
    generators that are also the reduced Groebner basis.
    """
    monos = minimal_monomials(exponents)
    monos.sort(key=ring.monomial_key, reverse=True)
    ideal = Ideal(ring, tuple(Polynomial(ring, ((m, 1),)) for m in monos))
    ideal._gb = ideal.generators
    return ideal


def _interreduce_generators(ring: PolyRing, gens) -> list[Polynomial]:
    """Drop generators whose normal form vanishes against the others.

    Only a zero test is needed, so each reduction stops at its first
    irreducible term.
    """
    gens = [g for g in gens if not g.is_zero()]
    kept: list[Polynomial] = []
    for g in sorted(gens, key=lambda h: ring.monomial_key(h.leading_monomial())):
        if not _reduce_full(g, kept, lead_only=True).is_zero():
            kept.append(g)
    return kept


# -- Buchberger ---------------------------------------------------------------


def _reduce_full(f: Polynomial, basis, lead_only: bool = False) -> Polynomial:
    """Full reduction (every term) of f against the basis.

    Pending monomials sit in a heap keyed by (-deg m, m reversed), so the
    degrevlex-largest one pops first; a monomial that cancels stays in the heap
    and is skipped when it pops.  Each term is reduced by the first basis
    element whose lead divides it; zero elements are skipped, and a lead
    coefficient is inverted only when its element reduces a term.

    With `lead_only`, reduction stops at the first irreducible term and returns
    that term plus the unreduced rest: a polynomial congruent to f modulo the
    basis whose lead no basis lead divides.  Terms that go to the remainder are
    never cancelled again, so the result is zero exactly when full reduction
    gives zero, which is all a membership test needs.
    """
    if f.is_zero() or not basis:
        return f
    ring = f.ring
    p = ring.p
    work = dict(f.terms)
    heap = [(-sum(m), m[::-1], m) for m in work]
    heapq.heapify(heap)
    remainder: dict[Monomial, int] = {}
    while heap:
        mono = heapq.heappop(heap)[2]
        coeff = work.pop(mono, 0)
        if not coeff:
            continue
        for b in basis:
            terms = b.terms
            if terms and _divides(terms[0][0], mono):
                lead, lead_coeff = terms[0]
                factor = coeff * pow(lead_coeff, -1, p) % p
                shift = _mono_quot(mono, lead)
                # The lead term cancels work[mono], already popped; the rest
                # of the terms are smaller than mono.
                for m2, c2 in terms[1:]:
                    m = tuple(a + s for a, s in zip(m2, shift))
                    old = work.get(m)
                    val = ((old or 0) - factor * c2) % p
                    if val:
                        if old is None:
                            heapq.heappush(heap, (-sum(m), m[::-1], m))
                        work[m] = val
                    elif old is not None:
                        del work[m]
                break
        else:
            if lead_only:
                work[mono] = coeff
                return ring.polynomial(work)
            remainder[mono] = coeff
    return ring.polynomial(remainder)


def _buchberger(ring: PolyRing, generators) -> tuple[Polynomial, ...]:
    """The reduced Groebner basis by Buchberger's algorithm with the Gebauer-Moller update.

    Each new element h (an input generator or a reduced S-polynomial) goes
    through the update of Gebauer and Moller (J. Symb. Comp. 6, 1988; the
    UPDATE of Becker-Weispfenning):

    - of the new pairs (g, h), g active, those with coprime leads are dropped,
      and so is each whose lcm is a multiple of another new pair's lcm;
    - an old pair (i, j) is dropped when lm(h) divides lcm(i, j) and that lcm
      differs from both lcm(i, h) and lcm(j, h);
    - every active element whose lead lm(h) divides leaves the active set.

    Pairs wait in a heap ordered by lcm, smallest first; a pruned pair leaves
    the dict of live pairs and is skipped when it pops.  S-polynomials are
    reduced against the active set only and just until their lead is
    irreducible, which is all the pair update needs.  At the end the active
    set is minimalized (an input generator's lead can be divisible by an
    earlier one's) and each survivor is tail-reduced against the others.
    """
    if any(g.is_constant() for g in generators if not g.is_zero()):
        return (ring.one(),)
    basis: list[Polynomial] = []
    leads: list[Monomial] = []
    active: list[int] = []
    live: dict[tuple[int, int], Monomial] = {}
    queue: list = []

    def update(h: Polynomial) -> None:
        k = len(basis)
        lm_h = h.leading_monomial()
        # New pairs; the later ones in `new` are those still to be examined.
        new = [(i, _mono_lcm(leads[i], lm_h)) for i in active]
        kept = []
        for idx, (i, lcm) in enumerate(new):
            coprime = not any(a and b for a, b in zip(leads[i], lm_h))
            if coprime or not (
                any(_divides(other, lcm) for _, other in new[idx + 1 :])
                or any(_divides(other, lcm) for _, other, _ in kept)
            ):
                kept.append((i, lcm, coprime))
        for key, lcm in list(live.items()):
            if (
                _divides(lm_h, lcm)
                and lcm != _mono_lcm(leads[key[0]], lm_h)
                and lcm != _mono_lcm(leads[key[1]], lm_h)
            ):
                del live[key]
        for i, lcm, coprime in kept:
            if not coprime:
                live[(k, i)] = lcm
                heapq.heappush(queue, (ring.monomial_key(lcm), k, i, lcm))
        active[:] = [i for i in active if not _divides(lm_h, leads[i])]
        active.append(k)
        basis.append(h)
        leads.append(lm_h)

    for g in generators:
        if not g.is_zero():
            update(g.monic())
    while queue:
        _, i, j, lcm = heapq.heappop(queue)
        if live.pop((i, j), None) is None:
            continue
        fi, fj = basis[i], basis[j]
        s_poly = fi.term_multiple(_mono_quot(lcm, leads[i]), 1) - fj.term_multiple(
            _mono_quot(lcm, leads[j]), 1
        )
        remainder = _reduce_full(s_poly, [basis[k] for k in active], lead_only=True)
        if remainder.is_zero():
            continue
        remainder = remainder.monic()
        if remainder.is_constant():
            return (ring.one(),)
        update(remainder)
    # Minimalize: drop members whose lead is divisible by another lead.
    keep = [
        basis[i]
        for i in active
        if not any(
            k != i and _divides(leads[k], leads[i]) and (leads[k] != leads[i] or k < i)
            for k in active
        )
    ]
    # Tail-reduce each survivor against the others for the reduced basis.
    reduced = []
    for idx, g in enumerate(keep):
        others = keep[:idx] + keep[idx + 1 :]
        reduced.append(_reduce_full(g, others).monic())
    reduced.sort(key=lambda g: ring.monomial_key(g.leading_monomial()), reverse=True)
    return tuple(reduced)


# -- independent membership route ----------------------------------------------


def _monomials_of_degree(nvars: int, degree: int):
    if nvars == 1:
        yield (degree,)
        return
    for head in range(degree + 1):
        for tail in _monomials_of_degree(nvars - 1, degree - head):
            yield (head,) + tail


def monomials_up_to_degree(nvars: int, degree: int) -> list[Monomial]:
    return [m for d in range(degree + 1) for m in _monomials_of_degree(nvars, d)]


class RowSpan:
    """Row space of all monomial multiples of the generators up to a degree cap.

    Built once by incremental Gauss over F_p (rows as sparse {column: coeff});
    membership queries then reduce against the stored pivots.  No Groebner
    machinery is involved, which makes this the test oracle for
    `Ideal.contains`.  Complete for monomial ideals; a documented bounded
    check otherwise.
    """

    def __init__(self, ring: PolyRing, generators, cap: int):
        self.ring = ring
        self.cap = cap
        p = ring.p
        columns = sorted(
            monomials_up_to_degree(ring.nvars, cap), key=ring.monomial_key, reverse=True
        )
        self._col_index = {m: i for i, m in enumerate(columns)}
        self._pivots: dict[int, dict[int, int]] = {}
        for g in generators:
            if g.is_zero() or g.total_degree() > cap:
                continue
            for shift in monomials_up_to_degree(ring.nvars, cap - g.total_degree()):
                vec = {}
                for m, c in g.terms:
                    mono = tuple(a + b for a, b in zip(m, shift))
                    if mono in self._col_index:
                        vec[self._col_index[mono]] = c
                vec = self._eliminate(vec)
                if vec:
                    self._pivots[min(vec)] = vec

    def _eliminate(self, vec: dict[int, int]) -> dict[int, int]:
        p = self.ring.p
        while vec:
            lead = min(vec)
            row = self._pivots.get(lead)
            if row is None:
                return vec
            factor = (vec[lead] * pow(row[lead], -1, p)) % p
            for col, c in row.items():
                val = (vec.get(col, 0) - factor * c) % p
                if val:
                    vec[col] = val
                else:
                    vec.pop(col, None)
        return vec

    def contains(self, f: Polynomial) -> bool:
        if f.is_zero():
            return True
        if f.total_degree() > self.cap:
            raise ValueError("query degree exceeds the span cap")
        target = {self._col_index[m]: c for m, c in f.terms}
        return not self._eliminate(target)


def linear_membership(f: Polynomial, generators, degree_cap: int | None = None) -> bool:
    """Degree-bounded membership by row reduction, no Groebner bases; a test oracle."""
    if f.is_zero():
        return True
    generators = [g for g in generators if not g.is_zero()]
    if not generators:
        return False
    cap = max(f.total_degree(), degree_cap or 0)
    return RowSpan(f.ring, generators, cap).contains(f)
