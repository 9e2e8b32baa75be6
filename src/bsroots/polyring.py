"""Sparse multivariate polynomials over F_p, ideals and Groebner bases.

The term order is fixed globally to degrevlex with the variable order taken
from the ring declaration, so every ideal has one reduced Groebner basis and
every printed object is byte-stable.

Inside the kernel a monomial is one Python int, packed per ring (Monagan and
Pearce, "Sparse polynomial division using a heap", J. Symb. Comp. 2011).
Exponent e_i is stored as M - e_i in a field of `_FIELD_BITS` = 64 bits with
a guard bit above it, M = 2^64 - 1; the first variable's field is the lowest,
and the total degree sits above the last field.  With this layout
integer order is degrevlex, and with C the packed zero monomial and G the
guard bits:

- the product of a and b is a + b - C,
- the quotient b / a is b - a + C,
- a divides b exactly when (a - b) & G == 0.

An exponent past M is refused with a ValueError when it is packed and after
any product that could reach it (a product whose degree stays within M cannot);
it never wraps into the next field.  Exponent tuples appear only at the
boundary: parsing and printing, the `Polynomial.terms` and
`leading_monomial()` views, `PolyRing.polynomial` on a dict of tuples, and
the `RowSpan` oracle.  The digit split of Cartier roots (`split_root`) reads
the packed fields in place.

Monomial ideals are handled as sets of packed monomials from end to end:
they are built in one place, `_minimal_monomial_ideal`, which keeps minimal
monomials as both the generators and the reduced Groebner basis;
`_monomial_ideal` minimalizes other sets first.  Products of monomial ideals
are Minkowski sums of packed monomials (`PolyRing.minkowski_sum`), and their
Cartier roots (`frobenius.eth_root`) floor-divide exponents, so neither
builds a polynomial product nor runs Buchberger.

Other ideals go through the Groebner kernel.  `_buchberger` prunes pairs with
the Gebauer-Moller update as each basis element is added, and pops the
remaining pairs from a heap ordered by lcm.  `_reduce_full` keeps its pending
monomials in a heap; its lead-only mode stops at the first irreducible term,
which is all a membership test, an interreduction or an S-pair needs.

A generating set decides only cost, and three rules pick it: `Ideal.product`
keeps raw products of the generators as given (minimal monomials for
monomial ideals), `Ideal.power` keeps a^n, n >= 2, on its reduced basis, and
`short_ideal` (a^1, Cartier roots) drops scalar duplicates, then returns a
monomial ideal or interreduces by leads.

A degree-bounded linear-algebra membership routine (`linear_membership`) is
kept alongside the Groebner route as an independent test oracle.
"""

from __future__ import annotations

import heapq

from .padic import check_level, check_prime

Monomial = tuple  # exponent vector, one entry per ring variable
Term = tuple  # (Monomial, coefficient)

_FIELD_BITS = 64  # bits per exponent field: exponents below 2^64, enough for p^e at deep levels


class ParseError(ValueError):
    """Raised for malformed polynomial / ideal / ring text."""


class PolyRing:
    """F_p[x_1, ..., x_n] with the degrevlex order on the declared variables.

    The ring also fixes the packing of its monomials (see the module
    docstring): `zero_monomial` is C, `guards` is G, `degree_shift` is the
    position of the total-degree field and `max_exponent` is M.
    """

    __slots__ = ("p", "variables", "nvars", "zero_monomial", "guards", "degree_shift", "_shifts")
    max_exponent = (1 << _FIELD_BITS) - 1

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
        stride = _FIELD_BITS + 1
        self._shifts = tuple(range(0, self.nvars * stride, stride))
        self.zero_monomial = sum(self.max_exponent << s for s in self._shifts)
        self.guards = sum(1 << (s + _FIELD_BITS) for s in self._shifts)
        self.degree_shift = self.nvars * stride

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

    # -- packed monomials -----------------------------------------------------

    def pack(self, exponents) -> int:
        """The packed monomial of an exponent tuple; its integer order is degrevlex."""
        exponents = tuple(exponents)
        if len(exponents) != self.nvars:
            raise ValueError(f"expected {self.nvars} exponents, got {exponents}")
        packed = self.zero_monomial
        for shift, e in zip(self._shifts, exponents):
            if not 0 <= e <= self.max_exponent:
                raise ValueError(
                    f"exponent {e} lies outside the packed field [0, {self.max_exponent}]"
                )
            packed -= e << shift
        return packed + (sum(exponents) << self.degree_shift)

    monomial_key = pack  # the degrevlex sort key of an exponent tuple

    def unpack(self, mono: int) -> Monomial:
        top = self.max_exponent
        return tuple([top - ((mono >> s) & top) for s in self._shifts])

    def degree(self, mono: int) -> int:
        return mono >> self.degree_shift

    def split_root(self, mono: int, q: int) -> tuple[int, int]:
        """The packed (x^(m // q), x^(m mod q)) of a packed x^m, read field by field.

        Each exponent M - field is divided by q once; the rest is
        mono - q * (root - C).  No tuple is built and nothing is validated:
        a root's exponents never exceed its monomial's.  For a fixed rest the
        root grows with mono, so a split keeps the order of the monomials
        that share a rest.
        """
        top, zero = self.max_exponent, self.zero_monomial
        root, degree = zero, 0
        for s in self._shifts:
            u = (top - ((mono >> s) & top)) // q
            root -= u << s
            degree += u
        root += degree << self.degree_shift
        return root, mono - q * (root - zero)

    def lcm(self, a: int, b: int) -> int:
        """The lcm of two packed monomials: the smaller field, field by field."""
        guards = self.guards
        # The guard of a field stays set in (a | G) - b where b's exponent is
        # at least a's; no field borrows from the next.
        at_least = ((a | guards) - b) & guards
        from_b = at_least - (at_least >> _FIELD_BITS)
        fields = (b & from_b) | (a & (self.zero_monomial ^ from_b))
        top = self.max_exponent
        degree = 0
        for s in self._shifts:
            degree += top - ((fields >> s) & top)
        return fields | (degree << self.degree_shift)

    def minkowski_sum(self, mine, theirs) -> set[int]:
        """The distinct packed products m1 * m2, m1 in mine and m2 in theirs.

        Each product is one addition, a + b - C.  One can pass the field
        width only when the top degrees of the two sides sum past M, and then
        every product goes through `check_width`.
        """
        zero = self.zero_monomial
        monos = {m1 + m2 - zero for m1 in mine for m2 in theirs}
        # Integer order is degrevlex, so the largest monomial has the top degree.
        if monos and self.degree(max(mine)) + self.degree(max(theirs)) > self.max_exponent:
            self.check_width(monos)
        return monos

    def check_width(self, monos) -> None:
        """Refuse packed products with an exponent past the field width.

        Such a product sets the guard bit of its lowest overflowing field, so
        it never equals a valid monomial.
        """
        guards = self.guards
        if any(m & guards for m in monos):
            raise ValueError(
                f"a product has an exponent past the packed field width "
                f"({self.max_exponent}) in {self}"
            )

    def packed_polynomial(self, terms: dict[int, int]) -> "Polynomial":
        """The polynomial of a {packed monomial: coefficient} dict."""
        p = self.p
        reduced = [(m, c % p) for m, c in terms.items() if c % p]
        reduced.sort(reverse=True)
        return Polynomial(self, tuple(reduced))

    def polynomial(self, terms: dict[Monomial, int]) -> "Polynomial":
        p = self.p
        return self.packed_polynomial({self.pack(m): c for m, c in terms.items() if c % p})

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one(self) -> "Polynomial":
        return Polynomial(self, ((self.zero_monomial, 1),))

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
        return self.polynomial(self._parse_terms(text))

    def parse_ideal(self, text: str) -> "Ideal":
        """Parse a comma-separated list of generators; an empty item is refused, not skipped."""
        return Ideal(self, [self.polynomial(t) for t in self.parse_ideal_terms(text)])

    def parse_ideal_terms(self, text: str) -> list[dict[Monomial, int]]:
        """Each generator as {exponent tuple: coefficient mod p}; no field width bounds these."""
        return [self._parse_terms(part) for part in text.split(",")]

    def _parse_terms(self, text: str) -> dict[Monomial, int]:
        tokens = _tokenize(text)
        if not tokens:
            raise ParseError("empty polynomial")
        terms: dict[Monomial, int] = {}
        pos = 0
        while pos < len(tokens):
            sign = 1
            while pos < len(tokens) and tokens[pos] in ("+", "-"):
                if tokens[pos] == "-":
                    sign = -sign
                pos += 1
            coeff, mono, pos = self._parse_term(tokens, pos)
            terms[mono] = terms.get(mono, 0) + sign * coeff
        return {mono: c % self.p for mono, c in terms.items() if c % self.p}

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
                if pos and tokens[pos - 1].isdigit():  # `x^1 0`, `2 3`: a space splits a number
                    raise ParseError(f"write '*' between the numbers {tokens[pos - 1]} and {tok}")
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
        return coeff, tuple(expo), pos


_DIGITS = frozenset("0123456789")  # ASCII only: str.isdigit() also accepts '²'


def _tokenize(text: str) -> list[str]:
    """Operators, runs of digits 0-9 and words; whitespace separates tokens."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        j = i + 1
        if ch.isspace():
            i = j
            continue
        if ch in _DIGITS:
            while j < len(text) and text[j] in _DIGITS:
                j += 1
        elif ch.isalpha() or ch == "_":
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
        elif ch not in "+-*^":
            raise ParseError(f"unexpected character {ch!r}")
        tokens.append(text[i:j])
        i = j
    return tokens


class Polynomial:
    """Immutable sparse polynomial; terms stored in descending degrevlex order.

    `packed` holds the (packed monomial, coefficient) pairs; `terms` is their
    view with exponent tuples.
    """

    __slots__ = ("ring", "packed", "_hash")

    def __init__(self, ring: PolyRing, packed_terms: tuple[tuple[int, int], ...]):
        self.ring = ring
        self.packed = packed_terms
        self._hash = None

    @property
    def terms(self) -> tuple[Term, ...]:
        unpack = self.ring.unpack
        return tuple((unpack(m), c) for m, c in self.packed)

    def is_zero(self) -> bool:
        return not self.packed

    def is_one(self) -> bool:
        return self.packed == ((self.ring.zero_monomial, 1),)

    def is_monomial(self) -> bool:
        return len(self.packed) == 1

    def is_constant(self) -> bool:
        return not self.packed or (
            len(self.packed) == 1 and self.packed[0][0] == self.ring.zero_monomial
        )

    def total_degree(self) -> int:
        # The lead has the largest degree: the degree field sits on top.
        if not self.packed:
            return -1
        return self.ring.degree(self.packed[0][0])

    def leading_monomial(self) -> Monomial:
        if not self.packed:
            raise ValueError("zero polynomial has no leading monomial")
        return self.ring.unpack(self.packed[0][0])

    def leading_coefficient(self) -> int:
        if not self.packed:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.packed[0][1]

    def monic(self) -> "Polynomial":
        if not self.packed:
            return self
        inv = pow(self.packed[0][1], -1, self.ring.p)
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
        return Polynomial(self.ring, tuple((m, (k * c) % p) for m, k in self.packed))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        acc = dict(self.packed)
        for m, c in other.packed:
            acc[m] = acc.get(m, 0) + c
        return self.ring.packed_polynomial(acc)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        acc = dict(self.packed)
        for m, c in other.packed:
            acc[m] = acc.get(m, 0) - c
        return self.ring.packed_polynomial(acc)

    def __neg__(self) -> "Polynomial":
        return self.scale(self.ring.p - 1)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        ring = self.ring
        p = ring.p
        zero = ring.zero_monomial
        acc: dict[int, int] = {}
        for m1, c1 in self.packed:
            for m2, c2 in other.packed:
                m = m1 + m2 - zero
                acc[m] = (acc.get(m, 0) + c1 * c2) % p
        if self.total_degree() + other.total_degree() > ring.max_exponent:
            ring.check_width(acc)
        return ring.packed_polynomial(acc)

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

    def term_multiple(self, mono: int, coeff: int) -> "Polynomial":
        """The product with the term coeff * mono, mono a packed monomial."""
        ring = self.ring
        p = ring.p
        coeff %= p
        shift = mono - ring.zero_monomial
        packed = tuple((m + shift, (c * coeff) % p) for m, c in self.packed)
        if self.total_degree() + ring.degree(mono) > ring.max_exponent:
            ring.check_width(m for m, _ in packed)
        return Polynomial(ring, packed)

    def frobenius(self, e: int) -> "Polynomial":
        """The p^e-th power, computed term-by-term (c^(p^e) = c over F_p)."""
        ring = self.ring
        q = ring.p**e
        return Polynomial(
            ring,
            tuple(
                (ring.pack([a * q for a in ring.unpack(m)]), c) for m, c in self.packed
            ),
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.packed == other.packed
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring, self.packed))
        return self._hash

    def __str__(self) -> str:
        if not self.packed:
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


def _support(m: Monomial) -> frozenset:
    return frozenset(i for i, a in enumerate(m) if a)


def minimal_monomials(ring: PolyRing, monos) -> list[int]:
    """Minimal packed monomials under divisibility (the minimal monomial generators).

    A divisor of strictly smaller degree is the only way to dominate (equal
    degree forces equality), so candidates are only checked against the
    already-kept monomials of lower degree.  Ascending integer order is
    ascending degree.
    """
    guards, degree_shift = ring.guards, ring.degree_shift
    kept: list[int] = []
    smaller_end = 0
    current_degree = None
    for m in sorted(set(monos)):
        d = m >> degree_shift
        if d != current_degree:
            smaller_end = len(kept)
            current_degree = d
        for k in kept[:smaller_end]:
            if not (k - m) & guards:
                break
        else:
            kept.append(m)
    return kept


class Ideal:
    """An ideal with a cached reduced Groebner basis and a declared generator count.

    The declared count `r` is the length of the generating list as given (it
    feeds the jump-set window [0, r*p^e) downstream); it is deliberately not
    minimized.  Three caches fill in place on first use: whether every
    generator is a monomial (`_monomial`); the reduced basis (`_gb`); and the
    powers a^0, a^1, ... built so far (`_powers`), a^n for n >= 2 on its
    reduced basis.  The slot `_peel` belongs to `frobenius` and is never read
    here.
    """

    __slots__ = ("ring", "generators", "declared_r", "_monomial", "_gb", "_powers", "_peel")

    def __init__(self, ring: PolyRing, generators):
        self.ring = ring
        given = tuple(generators)
        gens = tuple(g for g in given if not g.is_zero())
        for g in gens:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
        self.generators = gens
        self.declared_r = max(1, len(given))
        self._monomial: bool | None = None
        self._gb = None
        self._powers: list[Ideal] | None = None
        self._peel = None

    # -- basic structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.generators

    def is_unit(self) -> bool:
        return any(g.is_constant() and not g.is_zero() for g in self.generators) or (
            bool(self.generators) and any(b.is_constant() for b in self.groebner())
        )

    def is_monomial_ideal(self) -> bool:
        if self._monomial is None:
            self._monomial = all(g.is_monomial() for g in self.generators)
        return self._monomial

    # -- Groebner machinery ---------------------------------------------------

    def groebner(self) -> tuple[Polynomial, ...]:
        """The reduced Groebner basis, cached; unique for the fixed order."""
        if self._gb is None:
            if not self.generators:
                self._gb = ()
            elif self.is_monomial_ideal():
                leads = (g.packed[0][0] for g in self.generators)
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
            lead, guards = f.packed[0][0], self.ring.guards
            return any(not (b.packed[0][0] - lead) & guards for b in basis)
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
        """Hashable canonical form (the reduced basis as packed term tuples)."""
        return tuple(b.packed for b in self.groebner())

    # -- constructions ------------------------------------------------------

    def product(self, other: "Ideal") -> "Ideal":
        """The product ideal, generated by the pairwise products of the factors' generators.

        The generators are multiplied as given, g outer, and the products kept
        as they come; no basis is computed for the product's sake.  A caller
        that wants a factor on its reduced basis hands that basis in.
        """
        if self.is_zero() or other.is_zero():
            return Ideal(self.ring, ())
        if self.is_one_ideal_fast():
            return other
        if other.is_one_ideal_fast():
            return self
        if self.is_monomial_ideal() and other.is_monomial_ideal():
            mine = [b.packed[0][0] for b in self.groebner()]
            theirs = [b.packed[0][0] for b in other.groebner()]
            return _monomial_ideal(self.ring, self.ring.minkowski_sum(mine, theirs))
        return Ideal(self.ring, [g * h for g in self.generators for h in other.generators])

    def is_one_ideal_fast(self) -> bool:
        return len(self.generators) == 1 and self.generators[0].is_one()

    def power(self, n: int) -> "Ideal":
        """The n-th power (a^0 = (1)), kept on its reduced basis for n >= 2.

        a^0, a^1, ... are kept in one list, grown on demand.  a^1 is
        `short_ideal` of the generators: the minimal monomials of a monomial
        ideal, else the generators interreduced (scalar duplicates dropped).
        a^n for n >= 2 is the reduced basis of a^(n-1) times the generators
        of a^1 through `product`, kept as both its generators and its basis.
        """
        if n < 0:
            raise ValueError("ideal power must be >= 0")
        ring = self.ring
        powers = self._powers
        if powers is None:
            first = short_ideal(ring, self.generators)
            powers = self._powers = [Ideal(ring, (ring.one(),)), first]
        while len(powers) <= n:
            powers.append(_basis_ideal(ring, powers[-1].product(powers[1]).groebner()))
        return powers[n]

    def frobenius_power(self, e: int) -> "Ideal":
        """The Frobenius power a^[p^e], generated by p^e-th powers of generators."""
        if check_level(e) == 0:
            return self
        return Ideal(self.ring, [g.frobenius(e) for g in self.generators])

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


def _monomial_ideal(ring: PolyRing, monos) -> Ideal:
    """The monomial ideal generated by packed monomials, its reduced basis already set."""
    return _minimal_monomial_ideal(ring, minimal_monomials(ring, monos))


def _minimal_monomial_ideal(ring: PolyRing, minimal) -> Ideal:
    """The monomial ideal on ascending minimal packed monomials, minimalized already.

    In descending order they give monic one-term generators that are also the
    reduced Groebner basis.
    """
    return _basis_ideal(ring, tuple(Polynomial(ring, ((m, 1),)) for m in reversed(minimal)))


def _basis_ideal(ring: PolyRing, basis) -> Ideal:
    """The ideal on a reduced Groebner basis, kept as both its generators and its basis."""
    ideal = Ideal(ring, basis)
    ideal._gb = ideal.generators
    return ideal


def short_ideal(ring: PolyRing, gens) -> Ideal:
    """The ideal of the nonzero gens on a short generating set, read in one pass.

    Generators equal up to a scalar count once, keyed by their packed terms
    times the inverse lead coefficient (root coefficients repeat: level-3
    jumps of (x^2 + y^3, yz, xz^2) over F_7 root 167,155, 3,122 up to
    scalars).  The one-term survivors are minimalized, which drops each one
    that another divides and leaves the ideal as it was; when every survivor
    is a monomial, that is the ideal.  Otherwise each remaining survivor, by
    ascending lead, is kept unless its lead-only reduction against those kept
    vanishes.
    """
    p = ring.p
    first: dict[tuple, Polynomial] = {}
    for g in gens:
        terms = g.packed
        if not terms:
            continue
        if terms[0][1] != 1:
            inv = pow(terms[0][1], -1, p)
            terms = tuple([(m, c * inv % p) for m, c in terms])
        first.setdefault(terms, g)
    monomials = [terms[0][0] for terms in first if len(terms) == 1]
    minimal = minimal_monomials(ring, monomials)
    if len(monomials) == len(first):
        return _minimal_monomial_ideal(ring, minimal)
    kept_monomials = set(minimal)
    survivors = [
        g for terms, g in first.items() if len(terms) > 1 or terms[0][0] in kept_monomials
    ]
    kept: list[Polynomial] = []
    for g in sorted(survivors, key=lambda h: h.packed[0][0]):
        if not _reduce_full(g, kept, lead_only=True).is_zero():
            kept.append(g)
    return Ideal(ring, kept)


# -- Buchberger ---------------------------------------------------------------


def _reduce_full(f: Polynomial, basis, lead_only: bool = False) -> Polynomial:
    """Full reduction (every term) of f against the basis.

    Pending monomials sit in a heap of negated packed monomials, so the
    degrevlex-largest one pops first; a monomial that cancels stays in the
    heap and is skipped when it pops.  Each term is reduced by the first basis
    element whose lead divides it; zero elements are skipped, and a lead
    coefficient is inverted only when its element reduces a term.  Every new
    monomial is below the popped one, so no exponent can pass the field width
    unless the degree of f does.

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
    guards = ring.guards
    wide = f.total_degree() > ring.max_exponent
    work = dict(f.packed)
    heap = [-m for m in work]
    heapq.heapify(heap)
    remainder: dict[int, int] = {}
    while heap:
        mono = -heapq.heappop(heap)
        coeff = work.pop(mono, 0)
        if not coeff:
            continue
        for b in basis:
            terms = b.packed
            if terms and not (terms[0][0] - mono) & guards:
                lead, lead_coeff = terms[0]
                factor = coeff * pow(lead_coeff, -1, p) % p
                shift = mono - lead  # m2 * (mono / lead) is m2 + shift
                # The lead term cancels work[mono], already popped; the rest
                # of the terms are smaller than mono.
                for m2, c2 in terms[1:]:
                    m = m2 + shift
                    old = work.get(m)
                    val = ((old or 0) - factor * c2) % p
                    if val:
                        if old is None:
                            if wide:
                                ring.check_width((m,))
                            heapq.heappush(heap, -m)
                        work[m] = val
                    elif old is not None:
                        del work[m]
                break
        else:
            if lead_only:
                work[mono] = coeff
                return ring.packed_polynomial(work)
            remainder[mono] = coeff
    return ring.packed_polynomial(remainder)


def _has_divisor(mono: int, monos, guards: int) -> bool:
    """Whether one of the packed monomials divides mono."""
    for d in monos:
        if not (d - mono) & guards:
            return True
    return False


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

    Pairs wait in a heap ordered by packed lcm, smallest first; a pruned pair
    leaves the dict of live pairs and is skipped when it pops.  S-polynomials
    are reduced against the active set only and just until their lead is
    irreducible, which is all the pair update needs.  At the end the active
    set is minimalized (an input generator's lead can be divisible by an
    earlier one's) and each survivor is tail-reduced against the others.
    """
    if any(g.is_constant() for g in generators if not g.is_zero()):
        return (ring.one(),)
    guards, zero, lcm_of = ring.guards, ring.zero_monomial, ring.lcm
    basis: list[Polynomial] = []
    leads: list[int] = []
    active: list[int] = []
    live: dict[tuple[int, int], int] = {}
    queue: list = []

    def update(h: Polynomial) -> None:
        k = len(basis)
        lm_h = h.packed[0][0]
        # The lcms of the new pairs (i, h), i active; the later ones are those
        # still to be examined.
        new_lcms = [lcm_of(leads[i], lm_h) for i in active]
        kept, kept_lcms = [], []
        for idx, (i, lcm) in enumerate(zip(active, new_lcms)):
            # Coprime leads: the lcm is their product.
            coprime = lcm == leads[i] + lm_h - zero
            if coprime or not (
                _has_divisor(lcm, new_lcms[idx + 1 :], guards)
                or _has_divisor(lcm, kept_lcms, guards)
            ):
                kept.append((i, lcm, coprime))
                kept_lcms.append(lcm)
        for key, lcm in list(live.items()):
            if (
                not (lm_h - lcm) & guards
                and lcm != lcm_of(leads[key[0]], lm_h)
                and lcm != lcm_of(leads[key[1]], lm_h)
            ):
                del live[key]
        for i, lcm, coprime in kept:
            if not coprime:
                live[(k, i)] = lcm
                heapq.heappush(queue, (lcm, k, i))
        active[:] = [i for i in active if (lm_h - leads[i]) & guards]
        active.append(k)
        basis.append(h)
        leads.append(lm_h)

    for g in generators:
        if not g.is_zero():
            update(g.monic())
    while queue:
        lcm, i, j = heapq.heappop(queue)
        if live.pop((i, j), None) is None:
            continue
        fi, fj = basis[i], basis[j]
        s_poly = fi.term_multiple(lcm - leads[i] + zero, 1) - fj.term_multiple(
            lcm - leads[j] + zero, 1
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
            k != i and not (leads[k] - leads[i]) & guards and (leads[k] != leads[i] or k < i)
            for k in active
        )
    ]
    # Tail-reduce each survivor against the others for the reduced basis.
    reduced = []
    for idx, g in enumerate(keep):
        others = keep[:idx] + keep[idx + 1 :]
        reduced.append(_reduce_full(g, others).monic())
    reduced.sort(key=lambda g: g.packed[0][0], reverse=True)
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
    `Ideal.contains`; it works on exponent tuples, not on packed monomials.
    Complete for monomial ideals; a documented bounded check otherwise.
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
            terms = g.terms
            for shift in monomials_up_to_degree(ring.nvars, cap - g.total_degree()):
                vec = {}
                for m, c in terms:
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
