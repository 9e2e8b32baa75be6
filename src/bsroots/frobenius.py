"""Frobenius-side kernels for polynomial rings over F_p.

`eth_root` extracts the ideal of p^e-th root coefficients (the Cartier image
C^e * a); `diff_closure` is its Frobenius power, the smallest level-e
differential ideal containing a; `cartier_preimage` is the adjoint.

`eth_root_power` computes C^e * a^n without materializing a^n: one Frobenius
level is peeled at a time through the factorization
a^m = (a^q)^[p] * a^(m0)  (valid once m0 >= (r-1)(p-1))
together with the projection formula C^1(b^[p] c) = b * C^1(c).  It is the
only route to C^e * a^n in the program: the regular jump engine's labels, the
nu-invariants and F-thresholds (a^n in c^[p^e] iff C^e * a^n in c), and the
test-ideal chain.  The direct route `eth_root(a.power(n), e)` serves the tests
as the cross-check.

Root coefficients and monomial roots split each packed monomial x^m in
place (`PolyRing.split_root`) into the packed x^(m // p^e) and x^(m mod p^e);
no exponent tuple is built.

The peel of an ideal a is one `_Peel`, built on a's first `eth_root_power`
call and kept in the slot `Ideal._peel`.  Its transition
`_Peel.step(k, b)` is C^1(a^k * b) on canonical states: ascending tuples of
minimal packed monomials on a monomial ideal, else reduced bases, so a state
is its own memo key (k, b) and a label costs the same whichever keys were
labelled before it.  C^1 of an ideal is generated by the root coefficients
of any generating set, and a product g^alpha * b with alpha_i >= p roots to
g_i * C^1(g^(alpha - p*e_i) * b), so C^1(a^k * b) is
C^1(restricted products * b) + a * C^1(a^(k-p) * b): a step roots only the
g^alpha with every alpha_i < p (`_Peel.restricted`) and builds no power a^m0
and no basis of one.  The step fetches C^1(a^(k-p) * b) itself, through the
memo, so it is right in any call order, and a level of `eth_root_power` is
one step.

The kernel is chosen once per ideal, by the one test `a.is_monomial_ideal()`
that `eth_root` also makes.  A monomial ideal peels on packed monomials: its
restricted products are sums of packed exponents, minimalized once per k; a
step is one deduplicated set of packed sums with b, each distinct sum rooted
once by `split_root`, joined by the sums g * (entry at k - p) and
minimalized, and only the last product a^m * b builds `Polynomial`s and
`Ideal`s.  Any other ideal peels on reduced bases: the root coefficients of
the restricted products times b, built through `Ideal.product`, and a's
reduced basis times the entry at k - p stream into one `short_ideal`, whose
reduced basis is the new state.
"""

from __future__ import annotations

from itertools import accumulate, chain

from .padic import check_level
from .polyring import (
    Ideal,
    Polynomial,
    _basis_ideal,
    _minimal_monomial_ideal,
    _monomial_ideal,
    minimal_monomials,
    short_ideal,
)


def poly_root_coefficients(f: Polynomial, e: int) -> list[Polynomial]:
    """The p^e-th root coefficients of f over the monomial basis of R over R^(p^e).

    Writing f = sum_mu g_mu^(p^e) * x^mu with mu ranging over [0, p^e)^n,
    returns the nonzero g_mu.  Scalars ride along unchanged since c^(p^e) = c
    in F_p.  Each bucket x^mu is keyed by its packed monomial and filled in
    f's descending order, so its terms need no sort.
    """
    ring = f.ring
    q = ring.p**e
    split = ring.split_root
    buckets: dict[int, list] = {}
    for mono, coeff in f.packed:
        root, mu = split(mono, q)
        buckets.setdefault(mu, []).append((root, coeff))
    return [Polynomial(ring, tuple(terms)) for terms in buckets.values()]


def eth_root(a: Ideal, e: int) -> Ideal:
    """The Cartier image C^e * a: the smallest b with a contained in b^[p^e].

    C^e * a is generated by the root coefficients of any generating set of a
    (the a^[1/p^e] of Blickle, Mustata and Smith, Michigan Math. J. 57, 2008),
    so the generators of a are rooted as given and no basis of a is computed.
    The root coefficients, of degree about deg/p^e, stream into `short_ideal`,
    so products built on the root start from a short generator list.  The
    root of a monomial x^m is x^(m // p^e), so a monomial ideal floor-divides
    its generators' exponents; this is the one monomial test here.
    """
    if check_level(e) == 0 or a.is_zero():
        return a
    ring = a.ring
    if a.is_monomial_ideal():
        q = ring.p**e
        return _monomial_ideal(ring, (ring.split_root(g.packed[0][0], q)[0] for g in a.generators))
    return short_ideal(ring, (c for g in a.generators for c in poly_root_coefficients(g, e)))


def eth_root_power(a: Ideal, n: int, e: int) -> Ideal:
    """C^e * a^n by exponent peeling; avoids building a^n for large n.

    Each level is one step of a's peel at m0, from the state the level below
    left; `a.power` serves the last factor a^m, and the peel's `wrap` turns
    the last state into its ideal, minimalized or reduced already.
    """
    if n < 0:
        raise ValueError("power must be >= 0")
    check_level(e)
    if a.is_zero() and n > 0:
        return a
    peel = a._peel = a._peel or _Peel(a)
    p, base = a.ring.p, peel.base
    m, state = n, peel.start
    for _ in range(e):
        m0 = base + (m - base) % p if m >= base + p else m
        state = peel.step(m0, state)
        m = (m - m0) // p
    return a.power(m).product(peel.wrap(a.ring, state))


class _Peel:
    """The Cartier peel of one ideal a: the transition (k, b) -> C^1(a^k * b) and its memo.

    `base` is the pigeonhole bound (r-1)(p-1), r counting the short
    generators `a.power(1)` (`short`), so scalar duplicates do not raise it.
    `kernel` computes one step, `start` is the state of (1) and `wrap` turns
    a state into its ideal.  `gens` are a^1's short generators, packed on a
    monomial ideal; `powers` keeps their powers g_i^j, j < p, and `table`
    the restricted products, under (i, d) those over g_i, g_(i+1), ... of
    degree d.  `memo` keeps C^1(a^k * b) under (k, b).
    """

    __slots__ = (
        "ring", "base", "short", "gens", "kernel", "start", "wrap", "mul", "powers", "table", "memo"
    )

    def __init__(self, a: Ideal):
        ring = self.ring = a.ring
        short = self.short = a.power(1)
        self.base = (max(1, len(short.generators)) - 1) * (ring.p - 1)
        if a.is_monomial_ideal():
            one, guards = ring.zero_monomial, ring.guards
            self.gens = [g.packed[0][0] for g in short.generators]
            self.kernel, self.wrap = self._monomial_step, _minimal_monomial_ideal

            def mul(f: int, h: int) -> int:
                # One sum of two valid packed monomials sets the guard bit of
                # any field it overflows.
                product = f + h - one
                if product & guards:
                    ring.check_width((product,))
                return product

        else:
            one, mul, self.gens = ring.one(), Polynomial.__mul__, short.generators
            self.kernel, self.wrap = self._reduced_step, _basis_ideal
        self.start, self.mul, self.memo = (one,), mul, {}
        self.powers = [list(accumulate([g] * (ring.p - 1), mul, initial=one)) for g in self.gens]
        self.table = {(len(self.powers), 0): [one]}

    def step(self, k: int, b: tuple) -> tuple:
        """The canonical state C^1(a^k * b) of the canonical state b, kept in `memo` under (k, b).

        For k >= p the state C^1(a^(k-p) * b) comes from `step` itself, so
        any (k, b) may be asked first.
        """
        peeled = self.memo.get((k, b))
        if peeled is None:
            p = self.ring.p
            below = self.step(k - p, b) if k >= p else None
            peeled = self.memo[k, b] = self.kernel(k, b, below)
        return peeled

    def restricted(self, i: int, d: int) -> list:
        """The products g_i^alpha_i * g_(i+1)^alpha_(i+1) * ... of degree d, every alpha_j < p.

        Any other product of degree k is g_j^p times one of degree k - p,
        which is how the peel splits a^k.  Each entry is one multiplication
        from an entry under (i + 1, d - j); packed monomials, each one sum of
        packed exponents refused past the field width, on a monomial ideal,
        else the raw `Polynomial` products, one per alpha.
        """
        table = self.table
        if (i, d) not in table:
            top, powers, mul = self.ring.p - 1, self.powers, self.mul
            degrees = range(min(top, d) + 1) if d <= top * (len(powers) - i) else ()
            table[i, d] = [
                mul(powers[i][j], h) if j else h
                for j in degrees
                for h in self.restricted(i + 1, d - j)
            ]
        return table[i, d]

    def _reduced_step(self, k: int, b: tuple, below: tuple | None) -> tuple:
        """C^1(a^k * b) on its reduced basis, b and below reduced bases.

        One stream into `short_ideal`: the root coefficients of the
        restricted products times b, then a's reduced basis times below,
        below being C^1(a^(k-p) * b), None when k < p.
        """
        ring = self.ring
        products = Ideal(ring, self.restricted(0, k)).product(Ideal(ring, b))
        roots = (c for g in products.generators for c in poly_root_coefficients(g, 1))
        if below is not None:
            roots = chain(roots, (g * h for g in self.short.groebner() for h in below))
        return short_ideal(ring, roots).groebner()

    def _monomial_step(self, k: int, b: tuple, below: tuple | None) -> tuple:
        """The step on packed monomials, b and below as ascending tuples of minimal monomials.

        The restricted products times b are one deduplicated set of packed
        sums; each distinct sum is rooted once by `PolyRing.split_root`, the
        sums g * below join them, and the union is minimalized once.
        """
        ring, table = self.ring, self.table
        split, p = ring.split_root, ring.p
        if (0, k) not in table:
            # The recursion reads only entries under i >= 1, so the one under
            # (0, k) can be kept minimal.
            table[0, k] = minimal_monomials(ring, self.restricted(0, k))
        roots = {split(s, p)[0] for s in ring.minkowski_sum(table[0, k], b)}
        if below is not None:
            roots |= ring.minkowski_sum(self.gens, below)
        return tuple(minimal_monomials(ring, roots))


def diff_closure(a: Ideal, e: int) -> Ideal:
    """The smallest D^(e)-stable ideal containing a.

    Over a polynomial ring every level-e differential ideal is a Frobenius
    power, so the closure is (C^e * a)^[p^e]; no differential operators are
    ever materialized.
    """
    return eth_root(a, e).frobenius_power(e)


def cartier_preimage(b: Ideal, e: int) -> Ideal:
    """I_e(b) = {f : C^e * f in b}, which for a polynomial ring is b^[p^e]."""
    return b.frobenius_power(check_level(e))
