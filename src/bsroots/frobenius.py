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

Each peel step C^1(a^k * b) depends only on a, k and the ideal b, so it is
kept in a's peel memo (`Ideal._peels`), shared by every level and caller on
a.  Every peel state (b and each memo entry) is kept in canonical form, so
the state is its own memo key, (k, b), and a label costs the same whichever
keys were labelled before it.  C^1 of an ideal is generated by the root
coefficients of any generating set, and a product g^alpha * b with
alpha_i >= p roots to g_i * C^1(g^(alpha - p*e_i) * b), so C^1(a^k * b) is
C^1(restricted products * b) + a * C^1(a^(k-p) * b): a step roots only the
g^alpha with every alpha_i < p (`Ideal.restricted_products`) and builds no
power a^m0 and no basis of one.

The walk over the digits is written once; the kernel is one (step, start
state, wrap) triple, chosen by the one test `a.is_monomial_ideal()` that
`eth_root` also makes.  A monomial ideal peels on packed monomials: its
restricted products are sums of packed exponents, minimalized once per k; a
step is one deduplicated set of packed sums with b, each distinct sum rooted
once by `split_root`, joined by the sums g * (entry at k - p) and
minimalized; its states are ascending tuples of minimal monomials, and only
the last product a^m * b builds `Polynomial`s and `Ideal`s.  Any other ideal
peels on reduced bases: the restricted products times b's basis through
`Ideal.product`, rooted by `eth_root`, joined by a's reduced basis times the
entry at k - p, and reduced.
"""

from __future__ import annotations

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

    r counts the short generators `a.power(1)`, so scalar duplicates do not
    raise the pigeonhole bound (r-1)(p-1).  A level walks k = m0 mod p, ...,
    m0 through `a._peels` under (k, state), the state being the last root in
    canonical form and so an exact key; a miss at k takes one step.  The
    kernel is one (step, start state, wrap) triple: a monomial ideal peels on
    packed monomials (`_monomial_step`), its states the ascending tuples of
    minimal monomials; any other ideal peels on reduced bases (`_step`).
    wrap turns the last state into its ideal, minimalized or reduced already.
    `a.power` serves a^1 and the last a^m.
    """
    if n < 0:
        raise ValueError("power must be >= 0")
    check_level(e)
    if a.is_zero() and n > 0:
        return a
    ring = a.ring
    p = ring.p
    r = max(1, len(a.power(1).generators))
    peels = a._peels = a._peels or {}
    base = (r - 1) * (p - 1)
    if a.is_monomial_ideal():
        step, state, wrap = _monomial_step, (ring.zero_monomial,), _minimal_monomial_ideal
    else:
        step, state, wrap = _step, (ring.one(),), _basis_ideal
    m = n
    for _ in range(e):
        m0 = base + (m - base) % p if m >= base + p else m
        for k in range(m0 % p, m0 + 1, p):
            peeled = peels.get((k, state))
            if peeled is None:
                # The walk has just passed k - p, so its entry is there for k >= p.
                peeled = peels[k, state] = step(a, k, state, peels.get((k - p, state)))
        state = peeled
        m = (m - m0) // p
    return a.power(m).product(wrap(ring, state))


def _step(a: Ideal, k: int, b: tuple, below: tuple | None) -> tuple:
    """C^1(a^k * b) on its reduced basis, b and below reduced bases.

    The root of the restricted products times b, plus a * below, below being
    C^1(a^(k-p) * b), None when k < p; a enters on its reduced basis.
    """
    ring = a.ring
    peeled = eth_root(Ideal(ring, a.restricted_products(k)).product(Ideal(ring, b)), 1)
    if below is not None:
        rest = tuple(g * h for g in a.power(1).groebner() for h in below)
        peeled = short_ideal(ring, peeled.generators + rest)
    return peeled.groebner()


def _monomial_step(a: Ideal, k: int, b: tuple, below: tuple | None) -> tuple:
    """`_step` on packed monomials, b and below as sorted tuples of minimal monomials.

    The restricted products times b are one deduplicated set of packed sums;
    each distinct sum is rooted once by `PolyRing.split_root`, the sums
    g * below join them, and the union is minimalized once.
    """
    ring = a.ring
    split, p = ring.split_root, ring.p
    roots = {split(s, p)[0] for s in ring.minkowski_sum(a.restricted_products(k), b)}
    if below is not None:
        roots |= ring.minkowski_sum([g.packed[0][0] for g in a.power(1).generators], below)
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
