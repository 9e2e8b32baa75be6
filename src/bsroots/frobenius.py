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

Root coefficients and monomial roots read each packed monomial as its
exponent tuple, split or floor-divide it by p^e, and pack the root again.

Each peel step C^1(a^m0 * b) depends only on a, m0 and the ideal b, so its
result is kept in a's peel memo (`Ideal._peels`), keyed by m0 and the
canonical label of b; every level and every caller on the same a share it.
"""

from __future__ import annotations

from .padic import check_level
from .polyring import Ideal, Polynomial, _interreduce_generators, _monomial_ideal


def poly_root_coefficients(f: Polynomial, e: int) -> list[Polynomial]:
    """The p^e-th root coefficients of f over the monomial basis of R over R^(p^e).

    Writing f = sum_mu g_mu^(p^e) * x^mu with mu ranging over [0, p^e)^n,
    returns the nonzero g_mu.  Scalars ride along unchanged since c^(p^e) = c
    in F_p.
    """
    ring = f.ring
    q = ring.p**e
    buckets: dict[tuple, dict] = {}
    for mono, coeff in f.packed:
        exponents = ring.unpack(mono)
        mu = tuple([a % q for a in exponents])
        buckets.setdefault(mu, {})[ring.pack([a // q for a in exponents])] = coeff
    return [ring.packed_polynomial(terms) for terms in buckets.values()]


def eth_root(a: Ideal, e: int) -> Ideal:
    """The Cartier image C^e * a: the smallest b with a contained in b^[p^e].

    Root extraction is applied to the cached reduced basis (any generating set
    gives the same ideal; the reduced one keeps coefficient counts small), and
    the root coefficients are interreduced, so products built on the root
    start from a short generator list.  The root of a monomial x^m is
    x^(m // p^e), so a monomial ideal floor-divides its basis exponents.
    """
    if check_level(e) == 0 or a.is_zero():
        return a
    basis = a.groebner()
    if a.is_monomial_ideal():
        ring = a.ring
        q = ring.p**e
        return _monomial_ideal(
            ring, (ring.pack([x // q for x in b.leading_monomial()]) for b in basis)
        )
    coefficients = []
    for g in basis:
        coefficients.extend(poly_root_coefficients(g, e))
    return Ideal(a.ring, _interreduce_generators(coefficients))


def eth_root_power(a: Ideal, n: int, e: int) -> Ideal:
    """C^e * a^n by exponent peeling; avoids building a^n for large n.

    Each step's result C^1(a^m0 * extra) is looked up in `a._peels` under
    (m0, extra.canonical_label()) and computed only on a miss.  The key is
    exact: the reduced basis is unique, so equal labels mean equal ideals.
    The memo lives on a, as long as a does, beside its list of powers.
    """
    if n < 0:
        raise ValueError("power must be >= 0")
    check_level(e)
    if a.is_zero() and n > 0:
        return a
    ring = a.ring
    p = ring.p
    r = max(1, len(a.generators))
    if a._peels is None:
        a._peels = {}
    peels = a._peels
    extra = Ideal(ring, (ring.one(),), declared_r=1)
    m = n
    for _ in range(e):
        base = (r - 1) * (p - 1)
        if m > base + p - 1:
            m0 = base + (m - base) % p
        else:
            m0 = m
        key = (m0, extra.canonical_label())
        peeled = peels.get(key)
        if peeled is None:
            peeled = peels[key] = eth_root(a.power(m0).product(extra), 1)
        extra = peeled
        m = (m - m0) // p
    return a.power(m).product(extra)


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
