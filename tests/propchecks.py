"""Shared property checks, used by both the hypothesis suite and the seeded
random sweep in the acceptance tests."""

from __future__ import annotations

from fractions import Fraction

from bsroots import (
    Ideal,
    PAdicRational,
    PolyRing,
    eth_root,
    jump_engine,
)
from bsroots.frobenius import diff_closure
from bsroots.polyring import linear_membership
from bsroots.rings import jump_set_via_scan
from bsroots.thresholds import test_ideal, verify_threshold


def random_polynomial(rng, ring: PolyRing, max_degree: int = 4, max_terms: int = 3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = []
        remaining = max_degree
        for _ in range(ring.nvars):
            e = rng.randint(0, remaining)
            mono.append(e)
            remaining -= e
        terms[tuple(mono)] = rng.randint(1, ring.p - 1) if ring.p > 2 else 1
    return ring.polynomial(terms)


def random_generators(rng, ring: PolyRing, count: int, max_degree: int) -> list:
    """`count` or more nonzero random polynomials, not all of them monomials."""
    gens = []
    while len(gens) < count or all(g.is_monomial() for g in gens):
        g = random_polynomial(rng, ring, max_degree=max_degree)
        if not g.is_zero():
            gens.append(g)
    return gens


def in_ideal_by_row_reduction(f, generators, max_cap=16):
    """Membership by `linear_membership`, raising the degree cap up to max_cap.

    RowSpan membership is complete once the cap covers some representation.
    """
    return any(
        linear_membership(f, generators, degree_cap=cap)
        for cap in range(max(f.total_degree(), 0), max_cap + 1)
    )


def random_ideal(rng, ring: PolyRing, max_gens: int = 3, max_degree: int = 4) -> Ideal:
    gens = [
        random_polynomial(rng, ring, max_degree)
        for _ in range(rng.randint(1, max_gens))
    ]
    gens = [g for g in gens if not g.is_zero()] or [ring.variable(ring.variables[0])]
    return Ideal(ring, gens)


def random_proper_monomial_ideal(rng, ring: PolyRing, max_degree: int = 4) -> Ideal:
    gens = []
    for _ in range(rng.randint(1, 3)):
        mono = [rng.randint(0, max_degree // ring.nvars + 1) for _ in range(ring.nvars)]
        if not any(mono):
            mono[rng.randrange(ring.nvars)] = 1
        gens.append(ring.monomial(tuple(mono)))
    return Ideal(ring, gens)


def random_sparse_polynomial(rng, ring: PolyRing, terms: int, max_degree: int = 3):
    """`terms` distinct monomials of total degree 1..max_degree, with nonzero scalars."""
    monos = set()
    while len(monos) < terms:
        mono = [0] * ring.nvars
        for _ in range(rng.randint(1, max_degree)):
            mono[rng.randrange(ring.nvars)] += 1
        monos.add(tuple(mono))
    return ring.polynomial({m: rng.randint(1, ring.p - 1) for m in sorted(monos)})


def random_monomial_ideal(rng, ring: PolyRing, max_exponent: int = 4) -> Ideal:
    """Monomial generators with nonzero scalars, repeats and redundant members."""
    gens = []
    for _ in range(rng.randint(1, 5)):
        mono = tuple(rng.randint(0, max_exponent) for _ in range(ring.nvars))
        gens.append(ring.polynomial({mono: rng.randint(1, ring.p - 1)}))
    return Ideal(ring, gens + gens[:1])


# -- individual properties --------------------------------------------------------


def check_minimal_monomial_basis(ideal: Ideal) -> None:
    """Generators are monic monomials, minimal, strictly descending, and the basis."""
    ring = ideal.ring
    monos = [g.leading_monomial() for g in ideal.generators]
    assert all(g.terms == ((m, 1),) for g, m in zip(ideal.generators, monos)), ideal
    assert sorted(set(monos), key=ring.monomial_key, reverse=True) == monos, ideal
    assert not any(
        k != m and all(a <= b for a, b in zip(k, m)) for k in monos for m in monos
    ), ideal
    assert ideal.groebner() == ideal.generators, ideal


def check_adjunction(a: Ideal, b: Ideal, e: int) -> None:
    """eth_root(a, e) in b  <=>  a in b^[p^e]."""
    left = b.contains_ideal(eth_root(a, e))
    right = b.frobenius_power(e).contains_ideal(a)
    assert left == right, (a, b, e)


def check_root_of_frobenius_power(b: Ideal, e: int) -> None:
    """eth_root(b^[p^e], e) recovers b."""
    assert eth_root(b.frobenius_power(e), e) == b, (b, e)


def check_root_kills_diff_closure(a: Ideal, e: int) -> None:
    """C^e applied to the level-e differential closure changes nothing."""
    assert eth_root(diff_closure(a, e), e) == eth_root(a, e), (a, e)


def check_diff_closure_monotone_in_level(a: Ideal, e: int) -> None:
    assert diff_closure(a, e + 1).contains_ideal(diff_closure(a, e)), (a, e)


def check_frobenius_level_shift(a: Ideal, b: Ideal, e: int) -> None:
    """D^(e)-closure equality transfers across one Frobenius power (F-split)."""
    small = Ideal(a.ring, a.generators + b.generators)  # b' := a + b contains a
    lhs = diff_closure(a, e) == diff_closure(small, e)
    rhs = diff_closure(a.frobenius_power(1), e + 1) == diff_closure(
        small.frobenius_power(1), e + 1
    )
    assert lhs == rhs, (a, b, e)


def check_nesting(presentation, ideal, e: int) -> None:
    """Level-(e+1) jumps, reduced into the level-e window, are level-e jumps."""
    engine = jump_engine(presentation, ideal)
    q = engine.p**e
    window = engine.r * q
    for n in engine.jump_set(e + 1):
        reduced = n
        while reduced >= window:
            reduced -= q
        assert engine.is_jump(reduced, e), (ideal, e, n)


def check_descent_lemma(engine, e: int) -> None:
    """Each level-(e+1) jump n has a level-e jump j with p*j <= n <= p*(j + r) - 1.

    Both levels are read with the window-scan oracle `jump_set_via_scan`, so
    the check holds the Frobenius sandwich to labels alone, not to the descent
    that the regular engine's own `jump_set` builds on it.
    """
    p, r = engine.p, engine.r
    below = jump_set_via_scan(engine, e)
    for n in jump_set_via_scan(engine, e + 1):
        assert any(p * j <= n <= p * (j + r) - 1 for j in below), (engine.ideal, e, n)


def check_subtract_pe(presentation, ideal, e: int) -> None:
    """A jump at n >= r(p^e - 1) + 1 forces one at n - p^e."""
    engine = jump_engine(presentation, ideal)
    q = engine.p**e
    lo = engine.r * (q - 1) + 1
    for n in range(lo, engine.r * q + q):
        if engine.is_jump(n, e):
            assert engine.is_jump(n - q, e), (ideal, e, n)


def check_propagation(presentation, ideal, e: int) -> None:
    """F-split only: a jump at n spawns one in [np, np + r(p-1)] at level e+1."""
    engine = jump_engine(presentation, ideal)
    p, r = engine.p, engine.r
    for n in engine.jump_set(e):
        assert any(
            engine.is_jump(m, e + 1) for m in range(n * p, n * p + r * (p - 1) + 1)
        ), (ideal, e, n)


def check_gap_propagation(presentation, ideal, e: int) -> None:
    """F-split only: a jump-free [n-r+1, m-1] forces jump-free [np-r+1, mp-1]."""
    engine = jump_engine(presentation, ideal)
    p, r = engine.p, engine.r
    window = engine.r * p**e
    jumps = set(engine.jump_set(e))
    for n in range(0, window - 1):
        m = n + r  # smallest nontrivial gap width
        if m > window:
            break
        if any(j in jumps for j in range(max(0, n - r + 1), m)):
            continue
        assert not any(
            engine.is_jump(k, e + 1) for k in range(max(0, n * p - r + 1), m * p)
        ), (ideal, e, n)


def check_tau_monotone(a: Ideal, lam1: Fraction, lam2: Fraction, e_max: int = 3) -> None:
    if lam1 > lam2:
        lam1, lam2 = lam2, lam1
    t1 = test_ideal(a, lam1, e_max)
    t2 = test_ideal(a, lam2, e_max)
    assert t1.ideal.contains_ideal(t2.ideal), (a, lam1, lam2)


def check_expansion_formula(value: Fraction, p: int, e: int, a: int) -> None:
    """Lemma-style closed-form truncation agrees with the modular inverse."""
    alpha = PAdicRational(value, p)
    if ((p**e - 1) * value).denominator != 1:
        return
    try:
        via_formula = alpha.expn_truncation(e, a)
    except ValueError:
        return  # a below the validity bound; nothing to compare
    assert via_formula == alpha.truncation(e * a), (value, p, e, a)


def check_skoda_certificate(presentation, ideal, levels: int = 2) -> None:
    """If lam > r is certified, lam - 1 is certified at the same level."""
    engine = jump_engine(presentation, ideal)
    r = engine.r
    for k in range(1, 3):
        lam = Fraction(r + k)
        cert = verify_threshold(engine, lam, levels)
        if cert is not None:
            assert verify_threshold(engine, lam - 1, levels) is not None, (ideal, lam)


def check_multiplication_by_p(presentation, ideal, lam: Fraction, levels: int = 3) -> None:
    """F-split: lam certified to E implies p*lam certified to E - 1."""
    engine = jump_engine(presentation, ideal)
    cert = verify_threshold(engine, lam, levels)
    if cert is not None:
        assert verify_threshold(engine, lam * engine.p, levels - 1) is not None, (
            ideal,
            lam,
        )


# -- closed-form catalog labels ---------------------------------------------------
#
# Each oracle labels D^(e)*a^n by a value whose equalities are those of the
# ideals; the engines compute their labels independently.


def cross_xy_label(p: int, n: int, e: int) -> int:
    """Test oracle: K[x,y]/(xy), a = (x); D^(e)*x^n is (x^(uq)) or (x^(uq+1))."""
    q = p**e
    u, j = divmod(n, q)
    return u * q if j == 0 else u * q + 1


def cusp_label(p: int, n: int, e: int) -> int:
    """Test oracle: K[x^2,x^3], a = (x^2); the jumps in [0, q) repeat with period q.

    The window jumps are {(q+1)/2, q-1} for p > 2 and {q/2 - 1, q-1} for p = 2;
    the label counts the jumps below n.
    """
    q = p**e
    window = (q // 2 - 1, q - 1) if p == 2 else ((q + 1) // 2, q - 1)
    u, j = divmod(n, q)
    return u * len(window) + sum(1 for w in window if w < j)


def artinian_label(p: int, top: int, m: int, e: int) -> int | None:
    """Test oracle: K[x]/(x^(top+1)), a = (x); the least exponent of D^(e)*x^m.

    D^(e) = End over the subring of p^e-th powers; each residue class mod p^e
    is a cyclic module, and a degree shift from class j to class k exists iff
    k + (N_k - N_j + u) q <= top is attainable.  None stands for the zero ideal.
    """
    q = p**e
    if m > top:
        return None
    j, u = m % q, m // q
    nj = (top - j) // q
    best = None
    for k in range(min(q, top + 1)):
        nk = (top - k) // q
        exponent = k + (max(0, nk - nj) + u) * q
        if exponent <= top and (best is None or exponent < best):
            best = exponent
    return best


def check_labels_match_oracle(engine, oracle, e: int) -> None:
    """Engine labels and oracle labels have the same equalities on [0, 4 p^e]."""
    window = 4 * engine.p**e
    labels = [engine.d_label(n, e) for n in range(window + 1)]
    expected = [oracle(n) for n in range(window + 1)]
    pairs = set(zip(labels, expected))
    assert len(pairs) == len(set(labels)) == len(set(expected)), (engine.p, e)
    oracle_jumps = tuple(n for n in range(window) if expected[n] != expected[n + 1])
    jumps = tuple(n for n in range(window) if engine.is_jump(n, e))
    assert jumps == oracle_jumps, (engine.p, e)
