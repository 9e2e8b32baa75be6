"""Command-line front end: parse declarations, dispatch, emit JSON/CSV/text.

Exit codes: 0 success, 1 precondition violation (bad mathematical input),
2 parse error (malformed text).  Output is byte-stable for a fixed invocation:
all orderings are canonical and all arithmetic exact.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import jumps as jumps_mod
from . import roots as roots_mod
from . import thresholds as thr_mod
from .frobenius import eth_root
from .padic import check_level, format_rational, parse_rational
from .polyring import Ideal, ParseError
from .rings import (
    CatalogPresentation,
    JumpEngine,
    PolynomialRingPresentation,
    Presentation,
    SemigroupRingPresentation,
    jump_engine,
    parse_ring_declaration,
)

EXIT_OK = 0
EXIT_PRECONDITION = 1
EXIT_PARSE = 2


def _parse_rational(text: str, what: str, expected: str) -> Fraction:
    """A rational from the command line; malformed text is a ParseError (exit code 2)."""
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise ParseError(f"bad {what}; expected {expected}") from exc


def _parse_interval(text: str) -> tuple[Fraction, Fraction]:
    lo, _, hi = text.partition(":")
    what = f"interval {text!r}"
    return (_parse_rational(lo, what, "lo:hi"), _parse_rational(hi, what, "lo:hi"))


def _presentation_and_ideal(args) -> tuple[Presentation, object]:
    presentation = parse_ring_declaration(args.ring)
    if not args.ideal and not isinstance(presentation, CatalogPresentation):
        raise ParseError("--ideal is required for this ring")
    return presentation, presentation.parse_ideal(args.ideal)


def _engine(args) -> JumpEngine:
    """The one jump engine of the command's --ring/--ideal pair."""
    return jump_engine(*_presentation_and_ideal(args))


def _polynomial_pair(args):
    presentation, ideal = _presentation_and_ideal(args)
    if not isinstance(presentation, PolynomialRingPresentation):
        raise ValueError(
            "this command needs a polynomial ring (a `poly` declaration);"
            " it does not run on Veronese, semigroup or catalog rings"
        )
    return presentation, ideal


def _emit(args, payload: dict, text_lines: list[str]) -> str:
    if args.format == "json":
        return json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return "\n".join(text_lines)


# -- subcommand handlers -----------------------------------------------------------


def _cmd_jumps(args) -> str:
    engine = _engine(args)
    levels = sorted(set(args.level or [])) or list(
        range(1, check_level(args.levels, least=1, what="levels") + 1)
    )
    table = jumps_mod.jump_table(engine, levels)
    lines = [f"p={table.p} r={table.r} producer={table.producer}"]
    for e in levels:
        lines.append(f"level {e}: {list(table.levels[e])}")
    if args.format == "json":
        return table.to_json()
    return "\n".join(lines)


def _cmd_roots(args) -> str:
    engine = _engine(args)
    interval = _parse_interval(args.interval) if args.interval else None
    certs = roots_mod.bernstein_sato_roots(
        engine,
        levels=args.levels,
        denominator_bound=args.denom_bound,
        interval=interval,
    )
    payload = {"certified_level": args.levels, "roots": [c.to_dict() for c in certs]}
    lines = [f"bernstein-sato roots certified to level {args.levels}:"] + [
        f"  {c}" for c in certs
    ]
    if not certs:
        lines.append("  (none)")
    return _emit(args, payload, lines)


def _cmd_thresholds(args) -> str:
    engine = _engine(args)
    interval = _parse_interval(args.interval) if args.interval else None
    certs = thr_mod.differential_thresholds(
        engine,
        levels=args.levels,
        interval=interval,
        c_max=args.c_max,
        b_max=args.b_max,
    )
    payload = {
        "certified_level": args.levels,
        "thresholds": [
            {
                "num": c.value.numerator,
                "den": c.value.denominator,
                "certified_level": c.certified_level,
                "slack": c.slack,
                "witnesses": [{"e": w.e, "jump": w.jump} for w in c.witnesses],
                "merged": [format_rational(v) for v in c.merged],
            }
            for c in certs
        ],
    }
    lines = [f"differential thresholds certified to level {args.levels}:"] + [
        f"  {c}" for c in certs
    ]
    if not certs:
        lines.append("  (none)")
    return _emit(args, payload, lines)


def _cmd_fpt(args) -> str:
    cert = thr_mod.fpt(_engine(args), levels=args.levels)
    if cert is None:
        return _emit(args, {"fpt": None}, ["no certified threshold found"])
    payload = {
        "fpt": {
            "num": cert.value.numerator,
            "den": cert.value.denominator,
            "certified_level": cert.certified_level,
        }
    }
    return _emit(args, payload, [f"fpt = {cert}"])


def _cmd_nu(args) -> str:
    presentation, ideal = _polynomial_pair(args)
    cideal = presentation.parse_ideal(args.cideal)
    sequence = thr_mod.f_threshold(ideal, cideal, levels=args.levels)
    if args.format == "csv":
        return sequence.csv(presentation.p).rstrip("\n")
    payload = {
        "nu": {str(e): v for e, v in sorted(sequence.nu.items())},
        "limit": None if sequence.limit is None else format_rational(sequence.limit),
        "bracket": [format_rational(x) for x in sequence.bracket],
    }
    lines = [f"e={e}: nu={v}" for e, v in sorted(sequence.nu.items())]
    lines.append(
        f"limit: {format_rational(sequence.limit) if sequence.limit is not None else 'undetermined'}"
    )
    return _emit(args, payload, lines)


def _cmd_test_ideal(args) -> str:
    presentation, ideal = _polynomial_pair(args)
    lam = _parse_rational(args.lam, f"--lam {args.lam!r}", "a rational such as 5/4")
    result = thr_mod.test_ideal(ideal, lam, e_max=args.e_max)
    payload = {
        "lambda": format_rational(lam),
        "tau": [str(g) for g in result.ideal.groebner()],
        "stabilized": result.stabilized,
        "stabilization_level": result.stabilization_level,
    }
    return _emit(args, payload, [f"tau(a^{format_rational(lam)}) = {result}"])


def _cmd_fjn(args) -> str:
    presentation, ideal = _polynomial_pair(args)
    interval = _parse_interval(args.interval)
    values = thr_mod.f_jumping_numbers(
        ideal, interval, e_max=args.e_max, b_max=args.b_max
    )
    payload = {"f_jumping_numbers": [format_rational(v) for v in values]}
    lines = ["f-jumping numbers: " + (", ".join(format_rational(v) for v in values) or "(none)")]
    return _emit(args, payload, lines)


def _cmd_verify_example(args) -> str:
    ok, lines = verify_example(args.id, p=args.p, n=args.n)
    if not ok:
        raise ExampleFailure("\n".join(lines))
    return "\n".join(lines)


class ExampleFailure(ValueError):
    pass


# -- worked-example fixtures -------------------------------------------------------
#
# Each example is a function of (p, n) that yields (name, ok, detail) checks;
# `n` is the parameter of 9.8 and is ignored by the others.


def _report(checks) -> tuple[bool, list[str]]:
    lines = []
    passed = True
    for name, ok, detail in checks:
        status = "ok" if ok else "FAIL"
        lines.append(f"[{status}] {name}: {detail}")
        passed = passed and ok
    lines.append("PASS" if passed else "FAIL")
    return passed, lines


def _listed(values) -> str:
    return "{" + ", ".join(format_rational(Fraction(v)) for v in values) + "}"


def _jump_checks(engine: JumpEngine, levels, name: str, closed_form):
    """The level-e jump set against closed_form(e) at each level; name may use {e}, {jumps}."""
    for e in levels:
        expected = closed_form(e)
        computed = engine.jump_set(e)
        name_e = name.format(e=e, jumps=_listed(expected))
        yield (name_e, computed == expected, f"{list(computed)}")


def _root_check(engine: JumpEngine, levels: int, expected):
    """The certified root set against the listed roots."""
    certs = roots_mod.bernstein_sato_roots(engine, levels=levels)
    got = {c.candidate for c in certs}
    return (f"roots = {_listed(expected)}", got == set(expected), _listed(sorted(got)))


def _threshold_check(engine: JumpEngine, levels: int, interval, where: str, expected):
    """The certified thresholds in the interval against the listed ones."""
    certs = thr_mod.differential_thresholds(engine, levels=levels, interval=interval)
    got = {c.value for c in certs}
    return (f"thresholds{where} = {_listed(expected)}", got == set(expected), _listed(sorted(got)))


def _example_9_2(p: int, n: int):
    """tau of (x^2yz, xy^2z, xyz^2): constant (xyz) on [1, 3/2), jump at 3/2."""
    if p % 2 == 0:
        raise ValueError("example 9.2 needs p odd")
    pres = PolynomialRingPresentation(p, ("x", "y", "z"))
    a = pres.parse_ideal("x^2*y*z, x*y^2*z, x*y*z^2")
    xyz = pres.parse_ideal("x*y*z")
    lambdas = [Fraction(1), Fraction(5, 4)]
    if p == 5:
        lambdas.append(Fraction(29, 20))
    for lam in lambdas:
        result = thr_mod.test_ideal(a, lam, e_max=4)
        ok = result.stabilized and result.ideal == xyz
        yield (f"tau(a^{format_rational(lam)}) = (xyz)", ok, str(result))
    at_three_halves = thr_mod.test_ideal(a, Fraction(3, 2), e_max=4)
    yield (
        "tau(a^(3/2)) != (xyz)",
        at_three_halves.stabilized and at_three_halves.ideal != xyz,
        str(at_three_halves),
    )
    verdict = roots_mod.verify_root_to_level(jump_engine(pres, a), Fraction(-5, 4), 2)
    yield (
        "-5/4 is a root (certified to level 2)",
        isinstance(verdict, roots_mod.RootCertificate),
        str(verdict),
    )
    fjn = thr_mod.f_jumping_numbers(a, (Fraction(1), Fraction(3, 2)), e_max=4, b_max=1)
    yield (
        "F-jumping numbers on [1, 3/2] exclude 5/4 and end at 3/2",
        Fraction(5, 4) not in fjn and Fraction(3, 2) in fjn,
        _listed(sorted(fjn)),
    )


def veronese_square_jump_set(p: int, e: int) -> tuple[int, ...]:
    """Closed-form level-e jumps of (x,y)^2 in F_p[x,y], window [0, 3p^e)."""
    q = p**e
    out = set()
    b = 1
    while b * q - 1 < 3 * q:
        out.add(b * q - 1)
        b += 1
    c = 1
    while ((2 * c + 1) * q - 3) // 2 < 3 * q:
        out.add(((2 * c + 1) * q - 3) // 2)
        c += 1
    return tuple(sorted(out))


def _example_9_3(p: int, n: int):
    """Second Veronese of F_p[x,y]: jump sets, roots {-1, -3/2}, half-integer thresholds."""
    if p % 2 == 0:
        raise ValueError("example 9.3 needs p odd")
    pres = parse_ring_declaration(f"veronese p={p} vars=x,y degree=2")
    engine = jump_engine(pres, pres.parse_ideal("x^2, x*y, y^2"))
    yield from _jump_checks(
        engine, (1, 2), "jump set at level {e}", lambda e: veronese_square_jump_set(p, e)
    )
    yield _root_check(engine, 2, (-1, Fraction(-3, 2)))
    expected_thr = (1, Fraction(3, 2), 2, Fraction(5, 2), 3)
    yield _threshold_check(engine, 4 if p == 3 else 3, (0, 3), " in [0,3]", expected_thr)


def _example_9_4(p: int, n: int):
    """Cartier images of powers of x^4 + y^6 at p = 1 mod 12."""
    if p % 12 != 1:
        raise ValueError("example 9.4 needs p = 1 mod 12")
    ring = PolynomialRingPresentation(p, ("x", "y")).ring
    f = ring.parse("x^4 + y^6")
    for text, power, element in (
        ("y in C^1*f^((7p-7)/12)", 7 * (p - 1) // 12, "y"),
        ("x in C^1*f^(2(p-1)/3)", 2 * (p - 1) // 3, "x"),
        ("y^2 in C^1*f^(3(p-1)/4)", 3 * (p - 1) // 4, "y^2"),
    ):
        root = eth_root(Ideal(ring, (f**power,), declared_r=1), 1)
        yield (text, root.contains(ring.parse(element)), f"n={power}")


def _example_9_5(p: int, n: int):
    """K[x,y]/(xy), element x: jumps {0, q-1}, roots {0, -1}, integer thresholds."""
    engine = jump_engine(CatalogPresentation(p, "cross_xy"), "x")
    yield from _jump_checks(
        engine, (1, 2), "jump set at level {e} = {jumps}", lambda e: (0, p**e - 1)
    )
    yield _root_check(engine, 3, (0, -1))
    yield _threshold_check(engine, 3, (0, 2), " in [0,2]", (0, 1, 2))


def _cusp_checks(p: int, levels, form: str, closed_form, roots, root_levels: int):
    """K[x^2,x^3], element x^2: jump sets against closed_form(p^e), roots, thresholds."""
    pres = SemigroupRingPresentation(p, (2, 3))
    engine = jump_engine(pres, pres.parse_ideal("x^2"))
    name = "engine jump set at level {e} = {{" + form + "}}"
    yield from _jump_checks(engine, levels, name, lambda e: closed_form(p**e))
    yield _root_check(engine, root_levels, roots)
    expected_thr = (Fraction(1, 2), 1, Fraction(3, 2))
    yield _threshold_check(engine, root_levels, (0, Fraction(3, 2)), " in [0, 3/2]", expected_thr)


def _example_9_6(p: int, n: int):
    """The cusp at p > 2: jumps {(q+1)/2, q-1}, roots {-1, 1/2}."""
    if p == 2:
        raise ValueError("example 9.6 needs p > 2 (p = 2 is example 9.7)")
    return _cusp_checks(
        p,
        (1, 2),
        "(q+1)/2, q-1",
        lambda q: tuple(sorted({(q + 1) // 2, q - 1})),
        (-1, Fraction(1, 2)),
        3,
    )


def _example_9_7(p: int, n: int):
    """The cusp at p = 2: jumps {q/2 - 1, q-1}, the only root is -1."""
    if p != 2:
        raise ValueError("example 9.7 is the p = 2 case")
    return _cusp_checks(
        p, (1, 2, 3), "q/2 - 1, q-1", lambda q: (q // 2 - 1, q - 1), (-1,), 5
    )


def _example_9_8(p: int, n: int):
    """K[x]/(x^(n+1)), element x: root {n}, the only threshold is 0."""
    engine = jump_engine(CatalogPresentation(p, "artinian_x_pow", n), "x")
    e = 1
    while p**e <= n:
        e += 1
    yield from _jump_checks(
        engine, (e,), "jump set at level {e} (p^e > n) = {jumps}", lambda _: (n,)
    )
    # Candidates congruent to n modulo p^E mimic the root up to level E; three
    # levels past the closed-form threshold p^e > n removes them for the
    # default denominator bound.
    yield _root_check(engine, e + 3, (n,))
    yield _threshold_check(engine, 5, (0, 1), "", (0,))


# id -> (default p, checks)
EXAMPLES = {
    "9.2": (5, _example_9_2),
    "9.3": (5, _example_9_3),
    "9.4": (13, _example_9_4),
    "9.5": (3, _example_9_5),
    "9.6": (5, _example_9_6),
    "9.7": (2, _example_9_7),
    "9.8": (3, _example_9_8),
}


def verify_example(example_id: str, p: int | None = None, n: int | None = None):
    """Recompute a built-in worked example and diff against its published values."""
    if example_id not in EXAMPLES:
        raise ParseError(f"unknown example {example_id!r}; ids: {sorted(EXAMPLES)}")
    if n is not None and example_id != "9.8":
        raise ValueError(f"example {example_id} takes no parameter n; only 9.8 does")
    default_p, checks = EXAMPLES[example_id]
    return _report(checks(default_p if p is None else p, 4 if n is None else n))


# -- argument parsing --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsroots",
        description=(
            "Exact prime-characteristic invariants: differential jump sets,"
            " Bernstein-Sato roots, thresholds and test ideals over F_p."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, formats=("json", "text")):
        sp.add_argument("--ring", required=True, help='e.g. "poly p=5 vars=x,y"')
        sp.add_argument("--ideal", required=False, help='e.g. "x^2, x*y"')
        sp.add_argument("--format", choices=formats, default="json")

    sp = sub.add_parser("jumps", help="differential jump sets per level")
    common(sp)
    sp.add_argument("--level", type=int, action="append", help="single level (repeatable)")
    sp.add_argument("--levels", type=int, default=2, help="range 1..E when --level absent")
    sp.set_defaults(handler=_cmd_jumps)

    sp = sub.add_parser("roots", help="Bernstein-Sato roots, certified to a level")
    common(sp)
    sp.add_argument("--levels", type=int, default=3)
    sp.add_argument("--denom-bound", type=int, default=None)
    sp.add_argument("--interval", default=None, help="lo:hi as rationals")
    sp.set_defaults(handler=_cmd_roots)

    sp = sub.add_parser("thresholds", help="differential thresholds in an interval")
    common(sp)
    sp.add_argument("--levels", type=int, default=3)
    sp.add_argument("--interval", default=None)
    sp.add_argument("--c-max", type=int, default=None, help="p-power part of denominators")
    sp.add_argument("--b-max", type=int, default=None, help="(p^b - 1) part of denominators")
    sp.set_defaults(handler=_cmd_thresholds)

    sp = sub.add_parser("fpt", help="smallest certified differential threshold")
    common(sp)
    sp.add_argument("--levels", type=int, default=3)
    sp.set_defaults(handler=_cmd_fpt)

    sp = sub.add_parser("nu", help="nu-invariants of a against c (F-threshold data)")
    common(sp, formats=("json", "csv", "text"))
    sp.add_argument("--cideal", required=True, help="the ideal c")
    sp.add_argument("--levels", type=int, default=3)
    sp.set_defaults(handler=_cmd_nu)

    sp = sub.add_parser("test-ideal", help="tau(a^lambda) with stabilization flag")
    common(sp)
    sp.add_argument("--lam", required=True, help="exponent lambda, e.g. 5/4")
    sp.add_argument("--e-max", type=int, default=4)
    sp.set_defaults(handler=_cmd_test_ideal)

    sp = sub.add_parser("fjn", help="F-jumping numbers in an interval")
    common(sp)
    sp.add_argument("--interval", required=True)
    sp.add_argument("--e-max", type=int, default=4)
    sp.add_argument("--b-max", type=int, default=1)
    sp.set_defaults(handler=_cmd_fjn)

    sp = sub.add_parser("verify-example", help="recompute a built-in worked example")
    sp.add_argument("id", choices=sorted(EXAMPLES))
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--n", type=int, default=None, help="parameter for 9.8")
    sp.set_defaults(handler=_cmd_verify_example)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        print(args.handler(args))
        return EXIT_OK
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ExampleFailure as exc:
        print(str(exc))
        print("verification failed", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
