"""Record the expected output of every benchmark job into expected.json.

Run once, from the repository root, when a job or the pool changes:

    python3 perfbench/record.py

Each workload has fixed anchor jobs plus a pool of random instances that the
run seed draws from.  Every expected output is checked here, outside any timed
region: anchors against closed forms and against independent routes of the
library (`jump_set_via_oracle`, `cartier_threshold`, Cartier roots of raw
generator products), pool instances against the oracle where one applies.
Where the program is wrong or does not finish, the expected value is the
correct one, so the job counts as failed until the program is fixed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import platform
import random
import signal
import sys
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bsroots import cli  # noqa: E402
from bsroots import roots as roots_mod  # noqa: E402
from bsroots.frobenius import poly_root_coefficients  # noqa: E402
from bsroots.jumps import jump_set_via_oracle  # noqa: E402
from bsroots.padic import format_rational  # noqa: E402
from bsroots.polyring import Ideal  # noqa: E402
from bsroots.rings import RegularJumpEngine, parse_ring_declaration  # noqa: E402
from bsroots.thresholds import _detect_limit, cartier_threshold  # noqa: E402

OUT = Path(__file__).resolve().parent / "expected.json"

A92 = "x^2*y*z, x*y^2*z, x*y*z^2"
P5XYZ = "poly p=5 vars=x,y,z"
VERONESE = "veronese p=5 vars=x,y degree=2"
P5XY = "poly p=5 vars=x,y"
CUSPIDAL = "x^2+y^3, x*y"

ANCHORS = {
    "monomial": [
        ("a92.jumps.L1-2", ["jumps", "--ring", P5XYZ, "--ideal", A92, "--levels", "2"]),
        ("a92.roots.L3", ["roots", "--ring", P5XYZ, "--ideal", A92, "--levels", "3"]),
        ("a92.fpt.L2", ["fpt", "--ring", P5XYZ, "--ideal", A92, "--levels", "2"]),
        ("a92.fjn.0-3/2", ["fjn", "--ring", P5XYZ, "--ideal", A92, "--interval", "0:3/2"]),
        ("a92.test-ideal.29/20", ["test-ideal", "--ring", P5XYZ, "--ideal", A92, "--lam", "29/20"]),
        ("veronese.roots.L3", ["roots", "--ring", VERONESE, "--ideal", "x^2, x*y, y^2",
                               "--levels", "3"]),
        ("veronese.thresholds.L3", ["thresholds", "--ring", VERONESE, "--ideal", "x^2, x*y, y^2",
                                    "--levels", "3", "--interval", "0:3/2"]),
        ("x.nu.x30.L3", ["nu", "--ring", "poly p=5 vars=x", "--ideal", "x", "--cideal", "x^30",
                         "--levels", "3"]),
    ],
    "groebner": [
        ("cusp2.jumps.L1", ["jumps", "--ring", P5XY, "--ideal", CUSPIDAL, "--level", "1"]),
        ("x2y2xy.jumps.L1", ["jumps", "--ring", P5XY, "--ideal", "x^2, y^2+x*y", "--level", "1"]),
        ("cusp2.roots.L1", ["roots", "--ring", P5XY, "--ideal", CUSPIDAL, "--levels", "1"]),
        ("x4y6.fpt.L2", ["fpt", "--ring", "poly p=13 vars=x,y", "--ideal", "x^4+y^6",
                         "--levels", "2"]),
        ("fermat3.fpt.L2", ["fpt", "--ring", "poly p=7 vars=x,y,z", "--ideal", "x^3+y^3+z^3",
                            "--levels", "2"]),
        ("cusp2.nu.xy.L3", ["nu", "--ring", P5XY, "--ideal", CUSPIDAL, "--cideal", "x, y",
                            "--levels", "3"]),
        ("example-9.4", ["verify-example", "9.4"]),
        # Ran past 60 s on a 2-core host and more than 10 min in the roadmap
        # baseline; it stays as the gate for the Buchberger rework.
        ("cusp2.roots.L2", ["roots", "--ring", P5XY, "--ideal", CUSPIDAL, "--levels", "2"]),
    ],
    "semigroup": [
        ("s357.thresholds.L5", ["thresholds", "--ring", "semigroup p=5 gens=3,5,7",
                                "--ideal", "x^3", "--levels", "5"]),
        ("s357.roots.L6", ["roots", "--ring", "semigroup p=5 gens=3,5,7", "--ideal", "x^3",
                           "--levels", "6"]),
        ("s4567.thresholds.L5", ["thresholds", "--ring", "semigroup p=3 gens=4,5,6,7",
                                 "--ideal", "x^4, x^5", "--levels", "5"]),
        ("s4567.roots.L6", ["roots", "--ring", "semigroup p=3 gens=4,5,6,7",
                            "--ideal", "x^4, x^5", "--levels", "6"]),
        ("s25.thresholds.L4", ["thresholds", "--ring", "semigroup p=7 gens=2,5",
                               "--ideal", "x^2, x^5", "--levels", "4"]),
        ("example-9.5", ["verify-example", "9.5"]),
        ("example-9.6", ["verify-example", "9.6"]),
        ("example-9.7", ["verify-example", "9.7"]),
        ("example-9.8", ["verify-example", "9.8"]),
    ],
}

# Jobs the program cannot finish (or answers wrongly) at recording time get
# their expected output from an independent route instead of the program.
PROGRAM_LIMIT_S = 60.0

POOL_SIZE = 16
POOL_GENERATION_SEED = 2110_00129
# Pool instances are kept cheap so that which ones a seed draws moves the
# workload's wall time by little; heavy inputs are the anchors' job.
POOL_COST_CAP_S = 0.15


class _Timeout(BaseException):
    pass


def _alarm(signum, frame):
    raise _Timeout


def run_cli(argv, limit_s=PROGRAM_LIMIT_S):
    """(exit code or None on timeout, stdout, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(argv))
    except _Timeout:
        code = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, out.getvalue(), time.perf_counter() - start


def dumps(payload) -> str:
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


def option(argv, name):
    return argv[argv.index(name) + 1]


# -- independent routes ----------------------------------------------------------


def _span_basis(ring, polys):
    """A basis of the F_p-span of polys, by row echelon on monomial coordinates."""
    p = ring.p
    rows = {}
    for f in polys:
        vec = dict(f.terms)
        while vec:
            lead = max(vec, key=ring.monomial_key)
            pivot = rows.get(lead)
            if pivot is None:
                inv = pow(vec[lead], -1, p)
                rows[lead] = {m: c * inv % p for m, c in vec.items()}
                break
            c = vec[lead]
            for m, pc in pivot.items():
                v = (vec.get(m, 0) - c * pc) % p
                if v:
                    vec[m] = v
                else:
                    vec.pop(m, None)
    return [ring.polynomial(row) for row in rows.values()]


class RawRootEngine(RegularJumpEngine):
    """Labels C^e(a^n) from root coefficients of the raw generator products.

    Root coefficients of any generating set of a^n generate C^e(a^n), so this
    route never forms a Groebner basis of a^n: the products are expanded, their
    root coefficients are cut down to a basis of their span, and only that small
    ideal is put in canonical form.
    """

    def d_label(self, n, e):
        key = (n, e)
        label = self._labels.get(key)
        if label is None:
            ring = self.ideal.ring
            coefficients = []
            for combo in combinations_with_replacement(self.ideal.generators, n):
                g = ring.one()
                for h in combo:
                    g = g * h
                coefficients.extend(poly_root_coefficients(g, e))
            label = Ideal(ring, _span_basis(ring, coefficients)).canonical_label()
            self._labels[key] = label
        return label


def raw_route_roots(ring_text, ideal_text, levels) -> str:
    """`bsroots roots` output computed through RawRootEngine."""
    presentation = parse_ring_declaration(ring_text)
    engine = RawRootEngine(presentation.parse_ideal(ideal_text))
    candidates = roots_mod.enumerate_candidates(
        engine.p, max(1, (levels + 1) // 2), engine.default_root_interval()
    )
    verdicts = [roots_mod.verify_root_to_level(engine, c, levels) for c in candidates]
    certs = [v for v in verdicts if isinstance(v, roots_mod.RootCertificate)]
    return dumps({"certified_level": levels, "roots": [c.to_dict() for c in certs]})


def raw_nu(argv) -> dict[int, int]:
    """nu_e = max{n : a^n not in c^[p^e]} for a monomial ideal c, from raw products.

    A polynomial lies in a monomial ideal exactly when each of its terms does,
    so a^n is inside c^[p^e] when every term of every product of n generators
    is divisible by some p^e-th power of a generator of c.
    """
    presentation = parse_ring_declaration(option(argv, "--ring"))
    a = presentation.parse_ideal(option(argv, "--ideal"))
    c = presentation.parse_ideal(option(argv, "--cideal"))
    ring = a.ring
    nu = {}
    for e in range(1, int(option(argv, "--levels")) + 1):
        q = ring.p**e
        walls = [tuple(q * k for k in g.leading_monomial()) for g in c.generators]

        def inside(n):
            for combo in combinations_with_replacement(a.generators, n):
                g = ring.one()
                for h in combo:
                    g = g * h
                for mono, _ in g.terms:
                    if not any(all(m >= w for m, w in zip(mono, wall)) for wall in walls):
                        return False
            return True

        # Containment is monotone in n: double past it, then bisect.
        lo, hi = 0, 1
        while not inside(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if inside(mid) else (mid, hi)
        nu[e] = lo
    return nu


def nu_output(nu: dict, p: int, r: int) -> str:
    """`bsroots nu` JSON output for given nu-values."""
    seq = _detect_limit(nu, p, r)
    return dumps({
        "nu": {str(e): v for e, v in sorted(seq.nu.items())},
        "limit": None if seq.limit is None else format_rational(seq.limit),
        "bracket": [format_rational(x) for x in seq.bracket],
    })


def oracle_level1(argv) -> tuple[int, ...]:
    presentation = parse_ring_declaration(option(argv, "--ring"))
    return jump_set_via_oracle(presentation.parse_ideal(option(argv, "--ideal")), 1)


def _values(payload, key):
    return {Fraction(c["num"], c["den"]) for c in payload[key]}


def check(condition, what):
    if not condition:
        raise SystemExit(f"record: check failed: {what}")
    print(f"  ok: {what}")


# -- anchors ---------------------------------------------------------------------


def record_anchor(workload, job_id, argv):
    code, stdout, seconds = run_cli(argv)
    print(f"{workload}/{job_id}: exit {code} in {seconds:.2f} s")
    text = stdout.rstrip("\n")
    if job_id == "x.nu.x30.L3":
        # 30 * 5^e - 1; the program refuses the job at its f^24 radical bound.
        closed = {e: 30 * 5**e - 1 for e in (1, 2, 3)}
        check(raw_nu(argv) == closed, "nu(x, x^30) = 30*5^e - 1 by the raw-product route")
        return nu_output(closed, 5, 1) + "\n"
    if job_id == "cusp2.roots.L2":
        expected = raw_route_roots(P5XY, CUSPIDAL, 2)
        check(code is None or text == expected, "program agrees with the raw-product route")
        return expected + "\n"
    check(code == 0, f"{job_id} exits 0")
    if job_id in ("a92.jumps.L1-2", "cusp2.jumps.L1", "x2y2xy.jumps.L1"):
        check(tuple(json.loads(text)["levels"]["1"]) == oracle_level1(argv),
              f"{job_id} level 1 equals jump_set_via_oracle")
    if job_id == "a92.roots.L3":
        got = _values(json.loads(text), "roots")
        check(got <= {Fraction(-3, 2), Fraction(-5, 4), Fraction(-1), Fraction(-3, 4)},
              "a92 level-3 roots lie among its level-2 roots")
    if job_id == "a92.fpt.L2":
        # 3/4 merges into the cluster at 1 at level-2 resolution.
        check(json.loads(text)["fpt"] == {"certified_level": 2, "den": 1, "num": 1},
              "fpt(a92) at level 2 reports 1")
    if job_id == "a92.fjn.0-3/2":
        check(json.loads(text)["f_jumping_numbers"] == ["3/4", "1", "3/2"],
              "F-jumping numbers of a92 on [0, 3/2] are {3/4, 1, 3/2}")
    if job_id == "a92.test-ideal.29/20":
        payload = json.loads(text)
        check(payload["tau"] == ["x*y*z"] and payload["stabilized"],
              "tau(a92^(29/20)) = (xyz), stabilized")
    if job_id == "veronese.roots.L3":
        check(_values(json.loads(text), "roots") == {Fraction(-3, 2), Fraction(-1)},
              "Veronese roots are {-3/2, -1}")
    if job_id == "veronese.thresholds.L3":
        check({Fraction(t["num"], t["den"]) for t in json.loads(text)["thresholds"]}
              == {Fraction(1), Fraction(3, 2)}, "Veronese thresholds on [0, 3/2] are {1, 3/2}")
    if job_id == "cusp2.roots.L1":
        check(text == raw_route_roots(P5XY, CUSPIDAL, 1),
              "level-1 roots agree with the raw-product route")
    if job_id == "x4y6.fpt.L2":
        check(json.loads(text)["fpt"]["num"] == 5 and json.loads(text)["fpt"]["den"] == 12,
              "fpt(x^4+y^6) at p=13 is 5/12")
    if job_id == "fermat3.fpt.L2":
        check(json.loads(text)["fpt"]["num"] == 1 and json.loads(text)["fpt"]["den"] == 1,
              "fpt(x^3+y^3+z^3) at p=7 is 1")
    if job_id == "cusp2.nu.xy.L3":
        nu = {int(e): v for e, v in json.loads(text)["nu"].items()}
        check(nu == {1: 4, 2: 24, 3: 124}, "nu((x^2+y^3, xy), (x, y)) = 4, 24, 124")
        check(raw_nu(argv) == nu, "nu agrees with the raw-product route")
        pres = parse_ring_declaration(P5XY)
        route = cartier_threshold(pres.parse_ideal(CUSPIDAL), pres.parse_ideal("x, y"), 2)
        check(route.nu == {e: nu[e] for e in (1, 2)},
              "nu agrees with cartier_threshold at levels 1-2")
    if job_id.startswith("example-"):
        check(text.endswith("PASS"), f"{job_id} passes its stored checks")
    return stdout


# -- seeded pools ----------------------------------------------------------------


def _monomial(exps, names):
    parts = [v if k == 1 else f"{v}^{k}" for v, k in zip(names, exps) if k]
    return "*".join(parts)


def monomial_instance(rng):
    """A random 2-3 generator monomial ideal of F_5[x,y,z]."""
    gens = set()
    count = rng.choice((2, 3))
    while len(gens) < count:
        e = tuple(rng.randint(0, 3) for _ in range(3))
        if 2 <= sum(e) <= 5:
            gens.add(e)
    ideal = ", ".join(_monomial(e, "xyz") for e in sorted(gens))
    return [
        ["jumps", "--ring", P5XYZ, "--ideal", ideal, "--levels", "2"],
        ["roots", "--ring", P5XYZ, "--ideal", ideal, "--levels", "2"],
    ]


def groebner_instance(rng):
    """A random binomial or trinomial of F_5[x,y] (a principal ideal)."""
    terms = set()
    count = rng.choice((2, 3))
    while len(terms) < count:
        e = (rng.randint(0, 4), rng.randint(0, 4))
        if 2 <= sum(e) <= 5:
            terms.add(e)
    f = " + ".join(_monomial(e, "xy") for e in sorted(terms, reverse=True))
    return [
        ["jumps", "--ring", P5XY, "--ideal", f, "--levels", "2"],
        ["fpt", "--ring", P5XY, "--ideal", f, "--levels", "2"],
    ]


def semigroup_instance(rng):
    """A random numerical semigroup with 2-4 generators <= 9, with x^(smallest)."""
    while True:
        gens = sorted(rng.sample(range(2, 10), rng.choice((2, 3, 4))))
        if math.gcd(*gens) == 1 and not any(
            g != h and h % g == 0 for g in gens for h in gens
        ):
            break
    ring = f"semigroup p={rng.choice((3, 5, 7))} gens={','.join(map(str, gens))}"
    ideal = f"x^{gens[0]}"
    return [
        ["thresholds", "--ring", ring, "--ideal", ideal, "--levels", "3"],
        ["roots", "--ring", ring, "--ideal", ideal, "--levels", "4"],
    ]


POOL_MAKERS = {
    "monomial": monomial_instance,
    "groebner": groebner_instance,
    "semigroup": semigroup_instance,
}


def record_pool(workload):
    rng = random.Random(f"{POOL_GENERATION_SEED}:{workload}")
    pool, seen, rejected = [], set(), 0
    while len(pool) < POOL_SIZE:
        argvs = POOL_MAKERS[workload](rng)
        key = tuple(map(tuple, argvs))
        if key in seen:
            continue
        seen.add(key)
        jobs, cost = [], 0.0
        for argv in argvs:
            code, stdout, seconds = run_cli(argv, limit_s=10 * POOL_COST_CAP_S)
            cost += seconds
            if code != 0:
                break
            jobs.append({"argv": argv, "exit": 0, "stdout": stdout})
        if len(jobs) < len(argvs) or cost > POOL_COST_CAP_S:
            rejected += 1
            continue
        for job in jobs:
            if job["argv"][0] == "jumps" and workload != "semigroup":
                check(tuple(json.loads(job["stdout"])["levels"]["1"])
                      == oracle_level1(job["argv"]),
                      f"pool {option(job['argv'], '--ideal')} level 1 equals the oracle")
        instance = len(pool)
        for k, job in enumerate(jobs):
            job["id"] = f"pool{instance:02d}.{job['argv'][0]}"
        pool.append(jobs)
        print(f"{workload} pool {instance}: {option(argvs[0], '--ideal')} "
              f"({option(argvs[0], '--ring')}) {cost:.3f} s")
    return pool, rejected


def main():
    signal.signal(signal.SIGALRM, _alarm)
    data = {"anchors": {}, "pool": {}, "recorded": {
        "python": platform.python_version(),
        "pool_size": POOL_SIZE,
        "pool_generation_seed": POOL_GENERATION_SEED,
        "pool_cost_cap_s": POOL_COST_CAP_S,
        "pool_rejected": {},
    }}
    for workload, anchors in ANCHORS.items():
        data["anchors"][workload] = [
            {"id": job_id, "argv": argv, "exit": 0,
             "stdout": record_anchor(workload, job_id, argv)}
            for job_id, argv in anchors
        ]
        pool, rejected = record_pool(workload)
        data["pool"][workload] = pool
        data["recorded"]["pool_rejected"][workload] = rejected
    OUT.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {OUT.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
