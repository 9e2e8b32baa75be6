"""The bsroots benchmark: closed-loop CLI workloads with checked outputs.

    python3 perfbench/run.py --workload monomial --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one table each

Run it from the repository root.  One client runs a workload's job list back
to back, each job a `bsroots` CLI invocation executed in-process through
`bsroots.cli.run(argv)`.  A pass runs the whole list in a fresh interpreter, so
the module-level caches start cold as they do for a CLI user, while the jobs
of one pass share that process as a library session does.  Passes repeat
until `--seconds` have elapsed and each workload has its `MIN_PASSES`.

Every time is in reference seconds (see worker.py): measured seconds scaled
by how fast the host ran a fixed block of pure-Python work while they were
measured, so that the shared host's swings in speed cancel out and a change to
bsroots does not.  `wall_s` sums each job's fastest pass, `cpu_s` likewise,
and `slowest_job_s` is the largest of those.  A job that times out is charged
the time it ran, which is the timeout, and is not run again in the same run.
Set-up (importing bsroots and parsing every job's input) is timed in separate
fresh interpreters and reported as the median.  The unscaled sums are printed
in the table and kept in the run record, not in the JSON line.

Every job's stdout and exit code are checked against perfbench/expected.json
(see record.py).  A job fails if it exits nonzero, raises, times out, or
prints something else; a job that exits 0 with a different output is also a
wrong answer, which makes the run incorrect.

With `--trace 1` one untraced pass is followed by traced passes (see
tracer.py), and the per-layer metrics and self-time shares by layer are
reported instead of the end-to-end metrics.  Call counts are taken from the
first traced pass, times are medians over the traced passes.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from tracer import layer_self_times, metric_unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

WORKLOADS = ("monomial", "groebner", "semigroup")
POOL_DRAWS = 3
JOB_TIMEOUT_S = 12.0
SETUP_REPEATS = 9
# Every job gets at least this many untraced samples per run.  The short
# semigroup pass is repeated until its run covers about as much time as the
# others.
MIN_PASSES = {"monomial": 2, "groebner": 2, "semigroup": 5}
# Two traced passes let every traced run check that call counts repeat.
TRACED_PASSES = 2
# A run must end well inside the 180 s a caller allows it.
RUN_BUDGET_S = 150.0

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("slowest_job_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def job_list(expected: dict, workload: str, seed: int) -> list[dict]:
    """Seeded pool draws first, then the anchors (the known-slow one is last)."""
    rng = random.Random(f"{workload}:{seed}")
    drawn = rng.sample(expected["pool"][workload], POOL_DRAWS)
    return [job for instance in drawn for job in instance] + expected["anchors"][workload]


def child_env() -> dict:
    env = dict(os.environ)
    # The thread pool stays off; hashing is pinned so call counts repeat.
    env.pop("BSROOTS_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    # Bytecode is cached as for an installed CLI, so set-up times an import,
    # not a compile, in every checkout.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(spec: dict, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchError("out of time before a pass could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(spec), capture_output=True, text=True,
            env=child_env(), cwd=ROOT, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a {spec['mode']} pass ran past the run budget") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{spec['mode']} pass exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_pass(result: dict, jobs: list[dict]) -> tuple[int, int, list[str]]:
    """(failed, wrong, notes) of one pass; wrong counts exit-0 jobs with other output."""
    failed = wrong = 0
    notes = []
    for job, got in zip(jobs, result["jobs"]):
        if got["status"] == job["exit"] and got["stdout"] == job["stdout"]:
            continue
        failed += 1
        if got["status"] == 0:
            wrong += 1
            notes.append(f"{job['id']}: WRONG OUTPUT")
        else:
            notes.append(f"{job['id']}: {got['status']}")
    return failed, wrong, notes


def fastest(passes: list[dict], key: str) -> list[float]:
    """Per job, the least `key` over the passes.

    The host's speed drifts between an uncontended floor and slower regimes
    lasting seconds, longer than most jobs; the fastest of a job's passes
    tracks the floor, where a mean or median of a few passes tracks whichever
    regime the passes fell into.
    """
    return [min(values) for values in zip(*([j[key] for j in r["jobs"]] for r in passes))]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, expected: dict,
                 deadline: float) -> dict:
    jobs = job_list(expected, workload, seed)
    spec = {"jobs": [{"id": j["id"], "argv": j["argv"]} for j in jobs],
            "timeout_s": JOB_TIMEOUT_S}
    start = time.monotonic()
    setups = []
    if not trace:
        setups = [run_child({**spec, "mode": "setup"}, deadline) for _ in range(SETUP_REPEATS)]
    plain, traced = [], []
    timed_out: dict[str, dict] = {}
    measure_start = time.monotonic()
    while True:
        elapsed = time.monotonic() - measure_start
        done = len(plain if not trace else traced)
        if done >= (TRACED_PASSES if trace else MIN_PASSES[workload]) and elapsed >= seconds:
            break
        if done and time.monotonic() + elapsed / len(plain + traced) > deadline:
            break
        # A job that timed out once in this run is charged the same overrun in
        # later passes instead of being run again.
        todo = {**spec, "jobs": [j for j in spec["jobs"] if j["id"] not in timed_out]}
        if trace and plain:
            OUT_DIR.mkdir(exist_ok=True)
            spans = OUT_DIR / f"spans-{workload}-seed{seed}-pass{len(traced)}.jsonl"
            result = run_child({**todo, "mode": "trace", "spans_path": str(spans)}, deadline)
            traced.append(result)
        else:
            result = run_child({**todo, "mode": "run"}, deadline)
            plain.append(result)
        ran = {j["id"]: j for j in result["jobs"]}
        timed_out.update((i, j) for i, j in ran.items() if j["status"] == "timeout")
        result["jobs"] = [ran.get(j["id"]) or timed_out[j["id"]] for j in spec["jobs"]]

    failed = wrong = 0
    notes: set[str] = set()
    for result in plain + traced:
        f, w, n = check_pass(result, jobs)
        failed, wrong = failed + f, wrong + w
        notes.update(n)
    attempted = len(jobs) * len(plain + traced)
    summary = {
        "workload": workload,
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "notes": sorted(notes),
        "passes": len(plain),
        "traced_passes": len(traced),
        "elapsed_s": time.monotonic() - start,
        "job_seconds": [{j["id"]: j["seconds"] for j in r["jobs"]} for r in plain + traced],
    }
    if not trace:
        seconds = fastest(plain, "seconds")
        summary["metrics"] = {
            "wall_s": sum(seconds),
            "cpu_s": sum(fastest(plain, "cpu_s")),
            "slowest_job_s": max(seconds),
            "setup_s": median(s["setup_s"] for s in setups),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in plain),
            "ok_ratio": (attempted - failed) / attempted,
        }
        summary["raw_wall_s"] = sum(fastest(plain, "raw_seconds"))
        summary["raw_setup_s"] = median(s["raw_setup_s"] for s in setups)
        summary["fail_ratio"] = failed / attempted
        return summary

    counts = [r["layers"] for r in traced]
    summary["counts_repeat"] = all(
        c[name] == counts[0][name] for c in counts for name in c if not name.endswith("_s")
    )
    layers = {}
    for name in counts[0]:
        values = [c[name] for c in counts]
        layers[name] = median(values) if name.endswith("_s") else values[0]
    layers["trace.overhead_ratio"] = (sum(fastest(traced, "seconds"))
                                      / sum(fastest(plain, "seconds")))
    summary["metrics"] = layers
    per_pass = [layer_self_times(r["names"]) for r in traced]
    self_s = {layer: median([p[layer] for p in per_pass]) for layer in per_pass[0]}
    total = sum(self_s.values()) or 1.0
    summary["layer_shares"] = {layer: t / total for layer, t in self_s.items()}
    return summary


def commit_id() -> str | None:
    """The checked-out commit, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_record(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit_id(),
        "src_sha256": source_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "job_timeout_s": JOB_TIMEOUT_S,
        "env": {"BSROOTS_THREADS": "unset", "PYTHONHASHSEED": "0",
                "PYTHONDONTWRITEBYTECODE": "unset", "interpreter": "fresh per pass"},
    }


def print_summary(summary: dict) -> None:
    print(f"== {summary['workload']}: {summary['passes']} pass(es)"
          + (f" + {summary['traced_passes']} traced" if summary["traced_passes"] else "")
          + f", {summary['attempted']} jobs, {summary['failed']} failed")
    for note in summary["notes"]:
        print(f"   failed job: {note}")
    if "layer_shares" in summary:
        for name, value in summary["metrics"].items():
            print(f"   {name:36s} {value:14.6g} {metric_unit(name)}")
        print("   self-time share by layer:")
        for layer, share in sorted(summary["layer_shares"].items(), key=lambda kv: -kv[1]):
            print(f"     {layer:24s} {100 * share:6.2f} %")
        if not summary["counts_repeat"]:
            print("   WARNING: call counts differ between traced passes")
    else:
        for name, unit in END_TO_END:
            print(f"   {name:16s} {summary['metrics'][name]:12.6g} {unit}")
        print(f"   {'fail_ratio':16s} {summary['fail_ratio']:12.6g} ratio"
              f" (of {summary['attempted']} attempted)")
        print(f"   unscaled: wall {summary['raw_wall_s']:.4g} s,"
              f" setup {summary['raw_setup_s']:.4g} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (SRC / "bsroots" / "cli.py").is_file():
        print(f"run.py: no bsroots sources under {SRC}", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    record = run_record(args)
    print("record: " + json.dumps(record, sort_keys=True))

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    try:
        for workload in workloads:
            budget = deadline if args.workload != "all" else time.monotonic() + RUN_BUDGET_S
            summary = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                   expected, budget)
            print_summary(summary)
            summaries.append(summary)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(
        json.dumps({"record": record, "workloads": summaries}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    result = {
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
    }
    if len(summaries) == 1:
        result["metrics"] = {
            name: {"value": value, "unit": metric_unit(name) if args.trace else dict(END_TO_END)[name]}
            for name, value in summaries[0]["metrics"].items()
        }
    else:
        result["workloads"] = {s["workload"]: s["metrics"] for s in summaries}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
