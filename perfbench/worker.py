"""One benchmark pass in a fresh interpreter.

Reads a JSON spec on stdin and prints one JSON result line on stdout:

    {"mode": "run" | "trace" | "setup", "jobs": [{"id": ..., "argv": [...]}, ...],
     "timeout_s": 12.0, "spans_path": "..."}

`run` and `trace` execute every job back to back in this process through
`bsroots.cli.run(argv)`, with the job's stdout captured; one client, no
threads.  `trace` installs the per-layer tracer first.  `setup` times
importing bsroots and parsing every job's ring declaration and ideals, and
runs nothing.

A shared host can run the same code anywhere from 0.7 to 1.3 times its usual
speed, in spells of seconds to minutes.  So every time is also reported in
reference seconds: the measured time scaled by how long a
fixed block of pure-Python work (`reference_block`, no bsroots code) takes at
that moment against `REF_NOMINAL_S`.  While a job runs, an interval timer
times one block every `SAMPLE_EVERY_S`; the job is charged its time minus the
time spent in the timer, and the median block time over the job (and a few
blocks just before it) scales it.  A job still running after `timeout_s`
reference seconds is interrupted at the next tick, recorded as a timeout and
charged the time it ran.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


# One reference block takes about this long at the usual speed of a shared
# 2-core x86-64 host under Python 3.11; reference seconds are measured seconds
# at that speed.
REF_NOMINAL_S = 120e-6
SAMPLE_EVERY_S = 0.02
PRE_SAMPLES = 9
# Set-up is over in tens of milliseconds, so it is scaled by this many blocks
# timed on each side of it.
SETUP_SAMPLES = 50
# However slow the host, a job is cut off after this many times its timeout.
HARD_LIMIT_FACTOR = 3.0

# Sparse polynomials over F_5 as dicts of exponent tuples, the kind of work
# bsroots spends its time on, written here so no change to bsroots moves it.
_REF_A = {(i, j, i * j % 3): (i + 2 * j) % 5 + 1 for i in range(4) for j in range(4)}
_REF_B = {(i, j * 2 % 5, j): (3 * i + j) % 5 + 1 for i in range(4) for j in range(3)}


def reference_block() -> None:
    product: dict = {}
    for (a1, a2, a3), c in _REF_A.items():
        for (b1, b2, b3), d in _REF_B.items():
            key = (a1 + b1, a2 + b2, a3 + b3)
            value = (product.get(key, 0) + c * d) % 5
            if value:
                product[key] = value
            else:
                product.pop(key, None)
    sorted(product.items())


def time_reference() -> tuple[float, float]:
    """(wall, cpu) seconds of one reference block, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    wall, cpu = time.perf_counter(), time.process_time()
    reference_block()
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    if enabled:
        gc.enable()
    return wall, cpu


class JobTimeout(BaseException):
    """Raised by the job timer; a BaseException so the CLI's handlers cannot catch it."""


class Sampler:
    """Times reference blocks around and during one job, and enforces its timeout."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def start(self, timeout_s: float) -> None:
        self.walls, self.cpus = [], []
        for _ in range(PRE_SAMPLES):
            self._sample()
        self.timeout_s = timeout_s
        self.stolen_wall = self.stolen_cpu = 0.0
        self.start_wall, self.start_cpu = time.perf_counter(), time.process_time()
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> dict:
        """Net and reference-scaled wall and cpu seconds of the job since `start`."""
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - self.start_wall - self.stolen_wall
        cpu = time.process_time() - self.start_cpu - self.stolen_cpu
        ref_wall, ref_cpu = median(self.walls), median(self.cpus)
        return {"raw_seconds": wall,
                "seconds": wall * REF_NOMINAL_S / ref_wall,
                "cpu_s": cpu * REF_NOMINAL_S / ref_cpu}

    def _sample(self) -> None:
        wall, cpu = time_reference()
        self.walls.append(wall)
        self.cpus.append(cpu)

    def _on_alarm(self, signum, frame):
        if not self.armed:
            return
        self.armed = False  # an alarm arriving inside this handler is dropped
        wall, cpu = time.perf_counter(), time.process_time()
        self._sample()
        self.stolen_wall += time.perf_counter() - wall
        self.stolen_cpu += time.process_time() - cpu
        ran = wall - self.start_wall - self.stolen_wall
        if (ran * REF_NOMINAL_S / median(self.walls) > self.timeout_s
                or ran > HARD_LIMIT_FACTOR * self.timeout_s):
            signal.setitimer(signal.ITIMER_REAL, 0)
            raise JobTimeout
        self.armed = True


def _import_bsroots():
    sys.path.insert(0, str(SRC))
    import bsroots.cli

    if not Path(bsroots.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bsroots was imported from {bsroots.cli.__file__}, not {SRC}")
    return bsroots.cli


def run_job(run, argv, sampler: Sampler, timeout_s: float) -> dict:
    """status, stdout and times of one job; status is the exit code, "timeout" or "raised ..."."""
    out, err = io.StringIO(), io.StringIO()
    sampler.start(timeout_s)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = run(list(argv))
    except JobTimeout:
        status = "timeout"
    except SystemExit as exc:  # argparse rejects bad arguments this way
        status = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:
        status = f"raised {type(exc).__name__}: {exc}"
    finally:
        times = sampler.stop()
    return {"status": status, "stdout": out.getvalue(), **times}


def run_pass(spec) -> dict:
    cli = _import_bsroots()
    tracer = None
    if spec["mode"] == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    sampler = Sampler()
    jobs = []
    for index, job in enumerate(spec["jobs"]):
        if tracer is not None:
            tracer.start_trace(index)
        ran = run_job(cli.run, job["argv"], sampler, spec["timeout_s"])
        if tracer is not None and ran["status"] == "timeout":
            tracer.abandon()
        jobs.append({"id": job["id"], **ran})
    result = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": jobs,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["names"] = tracer.per_name()
        if spec.get("spans_path"):
            tracer.write_spans(spec["spans_path"])
    return result


def _option(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def time_setup(spec) -> dict:
    """Set-up seconds, scaled by reference blocks timed just before and after."""
    blocks = [time_reference()[0] for _ in range(SETUP_SAMPLES)]
    start = time.perf_counter()
    _import_bsroots()
    from bsroots.rings import parse_ring_declaration

    for job in spec["jobs"]:
        ring = _option(job["argv"], "--ring")
        if ring is None:
            continue
        presentation = parse_ring_declaration(ring)
        for name in ("--ideal", "--cideal"):
            text = _option(job["argv"], name)
            if text is not None:
                presentation.parse_ideal(text)
    seconds = time.perf_counter() - start
    blocks += [time_reference()[0] for _ in range(SETUP_SAMPLES)]
    return {"raw_setup_s": seconds, "setup_s": seconds * REF_NOMINAL_S / median(blocks)}


def main() -> None:
    spec = json.loads(sys.stdin.read())
    result = time_setup(spec) if spec["mode"] == "setup" else run_pass(spec)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
