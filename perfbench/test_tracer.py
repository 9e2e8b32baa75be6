"""Self-test of the benchmark's tracer.  Takes a few minutes:

    python3 -m pytest perfbench -q

Per workload it runs one untraced pass and two traced passes of the seed-1
job list, then checks that tracing changes no output, that every wrapped
function fires where it should, that call counts repeat exactly, that the
self-time split matches each workload's purpose, and that every emitted
metric name is declared in BENCHMARK.json.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

import run
import tracer

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 1

# Where each wrapped function must fire.
FIRES_ON = {
    "polyring.mul": "monomial",
    "polyring.polynomial": "monomial",
    "polyring.product": "monomial",
    "polyring.power": "monomial",
    "polyring.minimal_monomials": "monomial",
    "polyring.contains": "monomial",
    "polyring.groebner": "groebner",
    "polyring.buchberger": "groebner",
    "polyring.reduce_full": "groebner",
    "frobenius.eth_root": "groebner",
    "frobenius.eth_root_power": "monomial",
    "frobenius.root_coefficients": "monomial",
    "rings.jump_engine": "semigroup",
    "rings.d_label": "monomial",
    "rings.semigroup_closure": "semigroup",
    "jumps.jump_set": "monomial",
    "jumps.nu_invariant": "groebner",
    "roots.enumerate": "semigroup",
    "roots.verify": "semigroup",
    "thresholds.enumerate": "semigroup",
    "thresholds.verify": "semigroup",
    "thresholds.test_ideal": "monomial",
    "padic.truncation": "semigroup",
    "cli.run": "groebner",
}

# The span names whose self time should lead on each workload.
LEADERS = {
    "monomial": dict(tracer.LAYERS)["polyring arithmetic"],
    "groebner": ("polyring.buchberger", "polyring.reduce_full"),
    "semigroup": ("rings.semigroup_closure", "thresholds.verify"),
}


@pytest.fixture(scope="module", params=run.WORKLOADS)
def passes(request):
    workload = request.param
    expected = json.loads((Path(run.HERE) / "expected.json").read_text(encoding="utf-8"))
    jobs = run.job_list(expected, workload, SEED)
    spec = {"jobs": [{"id": j["id"], "argv": j["argv"]} for j in jobs],
            "timeout_s": run.JOB_TIMEOUT_S}
    deadline = time.monotonic() + 600
    plain = run.run_child({**spec, "mode": "run"}, deadline)
    traced = [run.run_child({**spec, "mode": "trace"}, deadline) for _ in range(2)]
    return workload, plain, traced


def test_traced_stdout_matches_untraced(passes):
    _, plain, traced = passes
    for result in traced:
        for untraced_job, traced_job in zip(plain["jobs"], result["jobs"]):
            if "timeout" in (untraced_job["status"], traced_job["status"]):
                continue
            assert traced_job["status"] == untraced_job["status"], traced_job["id"]
            assert traced_job["stdout"] == untraced_job["stdout"], traced_job["id"]


def test_wrapped_functions_fire(passes):
    workload, _, traced = passes
    names = traced[0]["names"]
    assert set(names) == set(FIRES_ON)
    silent = [n for n, w in FIRES_ON.items() if w == workload and names[n][0] == 0]
    assert not silent


def test_semigroup_makes_no_polyring_calls(passes):
    workload, _, traced = passes
    if workload != "semigroup":
        pytest.skip("semigroup only")
    assert traced[0]["layers"]["polyring.mul.calls"] == 0
    assert all(calls == 0 for name, (calls, _) in traced[0]["names"].items()
               if name.startswith("polyring."))


def test_counts_repeat_exactly(passes):
    _, _, (first, second) = passes
    assert {n: c for n, (c, _) in first["names"].items()} == {
        n: c for n, (c, _) in second["names"].items()
    }
    counts = [n for n in first["layers"] if not n.endswith("_s")]
    assert {n: first["layers"][n] for n in counts} == {n: second["layers"][n] for n in counts}


def test_self_time_split(passes):
    workload, _, traced = passes
    names = traced[0]["names"]
    leaders = LEADERS[workload]
    lead = sum(names[n][1] for n in leaders)
    others = {layer: sum(names[n][1] for n in members if n not in leaders)
              for layer, members in tracer.LAYERS}
    assert lead > max(others.values()), (lead, others)


def test_emitted_names_match_benchmark_json(passes):
    _, _, traced = passes
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    emitted = set(traced[0]["layers"]) | {"trace.overhead_ratio"}
    assert emitted == set(declared)
    assert set(tracer.metric_names()) == set(declared)
    assert all(tracer.metric_unit(n) == declared[n] for n in declared)
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert dict(run.END_TO_END) == end_to_end
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_install_patches_names_imported_by_other_modules():
    sys.path.insert(0, str(run.SRC))
    patched = set(tracer.install(tracer.Tracer()))
    assert {"roots.jump_engine", "jumps.jump_engine", "thresholds.jump_engine",
            "cli.jump_engine", "thresholds.nu_invariant"} <= patched
