"""Every pinned benchmark job prints what perfbench/expected.json records.

The benchmark checks each job's stdout and exit code against
`perfbench/expected.json` (read here, never written).  This test replays all
of its jobs in one process through `cli.run`, as a benchmark pass does, so a
change that alters pinned output fails here instead of in a benchmark run.

The file pins today's output, not the truth: `a92.fpt.L2` records fpt = 1 for
(x^2yz, xy^2z, xyz^2) over F_5 at level 2, which ROADMAP item 1 shows is wrong
(the true value is 3/4, and the first level-2 jump puts it in (18/25, 21/25]).
"""

import json
from pathlib import Path

from bsroots.cli import run

EXPECTED = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "expected.json").read_text(
        encoding="utf-8"
    )
)
JOBS = [
    job for instances in EXPECTED["pool"].values() for instance in instances for job in instance
] + [job for anchors in EXPECTED["anchors"].values() for job in anchors]


def test_every_pinned_job_prints_its_recorded_output(capsys):
    assert JOBS
    mismatched = []
    for job in JOBS:
        code = run(list(job["argv"]))
        out = capsys.readouterr().out
        if (code, out) != (job["exit"], job["stdout"]):
            mismatched.append(job["id"])
    assert mismatched == []
