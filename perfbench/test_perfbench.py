"""Self-tests of the benchmark harness.

Run from the repository root:

    python3 -m pytest perfbench -q

The traced-count test runs every workload twice and takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def test_benchmark_json_matches_the_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        row[:3] for row in run.PER_LAYER
    ]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]


def test_summary_self_time_subtracts_direct_children():
    tracer = spans.Tracer([])
    tracer.spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("a", 5.0, 7.0, 0),   # nested in another "a": not added to its inclusive time
        ("b", 5.5, 6.0, 2),
    ]
    summary = tracer.summary()
    assert summary["a"] == {"calls": 2, "s": 10.0, "self_s": 6.5}
    assert summary["b"] == {"calls": 2, "s": 3.5, "self_s": 3.5}


def test_tracer_wraps_every_lookup_name_and_restores_it():
    from copaug import bicop, emulator, multicop

    originals = (bicop.kendall_tau, multicop.kendall_tau, emulator.AdamState.step)
    assert multicop.kendall_tau is bicop.kendall_tau
    with spans.Tracer(run.TARGETS) as tracer:
        assert bicop.kendall_tau is not originals[0]
        assert multicop.kendall_tau is bicop.kendall_tau
        assert emulator.AdamState.step is not originals[2]
        assert bicop.kendall_tau([0.1, 0.2, 0.3], [0.3, 0.1, 0.2]) == originals[0](
            [0.1, 0.2, 0.3], [0.3, 0.1, 0.2])
    assert tracer.summary()["bicop.kendall_tau"]["calls"] == 1
    assert (bicop.kendall_tau, multicop.kendall_tau, emulator.AdamState.step) == originals


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "vine-30", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_two_traced_runs_give_identical_counts(workload):
    results = []
    for _ in range(2):
        proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert all(r["correct"] and r["failed"] == 0 for r in results)
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] != "s"} for r in results]
    assert counts[0] == counts[1]
    assert any(counts[0].values())
