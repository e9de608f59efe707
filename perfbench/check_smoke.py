"""Smoke tests of the benchmark itself (about a minute).

    python3 -m pytest perfbench/check_smoke.py -q

The file name keeps these out of the repository's own test collection;
name the file explicitly to run them.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from repro.runtime.backends import SerialBackend  # noqa: E402
from repro.runtime.store import ResultStore  # noqa: E402

import workloads  # noqa: E402
from deploy import GOLDEN_FILE, Checker  # noqa: E402
from run import GATED, WORKLOAD_NAMES  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def test_benchmark_json_matches_the_runner():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(GATED)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == workloads.E2E
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == workloads.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_emits_every_metric(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = workloads.PER_LAYER if trace else workloads.E2E
    assert set(result["metrics"]) == set(names)
    facts = json.loads(out.stdout.splitlines()[-2].split(" ", 2)[2])
    assert facts["stats_digest"] and facts["nproc"] >= 1
    if trace:
        assert "unattributed" in out.stderr


def test_statistics_digest_repeats(tmp_path):
    a = workloads.eval_mixed(5, 0.2, tmp_path / "a")
    b = workloads.eval_mixed(5, 0.2, tmp_path / "b")
    assert a.facts["stats_digest"] == b.facts["stats_digest"]


def test_golden_check_catches_changed_statistics():
    expected = json.loads(GOLDEN_FILE.read_text())["digests"]
    checker = Checker(0)
    assert checker.golden_mismatches(expected) == 0
    assert checker.golden_mismatches(["0" * 16] + expected[1:]) == 1


class CorruptingBackend(SerialBackend):
    """Returns one wrong answer per batch."""

    def run(self, specs, on_result=None):
        results = super().run(specs, on_result)
        r = results[-1]
        results[-1] = dataclasses.replace(r, value={**r.value, "cycles": r.value["cycles"] + 1})
        return results


class CorruptingStore(ResultStore):
    """Serves every store hit with a wrong SOP count."""

    def get(self, spec):
        hit = super().get(spec)
        if hit is not None:
            hit = dataclasses.replace(hit, value={**hit.value, "sops": hit.value["sops"] + 1})
        return hit


def test_eval_check_catches_a_wrong_answer(tmp_path):
    run = workloads.eval_mixed(5, 0.2, tmp_path, backend=CorruptingBackend())
    assert run.failed >= 1 and not run.correct


def test_serve_check_catches_a_wrong_store_hit(tmp_path):
    run = workloads.serve_open(5, 1.0, tmp_path, store_cls=CorruptingStore)
    assert run.failed >= 1 and not run.correct


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "eval-mixed", "--seed", "1", "--seconds", "1",
                cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
