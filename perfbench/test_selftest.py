"""Self-test of the benchmark at smoke size.

Run from the repository root (it is outside the tier-1 test paths):

    python3 -m pytest -q perfbench/test_selftest.py

Each workload runs with ``--smoke`` (tiny cohorts and sampler settings).
The tests check that every metric BENCHMARK.json names is printed with its
unit, that two same-seed traced invocations report identical deterministic
counts, and that without the survcheck sources the benchmark fails without
printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
PRESETS = ("exponential-gist", "weibull-gist", "bernoulli-gist")
DETERMINISTIC = ("converged_frac", "sampler.log_posterior_evals", "loo.khat_ok_frac",
                 *(f"sampler.min_bulk_ess.{p}" for p in PRESETS))
PRINTED = ("setup_s", "iter_s", "min_ess_per_s", "converged_frac", "error_frac", "peak_rss_mb")


def invoke(workload, trace, root=ROOT, seed=3):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return lines[:-1], result


def printed_units(lines) -> dict:
    """name -> unit from the human-readable `name value unit ...` lines."""
    out = {}
    for line in lines:
        fields = line.split()
        if len(fields) >= 3 and not line.startswith(("#", "provenance")):
            float(fields[1])
            out[fields[0]] = fields[2]
    return out


def check_metrics(lines, result, section):
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    shown = printed_units(lines)
    for name in PRINTED:
        assert name in shown
    if section == "per_layer":
        assert {k: shown[k] for k in expected} == expected


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    lines, result = result_of(invoke(workload, 0))
    check_metrics(lines, result, "end_to_end")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_the_same_seed(workload):
    lines, first = result_of(invoke(workload, 1))
    check_metrics(lines, first, "per_layer")
    _, second = result_of(invoke(workload, 1))
    for name in DETERMINISTIC:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = invoke(WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
