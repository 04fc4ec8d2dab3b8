"""Smoke test of the benchmark itself (not in the tier-1 ``testpaths``).

``python -m pytest benchmarks/e2e/test_smoke.py`` runs the quick variant
of one workload through the one command and holds what it emitted against
the name lists in ``BENCHMARK.json``.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_contract_names_are_well_formed_and_unique():
    contract = _contract()
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in contract[section]
    ]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert contract["paths"] == ["benchmarks/e2e"]
    assert any(m["name"] == "setup_s" for m in contract["end_to_end"])


def test_contract_workloads_are_the_ones_the_harness_runs():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from workloads import WORKLOADS

    declared = [(w["name"], w["why"]) for w in _contract()["workloads"]]
    assert declared == [(w.name, w.why) for w in WORKLOADS]


def test_quick_run_emits_exactly_the_declared_metrics():
    contract = _contract()
    done = subprocess.run(
        [sys.executable, HERE, "--quick", "--workload", "sqd_deep_5k"],
        stdout=subprocess.PIPE,
        text=True,
    )
    assert done.returncode == 0, done.stdout
    with open(os.path.join(HERE, "out", "last_run.json")) as handle:
        last = json.load(handle)
    runs = {
        "end_to_end": last["reps"]["sqd_deep_5k"][0]["result"],
        "per_layer": last["traced"]["sqd_deep_5k"]["result"],
    }
    for section, result in runs.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in contract[section]}
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == declared
        assert all(
            isinstance(m["value"], (int, float)) for m in result["metrics"].values()
        )
    assert all(m["value"] > 0 for m in runs["end_to_end"]["metrics"].values())
