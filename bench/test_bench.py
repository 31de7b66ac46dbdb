"""Self-tests of the benchmark, each workload at a tiny size.

    python3 -m pytest bench/test_bench.py -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.load_levbounds()

from levbounds import optimizer, proportions  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.fixture(scope="module")
def traced():
    return {name: run.measure(name, seed=1, seconds=0, trace=True, tiny=True)[0]
            for name in NAMES}


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_present_and_positive(name):
    result, details = run.measure(name, seed=1, seconds=0, trace=False, tiny=True,
                                  probes=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert details["provenance"]["seed"] == 1


@pytest.mark.parametrize("name", NAMES)
def test_per_layer_metrics_present(traced, name):
    result = traced[name]
    assert result["correct"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units("per_layer")


def test_each_layer_separates_the_workloads(traced):
    """Every module has a metric that is non-zero on one workload and zero,
    or near it, on another."""
    def value(name, metric):
        return traced[name]["metrics"][metric]["value"]

    for metric in ("oracle.kernel_numeric_calls", "cli.reproduce_s", "cli.selfcheck_s"):
        assert value("certify", metric) > 0
        assert value("search", metric) == value("sweep", metric) == 0
    assert value("search", "optimizer.evals") > 0
    assert value("sweep", "optimizer.evals") == value("certify", "optimizer.evals") == 0
    assert value("sweep", "kernel.jet_repeat_frac") > 0.8
    assert value("certify", "kernel.jet_repeat_frac") < 0.5
    for metric in ("polyalg.integrate_calls", "jets.mul_calls", "proportions.c_calls"):
        assert value("sweep", metric) > 0


def test_same_seed_same_inputs():
    from workloads import WORKLOADS
    for name in NAMES:
        a, b = WORKLOADS[name](7, tiny=True), WORKLOADS[name](7, tiny=True)
        assert a.inputs(0) == b.inputs(0) and a.inputs(0) != a.inputs(1)


@pytest.mark.parametrize("name", ["sweep", "certify"])
def test_perturbed_c_counts_as_failure(monkeypatch, name):
    exact = proportions.c_value
    monkeypatch.setattr(proportions, "c_value", lambda p: exact(p) * (1 + 1e-3))
    result, _ = run.measure(name, seed=1, seconds=0, trace=False, tiny=True, probes=1)
    assert not result["correct"] and result["failed"] >= 1


def test_wrong_search_objective_counts_as_failure(monkeypatch):
    exact = optimizer.optimize

    def nudged(spec):
        found = exact(spec)
        return dataclasses.replace(found, best_objective=found.best_objective - 1e-9)

    monkeypatch.setattr(optimizer, "optimize", nudged)
    result, _ = run.measure("search", seed=1, seconds=0, trace=False, tiny=True, probes=1)
    assert result["failed"] == result["attempted"] == 1


def test_fails_without_the_program():
    """In a directory holding only the benchmark, the run exits non-zero
    and prints no result."""
    bare = run.ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(BENCHMARK["command"] + ["--workload", NAMES[0], "--seed", "1",
                                                      "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
