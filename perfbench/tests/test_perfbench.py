"""Self-tests of the benchmark: layer map, exact counts, planted bug,
compare verdicts, and refusal to run without the program's source.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import compare
import run
from layers import LAYERS, layers_of

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(BENCH_DIR)
PACKAGE = os.path.join(REPO, "src", "repro")


def _modules():
    for dirpath, _, files in os.walk(PACKAGE):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                yield os.path.relpath(path, PACKAGE).replace(os.sep, "/")


def test_every_module_maps_to_exactly_one_layer():
    bad = {rel: sorted(layers_of(rel)) for rel in _modules()
           if len(layers_of(rel)) != 1}
    assert not bad, f"modules with no layer or two layers: {bad}"


def test_sixteen_layers_each_with_a_module():
    assert len(LAYERS) == 16
    used = {next(iter(layers_of(rel))) for rel in _modules()}
    assert used == set(LAYERS)


def _traced(name, seed, units):
    runner = run.Runner(name, seed)
    runner.workload = dataclasses.replace(runner.workload,
                                          trace_units=units)
    return runner, run.traced(runner)


def test_traced_counts_repeat_exactly_and_shares_sum_to_one():
    bench = compare.load_benchmark()
    first_runner, first = _traced("failover-x1", 5, 3)
    _, second = _traced("failover-x1", 5, 3)
    assert not first_runner.failures
    assert set(first) == {m["name"] for m in bench["per_layer"]}
    counts = [name for name, (_, unit) in first.items() if unit == "count"]
    for name in ("sim.kernel.dispatches", "sim.network.sends",
                 "resilience.detection.phi_calls", "sim.monitor.count_calls",
                 "invariants.checks", "recovery.records_scanned"):
        assert name in counts and first[name][0] > 0
    assert {n: first[n][0] for n in counts} == \
        {n: second[n][0] for n in counts}
    shares = sum(first[f"{layer}.self_share"][0] for layer in LAYERS)
    assert shares == pytest.approx(1.0, abs=0.01)


def test_spans_counted_on_the_traced_domains():
    runner, metrics = _traced("domains-traced", 5, 1)
    assert not runner.failures
    assert metrics["observability.spans"][0] > 0
    assert metrics["sim.network.sends"][0] == 0


def _failover_failures(plant):
    runner = run.Runner("failover-x1", run.DEFAULT_SEED, plant=plant)
    assert runner.expected, "digests.json holds no failover-x1 digests"
    for index in range(8):
        runner.unit(index)
    return runner.summary()


def test_planted_bug_is_caught_and_default_passes():
    assert _failover_failures(plant=True)["failed_frac"] > 0
    assert _failover_failures(plant=False)["failed_frac"] == 0


@pytest.mark.parametrize("parent, change, expected", [
    ([10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10, 10.02, 9.98],
     [9, 9.1, 8.9, 9, 9.05, 8.95, 9, 9, 9.02, 8.98], "improved"),
    ([10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10, 10.02, 9.98],
     [12, 12.1, 11.9, 12, 12.05, 11.95, 12, 12, 12.02, 11.98], "regressed"),
    ([10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10, 10.02, 9.98],
     [10.01, 10.1, 9.9, 10, 10.05, 9.95, 9.99, 10, 10.02, 9.98],
     "unchanged"),
    ([10, 14, 7, 10, 13, 8, 10, 12, 6, 11],
     [10, 14, 7, 10, 13, 8, 10, 12, 6, 11], "unresolved"),
])
def test_compare_verdicts(parent, change, expected):
    result, _ = compare.verdict(dict(enumerate(parent)),
                                dict(enumerate(change)), "lower", 0.1)
    assert result == expected


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    bench = json.loads((tmp_path / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, *bench["command"][1:], "--workload", "failover-x1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
