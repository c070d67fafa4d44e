"""Determinism and schema checks for the end-to-end benchmark.

The inputs are shrunk with ``--scale`` (used nowhere else) so the whole
file runs in a few seconds; timings are never asserted, only counts,
names and the percentile rule.
"""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import e2e_harness  # noqa: E402
import e2e_workloads  # noqa: E402
from repro.wcoj import leapfrog_join  # noqa: E402

SCALE = 0.05
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: Metrics that are counts of work or bytes: same seed, same number.
EXACT = ("moved_bytes_per_query", "kernels.intersection_work",
         "kernels.out_tuples", "distributed.tuple_copies",
         "distributed.max_worker_tuples", "core.sampling_work",
         "core.explored_configurations", "runtime.published_bytes",
         "runtime.shipped_bytes", "runtime.fetched_bytes")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_benchmark(tmp_path, tag, *args):
    out = tmp_path / f"{tag}.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--scale",
         str(SCALE), "--seconds", "0.2", "--out", str(out), *args],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out) as fh:
        return json.load(fh), proc.stdout


def test_percentile_rule_needs_ten_samples_beyond():
    for n in range(1, 2500):
        p = e2e_harness.tail_percentile(n)
        if p is None:
            assert n * 0.25 < e2e_harness.MIN_SAMPLES_BEYOND
        else:
            assert n * (100 - p) / 100 >= e2e_harness.MIN_SAMPLES_BEYOND
    assert "tail" not in e2e_harness.summarize(range(39))
    assert e2e_harness.summarize(range(40))["tail"]["p"] == 75
    assert e2e_harness.summarize(range(100))["tail"]["p"] == 90
    assert e2e_harness.summarize(range(1000))["tail"]["p"] == 99


def test_inputs_are_a_function_of_the_seed():
    for workload in e2e_workloads.BATCH_WORKLOADS.values():
        first = workload.make_case(3, SCALE)
        again = workload.make_case(3, SCALE)
        other = workload.make_case(4, SCALE)
        assert np.array_equal(first.edges, again.edges)
        assert first.check() == again.check()
        assert not np.array_equal(first.edges, other.edges)
        assert first.db.names == other.db.names
        assert first.edges.dtype == other.edges.dtype
        assert first.edges.shape[1] == other.edges.shape[1] == 2
    cases = len(e2e_workloads.HOT_CASES)
    assert (e2e_workloads.block_schedule(cases, 3, 0)
            == e2e_workloads.block_schedule(cases, 3, 0))
    assert (e2e_workloads.block_schedule(cases, 3, 0)
            != e2e_workloads.block_schedule(cases, 4, 0))
    assert (sorted(e2e_workloads.block_schedule(cases, 3, 0))
            == sorted(e2e_workloads.block_schedule(cases, 4, 1)))


@pytest.mark.parametrize("query_name", ["Q1", "Q5", "Q7", "Q9", "Q11"])
def test_closed_form_reference_agrees_with_leapfrog(query_name):
    case = e2e_workloads.HotCase(query_name, 3e-5, seed=5).make_case()
    assert case.edges.max() < e2e_workloads.DENSE_NODE_LIMIT
    assert case.check() == leapfrog_join(case.query, case.db).count > 0


def test_same_seed_repeats_counts_and_names_match_the_spec(tmp_path, spec):
    declared = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = {w["name"] for w in spec["workloads"]}
    assert workloads == set(e2e_workloads.WORKLOAD_NAMES)
    for name in workloads | set(units):
        assert NAME.match(name), name

    first, stdout = run_benchmark(tmp_path, "a", "--workload", "tri-skew",
                                  "--seed", "11")
    again, _ = run_benchmark(tmp_path, "b", "--workload", "tri-skew",
                             "--seed", "11")
    assert first["claim"] is None
    for run_a, run_b in zip(first["runs"], again["runs"], strict=True):
        assert run_a["correct"] and run_a["failed"] == 0, run_a["failures"]
        assert run_a["workload"] in workloads
        # Every declared metric is reported, and nothing else.
        assert set(run_a["metrics"]) == declared[run_a["trace"]]
        for name, m in run_a["metrics"].items():
            assert m["unit"] == units[name]
            assert f" {name} " in stdout
            if "tail" in m:
                assert (m["n"] * (100 - m["tail"]["p"]) / 100
                        >= e2e_harness.MIN_SAMPLES_BEYOND)
        assert run_a["reference"] == run_b["reference"]
        for name in EXACT:
            if name in run_a["metrics"]:
                assert (run_a["metrics"][name]["value"]
                        == run_b["metrics"][name]["value"]), name
    traced = first["runs"][1]
    assert os.path.exists(traced["trace_file"])
    assert traced["metrics"]["trace.coverage_ratio"]["value"] >= 0.9
