"""Checks for the experiment table in ``benchmarks/paper.py``.

The two cheap rows (Table I, Fig. 9) run for real and must render exactly
the sections committed in EXPERIMENTS.md, so a stale file fails here.  The
verdict logic is checked on fabricated tables: a violated claim must say
so, and a claim resting on a failed run must say it was not checked.
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import paper  # noqa: E402
from repro.distributed import CostBreakdown  # noqa: E402
from repro.engines import EngineResult  # noqa: E402

#: One experiment per figure or table the paper's Sec. VII reports, plus
#: the three ablations.
NAMES = {
    "table01_datasets", "fig01a_one_vs_multi_round",
    "fig01b_comm_first_vs_coopt", "fig06_intermediate_tuples",
    "fig08_attribute_order_pruning", "fig09_hcube_impls", "fig10_sampling",
    "fig11_scalability", "fig12_methods", "table02_04_coopt_vs_commfirst",
    "ablation_ghd_engines", "ablation_plan_search", "ablation_skew",
}


def experiment(name):
    return next(e for e in paper.EXPERIMENTS if e.name == name)


def verdicts(exp, table):
    return [v for claim in exp.claims for v in claim.verdicts(table)]


def result(engine, failure=None, **extra):
    return EngineResult(engine=engine, query="Q", count=7,
                        breakdown=CostBreakdown(), failure=failure,
                        extra=extra)


def test_the_experiments_are_the_papers_thirteen():
    names = [e.name for e in paper.EXPERIMENTS]
    assert len(names) == len(set(names))
    assert set(names) == NAMES


@pytest.mark.parametrize("name", ["table01_datasets", "fig09_hcube_impls"])
def test_cheap_rows_hold_and_match_the_committed_file(name):
    exp = experiment(name)
    tables = [exp.build(item) for item in exp.over]
    found = [v for t in tables for v in verdicts(exp, t)]
    assert found and all(v.startswith("holds: ") for v in found), found
    assert exp.section(tables) in paper.OUT.read_text(), (
        f"EXPERIMENTS.md is stale for {name}: rerun benchmarks/paper.py")


def test_wall_clock_columns_are_printed_but_not_written():
    table = paper.Table("t", ["k", "time (s)"], [["1", "0.123"]],
                        clock=("time (s)",))
    assert "0.123" in table.render(clock=True)
    assert "0.123" not in table.render()


def test_a_violated_claim_does_not_hold():
    exp = experiment("table01_datasets")
    table = exp.build("")
    table.rows.reverse()                       # sizes now descend
    [verdict] = verdicts(exp, table)
    assert verdict.startswith("does not hold: ")

    exp = experiment("fig09_hcube_impls")
    push_beats_pull = ["XX", "0.0100", "0.5", "0.0200", "0.5", "0.0100",
                       "0.4"]
    table = paper.Table("t", ["dataset"] + ["s"] * 6, [push_beats_pull])
    assert verdicts(exp, table) == [
        "does not hold: pull communicates less than push (XX); "
        "0.0200 vs 0.0100",
        "holds: merge communicates no more than pull (XX); 0.0100 vs 0.0200",
        "holds: merge computes less than push (XX); 0.4 vs 0.5"]


def test_a_failed_run_is_not_checked():
    exp = experiment("table02_04_coopt_vs_commfirst")
    timed_out = result("HCubeJ", failure="budget")
    cells = [paper.ran(timed_out, 0.0) for _ in range(4)]
    assert cells == [">BUDGET"] * 4
    table = paper.Table("t", ["query"] + ["s"] * 9,
                        [["Q4", *["0.1000"] * 5, *cells]])
    assert verdicts(exp, table) == [
        "not checked (HCubeJ: budget): co-optimization spends at least as "
        "long optimizing (Q4)"]
    assert paper.ran(result("HCubeJ", failure="oom"), 0.0) == "OOM"


def test_co_opt_that_precomputed_nothing_is_not_checked():
    exp = experiment("fig01b_comm_first_vs_coopt")
    rows = [[label, *(paper.ran(r, 0.5) for _ in range(4))]
            for label, r in (("Comm-First", result("HCubeJ")),
                             ("Co-Opt", result("ADJ", precomputed=())))]
    [verdict] = verdicts(exp, paper.Table("t", ["s"] * 5, rows))
    assert verdict.startswith("not checked (ADJ: pre-computed no bag)")


def test_a_failed_dataset_is_left_out_not_passed():
    exp = experiment("fig06_intermediate_tuples")
    cut = paper.failed("Leapfrog", "budget")
    table = paper.Table("t", ["dataset", "n", "n-1", "rest"],
                        [["WB", "0.100", "0.100", "0.800"],
                         ["OK", cut, cut, cut]])
    [verdict] = verdicts(exp, table)
    assert verdict.startswith("does not hold: ")
    assert "0 of the 1 datasets" in verdict
    table.rows.pop(0)
    [verdict] = verdicts(exp, table)
    assert verdict.startswith("not checked (Leapfrog: budget)")
