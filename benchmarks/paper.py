"""The paper's evaluation (Sec. VII) as one table of experiments.

``PYTHONPATH=src python3 benchmarks/paper.py`` builds every row of
:data:`EXPERIMENTS` (a figure or table of the paper, at reproduction
scale), checks the paper's claims on it, prints tables and verdicts,
rewrites ``EXPERIMENTS.md`` and exits 1 iff some claim does not hold.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from repro.core import CardinalityEstimator, exhaustive_plan, optimize_plan
from repro.data import DATASETS, dataset_names, load_dataset
from repro.distributed import Cluster, skew_report, straggler_slowdown
from repro.engines import (EngineOptions, EngineResult, SparkSQLJoin,
                           attach_degree_order, one_round_execute, registry,
                           run_engine_safely)
from repro.errors import BudgetExceeded
from repro.ghd import optimal_hypertree
from repro.wcoj import LeapfrogStats, leapfrog_join
from repro.workloads import make_testcase

OUT = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"

SCALE = 1.2e-5                 # of the paper's edge counts (13M-234M)
WORKERS = 8                    # the paper uses 28
WORK_BUDGET = 20_000_000       # Leapfrog work: the 12-hour timeout
SAMPLES = 30                   # ADJ's optimizer samples
MEMORY = 16_000                # Fig. 12 tuples/worker: EN/OK overflow Push
SPARKSQL_INPUT_FACTOR, BIGJOIN_INPUT_FACTOR = 10, 8   # x a case's input
#: The paper's five methods, pinned: a new engine must not join silently.
FIG12_ENGINES = ("sparksql", "bigjoin", "hcubej", "hcubej-cache", "adj")
FIG6_SCALE = SCALE * 0.5       # so the dense EN/OK analogues fit the budget
#: Fig. 8 runs all 120 orders per case, each cut off after this much work.
FIG8_SCALE, FIG8_ORDER_BUDGET = SCALE * 0.3, 250_000


class Cell(str):
    """A rendered cell, its engine run and ``"<engine>: <failure>"``."""

    result: EngineResult | None = None
    failure: str | None = None


class NotChecked(Exception):
    """A claim needed a number from a run that failed."""


def failed(engine: str, failure: str) -> Cell:
    cell = Cell({"budget": ">BUDGET", "oom": "OOM"}.get(failure, "CRASH"))
    cell.failure = f"{engine}: {failure}"
    return cell


def ran(result: EngineResult, value: float, fmt: str = ".4f") -> Cell:
    """``value`` of a completed run, or the run's ``>BUDGET`` / ``OOM``."""
    cell = (Cell(format(value, fmt)) if result.ok
            else failed(result.engine, result.failure))
    cell.result = result
    return cell


def num(*cells: str) -> float:
    """The first cell's number; not checked if any cell's run failed."""
    for cell in cells:
        if getattr(cell, "failure", None):
            raise NotChecked(cell.failure)
    return float(cells[0])


def measured(rows: list[list[str]], col: int) -> list[list[str]]:
    """The rows whose ``col`` holds a number; not checked if none does."""
    got = [r for r in rows if not getattr(r[col], "failure", None)]
    if not got:
        num(rows[0][col])              # not checked: names a failed run
    return got


@dataclass
class Table:
    title: str
    headers: list[str]
    rows: list[list[str]]
    clock: tuple[str, ...] = ()        # wall-clock columns: stdout only

    def render(self, clock: bool = False) -> str:
        keep = [i for i, h in enumerate(self.headers)
                if clock or h not in self.clock]
        grid = [[str(r[i]).replace("|", "\\|") for i in keep]
                for r in [self.headers, *self.rows]]
        widths = [max(len(r[j]) for r in grid) for j in range(len(keep))]
        lines = ["| " + " | ".join(c.rjust(w) for c, w in zip(r, widths))
                 + " |" for r in grid]
        lines.insert(1, "|" + "|".join("-" * w + "-:" for w in widths) + "|")
        return "\n".join([self.title, "", *lines])


@dataclass(frozen=True)
class Claim:
    """``check`` maps a table (``per_row``: a row) to (holds, evidence)."""

    text: str
    check: Callable[..., tuple[bool, str]]
    per_row: bool = False

    def verdicts(self, table: Table) -> Iterator[str]:
        for label, target in ([(f" ({r[0]})", r) for r in table.rows]
                              if self.per_row else [("", table)]):
            try:
                holds, evidence = self.check(target)
            except NotChecked as exc:
                yield f"not checked ({exc}): {self.text}{label}"
            else:
                yield (f"{'holds' if holds else 'does not hold'}: "
                       f"{self.text}{label}; {evidence}")


@dataclass(frozen=True)
class Experiment:
    """A figure or table of the paper: ``build`` makes one table per item
    of ``over``, and every claim is checked on every table."""

    name: str
    ref: str
    settings: str
    build: Callable[[str], Table]
    claims: tuple[Claim, ...]
    over: tuple[str, ...] = ("",)

    def section(self, tables: list[Table], clock: bool = False) -> str:
        """Its section of EXPERIMENTS.md (``clock``: of stdout)."""
        parts = [f"## {self.ref} (`{self.name}`)", "",
                 f"Settings: {self.settings}."]
        for table in tables:
            parts += ["", table.render(clock), ""]
            parts += [f"- {v}" for c in self.claims for v in c.verdicts(table)]
        return "\n".join(parts) + "\n"


@functools.cache
def case(dataset: str, query: str, scale: float = SCALE):
    return make_testcase(dataset, query, scale=scale)


def cluster(workers: int = WORKERS, memory: int | None = None) -> Cluster:
    return Cluster(num_workers=workers, memory_tuples_per_worker=memory)


@functools.cache
def run(engine: str, dataset: str, query: str, workers: int = WORKERS,
        memory: int | None = None, budget: int = WORK_BUDGET) -> EngineResult:
    """One registry engine on one case; figures that share a run share it."""
    q, db = case(dataset, query)
    total = sum(len(db[a.relation]) for a in q.atoms)
    options = EngineOptions(samples=SAMPLES, work_budget=budget,
                            budget_tuples=SPARKSQL_INPUT_FACTOR * total,
                            budget_bindings=BIGJOIN_INPUT_FACTOR * total)
    return run_engine_safely(registry.create(engine, options), q, db,
                             cluster(workers, memory))


def pair(dataset: str, query: str, baseline: str = "hcubej"):
    """ADJ's co-optimized run and a baseline's on the same case."""
    return run("adj", dataset, query), run(baseline, dataset, query)


def cols(a: int, op: Callable, b: int, slack: float = 0.0) -> Callable:
    """Per-row check: column ``a`` ``op`` column ``b`` (+ ``slack``)."""
    return lambda r: (op(num(r[a], r[b]), num(r[b]) + slack),
                      f"{r[a]} vs {r[b]}")


def ends(col: int, op: Callable) -> Callable:
    """Per-table check: the last row's ``col`` ``op`` the first row's."""
    def check(t: Table) -> tuple[bool, str]:
        first, last = t.rows[0], t.rows[-1]
        return op(num(last[col], first[col]), num(first[col])), (
            f"{t.headers[col]} {last[col]} ({last[0]}) vs {first[col]} "
            f"({first[0]})")
    return check


def table01(_: str) -> Table:
    return Table("Table I: datasets (paper values vs scaled analogues)",
                 ["Dataset", "|R| (paper)", "MB (paper)",
                  f"|R| (scale={SCALE:g})", "exponent"],
                 [[key.upper(), f"{spec.paper_edges / 1e6:.1f}M",
                   f"{spec.paper_size_mb:.1f}",
                   str(load_dataset(key, scale=SCALE).shape[0]),
                   f"{spec.exponent:.2f}"]
                  for key in dataset_names() for spec in [DATASETS[key]]])


def fig01a(qn: str) -> Table:
    q, db = case("lj", qn)
    multi = run_engine_safely(SparkSQLJoin(), q, db, cluster())
    one = run("hcubej", "lj", qn)
    return Table(f"Fig. 1(a) — (LJ, {qn})",
                 ["method", "shuffled tuples", "status"],
                 [[label, ran(r, r.shuffled_tuples, "d"), r.failure or "ok"]
                  for label, r in (("Multi-Round (SparkSQL)", multi),
                                   ("One-Round (HCubeJ)", one))])


def fig01b(qn: str) -> Table:
    co, cf = pair("lj", qn)
    return Table(f"Fig. 1(b) — (LJ, {qn}), model-seconds",
                 ["strategy", "Comm (s)", "Pre+Comm (s)", "Comp (s)",
                  "Total (s)"],
                 [[label, ran(r, b.communication),
                   ran(r, b.precompute + b.communication),
                   ran(r, b.computation), ran(r, b.total)]
                  for label, r in (("Comm-First", cf), ("Co-Opt", co))
                  for b in [r.breakdown]])


def coopt_computes_less(t: Table) -> tuple[bool, str]:
    co = t.rows[-1][3]
    if co.result.ok and not co.result.extra.get("precomputed"):
        raise NotChecked("ADJ: pre-computed no bag")
    return ends(3, LT)(t)


def fig06(qn: str) -> Table:
    tree = optimal_hypertree(case("wb", qn, FIG6_SCALE)[0])
    traversal = next(tree.traversal_orders())
    order = tree.attribute_order(traversal)
    bags = {b.index: b for b in tree.bags}
    levels, seen = [], set()               # Leapfrog depths per node
    for idx in traversal:
        levels.append([d for d, a in enumerate(order)
                       if a in bags[idx].attributes and a not in seen])
        seen |= bags[idx].attributes
    rows = []
    for ds in dataset_names():
        q, db = case(ds, qn, FIG6_SCALE)
        try:
            stats = leapfrog_join(q, db, order, budget=WORK_BUDGET).stats
        except BudgetExceeded:
            rows.append([ds.upper(), *[failed("Leapfrog", "budget")] * 3])
            continue
        shares = [sum(stats.level_tuples[d] for d in depths)
                  / max(1, stats.total_tuples) for depths in levels]
        nth, n1th = shares[-1], shares[-2] if len(shares) >= 2 else 0.0
        rows.append([ds.upper(), f"{nth:.3f}", f"{n1th:.3f}",
                     f"{max(0.0, 1.0 - nth - n1th):.3f}"])
    return Table(f"Fig. 6 — {qn}: fraction of intermediate tuples by "
                 f"traversed node (ord={'<'.join(order)})",
                 ["dataset", "(n)th", "(n-1)th", "rest"], rows)


def last_nodes_dominate(t: Table) -> tuple[bool, str]:
    rows = measured(t.rows, 1)
    dominated = [r[0] for r in rows if num(r[1]) + num(r[2]) > 0.5]
    return len(dominated) >= len(rows) / 2, (
        f"(n)th + (n-1)th > 0.5 on {len(dominated)} of the {len(rows)} "
        "datasets with a number")


def intermediate(q, db, order) -> tuple[int, bool]:   # (tuples, cut off)
    stats = LeapfrogStats()
    try:
        leapfrog_join(q, db, order, budget=FIG8_ORDER_BUDGET, stats=stats)
    except BudgetExceeded:
        return stats.total_intermediate, True
    return stats.total_intermediate, False


def fig08(qn: str) -> Table:
    tree = optimal_hypertree(case("wb", qn, FIG8_SCALE)[0])
    valid = set(tree.valid_attribute_orders())
    rows = []
    for ds in dataset_names():
        q, db = case(ds, qn, FIG8_SCALE)
        worst, capped = {True: 0, False: 0}, False   # by "order is valid"
        for order in itertools.permutations(q.attributes):
            tuples, cut = intermediate(q, db, order)
            capped |= cut
            worst[order in valid] = max(worst[order in valid], tuples)
        all_selected, _ = intermediate(q, db, attach_degree_order(q, db))
        plan = optimize_plan(q, db, cluster(), hypertree=tree,
                             estimator=CardinalityEstimator(
                                 db, num_samples=SAMPLES, seed=0)).plan
        rows.append([ds.upper() + ("*" if capped else ""), str(worst[False]),
                     str(worst[True]), str(all_selected),
                     str(intermediate(q, db, plan.attribute_order)[0])])
    return Table(f"Fig. 8 — {qn}: intermediate tuples by attribute-order "
                 f"class (scale={FIG8_SCALE:g}; '*' = some orders were "
                 "budget-capped)", ["dataset", "Invalid-Max", "Valid-Max",
                                    "All-Selected", "Valid-Selected"], rows)


def valid_beats_invalid(row: list[str]) -> tuple[bool, str]:
    # A '*' row had orders cut off: both maxima are lower bounds.
    slack = 1.5 if row[0].endswith("*") else 1.0
    return (num(row[2]) <= num(row[1]) * slack,
            f"{row[2]} vs {row[1]} x {slack}")


def fig09(_: str) -> Table:
    impls, c, rows = ("push", "pull", "merge"), cluster(), []
    for ds in dataset_names():
        q, db = case(ds, "Q2")
        rows.append([ds.upper()])
        for impl in impls:
            ledger = c.new_ledger()
            one_round_execute(q, db, c, q.attributes, ledger, impl=impl)
            b = ledger.breakdown()
            rows[-1] += [f"{b.communication:.4f}", f"{b.computation:.4f}"]
    return Table("Fig. 9 — HCube implementations on Q2 (model-seconds)",
                 ["dataset", *(f"{i} {p}(s)" for i in impls
                               for p in ("comm", "comp"))], rows)


def fig10(qn: str) -> Table:
    q, db = case("lj", qn)
    true = leapfrog_join(q, db, budget=WORK_BUDGET * 4).count
    rows = []
    for k in (20, 100, 1_000, 10_000, 100_000):
        t0 = time.perf_counter()
        est = CardinalityEstimator(db, num_samples=k, seed=1).estimate(q)
        elapsed = time.perf_counter() - t0
        lo, hi = sorted(max(1.0, v) for v in (est.estimate, float(true)))
        rows.append([str(k), f"{elapsed:.3f}", f"{hi / lo:.3f}",
                     "exact" if est.exact else "sampled"])
    return Table(f"Fig. 10 — (LJ, {qn}): sampling budget sweep (true count "
                 f"= {true})", ["samples", "time (s)", "max D", "mode"],
                 rows, clock=("time (s)",))


def fig11(qn: str) -> Table:
    workers = (1, 2, 4, 8, 16, 28)
    results = [run("adj", "lj", qn, workers=w, budget=WORK_BUDGET * 4)
               for w in workers]
    return Table(f"Fig. 11 — (LJ, {qn}): ADJ speed-up",
                 ["workers", "total (s)", "speed-up"],
                 [[str(w), ran(r, r.total_seconds),
                   ran(r, results[0].total_seconds / r.total_seconds, ".2f")
                   if r.ok and results[0].ok else "-"]
                  for w, r in zip(workers, results)])


def fig12(item: str) -> Table:
    """Fig. 12(a)-(c) fix a query (``Q1``), (d)-(f) a dataset (``as``)."""
    cases = ([(ds, item) for ds in dataset_names()] if item[0] == "Q"
             else [(item, f"Q{i}") for i in range(1, 7)])
    return Table(f"Fig. 12({item.upper()}) — methods x "
                 f"{'datasets' if item[0] == 'Q' else 'queries'} "
                 "(model-seconds)",
                 ["test-case", *map(registry.display_name, FIG12_ENGINES)],
                 [[f"({ds.upper()},{qn})",
                   *(ran(r, r.total_seconds) for r in
                     (run(e, ds, qn, memory=MEMORY) for e in FIG12_ENGINES))]
                  for ds, qn in cases])


def counts_agree(t: Table) -> tuple[bool, str]:
    counts = {r[0]: {c.result.count for c in r[1:] if c.result.ok}
              for r in t.rows if sum(c.result.ok for c in r[1:]) >= 2}
    if not counts:
        num(*t.rows[0][1:])            # not checked: names a failed run
    bad = [f"{k} {sorted(v)}" for k, v in counts.items() if len(v) > 1]
    return not bad, (f"disagree on {', '.join(bad)}" if bad else
                     f"one count on each of the {len(counts)} cases that "
                     "two or more methods completed")


def adj_completes_most(t: Table) -> tuple[bool, str]:
    done = [sum(r[col].result.ok for r in t.rows)
            for col in range(1, len(t.headers))]
    return done[-1] >= max(done[:-1]), "cases completed: " + ", ".join(
        f"{h} {n}" for h, n in zip(t.headers[1:], done))


def tables02_04(ds: str) -> Table:
    ref = {"as": "Table II", "lj": "Table III", "ok": "Table IV"}[ds]
    phases = ("optimization", "precompute", "communication", "computation",
              "total")
    rows = [[qn, *(ran(co, getattr(co.breakdown, p)) for p in phases),
             *(ran(cf, getattr(cf.breakdown, p)) for p in phases
               if p != "precompute")]
            for qn in ("Q4", "Q5", "Q6") for co, cf in [pair(ds, qn)]]
    return Table(f"{ref} — Co-Opt vs Comm-First on {ds.upper()} "
                 "(model-seconds)",
                 ["query", "co:Opt", "co:Pre", "co:Comm", "co:Comp",
                  "co:Total", "cf:Opt", "cf:Comm", "cf:Comp", "cf:Total"],
                 rows)


def ablation_ghd(_: str) -> Table:
    rows = [[qn, ran(adj, adj.total_seconds),
             ran(adj, len(adj.extra.get("precomputed", ())), "d"),
             ran(yan, yan.total_seconds),
             ran(yan, sum(yan.extra.get("bag_sizes", [])), "d")]
            for qn in ("Q1", "Q4", "Q5", "Q6")
            for adj, yan in [pair("lj", qn, "yannakakis")]]
    return Table("Ablation — selective (ADJ) vs exhaustive (Yannakakis) bag "
                 "materialization on LJ",
                 ["query", "ADJ total(s)", "ADJ #bags materialized",
                  "Yannakakis total(s)", "Yannakakis bag tuples"], rows)


def same_count(row: list[str]) -> tuple[bool, str]:
    num(row[1], row[3])                # not checked if either run failed
    adj, yan = row[1].result.count, row[3].result.count
    return adj == yan, f"ADJ {adj} vs Yannakakis {yan} results"


def ablation_plan_search(_: str) -> Table:
    rows = []
    for qn in ("Q4", "Q5", "Q6"):
        q, db = case("lj", qn)
        greedy, oracle = (search(q, db, cluster(), estimator=(
            CardinalityEstimator(db, num_samples=SAMPLES, seed=0)))
            for search in (optimize_plan, exhaustive_plan))
        cost, best = greedy.plan.estimated_cost, oracle.plan.estimated_cost
        rows.append([qn, str(greedy.explored_configurations),
                     str(oracle.explored_configurations), f"{cost:.4f}",
                     f"{best:.4f}", f"{cost / max(1e-12, best):.3f}",
                     f"{greedy.wall_seconds:.2f}",
                     f"{oracle.wall_seconds:.2f}"])
    return Table("Ablation — Algorithm 2 greedy vs exhaustive plan search "
                 "(LJ)", ["query", "greedy#", "oracle#", "greedy cost",
                          "oracle cost", "ratio", "greedy s", "oracle s"],
                 rows, clock=("greedy s", "oracle s"))


def ablation_skew(_: str) -> Table:
    rows = []
    for qn in ("Q1", "Q2", "Q4", "Q5", "Q6"):
        r = run("hcubej", "lj", qn, budget=WORK_BUDGET * 4)
        if not r.ok:
            rows.append([qn, *[ran(r, 0)] * 3])
            continue
        work = r.extra["worker_work"]
        rep = skew_report(work)
        rows.append([qn, f"{rep.imbalance:.2f}", f"{rep.gini:.2f}",
                     f"{straggler_slowdown(work):.2f}"])
    return Table("Ablation — per-worker computation skew on LJ (HCubeJ)",
                 ["query", "imbalance (max/mean)", "gini",
                  "straggler slowdown"], rows)


BASE = f"scale {SCALE:g}, {WORKERS} workers, work budget {WORK_BUDGET:,}"
ADJ_BASE = f"{BASE}, ADJ with {SAMPLES} samples"
LT, LE, GE = float.__lt__, float.__le__, float.__ge__

EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment("table01_datasets", "Table I", f"scale {SCALE:g}", table01, (
        Claim("the analogues keep the paper's size order", lambda t: (
            all(num(a[3]) <= num(b[3]) for a, b in itertools.pairwise(t.rows)),
            " <= ".join(r[3] for r in t.rows))),)),
    Experiment("fig01a_one_vs_multi_round", "Fig. 1(a)",
               f"{BASE}, SparkSQL unbounded", fig01a, (
        Claim("one-round shuffles fewer tuples than multi-round",
              ends(1, LT)),), ("Q5", "Q6")),
    Experiment("fig01b_comm_first_vs_coopt", "Fig. 1(b)", ADJ_BASE, fig01b, (
        Claim("co-optimization computes less than communication-first",
              coopt_computes_less),), ("Q5", "Q6")),
    Experiment("fig06_intermediate_tuples", "Fig. 6",
               f"scale {FIG6_SCALE:g} (half), work budget {WORK_BUDGET:,}, "
               "the first traversal of WB's hypertree", fig06, (
        Claim("the last two traversed nodes hold most tuples on at least "
              "half the datasets", last_nodes_dominate),), ("Q5", "Q6")),
    Experiment("fig08_attribute_order_pruning", "Fig. 8",
               f"scale {FIG8_SCALE:g} (0.3x), each order cut off at "
               f"{FIG8_ORDER_BUDGET:,} work units, {SAMPLES} samples", fig08, (
        Claim("the worst valid order is no worse than the worst invalid one",
              valid_beats_invalid, True),), ("Q4", "Q5", "Q6")),
    Experiment("fig09_hcube_impls", "Fig. 9", BASE, fig09, (
        Claim("pull communicates less than push", cols(3, LT, 1), True),
        Claim("merge communicates no more than pull", cols(5, LE, 3, 1e-9),
              True),
        Claim("merge computes less than push", cols(6, LT, 2), True))),
    Experiment("fig10_sampling", "Fig. 10",
               f"scale {SCALE:g}, sampling seed 1, true counts under work "
               f"budget {WORK_BUDGET * 4:,}", fig10, (
        Claim("more samples are at least as accurate", ends(2, LE)),
        Claim("the largest budget is within 5%", lambda t: (
            num(t.rows[-1][2]) < 1.05, f"max D {t.rows[-1][2]}"))),
        ("Q4", "Q5", "Q6")),
    Experiment("fig11_scalability", "Fig. 11",
               f"scale {SCALE:g}, work budget {WORK_BUDGET * 4:,}, ADJ with "
               f"{SAMPLES} samples", fig11, (
        Claim("more workers are not slower", ends(1, LE)),),
        ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6")),
    Experiment("fig12_methods", "Fig. 12",
               f"{ADJ_BASE}, {MEMORY:,} tuples of memory per worker, "
               f"SparkSQL / BigJoin budgets {SPARKSQL_INPUT_FACTOR}x / "
               f"{BIGJOIN_INPUT_FACTOR}x the input tuples", fig12, (
        Claim("every completed method returns the same count", counts_agree),
        Claim("ADJ completes at least as many cases as any other method",
              adj_completes_most)), ("Q1", "Q2", "Q3", "as", "lj", "ok")),
    Experiment("table02_04_coopt_vs_commfirst", "Tables II-IV", ADJ_BASE,
               tables02_04, (
        Claim("co-optimization spends at least as long optimizing",
              cols(1, GE, 6), True),), ("as", "lj", "ok")),
    Experiment("ablation_ghd_engines", "Ablation: ADJ vs Yannakakis on one "
               "GHD (Sec. VI)", ADJ_BASE, ablation_ghd, (
        Claim("both engines return the same count", same_count, True),)),
    Experiment("ablation_plan_search", "Ablation: greedy vs exhaustive plan "
               "search (Algorithm 2)", f"scale {SCALE:g}, {WORKERS} workers, "
               f"{SAMPLES} samples, seed 0", ablation_plan_search, (
        Claim("the greedy prices no more configurations than the exhaustive "
              "search", cols(1, LE, 2), True),
        Claim("the greedy plan costs less than 3x the optimum",
              lambda r: (num(r[5]) < 3.0, f"ratio {r[5]}"), True))),
    Experiment("ablation_skew", "Ablation: per-worker skew (Fig. 11's "
               "stragglers)", f"{BASE} x 4", ablation_skew, (
        Claim("some query shows computation skew (max/mean > 1)", lambda t: (
            any(num(r[1]) > 1.0 for r in measured(t.rows, 1)),
            "max/mean " + ", ".join(f"{r[1]} ({r[0]})" for r in t.rows))),)),
)

HEADER = f"""# Experiments

The paper's Sec. VII at reproduction scale, written by `PYTHONPATH=src
python3 benchmarks/paper.py` (CI fails when a rerun changes this file).
Graphs are seeded power-law analogues at {SCALE:g} of the paper's sizes, on
{WORKERS} workers; `>BUDGET` stands in for the 12-hour timeout, `OOM` for a
run over its memory.  Seconds are model-seconds (work and moved tuples at
uncalibrated rates); wall-clock columns are printed, not written.  A claim
`holds` or `does not hold` on the numbers shown, or is `not checked
(<engine>: <failure>)` when a run it needs failed.
"""


def main() -> int:
    sections = []
    for exp in EXPERIMENTS:
        tables = [exp.build(item) for item in exp.over]
        print(exp.section(tables, clock=True))
        sections.append(exp.section(tables))
    tally = {status: "".join(sections).count(f"\n- {status}")
             for status in ("holds", "not checked", "does not hold")}
    summary = ", ".join(f"{n} {status}" for status, n in tally.items())
    OUT.write_text(f"{HEADER}\nClaims: {summary}.\n\n" + "\n".join(sections))
    print(f"claims: {summary}; wrote {OUT}")
    return 1 if tally["does not hold"] else 0


if __name__ == "__main__":
    sys.exit(main())
