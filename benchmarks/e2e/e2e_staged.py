"""The staged traced pass: one query, re-enacted layer by layer.

End-to-end numbers come from the untraced front-door loops in
``e2e_frontdoor``.  This module explains them: it re-enacts the same
query stage by stage through each layer's *public* functions —
mirroring ``ADJ.run`` / ``HCubeJ.run`` and ``one_round_execute`` — and
times every call from here, one span per call, named after the metric it
feeds.  Worker-side work (trie build, the join kernel) is then re-run
in-process, single-threaded, on the materialized cubes.  Layers a
workload's own engine never enters (the ADJ optimizer under HCubeJ, the
service tier under a batch workload, ...) are measured by a probe on the
same input, so every per-layer metric is a real measurement on every
workload; README.md says which are on the query's path.

The program itself stays untraced: spans are recorded by the benchmark,
around the calls, into a ``repro.obs.tracing.Tracer`` it owns.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from repro.api import JoinSession
from repro.core import CardinalityEstimator, Optimizer
from repro.data import Database, Relation
from repro.distributed import (
    HypercubeGrid,
    hcube_route,
    optimize_shares,
    skew_report,
)
from repro.engines import ADJ, HCubeJ
from repro.engines.base import attach_degree_order
from repro.ghd import optimal_hypertree
from repro.kernels import create_kernel, select_kernel
from repro.obs.tracing import Tracer
from repro.query import parse_query
from repro.runtime import (
    RuntimeTelemetry,
    available_parallelism,
    create_executor,
    iter_routed_tasks,
    merge_task_results,
    run_streamed_tasks,
)
from repro.wcoj import build_tries

from e2e_frontdoor import (
    WARMUPS,
    Ops,
    ServiceRun,
    batch_session_leaks,
    executed,
    timed_queries,
)
from e2e_harness import median, metric, port_stays_open
from e2e_workloads import (
    BATCH_WORKLOADS,
    HOT_CASES,
    SERVICE_CLIENTS,
    WORKERS,
    Case,
    HotCase,
    service_config,
)

#: Repetitions of every staged pass and probe; slow queries get fewer
#: so one traced run stays near the timed window's length.
REPS_FAST, REPS_SLOW, SLOW_QUERY_S = 5, 3, 0.8
#: Warm cache hits sent after the mix, so ``hit_ms.p95`` has its
#: ten samples beyond it on every workload.
HIT_PROBES = 240
STAT_PROBES = 20
PARSE_PROBES = 200
#: A slow probe stops repeating once it has used this much time.
PROBE_BUDGET_S = 1.5
#: The hot case whose executed path the service mix's staged pass
#: re-enacts (Q9 on the pinned analogue, engine adj).
SERVICE_REP = 4


class StageRecorder:
    """Spans and per-pass numbers, kept in memory until the run ends."""

    def __init__(self):
        self.tracer = Tracer()
        #: name -> pass id -> summed seconds (or an observed value).
        self.by_pass: dict[str, dict[str, float]] = defaultdict(dict)
        #: pass id -> seconds covered by spans directly under the pass.
        self.covered: dict[str, float] = defaultdict(float)
        self._stack: list[str] = []

    @contextmanager
    def stage(self, name: str, qid: str):
        """Time one call; the yielded dict becomes the span's counts."""
        parent = self._stack[-1] if self._stack else ""
        self._stack.append(name)
        counts: dict = {}
        wall = time.time()
        start = time.perf_counter()
        try:
            yield counts
        finally:
            self._stack.pop()
            self.add(name, qid, wall, time.perf_counter() - start, parent,
                     **counts)

    def add(self, name: str, qid: str, ts: float, dur: float,
            parent: str = "", **counts) -> None:
        self.tracer.add_span(name, ts, dur, cat=name.split(".")[0],
                             parent=parent, query_id=qid, **counts)
        self.observe(name, qid, self.by_pass[name].get(qid, 0.0) + dur)
        if parent == "staged.query":
            self.covered[qid] += dur

    def observe(self, name: str, qid: str, value: float) -> None:
        self.by_pass[name][qid] = value

    def samples(self, name: str) -> list[float]:
        return list(self.by_pass.get(name, {}).values())

    def seconds(self, name: str) -> dict:
        """A time metric: the median over passes, with its summary."""
        values = self.samples(name)
        return metric(median(values), "s", values)


# -- the stages --------------------------------------------------------------

def adj_front(rec: StageRecorder, qid: str, case: Case, cluster, config,
              counts: dict):
    """ADJ's coordinator-side half: GHD, Algorithm 2, pre-computing.

    Mirrors ``ADJ._optimize`` / ``ADJ._precompute`` call for call.
    Returns ``(rewritten query, working database, attribute order)``.
    """
    query, db = case.query, case.db
    with rec.stage("ghd.hypertree_s", qid) as c:
        tree = optimal_hypertree(query)
        c["bags"] = counts["ghd.bags"] = tree.num_bags
    with rec.stage("core.optimize_s", qid) as c:
        estimator = CardinalityEstimator(db, num_samples=config.samples,
                                         seed=config.seed)
        report = Optimizer(query, db, cluster, hypertree=tree,
                           estimator=estimator,
                           hcube_impl=ADJ.hcube_impl).run()
        c["sampling_work"] = counts["core.sampling_work"] = \
            report.sampling_work
        c["explored"] = counts["core.explored_configurations"] = \
            report.explored_configurations
    plan = report.plan
    with rec.stage("core.precompute_s", qid) as c:
        working = Database(
            Relation(rel.name, rel.attributes, rel.data, dedup=False)
            for rel in db)
        tuples = 0
        for cand in plan.candidates:
            choice = select_kernel(config.kernel, cand.subquery, db,
                                   scope=f"precompute:{cand.name}")
            result = create_kernel(choice.key).execute(
                cand.subquery, db, cand.attributes, materialize=True)
            working.add(Relation(cand.name, cand.attributes,
                                 result.relation.data, dedup=False))
            tuples += result.count
        c["tuples"] = counts["core.precomputed_tuples"] = tuples
    return plan.rewritten_query(), working, plan.attribute_order


def one_round(rec: StageRecorder, qid: str, query, db, order, impl: str,
              kernel: str, cluster, executor, counts: dict):
    """``one_round_execute``'s runtime path, one public call per span.

    The engine streams tasks so publishing overlaps execution; here the
    task stream is drained first, so publish and execute are timed
    apart.  Returns ``(routing, kernel key)``.
    """
    with rec.stage("kernels.select_s", qid) as c:
        choice = select_kernel(kernel, query, db, scope=f"staged:{impl}")
        c["kernel"] = choice.key
    sizes = {a.relation: len(db[a.relation]) for a in query.atoms}
    with rec.stage("distributed.shares_s", qid):
        shares = optimize_shares(
            query, sizes, cluster.num_workers,
            memory_tuples=cluster.memory_tuples_per_worker)
        grid = HypercubeGrid(query, shares, cluster.num_workers)
    with rec.stage("distributed.route_s", qid) as c:
        routing = hcube_route(
            query, db, grid, impl=impl,
            memory_tuples=cluster.memory_tuples_per_worker,
            routing_threads=available_parallelism())
        c["tuple_copies"] = routing.stats.tuple_copies
    transport = executor.transport
    telemetry = RuntimeTelemetry(backend=executor.name,
                                 num_workers=cluster.num_workers)
    try:
        with rec.stage("runtime.publish_s", qid):
            tasks = list(iter_routed_tasks(routing, db, order,
                                           transport=transport,
                                           kernel=choice.key))
        with rec.stage("runtime.execute_wall_s", qid) as c:
            results = run_streamed_tasks(executor, tasks,
                                         telemetry=telemetry)
            c["tasks"] = len(results)
        with rec.stage("runtime.merge_s", qid) as c:
            merged = merge_task_results(results, len(order))
            c["count"] = merged.count
    finally:
        with rec.stage("runtime.teardown_s", qid):
            transport.teardown()
    epoch = transport.last_epoch
    input_tuples = sum(sizes[a.relation] for a in query.atoms)
    busy = sum(r.total_seconds for r in results)
    straggler = max(r.total_seconds for r in results)
    wall = rec.by_pass["runtime.execute_wall_s"][qid]
    rec.observe("runtime.worker_busy_s", qid, busy)
    rec.observe("runtime.worker_join_s", qid,
                sum(r.join_seconds for r in results))
    rec.observe("data.trie_build_s", qid,
                sum(r.build_seconds for r in results))
    rec.observe("runtime.straggler_s", qid, straggler)
    rec.observe("runtime.dispatch_wait_s", qid, wall - straggler)
    rec.observe("runtime.parallel_efficiency", qid,
                busy / (executor.max_workers * wall))
    counts.update({
        "count": merged.count,
        "distributed.tuple_copies": routing.stats.tuple_copies,
        "distributed.dup_factor":
            routing.stats.tuple_copies / max(1, input_tuples),
        "distributed.max_worker_tuples": routing.stats.max_worker_tuples,
        "distributed.load_skew":
            skew_report(routing.worker_loads).imbalance,
        "runtime.published_bytes": epoch.published_bytes,
        "runtime.shipped_bytes": epoch.shipped_bytes,
        "runtime.fetched_bytes": epoch.fetched_bytes,
        "runtime.tasks": len(results),
        "runtime.tasks_failed": sum(not r.ok for r in results),
    })
    return routing, choice.key


def replay_workers(rec: StageRecorder, qid: str, routing, db, order,
                   kernel_key: str, counts: dict) -> None:
    """The workers' share, in this process, one thread: the plain
    serial baseline for the trie build and the join kernel."""
    with rec.stage("distributed.materialize_s", qid):
        shuffle = routing.materialize(db)
    local_query = shuffle.local_query
    kernel = create_kernel(kernel_key)
    work = out = 0
    for cube_db in shuffle.cube_databases:
        if kernel_key == "wcoj":
            with rec.stage("replay.trie_build_s", qid):
                build_tries(local_query, cube_db, order)
        with rec.stage("kernels.execute_s", qid) as c:
            result = kernel.execute(local_query, cube_db, order)
            c["out_tuples"] = result.count
        work += result.stats.intersection_work
        out += result.count
    counts.update({
        "replay_count": out,
        "kernels.intersection_work": work,
        "kernels.out_tuples": out,
        "kernels.work_per_out_tuple": work / max(1, out),
    })


def staged_pass(rec: StageRecorder, qid: str, engine: str, case: Case,
                cluster, executor, config) -> dict:
    """One staged re-enactment of ``job.run(engine)``; returns counts."""
    counts: dict = {}
    with rec.stage("staged.query", qid):
        if engine == "adj":
            query, db, order = adj_front(rec, qid, case, cluster, config,
                                         counts)
            impl = ADJ.hcube_impl
        else:
            query, db, impl = case.query, case.db, HCubeJ.hcube_impl
            with rec.stage("engines.order_s", qid):
                order = attach_degree_order(query, db)
        routing, kernel_key = one_round(rec, qid, query, db, order, impl,
                                        config.kernel, cluster, executor,
                                        counts)
    with rec.stage("staged.replay", qid):
        replay_workers(rec, qid, routing, db, order, kernel_key, counts)
    return counts


# -- probes ------------------------------------------------------------------

def probe_sessions(rec, name, case, engine, config, ops, reps) -> None:
    for i in range(reps):
        qid = f"{name}#api{i}"
        with rec.stage("api.session_open_s", qid):
            session = JoinSession(config=config)
        try:
            with rec.stage("api.cold_query_s", qid):
                result = session.query_from(case.query, case.db).run(engine)
            ops.engine_result(result, case)
        finally:
            with rec.stage("api.session_close_s", qid):
                session.close()


def probe_pool_start(rec, name, config, reps) -> None:
    for i in range(reps):
        executor = create_executor("processes", WORKERS,
                                   transport=config.transport)
        try:
            with rec.stage("runtime.pool_start_s", f"{name}#pool{i}"):
                executor.setup()
                executor.map_tasks(abs, list(range(WORKERS)))
        finally:
            executor.close()


def probe_block_store(rec, name, case, ops, reps) -> dict:
    """One relation block through a loopback block store and back."""
    from repro.net import BlockStoreClient, BlockStoreServer

    data = case.db[case.query.atoms[0].relation].data
    server = BlockStoreServer().start()
    try:
        with BlockStoreClient(*server.address) as client:
            for i in range(reps):
                qid = f"{name}#block{i}"
                with rec.stage("net.block_put_s", qid):
                    client.put("probe", data)
                with rec.stage("net.block_get_s", qid):
                    got = client.get("probe")
                client.free("probe")
                if got.shape != data.shape:
                    ops.fail(f"block store returned shape {got.shape}")
    finally:
        server.stop()
        if port_stays_open(server.address):
            ops.fail(f"block store still listening on {server.address}")
    megabytes = data.nbytes / 1e6
    return {
        "net.block_put_mb_s": metric(
            megabytes / median(rec.samples("net.block_put_s")), "MB/s"),
        "net.block_get_mb_s": metric(
            megabytes / median(rec.samples("net.block_get_s")), "MB/s"),
    }


def trace_layers(rec: StageRecorder, name: str, case: Case, engine: str,
                 config, ops: Ops) -> dict:
    """Every non-service layer of one (query, database, engine)."""
    query, db = case.query, case.db
    other = "adj" if engine == "hcubej" else "hcubej"
    with JoinSession(config=config) as session:
        job = session.query_from(query, db)
        warm, _, _ = timed_queries(job, engine, case, ops, 0.0, WARMUPS)
        reps = REPS_SLOW if min(warm) > SLOW_QUERY_S else REPS_FAST
        walls, results, _ = timed_queries(job, engine, case, ops, 0.0, reps)
        untraced = median(walls)

        counts: dict = {}
        for i in range(reps):
            counts = staged_pass(rec, f"{name}#{i}", engine, case,
                                 session.cluster, session.executor(),
                                 config)
            ok = counts["count"] == case.check() == counts["replay_count"]
            ops.record(ok, f"staged pass count={counts['count']} "
                           f"replay={counts['replay_count']} "
                           f"reference={case.reference}")
        if engine == "hcubej":
            # The optimizer is off HCubeJ's path: probe it on this input.
            adj_front(rec, f"{name}#adj-probe", case, session.cluster,
                      config, counts)
        else:
            # ... and HCubeJ's order heuristic is off ADJ's.
            with rec.stage("engines.order_s", f"{name}#order-probe"):
                attach_degree_order(query, db)
        profiled, _, _ = timed_queries(job, engine, case, ops, 0.0, reps,
                                       profile=True)
        others, _, _ = timed_queries(job, other, case, ops, 0.0,
                                     REPS_SLOW)
        batch_session_leaks(session, ops)

    probe_sessions(rec, name, case, engine, config, ops, REPS_SLOW)
    probe_pool_start(rec, name, config, REPS_SLOW)
    for i in range(REPS_SLOW):
        with rec.stage("data.fingerprint_s", f"{name}#fingerprint{i}"):
            Database(db).fingerprint()
        if sum(rec.samples("core.estimate_s")) > PROBE_BUDGET_S:
            continue
        with rec.stage("core.estimate_s", f"{name}#estimate{i}"):
            CardinalityEstimator(db, num_samples=config.samples,
                                 seed=config.seed).estimate(query)
    text = repr(query)
    for i in range(PARSE_PROBES):
        with rec.stage("query.parse_s", f"{name}#parse{i}"):
            parse_query(text)

    hcubej_wall = untraced if engine == "hcubej" else median(others)
    adj_wall = untraced if engine == "adj" else median(others)
    modeled = [(r.breakdown, r.telemetry.phase_seconds) for r in results]
    layers = {
        key: rec.seconds(key) for key in (
            "query.parse_s", "ghd.hypertree_s", "core.optimize_s",
            "core.estimate_s", "core.precompute_s",
            "distributed.shares_s", "distributed.route_s",
            "distributed.materialize_s", "runtime.pool_start_s",
            "runtime.publish_s", "runtime.execute_wall_s",
            "runtime.worker_busy_s", "runtime.worker_join_s",
            "runtime.straggler_s", "runtime.dispatch_wait_s",
            "runtime.merge_s", "runtime.teardown_s", "data.trie_build_s",
            "data.fingerprint_s", "kernels.select_s", "kernels.execute_s",
            "engines.order_s", "api.session_open_s", "api.cold_query_s",
            "api.session_close_s")}
    layers.update({
        "data.generate_s": metric(case.generate_s, "s"),
        "runtime.parallel_efficiency": metric(
            median(rec.samples("runtime.parallel_efficiency")), "ratio"),
        "core.model_comm_ratio": metric(median(
            b.communication / (p.get("shuffle", 0.0) + p.get("publish", 0.0))
            for b, p in modeled), "ratio"),
        "core.model_comp_ratio": metric(median(
            b.computation / p["local_join"] for b, p in modeled), "ratio"),
        "engines.hcubej_wall_s": metric(hcubej_wall, "s"),
        "engines.adj_over_hcubej": metric(adj_wall / hcubej_wall, "ratio"),
        "api.run_overhead_s": metric(median(
            w - r.telemetry.total for w, r in zip(walls, results)), "s"),
        "obs.profile_overhead_ratio": metric(
            median(profiled) / untraced, "ratio"),
        "trace.overhead_ratio": metric(
            median(rec.samples("staged.query")) / untraced, "ratio"),
        "trace.coverage_ratio": metric(median(
            rec.covered[qid] / seconds for qid, seconds
            in rec.by_pass["staged.query"].items()), "ratio"),
    })
    for key, unit in (("ghd.bags", "count"),
                      ("core.sampling_work", "count"),
                      ("core.explored_configurations", "count"),
                      ("core.precomputed_tuples", "tuples"),
                      ("distributed.tuple_copies", "tuples"),
                      ("distributed.dup_factor", "ratio"),
                      ("distributed.max_worker_tuples", "tuples"),
                      ("distributed.load_skew", "ratio"),
                      ("runtime.published_bytes", "bytes"),
                      ("runtime.shipped_bytes", "bytes"),
                      ("runtime.fetched_bytes", "bytes"),
                      ("runtime.tasks", "count"),
                      ("runtime.tasks_failed", "count"),
                      ("kernels.intersection_work", "count"),
                      ("kernels.out_tuples", "tuples"),
                      ("kernels.work_per_out_tuple", "ratio")):
        layers[key] = metric(counts[key], unit)
    layers.update(probe_block_store(rec, name, case, ops, REPS_SLOW))
    return {"metrics": layers,
            "untraced_wall_s": metric(untraced, "s", walls),
            "replay_trie_build_s": median(
                rec.samples("replay.trie_build_s"))}


# -- the service tier --------------------------------------------------------

def service_layers(rec: StageRecorder, name: str, run: ServiceRun,
                   samples, invalidate_ms, rep: int) -> dict:
    """``service.*`` / ``net.*`` from a finished mix on an open server.

    Request classes come from the client side (one span per request);
    cache ratios come from ``ServiceClient.stats()`` counters.
    """
    client = run.clients[0]
    twin, hot = run.twins[rep], run.cases[rep]
    # The mix ended on an invalidate: refill, then probe warm hits.
    samples = samples + [run.request(client, rep, True)
                         for _ in range(HIT_PROBES + 1)]
    for sample in samples[-(HIT_PROBES + 1):]:
        run.check(sample)
    for i, sample in enumerate(samples):
        rec.add(f"service.{sample.klass}", f"{name}#req{i}", sample.ts,
                sample.seconds, case=sample.case)
    rtts = []
    for _ in range(STAT_PROBES):
        t0 = time.perf_counter()
        stats = client.stats()
        rtts.append((time.perf_counter() - t0) * 1e3)
    for i in range(REPS_SLOW):
        with rec.stage("service.inproc_execute_s", f"{name}#inproc{i}"):
            result = run.server.service.execute(
                twin.query, twin.db, engine=hot.engine, use_cache=False)
        run.ops.engine_result(result, twin)

    def seconds_of(klass: str, cases=None) -> list[float]:
        return [s.seconds for s in samples if s.klass == klass
                and (cases is None or s.case in cases)]

    counters = stats["metrics"]
    hits = [s * 1e3 for s in seconds_of("hit")]
    bypass = seconds_of("bypass")
    inproc = rec.samples("service.inproc_execute_s")

    def ratio(kind: str) -> float:
        hit = counters.get(f"service.{kind}_cache_hits", 0)
        miss = counters.get(f"service.{kind}_cache_misses", 0)
        return hit / max(1, hit + miss)

    return {
        "service.hit_ms.p50": metric(median(hits), "ms", hits),
        "service.hit_ms.p95": metric(float(np.percentile(hits, 95)), "ms"),
        "service.bypass_s.p50": metric(median(bypass), "s", bypass),
        "service.refill_s.p50": metric(median(seconds_of("refill")), "s",
                                       seconds_of("refill")),
        "service.result_cache_hit_ratio": metric(ratio("result"), "ratio"),
        "service.plan_cache_hit_ratio": metric(ratio("plan"), "ratio"),
        "service.invalidate_ms": metric(median(invalidate_ms), "ms",
                                        invalidate_ms),
        "service.rejected": metric(
            sum(s.klass == "rejected" for s in samples), "count"),
        "service.inproc_execute_s": metric(median(inproc), "s", inproc),
        "net.stat_rtt_ms": metric(median(rtts), "ms", rtts),
        # Same case on both sides: bypass over the wire minus in-process.
        "net.wire_overhead_ms": metric(
            (median(seconds_of("bypass", {rep})) - median(inproc)) * 1e3,
            "ms"),
    }


def trace_workload(name: str, seed: int, seconds: float, scale: float,
                   ops: Ops, out_dir: str) -> dict:
    """The traced run of one workload: per-layer metrics + trace file."""
    rec = StageRecorder()
    if name in BATCH_WORKLOADS:
        workload = BATCH_WORKLOADS[name]
        case, config = workload.make_case(seed, scale), workload.config()
        # The service tier is off a batch query's path: probe it with
        # the same query shape, one client, three blocks.
        cases = [HotCase(workload.query_name, workload.service_scale, None,
                         engine=workload.engine)]
        twins = [c.make_case(scale) for c in cases]
        clients, rep, window, min_executed = 1, 0, 0.0, 6
    else:
        cases = list(HOT_CASES)
        twins = [c.make_case(scale) for c in cases]
        case, config = twins[SERVICE_REP], service_config()
        clients, rep = SERVICE_CLIENTS, SERVICE_REP
        # Half a window is enough for the per-class medians.
        window, min_executed = seconds / 2, 60
    body = trace_layers(rec, name, case, cases[rep].engine, config, ops)

    run = ServiceRun(cases, twins, clients, scale, ops)
    try:
        samples, invalidate_ms, _ = run.run_blocks(seed, window,
                                                   min_executed)
        body["metrics"].update(
            service_layers(rec, name, run, samples, invalidate_ms, rep))
    finally:
        run.close()
    walls = [s.seconds for s in executed(samples)]
    body["service_exec_s"] = metric(median(walls), "s", walls)
    body["reference"] = {case.query_name: case.reference}
    body["trace_file"] = os.path.join(out_dir, f"trace_{name}.json")
    os.makedirs(out_dir, exist_ok=True)
    body["trace_spans"] = rec.tracer.write(body["trace_file"])
    return body
