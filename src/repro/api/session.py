"""JoinSession: the one front door to the reproduction.

Owns the cluster, the (lazily created) executor and its data-plane
transport, in the way ``SparkSession`` owns a Spark application's
resources::

    from repro import JoinSession

    with JoinSession(workers=8, backend="processes",
                     transport="shm") as session:
        job = session.query("lj", "Q5")        # named paper test-case
        print(job.explain().describe())        # plans only — no shuffle
        result = job.run("adj")                # one engine
        report = job.compare()                 # every registered engine

Resource ownership actually lives in a
:class:`~repro.api.context.ClusterContext`: a session constructed the
historical way creates a *private* context (same behaviour, bit for
bit), while ``JoinSession(context=ctx)`` attaches to a shared one — many
sessions then multiplex queries onto one warm pool, each run isolated on
a per-query :class:`~repro.runtime.executor.ExecutorView`.

Lifecycle guarantees:

- the executor is created on first use only (``explain``/``estimate``
  never create one);
- ``close()`` — and therefore ``with`` exit — waits for in-flight runs
  (new work is refused immediately), then releases the session's hold
  on its context; a private context tears down the executor and
  whatever its transport published (shared-memory segments), even when
  a worker crashed mid-run, while a shared context stays warm for its
  other holders;
- ``close()`` is idempotent, and a closed session refuses new work.
"""

from __future__ import annotations

import threading

from ..data.database import Database
from ..distributed.cluster import Cluster
from ..engines import registry
from ..errors import ConfigError
from ..obs.log import configure_logging, get_logger, kv
from ..obs.metrics import METRICS, snapshot_delta
from ..obs.tracing import NOOP_TRACER, Tracer, write_chrome_trace
from ..query.parser import parse_query
from ..query.query import JoinQuery
from ..runtime.executor import Executor
from ..workloads.generators import make_testcase
from .config import RunConfig
from .context import ClusterContext
from .job import QueryJob

log = get_logger("repro.api.session")

__all__ = ["JoinSession"]


class JoinSession:
    """Facade owning cluster, executor and transport lifecycle."""

    def __init__(self, workers: int | None = None,
                 backend: str | None = None,
                 transport: str | None = None, *,
                 hosts=None,
                 samples: int | None = None,
                 seed: int | None = None,
                 scale: float | None = None,
                 work_budget: int | None = None,
                 kernel: str | None = None,
                 memory_tuples: float | None = None,
                 profile: bool | None = None,
                 trace_path: str | None = None,
                 log_level: str | None = None,
                 config: RunConfig | None = None,
                 cluster: Cluster | None = None,
                 context: ClusterContext | None = None):
        """Keyword arguments override ``config`` (itself env-defaulted).

        ``cluster`` substitutes a pre-built :class:`Cluster` (custom cost
        model params); its worker count and runtime hint then win over
        the config's.  Passing ``workers=``/``backend=`` that *conflict*
        with an explicit cluster is a :class:`ConfigError` — silently
        preferring one would mask the mistake.

        ``context`` attaches this session to a shared
        :class:`ClusterContext` instead of creating a private one.
        Resource-owning knobs (``workers``, ``backend``, ``transport``,
        ``hosts``, ``memory_tuples``, ``config``, ``cluster``) then
        belong to the context and cannot be
        overridden here; per-caller knobs (``samples``, ``seed``,
        ``scale``, ``work_budget``, ``kernel``, ``profile``,
        ``trace_path``, ``log_level``) still apply.
        """
        if context is not None:
            owned = {"workers": workers, "backend": backend,
                     "transport": transport, "hosts": hosts,
                     "memory_tuples": memory_tuples,
                     "config": config, "cluster": cluster}
            conflicts = sorted(k for k, v in owned.items()
                               if v is not None)
            if conflicts:
                raise ConfigError(
                    f"{', '.join(conflicts)} cannot be set when "
                    f"attaching to a shared ClusterContext — resource "
                    f"ownership belongs to the context")
            config = context.config
        if cluster is not None:
            if workers is not None and workers != cluster.num_workers:
                raise ConfigError(
                    f"workers={workers} conflicts with the supplied "
                    f"cluster's num_workers={cluster.num_workers}")
            if backend is not None and backend != cluster.runtime:
                raise ConfigError(
                    f"backend={backend!r} conflicts with the supplied "
                    f"cluster's runtime={cluster.runtime!r}")
        self.config = (config or RunConfig()).replace(
            workers=workers, backend=backend, transport=transport,
            hosts=hosts, samples=samples, seed=seed, scale=scale,
            work_budget=work_budget, kernel=kernel,
            memory_tuples=memory_tuples,
            profile=profile, trace_path=trace_path,
            log_level=log_level)
        if cluster is not None:
            self.config = self.config.replace(
                workers=cluster.num_workers, backend=cluster.runtime)
        if context is not None:
            self._context = context.acquire()
            self._owns_context = False
        else:
            self._context = ClusterContext(self.config,
                                           cluster=cluster).acquire()
            self._owns_context = True
        self._cluster = self._context.cluster
        self._tracer: Tracer | None = None
        self._closed = False
        # In-flight run accounting: close() waits on this condition so
        # a run that already started can never have its transport torn
        # down underneath it (the close()-vs-run() race).
        self._run_cond = threading.Condition()
        self._active_runs = 0
        if self.config.log_level is not None:
            configure_logging(self.config.log_level)

    # -- resources -----------------------------------------------------------

    @property
    def cluster(self) -> Cluster:
        return self._cluster

    @property
    def context(self) -> ClusterContext:
        """The (private or shared) context owning this session's resources."""
        return self._context

    @property
    def shared(self) -> bool:
        """True when attached to a caller-supplied shared context."""
        return not self._owns_context

    @property
    def executor_created(self) -> bool:
        """Whether the lazy executor exists yet (telemetry/testing)."""
        return self._context.executor_created

    @property
    def _executor(self) -> Executor | None:
        # Compatibility peephole: the base executor now lives on the
        # context.
        return self._context._executor

    @property
    def transport_label(self) -> str:
        """Name of the transport that carries task payloads."""
        return self._context.transport_name()

    def executor(self) -> Executor:
        """The executor runs should use, created on first call.

        A private session hands back the context's base executor (the
        historical single-caller behaviour); a session attached to a
        *shared* context gets a fresh per-query
        :class:`~repro.runtime.executor.ExecutorView`, so concurrent
        runs never interleave epochs.
        """
        self._check_open()
        if self._owns_context:
            return self._context.executor()
        return self._context.checkout()

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigError("this JoinSession is closed")

    def _begin_run(self) -> None:
        """Register an in-flight run (refused once close() started)."""
        with self._run_cond:
            self._check_open()
            self._active_runs += 1

    def _end_run(self) -> None:
        with self._run_cond:
            self._active_runs -= 1
            self._run_cond.notify_all()

    # -- observability -------------------------------------------------------

    def tracer(self):
        """The session's span tracer.

        A real :class:`~repro.obs.tracing.Tracer` when the config sets a
        ``trace_path`` (created on first call, shared by every run so
        the trace file holds the whole session's timeline); the noop
        singleton otherwise — hot paths pay nothing when tracing is off.
        """
        if self.config.trace_path is None:
            return NOOP_TRACER
        if self._tracer is None:
            self._tracer = Tracer()
        return self._tracer

    def metrics(self, delta_from: dict | None = None) -> dict:
        """Snapshot of the process-wide metrics registry.

        Counters are cumulative across runs and sessions (they live on
        :data:`repro.obs.metrics.METRICS`).  For per-run numbers pass a
        previous snapshot as ``delta_from`` — the supported windowing
        path::

            before = session.metrics()
            job.run("adj")
            window = session.metrics(delta_from=before)

        which returns only what changed (counter differences; histogram
        ``count/sum/mean`` over the window — see
        :func:`repro.obs.metrics.snapshot_delta`).  ``transport.*``
        totals agree with the summed :attr:`EngineResult.data_plane`
        stats of the runs that fed them.  For exact windowed quantiles
        and cross-process attribution, profile the run instead
        (``job.run(profile=True)``).
        """
        snapshot = METRICS.snapshot()
        if delta_from is None:
            return snapshot
        return snapshot_delta(delta_from, snapshot)

    def next_query_id(self, name: str | None = None) -> str:
        """Mint the next query id (``q0001:Q9``).

        ``QueryJob.run`` calls this for profiled/traced runs; the id
        tags every span and scoped metric of that run.  Ids are minted
        by the context (context-wide sequence), so sessions sharing a
        context never collide on attribution labels.
        """
        return self._context.next_query_id(name)

    def write_trace(self, path: str | None = None) -> int:
        """Write the session's Chrome-trace JSON; returns the span count.

        ``close()`` calls this automatically with the configured
        ``trace_path``; call it explicitly to snapshot mid-session.
        """
        path = path or self.config.trace_path
        if path is None or self._tracer is None:
            return 0
        count = write_chrome_trace(path, self._tracer.spans)
        log.info("trace written %s", kv(path=path, spans=count))
        return count

    # -- queries -------------------------------------------------------------

    def query(self, dataset: str, query_name: str,
              scale: float | None = None,
              seed: int | None = None) -> QueryJob:
        """A job for a named paper test-case, e.g. ``("lj", "Q5")``."""
        self._check_open()
        q, db = make_testcase(
            dataset, query_name,
            scale=self.config.scale if scale is None else scale,
            seed=seed)
        return QueryJob(self, q, db)

    def query_from(self, query: JoinQuery | str, db: Database) -> QueryJob:
        """A job for an explicit query (object or datalog-style text)."""
        self._check_open()
        if isinstance(query, str):
            query = parse_query(query)
        return QueryJob(self, query, db)

    def engines(self) -> tuple[str, ...]:
        """Registered engine keys (:mod:`repro.engines.registry`)."""
        return registry.available()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release this session's hold on its context (idempotent).

        New work is refused the moment ``close()`` is called, but runs
        already in flight finish cleanly first — ``close()`` blocks on
        them, so a transport can never be torn down mid-run.  A private
        context then releases its executor and whatever the transport
        published; a shared context stays warm for its other holders.

        Also flushes the session trace to ``config.trace_path`` when
        tracing was on and any spans were recorded.
        """
        with self._run_cond:
            already_closed, self._closed = self._closed, True
            while self._active_runs > 0:
                self._run_cond.wait()
        if already_closed:
            return
        try:
            self._context.release()
        finally:
            self.write_trace()

    def __enter__(self) -> "JoinSession":
        self._check_open()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (f"JoinSession(workers={self.config.workers}, "
                f"backend={self.config.backend!r}, "
                f"transport={self.transport_label!r}, {state})")
