"""Lightweight nestable spans with Chrome trace-event export.

A :class:`Tracer` records :class:`Span` objects — named wall-clock
intervals tagged with process/thread/host — from every layer of the
runtime: the scheduler's routing pass, the transports' publish/fetch
paths, the executors' submit/map loops, and the one worker task
function (and the kernels it calls).  Because spans carry ``(pid, tid,
host)``, a single merged span list *is* the epoch timeline: the
pipelined overlap window shows up as worker-task spans whose intervals
intersect the coordinator's publish spans on different threads.

Design rules (these are load-bearing — see the overhead test in
tests/test_observability.py):

- **Off means free.**  :func:`current_tracer` returns the
  :data:`NOOP_TRACER` singleton unless a recording tracer was installed
  (:func:`use_tracer` / :func:`set_tracer`).  ``NOOP_TRACER.span(...)``
  returns the singleton itself — it is its own no-op context manager —
  so a run with tracing disabled allocates **no** span objects on the
  hot task path.
- **Spans survive exceptions.**  A ``with tracer.span(...)`` block that
  raises still records its span (tagged ``error=<ExcType>``), so failed
  epochs produce timelines too.
- **Workers ship spans home as plain dicts.**  :meth:`Tracer
  .export_payload` emits JSON/pickle-friendly dicts and
  :meth:`Tracer.merge_payload` folds them into another tracer — the
  mechanism task results and agent DATA/ERR frames use to deliver a
  cluster-wide timeline to the coordinator (see docs/observability.md).

Install scope: :func:`set_tracer` installs process-globally (what a
coordinator wants — routing threads, streamed generators and pool
threads all record into one tracer), while worker-side code uses the
*thread-local* slot so concurrent tasks inside one agent process cannot
clobber each other.  :func:`current_tracer` checks thread-local first.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "TRACE_ENV_VAR",
    "Span",
    "Tracer",
    "NoopTracer",
    "NOOP_TRACER",
    "current_tracer",
    "set_tracer",
    "set_thread_tracer",
    "use_tracer",
    "trace_context",
    "task_tracer",
    "chrome_trace_events",
    "write_chrome_trace",
]

#: Environment variable naming a default trace output path — setting it
#: makes ``QueryJob.run`` record and ``JoinSession.close`` write the
#: file, exactly like ``RunConfig.trace_path`` / CLI ``--trace``.
TRACE_ENV_VAR = "REPRO_TRACE"

_HOSTNAME = socket.gethostname()


@dataclass
class Span:
    """One named wall-clock interval with its origin coordinates.

    ``ts`` is seconds since the Unix epoch (``time.time`` at entry);
    ``dur`` is measured with ``perf_counter`` so it never goes negative
    on clock steps.  ``args`` carries span-specific counters (bytes,
    task ids, worker numbers) straight into the Chrome trace ``args``
    box.
    """

    name: str
    cat: str = "repro"
    ts: float = 0.0
    dur: float = 0.0
    pid: int = 0
    tid: int = 0
    host: str = ""
    args: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """A JSON/pickle-friendly payload dict (the wire format)."""
        return {"name": self.name, "cat": self.cat, "ts": self.ts,
                "dur": self.dur, "pid": self.pid, "tid": self.tid,
                "host": self.host, "args": dict(self.args)}

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        return cls(name=str(payload.get("name", "?")),
                   cat=str(payload.get("cat", "repro")),
                   ts=float(payload.get("ts", 0.0)),
                   dur=float(payload.get("dur", 0.0)),
                   pid=int(payload.get("pid", 0)),
                   tid=int(payload.get("tid", 0)),
                   host=str(payload.get("host", "")),
                   args=dict(payload.get("args") or {}))


class Tracer:
    """Collects spans; thread-safe; exports Chrome trace-event JSON."""

    enabled = True

    def __init__(self, host: str | None = None,
                 query_id: str | None = None):
        self.host = host or _HOSTNAME
        #: Pid this tracer was created in.  task_tracer uses it to tell
        #: "same process, record directly" from "forked child holding a
        #: dead copy of the coordinator's tracer" (fork inherits the
        #: module global; spans recorded there would never ship home).
        self.pid = os.getpid()
        #: While set, every recorded span is stamped with
        #: ``args["query_id"]`` — the per-query attribution tag.
        #: ``QueryJob.run`` sets/restores it around each run, and
        #: :func:`trace_context` propagates it so pool children and
        #: remote agents stamp the spans they ship home too.
        self.query_id = query_id
        self.spans: list[Span] = []
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str, cat: str = "repro", **args):
        """Time a ``with`` block into one span (exceptions still count)."""
        ts = time.time()
        start = time.perf_counter()
        try:
            yield self
        except BaseException as exc:
            args = dict(args, error=type(exc).__name__)
            raise
        finally:
            self.add_span(name, ts, time.perf_counter() - start,
                          cat=cat, **args)

    def add_span(self, name: str, ts: float, dur: float,
                 cat: str = "repro", pid: int | None = None,
                 tid: int | None = None, host: str | None = None,
                 **args) -> Span:
        """Append one pre-timed span (synthesized or replayed)."""
        if self.query_id is not None and "query_id" not in args:
            args["query_id"] = self.query_id
        span = Span(name=name, cat=cat, ts=float(ts),
                    dur=max(0.0, float(dur)),
                    pid=os.getpid() if pid is None else int(pid),
                    tid=(threading.get_ident() & 0x7FFFFFFF)
                    if tid is None else int(tid),
                    host=self.host if host is None else str(host),
                    args=args)
        with self._lock:
            self.spans.append(span)
        return span

    # -- merge / export ------------------------------------------------------

    def mark(self) -> int:
        """Current span count — pass to ``export_payload(since=...)``."""
        with self._lock:
            return len(self.spans)

    def merge_payload(self, payload, host: str | None = None) -> int:
        """Fold worker/agent span dicts in; returns how many merged.

        ``host`` fills only *missing* host tags (a worker that already
        stamped its hostname keeps it).
        """
        merged = []
        for item in payload or ():
            span = item if isinstance(item, Span) else Span.from_dict(item)
            if not span.host and host:
                span.host = host
            merged.append(span)
        if merged:
            with self._lock:
                self.spans.extend(merged)
        return len(merged)

    def export_payload(self, since: int = 0) -> list[dict]:
        """Span dicts recorded at/after index ``since`` (wire format)."""
        with self._lock:
            spans = self.spans[since:]
        return [s.as_dict() for s in spans]

    def chrome_trace(self) -> dict:
        """The full Chrome trace-event document (Perfetto-loadable)."""
        with self._lock:
            spans = list(self.spans)
        return {"traceEvents": chrome_trace_events(spans),
                "displayTimeUnit": "ms"}

    def write(self, path: str) -> int:
        """Write the Chrome trace JSON to ``path``; returns span count."""
        doc = self.chrome_trace()
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return sum(1 for e in doc["traceEvents"] if e.get("ph") == "X")

    def __len__(self) -> int:
        with self._lock:
            return len(self.spans)

    def __repr__(self) -> str:
        return f"Tracer(host={self.host!r}, spans={len(self)})"


class NoopTracer:
    """The disabled tracer: a singleton that is its own context manager.

    ``NOOP_TRACER.span(...) is NOOP_TRACER`` — entering it allocates
    nothing, so hot paths may call ``current_tracer().span(...)``
    unconditionally.  Every mutating method is a no-op; every query
    reports emptiness.
    """

    enabled = False
    query_id = None
    __slots__ = ()

    # span() must swallow arbitrary positional/keyword args at zero cost.
    def span(self, *_args, **_kwargs) -> "NoopTracer":
        return self

    def __enter__(self) -> "NoopTracer":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def add_span(self, *_args, **_kwargs) -> None:
        return None

    def mark(self) -> int:
        return 0

    def merge_payload(self, _payload, host: str | None = None) -> int:
        return 0

    def export_payload(self, since: int = 0) -> list:
        return []

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "NOOP_TRACER"


#: The process-wide disabled tracer (identity-comparable in tests).
NOOP_TRACER = NoopTracer()

_global_tracer: "Tracer | NoopTracer" = NOOP_TRACER
_tls = threading.local()


def current_tracer() -> "Tracer | NoopTracer":
    """The active tracer: thread-local first, then the process global."""
    tracer = getattr(_tls, "tracer", None)
    if tracer is not None:
        return tracer
    return _global_tracer


def set_tracer(tracer: "Tracer | NoopTracer | None"
               ) -> "Tracer | NoopTracer":
    """Install ``tracer`` process-globally; returns the previous one.

    ``None`` restores :data:`NOOP_TRACER`.  This is the coordinator-side
    install: routing threads, streamed generators and pool threads all
    see it.  Worker-side code (agents running concurrent tasks in one
    process) must use :func:`set_thread_tracer` instead.
    """
    global _global_tracer
    previous = _global_tracer
    _global_tracer = tracer if tracer is not None else NOOP_TRACER
    return previous


def set_thread_tracer(tracer: "Tracer | NoopTracer | None"
                      ) -> "Tracer | NoopTracer | None":
    """Install ``tracer`` for *this thread only*; returns the previous.

    Thread-local wins over the global in :func:`current_tracer`, so a
    worker thread can record into its own task tracer while the process
    global stays untouched (or NOOP).
    """
    previous = getattr(_tls, "tracer", None)
    _tls.tracer = tracer
    return previous


@contextmanager
def use_tracer(tracer: "Tracer | NoopTracer"):
    """Process-global install for a ``with`` block (coordinator-side)."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def trace_context() -> dict | None:
    """The propagation context tasks carry to workers (None = off).

    Minted into ``WorkerTask.trace`` by whoever mints the task (the
    scheduler, an engine) and by the remote executor into TASK frame
    meta.  Workers
    treat any truthy context as "record and ship spans back".
    """
    tracer = current_tracer()
    if not tracer.enabled:
        return None
    ctx = {"enabled": True, "origin": tracer.host}
    if tracer.query_id is not None:
        ctx["query_id"] = tracer.query_id
    return ctx


def task_tracer(ctx) -> "Tracer | NoopTracer":
    """Worker-side tracer for a task's trace context.

    Returns :data:`NOOP_TRACER` when ``ctx`` is falsy — the no-tracing
    fast path — or when a recording tracer created *in this process* is
    already current (the serial/threads backends and ``local`` slots
    share the coordinator's process: recording into the current tracer
    directly avoids double-shipping spans through the task result).
    Any other worker builds a fresh local tracer to ship spans home —
    including a *forked* pool child, whose inherited copy of the
    coordinator's global tracer looks current but records into memory
    the coordinator will never see (hence the pid check).
    """
    if not ctx:
        return NOOP_TRACER
    current = current_tracer()
    if current.enabled and getattr(current, "pid", None) == os.getpid():
        return NOOP_TRACER
    return Tracer(query_id=ctx.get("query_id")
                  if isinstance(ctx, dict) else None)


def chrome_trace_events(spans) -> list[dict]:
    """Chrome trace-event dicts for ``spans``, sorted by timestamp.

    Each span becomes one complete event (``"ph": "X"``, microsecond
    ``ts``/``dur``); per-(host, pid) metadata events name the processes
    so Perfetto's track labels read ``host (pid)`` instead of bare
    numbers.  Events are sorted so ``ts`` is monotonically
    non-decreasing — the property CI validates.
    """
    events: list[dict] = []
    named: set[tuple[str, int]] = set()
    for span in sorted(spans, key=lambda s: s.ts):
        key = (span.host, span.pid)
        if key not in named:
            named.add(key)
            events.append({"ph": "M", "name": "process_name",
                           "pid": span.pid, "tid": 0,
                           "args": {"name": f"{span.host} "
                                            f"(pid {span.pid})"}})
        args = dict(span.args)
        if span.host:
            args.setdefault("host", span.host)
        events.append({"ph": "X", "name": span.name, "cat": span.cat,
                       "ts": span.ts * 1e6, "dur": span.dur * 1e6,
                       "pid": span.pid, "tid": span.tid, "args": args})
    return events


def write_chrome_trace(path: str, spans) -> int:
    """Write a Chrome trace file from raw spans; returns event count."""
    events = chrome_trace_events(spans)
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
    return sum(1 for e in events if e.get("ph") == "X")
