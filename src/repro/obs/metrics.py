"""Process-wide named metrics: counters, gauges, histograms.

One flat registry (:data:`METRICS`) unifies the numbers the runtime
already measures but keeps in per-object silos — ``TransportStats``
epoch counters, ``EngineResult.data_plane``, per-task durations, budget
consumption, heartbeat RTTs — behind get-or-create named instruments:

- :class:`Counter` — monotonically increasing totals
  (``transport.published_bytes``, ``runtime.tasks_completed``).
- :class:`Gauge` — last-written values (``net.heartbeat_rtt_seconds.*``).
- :class:`Histogram` — count/sum/min/max plus p50/p95/p99 quantiles
  from a bounded reservoir (``runtime.task_seconds``).

``JoinSession.metrics()`` surfaces :meth:`MetricsRegistry.snapshot`;
the agent protocol's STAT/EXPO opcodes serve a remote host's snapshot
(see ``repro.net.agent``).  Metrics are cumulative across epochs and
sessions in one process; for per-run numbers use a **labeled window**
(:meth:`MetricsRegistry.scope` — what ``QueryJob.run(profile=True)``
does per query) or diff two snapshots with :func:`snapshot_delta`
(``session.metrics(delta_from=...)``) — manual ``reset()`` between runs
is no longer the supported pattern outside test fixtures.  Names are
dotted lowercase, documented in docs/observability.md.
"""

from __future__ import annotations

import random
import threading
import zlib

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "MetricsScope", "snapshot_delta", "METRICS"]


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "_value", "_lock", "_sinks")

    def __init__(self, name: str, sinks=()):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()
        #: Shared, registry-owned list of active :class:`MetricsScope`
        #: windows; empty on the hot path (one truthiness check).
        self._sinks = sinks

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            # repro: lint-ignore[error-taxonomy] caller misuse of the Counter contract, not a stack rejection; stdlib ValueError is the idiom
            raise ValueError(f"counter {self.name}: negative increment")
        with self._lock:
            self._value += amount
        for sink in self._sinks:
            sink._observe_counter(self.name, amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> float:
        value = self.value
        return int(value) if value == int(value) else value


class Gauge:
    """A last-written value (set wins; inc/dec for running levels)."""

    __slots__ = ("name", "_value", "_lock", "_sinks")

    def __init__(self, name: str, sinks=()):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()
        self._sinks = sinks

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)
        for sink in self._sinks:
            sink._observe_gauge(self.name, float(value))

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount
            value = self._value
        for sink in self._sinks:
            sink._observe_gauge(self.name, value)

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> float:
        return self.value


#: Samples each histogram retains for quantile estimation.  Algorithm R
#: keeps a uniform sample of everything observed, so p50/p95/p99 stay
#: meaningful at any count while memory stays O(1) — the property that
#: lets the scheduler observe every task duration of a million-task run.
RESERVOIR_SIZE = 512


class Histogram:
    """Count/sum/min/max plus reservoir quantiles of observed samples.

    The summary fields are exact; the p50/p95/p99 quantiles come from a
    bounded uniform reservoir (:data:`RESERVOIR_SIZE` samples, Vitter's
    Algorithm R seeded deterministically per name so test runs are
    reproducible).  ``snapshot()`` keeps the historical
    ``count/sum/min/max/mean`` keys — existing ``runtime.task_seconds``
    consumers are unaffected — and *adds* ``p50/p95/p99``.
    """

    __slots__ = ("name", "_count", "_sum", "_min", "_max", "_lock",
                 "_samples", "_rng", "_sinks")

    def __init__(self, name: str, sinks=()):
        self.name = name
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = threading.Lock()
        self._samples: list[float] = []
        self._rng = random.Random(zlib.crc32(name.encode()))
        self._sinks = sinks

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if len(self._samples) < RESERVOIR_SIZE:
                self._samples.append(value)
            else:
                slot = self._rng.randrange(self._count)
                if slot < RESERVOIR_SIZE:
                    self._samples[slot] = value
        for sink in self._sinks:
            sink._observe_histogram(self.name, value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (0..1) estimated from the reservoir."""
        with self._lock:
            samples = sorted(self._samples)
        if not samples:
            return 0.0
        index = min(len(samples) - 1,
                    max(0, int(round(q * (len(samples) - 1)))))
        return samples[index]

    def snapshot(self) -> dict:
        with self._lock:
            if self._count == 0:
                return {"count": 0, "sum": 0.0, "min": 0.0,
                        "max": 0.0, "mean": 0.0,
                        "p50": 0.0, "p95": 0.0, "p99": 0.0}
            summary = {"count": self._count, "sum": self._sum,
                       "min": self._min, "max": self._max,
                       "mean": self._sum / self._count}
            samples = sorted(self._samples)
        last = len(samples) - 1
        for key, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            summary[key] = samples[min(last, max(0, int(round(q * last))))]
        return summary


class MetricsScope:
    """A labeled window over a registry: per-query/per-phase attribution.

    While active (``with registry.scope("q0001:Q9") as window:``) every
    counter increment, gauge write and histogram observation on the
    parent registry is *also* recorded into the scope's private
    registry — so ``window.snapshot()`` is an exact delta for the
    window, including real windowed quantiles (the scope's histograms
    run their own reservoirs).  Scopes nest and overlap freely; each
    sees only what happened while it was entered.  This is what
    ``QueryJob.run(profile=True)`` uses to attribute process-cumulative
    totals to one ``query_id`` without resetting anything.
    """

    def __init__(self, parent: "MetricsRegistry", label: str):
        self.label = label
        self._parent = parent
        self._registry = MetricsRegistry()
        self._active = False

    # -- sink protocol (called by the parent's instruments) ------------------

    def _observe_counter(self, name: str, amount: float) -> None:
        self._registry.counter(name).inc(amount)

    def _observe_gauge(self, name: str, value: float) -> None:
        self._registry.gauge(name).set(value)

    def _observe_histogram(self, name: str, value: float) -> None:
        self._registry.histogram(name).observe(value)

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "MetricsScope":
        self._parent._attach(self)
        self._active = True
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._active:
            self._active = False
            self._parent._detach(self)

    def snapshot(self) -> dict:
        """The window's ``{name: value-or-summary}`` delta (sorted)."""
        return self._registry.snapshot()

    def __repr__(self) -> str:
        state = "active" if self._active else "closed"
        return f"MetricsScope({self.label!r}, {state})"


class MetricsRegistry:
    """Get-or-create instruments by name; one flat namespace.

    Re-requesting a name returns the same instrument; requesting it as a
    different kind raises — names are a contract, not a suggestion.
    """

    def __init__(self):
        self._instruments: dict[str, object] = {}
        self._lock = threading.Lock()
        #: Active labeled windows.  Every instrument holds a reference
        #: to this *same list object*, so attaching a scope makes all
        #: existing and future instruments mirror into it.
        self._scopes: list[MetricsScope] = []

    def _get(self, name: str, kind: type):
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = kind(name, self._scopes)
                self._instruments[name] = inst
            elif type(inst) is not kind:
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(inst).__name__}, requested {kind.__name__}")
            return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def scope(self, label: str) -> MetricsScope:
        """A labeled window (enter it to start mirroring; see
        :class:`MetricsScope`)."""
        return MetricsScope(self, label)

    def _attach(self, scope: MetricsScope) -> None:
        with self._lock:
            if scope not in self._scopes:
                self._scopes.append(scope)

    def _detach(self, scope: MetricsScope) -> None:
        with self._lock:
            if scope in self._scopes:
                self._scopes.remove(scope)

    def snapshot(self) -> dict:
        """A plain ``{name: value-or-summary-dict}`` mapping (sorted)."""
        with self._lock:
            instruments = sorted(self._instruments.items())
        return {name: inst.snapshot() for name, inst in instruments}

    def instruments(self) -> list[tuple[str, object]]:
        """Sorted ``(name, instrument)`` pairs — the typed view the
        Prometheus exposition (:mod:`repro.obs.expo`) renders from."""
        with self._lock:
            return sorted(self._instruments.items())

    def reset(self) -> None:
        """Drop every instrument (test-fixture hygiene only — runtime
        callers wanting per-run numbers should use :meth:`scope` or
        :func:`snapshot_delta` instead)."""
        with self._lock:
            self._instruments.clear()


def snapshot_delta(before: dict, after: dict) -> dict:
    """What changed between two :meth:`MetricsRegistry.snapshot` calls.

    Scalar instruments (counters, gauges) become numeric differences;
    histogram summaries become ``{count, sum, mean}`` of the window
    (min/max and quantiles are not differencable post-hoc — use
    :meth:`MetricsRegistry.scope` when windowed quantiles matter).
    Instruments that did not change are omitted, so an empty dict means
    "nothing happened in between".
    """
    delta: dict = {}
    for name, value in after.items():
        prev = before.get(name)
        if isinstance(value, dict):
            prev = prev if isinstance(prev, dict) else {}
            dcount = int(value.get("count", 0)) - int(prev.get("count", 0))
            if dcount:
                dsum = (float(value.get("sum", 0.0))
                        - float(prev.get("sum", 0.0)))
                delta[name] = {"count": dcount, "sum": dsum,
                               "mean": dsum / dcount}
        else:
            base = prev if isinstance(prev, (int, float)) else 0
            diff = value - base
            if diff:
                delta[name] = diff
    return delta


#: The process-wide registry every subsystem records into.
METRICS = MetricsRegistry()
