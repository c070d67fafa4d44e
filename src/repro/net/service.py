"""The query service's wire front door: QUERY/CANCEL/RESULT frames.

``python -m repro serve-sql --port N`` stands up a :class:`QueryServer`
— a :class:`~repro.net.protocol.FrameServer` wrapping one warm
:class:`~repro.service.QueryService` — and ``python -m repro query
HOST:PORT "Q(a,b,c) :- R(a,b), S(b,c)"`` (or the bare-address REPL)
drives it through :class:`ServiceClient`.

One QUERY frame runs one query.  The request meta carries either a
paper-catalog name (``{"query": "Q1", "dataset": "wb"}``) or datalog
text, plus engine/tenant/cache knobs; the RESULT reply meta carries the
count, the per-query ``data_plane`` stats and the cache disposition —
counts only, so no payload bytes.  Concurrency comes from connections:
the server handles each connection on its own thread (the
:class:`FrameServer` model), and the service underneath bounds actual
execution at ``max_concurrent`` with ``queue_depth`` more waiting.

Backpressure on the wire: an :class:`~repro.errors.AdmissionError`
becomes an ERR frame with ``error="admission-rejected"`` and
``status=429`` — :class:`ServiceClient` converts it back into an
:class:`AdmissionError`, so callers see the same exception locally and
remotely.  CANCEL is best-effort: it can only stop a ticket that is
still waiting for a driver slot (meta ``{"cancelled": bool}`` says
whether it won the race).

The server also answers HELLO/PING/STAT/EXPO/BYE like every other
repro.net service (the shared control plane of
:class:`~repro.net.protocol.FrameServer`), so a metrics scraper works
unchanged against a query server; ``--expo-port`` additionally serves
the Prometheus text over HTTP.

Same trust model as the rest of repro.net: bind to loopback or a
private interface (queries are parsed, never unpickled, but the
service is still a cluster-internal tool, not a hardened endpoint).
"""

from __future__ import annotations

import itertools
import socket
import threading
from concurrent.futures import CancelledError, Future

from ..core.optimizer import PlanCache
from ..data.datasets import load_dataset
from ..engines.base import EngineResult
from ..errors import AdmissionError, ConfigError, NetError
from ..obs.log import get_logger, kv
from ..obs.metrics import METRICS
from ..query.catalog import PAPER_QUERIES
from ..query.parser import parse_query
from ..service import QueryService
from ..workloads.generators import graph_database_for, make_testcase
from .protocol import (
    OP_CANCEL,
    OP_ERR,
    OP_OK,
    OP_QUERY,
    OP_RESULT,
    FrameClient,
    FrameServer,
    send_frame,
)

__all__ = ["QueryServer", "ServiceClient", "result_to_meta"]

log = get_logger("repro.net.service")

#: Dataset scale used when a QUERY frame names no scale — matches the
#: CLI's interactive default so ad-hoc queries finish in seconds.
DEFAULT_WIRE_SCALE = 2e-5

#: Test cases a :class:`QueryServer` keeps.  A mix of hot cases (the
#: benchmark's ``service-mix`` sends 8) must fit, or every request would
#: rebuild its ``Database`` and hash its rows again.
CASE_CAPACITY = 16


def result_to_meta(result: EngineResult) -> dict:
    """The JSON-safe RESULT meta for one finished run (counts only)."""
    b = result.breakdown
    meta = {
        "ok": result.ok,
        "engine": result.engine,
        "query": result.query,
        "count": result.count,
        "failure": result.failure,
        "rounds": result.rounds,
        "seconds": b.total,
        "breakdown": {"optimization": b.optimization,
                      "precompute": b.precompute,
                      "communication": b.communication,
                      "computation": b.computation},
        "cached": result.extra.get("result_cache") == "hit",
    }
    if result.data_plane is not None:
        meta["data_plane"] = dict(result.data_plane)
    if result.measured_seconds is not None:
        meta["measured_seconds"] = result.measured_seconds
    for key in ("query_id", "leapfrog_work"):
        if key in result.extra:
            meta[key] = result.extra[key]
    return meta


def _build_case(text: str, dataset: str, scale: float,
                seed: int | None) -> tuple:
    if text.upper() in PAPER_QUERIES:
        return make_testcase(dataset, text.upper(), scale=scale, seed=seed)
    query = parse_query(text)
    return query, graph_database_for(
        query, load_dataset(dataset, scale=scale, seed=seed))


class QueryServer(FrameServer):
    """Serves QUERY/CANCEL (plus the shared control plane) over one warm
    :class:`~repro.service.QueryService`.

    Construct with an existing ``service`` to share it, or let the
    server own a fresh one built from ``config`` and
    ``service_kwargs`` (tenant budgets, concurrency bounds...).  The
    last :data:`CASE_CAPACITY` test cases are kept per ``(query,
    dataset, scale, seed)``, so a repeated QUERY neither regenerates its
    data nor re-hashes its rows; a case built again keys the caches the
    same way, because their keys are content digests.
    """

    service_name = "query-service"

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 service: QueryService | None = None, config=None,
                 expo_port: int | None = None, **service_kwargs):
        super().__init__(host, port, expo_port)
        self._owns_service = service is None
        self.service = service or QueryService(config=config,
                                               **service_kwargs)
        self._cases = PlanCache(CASE_CAPACITY, "service.case_cache")
        self._tickets: "dict[str, Future]" = {}
        self._ticket_seq = itertools.count()
        self._tickets_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def stop(self) -> None:
        was_running = self.running
        super().stop()
        if self._owns_service:
            self.service.close()
        if was_running:
            log.info("query server stopped %s", kv(port=self.port))

    def gauges(self) -> dict:
        stats = self.service.stats()
        return {"service_active": stats["active"],
                "service_queued": stats["queued"],
                "service_max_concurrent": stats["max_concurrent"]}

    def hello_meta(self) -> dict:
        return {"max_concurrent": self.service.max_concurrent,
                "engines": "registry"}

    def stat_meta(self, meta: dict) -> dict:
        return dict(self.service.stats(), metrics=METRICS.snapshot())

    # -- query resolution ----------------------------------------------------

    def _resolve_case(self, meta: dict) -> tuple:
        """(query, db) for a QUERY frame, from the case cache."""
        text = meta.get("query")
        if not text or not isinstance(text, str):
            raise ConfigError("QUERY meta needs a 'query' string (a "
                              "paper query name or datalog text)")
        dataset = meta.get("dataset", "wb")
        scale = meta.get("scale")
        if scale is None:
            scale = DEFAULT_WIRE_SCALE
        seed = meta.get("seed")
        return self._cases.lookup((text, dataset, scale, seed), lambda:
                                  _build_case(text, dataset, scale, seed))[0]

    # -- frame handling ------------------------------------------------------

    def _handle_query(self, sock: socket.socket, meta: dict) -> None:
        ticket = str(meta.get("id") or f"t{next(self._ticket_seq)}")
        try:
            query, db = self._resolve_case(meta)
            future = self.service.submit(
                query, db,
                engine=meta.get("engine", "adj"),
                tenant=meta.get("tenant", "default"),
                use_cache=bool(meta.get("use_cache", True)),
                profile=bool(meta.get("profile", False)))
            with self._tickets_lock:
                self._tickets[ticket] = future
            try:
                result = future.result()
            finally:
                with self._tickets_lock:
                    self._tickets.pop(ticket, None)
        except AdmissionError as exc:
            # Refused at admission, or (queue/no-window budget
            # policies) by the driver thread after it.
            METRICS.counter("service.wire_rejected").inc()
            send_frame(sock, OP_ERR, {
                "error": "admission-rejected", "message": str(exc),
                "reason": exc.reason, "tenant": exc.tenant,
                "status": 429, "id": ticket})
            return
        except CancelledError:
            send_frame(sock, OP_ERR, {"error": "cancelled",
                                      "message": f"ticket {ticket} was "
                                                 f"cancelled while "
                                                 f"queued",
                                      "id": ticket})
            return
        reply = result_to_meta(result)
        reply["id"] = ticket
        remaining = self.service.tenant_remaining(
            meta.get("tenant", "default"))
        if remaining is not None:
            reply["tenant_remaining"] = remaining
        send_frame(sock, OP_RESULT, reply)

    def handle(self, sock: socket.socket, op: int, meta: dict,
               payload: bytes) -> bool:
        if op == OP_QUERY:
            self._handle_query(sock, meta)
        elif op == OP_CANCEL:
            ticket = str(meta.get("id", ""))
            with self._tickets_lock:
                future = self._tickets.get(ticket)
            cancelled = future.cancel() if future is not None else False
            if cancelled:
                METRICS.counter("service.wire_cancelled").inc()
            send_frame(sock, OP_OK, {"id": ticket,
                                     "cancelled": cancelled})
        else:
            return False
        return True


class ServiceClient:
    """One connection to a :class:`QueryServer`.

    :meth:`run` is synchronous — QUERY out, RESULT back — so drive
    concurrency with one client per thread (connections are cheap;
    the server bounds actual execution).  Admission rejections raise
    :class:`~repro.errors.AdmissionError` exactly like the in-process
    service; every other ERR raises :class:`~repro.errors.NetError`.
    """

    def __init__(self, host: str, port: int,
                 timeout: float | None = 10.0):
        self.host = host
        self.port = port
        self._client = FrameClient(host, port, timeout)
        self.hello = self._client.hello("query-service")
        # Queries may legitimately run for minutes; only the dial and
        # handshake above are bounded.
        self._client.settimeout(None)

    def run(self, query: str, dataset: str = "wb", *,
            engine: str = "adj", tenant: str = "default",
            scale: float | None = None, seed: int | None = None,
            use_cache: bool = True, profile: bool = False,
            ticket: str | None = None) -> dict:
        """Run one query (paper name or datalog text); RESULT meta back."""
        meta = {"query": query, "dataset": dataset, "engine": engine,
                "tenant": tenant, "use_cache": use_cache,
                "profile": profile}
        if scale is not None:
            meta["scale"] = scale
        if seed is not None:
            meta["seed"] = seed
        if ticket is not None:
            meta["id"] = ticket
        try:
            op, reply, _payload = self._client.request(OP_QUERY, meta)
        except NetError as exc:
            err = getattr(exc, "meta", None) or {}
            if err.get("error") == "admission-rejected":
                raise AdmissionError(
                    err.get("message", str(exc)),
                    reason=err.get("reason", "capacity"),
                    tenant=err.get("tenant")) from None
            raise
        if op != OP_RESULT:
            raise NetError(f"expected RESULT reply, got opcode {op}")
        return reply

    def cancel(self, ticket: str, timeout: float | None = 10.0) -> bool:
        """Best-effort cancel of a queued ticket.

        Uses its own short-lived connection, so it works while this
        client (or any other) is blocked inside :meth:`run`.
        """
        with FrameClient(self.host, self.port, timeout) as side:
            _op, meta, _payload = side.request(OP_CANCEL, {"id": ticket})
        return bool(meta.get("cancelled"))

    def stats(self) -> dict:
        """The server's live :meth:`QueryService.stats` snapshot."""
        return self._client.stat()

    def expo(self) -> str:
        """One Prometheus-text scrape over the frame protocol."""
        return self._client.expo()

    def close(self) -> None:
        self._client.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
