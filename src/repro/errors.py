"""Shared exception types for the repro library.

Keeping the hierarchy in one module lets callers catch ``ReproError`` for
any library-level failure while engines and benches discriminate on the
specific subclasses (e.g. the paper's OOM / 12-hour-timeout failure modes
map onto :class:`OutOfMemory` and :class:`BudgetExceeded`).
"""

from __future__ import annotations

from functools import partial


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class SchemaError(ReproError):
    """A relation or query was constructed with an inconsistent schema."""


class QueryParseError(ReproError):
    """The textual query could not be parsed."""


class ConfigError(ReproError, ValueError):
    """An environment variable or configuration value is invalid.

    Subclasses :class:`ValueError` as well so callers that predate the
    dedicated type (``except ValueError``) keep working.
    """


class PlanError(ReproError):
    """A query plan is invalid (bad traversal order, uncovered relation...)."""


class DecompositionError(ReproError):
    """No valid hypertree decomposition could be constructed."""


class EstimationError(ReproError):
    """The sampling-based cardinality estimator could not produce a value."""


class OutOfMemory(ReproError):
    """A simulated server exceeded its memory budget.

    Mirrors the paper's OOM failures (Sec. VII-C: "If an approach failed in
    a test-case due to insufficient memory, the figure will show a space
    instead of a bar").
    """

    def __init__(self, server_id: int, used: int, budget: int):
        self.server_id = server_id
        self.used = used
        self.budget = budget
        super().__init__(
            f"server {server_id} exceeded memory budget: used {used} tuples, "
            f"budget {budget} tuples"
        )

    # Exceptions pickle as ``cls(*self.args)`` — the formatted message —
    # which does not fit a structured constructor; each such class
    # rebuilds itself from its fields so it survives the trip out of a
    # pool child or a remote agent.
    def __reduce__(self):
        return type(self), (self.server_id, self.used, self.budget)


class WorkerCrashed(ReproError):
    """A runtime worker task died unexpectedly.

    Raised by :mod:`repro.runtime` when a task on a thread/process backend
    fails for any reason other than the two modelled failure modes
    (:class:`OutOfMemory`, :class:`BudgetExceeded`) — e.g. the worker
    process was killed, or the task function raised.  Engines surface it
    as a clean failure instead of hanging or propagating backend
    internals.
    """

    def __init__(self, worker: int, reason: str):
        self.worker = worker
        self.reason = reason
        super().__init__(f"worker {worker} crashed: {reason}")

    def __reduce__(self):
        return type(self), (self.worker, self.reason)


class NetError(ReproError):
    """A :mod:`repro.net` wire-protocol operation failed.

    Raised for truncated/oversized frames, protocol-version mismatches,
    and error replies from a block store or worker agent.  Plain socket
    failures (``OSError``) are *not* converted — callers that need to
    distinguish "the peer said no" from "the peer is gone" can.
    """


class BlockNotFound(NetError):
    """A block-store GET or FREE named a block the store does not hold.

    Covers both never-published ids and double-frees — the store refuses
    rather than silently ignoring either, so lifetime bugs surface at
    the call site instead of as wrong answers later.
    """

    def __init__(self, block: str, detail: str = ""):
        self.block = block
        self.detail = detail
        msg = f"block {block!r} is not in the store"
        super().__init__(f"{msg} ({detail})" if detail else msg)

    def __reduce__(self):
        return type(self), (self.block, self.detail)


class AdmissionError(ReproError):
    """The query service refused to admit a request (the 429 analogue).

    ``reason`` says why: ``"capacity"`` (the bounded admission queue is
    full — back off and retry) or ``"budget"`` (the tenant's work
    budget is exhausted under the ``reject`` policy).  Admission
    rejections are *backpressure*, not failures: the service and every
    other tenant's queries keep running.
    """

    def __init__(self, message: str, *, reason: str = "capacity",
                 tenant: str | None = None):
        self.reason = reason
        self.tenant = tenant
        super().__init__(message)

    def __reduce__(self):
        return (partial(type(self), reason=self.reason, tenant=self.tenant),
                self.args)


class BudgetExceeded(ReproError):
    """An engine exceeded its work budget.

    Mirrors the paper's 12-hour timeout ("we show a bar reaching the
    frame-top"); our budget is counted in deterministic work units instead
    of wall-clock hours.
    """

    def __init__(self, work_done: int, budget: int):
        self.work_done = work_done
        self.budget = budget
        super().__init__(
            f"work budget exceeded: {work_done} work units > budget {budget}"
        )

    def __reduce__(self):
        return type(self), (self.work_done, self.budget)
