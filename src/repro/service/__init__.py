"""repro.service — the multi-tenant query service layer.

Builds the shared warm-cluster story on top of
:class:`~repro.api.context.ClusterContext`::

    from repro.service import QueryService

    with QueryService(max_concurrent=8,
                      tenant_budgets={"free": 50_000}) as svc:
        future = svc.submit("Q(a,b,c) :- R(a,b), S(b,c)", db,
                            engine="adj", tenant="free")
        result = future.result()

:class:`QueryService` provides bounded admission, per-tenant work
budgets (reject / queue / downgrade policies) and a result cache keyed,
like every cache, on the digests of the relations a query reads; plans
come from the process-wide
:data:`repro.core.optimizer.PLAN_CACHE`.  The wire front door lives in
:mod:`repro.net.service` (``repro serve-sql`` / ``repro query``); see
docs/service.md for the architecture tour.
"""

from ..api.context import ClusterContext
from ..errors import AdmissionError
from .cache import ResultCache, result_key
from .service import BUDGET_POLICIES, QueryRequest, QueryService

__all__ = [
    "QueryService",
    "QueryRequest",
    "ClusterContext",
    "AdmissionError",
    "ResultCache",
    "result_key",
    "BUDGET_POLICIES",
]
