"""repro — reproduction of "Fast Distributed Complex Join Processing" (ADJ).

Public API highlights
---------------------
- :mod:`repro.api` — the front door: :class:`JoinSession`, lazy
  :class:`QueryJob`, typed :class:`RunConfig`/:class:`EngineOptions`.
- :mod:`repro.engines` — the six distributed engines and their
  string-keyed :mod:`registry <repro.engines.registry>`.
- :mod:`repro.data` — relations, tries, databases, synthetic datasets.
- :mod:`repro.query` — join queries, hypergraphs, the paper's Q1-Q11.
- :mod:`repro.wcoj` — Leapfrog triejoin and sequential baselines.
- :mod:`repro.ghd` — generalized hypertree decompositions.
- :mod:`repro.distributed` — cluster simulator and HCube shuffles.
- :mod:`repro.core` — the ADJ optimizer, cost model and sampler.
- :mod:`repro.runtime` — real parallel execution backends and telemetry.
- :mod:`repro.net` — the multi-machine data plane: TCP block store,
  worker agents (``python -m repro serve``) and the ``remote`` backend.
- :mod:`repro.service` — the multi-tenant :class:`QueryService` on a
  shared warm :class:`ClusterContext` (``python -m repro serve-sql``).
- :mod:`repro.workloads` — paper test-case construction.

Quickstart::

    from repro import JoinSession

    with JoinSession(workers=8) as session:
        report = session.query("lj", "Q1").compare()
        print(report.describe())
"""

from .api import (
    ClusterContext,
    ComparisonReport,
    EngineOptions,
    ExplainReport,
    JoinSession,
    QueryJob,
    RunConfig,
)
from .core import CardinalityEstimator, Optimizer, optimize_plan
from .data import Database, Relation, Trie
from .distributed import Cluster, CostModelParams
from .engines import (
    ADJ,
    BigJoin,
    HCubeJ,
    HCubeJCache,
    SparkSQLJoin,
    YannakakisJoin,
    registry,
)
from .ghd import optimal_hypertree
from .obs import METRICS, Tracer, configure_logging, get_logger
from .query import Atom, JoinQuery, paper_query, parse_query
from .service import QueryService
from .runtime import (
    Executor,
    ProcessExecutor,
    RuntimeTelemetry,
    SerialExecutor,
    ThreadExecutor,
    create_executor,
)
from .wcoj import agm_bound, leapfrog_join
from .workloads import graph_database_for, make_testcase

__version__ = "0.2.0"

#: repro.net names resolved on first access — `import repro` must not
#: pull in the networking package (matching the lazy `tcp`/`remote`
#: registrations in the transport and backend registries).
_LAZY_NET = ("RemoteExecutor", "TcpTransport", "WorkerAgent")


def __getattr__(name: str):
    if name in _LAZY_NET:
        from . import net
        return getattr(net, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "JoinSession",
    "ClusterContext",
    "QueryService",
    "QueryJob",
    "ExplainReport",
    "ComparisonReport",
    "RunConfig",
    "EngineOptions",
    "registry",
    "CardinalityEstimator",
    "Optimizer",
    "optimize_plan",
    "Database",
    "Relation",
    "Trie",
    "Cluster",
    "CostModelParams",
    "ADJ",
    "BigJoin",
    "HCubeJ",
    "HCubeJCache",
    "SparkSQLJoin",
    "YannakakisJoin",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "RemoteExecutor",
    "TcpTransport",
    "WorkerAgent",
    "RuntimeTelemetry",
    "Tracer",
    "METRICS",
    "get_logger",
    "configure_logging",
    "create_executor",
    "optimal_hypertree",
    "Atom",
    "JoinQuery",
    "paper_query",
    "parse_query",
    "agm_bound",
    "leapfrog_join",
    "graph_database_for",
    "make_testcase",
    "__version__",
]
