"""The join-kernel interface and lineup (:data:`KERNELS`).

:data:`KERNELS` is a :class:`repro.registry.Registry`: the CLI
``run --kernel`` choices, :class:`repro.api.RunConfig` validation and the
worker task functions all resolve kernels through it.

A *kernel* is the physical join strategy that evaluates one localized
subquery — a worker's HCube cube, a GHD bag, or an inline query — behind
a single interface:

>>> from repro.kernels import create_kernel
>>> result = create_kernel("binary").execute(query, db, order)

Built-ins: ``wcoj`` (vectorized Leapfrog triejoin), ``binary`` (fully
vectorized left-deep hash joins) and ``adaptive`` (the default — scores
the subquery with the catalog stats and picks one of the two; see
docs/kernels.md).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, Sequence

from ..registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..data.database import Database
    from ..query.query import JoinQuery
    from ..wcoj.leapfrog import JoinResult, LeapfrogStats

__all__ = ["JoinKernel", "KERNELS", "create_kernel"]


class JoinKernel(Protocol):
    """The common interface every physical join kernel implements.

    ``execute`` mirrors :func:`repro.wcoj.leapfrog.leapfrog_join`: it
    evaluates ``query`` over ``db``, returns a
    :class:`~repro.wcoj.leapfrog.JoinResult` whose ``stats`` is reset and
    populated in place (pass a caller-owned ``stats`` to inspect partial
    work after a :class:`~repro.errors.BudgetExceeded`), and materializes
    the result relation (attributes = ``order``) only when asked.
    Kernels without an intersection cache ignore ``cache_capacity``.
    """

    key: str

    def execute(self, query: "JoinQuery", db: "Database",
                order: Sequence[str] | None = None, *,
                materialize: bool = False,
                budget: int | None = None,
                cache_capacity: int | None = None,
                stats: "LeapfrogStats | None" = None) -> "JoinResult":
        ...  # pragma: no cover - protocol


KERNELS = Registry("kernel")


def create_kernel(key: str) -> JoinKernel:
    """Instantiate the kernel registered under ``key``."""
    return KERNELS.create(key)
