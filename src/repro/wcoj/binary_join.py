"""Pairwise (binary) join plans: the greedy left-deep planner and the
one left-deep step loop.

:func:`greedy_left_deep_plan` orders the atoms System-R style;
:func:`run_left_deep` runs that order as a chain of
:class:`~repro.data.relation.JoinProbe` steps, showing every step's
output size to a callback before it is gathered (the quantity that
explodes on cyclic queries and produces the Fig. 1(a)/Fig. 12
failures).  The ``binary`` kernel (:mod:`repro.kernels.binary`) is the
loop's one caller; SparkSQL takes its step order from the planner and
runs each keyed step with that kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..data.database import Database
from ..data.relation import JoinProbe, Relation
from ..errors import PlanError
from ..query.query import JoinQuery

__all__ = ["BinaryPlan", "greedy_left_deep_plan",
           "greedy_plan_with_estimates", "run_left_deep"]


@dataclass(frozen=True)
class BinaryPlan:
    """A left-deep pairwise plan: atoms joined in ``atom_order``."""

    atom_order: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.atom_order)) != len(self.atom_order):
            raise PlanError("plan repeats an atom")


def _estimate_join_size(left_size: int, left_attrs: set[str],
                        rel: Relation, atom_attrs: tuple[str, ...]) -> float:
    """Textbook independence estimate of |T >< R|.

    |T||R| / prod over join attrs of max distinct count — the classic
    System-R style formula; used only to *order* atoms greedily, so
    coarse is fine.
    """
    common = [a for a in atom_attrs if a in left_attrs]
    est = float(left_size) * float(len(rel))
    for attr in common:
        est /= max(1, rel.distinct_count(attr))
    return est


def _greedy_plan(query: JoinQuery, db: Database, every_estimate: bool
                 ) -> tuple[BinaryPlan, list[float]]:
    """Greedy left-deep order: the smallest relation first, then
    repeatedly the connected atom with the smallest estimated join.

    A step whose candidate pool holds one atom is forced.  Unless
    ``every_estimate`` is set its estimate (one cold ``np.unique`` per
    join column) is deferred, and computed only if a later step has a
    real choice to make and therefore needs the running size.
    """
    sizes = [len(db[a.relation]) for a in query.atoms]
    start = int(np.argmin(sizes))
    chosen = [start]
    estimates: list[float] = []
    bound_attrs = set(query.atoms[start].attributes)
    current_size = sizes[start]
    deferred: list[tuple[int, frozenset[str]]] = []

    def estimate(i: int, left_size: int, left_attrs) -> float:
        atom = query.atoms[i]
        rel = db[atom.relation].rename(
            dict(zip(db[atom.relation].attributes, atom.attributes)))
        return _estimate_join_size(left_size, left_attrs, rel,
                                   atom.attributes)

    remaining = set(range(query.num_atoms)) - {start}
    while remaining:
        connected = [i for i in remaining
                     if bound_attrs & set(query.atoms[i].attributes)]
        pool = connected or sorted(remaining)  # cartesian only if forced
        if len(pool) == 1 and not every_estimate:
            best = pool[0]
            deferred.append((best, frozenset(bound_attrs)))
        else:
            for forced, attrs in deferred:
                current_size = max(
                    1, int(estimate(forced, current_size, attrs)))
            deferred.clear()
            best, best_est = None, None
            for i in pool:
                est = estimate(i, current_size, bound_attrs)
                if best_est is None or est < best_est:
                    best, best_est = i, est
            estimates.append(float(best_est))
            current_size = max(1, int(best_est))
        chosen.append(best)
        remaining.discard(best)
        bound_attrs |= set(query.atoms[best].attributes)
    return BinaryPlan(tuple(chosen)), estimates


def greedy_plan_with_estimates(query: JoinQuery, db: Database
                               ) -> tuple[BinaryPlan, list[float]]:
    """Greedy left-deep plan plus the estimated size of each intermediate.

    The estimates (one per join step, i.e. ``len(atoms) - 1`` entries)
    are what the adaptive kernel chooser compares against the input
    sizes to predict binary-join blowup.
    """
    return _greedy_plan(query, db, every_estimate=True)


def greedy_left_deep_plan(query: JoinQuery, db: Database) -> BinaryPlan:
    """Pick a left-deep atom order: start from the smallest relation, then
    repeatedly add the connected atom with the smallest estimated join.

    The same plan as :func:`greedy_plan_with_estimates`, without paying
    for the estimates of forced steps.
    """
    return _greedy_plan(query, db, every_estimate=False)[0]


def _atom_relation(query: JoinQuery, db: Database, i: int) -> Relation:
    """Atom ``i``'s relation under the atom's attribute names."""
    atom = query.atoms[i]
    rel = db[atom.relation]
    if rel.arity != atom.arity:
        raise PlanError(
            f"atom {atom} arity mismatch with relation {rel.name}")
    return rel.rename(dict(zip(rel.attributes, atom.attributes)),
                      name=f"{atom.relation}#{i}")


def run_left_deep(query: JoinQuery, db: Database, plan: BinaryPlan,
                  on_step: Callable[[JoinProbe], None], *,
                  materialize: bool = True
                  ) -> tuple[Relation | None, int]:
    """The one left-deep step loop behind every binary plan.

    Each step is a :class:`JoinProbe` of the running result with the
    next atom, under set semantics (inputs are deduplicated, matching
    the trie's view of them).  ``on_step`` sees every probe *before* its
    output is gathered — the place to account work and to raise
    :class:`BudgetExceeded` without allocating an over-budget
    intermediate.  Returns ``(relation, count)``: the result as a
    lexsorted set over the attributes in join order, or ``None`` with
    ``materialize=False`` — the last step is then never gathered.
    """
    if set(plan.atom_order) != set(range(query.num_atoms)):
        raise PlanError(
            f"plan {plan.atom_order} does not cover all "
            f"{query.num_atoms} atoms")
    current = _atom_relation(query, db, plan.atom_order[0]).sorted_set()
    steps = plan.atom_order[1:]
    for step, i in enumerate(steps, start=1):
        probe = JoinProbe(current, _atom_relation(query, db, i))
        on_step(probe)
        if step == len(steps) and not materialize:
            return None, probe.size
        current = probe.rows()
    return (current if materialize else None), len(current)
