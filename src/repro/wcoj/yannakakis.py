"""Yannakakis' algorithm over a GHD join tree (EmptyHeaded-style).

The paper's related work (Sec. VI) discusses EmptyHeaded [26], which
combines worst-case optimal joins with tree decompositions and
Yannakakis' algorithm [27]: materialize every bag with a WCOJ, run a
*full reducer* (two semijoin sweeps over the join tree) so no dangling
tuples remain, then join bottom-up with output-bounded intermediates.
The one implementation is the engine
(:class:`repro.engines.YannakakisJoin`), which materializes the bags as
worker tasks; this module holds the coordinator-side phases it runs
after that — the full reducer and the bottom-up joins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..data.relation import Relation
from ..errors import PlanError
from ..ghd.decomposition import Hypertree
from ..query.query import JoinQuery

__all__ = ["YannakakisStats", "full_reducer", "join_reduced"]


@dataclass
class YannakakisStats:
    """Work accounting of one Yannakakis evaluation."""

    bag_materialize_work: int = 0
    bag_sizes: list[int] = field(default_factory=list)
    semijoin_rounds: int = 0
    semijoin_tuples_scanned: int = 0
    join_intermediate_tuples: int = 0


def _root_and_order(tree: Hypertree) -> tuple[int, list[tuple[int, int]]]:
    """Pick a root and return (root, parent-child edges in BFS order)."""
    root = tree.bags[0].index
    order: list[tuple[int, int]] = []
    seen = {root}
    frontier = [root]
    while frontier:
        u = frontier.pop(0)
        for v in sorted(tree.neighbors(u)):
            if v not in seen:
                seen.add(v)
                order.append((u, v))
                frontier.append(v)
    if len(seen) != tree.num_bags:
        raise PlanError("hypertree is not connected")
    return root, order


def full_reducer(tree: Hypertree, bags: dict[int, Relation],
                 stats: YannakakisStats | None = None
                 ) -> dict[int, Relation]:
    """Two semijoin sweeps (leaves-up then root-down): no dangling tuples.

    After reduction, every bag tuple participates in at least one output
    tuple — Yannakakis' guarantee for acyclic instances, applied here to
    the (acyclic) tree of bag relations.
    """
    root, edges = _root_and_order(tree)
    reduced = dict(bags)
    # Leaves-up: parent := parent |>< child, processing deepest first.
    for parent, child in reversed(edges):
        before = len(reduced[parent])
        reduced[parent] = reduced[parent].semijoin(reduced[child])
        if stats is not None:
            stats.semijoin_rounds += 1
            stats.semijoin_tuples_scanned += before + len(reduced[child])
    # Root-down: child := child |>< parent.
    for parent, child in edges:
        before = len(reduced[child])
        reduced[child] = reduced[child].semijoin(reduced[parent])
        if stats is not None:
            stats.semijoin_rounds += 1
            stats.semijoin_tuples_scanned += before + len(reduced[parent])
    return reduced


def join_reduced(query: JoinQuery, tree: Hypertree,
                 reduced: dict[int, Relation],
                 stats: YannakakisStats | None = None) -> Relation:
    """Bottom-up joins of fully-reduced bags (the final Yannakakis phase).

    The full reduction keeps every intermediate bounded by the final
    output extended over the not-yet-joined bag attributes.
    """
    root, edges = _root_and_order(tree)
    current = reduced[root]
    for _, child in edges:
        current = current.natural_join(reduced[child])
        if stats is not None:
            stats.join_intermediate_tuples += len(current)
    return current.reorder(query.attributes, name=f"{query.name}_result")
