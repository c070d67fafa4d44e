"""Yannakakis' algorithm over a GHD join tree (EmptyHeaded-style).

The paper's related work (Sec. VI) discusses EmptyHeaded [26], which
combines worst-case optimal joins with tree decompositions and
Yannakakis' algorithm [27]: materialize every bag with a WCOJ, run a
*full reducer* (two semijoin sweeps over the join tree) so no dangling
tuples remain, then join bottom-up with output-bounded intermediates.
We implement it both as a sequential evaluator (this module) and as a
distributed engine (:class:`repro.engines.YannakakisJoin`) used by the
ablation benches — it trades ADJ's one-round shuffle for semijoin rounds
and heavy materialization, reproducing EmptyHeaded's memory-hunger.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..data.database import Database
from ..data.relation import Relation
from ..errors import PlanError
from ..ghd.decomposition import Hypertree, optimal_hypertree
from ..query.query import JoinQuery
from .leapfrog import leapfrog_join

__all__ = ["YannakakisStats", "materialize_bags", "full_reducer",
           "join_reduced", "yannakakis_join"]


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


def materialize_bags(query: JoinQuery, db: Database, tree: Hypertree,
                     stats: YannakakisStats | None = None,
                     budget: int | None = None) -> dict[int, Relation]:
    """Worst-case-optimally materialize every bag's join."""
    out: dict[int, Relation] = {}
    for bag in tree.bags:
        sub, attrs = bag.subquery(query)
        res = leapfrog_join(sub, db, order=attrs, materialize=True,
                            budget=budget)
        rel = Relation(f"bag{bag.index}", attrs, res.relation.data,
                       dedup=False)
        out[bag.index] = rel
        if stats is not None:
            stats.bag_materialize_work += res.stats.intersection_work
            stats.bag_sizes.append(len(rel))
    return out


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


def yannakakis_join(query: JoinQuery, db: Database,
                    tree: Hypertree | None = None,
                    stats: YannakakisStats | None = None,
                    budget: int | None = None) -> Relation:
    """Evaluate ``query`` via bag materialization + full reduction + joins."""
    tree = tree or optimal_hypertree(query)
    bags = materialize_bags(query, db, tree, stats=stats, budget=budget)
    reduced = full_reducer(tree, bags, stats=stats)
    return join_reduced(query, tree, reduced, stats=stats)
