"""Query plans: (Qi, ord) pairs over a hypertree (Sec. III).

A plan picks, for each multi-atom bag of the hypertree, whether its join
is pre-computed into a *candidate relation*, plus a bag traversal order
whose induced attribute order drives Leapfrog.  ``rewritten_query``
produces the paper's Qi: pre-computed bags become single atoms, the other
bags contribute their original atoms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..data.database import Database
from ..data.relation import Relation
from ..errors import PlanError
from ..ghd.decomposition import Bag, Hypertree
from ..query.query import Atom, JoinQuery

__all__ = ["CandidateRelation", "QueryPlan", "candidate_relation_for",
           "projected_database"]


@dataclass(frozen=True)
class CandidateRelation:
    """A bag join that may be pre-computed (Fig. 5's R23, R45)."""

    bag_index: int
    name: str
    subquery: JoinQuery
    attributes: tuple[str, ...]

    @property
    def num_atoms(self) -> int:
        return self.subquery.num_atoms


def candidate_relation_for(query: JoinQuery, bag: Bag) -> CandidateRelation:
    """Build the candidate relation descriptor of a bag.

    The candidate's column order follows the query's base attribute
    order restricted to the bag, and its name concatenates the member
    relations (R2, R3 -> ``R2_R3``), mirroring the paper's R23.
    """
    sub, attrs = bag.subquery(query)
    name = "_".join(a.relation for a in sub.atoms)
    return CandidateRelation(bag.index, name, sub, attrs)


@dataclass(frozen=True)
class QueryPlan:
    """The optimizer's output: which bags to pre-compute and in what order
    to traverse them."""

    query: JoinQuery
    hypertree: Hypertree
    traversal: tuple[int, ...]
    precompute: frozenset[int]
    attribute_order: tuple[str, ...]
    estimated_cost: float = float("inf")
    candidates: tuple[CandidateRelation, ...] = field(default=())

    def __post_init__(self):
        if not self.hypertree.is_traversal_order(self.traversal):
            raise PlanError(f"{self.traversal} is not a valid traversal "
                            "order of the hypertree")
        bags = {b.index: b for b in self.hypertree.bags}
        for idx in self.precompute:
            if idx not in bags:
                raise PlanError(f"unknown bag index {idx} in precompute set")
            if bags[idx].is_single_atom:
                raise PlanError(
                    f"bag {idx} is a single atom; pre-computing it is a "
                    "no-op and must not be requested")
        if set(self.attribute_order) != set(self.query.attributes):
            raise PlanError("attribute order does not cover the query")
        if not self.candidates:
            object.__setattr__(self, "candidates", tuple(
                candidate_relation_for(self.query, bags[idx])
                for idx in sorted(self.precompute)))

    @property
    def precomputes_anything(self) -> bool:
        return bool(self.precompute)

    def rewritten_query(self) -> JoinQuery:
        """The paper's Qi: candidates replace their bags' atoms."""
        by_bag = {c.bag_index: c for c in self.candidates}
        atoms: list[Atom] = []
        for bag in sorted(self.hypertree.bags, key=lambda b: b.index):
            if bag.index in by_bag:
                cand = by_bag[bag.index]
                atoms.append(Atom(cand.name, cand.attributes))
            else:
                atoms.extend(self.query.atoms[i] for i in bag.atom_indices)
        return JoinQuery(atoms, name=f"{self.query.name}'")

    def describe(self) -> str:
        pre = ", ".join(c.name for c in self.candidates) or "(none)"
        return (f"plan[{self.query.name}]: traversal={self.traversal}, "
                f"precompute={pre}, ord={'<'.join(self.attribute_order)}")


def projected_database(query: JoinQuery, db: Database,
                       attrs: Sequence[str]) -> tuple[JoinQuery, Database]:
    """The prefix query over ``attrs`` plus matching projected relations.

    Used to estimate Leapfrog partial-binding counts |T_prefix|: a prefix
    binding survives iff each atom's projection contains its projection,
    so |T_prefix| is exactly the size of this projected join.
    """
    keep = [a for a in query.attributes if a in set(attrs)]
    keep_set = set(keep)
    out_atoms: list[Atom] = []
    out = Database()
    for i, atom in enumerate(query.atoms):
        sub = tuple(a for a in atom.attributes if a in keep_set)
        if not sub:
            continue
        rel = db[atom.relation]
        cols = [atom.attributes.index(a) for a in sub]
        name = f"{atom.relation}@{i}|{''.join(sub)}"
        out.add(Relation(name, sub, rel.data[:, cols], dedup=True))
        out_atoms.append(Atom(name, sub))
    if not out_atoms:
        raise PlanError(f"no atom overlaps attributes {attrs}")
    return JoinQuery(out_atoms, name=f"{query.name}|{''.join(keep)}"), out
