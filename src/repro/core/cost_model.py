"""The ADJ cost model: costC, costM and costE^i (Sec. III-B).

Given a hypertree T, a tentative pre-computation set C (bag indices) and
a (partial) traversal order O, the model prices:

- ``cost_c(C)``      — shuffling the rewritten query's relations with an
  HCube whose shares are re-optimized for that query (Eq. 3);
- ``cost_m(v)``      — pre-computing bag v: shuffling its member
  relations plus the join work, both estimated by sampling;
- ``cost_e(i, C, first_bags)`` — the Leapfrog steps that extend into the
  i-th traversed bag: |T_{v_{i-1}}| / (beta_i * N*) where |T_{v_{i-1}}|
  is the size of the *prefix join* over the bags traversed so far, and
  beta_i is fast (a trie lookup) when bag i is pre-computed, else the
  work-per-extension rate observed while sampling.

All cardinalities come from :class:`CardinalityEstimator`.  The model
only counts: each cost is the same :class:`~repro.distributed.metrics.Moved`
/ :class:`~repro.distributed.metrics.Work` records an engine would put on
its ledger, priced by :func:`~repro.distributed.metrics.price` — the one
place the cluster's rates are applied.  Everything is cached because
Algorithm 2 revisits the same configurations O(n*^2) times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..data.database import Database
from ..distributed.cluster import Cluster
from ..distributed.metrics import CostBreakdown, Moved, Work, price
from ..distributed.partitioner import optimize_shares
from ..errors import OutOfMemory, PlanError
from ..ghd.decomposition import Hypertree
from ..query.query import Atom, JoinQuery
from .plan import candidate_relation_for, projected_database
from .sampling import CardinalityEstimator

__all__ = ["CostModel"]


@dataclass(frozen=True)
class _BagStats:
    """Sampled per-bag statistics from one canonical full-query run."""

    work_per_extension: float    # intersection work per extension into the bag
    tuples: float                # estimated |T| contribution at the bag levels


class CostModel:
    """Prices (C, O) configurations for one query over one database."""

    def __init__(self, query: JoinQuery, db: Database, cluster: Cluster,
                 hypertree: Hypertree,
                 estimator: CardinalityEstimator | None = None,
                 hcube_impl: str = "pull"):
        self.query = query
        self.db = db
        self.cluster = cluster
        self.hypertree = hypertree
        self.estimator = estimator or CardinalityEstimator(db)
        self.hcube_impl = hcube_impl
        self._bag_size_cache: dict[int, float] = {}
        self._prefix_cache: dict[frozenset[str], float] = {}
        self._bag_stats_cache: dict[int, _BagStats] | None = None
        self._cost_c_cache: dict[frozenset[int], float] = {}
        self._bags = {b.index: b for b in hypertree.bags}

    # -- cardinalities ----------------------------------------------------------

    def bag_size(self, bag_index: int) -> float:
        """Estimated size of the bag's join (the candidate relation)."""
        if bag_index not in self._bag_size_cache:
            bag = self._bags[bag_index]
            if bag.is_single_atom:
                size = float(len(self.db[self.query.atoms[
                    bag.atom_indices[0]].relation]))
            else:
                cand = candidate_relation_for(self.query, bag)
                sub_q, sub_db = projected_database(
                    cand.subquery, self.db, cand.attributes)
                est = CardinalityEstimator(
                    sub_db, num_samples=self.estimator.num_samples,
                    seed=self.estimator.seed).estimate(sub_q)
                size = est.estimate
                self.estimator.total_work += est.work
            self._bag_size_cache[bag_index] = size
        return self._bag_size_cache[bag_index]

    def prefix_cardinality(self, attrs: frozenset[str]) -> float:
        """Estimated |T_prefix| — partial bindings over ``attrs``."""
        attrs = frozenset(attrs)
        if not attrs:
            return 1.0
        if attrs not in self._prefix_cache:
            sub_q, sub_db = projected_database(self.query, self.db, attrs)
            est = CardinalityEstimator(
                sub_db, num_samples=self.estimator.num_samples,
                seed=self.estimator.seed).estimate(sub_q)
            self._prefix_cache[attrs] = est.estimate
            self.estimator.total_work += est.work
        return self._prefix_cache[attrs]

    def _bag_stats(self) -> dict[int, _BagStats]:
        """Per-bag work rates from one canonical sampled run (see module
        docstring — sampled once, reused for every candidate order)."""
        if self._bag_stats_cache is None:
            canonical = next(self.hypertree.traversal_orders())
            order = self.hypertree.attribute_order(canonical)
            est = self.estimator.estimate(self.query, order)
            stats: dict[int, _BagStats] = {}
            seen: set[str] = set()
            for idx in canonical:
                bag = self._bags[idx]
                depths = [d for d, a in enumerate(order)
                          if a in bag.attributes and a not in seen]
                seen |= {order[d] for d in depths}
                work = sum(est.level_work[d] for d in depths)
                ext = sum(est.level_extensions[d] for d in depths)
                tup = sum(est.level_tuples[d] for d in depths)
                stats[idx] = _BagStats(
                    work_per_extension=(work / ext) if ext else 1.0,
                    tuples=tup)
            self._bag_stats_cache = stats
        return self._bag_stats_cache

    # -- the three costs ----------------------------------------------------------

    def _rewritten(self, precompute: frozenset[int]
                   ) -> tuple[JoinQuery, dict[str, int]]:
        """The Qi for a pre-computation set, plus its relation sizes."""
        atoms: list[Atom] = []
        sizes: dict[str, int] = {}
        for bag in self.hypertree.bags:
            if bag.index in precompute and not bag.is_single_atom:
                cand = candidate_relation_for(self.query, bag)
                atoms.append(Atom(cand.name, cand.attributes))
                sizes[cand.name] = max(1, int(self.bag_size(bag.index)))
            else:
                for i in bag.atom_indices:
                    atom = self.query.atoms[i]
                    atoms.append(atom)
                    sizes.setdefault(atom.relation,
                                     len(self.db[atom.relation]))
        return JoinQuery(atoms, name=f"{self.query.name}'"), sizes

    def cost_c(self, precompute: Iterable[int]) -> float:
        """Communication seconds to HCube-shuffle the rewritten query."""
        key = frozenset(i for i in precompute
                        if not self._bags[i].is_single_atom)
        if key not in self._cost_c_cache:
            rewritten, sizes = self._rewritten(key)
            try:
                shares = optimize_shares(
                    rewritten, sizes, self.cluster.num_workers,
                    memory_tuples=self.cluster.memory_tuples_per_worker)
            except (PlanError, OutOfMemory):
                # No feasible share vector: prohibitively expensive.
                self._cost_c_cache[key] = float("inf")
                return self._cost_c_cache[key]
            self._cost_c_cache[key] = price(
                [Moved("communication", shares.tuple_copies,
                       self.hcube_impl)], self.cluster.params).communication
        return self._cost_c_cache[key]

    def cost_m(self, bag_index: int) -> float:
        """Pre-computing seconds for one bag: shuffle + parallel join."""
        bag = self._bags[bag_index]
        if bag.is_single_atom:
            return 0.0
        cand = candidate_relation_for(self.query, bag)
        input_tuples = sum(len(self.db[a.relation])
                           for a in cand.subquery.atoms)
        # Join work: the bag output plus its inputs must be touched at
        # least once; sampling gives the output estimate.
        out = self.bag_size(bag_index)
        return price([Moved("precompute", input_tuples, self.hcube_impl),
                      Work("precompute", input_tuples + out,
                           workers=self.cluster.num_workers)],
                     self.cluster.params).precompute

    def cost_e(self, bag_index: int, precompute: Iterable[int],
               earlier_bags: Iterable[int]) -> float:
        """Computation seconds of the steps extending into ``bag_index``
        when the bags in ``earlier_bags`` were traversed before it."""
        earlier = list(earlier_bags)
        attrs: set[str] = set()
        for idx in earlier:
            attrs |= self._bags[idx].attributes
        bindings = self.prefix_cardinality(frozenset(attrs)) if earlier else 1.0
        if bag_index in frozenset(precompute):
            units, rate = bindings, "trie_lookup"
        else:
            stats = self._bag_stats().get(bag_index)
            units = bindings * (stats.work_per_extension if stats else 1.0)
            rate = "work"
        return price([Work("computation", units, rate=rate,
                           workers=self.cluster.num_workers)],
                     self.cluster.params).computation

    # -- convenience ---------------------------------------------------------------

    def plan_breakdown(self, precompute: frozenset[int],
                       traversal: tuple[int, ...]) -> CostBreakdown:
        """The plan's costs per phase: sum costM (pre-computing), costC
        (communication), sum costE^i (computation)."""
        return CostBreakdown(
            precompute=sum((self.cost_m(i) for i in precompute), 0.0),
            communication=self.cost_c(precompute),
            computation=sum((self.cost_e(idx, precompute, traversal[:i])
                             for i, idx in enumerate(traversal)), 0.0))

    def plan_cost(self, precompute: frozenset[int],
                  traversal: tuple[int, ...]) -> float:
        """Full plan cost: costC + sum costM + sum costE^i."""
        total = self.cost_c(precompute)
        for idx in precompute:
            total += self.cost_m(idx)
        for i, idx in enumerate(traversal):
            total += self.cost_e(idx, precompute, traversal[:i])
        return total
