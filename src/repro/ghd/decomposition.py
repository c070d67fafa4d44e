"""Generalized hypertree decompositions (GHDs) of join queries.

Sec. III-A of the paper reduces ADJ's plan space with a hypertree T:

- every *hypernode* (bag) of T is a set of query atoms whose join is a
  candidate pre-computed relation;
- bags containing a common attribute must be connected in T (the running
  intersection property), which makes the residual query almost acyclic;
- among all hypertrees the paper picks one minimizing the worst-case size
  of any bag, i.e. the *fractional hypertree width* (fhw): the maximum
  over bags of the fractional edge cover number of the bag's attributes
  (covers may use any query edge, per GHD semantics).

We enumerate decompositions as **partitions of the atom set into
connected groups** (a disconnected bag would pre-compute a Cartesian
product — never cost-effective), build the join tree as a maximum
spanning tree on shared-attribute counts, and keep partitions satisfying
the running intersection property.  Bag widths are memoized per
attribute set, so the LP runs at most 2^n times.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from ..errors import DecompositionError, PlanError
from ..query.hypergraph import Hypergraph
from ..query.query import JoinQuery
from .fractional import fractional_edge_cover

__all__ = ["Bag", "Hypertree", "enumerate_ghds", "optimal_hypertree"]


@dataclass(frozen=True)
class Bag:
    """One hypernode: a set of atoms and the attributes they span."""

    index: int
    atom_indices: tuple[int, ...]
    attributes: frozenset[str]

    @property
    def is_single_atom(self) -> bool:
        return len(self.atom_indices) == 1

    def subquery(self, query: JoinQuery
                 ) -> tuple[JoinQuery, tuple[str, ...]]:
        """The bag's join over ``query``'s atoms (named ``bag<index>``)
        and the bag's attributes in the query's base order — the column
        order of the bag once materialized."""
        sub = JoinQuery([query.atoms[i] for i in self.atom_indices],
                        name=f"bag{self.index}")
        return sub, tuple(a for a in query.attributes
                          if a in self.attributes)

    def __str__(self) -> str:
        return f"v{self.index}{{{','.join(sorted(self.attributes))}}}"


class Hypertree:
    """A GHD: bags plus a join tree satisfying running intersection."""

    def __init__(self, query: JoinQuery, bags: Sequence[Bag],
                 tree_edges: Sequence[tuple[int, int]],
                 bag_widths: Sequence[float]):
        self.query = query
        self.bags = tuple(bags)
        self.tree_edges = tuple(
            (min(u, v), max(u, v)) for u, v in tree_edges)
        self.bag_widths = tuple(bag_widths)
        self._valid_order_cache: frozenset[tuple[str, ...]] | None = None
        self._adjacency: dict[int, set[int]] = {
            b.index: set() for b in self.bags}
        for u, v in self.tree_edges:
            self._adjacency[u].add(v)
            self._adjacency[v].add(u)

    # -- shape ----------------------------------------------------------------

    @property
    def num_bags(self) -> int:
        return len(self.bags)

    @property
    def width(self) -> float:
        """The fhw estimate: max bag width."""
        return max(self.bag_widths)

    def neighbors(self, bag_index: int) -> frozenset[int]:
        return frozenset(self._adjacency[bag_index])

    def __repr__(self) -> str:
        bags = "; ".join(
            f"v{b.index}=[{','.join(self.query.atoms[i].relation for i in b.atom_indices)}]"
            for b in self.bags)
        return (f"Hypertree(width={self.width:.2f}, bags=({bags}), "
                f"edges={self.tree_edges})")

    # -- validity -------------------------------------------------------------

    def check_valid(self) -> None:
        """Raise unless bags partition the atoms and RIP holds."""
        covered = sorted(i for b in self.bags for i in b.atom_indices)
        if covered != list(range(self.query.num_atoms)):
            raise DecompositionError(
                f"bags cover atoms {covered}, expected all "
                f"{self.query.num_atoms}")
        if self.num_bags > 1 and len(self.tree_edges) != self.num_bags - 1:
            raise DecompositionError("join tree is not a tree")
        for attr in self.query.attributes:
            holders = [b.index for b in self.bags if attr in b.attributes]
            if not holders:
                raise DecompositionError(f"attribute {attr} in no bag")
            if not self._connected_subset(set(holders)):
                raise DecompositionError(
                    f"bags containing {attr!r} are not connected "
                    "(running intersection violated)")

    def _connected_subset(self, nodes: set[int]) -> bool:
        if len(nodes) <= 1:
            return True
        seen = {next(iter(nodes))}
        frontier = list(seen)
        while frontier:
            u = frontier.pop()
            for v in self._adjacency[u] & nodes:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return seen == nodes

    # -- traversal orders (Sec. III-A) ------------------------------------------

    def is_traversal_order(self, order: Sequence[int]) -> bool:
        """True iff every prefix of ``order`` is connected in the tree."""
        order = list(order)
        if sorted(order) != sorted(b.index for b in self.bags):
            return False
        placed: set[int] = set()
        for idx in order:
            if placed and not (self._adjacency[idx] & placed):
                return False
            placed.add(idx)
        return True

    def traversal_orders(self) -> Iterator[tuple[int, ...]]:
        """All valid traversal orders (connected expansions of the tree)."""
        indices = [b.index for b in self.bags]

        def extend(placed: tuple[int, ...], remaining: frozenset[int]):
            if not remaining:
                yield placed
                return
            for idx in sorted(remaining):
                if not placed or (self._adjacency[idx] & set(placed)):
                    yield from extend(placed + (idx,), remaining - {idx})

        yield from extend((), frozenset(indices))

    def attribute_order(self, traversal: Sequence[int],
                        inner_orders: dict[int, tuple[str, ...]] | None = None
                        ) -> tuple[str, ...]:
        """The attribute order induced by a bag traversal order.

        Attributes of earlier bags come before the *new* attributes of
        later bags.  Within a bag the new attributes follow
        ``inner_orders[bag]`` when given, else a degree heuristic
        (attributes in more atoms first — the [11] rule of thumb).
        """
        if not self.is_traversal_order(traversal):
            raise PlanError(f"{traversal} is not a valid traversal order")
        by_index = {b.index: b for b in self.bags}
        seen: list[str] = []
        for idx in traversal:
            bag = by_index[idx]
            new = [a for a in self.query.attributes
                   if a in bag.attributes and a not in seen]
            if inner_orders and idx in inner_orders:
                given = [a for a in inner_orders[idx] if a in new]
                if sorted(given) != sorted(new):
                    raise PlanError(
                        f"inner order {inner_orders[idx]} does not cover the "
                        f"new attributes {new} of bag {idx}")
                new = given
            else:
                degree = {
                    a: sum(1 for atom in self.query.atoms
                           if a in atom.attributes)
                    for a in new
                }
                new.sort(key=lambda a: (-degree[a],
                                        self.query.attributes.index(a)))
            seen.extend(new)
        return tuple(seen)

    def valid_attribute_orders(self) -> Iterator[tuple[str, ...]]:
        """Every *valid* attribute order (Sec. III-A's reduced space).

        For each traversal order, new attributes within a bag may appear
        in any permutation.
        """
        by_index = {b.index: b for b in self.bags}
        emitted: set[tuple[str, ...]] = set()
        for traversal in self.traversal_orders():
            groups: list[list[str]] = []
            seen: set[str] = set()
            for idx in traversal:
                bag = by_index[idx]
                new = [a for a in self.query.attributes
                       if a in bag.attributes and a not in seen]
                seen |= set(new)
                if new:
                    groups.append(new)
            for perm_groups in itertools.product(
                    *(itertools.permutations(g) for g in groups)):
                order = tuple(a for g in perm_groups for a in g)
                if order not in emitted:
                    emitted.add(order)
                    yield order

    def is_valid_attribute_order(self, order: Sequence[str]) -> bool:
        """Membership test for the valid-order space (used by Fig. 8).

        Exact: materializes the valid-order set once (queries here have at
        most a handful of attributes, so the space is tiny).
        """
        order = tuple(order)
        if set(order) != set(self.query.attributes):
            return False
        if self._valid_order_cache is None:
            self._valid_order_cache = frozenset(self.valid_attribute_orders())
        return order in self._valid_order_cache


def _connected_atoms(query: JoinQuery, atom_indices: Sequence[int]) -> bool:
    atoms = [query.atoms[i] for i in atom_indices]
    remaining = set(range(1, len(atoms)))
    frontier = set(atoms[0].attributes)
    changed = True
    while changed and remaining:
        changed = False
        for i in list(remaining):
            if frontier & set(atoms[i].attributes):
                frontier |= set(atoms[i].attributes)
                remaining.discard(i)
                changed = True
    return not remaining


def _max_spanning_tree(bags: Sequence[Bag]) -> list[tuple[int, int]] | None:
    """Maximum spanning tree on shared-attribute counts (Kruskal).

    Edges with zero shared attributes are unusable: a join tree link
    between attribute-disjoint bags cannot help RIP, and a disconnected
    query should fail decomposition.
    """
    n = len(bags)
    if n == 1:
        return []
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            w = len(bags[i].attributes & bags[j].attributes)
            if w > 0:
                edges.append((w, i, j))
    edges.sort(reverse=True)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen: list[tuple[int, int]] = []
    for w, i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            chosen.append((bags[i].index, bags[j].index))
            if len(chosen) == n - 1:
                break
    return chosen if len(chosen) == n - 1 else None


def _partitions(items: int, max_blocks: int) -> Iterator[list[list[int]]]:
    """Set partitions of range(items) with at most ``max_blocks`` blocks."""

    def rec(i: int, blocks: list[list[int]]):
        if i == items:
            yield [list(b) for b in blocks]
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        if len(blocks) < max_blocks:
            blocks.append([i])
            yield from rec(i + 1, blocks)
            blocks.pop()

    yield from rec(0, [])


def enumerate_ghds(query: JoinQuery, max_bags: int | None = None,
                   max_partitions: int = 200_000) -> Iterator[Hypertree]:
    """Yield valid hypertrees of ``query`` (connected-bag partitions)."""
    if not query.is_connected():
        raise DecompositionError(
            "GHD search requires a connected query hypergraph")
    hypergraph = Hypergraph.of_query(query)
    if max_bags is None:
        max_bags = min(query.num_atoms, query.num_attributes)
    width_cache: dict[frozenset[str], float] = {}

    def bag_width(attrs: frozenset[str]) -> float:
        if attrs not in width_cache:
            width_cache[attrs] = fractional_edge_cover(
                hypergraph, tuple(attrs)).objective
        return width_cache[attrs]

    count = 0
    for blocks in _partitions(query.num_atoms, max_bags):
        count += 1
        if count > max_partitions:
            break
        if not all(_connected_atoms(query, b) for b in blocks):
            continue
        bags = []
        for bi, block in enumerate(blocks):
            attrs = frozenset(
                a for i in block for a in query.atoms[i].attributes)
            bags.append(Bag(bi, tuple(block), attrs))
        tree = _max_spanning_tree(bags)
        if tree is None:
            continue
        widths = [bag_width(b.attributes) for b in bags]
        candidate = Hypertree(query, bags, tree, widths)
        try:
            candidate.check_valid()
        except DecompositionError:
            continue
        yield candidate


def optimal_hypertree(query: JoinQuery, max_bags: int | None = None,
                      max_partitions: int = 200_000) -> Hypertree:
    """The hypertree minimizing (width, total bag width, -num bags).

    Primary criterion is the paper's: minimize the worst-case size
    exponent of any pre-computed bag.  Among ties, prefer smaller total
    width, then *more* bags — finer decompositions give the ADJ optimizer
    more pre-computation choices.
    """
    best: Hypertree | None = None
    best_key: tuple | None = None
    for t in enumerate_ghds(query, max_bags=max_bags,
                            max_partitions=max_partitions):
        key = (round(t.width, 9), round(sum(t.bag_widths), 9), -t.num_bags)
        if best_key is None or key < best_key:
            best, best_key = t, key
    if best is None:
        raise DecompositionError(f"no valid hypertree found for {query}")
    return best
