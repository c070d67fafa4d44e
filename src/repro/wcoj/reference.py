"""Slow, obviously-correct join implementations for the test oracle.

- :func:`brute_force_join` — Cartesian product and filter.
- :func:`leapfrog_reference` — the textbook iterator-based leapfrog
  search (seek/next on :class:`TrieIterator`), for result rows.
- :func:`leapfrog_counters` — one binding at a time over the tries'
  level arrays, filling every :class:`~repro.wcoj.leapfrog.LeapfrogStats`
  counter the way the frontier accounts it (no cache).
"""

from __future__ import annotations

from itertools import product
from typing import Mapping, Sequence

import numpy as np

from ..data.database import Database
from ..data.trie import Trie
from ..errors import PlanError
from ..query.query import JoinQuery
from .leapfrog import JoinResult, LeapfrogStats, build_tries

__all__ = ["brute_force_join", "leapfrog_reference", "leapfrog_counters",
           "TrieIterator"]


def brute_force_join(query: JoinQuery, db: Database
                     ) -> set[tuple[int, ...]]:
    """Cartesian-product-and-filter evaluation of a join query.

    Returns result tuples over ``query.attributes``.  Exponential; only
    for small oracle databases in tests.
    """
    atom_sets = []
    for atom in query.atoms:
        rel = db[atom.relation]
        atom_sets.append([
            dict(zip(atom.attributes, t)) for t in rel.as_set()
        ])
    out: set[tuple[int, ...]] = set()
    for combo in product(*atom_sets):
        binding: dict[str, int] = {}
        ok = True
        for partial in combo:
            for attr, value in partial.items():
                if binding.setdefault(attr, value) != value:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.add(tuple(binding[a] for a in query.attributes))
    return out


class TrieIterator:
    """Linear-iterator interface over a :class:`~repro.data.trie.Trie`.

    Implements the classic Leapfrog Triejoin iterator contract:
    ``open`` / ``up`` move vertically, ``next`` / ``seek`` move through the
    sorted distinct values at the current depth, ``key`` reads the current
    value and ``at_end`` reports exhaustion at the current depth.
    """

    __slots__ = ("_columns", "_stack", "_pos", "_end", "at_end")

    def __init__(self, trie: Trie):
        self._columns = [np.ascontiguousarray(trie.data[:, j])
                         for j in range(trie.arity)]
        # Stack of (lo, hi) row ranges; the top is the current node's.
        self._stack: list[tuple[int, int]] = [(0, len(trie))]
        self._pos = 0   # start row of the current value's run
        self._end = 0   # end row of the current value's run
        self.at_end = True

    @property
    def depth(self) -> int:
        """Current depth; 0 means positioned at the root (no open column)."""
        return len(self._stack) - 1

    def key(self) -> int:
        """Value at the current position (undefined when ``at_end``)."""
        return int(self._columns[self.depth - 1][self._pos])

    def _run_end(self, col: np.ndarray, lo: int, hi: int) -> int:
        """End row of the run of ``col[lo]`` inside ``[lo, hi)``."""
        return lo + int(np.searchsorted(col[lo:hi], col[lo], side="right"))

    def open(self) -> None:
        """Descend to the first value of the next column."""
        lo, hi = (self._pos, self._end) if self.depth else self._stack[-1]
        self._stack.append((lo, hi))
        if lo >= hi:
            self.at_end = True
            self._pos = self._end = lo
            return
        self._pos = lo
        self._end = self._run_end(self._columns[self.depth - 1], lo, hi)
        self.at_end = False

    def up(self) -> None:
        """Return to the parent depth, restoring its position there.

        The range pushed by ``open`` is exactly the parent's current value
        run, so popping it restores the parent position.  After returning
        to depth 0 the iterator has no current value (``key`` is undefined).
        """
        if self.depth == 0:
            raise IndexError("cannot go above the trie root")
        popped = self._stack.pop()
        self._pos, self._end = self._stack[-1] if self.depth == 0 else popped
        self.at_end = False

    def next(self) -> None:
        """Advance to the next distinct value at the current depth."""
        node_hi = self._stack[-1][1]
        if self._end >= node_hi:
            self.at_end = True
            return
        self._pos = self._end
        self._end = self._run_end(self._columns[self.depth - 1], self._pos,
                                  node_hi)

    def seek(self, value: int) -> None:
        """Position at the least value >= ``value`` at the current depth."""
        node_hi = self._stack[-1][1]
        col = self._columns[self.depth - 1]
        lo = self._pos + int(np.searchsorted(
            col[self._pos:node_hi], value, side="left"))
        if lo >= node_hi:
            self.at_end = True
            self._pos = self._end = node_hi
            return
        self._pos = lo
        self._end = self._run_end(col, lo, node_hi)
        self.at_end = False


def leapfrog_reference(query: JoinQuery, db: Database,
                       order: Sequence[str] | None = None
                       ) -> list[tuple[int, ...]]:
    """Iterator-based leapfrog search (the textbook algorithm).

    Returns the result tuples in ``order``-major lexicographic order.
    Quadratically slower than :func:`~repro.wcoj.leapfrog.leapfrog_join`;
    for tests only.
    """
    order = tuple(order) if order is not None else query.attributes
    if set(order) != set(query.attributes):
        raise PlanError(f"order {order} does not match query attributes")
    tries = build_tries(query, db, order)
    if any(len(t) == 0 for t in tries):
        return []
    iterators = [TrieIterator(t) for t in tries]
    participants: list[list[int]] = [[] for _ in order]
    for ai, atom in enumerate(query.atoms):
        for attr in atom.attributes:
            participants[order.index(attr)].append(ai)
    n = len(order)
    out: list[tuple[int, ...]] = []
    binding: list[int] = [0] * n

    def leapfrog_values(iters):
        """Yield the common keys of iterators opened at the same depth."""
        if any(it.at_end for it in iters):
            return
        iters = sorted(iters, key=lambda it: it.key())
        k = len(iters)
        p = 0
        max_key = iters[-1].key()
        while True:
            least = iters[p]
            if least.key() == max_key:
                yield max_key
                least.next()
            else:
                least.seek(max_key)
            if least.at_end:
                return
            max_key = least.key()
            p = (p + 1) % k

    def search(d: int) -> None:
        iters = [iterators[ai] for ai in participants[d]]
        for it in iters:
            it.open()
        for v in leapfrog_values(iters):
            binding[d] = int(v)
            if d == n - 1:
                out.append(tuple(binding))
            else:
                search(d + 1)
        for it in iters:
            it.up()

    search(0)
    return sorted(out)


def leapfrog_counters(query: JoinQuery, db: Database,
                      order: Sequence[str] | None = None, *,
                      fixed: Mapping[str, int] | None = None) -> JoinResult:
    """Leapfrog one binding at a time, for its :class:`LeapfrogStats`.

    Each binding extended at level ``d`` charges the child-segment
    lengths of the level's participants (``len(participants)`` on a
    fixed level) — the accounting of the uncached frontier.
    """
    order = tuple(order) if order is not None else query.attributes
    tries = build_tries(query, db, order)
    levels = [t.levels() for t in tries]
    parts = [[(ai, t.attributes.index(a)) for ai, t in enumerate(tries)
              if a in t.attributes] for a in order]
    pinned = {order.index(a): int(v) for a, v in (fixed or {}).items()}
    n = len(order)
    stats = LeapfrogStats()
    stats.reset(n)

    def children(ai: int, depth: int, node: int | None) -> dict[int, int]:
        """Child value -> child node id, of ``node`` in atom ``ai``."""
        lv = levels[ai]
        lo, hi = ((0, len(lv.vals[0])) if depth == 0
                  else lv.ptr[depth - 1][node:node + 2].tolist())
        return {int(v): lo + i for i, v in enumerate(lv.vals[depth][lo:hi])}

    def walk(d: int, nodes: list[int | None]) -> None:
        kids = [children(ai, depth, nodes[ai]) for ai, depth in parts[d]]
        work = len(kids) if d in pinned else sum(map(len, kids))
        stats.extensions += 1
        stats.level_extensions[d] += 1
        stats.intersection_work += work
        stats.level_work[d] += work
        common = set.intersection(*map(set, kids))
        for value in sorted(common & {pinned[d]} if d in pinned else common):
            stats.level_tuples[d] += 1
            if d == n - 1:
                stats.emitted += 1
                continue
            below = list(nodes)
            for (ai, _), kid in zip(parts[d], kids):
                below[ai] = kid[value]
            walk(d + 1, below)

    if all(len(t) for t in tries):
        walk(0, [None] * len(tries))
    return JoinResult(count=stats.emitted, stats=stats)
