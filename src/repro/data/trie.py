"""Sorted-array tries: the index structure behind Leapfrog triejoin.

A trie over a relation with column order ``(A1, ..., Ak)`` is the
lexicographically sorted, deduplicated tuple array.  A *node* at depth
``d`` is a contiguous row range ``[lo, hi)`` sharing the first ``d``
column values; its children are the runs of distinct values in column
``d`` inside that range.  Row-range navigation (:meth:`Trie.children`,
:class:`TrieIterator`) is binary search on column slices.

:meth:`Trie.levels` adds the node-indexed view the frontier Leapfrog
kernel runs on — the "three arrays" block-trie of the paper's Merge
HCube, one triple per depth (:class:`TrieLevels`): the distinct values
under every parent concatenated (``vals``), CSR child pointers
(``ptr``) and a globally sorted ``parent * width + code(value)`` key
array (``keys``) that turns "which child of node p holds value v", for
a whole array of ``(p, v)`` pairs, into one ``np.searchsorted``.  A
value's code is its offset from the level's minimum, or — where that
would leave int64 — its rank among the level's distinct values, so
every level below the root has keys.  It is built from the sorted rows
with one change-mask pass per column and memoized.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from ..errors import SchemaError
from .relation import Relation

__all__ = ["Trie", "TrieIterator", "TrieLevels"]

# ``parent * width + offset`` keys must stay clear of the int64 range;
# a level whose offsets would not switches to ranks.
_KEY_LIMIT = 2 ** 62


class TrieLevels(NamedTuple):
    """Per-depth CSR arrays of a :class:`Trie`.

    A *node* of level ``l`` is a distinct prefix of length ``l + 1``,
    numbered in lexicographic order; ``vals[l][i]`` is the last value of
    node ``i``.  The children of node ``i`` are the level ``l + 1`` nodes
    ``ptr[l][i] .. ptr[l][i + 1]``, so their values are the sorted slice
    ``vals[l + 1][ptr[l][i]:ptr[l][i + 1]]``.  For ``l >= 1``,
    ``keys[l][j] = parent(j) * width[l] + code(vals[l][j])`` is globally
    sorted, where ``code(v) = v - vmin[l]``, or, when ``parents *
    (max - min + 1)`` would reach ``2**62``, ``v``'s rank in
    ``distinct[l]`` (the level's sorted distinct values; ``width[l]`` is
    then their number).  ``keys[0]`` and ``distinct`` of an offset
    level are ``None``; ``vals[0]`` is itself sorted and distinct.
    :meth:`probe` is the one reader of the encoding.
    """

    vals: tuple[np.ndarray, ...]
    ptr: tuple[np.ndarray, ...]
    keys: tuple[np.ndarray | None, ...]
    vmin: tuple[int, ...]
    width: tuple[int, ...]
    distinct: tuple[np.ndarray | None, ...]

    def probe(self, level: int, parents: np.ndarray | None,
              values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Look ``values[i]`` up among the children of ``parents[i]``.

        ``parents`` are level ``level - 1`` node indices (ignored at
        level 0, whose only parent is the root).  Returns ``(nodes,
        found)``: the level-``level`` node index of every hit, and the
        hit mask; ``nodes`` is meaningless where ``found`` is False.
        """
        if level == 0:
            hay, needles = self.vals[0], values
        else:
            hay, width = self.keys[level], self.width[level]
            distinct = self.distinct[level]
            if distinct is None:
                vmin = self.vmin[level]
                code = values - vmin
                known = (values >= vmin) & (values < vmin + width)
            else:
                code = np.minimum(np.searchsorted(distinct, values), width - 1)
                known = distinct[code] == values
            # -1 sorts before every key and matches none.
            needles = np.where(known, parents * width + code, -1)
        nodes = np.searchsorted(hay, needles)
        np.minimum(nodes, hay.shape[0] - 1, out=nodes)
        return nodes, hay[nodes] == needles


class Trie:
    """A read-only trie index over a relation for a fixed column order."""

    __slots__ = ("name", "attributes", "data", "_columns", "_levels")

    def __init__(self, relation: Relation, order: Sequence[str] | None = None):
        order = tuple(order) if order is not None else relation.attributes
        if set(order) != set(relation.attributes):
            raise SchemaError(
                f"trie order {order} is not a permutation of "
                f"{relation.attributes}"
            )
        self.name = relation.name
        self.attributes = order
        # The relation's one sort path; a known sorted set in trie order
        # comes back as is (its data is contiguous and read-only).
        self.data = relation.sorted_set(order).data
        # Pre-sliced contiguous columns: searchsorted on a contiguous 1-d
        # array is much faster than on a strided column view.
        self._columns = tuple(
            np.ascontiguousarray(self.data[:, j])
            for j in range(self.data.shape[1])
        )
        self._levels: TrieLevels | None = None

    # -- basic protocol ---------------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def __len__(self) -> int:
        return int(self.data.shape[0])

    def __repr__(self) -> str:
        return (f"Trie({self.name}[{', '.join(self.attributes)}], "
                f"{len(self)} tuples)")

    @property
    def root(self) -> tuple[int, int]:
        """The row range of the root node (whole relation)."""
        return (0, int(self.data.shape[0]))

    # -- navigation -------------------------------------------------------------

    def children(self, depth: int, lo: int, hi: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Distinct values plus their child sub-ranges.

        Returns ``(values, starts, ends)`` where child ``i`` spans rows
        ``[starts[i], ends[i])``.
        """
        col = self._columns[depth][lo:hi]
        if col.shape[0] == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        change = np.empty(col.shape[0], dtype=bool)
        change[0] = True
        np.not_equal(col[1:], col[:-1], out=change[1:])
        starts = np.flatnonzero(change).astype(np.int64) + lo
        values = self._columns[depth][starts]
        ends = np.empty_like(starts)
        ends[:-1] = starts[1:]
        ends[-1] = hi
        return values, starts, ends

    def child_range(self, depth: int, lo: int, hi: int, value: int
                    ) -> tuple[int, int]:
        """Row range of the child with ``value`` at ``depth`` (may be empty)."""
        col = self._columns[depth]
        left = lo + int(np.searchsorted(col[lo:hi], value, side="left"))
        right = lo + int(np.searchsorted(col[lo:hi], value, side="right"))
        return (left, right)

    def iterator(self) -> "TrieIterator":
        return TrieIterator(self)

    def levels(self) -> TrieLevels:
        """The node-indexed level arrays (built once, then memoized)."""
        if self._levels is None:
            self._levels = self._build_levels()
        return self._levels

    def _build_levels(self) -> TrieLevels:
        rows = self.data.shape[0]
        vals, ptr, keys, vmins, widths, distinct = [], [], [], [], [], []
        # change[r]: row r starts a new prefix of the current length.
        change = np.zeros(rows, dtype=bool)
        change[:1] = True
        parent_starts = None
        for col in self._columns:
            np.logical_or(change[1:], col[1:] != col[:-1], out=change[1:])
            starts = np.flatnonzero(change)
            level_vals = col[starts]
            vmin = int(level_vals.min()) if rows else 0
            width = int(level_vals.max()) - vmin + 1 if rows else 1
            level_keys = level_distinct = None
            if parent_starts is not None:
                first_child = np.searchsorted(starts, parent_starts)
                ptr.append(np.append(first_child, starts.shape[0]))
                parent = np.repeat(
                    np.arange(parent_starts.shape[0], dtype=np.int64),
                    np.diff(ptr[-1]))
                if parent_starts.shape[0] * width < _KEY_LIMIT:
                    offset = level_vals - vmin
                else:
                    level_distinct = np.unique(level_vals)
                    width = int(level_distinct.shape[0])
                    offset = np.searchsorted(level_distinct, level_vals)
                level_keys = parent * width + offset
            vals.append(level_vals)
            keys.append(level_keys)
            vmins.append(vmin)
            widths.append(width)
            distinct.append(level_distinct)
            parent_starts = starts
        return TrieLevels(tuple(vals), tuple(ptr), tuple(keys),
                          tuple(vmins), tuple(widths), tuple(distinct))


class TrieIterator:
    """Linear-iterator interface over a :class:`Trie` (LFTJ-style).

    Implements the classic Leapfrog Triejoin iterator contract:
    ``open`` / ``up`` move vertically, ``next`` / ``seek`` move through the
    sorted distinct values at the current depth, ``key`` reads the current
    value and ``at_end`` reports exhaustion at the current depth.
    """

    __slots__ = ("trie", "_stack", "_pos", "_end", "at_end")

    def __init__(self, trie: Trie):
        self.trie = trie
        # Stack of (lo, hi) ranges; the top is the current node's range.
        self._stack: list[tuple[int, int]] = [trie.root]
        self._pos = 0   # start row of the current value's run
        self._end = 0   # end row of the current value's run
        self.at_end = True

    @property
    def depth(self) -> int:
        """Current depth; 0 means positioned at the root (no open column)."""
        return len(self._stack) - 1

    def key(self) -> int:
        """Value at the current position (undefined when ``at_end``)."""
        return int(self.trie._columns[self.depth - 1][self._pos])

    def open(self) -> None:
        """Descend to the first value of the next column."""
        lo, hi = (self._pos, self._end) if self.depth else self._stack[-1]
        self._stack.append((lo, hi))
        d = self.depth - 1
        if lo >= hi:
            self.at_end = True
            self._pos = self._end = lo
            return
        self._pos = lo
        col = self.trie._columns[d]
        self._end = lo + int(
            np.searchsorted(col[lo:hi], col[lo], side="right"))
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
        if self.depth == 0:
            self._pos, self._end = self._stack[-1]
            self.at_end = False
            return
        self._pos, self._end = popped
        self.at_end = False

    def next(self) -> None:
        """Advance to the next distinct value at the current depth."""
        node_lo, node_hi = self._stack[-1]
        if self._end >= node_hi:
            self.at_end = True
            return
        d = self.depth - 1
        col = self.trie._columns[d]
        self._pos = self._end
        self._end = self._pos + int(np.searchsorted(
            col[self._pos:node_hi], col[self._pos], side="right"))

    def seek(self, value: int) -> None:
        """Position at the least value >= ``value`` at the current depth."""
        node_lo, node_hi = self._stack[-1]
        d = self.depth - 1
        col = self.trie._columns[d]
        lo = self._pos + int(np.searchsorted(
            col[self._pos:node_hi], value, side="left"))
        if lo >= node_hi:
            self.at_end = True
            self._pos = self._end = node_hi
            return
        self._pos = lo
        self._end = lo + int(np.searchsorted(
            col[lo:node_hi], col[lo], side="right"))
        self.at_end = False

    def child_span(self) -> tuple[int, int]:
        """Row range of the subtree under the current value."""
        return (self._pos, self._end)
