"""Sorted-array tries: the index structure behind Leapfrog triejoin.

A trie over a relation with column order ``(A1, ..., Ak)`` is the
lexicographically sorted, deduplicated tuple array.  A *node* at depth
``d`` is a contiguous row range sharing the first ``d`` column values;
its children are the runs of distinct values in column ``d`` inside
that range.

:meth:`Trie.levels` is the node-indexed view the frontier Leapfrog
kernel runs on — the "three arrays" block-trie of the paper's Merge
HCube, one triple per depth (:class:`TrieLevels`): the distinct values
under every parent concatenated (``vals``), CSR child pointers
(``ptr``) and a globally sorted ``parent * width + code(value)`` key
array (``keys``) that turns "which child of node p holds value v", for
a whole array of ``(p, v)`` pairs, into one ``np.searchsorted``.  A
value's code is its offset from the level's minimum, or — where that
would leave int64 — its rank among the level's distinct values, so
every level below the root has keys.  It is built from the sorted rows
with one change-mask pass per column and memoized; the trie itself is
memoized on its relation (:meth:`repro.data.relation.Relation.trie`).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from ..errors import SchemaError
from .relation import Relation, sorted_distinct

__all__ = ["Trie", "TrieLevels"]

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

    @property
    def nbytes(self) -> int:
        """Bytes held by every level array."""
        return sum(int(a.nbytes) for group in (self.vals, self.ptr,
                                                 self.keys, self.distinct)
                   for a in group if a is not None)

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

    __slots__ = ("name", "attributes", "data", "_levels")

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
        self._levels: TrieLevels | None = None

    def renamed(self, name: str, attributes: Sequence[str]) -> "Trie":
        """This trie (same rows, same levels) under new names: ``self``
        when they are already its own."""
        attributes = tuple(attributes)
        if name == self.name and attributes == self.attributes:
            return self
        out = Trie.__new__(Trie)
        out.name = name
        out.attributes = attributes
        out.data = self.data
        out._levels = self._levels
        return out

    # -- basic protocol ---------------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def __len__(self) -> int:
        return int(self.data.shape[0])

    def __repr__(self) -> str:
        return (f"Trie({self.name}[{', '.join(self.attributes)}], "
                f"{len(self)} tuples)")

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
        for j in range(self.data.shape[1]):
            col = self.data[:, j]
            longer = np.empty(rows, dtype=bool)
            longer[:1] = True
            np.not_equal(col[1:], col[:-1], out=longer[1:])
            longer |= change
            starts = np.flatnonzero(longer)
            level_vals = col[starts]
            vmin = int(level_vals.min()) if rows else 0
            width = int(level_vals.max()) - vmin + 1 if rows else 1
            level_keys = level_distinct = None
            if j:
                # A node that starts a new parent prefix is its parent's
                # first child.
                mark = change[starts]
                ptr.append(np.append(np.flatnonzero(mark), starts.shape[0]))
                if (ptr[-1].shape[0] - 1) * width < _KEY_LIMIT:
                    offset = level_vals - vmin
                else:
                    level_distinct = sorted_distinct(level_vals)
                    width = int(level_distinct.shape[0])
                    offset = np.searchsorted(level_distinct, level_vals)
                # parent * width + offset with parent = cumsum(mark) - 1,
                # in place: in a pool worker a large temporary is often a
                # fresh mapping, paid for in page faults.
                level_keys = np.cumsum(mark, dtype=np.int64)
                level_keys -= 1
                level_keys *= width
                level_keys += offset
            vals.append(level_vals)
            keys.append(level_keys)
            vmins.append(vmin)
            widths.append(width)
            distinct.append(level_distinct)
            change = longer
        return TrieLevels(tuple(vals), tuple(ptr), tuple(keys),
                          tuple(vmins), tuple(widths), tuple(distinct))
