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
every level below the root has keys.  A level whose slot space
``parents * width`` is small next to its keys (:data:`_BITMAP_RATIO`)
also gets a rank bitmap over the slots — one bit a slot and, above
the deepest level, the number of keys before each 64-slot word — so a
probe there reads one word per pair instead of binary-searching
``keys``.  It is built from
the sorted rows with one change-mask pass per column and memoized; the
trie itself is memoized on its relation
(:meth:`repro.data.relation.Relation.trie`).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from ..errors import SchemaError
# ``parent * width + offset`` keys stay clear of the int64 range
# (``_KEY_LIMIT``), and a level whose offsets would not switches to
# ranks; a rank bitmap may take ``_BITMAP_RATIO`` times a level's
# ``keys`` bytes.  Both are the relation module's, whose packed keys and
# key-group tables they bound too.
from .relation import _BITMAP_RATIO, _KEY_LIMIT, Relation, sorted_distinct

__all__ = ["Trie", "TrieLevels"]


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
    A level small enough (:data:`_BITMAP_RATIO`) also has a rank bitmap
    over its slots ``0 .. parents * width``: bit ``key % 64`` of
    ``bits[l][key // 64]`` is set for every key, and ``rank[l][w]`` is
    the number of keys in the words before ``w`` (for every word that
    holds a key; 0 elsewhere), so key ``x`` is node ``rank[l][x // 64]``
    plus the set bits below it in its word.  The deepest level has no
    ``rank`` (its nodes have no children to descend to, so the kernel
    only asks whether they exist); both are ``None`` on a level without
    a bitmap.  :meth:`probe` reads the bitmap where a level has a rank,
    :meth:`contains` wherever it has bits; each agrees with the search
    of ``keys`` it replaces.
    """

    vals: tuple[np.ndarray, ...]
    ptr: tuple[np.ndarray, ...]
    keys: tuple[np.ndarray | None, ...]
    vmin: tuple[int, ...]
    width: tuple[int, ...]
    distinct: tuple[np.ndarray | None, ...]
    bits: tuple[np.ndarray | None, ...]
    rank: tuple[np.ndarray | None, ...]

    @property
    def nbytes(self) -> int:
        """Bytes held by every level array."""
        return sum(int(a.nbytes) for group in (self.vals, self.ptr,
                                                 self.keys, self.distinct,
                                                 self.bits, self.rank)
                   for a in group if a is not None)

    def _slots(self, level: int, parents: np.ndarray, values: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """``(parents * width + code(values), known)``: the key each pair
        would have, and whether ``values[i]`` is a value of the level at
        all (the key is meaningless where it is not)."""
        width = self.width[level]
        distinct = self.distinct[level]
        if distinct is None:
            vmin = self.vmin[level]
            code = values - vmin
            known = (values >= vmin) & (values < vmin + width)
        else:
            code = np.minimum(np.searchsorted(distinct, values), width - 1)
            known = distinct[code] == values
        code += parents * width
        return code, known

    def _bit(self, level: int, slot: np.ndarray, known: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per slot (slot 0 where the value is not ``known``): its word
        index, that bitmap word, its one-bit mask in the word, and the
        hit mask.  ``slot`` is consumed."""
        np.copyto(slot, 0, where=~known)
        mask = np.left_shift(np.uint64(1), (slot & 63).astype(np.uint64))
        slot >>= 6
        word = self.bits[level][slot]
        found = (word & mask).astype(bool)
        found &= known
        return slot, word, mask, found

    def probe(self, level: int, parents: np.ndarray | None,
              values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Look ``values[i]`` up among the children of ``parents[i]``.

        ``parents`` are level ``level - 1`` node indices (ignored at
        level 0, whose only parent is the root).  Returns ``(nodes,
        found)``: the level-``level`` node index of every hit, and the
        hit mask; ``nodes`` is meaningless where ``found`` is False.
        """
        hay = self.vals[0] if level == 0 else self.keys[level]
        if not hay.shape[0]:
            return (np.zeros(values.shape[0], dtype=np.int64),
                    np.zeros(values.shape[0], dtype=bool))
        if level == 0:
            needles = values
        else:
            slot, known = self._slots(level, parents, values)
            if self.rank[level] is not None:
                index, word, mask, found = self._bit(level, slot, known)
                # The node is the word's rank plus the keys below the
                # slot's bit in its word.
                mask -= np.uint64(1)
                word &= mask
                nodes = np.add(self.rank[level][index],
                               np.bitwise_count(word), dtype=np.int64)
                return nodes, found
            # -1 sorts before every key and matches none.
            needles = np.where(known, slot, -1)
        nodes = np.searchsorted(hay, needles)
        np.minimum(nodes, hay.shape[0] - 1, out=nodes)
        return nodes, hay[nodes] == needles

    def contains(self, level: int, parents: np.ndarray | None,
                 values: np.ndarray) -> np.ndarray:
        """The ``found`` mask of :meth:`probe`, without the node index
        (on a bitmap level, no rank is read)."""
        if level == 0 or self.bits[level] is None:
            return self.probe(level, parents, values)[1]
        return self._bit(level, *self._slots(level, parents, values))[3]


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
        bits, rank = [], []
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
            level_keys = level_distinct = level_bits = level_rank = None
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
                # parent * width + offset, each parent's base repeated
                # over its children, in place: in a pool worker a large
                # temporary is often a fresh mapping, paid for in page
                # faults.
                parents = ptr[-1].shape[0] - 1
                level_keys = np.repeat(
                    np.arange(parents, dtype=np.int64) * width,
                    np.diff(ptr[-1]))
                level_keys += offset
                words = (parents * width + 63) >> 6
                ranked = j + 1 < self.data.shape[1]
                if rows and ((12 if ranked else 8) * words
                             <= _BITMAP_RATIO * level_keys.nbytes):
                    level_bits, level_rank = _rank_bitmap(level_keys, words,
                                                          ranked)
            vals.append(level_vals)
            keys.append(level_keys)
            vmins.append(vmin)
            widths.append(width)
            distinct.append(level_distinct)
            bits.append(level_bits)
            rank.append(level_rank)
            change = longer
        return TrieLevels(tuple(vals), tuple(ptr), tuple(keys),
                          tuple(vmins), tuple(widths), tuple(distinct),
                          tuple(bits), tuple(rank))


def _rank_bitmap(keys: np.ndarray, words: int, ranked: bool
                 ) -> tuple[np.ndarray, np.ndarray | None]:
    """The ``(bits, rank)`` arrays of sorted distinct ``keys`` over
    ``words`` 64-slot words (``rank`` None unless ``ranked``).

    Keys are distinct, so adding a word's bits ORs them: ``np.add.at``
    takes numpy's unbuffered fast path for a matching dtype, about 3x
    quicker than a ``reduceat`` over the word runs at tri-skew's shape
    (``np.bitwise_or.at`` has no such path and is 4x slower still).  A
    word's rank is the index of its first key; a word that holds no key
    keeps rank 0, since no hit reads it.
    """
    word = keys >> 6
    bit = keys & 63
    np.left_shift(1, bit, out=bit)      # bit 63 wraps negative: same bits
    bits = np.zeros(words, dtype=np.uint64)
    np.add.at(bits, word, bit.view(np.uint64))
    rank = None
    if ranked:
        new = np.empty(keys.shape[0], dtype=bool)
        new[0] = True
        np.not_equal(word[1:], word[:-1], out=new[1:])
        first = np.flatnonzero(new)
        rank = np.zeros(words, dtype=np.int32)
        rank[word[first]] = first
    return bits, rank
