"""Relations: named sets of fixed-arity integer tuples backed by numpy.

A :class:`Relation` is the unit of data everywhere in the library: the
graph datasets are binary relations, HCube shuffles relations between
servers, pre-computed bags are relations, and Leapfrog consumes trie
indexes built from relations.

Values are ``int64``.  The tuple set is deduplicated on construction (the
paper works with set semantics — natural joins of edge relations).

Sorting and matching go through one **packed key**: a row becomes a
single ``int64``, mixed radix over ``value - min`` per column, so that
row order is key order and row equality is key equality.  A set is then
one ``np.sort`` of a 1-D array (:func:`sorted_set_rows`) and a join
probe one gather from a table indexed by packed key (one
``searchsorted`` of both sides' keys where they are too sparse for a
table); when the radix product would reach ``2**62`` the key does not
fit and the same functions fall back to ``np.lexsort`` /
:func:`row_group_ids`.

A relation remembers when its rows are a lexsorted set
(:attr:`Relation.is_sorted_set`): the ``dedup=True`` constructor and
:meth:`Relation.natural_join` establish it, row filters and renames keep
it, column permutations drop it.  Nothing that knows it re-sorts.
:meth:`Relation.block_layout` is the sort that does not deduplicate:
the rows in a given column order, grouped into hash blocks and lexsorted
within each, sorted once per (order, grouping) and memoized (the routed
epoch publishes sources through it, so every cube slice is one
contiguous, sorted row range).
:class:`JoinProbe` is the binary-join step on top of
:meth:`Relation.key_groups` — the rows sorted in (join columns,
remaining columns) order and grouped by join key, memoized like the
trie, with the group keys packed and, for a right side, a direct
table from key to group: the left side's group or row keys are looked
up in the right's table, so the output size — and that the output is
born a lexsorted set — is known before a single output row is
gathered.  A kept relation is sorted, grouped and indexed once, however
many steps read it.

Distinct values are counted by one sort and a diff
(:func:`sorted_distinct`), never by plain ``np.unique``, which may take
a much slower hash path.
"""

from __future__ import annotations

import hashlib
import math
import time
from typing import (TYPE_CHECKING, Callable, Hashable, Iterable, Iterator,
                    Mapping, Sequence)

import numpy as np

from ..errors import SchemaError

if TYPE_CHECKING:
    from .trie import Trie

__all__ = ["Relation", "BlockLayout", "JoinProbe", "row_group_ids",
           "row_keys", "lexsorted_rows", "sorted_set_rows",
           "sorted_distinct"]

#: Packed keys stay clear of the int64 range (the guard ``TrieLevels.keys``
#: uses); rows whose radix product reaches it take the fallback paths.
_KEY_LIMIT = 2 ** 62

#: Most bytes a direct-addressed index may take, as a multiple of the
#: bytes of the sorted keys it stands in for: a trie level's rank bitmap
#: (8 bytes of bits per 64 slots, plus 4 of rank above the deepest
#: level) against the level's ``keys``, and a key-group table (4 bytes a
#: slot of the join columns' packed span) against the packed group keys.
#: A constant, not a setting: on 500 k random probes a bitmap lookup
#: beat the search of ``keys`` 5-10x at every density measured (2x to
#: 128x), so the bound only caps resident bytes.  The densest index of
#: the benchmark workloads is a tri-skew cube's trie level at 12.3x;
#: a path-uniform cube's table is 1.3x.
_BITMAP_RATIO = 16


def _as_data(data, arity: int) -> np.ndarray:
    """Coerce ``data`` to an (n, arity) contiguous int64 array."""
    arr = np.asarray(data, dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, arity), dtype=np.int64)
    if arr.ndim == 1:
        if arity == 1:
            arr = arr.reshape(-1, 1)
        else:
            raise SchemaError(
                f"1-d data given for relation of arity {arity}; expected "
                f"shape (n, {arity})"
            )
    if arr.ndim != 2 or arr.shape[1] != arity:
        raise SchemaError(
            f"data of shape {arr.shape} does not match arity {arity}"
        )
    return np.ascontiguousarray(arr)


def lexsorted_rows(arr: np.ndarray) -> np.ndarray:
    """Return ``arr`` with rows sorted lexicographically (first column major)."""
    if arr.shape[0] <= 1:
        return arr
    # np.lexsort sorts by the *last* key first, so feed columns reversed.
    order = np.lexsort(tuple(arr[:, j] for j in range(arr.shape[1] - 1, -1, -1)))
    return arr[order]


def _run_starts(arr: np.ndarray) -> np.ndarray:
    """Mask of the values (1-D) or rows (2-D) of a sorted array that
    differ from the one before: the first of each run of equal ones."""
    starts = np.empty(arr.shape[0], dtype=bool)
    starts[:1] = True
    if arr.ndim == 1:
        np.not_equal(arr[1:], arr[:-1], out=starts[1:])
        return starts
    # Column by column: cheaper than an ``any`` over a narrow axis.
    np.not_equal(arr[1:, 0], arr[:-1, 0], out=starts[1:])
    for j in range(1, arr.shape[1]):
        starts[1:] |= arr[1:, j] != arr[:-1, j]
    return starts


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-D array: one sort and a diff.

    The one distinct primitive on the query path.  Plain ``np.unique``
    may take a hash path instead (numpy 2.x), an order of magnitude
    slower on int64 columns of a few 100 k values.
    """
    out = np.sort(values)
    return out[_run_starts(out)]


def row_group_ids(*arrays: np.ndarray) -> list[np.ndarray]:
    """Assign a shared integer id to equal rows across several arrays.

    All arrays must have the same number of columns.  Rows that compare
    equal (within or across arrays) receive the same id.  This is the
    equality backbone for hash-join-style matching without Python dicts.
    """
    non_empty = [a for a in arrays if a.shape[0]]
    if not non_empty:
        return [np.empty(0, dtype=np.int64) for _ in arrays]
    stacked = np.vstack(non_empty)
    _, inverse = np.unique(stacked, axis=0, return_inverse=True)
    inverse = inverse.astype(np.int64, copy=False)
    out: list[np.ndarray] = []
    offset = 0
    for a in arrays:
        n = a.shape[0]
        out.append(inverse[offset:offset + n])
        offset += n
    return out


def _radix(*arrays: np.ndarray) -> tuple[list[int], list[int]] | None:
    """Per-column ``(mins, widths)`` over the rows of all ``arrays``.

    ``None`` when the product of the widths reaches :data:`_KEY_LIMIT`,
    i.e. the rows do not pack into one int64.  At least one array must
    have rows; all must have the same number of columns.
    """
    arrays = tuple(a for a in arrays if a.shape[0])
    mins: list[int] = []
    widths: list[int] = []
    span = 1
    for j in range(arrays[0].shape[1]):
        lo = min(int(a[:, j].min()) for a in arrays)
        hi = max(int(a[:, j].max()) for a in arrays)
        mins.append(lo)
        widths.append(hi - lo + 1)
        span *= hi - lo + 1
    return (mins, widths) if span < _KEY_LIMIT else None


def _pack(arr: np.ndarray, mins: list[int], widths: list[int]) -> np.ndarray:
    """Mixed-radix key of every row: row order is key order."""
    key = arr[:, 0] - mins[0]
    for j in range(1, arr.shape[1]):
        key *= widths[j]
        key += arr[:, j] - mins[j]
    return key


def _unpack(key: np.ndarray, mins: list[int],
            widths: list[int]) -> np.ndarray:
    """Inverse of :func:`_pack`: the rows as an (n, k) array."""
    out = np.empty((key.shape[0], len(mins)), dtype=np.int64)
    for j in range(len(mins) - 1, 0, -1):
        key, out[:, j] = np.divmod(key, widths[j])
    out[:, 0] = key
    out += np.asarray(mins, dtype=np.int64)
    return out


def _sorted_rows(arr: np.ndarray, dedup: bool) -> np.ndarray:
    """Rows in lexicographic order, optionally without duplicates.

    One ``np.sort`` of the packed key, decoded back into columns; rows
    too wide to pack take ``np.lexsort``.
    """
    if arr.shape[0] <= 1:
        return arr
    radix = _radix(arr)
    if radix is None:
        arr = lexsorted_rows(arr)
        return arr[_run_starts(arr)] if dedup else arr
    key = _pack(arr, *radix)
    key.sort()
    if dedup:
        key = key[_run_starts(key)]
    return _unpack(key, *radix)


def _group_rows(arr: np.ndarray,
                block_ids: Callable[[np.ndarray], np.ndarray],
                num_blocks: int, lexsorted: bool
                ) -> tuple[np.ndarray, np.ndarray, bool]:
    """``arr``'s rows sorted by (block id, row): ``(rows, bounds,
    distinct)``, block ``b`` being ``rows[bounds[b]:bounds[b + 1]]``.

    A lexsort (none for an ``arr`` that is a ``lexsorted`` set already),
    then a stable sort by the narrow block ids — numpy's radix sort.
    """
    rows = arr if lexsorted else _sorted_rows(arr, dedup=False)
    distinct = lexsorted or rows.shape[0] <= 1 or bool(
        np.any(rows[1:] != rows[:-1], axis=1).all())
    ids = block_ids(rows)
    if ids.shape[0] > 1 and np.any(ids[1:] < ids[:-1]):
        # A stable sort by block keeps each block lexsorted.
        rows = rows[np.argsort(ids, kind="stable")]
    return rows, _block_bounds(ids, num_blocks), distinct


def _block_bounds(ids: np.ndarray, num_blocks: int) -> np.ndarray:
    """Where each block starts once rows are sorted by block id."""
    bounds = np.zeros(num_blocks + 1, dtype=np.intp)
    np.cumsum(np.bincount(ids, minlength=num_blocks), out=bounds[1:])
    return bounds


def sorted_set_rows(arr: np.ndarray) -> np.ndarray:
    """The distinct rows of an (n, k) int64 array in lexicographic order."""
    return _sorted_rows(arr, dedup=True)


def row_keys(*arrays: np.ndarray) -> list[np.ndarray]:
    """1-D keys for the rows of ``arrays`` over their joint range.

    Rows are equal iff their keys are, and ordered as their keys are —
    packed keys, or lexicographic group ranks when they do not fit.  At
    least one array must have rows.
    """
    radix = _radix(*arrays)
    if radix is None:
        return row_group_ids(*arrays)
    return [_pack(a, *radix) for a in arrays]


class Relation:
    """An immutable named relation over integer attributes.

    Parameters
    ----------
    name:
        Relation name (e.g. ``"R1"``).
    attributes:
        Attribute names in column order; must be distinct.
    data:
        Anything coercible to an ``(n, len(attributes))`` int64 array.
    dedup:
        Deduplicate rows (set semantics); the rows are then a lexsorted
        set and the relation knows it.  Callers that already hold a
        deduplicated array may pass ``False`` to skip the sort.
    """

    __slots__ = ("name", "attributes", "data", "_distinct", "_sorted",
                 "_layout", "_trie", "_groups", "_digest")

    def __init__(self, name: str, attributes: Sequence[str], data=(),
                 dedup: bool = True):
        attributes = tuple(attributes)
        if len(set(attributes)) != len(attributes):
            raise SchemaError(f"duplicate attributes in schema {attributes}")
        if not attributes:
            raise SchemaError("a relation needs at least one attribute")
        self.name = name
        self.attributes = attributes
        arr = _as_data(data, len(attributes))
        if dedup:
            arr = sorted_set_rows(arr)
        self.data = arr
        self.data.setflags(write=False)
        #: True when the rows are known to be a lexsorted set (sorted by
        #: ``attributes``, no duplicates); False means unknown.
        self._sorted = dedup or arr.shape[0] <= 1
        #: Memoized per-column distinct counts (column index -> count);
        #: shared across rename (same data) and remapped by reorder/project.
        self._distinct: dict[int, int] = {}
        #: The last :meth:`block_layout` as ``((attrs, key), layout)``.
        self._layout: tuple[tuple, BlockLayout] | None = None
        #: The last two :meth:`trie` as ``[(column indices, Trie)]``:
        #: one cell, shared with renames (same rows, same columns).
        self._trie: list = []
        #: The last two :meth:`key_groups` as ``[((column indices,
        #: width), (rows, bounds))]``, shared with renames like the trie.
        self._groups: list = []
        self._digest: str | None = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def wrap(cls, name: str, attributes: Sequence[str], data,
            sorted_set: bool) -> "Relation":
        """Wrap ``data`` as is; ``sorted_set`` vouches for its order."""
        out = cls(name, attributes, data, dedup=False)
        out._sorted = out._sorted or sorted_set
        return out

    def sorted_set(self, attrs: Sequence[str] | None = None) -> "Relation":
        """This relation as a lexsorted set in column order ``attrs``.

        ``self`` when it already is one in that order; otherwise the one
        sort (which also deduplicates) happens here.
        """
        attrs = self.attributes if attrs is None else tuple(attrs)
        if attrs == self.attributes:
            if self._sorted:
                return self
            data = self.data
        else:
            data = self.data[:, [self.column_index(a) for a in attrs]]
        return Relation(self.name, attrs, data, dedup=True)

    def block_layout(self, attrs: Sequence[str], key: Hashable,
                     block_ids: Callable[[np.ndarray], np.ndarray],
                     num_blocks: int) -> "BlockLayout":
        """These rows in column order ``attrs``, grouped into blocks.

        ``block_ids(rows)`` maps rows (columns in ``attrs`` order) to
        block ids in ``[0, num_blocks)``; ``key`` names that function
        (the memo cannot compare functions).  The rows are sorted once —
        by block, then lexicographically — and duplicates are kept.  The
        relation memoizes one layout, the last one asked for: a query
        lays each relation out once, and a warm query asks for the same
        one again; another ``(attrs, key)`` replaces it.
        """
        attrs = tuple(attrs)
        memo_key = (attrs, key)
        memo = self._layout
        if memo is not None and memo[0] == memo_key:
            return memo[1]
        idx = [self.column_index(a) for a in attrs]
        if sorted(idx) != list(range(self.arity)):
            raise SchemaError(
                f"{attrs} is not a permutation of {self.attributes}")
        rows, bounds, distinct = _group_rows(
            self.data if attrs == self.attributes else self.data[:, idx],
            block_ids, num_blocks,
            lexsorted=attrs == self.attributes and self._sorted)
        layout = BlockLayout(attrs, rows, bounds, distinct, memo_key)
        self._layout = (memo_key, layout)
        return layout

    def trie(self, attrs: Sequence[str]) -> "Trie":
        """A :class:`~repro.data.trie.Trie` over these rows in column
        order ``attrs``, its levels built.

        Memoized like :meth:`key_groups` — the last two orders asked
        for, since a self-join reads one relation in two orders — in a
        cell every rename of this relation shares (same rows, same
        columns), so a relation kept between tasks (a worker-resident
        input, :mod:`repro.runtime.residency`) builds its tries once.
        """
        from .trie import Trie

        attrs = tuple(attrs)
        idx = tuple(self.column_index(a) for a in attrs)
        for memo_idx, trie in tuple(self._trie):
            if memo_idx == idx:
                break
        else:
            trie = Trie(self, attrs)
            trie.levels()
            self._trie[:] = [(idx, trie)] + self._trie[:1]
        return trie.renamed(self.name, attrs)

    def key_groups(self, attrs: Sequence[str], width: int
                   ) -> tuple["Relation", np.ndarray]:
        """These rows as a lexsorted set in column order ``attrs``,
        grouped by their first ``width`` columns: ``(rows, bounds)``,
        group ``g`` being rows ``bounds[g]:bounds[g + 1]`` (no column:
        all rows are one group, none when there is no row).

        One sort (none for a lexsorted set already in that order) and
        one diff over the ``width`` columns (none when they are all the
        columns: a set's rows are its groups).  The memo entry also
        keeps what a join step reads on every query, each part built
        the first time a step reads it (:class:`_KeyGroups`): the group
        keys packed in these rows' own radix over the ``width`` columns
        (a one-column left side's probe), and, for a right side whose
        key span is dense enough, a table from packed key to group.
        Memoized — the last two asked for, since a self-join reads one
        relation in two orders — in a cell every rename shares, so a
        relation kept between tasks (a worker-resident input) is
        grouped, packed and tabled once.  An entry only ever gains its
        keys and table, so threads racing on the cell at worst build
        twice.
        """
        out, groups = self._key_groups(attrs, width)
        return out, groups.bounds

    def _key_groups(self, attrs: Sequence[str], width: int
                    ) -> tuple["Relation", "_KeyGroups"]:
        """:meth:`key_groups` with its whole memo entry."""
        attrs = tuple(attrs)
        key = (tuple(self.column_index(a) for a in attrs), width)
        for memo_key, memo in tuple(self._groups):
            if memo_key == key:
                break
        else:
            memo = _KeyGroups(self.sorted_set(attrs).data, width)
            self._groups[:] = [(key, memo)] + self._groups[:1]
        out = Relation.wrap(self.name, attrs, memo.rows, True)
        # The rows know their own groups: a step that reads them as its
        # left side finds them without a diff.
        out._groups.append(((tuple(range(len(attrs))), width), memo))
        return out, memo

    @property
    def index_nbytes(self) -> int:
        """Bytes the memoized :meth:`trie` and :meth:`key_groups` hold
        beyond these rows."""
        extra = 0
        for _, trie in tuple(self._trie):
            extra += trie.levels().nbytes
            if trie.data is not self.data:
                extra += int(trie.data.nbytes)
        for _, groups in tuple(self._groups):
            extra += groups.nbytes
            if groups.rows is not self.data:
                extra += int(groups.rows.nbytes)
        return extra

    @classmethod
    def from_tuples(cls, name: str, attributes: Sequence[str],
                    tuples: Iterable[Sequence[int]]) -> "Relation":
        """Build a relation from an iterable of python tuples."""
        rows = [tuple(t) for t in tuples]
        return cls(name, attributes, np.asarray(rows, dtype=np.int64)
                   if rows else (), dedup=True)

    @classmethod
    def from_edges(cls, name: str, edges: np.ndarray,
                   attributes: Sequence[str] = ("src", "dst")) -> "Relation":
        """Build a binary relation from an (m, 2) edge array."""
        if len(tuple(attributes)) != 2:
            raise SchemaError("from_edges needs exactly two attributes")
        return cls(name, attributes, edges, dedup=True)

    # -- basic protocol --------------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.attributes)

    @property
    def is_sorted_set(self) -> bool:
        """True when the rows are known to be a lexsorted set (sorted by
        :attr:`attributes`, no duplicates); False means unknown."""
        return self._sorted

    @property
    def digest(self) -> str:
        """Content hash (hex sha256) of the attributes, dtype, shape and
        rows, not the name: the one place row bytes are hashed.  Kept
        after first use; the rows are write-protected."""
        if self._digest is None:
            digest = hashlib.sha256(repr(
                (self.attributes, self.data.dtype.str, self.data.shape)
            ).encode())
            digest.update(self.data.data)    # C-contiguous (_as_data)
            self._digest = digest.hexdigest()
        return self._digest

    def __len__(self) -> int:
        return int(self.data.shape[0])

    def __bool__(self) -> bool:
        return self.data.shape[0] > 0

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        for row in self.data:
            yield tuple(int(v) for v in row)

    def __contains__(self, t: Sequence[int]) -> bool:
        t = np.asarray(tuple(t), dtype=np.int64)
        if t.shape != (self.arity,):
            return False
        if not len(self):
            return False
        return bool(np.any(np.all(self.data == t, axis=1)))

    def __eq__(self, other) -> bool:
        """Set equality of tuples; name is ignored, schema must match."""
        if not isinstance(other, Relation):
            return NotImplemented
        if self.attributes != other.attributes:
            return False
        if len(self) != len(other):
            return False
        a, b = (r.data if r._sorted else _sorted_rows(r.data, dedup=False)
                for r in (self, other))
        return bool(np.array_equal(a, b))

    def __hash__(self):  # pragma: no cover - relations are not dict keys
        raise TypeError("Relation is not hashable")

    def __repr__(self) -> str:
        attrs = ", ".join(self.attributes)
        return f"Relation({self.name}({attrs}), {len(self)} tuples)"

    # -- memory accounting ------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Size of the payload in bytes (8 bytes per value, as int64)."""
        return int(self.data.nbytes)

    @property
    def num_values(self) -> int:
        """Total number of integer values stored (the paper counts these)."""
        return int(self.data.size)

    # -- column access ----------------------------------------------------------

    def column_index(self, attr: str) -> int:
        try:
            return self.attributes.index(attr)
        except ValueError:
            raise SchemaError(
                f"attribute {attr!r} not in schema {self.attributes}"
            ) from None

    def column(self, attr: str) -> np.ndarray:
        """The raw column for ``attr`` (duplicates preserved)."""
        return self.data[:, self.column_index(attr)]

    def distinct_values(self, attr: str) -> np.ndarray:
        """Sorted distinct values of ``attr``."""
        return sorted_distinct(self.column(attr))

    def distinct_count(self, attr: str) -> int:
        """Number of distinct values of ``attr``, memoized per column.

        Plan search (:func:`repro.wcoj.binary_join._estimate_join_size`,
        degree-order selection, the adaptive kernel chooser) asks for the
        same counts repeatedly; the O(n log n) sort runs once.
        """
        j = self.column_index(attr)
        count = self._distinct.get(j)
        if count is None:
            count = int(sorted_distinct(self.data[:, j]).shape[0])
            self._distinct[j] = count
        return count

    # -- relational algebra -------------------------------------------------------

    def _share_distinct(self, out: "Relation",
                        idx: Sequence[int]) -> "Relation":
        """Carry cached distinct counts onto a derived relation.

        Valid whenever ``out``'s column ``k`` holds exactly the values of
        our column ``idx[k]`` (rename/reorder keep rows; projection drops
        duplicate rows only, which never removes a value from a column).
        """
        out._distinct = {k: self._distinct[j]
                         for k, j in enumerate(idx) if j in self._distinct}
        return out

    def project(self, attrs: Sequence[str], name: str | None = None) -> "Relation":
        """Duplicate-eliminating projection onto ``attrs`` (in given order)."""
        attrs = tuple(attrs)
        idx = [self.column_index(a) for a in attrs]
        return self._share_distinct(
            Relation(name or self.name, attrs, self.data[:, idx], dedup=True),
            idx)

    def rename(self, mapping: Mapping[str, str], name: str | None = None) -> "Relation":
        """Rename attributes via ``mapping`` (missing attrs stay)."""
        attrs = tuple(mapping.get(a, a) for a in self.attributes)
        out = Relation.wrap(name or self.name, attrs, self.data, self._sorted)
        out._distinct = self._distinct  # same data, same column order
        out._trie = self._trie
        out._groups = self._groups
        return out

    def reorder(self, attrs: Sequence[str], name: str | None = None) -> "Relation":
        """Reorder columns to ``attrs`` — a permutation of the schema."""
        attrs = tuple(attrs)
        if set(attrs) != set(self.attributes) or len(attrs) != self.arity:
            raise SchemaError(
                f"{attrs} is not a permutation of {self.attributes}"
            )
        idx = [self.column_index(a) for a in attrs]
        # Only the identity keeps the rows lexsorted by the new schema.
        return self._share_distinct(
            Relation.wrap(name or self.name, attrs, self.data[:, idx],
                          self._sorted and attrs == self.attributes),
            idx)

    def select_equals(self, attr: str, value: int, name: str | None = None) -> "Relation":
        """Selection sigma_{attr = value}."""
        col = self.column(attr)
        return Relation.wrap(name or self.name, self.attributes,
                             self.data[col == np.int64(value)],
                             self._sorted)

    def select_in(self, attr: str, values: np.ndarray,
                  name: str | None = None) -> "Relation":
        """Selection sigma_{attr in values}."""
        values = np.asarray(values, dtype=np.int64)
        mask = np.isin(self.column(attr), values)
        return Relation.wrap(name or self.name, self.attributes,
                             self.data[mask], self._sorted)

    def common_attributes(self, other: "Relation") -> tuple[str, ...]:
        return tuple(a for a in self.attributes if a in other.attributes)

    def semijoin(self, other: "Relation", name: str | None = None) -> "Relation":
        """Keep tuples whose projection on the shared attrs appears in ``other``."""
        common = self.common_attributes(other)
        if common and len(self) and len(other):
            mine, theirs = row_keys(
                self.data[:, [self.column_index(a) for a in common]],
                other.data[:, [other.column_index(a) for a in common]])
            kept = self.data[np.isin(mine, theirs)]
        else:
            # Nothing shared keeps everything — unless ``other`` is
            # empty: then the join would be empty too.
            kept = self.data if len(other) else self.data[:0]
        return Relation.wrap(name or self.name, self.attributes, kept,
                             self._sorted)

    def natural_join(self, other: "Relation", name: str | None = None) -> "Relation":
        """Natural join under set semantics (sort-once merge probe).

        The output is a lexsorted set by construction; see
        :class:`JoinProbe`.
        """
        return JoinProbe(self, other).rows(name)

    def union(self, other: "Relation", name: str | None = None) -> "Relation":
        """Set union; schemas must match exactly."""
        if self.attributes != other.attributes:
            raise SchemaError(
                f"union of mismatched schemas {self.attributes} vs "
                f"{other.attributes}"
            )
        return Relation(name or self.name, self.attributes,
                        np.vstack([self.data, other.data]), dedup=True)

    def as_set(self) -> frozenset[tuple[int, ...]]:
        """The tuple set as a frozenset (test helper; O(n) python objects)."""
        return frozenset(map(tuple, self.data.tolist()))


class BlockLayout:
    """A relation's rows in one column order, grouped into blocks.

    Block ``b`` is the contiguous row range ``data[bounds[b]:bounds[b +
    1]]``, lexsorted within, so a consumer of one block takes a slice —
    no row index, no gather.  ``is_sorted_set`` says the rows are
    distinct (every block is then a lexsorted set).  Built by
    :meth:`Relation.block_layout`; read-only.
    """

    __slots__ = ("attributes", "data", "bounds", "is_sorted_set", "key",
                 "_groupings")

    def __init__(self, attributes: tuple[str, ...], data: np.ndarray,
                 bounds: np.ndarray, is_sorted_set: bool, key: Hashable):
        self.attributes = attributes
        #: What :meth:`Relation.block_layout` memoized it under:
        #: ``(attributes, grouping key)``.
        self.key = key
        self.data = data
        self.data.setflags(write=False)
        self.bounds = bounds
        self.is_sorted_set = is_sorted_set
        self._groupings: dict[Hashable, tuple[np.ndarray, np.ndarray]] = {}

    def block(self, b: int) -> slice:
        """Block ``b``'s row range."""
        return slice(int(self.bounds[b]), int(self.bounds[b + 1]))

    def grouping(self, key: Hashable,
                 block_ids: Callable[[np.ndarray], np.ndarray],
                 num_blocks: int) -> tuple[np.ndarray, np.ndarray]:
        """Row indices of these rows under another grouping.

        Returns ``(rows, bounds)``: group ``g`` is ``data[rows[bounds[g]:
        bounds[g + 1]]]``, in lexicographic order, so its slices are as
        sorted as this layout's blocks.  For a reader of the same rows
        hashed on other columns (a self-join's second atom); memoized
        per ``key`` until :meth:`keep_groupings` drops it.
        """
        found = self._groupings.get(key)
        if found is not None:
            return found
        ids = block_ids(self.data)
        if self.bounds.shape[0] <= 2 or self.data.shape[0] <= 1:
            # One block (or row): the rows are lexsorted already.
            lex = np.arange(self.data.shape[0], dtype=np.int64)
        else:
            (keys,) = row_keys(self.data)
            lex = np.argsort(keys, kind="stable").astype(np.int64,
                                                         copy=False)
        found = (lex[np.argsort(ids[lex], kind="stable")],
                 _block_bounds(ids, num_blocks))
        self._groupings[key] = found
        return found

    def keep_groupings(self, keys: Iterable[Hashable]) -> None:
        """Drop every memoized grouping but those of ``keys`` (a route
        keeps the ones its own grid read).  The memo is swapped, never
        shrunk in place, so a concurrent :meth:`grouping` is safe."""
        held = self._groupings
        self._groupings = {k: held[k] for k in keys if k in held}


class _KeyGroups:
    """One :meth:`Relation.key_groups` memo entry: what a join step reads.

    ``rows`` (a lexsorted set) grouped by their first ``width`` columns,
    group ``g`` being ``rows[bounds[g]:bounds[g + 1]]``.  ``radix`` is
    those columns' own ``(mins, widths)``, None with no join column, no
    row, or a radix product that reaches :data:`_KEY_LIMIT`.
    :meth:`keys` packs every group's key in it and :meth:`table` maps a
    packed key to its group, each built on first use and kept.
    """

    __slots__ = ("rows", "bounds", "radix", "_keys", "_table")

    def __init__(self, rows: np.ndarray, width: int):
        n = rows.shape[0]
        if width == rows.shape[1]:      # a set: one row a group
            bounds = np.arange(n + 1)
        elif width:
            bounds = np.flatnonzero(_run_starts(rows[:, :width]))
            bounds = np.append(bounds, n)
        else:
            bounds = np.array([0, n] if n else [0], dtype=np.intp)
        self.rows = rows
        self.bounds = bounds
        # The groups' keys hold the same values per column as the rows.
        self.radix = _radix(rows[:, :width]) if width and n else None
        self._keys = self._table = None

    @property
    def nbytes(self) -> int:
        """Bytes held beyond the rows."""
        return sum(int(a.nbytes) for a in (self.bounds, self._keys,
                                           self._table) if a is not None)

    def keys(self) -> np.ndarray | None:
        """Every group's key packed in :attr:`radix`, ascending (None:
        no radix)."""
        if self._keys is None and self.radix is not None:
            heads = _group_heads(self.rows, self.bounds, len(self.radix[0]))
            self._keys = _pack(heads, *self.radix)
        return self._keys

    def table(self) -> np.ndarray | None:
        """``int32`` group of every packed key over the keys' span (-1:
        no group), or None when the span is too sparse: the table may
        take :data:`_BITMAP_RATIO` times the bytes of :meth:`keys`.
        Built once; a step reads it only for its right side."""
        groups = self.bounds.shape[0] - 1
        if self._table is None and self.radix is not None:
            span = math.prod(self.radix[1])
            if 4 * span <= _BITMAP_RATIO * 8 * groups and groups < 2 ** 31:
                table = np.full(span, -1, dtype=np.int32)
                table[self.keys()] = np.arange(groups, dtype=np.int32)
                self._table = table
        return self._table

    def find(self, keys: np.ndarray, known: np.ndarray | None
             ) -> tuple[np.ndarray, np.ndarray]:
        """``(i, g)``: the probe ``keys[i]`` that are group ``g``'s key,
        ``keys`` packed in :attr:`radix` and meaningful where ``known``
        (None: everywhere).  One gather from the :meth:`table`, which
        must exist."""
        # Clipped: a key out of range is not ``known``, and reads any slot.
        group = self._table.take(keys, mode="clip")
        hit = group >= 0
        if known is not None:
            hit &= known
        i = np.flatnonzero(hit)
        return i, group[i]


class JoinProbe:
    """One binary join step: probed and sized, output not yet gathered.

    Both sides are taken as sets.  The right side is read through
    :meth:`Relation.key_groups` in column order (join columns, remaining
    columns): its rows grouped by join key, memoized with the group keys
    packed in the right's own radix and, where their span is dense, a
    direct table from packed key to group, so a kept relation (a
    worker-resident input) is sorted, grouped and indexed once, not per
    step.  A ``left`` that is a lexsorted set with its join columns
    leading is grouped the same way (no sort: a diff, memoized too), and
    its memoized group keys are the probe; any other ``left`` (an
    intermediate in its own order) is probed row by row, its key
    columns the probe.  The probe is packed in the right's radix (a
    value outside a right column's range is a miss) and looked up with
    one gather from the right's table.  A right with no table (its keys
    too sparse, or too wide to pack) ranks both sides' keys jointly
    (:func:`row_keys`) and matches them with one ``searchsorted``
    (:func:`_match`).  ``size``, the dot product of the matched groups'
    row counts, is the output size: a count, or a budget check, needs no
    output row, and nothing re-sorts a kept right side or argsorts a
    key.  With no join column each side is one group, so the cartesian
    product is the same code.

    :meth:`rows` gathers left rows in order times their right rests in
    order.  Because both inputs are sets, that output is a set and is
    born lexsorted by ``left.attributes + rest``: no output sort or
    dedup.  With no shared attribute every left row matches the whole
    right side (cartesian product), through the same gather.
    """

    __slots__ = ("left", "right", "common", "size", "build_seconds",
                 "_groups")

    def __init__(self, left: Relation, right: Relation):
        common = left.common_attributes(right)
        width = len(common)
        t0 = time.perf_counter()
        #: The two sides as lexsorted sets: ``right`` join columns
        #: first; ``left`` in its own column order.
        self.right, rgroups = right._key_groups(common + tuple(
            a for a in right.attributes if a not in common), width)
        left = left.sorted_set()
        lgroups = None
        if left.attributes[:width] == common:
            left, lgroups = left._key_groups(left.attributes, width)
            lbounds = lgroups.bounds
        else:
            lbounds = np.arange(len(left) + 1)
        if rgroups.table() is not None and lgroups is not None \
                and width == 1:
            lgroups.keys()      # the probe
        self.left = left
        #: Seconds spent sorting, grouping and indexing the sides (≈ 0
        #: when they were memoized).
        self.build_seconds = time.perf_counter() - t0
        self.common = common
        rbounds = rgroups.bounds
        li, ri = _match_groups(left, lgroups, rgroups, common)
        self._groups = (lbounds, rbounds, li, ri)
        self.size = int(np.dot(np.diff(lbounds)[li], np.diff(rbounds)[ri]))

    def _per_row(self) -> tuple[np.ndarray, np.ndarray]:
        """``(counts, starts)`` per row of ``left.data``: how many right
        rows it matches and where they start in ``right.data``."""
        lbounds, rbounds, li, ri = self._groups
        counts = np.zeros(lbounds.shape[0] - 1, dtype=np.intp)
        starts = np.zeros(lbounds.shape[0] - 1, dtype=np.intp)
        counts[li] = np.diff(rbounds)[ri]
        starts[li] = rbounds[ri]
        if counts.shape[0] == len(self.left):   # one row a group
            return counts, starts
        sizes = np.diff(lbounds)
        return np.repeat(counts, sizes), np.repeat(starts, sizes)

    @property
    def counts(self) -> np.ndarray:
        """Right rows matched by each row of ``left.data``."""
        return self._per_row()[0]

    def rows(self, name: str | None = None) -> Relation:
        """Gather the output relation (a lexsorted set)."""
        left, right, width = self.left, self.right, len(self.common)
        counts, starts = self._per_row()
        attrs = left.attributes + right.attributes[width:]
        out = np.empty((self.size, len(attrs)), dtype=np.int64)
        out[:, :left.arity] = np.repeat(left.data, counts, axis=0)
        if right.arity > width:
            # Output row r of left row i reads right row
            # starts[i] + (r - first output row of i).
            first = np.cumsum(counts) - counts
            idx = np.repeat(starts - first, counts)
            idx += np.arange(self.size)
            out[:, left.arity:] = right.data[idx, width:]
        return Relation.wrap(name or f"({left.name}><{right.name})", attrs,
                             out, True)


def _match_groups(left: Relation, lgroups: _KeyGroups | None,
                  rgroups: _KeyGroups, common: tuple[str, ...]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``(i, g)``: left group (``lgroups``) or row (None) ``i`` has the
    key of right group ``g``."""
    width = len(common)
    lcount = len(left) if lgroups is None else lgroups.bounds.shape[0] - 1
    if not (lcount and rgroups.rows.shape[0]):
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    if not width:       # the right side is one group
        return (np.arange(lcount, dtype=np.intp),
                np.zeros(lcount, dtype=np.intp))
    table = rgroups.table()
    if table is not None and lgroups is not None and width == 1 \
            and lgroups.radix is not None:
        return rgroups.find(*_rebase(lgroups.keys(), lgroups.radix,
                                     rgroups.radix))
    lkeys = (left.data[:, [left.column_index(a) for a in common]]
             if lgroups is None else
             _group_heads(left.data, lgroups.bounds, width))
    if table is None:       # too sparse, or too wide to pack: rank jointly
        return _match(*row_keys(lkeys, _group_heads(
            rgroups.rows, rgroups.bounds, width)))
    return rgroups.find(*_pack_within(lkeys, *rgroups.radix))


def _group_heads(data: np.ndarray, bounds: np.ndarray,
                 width: int) -> np.ndarray:
    """The first ``width`` columns of each group's first row."""
    if bounds.shape[0] - 1 == data.shape[0]:    # one row a group
        return data[:, :width]
    return data[bounds[:-1], :width]


def _pack_within(arr: np.ndarray, mins: list[int], widths: list[int]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_pack` in another relation's radix: ``(keys, known)``,
    ``known`` False where a value lies outside that column's range (the
    key is meaningless there, integer wrap-around included)."""
    known = key = None
    for j in range(arr.shape[1]):
        col = arr[:, j]
        inside = col >= mins[j]
        inside &= col <= mins[j] + widths[j] - 1
        known = inside if known is None else known & inside
        if key is None:
            key = col - mins[j]
        else:
            key *= widths[j]
            key += col - mins[j]
    return key, known


def _rebase(keys: np.ndarray, src: tuple[list[int], list[int]],
            dst: tuple[list[int], list[int]]
            ) -> tuple[np.ndarray, np.ndarray | None]:
    """One-column keys packed in radix ``src``, re-packed in radix
    ``dst`` as :func:`_pack_within` does (``known`` None: every key is
    in range): a shift, with no pass at all when the radixes agree."""
    (smin,), (swidth,) = src
    (dmin,), (dwidth,) = dst
    shift = dmin - smin     # dst's first code, in src's codes
    if shift >= swidth or shift + dwidth <= 0:      # disjoint ranges
        return keys, np.zeros(keys.shape[0], dtype=bool)
    if shift:
        keys = keys - shift
    if shift <= 0 and shift + dwidth >= swidth:     # src within dst
        return keys, None
    known = keys >= 0
    known &= keys < dwidth
    return keys, known


def _match(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(i, j)`` with ``a[i] == b[j]``, ``b`` sorted and distinct: one
    ``searchsorted`` of ``a`` into ``b``."""
    if not (a.shape[0] and b.shape[0]):
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    pos = np.searchsorted(b, a)
    np.minimum(pos, b.shape[0] - 1, out=pos)
    hit = np.flatnonzero(b[pos] == a)
    return hit, pos[hit]
