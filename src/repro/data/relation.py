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
one ``np.sort`` of a 1-D array (:func:`sorted_set_rows`) and a semijoin
one ``np.isin`` of keys; when the radix product would reach ``2**62``
the key does not fit and the same functions fall back to
``np.lexsort`` / :func:`row_group_ids`.

A relation remembers when its rows are a lexsorted set
(:attr:`Relation.is_sorted_set`): the ``dedup=True`` constructor and
:meth:`Relation.natural_join` establish it, row filters and renames keep
it, column permutations drop it.  Nothing that knows it re-sorts.
:meth:`Relation.block_layout` is the sort that does not deduplicate:
the rows in a given column order, grouped into hash blocks and lexsorted
within each, sorted once per (order, grouping) and memoized (the routed
epoch publishes each atom's source through it, so every cube slice is
one contiguous, sorted row range).
:class:`JoinProbe` is the binary-join step on top of the relation's one
index, its memoized :meth:`Relation.trie`: the right side's trie in
(join columns, remaining columns) order, whose nodes at the join
columns' depth are the join keys, is probed with the left side's node
or row keys, so the output size — and that the output is born a
lexsorted set — is known before a single output row is gathered.  A
kept relation is sorted and indexed once, however many steps read it.

Distinct values are counted by one sort and a diff
(:func:`sorted_distinct`), never by plain ``np.unique``, which may take
a much slower hash path.
"""

from __future__ import annotations

import hashlib
import time
from typing import (TYPE_CHECKING, Callable, Hashable, Iterable, Iterator,
                    Mapping, Sequence)

import numpy as np

from ..errors import SchemaError

if TYPE_CHECKING:
    from .trie import Trie, TrieLevels

__all__ = ["Relation", "BlockLayout", "JoinProbe", "row_group_ids",
           "row_keys", "lexsorted_rows", "sorted_set_rows",
           "sorted_distinct"]

#: Packed keys stay clear of the int64 range (the guard ``TrieLevels.keys``
#: uses); rows whose radix product reaches it take the fallback paths.
_KEY_LIMIT = 2 ** 62


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
                 "_layout", "_trie", "_digest")

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
        #: The layouts the last route read, by ``(attrs, key)``.
        self._layout: dict[tuple, BlockLayout] = {}
        #: The last two :meth:`trie` as ``[(column indices, Trie)]``:
        #: one cell, shared with renames (same rows, same columns).
        self._trie: list = []
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
        by block, then lexicographically — and duplicates are kept.
        Memoized per ``(attrs, key)``: a route lays each of its atoms out
        in that atom's own order and hashing (a self-join reads one
        relation in several), a warm query asks for the same layouts
        again, and :meth:`keep_layouts` drops the ones it no longer reads.
        """
        attrs = tuple(attrs)
        memo_key = (attrs, key)
        layout = self._layout.get(memo_key)
        if layout is not None:
            return layout
        idx = [self.column_index(a) for a in attrs]
        if sorted(idx) != list(range(self.arity)):
            raise SchemaError(
                f"{attrs} is not a permutation of {self.attributes}")
        rows, bounds, distinct = _group_rows(
            self.data if attrs == self.attributes else self.data[:, idx],
            block_ids, num_blocks,
            lexsorted=attrs == self.attributes and self._sorted)
        layout = BlockLayout(attrs, rows, bounds, distinct, memo_key)
        self._layout = {**self._layout, memo_key: layout}
        return layout

    def keep_layouts(self, keys: Iterable[Hashable]) -> None:
        """Drop every memoized layout but those of ``keys`` (a route keeps
        the ones it read).  The memo is swapped, never changed in place,
        so a concurrent :meth:`block_layout` is safe: a lost race only
        lays a relation out twice."""
        held = self._layout
        self._layout = {k: held[k] for k in keys if k in held}

    def trie(self, attrs: Sequence[str]) -> "Trie":
        """A :class:`~repro.data.trie.Trie` over these rows in column
        order ``attrs``, its levels built.

        Memoized — the last two orders asked for, since a self-join
        reads one relation in two orders — in a cell every rename of
        this relation shares (same rows, same columns), so a relation
        kept between tasks (a worker-resident input,
        :mod:`repro.runtime.residency`) builds its tries once, whichever
        kernel reads them.
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

    @property
    def index_nbytes(self) -> int:
        """Bytes the memoized :meth:`trie` holds beyond these rows."""
        extra = 0
        for _, trie in tuple(self._trie):
            extra += trie.levels().nbytes
            if trie.data is not self.data:
                extra += int(trie.data.nbytes)
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
    :meth:`Relation.block_layout`, one per (column order, grouping);
    read-only.
    """

    __slots__ = ("attributes", "data", "bounds", "is_sorted_set", "key")

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

    def block(self, b: int) -> slice:
        """Block ``b``'s row range."""
        return slice(int(self.bounds[b]), int(self.bounds[b + 1]))


class JoinProbe:
    """One binary join step: probed and sized, output not yet gathered.

    Both sides are taken as sets.  The right side is read through its
    memoized :meth:`Relation.trie` in column order (join columns,
    remaining columns), so a kept relation (a worker-resident input) is
    sorted and indexed once, not per step: with ``w`` join columns, a
    level ``w - 1`` node is one join key, and its rows are the node's
    leaf range, carried down ``ptr``.  ``left`` is a relation probed
    row by row, its key columns the probe (an intermediate in its own
    order), or a :class:`~repro.data.trie.Trie` whose join columns lead,
    probed node by node with the keys of its level ``w - 1`` nodes
    (``vals[0]`` for one column).  The probe is
    :meth:`~repro.data.trie.TrieLevels.probe` on the right, level by
    level: one gather where the right's root level keeps its direct
    table.  ``size``, the dot product of the matched left and right row
    counts (two ``ptr`` entries a match), is the output size: a count,
    or a budget check, needs no output row.

    :meth:`rows` gathers left rows in order times their right rests in
    order.  Because both inputs are sets, that output is a set and is
    born lexsorted by ``left.attributes + rest``: no output sort or
    dedup.  With no shared attribute every left row matches the whole
    right side (cartesian product), through the same gather.
    """

    __slots__ = ("left", "right", "common", "size", "build_seconds",
                 "_lgroups", "_matched")

    def __init__(self, left: "Relation | Trie", right: Relation):
        common = tuple(a for a in left.attributes if a in right.attributes)
        width = len(common)
        t0 = time.perf_counter()
        lgroups = None
        if isinstance(left, Relation):
            left = left.sorted_set()
        else:
            if width and left.attributes[:width] == common:
                lgroups = left.levels()
            left = Relation.wrap(left.name, left.attributes, left.data, True)
        trie = right.trie(common + tuple(
            a for a in right.attributes if a not in common))
        #: Seconds spent sorting and indexing the sides (≈ 0 when they
        #: were memoized).
        self.build_seconds = time.perf_counter() - t0
        #: The two sides as lexsorted sets: ``right`` join columns
        #: first; ``left`` in its own column order.
        self.left = left
        self.right = Relation.wrap(trie.name, trie.attributes, trie.data,
                                   True)
        self.common = common
        self._lgroups = lgroups
        if not width:       # every left row matches all of the right
            li = np.arange(len(left) if len(trie) else 0)
            self._matched = li, np.zeros_like(li), np.full_like(li, len(trie))
            self.size = li.shape[0] * len(trie)
            return
        if lgroups is None:
            keys = [left.column(a) for a in common]
        elif width == 1:
            keys = [lgroups.vals[0]]
        else:       # each node's first row holds its key
            first = left.data[_row_ranges(lgroups, width - 1, np.arange(
                lgroups.vals[width - 1].shape[0]))[0]]
            keys = [first[:, j] for j in range(width)]
        levels = trie.levels()
        li, nodes = _probe_trie(levels, keys)
        rfirst, rcounts = _row_ranges(levels, width - 1, nodes)
        self._matched = li, rfirst, rcounts
        if lgroups is None:
            self.size = int(rcounts.sum())
        else:
            self.size = int(np.dot(
                _row_ranges(lgroups, width - 1, li)[1], rcounts))

    def _per_row(self) -> tuple[np.ndarray, np.ndarray]:
        """``(counts, starts)`` per row of ``left.data``: how many right
        rows it matches and where they start in ``right.data``."""
        li, rfirst, rcounts = self._matched
        lgroups, level = self._lgroups, len(self.common) - 1
        n = len(self.left) if lgroups is None else \
            lgroups.vals[level].shape[0]
        counts = np.zeros(n, dtype=np.intp)
        starts = np.zeros(n, dtype=np.intp)
        counts[li] = rcounts
        starts[li] = rfirst
        if n == len(self.left):     # one row a group
            return counts, starts
        sizes = _row_ranges(lgroups, level, np.arange(n))[1]
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


def _probe_trie(levels: "TrieLevels", keys: list[np.ndarray]
                ) -> tuple[np.ndarray, np.ndarray]:
    """``(i, nodes)``: the probe keys ``i`` (one value per column of
    ``keys``) that are a level ``len(keys) - 1`` node of ``levels``, and
    that node, probed level by level."""
    i = nodes = None
    for level, values in enumerate(keys):
        if i is not None:
            values = values[i]
        nodes, found = levels.probe(level, nodes, values)
        hit = np.flatnonzero(found)
        i = hit if i is None else i[hit]
        nodes = nodes[hit]
    return i, nodes


def _row_ranges(levels: "TrieLevels", level: int, nodes: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """``(first, count)``: the rows under each level ``level`` node of
    ``levels`` (a trie's leaves are its rows), carried down ``ptr``."""
    first, end = nodes, nodes + 1
    for ptr in levels.ptr[level:]:
        first, end = ptr[first], ptr[end]
    end -= first
    return first, end
