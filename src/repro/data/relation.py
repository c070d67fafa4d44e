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
probe one ``searchsorted``; when the radix product would reach
``2**62`` the key does not fit and the same functions fall back to
``np.lexsort`` / :func:`row_group_ids`.

A relation remembers when its rows are a lexsorted set (the private
``_sorted`` slot): the ``dedup=True`` constructor and
:meth:`Relation.natural_join` establish it, row filters and renames keep
it, column permutations drop it.  Nothing that knows it re-sorts.
:class:`JoinProbe` is the binary-join step on top of both: sort the
right side once by (join columns, remaining columns), probe it with the
left keys, and know the output size — and that the output is born a
lexsorted set — before a single output row is gathered.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..errors import SchemaError

__all__ = ["Relation", "JoinProbe", "row_group_ids", "lexsorted_rows",
           "sorted_set_rows"]

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


def _dedup_sorted(arr: np.ndarray) -> np.ndarray:
    """Drop duplicate rows from a lexicographically sorted array."""
    if arr.shape[0] <= 1:
        return arr
    keep = np.empty(arr.shape[0], dtype=bool)
    keep[0] = True
    np.any(arr[1:] != arr[:-1], axis=1, out=keep[1:])
    return arr[keep]


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
        return _dedup_sorted(arr) if dedup else arr
    key = _pack(arr, *radix)
    key.sort()
    if dedup:
        key = key[np.concatenate(([True], key[1:] != key[:-1]))]
    return _unpack(key, *radix)


def sorted_set_rows(arr: np.ndarray) -> np.ndarray:
    """The distinct rows of an (n, k) int64 array in lexicographic order."""
    return _sorted_rows(arr, dedup=True)


def _joint_keys(a: np.ndarray, b: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """1-D keys for the rows of ``a`` and ``b`` over their joint range.

    Rows are equal iff their keys are, and ordered as their keys are —
    packed keys, or lexicographic group ranks when they do not fit.
    """
    radix = _radix(a, b)
    if radix is None:
        a_ids, b_ids = row_group_ids(a, b)
        return a_ids, b_ids
    return _pack(a, *radix), _pack(b, *radix)


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

    __slots__ = ("name", "attributes", "data", "_distinct", "_sorted")

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

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _of(cls, name: str, attributes: Sequence[str], data,
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
        return np.unique(self.column(attr))

    def distinct_count(self, attr: str) -> int:
        """Number of distinct values of ``attr``, memoized per column.

        Plan search (:func:`repro.wcoj.binary_join._estimate_join_size`,
        degree-order selection, the adaptive kernel chooser) asks for the
        same counts repeatedly; the O(n log n) ``np.unique`` runs once.
        """
        j = self.column_index(attr)
        count = self._distinct.get(j)
        if count is None:
            count = int(np.unique(self.data[:, j]).shape[0])
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
        out = Relation._of(name or self.name, attrs, self.data, self._sorted)
        out._distinct = self._distinct  # same data, same column order
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
            Relation._of(name or self.name, attrs, self.data[:, idx],
                         self._sorted and attrs == self.attributes),
            idx)

    def select_equals(self, attr: str, value: int, name: str | None = None) -> "Relation":
        """Selection sigma_{attr = value}."""
        col = self.column(attr)
        return Relation._of(name or self.name, self.attributes,
                            self.data[col == np.int64(value)], self._sorted)

    def select_in(self, attr: str, values: np.ndarray,
                  name: str | None = None) -> "Relation":
        """Selection sigma_{attr in values}."""
        values = np.asarray(values, dtype=np.int64)
        mask = np.isin(self.column(attr), values)
        return Relation._of(name or self.name, self.attributes,
                            self.data[mask], self._sorted)

    def common_attributes(self, other: "Relation") -> tuple[str, ...]:
        return tuple(a for a in self.attributes if a in other.attributes)

    def semijoin(self, other: "Relation", name: str | None = None) -> "Relation":
        """Keep tuples whose projection on the shared attrs appears in ``other``."""
        common = self.common_attributes(other)
        if common and len(self) and len(other):
            mine, theirs = _joint_keys(
                self.data[:, [self.column_index(a) for a in common]],
                other.data[:, [other.column_index(a) for a in common]])
            kept = self.data[np.isin(mine, theirs)]
        else:
            # Nothing shared keeps everything — unless ``other`` is
            # empty: then the join would be empty too.
            kept = self.data if len(other) else self.data[:0]
        return Relation._of(name or self.name, self.attributes, kept,
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


class JoinProbe:
    """One binary join step: probed and sized, output not yet gathered.

    Both sides are taken as sets.  ``left`` is sorted only if it is not
    already known to be a lexsorted set; ``right`` is sorted **once**, by
    (join columns, remaining columns), which deduplicates it in the same
    pass.  The left rows' join keys then probe the right's with
    ``searchsorted``: left row ``i`` matches the ``counts[i]`` right rows
    from ``starts[i]`` on.  ``size = counts.sum()`` is the output size, so
    a count — or a budget check — needs no output row.

    :meth:`rows` gathers left rows in order times their right rests in
    order.  Because both inputs are sets, that output is a set and is
    born lexsorted by ``left.attributes + rest``: no output sort or
    dedup.  With no shared attribute every left row matches the whole
    right side (cartesian product), through the same gather.
    """

    __slots__ = ("left", "right", "common", "starts", "counts", "size")

    def __init__(self, left: Relation, right: Relation):
        common = left.common_attributes(right)
        rest = tuple(a for a in right.attributes if a not in common)
        left = left.sorted_set()
        right = right.sorted_set(common + rest)
        n, m = len(left), len(right)
        starts = np.zeros(n, dtype=np.intp)
        counts = np.zeros(n, dtype=np.intp)
        if not common:
            counts += m    # cartesian: every left row meets all of right
        elif n and m:
            keys, hay = _joint_keys(
                left.data[:, [left.column_index(a) for a in common]],
                right.data[:, :len(common)])
            # ``hay`` is non-decreasing (right is sorted join columns
            # first); probing it in key order keeps both sides sequential.
            order = np.argsort(keys)
            keys = keys[order]
            lo = np.searchsorted(hay, keys, side="left")
            starts[order] = lo
            counts[order] = np.searchsorted(hay, keys, side="right") - lo
        self.left = left
        self.right = right
        self.common = common
        self.starts = starts
        self.counts = counts
        self.size = int(counts.sum())

    def rows(self, name: str | None = None) -> Relation:
        """Gather the output relation (a lexsorted set)."""
        left, right = self.left, self.right
        width = len(self.common)
        attrs = left.attributes + right.attributes[width:]
        out = np.empty((self.size, len(attrs)), dtype=np.int64)
        out[:, :left.arity] = np.repeat(left.data, self.counts, axis=0)
        if right.arity > width:
            # Output row r of left row i reads right row
            # starts[i] + (r - first output row of i).
            first = np.cumsum(self.counts) - self.counts
            idx = np.repeat(self.starts - first, self.counts)
            idx += np.arange(self.size)
            out[:, left.arity:] = right.data[idx, width:]
        return Relation._of(name or f"({left.name}><{right.name})", attrs,
                            out, True)
