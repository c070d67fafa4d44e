"""Leapfrog triejoin (Algorithm 1 of the paper; Veldhuizen 2012).

- :func:`leapfrog_join` — the production path, evaluated
  *frontier-at-a-time*: a frontier is a batch of partial bindings plus,
  per atom, the trie node each binding sits on; one step binds the next
  attribute for the whole batch over the tries' CSR level arrays
  (:meth:`repro.data.trie.Trie.levels`).  Per binding the participant
  with the shortest child segment *drives*: only its values are
  gathered, and each is probed in the other participants with one
  ``np.searchsorted`` per participant.  Frontiers are cut into chunks of
  at most ``_CHUNK`` gathered candidates and processed depth-first, so
  memory is bounded by depth x chunk and rows come out in lexicographic
  order.  Work is *accounted* from the segment lengths of all
  participants (the paper's cost unit, what Fig. 6 / Fig. 8 plot), not
  from what was touched.  Supports fixed-value constraints (the
  sampler's ``T_{A=a}``) and a deterministic work budget (the paper's
  12-hour timeout analogue).  With ``cache=`` it runs HCubeJ+Cache's
  CacheTrieJoin [28] instead: the per-binding recursion
  (:class:`_Recursion`), whose LRU is keyed on the row ranges one
  binding reaches; with a cache that admits nothing its counters equal
  the frontier's.

- :func:`leapfrog_sample_counts` — ``|T_{A=a}|`` for many values ``a``
  in one frontier evaluation (the sampler's probe).

- :func:`leapfrog_reference` — a faithful transcription of the classic
  iterator-based leapfrog search (seek/next on :class:`TrieIterator`),
  used by the test-suite to cross-validate the production path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..data.database import Database
from ..data.relation import Relation
from ..data.trie import Trie, TrieLevels
from ..errors import BudgetExceeded, PlanError
from ..obs.tracing import current_tracer
from ..query.query import JoinQuery
from .cache import IntersectionCache

__all__ = [
    "LeapfrogStats",
    "JoinResult",
    "build_tries",
    "leapfrog_join",
    "leapfrog_sample_counts",
    "leapfrog_reference",
    "intersect_sorted",
]

# Most candidates one chunk of a frontier gathers.  A constant, not a
# setting: 2**14..2**19 measure within noise of each other on latency
# (larger only costs resident memory), so there is nothing to tune.
_CHUNK = 1 << 16


@dataclass
class LeapfrogStats:
    """Instrumentation of one Leapfrog execution.

    ``level_tuples[i]`` counts the partial bindings produced when the
    (i+1)-th attribute of the order was bound — the paper's |T_{i+1}|
    totals used in Fig. 6 and Fig. 8.
    """

    level_tuples: list[int] = field(default_factory=list)
    level_work: list[int] = field(default_factory=list)
    level_extensions: list[int] = field(default_factory=list)
    intersection_work: int = 0     # elements touched while intersecting
    extensions: int = 0            # partial bindings that were extended
    emitted: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Wall-clock the run spent building its own tries (0 when the
    #: caller passed ``tries=``, and under kernels that build none).
    #: A measurement, not a counter: two runs with equal counters are
    #: equal.
    build_seconds: float = field(default=0.0, compare=False)

    def reset(self, num_levels: int) -> None:
        """Zero the counters a run over ``num_levels`` attributes fills."""
        self.level_tuples = [0] * num_levels
        self.level_work = [0] * num_levels
        self.level_extensions = [0] * num_levels
        self.intersection_work = 0
        self.extensions = 0
        self.emitted = 0
        self.build_seconds = 0.0

    @property
    def total_intermediate(self) -> int:
        """All intermediate tuples (excludes the final output level)."""
        return sum(self.level_tuples[:-1]) if self.level_tuples else 0

    @property
    def total_tuples(self) -> int:
        return sum(self.level_tuples)

    def add(self, other: "LeapfrogStats") -> None:
        """Accumulate another run's counters (same attribute order)."""
        for name in ("level_tuples", "level_work", "level_extensions"):
            setattr(self, name, [a + b for a, b in zip(
                getattr(self, name), getattr(other, name))])
        self.intersection_work += other.intersection_work
        self.extensions += other.extensions
        self.emitted += other.emitted

    def level_fractions(self) -> list[float]:
        """Per-level share of all produced tuples (Fig. 6's percentages)."""
        total = self.total_tuples
        if total == 0:
            return [0.0 for _ in self.level_tuples]
        return [t / total for t in self.level_tuples]


@dataclass
class JoinResult:
    """Outcome of a join execution."""

    count: int
    stats: LeapfrogStats
    relation: Relation | None = None

    def __post_init__(self):
        if self.relation is not None and len(self.relation) != self.count:
            raise PlanError(
                f"materialized {len(self.relation)} tuples but counted "
                f"{self.count}"
            )


def _atom_trie_order(atom_attrs: Sequence[str], order: Sequence[str]
                     ) -> tuple[str, ...]:
    """Atom attributes sorted by their position in the global order."""
    pos = {a: i for i, a in enumerate(order)}
    return tuple(sorted(atom_attrs, key=pos.__getitem__))


def build_tries(query: JoinQuery, db: Database, order: Sequence[str]
                ) -> list[Trie]:
    """One trie per atom, columns renamed to query variables and sorted
    consistently with the global attribute order."""
    order = tuple(order)
    tries = []
    for atom in query.atoms:
        rel = db[atom.relation]
        if rel.arity != atom.arity:
            raise PlanError(
                f"atom {atom} arity mismatch with relation {rel.name}")
        # A rename keeps the relation's "known sorted set" flag, so a
        # trie in the stored column order is built without a sort.
        renamed = rel.rename(dict(zip(rel.attributes, atom.attributes)))
        trie = Trie(renamed, order=_atom_trie_order(atom.attributes, order))
        trie.levels()   # index construction, not the join, pays for these
        tries.append(trie)
    return tries


def intersect_sorted(arrays: Sequence[np.ndarray],
                     stats: LeapfrogStats | None = None) -> np.ndarray:
    """Intersection of sorted unique int64 arrays, smallest-first.

    Work is accounted as the total number of elements touched, the
    deterministic unit behind the paper's computation-cost seconds.
    """
    if not arrays:
        return np.empty(0, dtype=np.int64)
    arrays = sorted(arrays, key=len)
    result = arrays[0]
    if stats is not None:
        stats.intersection_work += sum(len(a) for a in arrays)
    for other in arrays[1:]:
        if result.shape[0] == 0:
            break
        idx = np.searchsorted(other, result)
        idx[idx == other.shape[0]] = other.shape[0] - 1 if other.shape[0] else 0
        if other.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        result = result[other[idx] == result]
    return result


def _plan(query: JoinQuery, db: Database, order: Sequence[str] | None,
          tries: Sequence[Trie] | None, stats: LeapfrogStats | None):
    """Validate ``order``, build (and time) missing tries, reset ``stats``
    and list every level's participants as ``(atom index, local trie
    depth)``."""
    order = tuple(order) if order is not None else query.attributes
    if set(order) != set(query.attributes):
        raise PlanError(
            f"order {order} is not a permutation of query attributes "
            f"{query.attributes}"
        )
    build_seconds = 0.0
    if tries is None:
        t0 = time.perf_counter()
        with current_tracer().span("build_tries", cat="task",
                                   query=query.name):
            tries = build_tries(query, db, order)
        build_seconds = time.perf_counter() - t0
    n = len(order)
    if stats is None:
        stats = LeapfrogStats()
    stats.reset(n)
    stats.build_seconds = build_seconds
    participants: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for ai, trie in enumerate(tries):
        for local_depth, attr in enumerate(trie.attributes):
            participants[order.index(attr)].append((ai, local_depth))
    for d, parts in enumerate(participants):
        if not parts:
            raise PlanError(f"attribute {order[d]!r} appears in no atom")
    return order, tries, stats, participants


def leapfrog_join(query: JoinQuery, db: Database,
                  order: Sequence[str] | None = None, *,
                  materialize: bool = False,
                  fixed: Mapping[str, int] | None = None,
                  cache: IntersectionCache | None = None,
                  budget: int | None = None,
                  tries: Sequence[Trie] | None = None,
                  stats: LeapfrogStats | None = None) -> JoinResult:
    """Evaluate ``query`` over ``db`` with Leapfrog triejoin.

    Parameters
    ----------
    order:
        Global attribute order (defaults to the query's base order).
    materialize:
        Collect result tuples into a relation (attributes = ``order``,
        rows in lexicographic order).
    fixed:
        Attribute -> value constraints (``T_{A=a}``).
    cache:
        Optional :class:`IntersectionCache`; intersections are memoized
        per (depth, participant ranges) — HCubeJ+Cache's CacheTrieJoin,
        run on the per-binding recursion.
    budget:
        Maximum intersection work: a run whose total work stays within
        it never trips, one that goes over raises
        :class:`BudgetExceeded` with the partial ``stats`` filled in.
    tries:
        Pre-built tries (one per atom, orders consistent with ``order``);
        built on the fly when omitted.
    stats:
        Caller-owned stats object, reset and populated in place — useful
        to inspect partial counts after a :class:`BudgetExceeded`.
    """
    order, tries, stats, participants = _plan(query, db, order, tries, stats)
    fixed_levels = {}
    for attr, value in (fixed or {}).items():
        if attr not in order:
            raise PlanError(f"fixed attribute {attr!r} not in query")
        fixed_levels[order.index(attr)] = int(value)
    n = len(order)
    rows: list[np.ndarray] | None = [] if materialize else None
    if all(len(t) for t in tries):
        if cache is not None:
            _Recursion(tries, participants, fixed_levels, budget, stats,
                       rows, cache).expand(0)
        else:
            run = _Frontier([t.levels() for t in tries], participants,
                            fixed_levels, budget, stats, rows, None)
            _extend(run, 0, 1, [None] * len(tries), [], None)
    relation = None
    if rows is not None:
        data = np.vstack(rows) if rows else np.empty((0, n), dtype=np.int64)
        relation = Relation(f"{query.name}_result", order, data, dedup=False)
    return JoinResult(count=stats.emitted, stats=stats, relation=relation)


def leapfrog_sample_counts(query: JoinQuery, db: Database,
                           order: Sequence[str] | None,
                           values: np.ndarray
                           ) -> tuple[np.ndarray, LeapfrogStats]:
    """``|T_{A=a}|`` for every ``a`` in ``values``, ``A = order[0]``.

    All values (duplicates included) form the root frontier of *one*
    evaluation; the per-value counts come back as a bincount of the root
    id carried through the frontier, and the returned stats are the sums
    of what one ``leapfrog_join(fixed={A: a})`` per value would report.
    """
    order, tries, total, participants = _plan(query, db, order, None, None)
    values = np.asarray(values, dtype=np.int64)
    counts = np.zeros(values.shape[0], dtype=np.int64)
    if not values.shape[0] or not all(len(t) for t in tries):
        return counts, total
    run = _Frontier([t.levels() for t in tries], participants,
                    {0: values}, None, total, None, counts)
    _extend(run, 0, values.shape[0], [None] * len(tries), [],
            np.arange(values.shape[0], dtype=np.int64))
    return counts, total


# -- frontier evaluation --------------------------------------------------------
#
# Module-level functions over a plain state object, not closures: a
# closure that calls itself is a reference cycle, and the tries, level
# arrays and result chunks it captures then live until a gen-2 GC.

@dataclass(slots=True)
class _Frontier:
    """What every step of one frontier evaluation shares."""

    levels: list[TrieLevels]
    participants: list[list[tuple[int, int]]]
    fixed: dict[int, int | np.ndarray]   # level -> value (array: per root)
    budget: int | None
    stats: LeapfrogStats
    rows: list[np.ndarray] | None        # result chunks when materializing
    root_counts: np.ndarray | None       # per-root result counts, if asked


def _extend(run: _Frontier, d: int, k: int,
            nodes: list[np.ndarray | None], cols: list[np.ndarray],
            root: np.ndarray | None) -> None:
    """Bind attribute ``d`` under each of ``k`` partial bindings.

    ``nodes[ai][b]`` is the node atom ``ai``'s trie sits on under binding
    ``b`` (None: still at its root, or never read again); ``cols`` are
    the bound prefix columns (materializing runs), ``root`` the root
    binding each binding descends from (multi-root runs).  Work is
    accounted from the participants' child-segment lengths — ``ptr``
    reads, no element touched.  Then, chunk by chunk and depth-first,
    every binding's shortest segment is gathered and each candidate is
    probed in the other participants.
    """
    stats = run.stats
    parts = run.participants[d]
    fixed = run.fixed.get(d)
    if fixed is None:
        starts, lens = [], []
        for ai, depth in parts:
            lv = run.levels[ai]
            if depth == 0:
                starts.append(np.zeros(k, dtype=np.int64))
                lens.append(np.full(k, lv.vals[0].shape[0], dtype=np.int64))
            else:
                ptr = lv.ptr[depth - 1]
                starts.append(ptr[nodes[ai]])
                lens.append(ptr[nodes[ai] + 1] - starts[-1])
        seg = np.stack(lens)
        work = int(seg.sum())
    else:
        work = len(parts) * k
    stats.extensions += k
    stats.level_extensions[d] += k
    stats.intersection_work += work
    stats.level_work[d] += work
    if run.budget is not None and stats.intersection_work > run.budget:
        raise BudgetExceeded(stats.intersection_work, run.budget)
    if fixed is not None:
        value = (fixed if isinstance(fixed, np.ndarray)
                 else np.full(k, fixed, dtype=np.int64))
        bind = np.arange(k, dtype=np.int64)
        _descend(run, d, nodes, cols, root,
                 *_probe(run, d, nodes, bind, value, None, None))
        return
    driver = seg.argmin(axis=0)
    shortest = seg.min(axis=0)
    gathered = np.cumsum(shortest)
    lo = 0
    while lo < k:
        limit = (int(gathered[lo - 1]) if lo else 0) + _CHUNK
        hi = max(lo + 1, int(np.searchsorted(gathered, limit, side="right")))
        groups = []
        for p, (ai, depth) in enumerate(parts):
            sel = np.flatnonzero(driver[lo:hi] == p) + lo
            if not sel.shape[0]:
                continue
            length = shortest[sel]
            ends = np.cumsum(length)
            pos = (np.arange(int(ends[-1]), dtype=np.int64)
                   + np.repeat(starts[p][sel] - (ends - length), length))
            groups.append(_probe(
                run, d, nodes, np.repeat(sel, length),
                run.levels[ai].vals[depth][pos], p, pos))
        if len(groups) == 1:
            bind, value, children = groups[0]
        else:
            # Each binding has one driver, so a stable sort by binding
            # restores lexicographic order across the driver groups.
            bind = np.concatenate([g[0] for g in groups])
            by_binding = np.argsort(bind, kind="stable")
            bind = bind[by_binding]
            value = np.concatenate([g[1] for g in groups])[by_binding]
            children = [
                None if group_children[0] is None
                else np.concatenate(group_children)[by_binding]
                for group_children in zip(*(g[2] for g in groups))]
        _descend(run, d, nodes, cols, root, bind, value, children)
        lo = hi


def _probe(run: _Frontier, d: int, nodes: list[np.ndarray | None],
           bind: np.ndarray, value: np.ndarray, driver: int | None,
           driver_child: np.ndarray | None):
    """Drop the candidates ``(bind[i], value[i])`` some participant of
    level ``d`` other than ``driver`` lacks.

    Returns the surviving ``bind``/``value`` and, per participant, the
    child node each survivor leads to — None for a participant whose
    trie ends at this level.
    """
    parts = run.participants[d]
    deeper = [depth + 1 < len(run.levels[ai].vals) for ai, depth in parts]
    children: list[np.ndarray | None] = [None] * len(parts)
    if driver is not None and deeper[driver]:
        children[driver] = driver_child
    for p, (ai, depth) in enumerate(parts):
        if p == driver:
            continue
        parents = nodes[ai][bind] if depth else None
        child, found = run.levels[ai].probe(depth, parents, value)
        if not found.all():
            bind, value, child = bind[found], value[found], child[found]
            children = [c if c is None else c[found] for c in children]
        if deeper[p]:
            children[p] = child
    return bind, value, children


def _descend(run: _Frontier, d: int, nodes: list[np.ndarray | None],
             cols: list[np.ndarray], root: np.ndarray | None,
             bind: np.ndarray, value: np.ndarray,
             children: list[np.ndarray | None]) -> None:
    """Record the bindings that survived level ``d`` and extend them."""
    stats = run.stats
    t = int(value.shape[0])
    stats.level_tuples[d] += t
    if not t:
        return
    n = len(run.participants)
    if d == n - 1:
        stats.emitted += t
        if run.rows is not None:
            chunk = np.empty((t, n), dtype=np.int64)
            for j, col in enumerate(cols):
                chunk[:, j] = col[bind]
            chunk[:, d] = value
            run.rows.append(chunk)
        if root is not None:
            run.root_counts += np.bincount(
                root[bind], minlength=run.root_counts.shape[0])
        return
    # A participant moves to its child (None once its trie is used up);
    # everyone else stays on the node its binding had.
    moved = {ai: child for (ai, _), child in zip(run.participants[d],
                                                 children)}
    below = [moved[ai] if ai in moved
             else None if held is None else held[bind]
             for ai, held in enumerate(nodes)]
    if run.rows is not None:
        cols = [col[bind] for col in cols] + [value]
    _extend(run, d + 1, t, below, cols,
            None if root is None else root[bind])


# -- per-binding recursion ---------------------------------------------------------

class _Recursion:
    """HCubeJ+Cache's CacheTrieJoin [28]: Leapfrog as a per-binding
    recursion over trie row ranges, memoizing each level's intersection
    in an LRU keyed on the row ranges one binding reaches.

    Only ``cache=`` runs here.  A hit skips the intersection's work, so
    the pinned HCubeJ+Cache counters depend on what this LRU admits and
    evicts; with a cache that admits nothing every counter equals the
    frontier evaluation's.
    """

    def __init__(self, tries: Sequence[Trie],
                 participants: list[list[tuple[int, int]]],
                 fixed: dict[int, int], budget: int | None,
                 stats: LeapfrogStats, rows: list[np.ndarray] | None,
                 cache: IntersectionCache):
        self.tries = tries
        self.participants = participants
        self.fixed = fixed
        self.budget = budget
        self.stats = stats
        self.rows = rows
        self.cache = cache
        self.ranges: list[tuple[int, int]] = [t.root for t in tries]
        self.prefix: list[int] = [0] * len(participants)

    def candidates_at(self, d: int) -> tuple[np.ndarray, list]:
        """Intersected values at depth d plus per-participant child spans."""
        parts = self.participants[d]
        stats, tries, ranges = self.stats, self.tries, self.ranges
        if d in self.fixed:
            # Seek the fixed value directly instead of materializing
            # every participant's candidate array.
            v = self.fixed[d]
            resolved = []
            stats.intersection_work += len(parts)
            for ai, ldepth in parts:
                lo, hi = ranges[ai]
                l2, h2 = tries[ai].child_range(ldepth, lo, hi, v)
                if l2 >= h2:
                    return np.empty(0, dtype=np.int64), []
                resolved.append((np.array([l2], dtype=np.int64),
                                 np.array([h2], dtype=np.int64)))
            return np.array([v], dtype=np.int64), resolved
        key = (d,) + tuple(ranges[ai] for ai, _ in parts)
        hit = self.cache.get(key)
        if hit is not None:
            stats.cache_hits += 1
            return hit
        stats.cache_misses += 1
        spans = []
        arrays = []
        for ai, ldepth in parts:
            lo, hi = ranges[ai]
            values, starts, ends = tries[ai].children(ldepth, lo, hi)
            arrays.append(values)
            spans.append((values, starts, ends))
        vals = intersect_sorted(arrays, stats)
        # Child span per participant for each surviving value.
        resolved = []
        for values, starts, ends in spans:
            idx = np.searchsorted(values, vals)
            resolved.append((starts[idx], ends[idx]))
        result = (vals, resolved)
        self.cache.put(key, result)
        return result

    def expand(self, d: int) -> None:
        stats, prefix, ranges = self.stats, self.prefix, self.ranges
        if self.budget is not None and stats.intersection_work > self.budget:
            raise BudgetExceeded(stats.intersection_work, self.budget)
        stats.extensions += 1
        stats.level_extensions[d] += 1
        work_before = stats.intersection_work
        vals, resolved = self.candidates_at(d)
        stats.level_work[d] += stats.intersection_work - work_before
        k = int(vals.shape[0])
        stats.level_tuples[d] += k
        if k == 0:
            return
        n = len(prefix)
        if d == n - 1:
            stats.emitted += k
            if self.rows is not None:
                chunk = np.empty((k, n), dtype=np.int64)
                for j in range(d):
                    chunk[:, j] = prefix[j]
                chunk[:, d] = vals
                self.rows.append(chunk)
            return
        parts = self.participants[d]
        saved = [ranges[ai] for ai, _ in parts]
        for i in range(k):
            prefix[d] = int(vals[i])
            for p, (ai, _) in enumerate(parts):
                starts, ends = resolved[p]
                ranges[ai] = (int(starts[i]), int(ends[i]))
            self.expand(d + 1)
        for p, (ai, _) in enumerate(parts):
            ranges[ai] = saved[p]


def leapfrog_reference(query: JoinQuery, db: Database,
                       order: Sequence[str] | None = None
                       ) -> list[tuple[int, ...]]:
    """Iterator-based leapfrog search (the textbook algorithm).

    Returns the result tuples in ``order``-major lexicographic order.
    Quadratically slower than :func:`leapfrog_join`; for tests only.
    """
    order = tuple(order) if order is not None else query.attributes
    if set(order) != set(query.attributes):
        raise PlanError(f"order {order} does not match query attributes")
    tries = build_tries(query, db, order)
    if any(len(t) == 0 for t in tries):
        return []
    iterators = [t.iterator() for t in tries]
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
                if least.at_end:
                    return
                max_key = least.key()
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
