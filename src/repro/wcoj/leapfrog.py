"""Leapfrog triejoin (Algorithm 1 of the paper; Veldhuizen 2012).

- :func:`leapfrog_join` — the production path, evaluated
  *frontier-at-a-time*: a frontier is a batch of partial bindings plus,
  per atom, the trie node each binding sits on; one step binds the next
  attribute for the whole batch over the tries' CSR level arrays
  (:meth:`repro.data.trie.Trie.levels`).  Per binding the participant
  with the shortest child segment *drives*: only its values are
  gathered, and each is probed in the other participants
  (:meth:`repro.data.trie.TrieLevels.probe`: one bitmap word on a
  direct-addressed level, a ``np.searchsorted`` elsewhere; only
  :meth:`~repro.data.trie.TrieLevels.contains` for a participant whose
  trie ends at the level).  Frontiers are cut into chunks of
  at most ``_CHUNK`` gathered candidates and processed depth-first, so
  memory is bounded by depth x chunk and rows come out in lexicographic
  order.  Work is *accounted* from the segment lengths of all
  participants (the paper's cost unit, what Fig. 6 / Fig. 8 plot), not
  from what was touched.  A count-only run does not enumerate its
  *tail* — the trailing levels that each have one participant and no
  fixed value: those bindings are all of the participant's children,
  so per binding each tail atom's descendant node range is carried
  down through ``ptr`` and every level is counted as a product of range
  lengths, the same integers the enumeration accounts.  A count-only run
  with no tail counts its last level instead: each candidate is looked
  up with ``contains`` and the hits are counted, never filtered into a
  next frontier.  Materializing and cached runs enumerate every level.
  Supports fixed-value constraints (the sampler's ``T_{A=a}``) and a
  deterministic work budget (the paper's 12-hour timeout analogue).  With
  ``cache_capacity=`` it is HCubeJ+Cache's CacheTrieJoin [28]: within a
  chunk, bindings whose level participants sit on the same trie nodes
  have the same candidates, so each distinct node tuple is extended
  once and its children are scattered back to every binding; a binding
  whose tuple was admitted earlier in its chunk is a cache hit and is
  not charged.

- :func:`leapfrog_sample_counts` — ``|T_{A=a}|`` for many values ``a``
  in one frontier evaluation (the sampler's probe).

The textbook iterator-based search and a per-binding counter walk, the
test-suite's oracles, live in :mod:`repro.wcoj.reference`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..data.database import Database
from ..data.relation import Relation, row_keys
from ..data.trie import Trie, TrieLevels
from ..errors import BudgetExceeded, ConfigError, PlanError
from ..obs.tracing import current_tracer
from ..query.query import JoinQuery

__all__ = [
    "LeapfrogStats",
    "JoinResult",
    "build_tries",
    "trie_order",
    "leapfrog_join",
    "leapfrog_sample_counts",
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
    cache_hits: int = 0            # bindings a cached run did not charge
    cache_misses: int = 0          # bindings a cached run charged
    #: Wall-clock the run spent building its own tries (0 when the
    #: caller passed ``tries=``; ≈ 0 when they were memoized).
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
        self.cache_hits = 0
        self.cache_misses = 0
        self.build_seconds = 0.0

    @property
    def total_intermediate(self) -> int:
        """All intermediate tuples (excludes the final output level)."""
        return sum(self.level_tuples[:-1]) if self.level_tuples else 0

    @property
    def total_tuples(self) -> int:
        return sum(self.level_tuples)

    def add(self, other: "LeapfrogStats") -> None:
        """Accumulate another run's counters (same attribute order).

        Stats with no levels yet (a fresh ``LeapfrogStats()``) count as
        zeros at every level of the other; two runs over different
        numbers of levels raise :class:`PlanError`.
        """
        for name in ("level_tuples", "level_work", "level_extensions"):
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine and theirs and len(mine) != len(theirs):
                raise PlanError(
                    f"cannot add {len(theirs)} levels of {name} to "
                    f"{len(mine)}")
            setattr(self, name, [a + b for a, b in zip(
                mine or [0] * len(theirs), theirs or [0] * len(mine))])
        for name in ("intersection_work", "extensions", "emitted",
                     "cache_hits", "cache_misses"):
            setattr(self, name, getattr(self, name) + getattr(other, name))

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


def trie_order(atom_attrs: Sequence[str], order: Sequence[str]
               ) -> tuple[str, ...]:
    """Atom attributes sorted by their position in the global order."""
    pos = {a: i for i, a in enumerate(order)}
    return tuple(sorted(atom_attrs, key=pos.__getitem__))


def build_tries(query: JoinQuery, db: Database, order: Sequence[str],
                memo: dict | None = None) -> list[Trie]:
    """One trie per atom, columns renamed to query variables and sorted
    consistently with the global attribute order.

    Tries are memoized on their relations (:meth:`Relation.trie`), or,
    given a ``memo`` dict, there instead — keyed by relation name and
    column order — so they live only as long as the caller keeps it.
    """
    order = tuple(order)
    tries = []
    for atom in query.atoms:
        rel = db[atom.relation]
        if rel.arity != atom.arity:
            raise PlanError(
                f"atom {atom} arity mismatch with relation {rel.name}")
        # A rename keeps the relation's "known sorted set" flag, so a
        # trie in the stored column order is built without a sort, and
        # shares its trie memo, so a kept relation builds it once.
        renamed = rel.rename(dict(zip(rel.attributes, atom.attributes)))
        attrs = trie_order(atom.attributes, order)
        if memo is None:
            tries.append(renamed.trie(attrs))
            continue
        key = (rel.name, tuple(renamed.column_index(a) for a in attrs))
        trie = memo.get(key)
        if trie is None:
            trie = memo[key] = Trie(renamed, attrs)
            trie.levels()
        tries.append(trie.renamed(rel.name, attrs))
    return tries


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
                  cache_capacity: int | None = None,
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
    cache_capacity:
        Run HCubeJ+Cache's CacheTrieJoin with this many values of cache
        per chunk (None: no cache).  Changes ``cache_hits`` /
        ``cache_misses`` and the work counters, never the result;
        capacity 0 admits nothing.  Negative raises :class:`ConfigError`.
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
    if cache_capacity is not None and cache_capacity < 0:
        raise ConfigError(
            f"cache capacity must be >= 0, got {cache_capacity}")
    order, tries, stats, participants = _plan(query, db, order, tries, stats)
    fixed_levels = {}
    for attr, value in (fixed or {}).items():
        if attr not in order:
            raise PlanError(f"fixed attribute {attr!r} not in query")
        fixed_levels[order.index(attr)] = int(value)
    n = len(order)
    rows: list[np.ndarray] | None = [] if materialize else None
    if all(len(t) for t in tries):
        # Only a count-only run counts its tail.
        tail = (_tail_start(participants, fixed_levels)
                if rows is None and cache_capacity is None else n)
        run = _Frontier([t.levels() for t in tries], participants,
                        fixed_levels, budget, stats, rows, None,
                        cache_capacity, tail)
        _extend(run, 0, 1, [None] * len(tries), [], None)
    relation = None
    if rows is not None:
        data = np.vstack(rows) if rows else np.empty((0, n), dtype=np.int64)
        relation = Relation(f"{query.name}_result", order, data, dedup=False)
    return JoinResult(count=stats.emitted, stats=stats, relation=relation)


def leapfrog_sample_counts(query: JoinQuery, db: Database,
                           order: Sequence[str] | None,
                           values: np.ndarray,
                           tries: Sequence[Trie] | None = None
                           ) -> tuple[np.ndarray, LeapfrogStats]:
    """``|T_{A=a}|`` for every ``a`` in ``values``, ``A = order[0]``.

    All values (duplicates included) form the root frontier of *one*
    evaluation; the per-value counts come back as a bincount of the root
    id carried through the frontier, and the returned stats are the sums
    of what one ``leapfrog_join(fixed={A: a})`` per value would report.
    ``tries`` are prebuilt tries as :func:`build_tries` returns them
    (built, and memoized on the relations, when None).
    """
    order, tries, total, participants = _plan(query, db, order, tries, None)
    values = np.asarray(values, dtype=np.int64)
    counts = np.zeros(values.shape[0], dtype=np.int64)
    if not values.shape[0] or not all(len(t) for t in tries):
        return counts, total
    fixed = {0: values}
    run = _Frontier([t.levels() for t in tries], participants, fixed,
                    None, total, None, counts, None,
                    _tail_start(participants, fixed))
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
    capacity: int | None                 # cache values per chunk, if cached
    tail: int                            # first level counted, not gathered


def _tail_start(participants: list[list[tuple[int, int]]],
                fixed: Mapping[int, object]) -> int:
    """The first level from which every level has one participant and
    no fixed value (``len(participants)``: no tail)."""
    s = len(participants)
    while s and len(participants[s - 1]) == 1 and s - 1 not in fixed:
        s -= 1
    return s


def _extend(run: _Frontier, d: int, k: int,
            nodes: list[np.ndarray | None], cols: list[np.ndarray],
            root: np.ndarray | None) -> None:
    """Bind attribute ``d`` under each of ``k`` partial bindings.

    ``nodes[ai][b]`` is the node atom ``ai``'s trie sits on under binding
    ``b`` (None: still at its root, or never read again); ``cols`` are
    the bound prefix columns (materializing runs), ``root`` the root
    binding each binding descends from (multi-root runs).  Work is
    accounted from the participants' child-segment lengths — ``ptr``
    reads, no element touched — less the cache hits of a cached run.
    Then, chunk by chunk and depth-first, every binding's shortest
    segment is gathered and each candidate is probed in the other
    participants.  From the run's tail on, nothing is gathered: the
    levels are counted (:func:`_count_tail`); a count-only run's last
    level is gathered and counted, not kept (:func:`_count_last`).
    """
    if d >= run.tail:
        _count_tail(run, d, k, nodes, root)
        return
    stats = run.stats
    parts = run.participants[d]
    fixed = run.fixed.get(d)
    dedup = None
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
        shortest = seg.min(axis=0)
        chunks = _chunks(shortest)
        work = int(seg.sum())
        if run.capacity is not None:
            # The cache key: the nodes the participants sit on (those
            # still at depth 0 all sit on the root).
            held = [nodes[ai] for ai, depth in parts if depth]
            key = (row_keys(np.stack(held, axis=1))[0] if held
                   else np.zeros(k, dtype=np.int64))
            dedup = [_dedup(key, shortest, lo, hi,
                            1 + 2 * len(parts), run.capacity)
                     for lo, hi in chunks]
            hit = np.concatenate([h for _, _, h in dedup])
            hits = int(hit.sum())
            work -= int(seg[:, hit].sum())
            stats.cache_hits += hits
            stats.cache_misses += k - hits
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
    if (d == len(run.participants) - 1 and run.rows is None
            and run.capacity is None):
        for lo, hi in chunks:
            _count_last(run, d, nodes, starts, driver, shortest, lo, hi, root)
        return
    for i, (lo, hi) in enumerate(chunks):
        bind, value, children = _gather(
            run, d, nodes, starts, driver, shortest, lo, hi,
            None if dedup is None else dedup[i][0])
        if dedup is not None:
            # Every binding takes its representative's survivors, in
            # binding order, so rows stay lexicographic.
            rep = dedup[i][1]
            first = np.searchsorted(bind, rep)
            count = np.searchsorted(bind, rep, side="right") - first
            pos = _ranges(first, count)
            bind = np.repeat(np.arange(lo, hi), count)
            value = value[pos]
            children = [None if c is None else c[pos] for c in children]
        _descend(run, d, nodes, cols, root, bind, value, children)


def _count_tail(run: _Frontier, s: int, k: int,
                nodes: list[np.ndarray | None],
                root: np.ndarray | None) -> None:
    """Count levels ``s ..`` of ``k`` bindings without enumerating them.

    Every tail level has one participant and no fixed value, so the
    bindings it produces are *all* the participant's children, and the
    tail is a cross product of its atoms' subtries.  A node's
    descendants at any depth are one contiguous node range, so per
    binding each tail atom carries its range ``[lo, hi)`` down through
    ``ptr``, and a level's bindings under a binding are the product of
    the range lengths.  Every counter is the integer the enumeration
    accounts: one participant's segment, summed over the bindings
    extended, is both the level's work and its tuples.
    """
    stats = run.stats
    lo: dict[int, np.ndarray] = {}
    hi: dict[int, np.ndarray] = {}
    extended = k
    for e in range(s, len(run.participants)):
        (ai, depth), = run.participants[e]
        lv = run.levels[ai]
        if ai in lo:            # the atom's range, one level further down
            ptr = lv.ptr[depth - 1]
            lo[ai], hi[ai] = ptr[lo[ai]], ptr[hi[ai]]
        elif depth == 0:        # still at its root: the whole first level
            lo[ai] = np.zeros(k, dtype=np.int64)
            hi[ai] = np.full(k, lv.vals[0].shape[0], dtype=np.int64)
        else:
            ptr = lv.ptr[depth - 1]
            lo[ai], hi[ai] = ptr[nodes[ai]], ptr[nodes[ai] + 1]
        count = np.prod(np.stack([hi[a] - lo[a] for a in lo]), axis=0)
        tuples = int(count.sum())
        stats.extensions += extended
        stats.level_extensions[e] += extended
        stats.intersection_work += tuples
        stats.level_work[e] += tuples
        if run.budget is not None and stats.intersection_work > run.budget:
            raise BudgetExceeded(stats.intersection_work, run.budget)
        stats.level_tuples[e] += tuples
        extended = tuples
    stats.emitted += extended
    if root is not None:
        np.add.at(run.root_counts, root, count)


def _chunks(shortest: np.ndarray) -> list[tuple[int, int]]:
    """Cut the bindings into ``[lo, hi)`` runs gathering at most
    ``_CHUNK`` candidates (a binding gathering more is a run alone)."""
    gathered = np.cumsum(shortest)
    chunks, lo = [], 0
    while lo < shortest.shape[0]:
        limit = (int(gathered[lo - 1]) if lo else 0) + _CHUNK
        hi = max(lo + 1, int(np.searchsorted(gathered, limit, side="right")))
        chunks.append((lo, hi))
        lo = hi
    return chunks


def _dedup(key: np.ndarray, shortest: np.ndarray, lo: int, hi: int,
           entry: int, capacity: int):
    """CacheTrieJoin within the chunk ``[lo, hi)``.

    Bindings with equal ``key`` have the same candidates.  Distinct keys
    are admitted in first-appearance order while the sum of their entry
    sizes (``shortest`` x ``entry`` values, an upper bound on what the
    intersection holds) fits ``capacity``; a binding whose key was
    admitted earlier in the chunk is a hit.  Returns the representative
    bindings (each key's first, ascending), every binding's
    representative, and the hit mask.  Nothing outlives the chunk.
    """
    _, first, inverse = np.unique(key[lo:hi], return_index=True,
                                  return_inverse=True)
    seen = np.argsort(first)
    admitted = np.empty(first.shape[0], dtype=bool)
    # shortest >= 1, so capacity 0 admits nothing.
    admitted[seen] = np.cumsum(shortest[lo + first[seen]] * entry) <= capacity
    rep = first[inverse]
    hit = admitted[inverse] & (rep != np.arange(hi - lo))
    return lo + first[seen], lo + rep, hit


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The index ranges ``starts[i] .. starts[i] + lengths[i]``,
    concatenated (``lengths`` non-empty)."""
    ends = np.cumsum(lengths)
    return (np.arange(int(ends[-1]), dtype=np.int64)
            + np.repeat(starts - (ends - lengths), lengths))


def _count_last(run: _Frontier, d: int, nodes: list[np.ndarray | None],
                starts: list[np.ndarray], driver: np.ndarray,
                shortest: np.ndarray, lo: int, hi: int,
                root: np.ndarray | None) -> None:
    """Count the bindings of the last level ``d`` under bindings
    ``lo .. hi`` of a count-only run without enumerating them.

    Each driver group's candidates are looked up in the other
    participants with :meth:`TrieLevels.contains` (no node index), and
    only the hits of the last lookup are counted, not kept: nothing is
    filtered into child arrays and no merge sort restores binding order.
    The counters are the ones :func:`_descend` would record.
    """
    parts = run.participants[d]
    total = 0
    for p, (ai, depth) in enumerate(parts):
        sel = np.flatnonzero(driver[lo:hi] == p) + lo
        if not sel.shape[0]:
            continue
        bind = np.repeat(sel, shortest[sel])
        value = run.levels[ai].vals[depth][_ranges(starts[p][sel],
                                                   shortest[sel])]
        others = parts[:p] + parts[p + 1:]
        for i, (aq, dq) in enumerate(others):
            found = run.levels[aq].contains(
                dq, nodes[aq][bind] if dq else None, value)
            if i + 1 < len(others):
                bind, value = bind[found], value[found]
        total += int(np.count_nonzero(found))
        if root is not None:
            run.root_counts += np.bincount(
                root[bind[found]], minlength=run.root_counts.shape[0])
    run.stats.level_tuples[d] += total
    run.stats.emitted += total


def _gather(run: _Frontier, d: int, nodes: list[np.ndarray | None],
            starts: list[np.ndarray], driver: np.ndarray,
            shortest: np.ndarray, lo: int, hi: int,
            reps: np.ndarray | None):
    """Gather the driver segment of every binding in ``reps`` (ascending;
    None: all of ``lo .. hi``) and probe each candidate in the other
    participants."""
    groups = []
    for p, (ai, depth) in enumerate(run.participants[d]):
        sel = (np.flatnonzero(driver[lo:hi] == p) + lo if reps is None
               else reps[driver[reps] == p])
        if not sel.shape[0]:
            continue
        pos = _ranges(starts[p][sel], shortest[sel])
        groups.append(_probe(
            run, d, nodes, np.repeat(sel, shortest[sel]),
            run.levels[ai].vals[depth][pos], p, pos))
    if len(groups) == 1:
        return groups[0]
    # Each binding has one driver, so a stable sort by binding restores
    # lexicographic order across the driver groups.
    bind = np.concatenate([g[0] for g in groups])
    by_binding = np.argsort(bind, kind="stable")
    children = [
        None if group_children[0] is None
        else np.concatenate(group_children)[by_binding]
        for group_children in zip(*(g[2] for g in groups))]
    return (bind[by_binding],
            np.concatenate([g[1] for g in groups])[by_binding], children)


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
        lv = run.levels[ai]
        if deeper[p]:
            child, found = lv.probe(depth, parents, value)
        else:           # a leaf: only whether it exists matters
            child, found = None, lv.contains(depth, parents, value)
        if not found.all():
            bind, value = bind[found], value[found]
            if child is not None:
                child = child[found]
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
