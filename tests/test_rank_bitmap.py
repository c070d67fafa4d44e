"""Direct-addressed trie levels and the counted last level.

A trie level whose slot space ``parents * width`` is small next to its
keys (``repro.data.trie._BITMAP_RATIO``) keeps a rank bitmap beside
``keys``: :meth:`TrieLevels.probe` reads one bitmap word per pair where
the level has a rank, and :meth:`TrieLevels.contains` wherever it has
bits.  Both must agree with the search of ``keys`` they replace — on
``found``, and on the node index wherever a pair is found — for offset
and rank-coded levels, empty and one-row tries, values near ±2**61 and
parents at both ends.  A count-only Leapfrog run counts its last level
with ``contains`` instead of filtering it into child arrays; its count,
every ``LeapfrogStats`` counter and the sampler's per-root counts must
stay those of a materializing run and of the per-binding oracles.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.data.trie as trie_mod
import repro.wcoj.leapfrog as leapfrog_mod
from repro.data import Database, Relation, Trie
from repro.query import paper_query
from repro.wcoj import (
    LeapfrogStats,
    leapfrog_join,
    leapfrog_reference,
    leapfrog_sample_counts,
)
from repro.wcoj.reference import leapfrog_counters
from repro.workloads import graph_database_for

# ``parents * (max - min + 1)`` reaches 2**62: these levels are keyed by
# rank, not by offset.
WIDE = np.array([-2 ** 61, -1, 0, 7, 2 ** 61])

COUNTERS = ("level_tuples", "level_work", "level_extensions",
            "intersection_work", "extensions", "emitted")


def counters(result):
    return (result.count,
            *(getattr(result.stats, name) for name in COUNTERS))


def searched(levels):
    """The same levels with no bitmap: every lookup searches ``keys``."""
    none = (None,) * len(levels.vals)
    return levels._replace(bits=none, rank=none)


def pairs(levels, level, rng):
    """``(parents, values)``: every parent of ``level`` from a sample
    that includes both ends, crossed with the level's own values, its
    edges, values just outside it and values near ±2**61."""
    count = levels.ptr[level - 1].shape[0] - 1
    parents = np.unique(np.concatenate((
        [0, max(count - 1, 0)], rng.integers(0, max(count, 1), 12))))
    own = levels.vals[level]
    lo, hi = levels.vmin[level], levels.vmin[level] + levels.width[level]
    values = np.unique(np.concatenate((
        rng.choice(own, 12) if own.shape[0] else own,
        np.array([lo - 1, lo, hi - 1, hi, -2 ** 61, 2 ** 61, 0, 3]),
        rng.choice(WIDE, 4))))
    return (np.repeat(parents, values.shape[0]),
            np.tile(values, parents.shape[0]))


def children(levels, level):
    """Every ``(parent, value)`` pair of ``level``, mapped to its node."""
    ptr = levels.ptr[level - 1]
    parent = np.repeat(np.arange(ptr.shape[0] - 1), np.diff(ptr))
    return {(int(p), int(v)): node for node, (p, v) in
            enumerate(zip(parent, levels.vals[level]))}


class TestProbe:
    @given(seed=st.integers(0, 2 ** 16),
           rows=st.sampled_from([0, 1, 2, 9, 60, 300]),
           arity=st.integers(2, 3), wide=st.booleans(), hub=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_bitmap_and_search_agree(self, seed, rows, arity, wide, hub):
        rng = np.random.default_rng(seed)
        data = (rng.choice(WIDE, size=(rows, arity)) if wide
                else rng.integers(0, 12, size=(rows, arity)))
        if hub:
            data[: rows // 2, 0] = data[:1, 0]
        levels = Trie(Relation("R", ("a", "b", "c")[:arity], data)).levels()
        plain = searched(levels)
        for level in range(1, arity):
            # Small domains and rank codes are dense: every non-empty
            # level qualifies (an offset over ±2**61 may not), and only
            # the deepest goes without a rank.
            dense = rows > 0 and (not wide or levels.distinct[level]
                                  is not None)
            assert levels.bits[level] is not None or not dense
            assert (levels.rank[level] is not None) == (
                levels.bits[level] is not None and level < arity - 1)
            parents, values = pairs(levels, level, rng)
            nodes, found = levels.probe(level, parents, values)
            want_nodes, want_found = plain.probe(level, parents, values)
            np.testing.assert_array_equal(found, want_found)
            np.testing.assert_array_equal(nodes[found], want_nodes[found])
            np.testing.assert_array_equal(
                levels.contains(level, parents, values), found)
            # And both are the trie's own children.
            truth = children(levels, level)
            assert found.tolist() == [(int(p), int(v)) in truth
                                      for p, v in zip(parents, values)]
            assert nodes[found].tolist() == [
                truth[int(p), int(v)]
                for p, v in zip(parents[found], values[found])]
        values = np.concatenate((levels.vals[0][:3], WIDE))
        np.testing.assert_array_equal(levels.contains(0, None, values),
                                      plain.probe(0, None, values)[1])

    def test_rank_coded_level_takes_the_bitmap(self):
        big = 2 ** 62
        levels = Trie(Relation("R", ("a", "b", "c"), np.array([
            (0, 0, 1), (0, big, 2), (1, big, 3), (1, -big // 2, 4),
            (2, 5, 5)]))).levels()
        assert levels.distinct[1] is not None
        assert levels.rank[1] is not None and levels.bits[2] is not None
        parents = np.array([0, 0, 1, 1, 2, 2, 0])
        values = np.array([0, big, big, -big // 2, 5, 6, -big])
        nodes, found = levels.probe(1, parents, values)
        assert found.tolist() == [True, True, True, True, True, False, False]
        assert levels.vals[1][nodes[found]].tolist() == [
            0, big, big, -big // 2, 5]
        np.testing.assert_array_equal(
            nodes[found], searched(levels).probe(1, parents, values)[0][found])

    def test_a_sparse_level_keeps_the_search(self):
        """Two parents over a 10**12-wide domain: the bitmap would be
        ~2**32 times its keys, so the level has none."""
        levels = Trie(Relation("R", ("a", "b"),
                               np.array([(0, 0), (1, 10 ** 12)]))).levels()
        assert levels.bits[1] is None and levels.rank[1] is None
        parents, values = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 10 ** 12])
        nodes, found = levels.probe(1, parents, values)
        assert found.tolist() == [True, False, False, True]
        assert nodes[found].tolist() == [0, 1]
        np.testing.assert_array_equal(levels.contains(1, parents, values),
                                      found)

    def test_every_bitmap_fits_the_size_rule(self):
        rng = np.random.default_rng(3)
        for spread in (10, 1000, 100_000):
            data = rng.integers(0, spread, size=(500, 3))
            levels = Trie(Relation("R", ("a", "b", "c"), data)).levels()
            for bits, rank, keys in zip(levels.bits, levels.rank,
                                        levels.keys):
                if bits is not None:
                    index = bits.nbytes + (0 if rank is None else rank.nbytes)
                    assert index <= trie_mod._BITMAP_RATIO * keys.nbytes


class TestResidentBytes:
    def test_levels_count_their_bitmaps(self):
        rel = Relation("R", ("a", "b", "c"),
                       np.random.default_rng(4).integers(0, 9, size=(80, 3)))
        levels = rel.trie(("a", "b", "c")).levels()
        assert levels.bits[1] is not None and levels.rank[1] is not None
        assert levels.table is not None     # the root is dense too
        index = sum(a.nbytes for group in (levels.bits, levels.rank,
                                           (levels.table,))
                    for a in group if a is not None)
        assert index > 0
        assert levels.nbytes == index + sum(
            a.nbytes for group in (levels.vals, levels.ptr, levels.keys,
                                   levels.distinct)
            for a in group if a is not None)
        # The trie shares the relation's rows, so the index is its levels.
        assert rel.index_nbytes == levels.nbytes

    def test_a_self_join_counts_both_orders(self):
        rel = Relation("E", ("x", "y"),
                       np.random.default_rng(5).integers(0, 30, size=(90, 2)))
        forward = rel.trie(("x", "y"))
        backward = rel.trie(("y", "x"))
        assert rel.index_nbytes == (forward.levels().nbytes
                                    + backward.levels().nbytes
                                    + backward.data.nbytes)


def skewed(query_name, seed, n=300, dom=40, wide=False):
    """Random edges where node 0 is a hub, so bindings of one chunk pick
    different drivers; ``wide`` spreads the ids over ±2**61."""
    query = paper_query(query_name)
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, dom, size=(n, 2))
    edges[: n // 4, 0] = 0
    edges[n // 4: n // 2, 1] = 0
    if wide:
        edges = edges * (2 ** 56) - 2 ** 61
    return query, graph_database_for(query, edges)


class TestCountedLastLevel:
    """A count-only, uncached run whose last level has two or more
    participants counts that level's hits instead of keeping them."""

    @pytest.mark.parametrize("chunk", [1, 7, leapfrog_mod._CHUNK])
    @pytest.mark.parametrize("query_name,wide",
                             [("Q1", False), ("Q1", True), ("Q9", False),
                              ("Q2", False), ("Q5", True)])
    def test_counters_match_the_enumeration(self, monkeypatch, query_name,
                                            wide, chunk):
        query, db = skewed(query_name, seed=7, wide=wide)
        materialized = leapfrog_join(query, db, materialize=True)
        monkeypatch.setattr(leapfrog_mod, "_CHUNK", chunk)
        counted = []
        count_last = leapfrog_mod._count_last
        monkeypatch.setattr(leapfrog_mod, "_count_last",
                            lambda run, d, *a: counted.append(d)
                            or count_last(run, d, *a))
        descend = leapfrog_mod._descend
        last = len(query.attributes) - 1

        def no_last_descend(run, d, *args):
            assert d < last, "the last level was materialized"
            return descend(run, d, *args)

        monkeypatch.setattr(leapfrog_mod, "_descend", no_last_descend)
        result = leapfrog_join(query, db)
        assert counted and set(counted) == {last}
        assert counters(result) == counters(materialized) \
            == counters(leapfrog_counters(query, db))
        assert result.count == len(leapfrog_reference(query, db)) > 0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 16),
           query_name=st.sampled_from(["Q1", "Q5", "Q9"]),
           n=st.sampled_from([1, 20, 200]), wide=st.booleans())
    def test_random_graphs(self, seed, query_name, n, wide):
        query, db = skewed(query_name, seed, n=n, dom=25, wide=wide)
        count_only = leapfrog_join(query, db)
        assert counters(count_only) \
            == counters(leapfrog_join(query, db, materialize=True)) \
            == counters(leapfrog_counters(query, db))

    @pytest.mark.parametrize("chunk", [7, leapfrog_mod._CHUNK])
    def test_sample_counts_per_root(self, monkeypatch, chunk):
        query, db = skewed("Q1", seed=9)
        monkeypatch.setattr(leapfrog_mod, "_CHUNK", chunk)
        values = np.array([0, 3, 3, 99, 0, 7, 1])
        counts, stats = leapfrog_sample_counts(query, db, None, values)
        total = LeapfrogStats()
        for got, value in zip(counts, values):
            single = leapfrog_counters(query, db, fixed={"a": int(value)})
            assert got == single.count
            total.add(single.stats)
        assert stats == total
        assert counts[3] == 0 < counts[0]

    def test_materializing_and_cached_runs_still_enumerate(self, monkeypatch):
        query, db = skewed("Q1", seed=2)
        monkeypatch.setattr(leapfrog_mod, "_count_last",
                            lambda *a: pytest.fail("counted the last level"))
        plain = leapfrog_join(query, db, materialize=True)
        cached = leapfrog_join(query, db, cache_capacity=0)
        assert plain.count == cached.count > 0
