"""Unit tests for repro.data.trie."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Relation, Trie
from repro.errors import SchemaError


def make_trie(rows, attrs=("a", "b"), order=None):
    rel = Relation.from_tuples("R", attrs, rows)
    return Trie(rel, order=order)


class TestTrieBuild:
    def test_sorted_and_deduped(self):
        t = make_trie([(2, 1), (1, 2), (1, 2), (1, 1)])
        assert t.data.tolist() == [[1, 1], [1, 2], [2, 1]]
        assert len(t) == 3

    def test_order_permutes_columns(self):
        t = make_trie([(1, 9), (2, 8)], order=("b", "a"))
        assert t.attributes == ("b", "a")
        assert t.data.tolist() == [[8, 2], [9, 1]]

    def test_bad_order_rejected(self):
        rel = Relation.from_tuples("R", ("a", "b"), [(1, 2)])
        with pytest.raises(SchemaError):
            Trie(rel, order=("a", "z"))

    def test_root_span(self):
        t = make_trie([(1, 1), (2, 2)])
        assert t.root == (0, 2)

    def test_data_readonly(self):
        t = make_trie([(1, 1)])
        with pytest.raises(ValueError):
            t.data[0, 0] = 5

    def test_known_sorted_set_is_never_sorted_again(self, monkeypatch):
        """One sort path: a relation that knows it is a lexsorted set in
        trie order is the trie's data, through renames too."""
        import repro.data.relation as relation_mod
        from repro.data import Database
        from repro.query import Atom, JoinQuery
        from repro.wcoj import build_tries

        rel = Relation.from_tuples("R", ("a", "b"),
                                   [(2, 1), (1, 2), (1, 2), (1, 1)])

        def resorted(*args, **kwargs):
            raise AssertionError("sorted a known sorted set again")

        monkeypatch.setattr(relation_mod, "_sorted_rows", resorted)
        assert Trie(rel).data is rel.data
        (trie,) = build_tries(JoinQuery([Atom("R", ("x", "y"))]),
                              Database([rel]), ("x", "y"))
        assert trie.attributes == ("x", "y") and trie.data is rel.data
        with pytest.raises(AssertionError):     # another order must sort
            Trie(rel, order=("b", "a"))

    @pytest.mark.parametrize("order", [("a", "b", "c"), ("c", "a", "b")])
    def test_values_too_wide_to_pack_take_the_lexsort_fallback(self, order):
        rng = np.random.default_rng(0)
        rows = rng.choice(np.array([-2 ** 61, -1, 0, 7, 2 ** 61]),
                          size=(200, 3))
        t = Trie(Relation("R", ("a", "b", "c"), rows, dedup=False),
                 order=order)
        cols = rows[:, ["abc".index(x) for x in order]]
        np.testing.assert_array_equal(t.data, np.unique(cols, axis=0))
        np.testing.assert_array_equal(t.levels().vals[0],
                                      np.unique(cols[:, 0]))
        assert not t.data.flags.writeable


class TestNavigation:
    def test_candidates_at_root(self):
        t = make_trie([(1, 5), (1, 6), (3, 1), (2, 2)])
        assert t.children(0, *t.root)[0].tolist() == [1, 2, 3]

    def test_candidates_within_range(self):
        t = make_trie([(1, 5), (1, 6), (2, 2)])
        lo, hi = t.child_range(0, *t.root, 1)
        values, starts, ends = t.children(1, lo, hi)
        assert values.tolist() == [5, 6]
        assert (starts.tolist(), ends.tolist()) == ([0, 1], [1, 2])

    def test_child_range_missing_value_empty(self):
        t = make_trie([(1, 5), (2, 2)])
        lo, hi = t.child_range(0, *t.root, 7)
        assert lo == hi

    def test_children_spans_partition_parent(self):
        t = make_trie([(1, 5), (1, 6), (2, 2), (3, 3), (3, 4)])
        values, starts, ends = t.children(0, *t.root)
        assert values.tolist() == [1, 2, 3]
        assert starts[0] == 0
        assert ends[-1] == len(t)
        assert (starts[1:] == ends[:-1]).all()

    def test_children_empty_range(self):
        t = make_trie([(1, 5)])
        values, starts, ends = t.children(0, 1, 1)
        assert values.shape == (0,)

    def test_count_distinct(self):
        t = make_trie([(1, 5), (1, 6), (2, 2)])
        assert len(t.children(0, *t.root)[0]) == 2

    def test_prefix_count(self):
        """Level ``l`` holds one node per distinct prefix of length
        ``l + 1``."""
        t = make_trie([(1, 5), (1, 6), (2, 2)])
        assert [len(v) for v in t.levels().vals] == [2, 3]

    def test_prefix_count_empty(self):
        t = Trie(Relation("R", ("a", "b")))
        assert [len(v) for v in t.levels().vals] == [0, 0]


class TestLevels:
    """The node-indexed level arrays agree with row-range navigation."""

    @given(rows=st.lists(st.tuples(st.integers(-3, 4), st.integers(0, 5),
                                   st.integers(2, 6)), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_levels_match_children(self, rows):
        t = make_trie(rows, attrs=("a", "b", "c"))
        lv = t.levels()
        assert t.levels() is lv                     # memoized
        assert [len(v) for v in lv.vals] \
            == [len({row[: d + 1] for row in rows}) for d in range(3)]
        spans = [t.root]          # row range of every node, level by level
        for depth in range(3):
            got_vals, below = [], []
            for lo, hi in spans:
                values, starts, ends = t.children(depth, lo, hi)
                got_vals.append(values)
                below.extend(zip(starts.tolist(), ends.tolist()))
            if depth:             # CSR: node i owns ptr[i]:ptr[i + 1]
                assert lv.ptr[depth - 1].tolist() == np.concatenate(
                    [[0], np.cumsum([len(v) for v in got_vals])]).tolist()
                assert np.all(np.diff(lv.keys[depth]) > 0)
            assert lv.vals[depth].tolist() \
                == np.concatenate(got_vals or [[]]).tolist()
            spans = below

    def test_probe_finds_exactly_the_children(self):
        t = make_trie([(1, 5), (1, 7), (2, 5), (4, -3)])
        lv = t.levels()
        nodes, found = lv.probe(0, None, np.array([0, 1, 4, 9]))
        assert found.tolist() == [False, True, True, False]
        assert nodes[found].tolist() == [0, 2]
        parents = np.array([0, 0, 1, 2, 2, 1])
        values = np.array([7, 6, 5, -3, 100, -100])
        nodes, found = lv.probe(1, parents, values)
        assert found.tolist() == [True, False, True, True, False, False]
        assert lv.vals[1][nodes[found]].tolist() == [7, 5, -3]

    def test_empty_trie_has_empty_levels(self):
        lv = make_trie([]).levels()
        assert [v.shape[0] for v in lv.vals] == [0, 0]
        assert lv.ptr[0].tolist() == [0]

    def test_keys_rank_encoded_when_offsets_would_overflow(self):
        """``parents * (max - min + 1)`` reaches 2**62: the level keys a
        value by its rank among the level's distinct values, and
        ``probe`` still finds exactly the children."""
        big = 2 ** 62
        t = make_trie([(0, 0), (0, big), (1, big), (1, -big // 2), (2, 5)])
        lv = t.levels()
        assert lv.keys[0] is None and lv.distinct[0] is None
        assert lv.distinct[1].tolist() == [-big // 2, 0, 5, big]
        assert lv.keys[1] is not None
        assert np.all(np.diff(lv.keys[1]) > 0)
        parents = np.array([0, 0, 0, 1, 1, 2, 2, 0, 1, 2])
        values = np.array([0, big, 5, -big // 2, 0, 5,
                           6,                 # between two ranks
                           1,                 # between two ranks
                           -big,              # below the level
                           2 ** 63 - 1])      # above the level
        nodes, found = lv.probe(1, parents, values)
        assert found.tolist() == [True, True, False, True, False, True,
                                  False, False, False, False]
        assert lv.vals[1][nodes[found]].tolist() == [0, big, -big // 2, 5]
        hit_parents, hit_nodes = parents[found], nodes[found]
        assert np.all((lv.ptr[0][hit_parents] <= hit_nodes)
                      & (hit_nodes < lv.ptr[0][hit_parents + 1]))


class TestTrieIterator:
    def test_walk_enumerates_all_tuples(self):
        rows = [(1, 5), (1, 6), (2, 2), (3, 1)]
        t = make_trie(rows)
        it = t.iterator()
        seen = []
        it.open()
        while not it.at_end:
            a = it.key()
            it.open()
            while not it.at_end:
                seen.append((a, it.key()))
                it.next()
            it.up()
            it.next()
        assert seen == sorted(rows)

    def test_seek_finds_least_upper_bound(self):
        t = make_trie([(1, 0), (3, 0), (7, 0)])
        it = t.iterator()
        it.open()
        it.seek(2)
        assert it.key() == 3
        it.seek(7)
        assert it.key() == 7
        it.seek(8)
        assert it.at_end

    def test_seek_is_monotone_no_backward(self):
        t = make_trie([(1, 0), (5, 0)])
        it = t.iterator()
        it.open()
        it.seek(5)
        # Seeking backwards keeps the position (LFTJ contract: seek only
        # moves forward).
        it.seek(1)
        assert it.key() == 5

    def test_up_restores_parent_position(self):
        t = make_trie([(1, 5), (2, 6), (2, 7)])
        it = t.iterator()
        it.open()          # at a=1
        it.next()          # at a=2
        assert it.key() == 2
        it.open()          # at b=6
        assert it.key() == 6
        it.up()            # back at a=2
        assert it.key() == 2
        it.next()
        assert it.at_end

    def test_up_above_root_raises(self):
        t = make_trie([(1, 1)])
        it = t.iterator()
        with pytest.raises(IndexError):
            it.up()

    def test_open_on_empty_trie(self):
        t = Trie(Relation("R", ("a", "b")))
        it = t.iterator()
        it.open()
        assert it.at_end


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9)),
        min_size=0, max_size=60,
    )
)
def test_trie_equals_sorted_set_property(rows):
    """The trie's flat data is exactly the sorted set of input rows."""
    rel = Relation.from_tuples("R", ("a", "b", "c"), rows)
    trie = Trie(rel)
    assert [tuple(r) for r in trie.data.tolist()] == sorted(set(map(tuple, rows)))


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
        min_size=1, max_size=40,
    ),
    probe=st.integers(0, 7),
)
def test_child_range_agrees_with_linear_scan(rows, probe):
    rel = Relation.from_tuples("R", ("a", "b"), rows)
    trie = Trie(rel)
    lo, hi = trie.child_range(0, *trie.root, probe)
    expected = sorted({t for t in set(map(tuple, rows)) if t[0] == probe})
    assert trie.data[lo:hi].tolist() == [list(t) for t in expected]
