"""The binary join step over memoized tries, differentially
(repro.data.relation.JoinProbe, Relation.trie, sorted_distinct).

A step's right side is read through its trie (join columns first),
each node at the join columns' depth one key group; its left side is
matched node against node when it is a trie whose join columns lead,
row by row otherwise.  On
random pairs with 0, 1 and 2 shared columns, empty
sides, disjoint keys and values too wide to pack, every form must give
the textbook join: ``size`` equal to ``len(rows())``, to
``int(counts.sum())`` and to the ``leapfrog_reference`` count, and
``rows()`` a lexsorted set equal to a nested-loop join.  The one
distinct primitive is checked against ``len(set(column))`` the same
way.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.data.relation as relation_mod
import repro.data.trie as trie_mod
from repro.data import Database, Relation, Trie, lexsorted_rows
from repro.data.relation import JoinProbe, sorted_distinct
from repro.kernels import create_kernel
from repro.query import Atom, JoinQuery
from repro.wcoj import leapfrog_reference

#: Two columns holding +-WIDE do not pack into one int64 key, and a
#: trie level over them switches to ranks.
WIDE = 2 ** 61


@st.composite
def join_pairs(draw):
    """``(left, right)``: 0-3 shared columns, 0-2 private ones a side,
    columns shuffled, duplicated rows, optionally empty, the right's
    join key shifted part or all of the way out of the left's range,
    every row one key group, dense, sparse or too wide to pack."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shared = ["k0", "k1", "k2"][:draw(st.integers(0, 3))]
    own = {side: [f"{side}{j}" for j in range(draw(st.integers(0, 2)))]
           for side in "lr"}
    if not shared + own["l"]:
        own["l"] = ["l0"]
    if not shared + own["r"]:
        own["r"] = ["r0"]
    # Dense (a table), sparse (no table) and too-wide-to-pack keys.
    scale = draw(st.sampled_from([1, 1, 1000, WIDE // 4]))
    shift = draw(st.sampled_from([0, 0, 2, 8]))
    one_key = draw(st.booleans()) and draw(st.booleans())
    sides = []
    for side in "lr":
        attrs = list(rng.permutation(shared + own[side]))
        n = draw(st.sampled_from([0, 1, 4, 25]))
        data = rng.integers(-3, 4, size=(n, len(attrs))) * scale
        for a in shared:
            if one_key:
                data[:, attrs.index(a)] = scale
            if side == "r":
                data[:, attrs.index(a)] += shift * scale
        sides.append(Relation(side.upper(), attrs,
                              np.vstack([data, data[: n // 2]]),
                              dedup=False))
    return tuple(sides)


def nested_loops(left_attrs, left_rows, right: Relation) -> set:
    common = [a for a in left_attrs if a in right.attributes]
    rest = [a for a in right.attributes if a not in common]
    out = set()
    for lt in left_rows:
        lrow = dict(zip(left_attrs, lt))
        for rt in right:
            rrow = dict(zip(right.attributes, rt))
            if all(lrow[a] == rrow[a] for a in common):
                out.add(tuple(lt) + tuple(rrow[a] for a in rest))
    return out


def reference_count(left: Relation, right: Relation) -> int:
    query = JoinQuery([Atom(left.name, left.attributes),
                       Atom(right.name, right.attributes)])
    return len(leapfrog_reference(query, Database([left, right])))


def is_sorted_set(rel: Relation) -> bool:
    data = rel.data
    return (rel.is_sorted_set
            and np.array_equal(data, lexsorted_rows(data))
            and len({tuple(r) for r in data.tolist()}) == len(data))


def key_first(left: Relation, right: Relation) -> Trie:
    """``left``'s memoized trie, join columns first."""
    common = left.common_attributes(right)
    return left.trie(common + tuple(
        a for a in left.attributes if a not in common))


class TestJoinProbe:
    @settings(max_examples=200, deadline=None)
    @given(pair=join_pairs())
    def test_every_left_form_agrees_with_the_references(self, pair):
        left, right = pair
        expected = reference_count(left, right)
        for side in (left, left.sorted_set(), key_first(left, right)):
            probe = JoinProbe(side, right)
            joined = probe.rows()
            assert probe.size == len(joined) == int(probe.counts.sum()) \
                == expected
            assert is_sorted_set(joined)
            assert joined.attributes == probe.left.attributes + tuple(
                a for a in right.attributes if a not in probe.common)
            rows = {tuple(r) for r in left.sorted_set(
                probe.left.attributes).data.tolist()}
            assert joined.as_set() == nested_loops(
                probe.left.attributes, rows, right)
            # Set semantics on both inputs, whatever their row order.
            assert len(probe.left) == len(left.as_set())
            assert len(probe.right) == len(right.as_set())

    @settings(max_examples=100, deadline=None)
    @given(pair=join_pairs())
    def test_kernel_work_is_inputs_plus_output(self, pair):
        left, right = pair
        query = JoinQuery([Atom(left.name, left.attributes),
                           Atom(right.name, right.attributes)])
        db = Database([left, right])
        kernel = create_kernel("binary")
        counted = kernel.execute(query, db)
        full = kernel.execute(query, db, materialize=True)
        assert counted.count == full.count == reference_count(left, right)
        assert counted.stats == full.stats
        # One step: len(left) + len(right) + size, lengths as sets.
        assert counted.stats.intersection_work == (
            len(left.as_set()) + len(right.as_set()) + counted.count)

    def test_kept_key_groups_are_reused_not_rebuilt(self):
        rng = np.random.default_rng(5)
        left = Relation("L", ("a", "b"), rng.integers(0, 30, size=(200, 2)))
        right = Relation("R", ("c", "b"), rng.integers(0, 30, size=(200, 2)))
        first = JoinProbe(key_first(left, right), right)
        again = JoinProbe(key_first(left, right), right)
        assert again.size == first.size
        # A second step over the same relations sorts neither again.
        assert again.left.data is first.left.data
        assert again.right.data is first.right.data
        # The memo is shared with renames and keeps the last two built
        # (a self-join reads one relation in two orders); a third
        # replaces the older.
        renamed = left.rename({"a": "x"}, name="L2")
        assert key_first(renamed, right).data is first.left.data
        left.trie(("a", "b"))
        assert key_first(left, right).data is first.left.data
        wide = Relation("W", ("a", "b", "c"),
                        rng.integers(0, 30, size=(200, 3)))
        tries = [wide.trie(order) for order in (("b", "a", "c"),
                                                ("a", "b", "c"),
                                                ("c", "b", "a"))]
        assert wide.trie(("c", "b", "a")).levels() is tries[2].levels()
        assert wide.trie(("b", "a", "c")).levels() is not tries[0].levels()

    def test_a_warm_count_only_step_sorts_and_diffs_nothing(self,
                                                           monkeypatch):
        rng = np.random.default_rng(6)
        query = JoinQuery([Atom("L", ("a", "b")), Atom("R", ("b", "c"))])
        db = Database([Relation(n, ("x", "y"),
                                rng.integers(0, 40, size=(300, 2)))
                       for n in "LR"])
        kernel = create_kernel("binary")
        cold = kernel.execute(query, db)
        for helper in ("_sorted_rows", "_run_starts"):
            monkeypatch.setattr(relation_mod, helper, lambda *a, h=helper,
                                **k: pytest.fail(f"{h} ran warm"))
        warm = kernel.execute(query, db)
        assert warm.count == cold.count and warm.stats == cold.stats

    def test_threads_sharing_one_memo_read_the_right_groups(self):
        # More threads than cores on one relation, three orders for a
        # two-entry memo, a short switch interval: a race may repeat
        # work, never pair an order with another order's trie.
        rng = np.random.default_rng(8)
        rel = Relation("R", ("a", "b", "c"),
                       rng.integers(0, 50, size=(400, 3)))
        asks = [("a", "b", "c"), ("b", "a", "c"), ("c", "b", "a")]

        def seen(trie: Trie):
            levels = trie.levels()
            return (trie.data.tolist(), [p.tolist() for p in levels.ptr],
                    [v.tolist() for v in levels.vals])

        expected = [seen(Relation("T", rel.attributes, rel.data).trie(o))
                    for o in asks]

        def read(i: int) -> bool:
            return seen(rel.rename({}).trie(asks[i % 3])) == expected[i % 3]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(read, i) for i in range(300)]
                assert all(f.result(timeout=60) for f in futures)
        finally:
            sys.setswitchinterval(old)

    def test_groups_of_a_sorted_set_in_its_own_order_copy_nothing(self):
        rel = Relation("R", ("a", "b"), [[1, 2], [1, 3], [4, 0], [5, 5]])
        trie = rel.trie(("a", "b"))
        assert trie.data is rel.data
        # One key group per level 0 node, its rows carried down ``ptr``.
        assert trie.levels().vals[0].tolist() == [1, 4, 5]
        assert trie.levels().ptr[0].tolist() == [0, 2, 3, 4]
        empty = Relation("E", ("a",), []).trie(("a",)).levels()
        assert empty.vals[0].tolist() == [] and empty.table is None
        probe = JoinProbe(rel, Relation("E", ("a",), []))
        assert probe.size == 0 and probe.counts.tolist() == [0] * 4


def fresh(rel: Relation) -> Relation:
    """The same rows with nothing memoized."""
    return Relation(rel.name, rel.attributes, rel.data, dedup=False)


def right_levels(probe: JoinProbe):
    """The right side's memoized trie levels a probe read."""
    return probe.right.trie(probe.right.attributes).levels()


def ends(col: np.ndarray) -> np.ndarray:
    """``col``'s values with each one's neighbours, its range's ends and
    values near and at the int64 limits: probes in and out of range."""
    info = np.iinfo(np.int64)
    near = np.concatenate((col - 1, col, col + 1)) if col.shape[0] \
        else col
    return np.concatenate((near, [info.min, -WIDE, 0, WIDE, info.max]))


class TestDirectTable:
    """The right trie's level-0 table against the ``searchsorted`` of
    ``vals[0]`` (every table refused: ``_BITMAP_RATIO`` 0) and the
    nested-loop join."""

    @settings(max_examples=200, deadline=None)
    @given(pair=join_pairs())
    def test_table_search_and_nested_loops_agree(self, pair):
        left, right = pair
        seen = []
        for ratio in (trie_mod._BITMAP_RATIO, 0):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(trie_mod, "_BITMAP_RATIO", ratio)
                for side in (fresh(left), key_first(fresh(left), right)):
                    probe = JoinProbe(side, fresh(right))
                    levels = right_levels(probe)
                    if not ratio:
                        assert levels.table is None
                    values = ends(levels.vals[0])
                    nodes, found = levels.probe(0, None, values)
                    seen.append((probe.size, probe.counts.tolist(),
                                 probe.rows().data.tolist(),
                                 found.tolist(), nodes[found].tolist(),
                                 levels.contains(0, None, values).tolist()))
                    assert found.tolist() == np.isin(
                        values, levels.vals[0]).tolist()
                    rows = {tuple(r) for r in probe.left.data.tolist()}
                    assert probe.rows().as_set() == nested_loops(
                        probe.left.attributes, rows, right)
        assert seen[:2] == seen[2:]

    def test_dense_sparse_and_wide_rights_index_as_documented(self):
        rng = np.random.default_rng(9)
        data = rng.integers(0, 40, size=(300, 2))
        left = Relation("L", ("a", "b"), data)
        for scale, table in ((1, True), (1000, False), (WIDE, False)):
            right = Relation("R", ("b", "c"), data * scale)
            probe = JoinProbe(left, right)
            levels = right_levels(probe)
            assert (levels.table is not None) == table
            if table:
                # -1 marks a value of the span that is no node.
                assert levels.table.dtype == np.int32
                assert (np.flatnonzero(levels.table >= 0)
                        == levels.vals[0] - levels.vmin[0]).all()
                assert (levels.table[levels.table >= 0]
                        == np.arange(levels.vals[0].shape[0])).all()
            assert probe.size == reference_count(left, right)
        # Two wide join columns: probed level by level, rank-coded below.
        right = Relation("R", ("a", "b"), data * WIDE)
        assert right_levels(JoinProbe(left, right)).distinct[1] is not None
        wide = Relation("W", ("a", "b"), data * WIDE)
        assert JoinProbe(wide, right).size == len(right)

    def test_left_keys_outside_the_rights_range_miss(self):
        right = Relation("R", ("b", "c"), [[5, 0], [6, 1], [9, 2]])
        left = Relation("L", ("a", "b"), [[0, 4], [0, 5], [1, 9],
                                          [2, 10], [3, -2 ** 62],
                                          [4, 2 ** 62]])
        # Row by row, then node by node (b first).
        for side, expected in ((left, {(0, 5, 0), (1, 9, 2)}),
                               (key_first(left, right),
                                {(5, 0, 0), (9, 1, 2)})):
            probe = JoinProbe(side, right)
            assert right_levels(probe).table is not None
            assert probe.rows().as_set() == expected
            assert probe.size == 2

    def test_a_warm_count_only_step_on_a_dense_right_searches_nothing(
            self, monkeypatch):
        rng = np.random.default_rng(10)
        query = JoinQuery([Atom("L", ("a", "b")), Atom("R", ("b", "c"))])
        db = Database([Relation(n, ("x", "y"),
                                rng.integers(0, 400, size=(3000, 2)))
                       for n in "LR"])
        kernel = create_kernel("binary")
        cold = kernel.execute(query, db)
        assert db["R"].trie(("x", "y")).levels().table is not None

        def fail(name):
            return lambda *a, **k: pytest.fail(f"{name} ran warm")

        for helper in ("_sorted_rows", "_run_starts"):
            monkeypatch.setattr(relation_mod, helper, fail(helper))
        monkeypatch.setattr(Trie, "__init__", fail("Trie"))
        monkeypatch.setattr(Trie, "_build_levels", fail("_build_levels"))
        monkeypatch.setattr(np, "searchsorted", fail("np.searchsorted"))
        warm = kernel.execute(query, db)
        assert warm.count == cold.count and warm.stats == cold.stats

    def test_index_bytes_count_packed_keys_and_tables(self):
        rng = np.random.default_rng(11)
        right = Relation("R", ("b", "c"), rng.integers(0, 50, size=(400, 2)))
        left = Relation("L", ("a", "b"), rng.integers(0, 50, size=(400, 2)))
        assert right.index_nbytes == 0
        probe = JoinProbe(left, right)
        levels = right_levels(probe)
        # In its own order the right's rows are its trie's data: only
        # the levels, the root table among them, are extra.
        assert probe.right.data is right.data
        assert right.index_nbytes == levels.nbytes > levels.table.nbytes
        assert levels.table.nbytes <= (trie_mod._BITMAP_RATIO
                                       * levels.vals[0].nbytes)
        # A left trie in another order also holds its sorted rows.
        keyed = key_first(left, right)
        JoinProbe(keyed, right)
        assert keyed.data is not left.data
        assert left.index_nbytes == (keyed.data.nbytes
                                     + keyed.levels().nbytes)


@st.composite
def columns(draw):
    n = draw(st.sampled_from([0, 1, 2, 50]))
    values = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    scale = draw(st.sampled_from([1, WIDE]))
    return np.asarray(values, dtype=np.int64).reshape(-1) * scale


class TestSortedDistinct:
    @settings(max_examples=150, deadline=None)
    @given(col=columns())
    def test_counts_and_values_match_a_python_set(self, col):
        expected = sorted(set(col.tolist()))
        assert sorted_distinct(col).tolist() == expected
        rel = Relation("R", ("a", "b"), np.column_stack([col, col[::-1]]),
                       dedup=False)
        assert rel.distinct_count("a") == len(expected)
        assert rel.distinct_values("a").tolist() == expected
        assert rel.distinct_count("b") == len(set(col[::-1].tolist()))

    def test_a_wide_trie_level_ranks_its_distinct_values(self):
        # Parents times the value range leave int64: the level ranks.
        data = np.array([[0, WIDE], [0, -WIDE], [1, 0], [1, WIDE]])
        levels = Relation("R", ("a", "b"), data).trie(("a", "b")).levels()
        assert levels.distinct[1].tolist() == [-WIDE, 0, WIDE]
