"""The binary join step over memoized key groups, differentially
(repro.data.relation.JoinProbe, Relation.key_groups, sorted_distinct).

A step's right side is read through its key groups (join columns
first); its left side is matched key group against key group when it
is a lexsorted set whose join columns lead, row by row otherwise.  On
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
from repro.data import Database, Relation, lexsorted_rows
from repro.data.relation import JoinProbe, sorted_distinct
from repro.kernels import create_kernel
from repro.query import Atom, JoinQuery
from repro.wcoj import leapfrog_reference

#: Two columns holding +-WIDE do not pack into one int64 key, and a
#: trie level over them switches to ranks.
WIDE = 2 ** 61


@st.composite
def join_pairs(draw):
    """``(left, right)``: 0-2 shared columns, 0-2 private ones a side,
    columns shuffled, duplicated rows, optionally empty, disjoint on
    the join key, sparse or wide."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shared = ["k0", "k1"][:draw(st.integers(0, 2))]
    own = {side: [f"{side}{j}" for j in range(draw(st.integers(0, 2)))]
           for side in "lr"}
    if not shared + own["l"]:
        own["l"] = ["l0"]
    if not shared + own["r"]:
        own["r"] = ["r0"]
    # Narrow, sparse and too-wide-to-pack keys.
    scale = draw(st.sampled_from([1, 1, 1000, WIDE // 4]))
    disjoint = draw(st.booleans())
    sides = []
    for side in "lr":
        attrs = list(rng.permutation(shared + own[side]))
        n = draw(st.sampled_from([0, 1, 4, 25]))
        data = rng.integers(-3, 4, size=(n, len(attrs))) * scale
        if disjoint and side == "r":
            for a in shared:
                data[:, attrs.index(a)] += 8 * scale
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


def key_first(left: Relation, right: Relation) -> Relation:
    """``left`` as its key groups' lexsorted set, join columns first."""
    common = left.common_attributes(right)
    return left.key_groups(common + tuple(
        a for a in left.attributes if a not in common), len(common))[0]


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
        left.key_groups(("a", "b"), 1)
        assert key_first(left, right).data is first.left.data
        left.key_groups(("a", "b"), 0)
        assert key_first(left, right).data is not first.left.data

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
        # More threads than cores on one relation, three keys for a
        # two-entry memo, a short switch interval: a race may repeat
        # work, never pair a key with another key's groups.
        rng = np.random.default_rng(8)
        rel = Relation("R", ("a", "b"), rng.integers(0, 50, size=(400, 2)))
        asks = [(("a", "b"), 1), (("b", "a"), 1), (("b", "a"), 2)]
        expected = []
        for attrs, width in asks:
            twin = Relation("T", rel.attributes, rel.data)
            rows, bounds = twin.key_groups(attrs, width)
            expected.append((rows.data.tolist(), bounds.tolist()))

        def read(i: int) -> bool:
            attrs, width = asks[i % 3]
            rows, bounds = rel.rename({}).key_groups(attrs, width)
            return (rows.data.tolist(), bounds.tolist()) == expected[i % 3]

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
        rows, bounds = rel.key_groups(("a", "b"), 1)
        assert rows.data is rel.data
        assert bounds.tolist() == [0, 2, 3, 4]
        assert rel.key_groups(("a", "b"), 0)[1].tolist() == [0, 4]
        empty = Relation("E", ("a",), [])
        assert empty.key_groups(("a",), 0)[1].tolist() == [0]
        assert empty.key_groups(("a",), 1)[1].tolist() == [0]


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
