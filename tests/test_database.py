"""Unit tests for repro.data.database and repro.data.datasets."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    DATASETS,
    Database,
    Relation,
    dataset_names,
    generate_erdos_renyi_edges,
    generate_power_law_edges,
    load_dataset,
    load_graph_relation,
)
from repro.core import data_key
from repro.errors import SchemaError
from repro.knobs import env
from repro.query import parse_query
from repro.service import result_key


def rel(name, attrs=("a", "b"), rows=((1, 2),)):
    return Relation.from_tuples(name, attrs, rows)


#: 100 distinct rows: 1600 row bytes, far more than any name, schema or
#: digest fed to sha256.
ROWS = tuple((i, i + 1) for i in range(100))
ROW_BYTES = 100 * 2 * 8


def _row_hashes(monkeypatch):
    """Patch sha256 to record every input of at least :data:`ROW_BYTES`
    (row data); the returned list fills as rows are hashed."""
    seen = []
    real = hashlib.sha256

    class Spy:
        def __init__(self, data=b""):
            self._hash = real()
            self.update(data)

        def update(self, data):
            if memoryview(data).nbytes >= ROW_BYTES:
                seen.append(memoryview(data).nbytes)
            self._hash.update(data)

        def hexdigest(self):
            return self._hash.hexdigest()

    monkeypatch.setattr(hashlib, "sha256", Spy)
    return seen


@st.composite
def built_relations(draw):
    """Small relations through every way one is built, so equal content
    from different builders is common."""
    rows = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                         max_size=4))
    attrs = draw(st.sampled_from([("a", "b"), ("b", "a"), ("a", "c")]))
    name = draw(st.sampled_from(["R", "S"]))
    data = np.asarray(rows, dtype=np.int64).reshape(-1, 2)
    how = draw(st.sampled_from(["init", "raw", "wrap", "rename",
                                "reorder"]))
    if how == "init":
        return Relation(name, attrs, data)
    if how == "raw":
        return Relation(name, attrs, data, dedup=False)
    if how == "wrap":
        return Relation.wrap(name, attrs, data, sorted_set=False)
    if how == "rename":
        return Relation(name, ("x", "y"), data, dedup=False).rename(
            dict(zip(("x", "y"), attrs)))
    return Relation(name, attrs[::-1], data[:, ::-1],
                    dedup=False).reorder(attrs)


class TestDatabase:
    def test_add_and_get(self):
        db = Database([rel("R")])
        assert db["R"].name == "R"
        assert "R" in db
        assert len(db) == 1

    def test_duplicate_name_rejected(self):
        db = Database([rel("R")])
        with pytest.raises(SchemaError):
            db.add(rel("R"))

    def test_replace_overwrites(self):
        db = Database([rel("R")])
        db.replace(rel("R", rows=[(9, 9)]))
        assert (9, 9) in db["R"]

    def test_remove(self):
        db = Database([rel("R")])
        db.remove("R")
        assert "R" not in db
        with pytest.raises(SchemaError):
            db.remove("R")

    def test_missing_lookup(self):
        db = Database()
        with pytest.raises(SchemaError):
            db["nope"]

    def test_totals(self):
        db = Database([rel("R", rows=[(1, 2), (3, 4)]), rel("S", rows=[(1, 1)])])
        assert db.total_tuples == 3
        assert db.total_values == 6
        assert db.nbytes == 6 * 8

    def test_subset(self):
        db = Database([rel("R"), rel("S")])
        sub = db.subset(["S"])
        assert sub.names == ("S",)

    def test_renamed_copy(self):
        db = Database([rel("R")])
        out = db.renamed_copy({"R": "R2"})
        assert "R2" in out and "R" not in out
        assert "R" in db  # original untouched

    def test_iteration_order_is_insertion(self):
        db = Database([rel("B"), rel("A")])
        assert db.names == ("B", "A")


class TestFingerprint:
    def test_stable_across_equal_content(self):
        a = Database([rel("R", rows=[(1, 2), (3, 4)]), rel("S")])
        b = Database([rel("R", rows=[(1, 2), (3, 4)]), rel("S")])
        assert a.fingerprint() == b.fingerprint()

    def test_insertion_order_irrelevant(self):
        a = Database([rel("R"), rel("S")])
        b = Database([rel("S"), rel("R")])
        assert a.fingerprint() == b.fingerprint()

    def test_memoized(self, monkeypatch):
        db = Database([rel("R", rows=ROWS), rel("S", rows=ROWS)])
        first = db.fingerprint()
        hashed = _row_hashes(monkeypatch)
        assert db.fingerprint() == first
        assert hashed == []        # the digests live on the relations

    def test_row_bytes_hashed_once_per_relation(self, monkeypatch):
        hashed = _row_hashes(monkeypatch)
        db = Database([rel("R", rows=ROWS), rel("S", rows=ROWS)])
        query = parse_query("Q(a,b,c) :- R(a,b), S(b,c)")
        for _ in range(3):
            db.fingerprint()
            Database(db).fingerprint()
            data_key(query, db)
            result_key(query, db, "adj")
        assert hashed == [ROW_BYTES, ROW_BYTES]

    @settings(max_examples=200, deadline=None)
    @given(built_relations(), built_relations())
    def test_digest_is_the_content(self, a, b):
        same = (a.attributes == b.attributes
                and a.data.dtype == b.data.dtype
                and a.data.shape == b.data.shape
                and np.array_equal(a.data, b.data))
        assert (a.digest == b.digest) == same

    def test_data_changes_fingerprint(self):
        a = Database([rel("R", rows=[(1, 2)])])
        b = Database([rel("R", rows=[(1, 3)])])
        assert a.fingerprint() != b.fingerprint()

    def test_name_changes_fingerprint(self):
        a = Database([rel("R")])
        b = Database([rel("S")])
        assert a.fingerprint() != b.fingerprint()

    def test_attributes_change_fingerprint(self):
        a = Database([rel("R", attrs=("a", "b"))])
        b = Database([rel("R", attrs=("x", "y"))])
        assert a.fingerprint() != b.fingerprint()

    def test_add_invalidates(self):
        db = Database([rel("R")])
        before = db.fingerprint()
        db.add(rel("S"))
        assert db.fingerprint() != before

    def test_replace_invalidates(self):
        db = Database([rel("R")])
        before = db.fingerprint()
        db.replace(rel("R", rows=[(9, 9)]))
        assert db.fingerprint() != before

    def test_remove_invalidates(self):
        db = Database([rel("R"), rel("S")])
        before = db.fingerprint()
        db.remove("S")
        assert db.fingerprint() != before
        assert db.fingerprint() == Database([rel("R")]).fingerprint()

    def test_attribute_boundaries_unambiguous(self):
        # ("ab", "c") must not collide with ("a", "bc").
        a = Database([Relation.from_tuples("R", ("ab", "c"), [(1, 2)])])
        b = Database([Relation.from_tuples("R", ("a", "bc"), [(1, 2)])])
        assert a.fingerprint() != b.fingerprint()

    def test_empty_database(self):
        assert Database().fingerprint() == Database().fingerprint()
        assert Database().fingerprint() != Database([rel("R")]).fingerprint()


class TestGenerators:
    def test_power_law_shape_and_dedup(self):
        edges = generate_power_law_edges(300, seed=1)
        assert edges.shape[1] == 2
        assert edges.dtype == np.int64
        # no self-loops
        assert (edges[:, 0] != edges[:, 1]).all()
        # no duplicates
        assert np.unique(edges, axis=0).shape[0] == edges.shape[0]

    def test_power_law_deterministic(self):
        a = generate_power_law_edges(200, seed=7)
        b = generate_power_law_edges(200, seed=7)
        assert np.array_equal(a, b)

    def test_power_law_seed_changes_output(self):
        a = generate_power_law_edges(200, seed=7)
        b = generate_power_law_edges(200, seed=8)
        assert not np.array_equal(a, b)

    def test_power_law_is_heavy_tailed(self):
        edges = generate_power_law_edges(2000, seed=3)
        degrees = np.bincount(edges[:, 0])
        # hubs exist: max degree far above average
        assert degrees.max() > 5 * degrees[degrees > 0].mean()

    def test_power_law_zero_edges(self):
        assert generate_power_law_edges(0).shape == (0, 2)

    def test_erdos_renyi_basic(self):
        edges = generate_erdos_renyi_edges(150, seed=2)
        assert edges.shape[1] == 2
        assert (edges[:, 0] != edges[:, 1]).all()

    def test_saturation_on_tiny_node_set(self):
        # 4 nodes -> at most 12 directed non-loop edges; must not spin.
        edges = generate_power_law_edges(500, num_nodes=4, seed=0)
        assert edges.shape[0] <= 12


class TestDatasetRegistry:
    def test_six_datasets_in_paper_order(self):
        assert dataset_names() == ("wb", "as", "wt", "lj", "en", "ok")

    def test_size_ordering_preserved(self):
        sizes = [DATASETS[k].paper_edges for k in dataset_names()]
        assert sizes == sorted(sizes)

    def test_load_dataset_scales(self):
        small = load_dataset("wb", scale=2e-5)
        large = load_dataset("wb", scale=6e-5)
        assert small.shape[0] < large.shape[0]

    def test_load_dataset_unknown(self):
        with pytest.raises(KeyError):
            load_dataset("zz")

    def test_load_accepts_trailing_underscore(self):
        # "as" is a python keyword, so call sites may use "as_".
        edges = load_dataset("as_", scale=2e-5)
        assert edges.shape[0] > 0

    def test_load_graph_relation(self):
        r = load_graph_relation("wb", scale=2e-5)
        assert r.attributes == ("src", "dst")
        assert len(r) > 0

    def test_default_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert env("REPRO_SCALE") == 0.5
        monkeypatch.setenv("REPRO_SCALE", "-1")
        with pytest.raises(ValueError):
            env("REPRO_SCALE")

    def test_relative_order_of_scaled_analogues(self):
        wb = load_dataset("wb", scale=3e-5).shape[0]
        ok = load_dataset("ok", scale=3e-5).shape[0]
        assert wb < ok
