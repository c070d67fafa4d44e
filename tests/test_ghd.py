"""Tests for repro.ghd: fractional covers and hypertree decompositions."""

import os
import subprocess
import sys

import pytest

from repro.errors import DecompositionError, PlanError
from repro.ghd import (
    Hypertree,
    enumerate_ghds,
    fractional_cover_number,
    fractional_edge_cover,
    log_agm_exponent,
    optimal_hypertree,
    vertex_cover_lp,
)
from repro.query import Hypergraph, JoinQuery, example_query, paper_query, parse_query


class TestFractionalCover:
    def test_importing_the_package_defers_scipy(self):
        """Only the cover LP needs ``scipy.optimize`` (about half of a
        cold ``import repro``), so importing the package — every CLI
        run, pool child and agent — does not load it."""
        script = ("import sys, repro, repro.ghd\n"
                  "assert 'scipy.optimize' not in sys.modules\n"
                  "repro.ghd.fractional_cover_number("
                  "repro.query.Hypergraph(['a'], [{'a'}]))\n"
                  "assert 'scipy.optimize' in sys.modules\n")
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        proc = subprocess.run([sys.executable, "-c", script],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_triangle_is_three_halves(self):
        h = Hypergraph.of_query(paper_query("Q1"))
        assert fractional_cover_number(h) == pytest.approx(1.5)

    def test_single_edge(self):
        h = Hypergraph(["a", "b"], [{"a", "b"}])
        assert fractional_cover_number(h) == pytest.approx(1.0)

    def test_restricted_vertices(self):
        h = Hypergraph.of_query(paper_query("Q1"))
        assert fractional_cover_number(h, ("a", "b")) == pytest.approx(1.0)

    def test_empty_vertex_set(self):
        h = Hypergraph.of_query(paper_query("Q1"))
        assert fractional_cover_number(h, ()) == 0.0

    def test_uncoverable_vertex_rejected(self):
        h = Hypergraph(["a", "b", "z"], [{"a", "b"}, {"z"}])
        cover = fractional_edge_cover(h, ("a", "z"))
        assert cover.objective == pytest.approx(2.0)
        bad = Hypergraph(["a", "b"], [{"a"}])
        with pytest.raises(DecompositionError):
            fractional_edge_cover(bad, ("b",))

    def test_duality(self):
        # rho*(H) equals the fractional vertex packing optimum.
        for name in ("Q1", "Q2", "Q4", "Q5"):
            h = Hypergraph.of_query(paper_query(name))
            assert fractional_cover_number(h) == pytest.approx(
                vertex_cover_lp(h), abs=1e-6)

    def test_support(self):
        h = Hypergraph.of_query(paper_query("Q1"))
        cover = fractional_edge_cover(h)
        assert set(cover.support()) == {0, 1, 2}
        assert all(w == pytest.approx(0.5) for w in cover.weights)

    def test_log_weights(self):
        h = Hypergraph.of_query(paper_query("Q1"))
        cover = log_agm_exponent(h, [10, 10, 10])
        import math
        assert cover.objective == pytest.approx(1.5 * math.log(10))

    def test_weight_count_mismatch_rejected(self):
        h = Hypergraph.of_query(paper_query("Q1"))
        with pytest.raises(DecompositionError):
            fractional_edge_cover(h, edge_weights=[1.0])


class TestHypertreeSearch:
    def test_example_query_matches_fig5(self):
        """The paper's Fig. 5 decomposition: {R1}, {R2,R3}, {R4,R5}."""
        t = optimal_hypertree(example_query())
        bag_sets = {frozenset(b.atom_indices) for b in t.bags}
        assert bag_sets == {frozenset({0}), frozenset({1, 2}),
                            frozenset({3, 4})}
        assert t.width == pytest.approx(1.5)

    def test_all_ghds_valid(self):
        q = paper_query("Q4")
        for t in enumerate_ghds(q):
            t.check_valid()  # must not raise

    def test_single_bag_always_exists(self):
        for name in ("Q1", "Q2", "Q4"):
            q = paper_query(name)
            trees = list(enumerate_ghds(q))
            assert any(t.num_bags == 1 for t in trees)

    def test_optimal_width_minimal(self):
        q = paper_query("Q5")
        best = optimal_hypertree(q)
        for t in enumerate_ghds(q):
            assert best.width <= t.width + 1e-9

    def test_disconnected_query_rejected(self):
        q = parse_query("R(a,b), S(x,y)")
        with pytest.raises(DecompositionError):
            optimal_hypertree(q)

    def test_acyclic_path_gets_width_one(self):
        q = parse_query("R1(a,b), R2(b,c), R3(c,d)")
        t = optimal_hypertree(q)
        assert t.width == pytest.approx(1.0)

    def test_widths_match_clique_theory(self):
        # fhw of the k-clique is k/2 (no decomposition beats one bag).
        assert optimal_hypertree(paper_query("Q1")).width == \
            pytest.approx(1.5)
        assert optimal_hypertree(paper_query("Q2")).width == \
            pytest.approx(2.0)


class TestTraversalOrders:
    @pytest.fixture()
    def tree(self):
        return optimal_hypertree(example_query())

    def test_all_traversals_are_connected_expansions(self, tree):
        for order in tree.traversal_orders():
            assert tree.is_traversal_order(order)

    def test_traversal_count(self, tree):
        # Fig. 5 tree is the path va - vc - va? (v0-v2, v1-v2 or similar):
        # a path of three bags has 4 connected expansions... verify
        # against brute force.
        import itertools
        indices = [b.index for b in tree.bags]
        expected = sum(1 for p in itertools.permutations(indices)
                       if tree.is_traversal_order(p))
        assert len(list(tree.traversal_orders())) == expected

    def test_invalid_traversal_rejected(self, tree):
        import itertools
        indices = [b.index for b in tree.bags]
        invalid = [p for p in itertools.permutations(indices)
                   if not tree.is_traversal_order(p)]
        if invalid:
            with pytest.raises(PlanError):
                tree.attribute_order(invalid[0])

    def test_attribute_order_valid_shape(self, tree):
        for traversal in tree.traversal_orders():
            order = tree.attribute_order(traversal)
            assert set(order) == set(tree.query.attributes)
            assert tree.is_valid_attribute_order(order)

    def test_paper_example_orders(self):
        """Sec. III-A: for Fig. 5's T with traversal va < vb < vc,
        a<b<c<d<e is valid and a<b<e<d<c is invalid."""
        t = optimal_hypertree(example_query())
        assert t.is_valid_attribute_order(("a", "b", "c", "d", "e"))
        assert not t.is_valid_attribute_order(("a", "b", "e", "d", "c"))

    def test_inner_orders_respected(self, tree):
        traversal = next(tree.traversal_orders())
        first_bag = next(b for b in tree.bags if b.index == traversal[0])
        new_attrs = tuple(sorted(first_bag.attributes))
        order = tree.attribute_order(
            traversal, inner_orders={traversal[0]: new_attrs})
        assert order[:len(new_attrs)] == new_attrs

    def test_bad_inner_order_rejected(self, tree):
        traversal = next(tree.traversal_orders())
        with pytest.raises(PlanError):
            tree.attribute_order(traversal,
                                 inner_orders={traversal[0]: ("zz",)})

    def test_valid_orders_subset_of_permutations(self, tree):
        import itertools
        valid = set(tree.valid_attribute_orders())
        n_all = len(list(itertools.permutations(tree.query.attributes)))
        assert 0 < len(valid) < n_all

    def test_is_valid_rejects_wrong_attrs(self, tree):
        assert not tree.is_valid_attribute_order(("a", "b"))
