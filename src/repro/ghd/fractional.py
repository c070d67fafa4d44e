"""Fractional edge covers: the LP behind the AGM bound and fhw.

``fractional_edge_cover(H, weights)`` solves

    minimize    sum_e  w_e * x_e
    subject to  sum_{e contains v} x_e >= 1   for every vertex v
                x_e >= 0

With unit weights the optimum is the *fractional edge cover number*
rho*(H); with ``w_e = log |R_e|`` the optimum exponentiates to the AGM
worst-case output bound (Atserias-Grohe-Marx).  The fhw of a hypertree
bag is rho* of the bag's vertex set using all query edges (Gottlob et
al., used by the paper in Sec. III-A to pick the hypertree).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import DecompositionError
from ..query.hypergraph import Hypergraph

__all__ = [
    "FractionalCover",
    "fractional_edge_cover",
    "fractional_cover_number",
    "vertex_cover_lp",
]


@dataclass(frozen=True)
class FractionalCover:
    """Solution of a fractional edge cover LP."""

    objective: float
    weights: tuple[float, ...]   # x_e per edge, aligned with H.edges

    def support(self, tol: float = 1e-9) -> tuple[int, ...]:
        """Indices of edges with non-zero weight."""
        return tuple(i for i, w in enumerate(self.weights) if w > tol)


def fractional_edge_cover(hypergraph: Hypergraph,
                          vertices: Sequence[str] | None = None,
                          edge_weights: Sequence[float] | None = None
                          ) -> FractionalCover:
    """Solve the fractional edge cover LP.

    Parameters
    ----------
    hypergraph:
        The hypergraph supplying the candidate edges.
    vertices:
        The vertex set to cover.  Defaults to all vertices; passing a bag's
        vertex set computes the bag's width contribution for a GHD.
    edge_weights:
        LP objective weights per edge (default all 1.0).
    """
    cover_vertices = tuple(vertices) if vertices is not None \
        else hypergraph.vertices
    edges = hypergraph.edges
    if not cover_vertices:
        return FractionalCover(0.0, tuple(0.0 for _ in edges))
    for v in cover_vertices:
        if not any(v in e for e in edges):
            raise DecompositionError(
                f"vertex {v!r} is not covered by any edge; LP infeasible")
    num_edges = len(edges)
    weights = np.ones(num_edges) if edge_weights is None \
        else np.asarray(edge_weights, dtype=float)
    if weights.shape != (num_edges,):
        raise DecompositionError(
            f"need {num_edges} edge weights, got {weights.shape}")
    # Imported here, not at module scope: scipy.optimize is most of the
    # package's import time, and only this LP needs it.
    from scipy.optimize import linprog

    # linprog minimizes c @ x with A_ub @ x <= b_ub; coverage constraints
    # sum_{e ni v} x_e >= 1 become -sum <= -1.
    a_ub = np.zeros((len(cover_vertices), num_edges))
    for i, v in enumerate(cover_vertices):
        for j, e in enumerate(edges):
            if v in e:
                a_ub[i, j] = -1.0
    b_ub = -np.ones(len(cover_vertices))
    result = linprog(weights, A_ub=a_ub, b_ub=b_ub,
                     bounds=[(0, None)] * num_edges, method="highs")
    if not result.success:  # pragma: no cover - guarded by the check above
        raise DecompositionError(f"edge cover LP failed: {result.message}")
    x = tuple(float(max(0.0, v)) for v in result.x)
    return FractionalCover(float(result.fun), x)


def fractional_cover_number(hypergraph: Hypergraph,
                            vertices: Sequence[str] | None = None) -> float:
    """rho*(H) restricted to ``vertices`` (unit weights)."""
    return fractional_edge_cover(hypergraph, vertices).objective


def vertex_cover_lp(hypergraph: Hypergraph) -> float:
    """Fractional vertex *packing* value (LP dual of the edge cover).

    By LP duality this equals rho*(H); exposed for tests of the duality
    invariant.
    """
    vertices = hypergraph.vertices
    edges = hypergraph.edges
    if not vertices or not edges:
        return 0.0
    from scipy.optimize import linprog

    # maximize sum_v y_v  s.t. for every edge: sum_{v in e} y_v <= 1.
    c = -np.ones(len(vertices))
    a_ub = np.zeros((len(edges), len(vertices)))
    for i, e in enumerate(edges):
        for j, v in enumerate(vertices):
            if v in e:
                a_ub[i, j] = 1.0
    b_ub = np.ones(len(edges))
    result = linprog(c, A_ub=a_ub, b_ub=b_ub,
                     bounds=[(0, None)] * len(vertices), method="highs")
    if not result.success:  # pragma: no cover
        raise DecompositionError(f"vertex packing LP failed: {result.message}")
    return float(-result.fun)


def log_agm_exponent(hypergraph: Hypergraph,
                     sizes: Sequence[int]) -> FractionalCover:
    """Cover minimizing sum_e x_e * log|R_e| — the tight AGM objective.

    Empty relations contribute log(1) = 0 weight (an empty relation makes
    the output empty anyway; callers should special-case it).
    """
    weights = [math.log(max(1, s)) for s in sizes]
    return fractional_edge_cover(hypergraph, edge_weights=weights)
