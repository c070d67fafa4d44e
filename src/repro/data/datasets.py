"""Synthetic analogues of the paper's six benchmark graphs (Table I).

The paper evaluates on SNAP/LAW graphs: web-BerkStan (WB), as-Skitter
(AS), wiki-Talk (WT), com-LiveJournal (LJ), enwiki-2013 (EN) and
com-Orkut (OK), between 13.2M and 234.4M edges.  Those downloads are not
available offline, and full-size graphs would not fit a single-process
reproduction anyway, so we generate *seeded scaled analogues*:

- the **relative size ordering** WB < AS < WT < LJ < EN < OK is preserved
  (each analogue is ``scale`` x the paper's edge count, default 1e-4);
- degrees follow a **heavy-tailed (Chung-Lu power-law) distribution**, the
  property that makes the paper's cyclic queries computation-bound: hub
  nodes create huge intermediate-binding counts for Leapfrog;
- graphs are **symmetrized** like the paper's undirected SNAP datasets.

DESIGN.md records this substitution; EXPERIMENTS.md records the scale
used for every measured number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..knobs import env
from .relation import Relation, sorted_set_rows

__all__ = [
    "DatasetSpec",
    "DATASETS",
    "dataset_names",
    "generate_power_law_edges",
    "generate_erdos_renyi_edges",
    "load_dataset",
    "load_graph_relation",
]

_MIN_EDGES = 200


@dataclass(frozen=True)
class DatasetSpec:
    """Registry entry mirroring one row of the paper's Table I."""

    key: str                 # short name used throughout the paper
    description: str
    paper_edges: int         # |R| in the paper (number of tuples)
    paper_size_mb: float     # on-disk size reported in Table I
    exponent: float          # degree power-law exponent of the analogue
    avg_degree: float        # edges / nodes ratio of the analogue
    seed: int                # base RNG seed so analogues are reproducible

    def scaled_edges(self, scale: float) -> int:
        return max(_MIN_EDGES, int(round(self.paper_edges * scale)))


DATASETS: dict[str, DatasetSpec] = {
    spec.key: spec
    for spec in (
        # Exponents sit in the 1.6-1.9 range: at these scaled-down sizes
        # they empirically give max-degree / mean-degree ratios around 10,
        # matching the hub-dominated shape of the SNAP originals (steeper
        # exponents flatten out once duplicate edges are removed).
        DatasetSpec("wb", "web-BerkStan analogue (web graph)",
                    13_200_000, 101.5, exponent=1.70, avg_degree=4.0, seed=11),
        DatasetSpec("as", "as-Skitter analogue (internet topology)",
                    22_100_000, 169.3, exponent=1.80, avg_degree=4.5, seed=12),
        DatasetSpec("wt", "wiki-Talk analogue (communication network)",
                    50_900_000, 388.2, exponent=1.65, avg_degree=6.0, seed=13),
        DatasetSpec("lj", "com-LiveJournal analogue (social network)",
                    69_400_000, 529.2, exponent=1.85, avg_degree=5.0, seed=14),
        DatasetSpec("en", "enwiki-2013 analogue (hyperlink graph)",
                    183_900_000, 1370.0, exponent=1.75, avg_degree=6.0, seed=15),
        DatasetSpec("ok", "com-Orkut analogue (social network)",
                    234_400_000, 1788.1, exponent=1.90, avg_degree=8.0, seed=16),
    )
}


def dataset_names() -> tuple[str, ...]:
    """Dataset keys in the paper's Table I order."""
    return tuple(DATASETS)


def _dedup_edges(edges: np.ndarray) -> np.ndarray:
    """Drop self-loops and duplicate (src, dst) pairs."""
    edges = edges[edges[:, 0] != edges[:, 1]]
    if edges.shape[0] == 0:
        return edges
    return sorted_set_rows(edges)


def generate_power_law_edges(num_edges: int, num_nodes: int | None = None,
                             exponent: float = 1.8, seed: int = 0,
                             symmetric: bool = True) -> np.ndarray:
    """Chung-Lu style power-law graph as an (m, 2) int64 edge array.

    Endpoints are sampled proportionally to weights ``w_i = (i+1)^(-1/(g-1))``
    so node 0 is the biggest hub.  Sampling repeats until ``num_edges``
    distinct edges exist (or the graph saturates).
    """
    if num_edges <= 0:
        return np.empty((0, 2), dtype=np.int64)
    if num_nodes is None:
        num_nodes = max(8, num_edges // 4)
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, num_nodes + 1, dtype=np.float64)
    weights = ranks ** (-1.0 / (exponent - 1.0))
    probs = weights / weights.sum()

    target = num_edges
    collected = np.empty((0, 2), dtype=np.int64)
    max_possible = num_nodes * (num_nodes - 1)
    for _ in range(64):
        need = target - collected.shape[0]
        if need <= 0:
            break
        batch = max(need * 2, 256)
        src = rng.choice(num_nodes, size=batch, p=probs)
        dst = rng.choice(num_nodes, size=batch, p=probs)
        fresh = np.stack([src, dst], axis=1).astype(np.int64)
        if symmetric:
            fresh = np.vstack([fresh, fresh[:, ::-1]])
        collected = _dedup_edges(np.vstack([collected, fresh]))
        if collected.shape[0] >= max_possible:
            break
    return collected[:target] if collected.shape[0] > target else collected


def generate_erdos_renyi_edges(num_edges: int, num_nodes: int | None = None,
                               seed: int = 0,
                               symmetric: bool = True) -> np.ndarray:
    """Uniform random graph as an (m, 2) int64 edge array."""
    if num_edges <= 0:
        return np.empty((0, 2), dtype=np.int64)
    if num_nodes is None:
        num_nodes = max(8, num_edges // 4)
    rng = np.random.default_rng(seed)
    collected = np.empty((0, 2), dtype=np.int64)
    max_possible = num_nodes * (num_nodes - 1)
    for _ in range(64):
        need = num_edges - collected.shape[0]
        if need <= 0:
            break
        batch = max(need * 2, 256)
        fresh = rng.integers(0, num_nodes, size=(batch, 2), dtype=np.int64)
        if symmetric:
            fresh = np.vstack([fresh, fresh[:, ::-1]])
        collected = _dedup_edges(np.vstack([collected, fresh]))
        if collected.shape[0] >= max_possible:
            break
    return collected[:num_edges] if collected.shape[0] > num_edges else collected


def load_dataset(name: str, scale: float | None = None,
                 seed: int | None = None) -> np.ndarray:
    """Edge array of the named dataset analogue at the given scale."""
    key = name.lower().rstrip("_")
    if key not in DATASETS:
        raise KeyError(
            f"unknown dataset {name!r}; choose from {dataset_names()}")
    spec = DATASETS[key]
    if scale is None:
        scale = env("REPRO_SCALE")
    edges = spec.scaled_edges(scale)
    nodes = max(8, int(round(edges / spec.avg_degree)))
    return generate_power_law_edges(
        edges, num_nodes=nodes, exponent=spec.exponent,
        seed=spec.seed if seed is None else seed, symmetric=True)


def load_graph_relation(name: str, scale: float | None = None,
                        seed: int | None = None,
                        attributes: tuple[str, str] = ("src", "dst")
                        ) -> Relation:
    """The named dataset as a binary :class:`Relation`."""
    return Relation.from_edges(name.lower().rstrip("_"),
                               load_dataset(name, scale=scale, seed=seed),
                               attributes=attributes)
