"""Data substrate: relations, tries, databases, synthetic datasets."""

from .database import Database
from .datasets import (
    DATASETS,
    DatasetSpec,
    dataset_names,
    generate_erdos_renyi_edges,
    generate_power_law_edges,
    load_dataset,
    load_graph_relation,
)
from .relation import Relation, lexsorted_rows, row_group_ids
from .trie import Trie

__all__ = [
    "Database",
    "DATASETS",
    "DatasetSpec",
    "dataset_names",
    "generate_erdos_renyi_edges",
    "generate_power_law_edges",
    "load_dataset",
    "load_graph_relation",
    "Relation",
    "Trie",
    "lexsorted_rows",
    "row_group_ids",
]
