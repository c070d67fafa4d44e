"""Database: a catalog of named relations plus memory accounting."""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from ..errors import SchemaError
from .relation import Relation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.optimizer import PlanCache

__all__ = ["Database", "ROUTE_MEMO_ENTRIES"]

#: Routes one database remembers (:attr:`Database.routes`).
ROUTE_MEMO_ENTRIES = 8


class Database:
    """A collection of relations, addressed by name.

    The paper's database ``D`` (Sec. II).  Construction of per-query
    databases (one relation per query atom, each a copy of a graph) lives
    in :mod:`repro.workloads`.
    """

    def __init__(self, relations: Iterable[Relation] = ()):
        self._relations: dict[str, Relation] = {}
        self._routes: "PlanCache | None" = None
        for rel in relations:
            self.add(rel)

    @property
    def routes(self) -> "PlanCache":
        """What routing a query over this database decided, kept for
        the next query (:func:`repro.engines.one_round
        .one_round_execute`): at most :data:`ROUTE_MEMO_ENTRIES`
        entries, counted under ``engines.route_memo_*``, and dropped by
        every :meth:`add`, :meth:`replace` and :meth:`remove`, so a memo
        dies with its database and never outlives a relation."""
        routes = self._routes
        if routes is None:
            from ..core.optimizer import PlanCache

            routes = self._routes = PlanCache(ROUTE_MEMO_ENTRIES,
                                              "engines.route_memo")
        return routes

    # -- container protocol -------------------------------------------------------

    def add(self, relation: Relation) -> None:
        if relation.name in self._relations:
            raise SchemaError(f"duplicate relation name {relation.name!r}")
        self._relations[relation.name] = relation
        self._routes = None

    def replace(self, relation: Relation) -> None:
        """Add or overwrite a relation (used when materializing bags)."""
        self._relations[relation.name] = relation
        self._routes = None

    def remove(self, name: str) -> None:
        if name not in self._relations:
            raise SchemaError(f"no relation named {name!r}")
        del self._relations[name]
        self._routes = None

    def __getitem__(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"no relation named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._relations)

    def __repr__(self) -> str:
        body = ", ".join(f"{r.name}:{len(r)}" for r in self)
        return f"Database({body})"

    # -- stats ---------------------------------------------------------------------

    @property
    def total_tuples(self) -> int:
        return sum(len(r) for r in self)

    @property
    def total_values(self) -> int:
        """Total integer values stored (the paper's '#integers' accounting)."""
        return sum(r.num_values for r in self)

    @property
    def nbytes(self) -> int:
        return sum(r.nbytes for r in self)

    def fingerprint(self) -> str:
        """Content hash of the whole catalog (hex sha256) over its sorted
        ``(name, Relation.digest)`` pairs: equal relations under equal
        names fingerprint equal, whatever the objects or insertion order,
        and a relation's rows are hashed once, by its first digest."""
        return hashlib.sha256(repr(sorted(
            (name, rel.digest) for name, rel in self._relations.items()
        )).encode()).hexdigest()

    def subset(self, names: Iterable[str]) -> "Database":
        """A new database holding only the named relations."""
        return Database(self[n] for n in names)

    def renamed_copy(self, mapping: Mapping[str, str]) -> "Database":
        """Copy with relations renamed (relation names, not attributes)."""
        out = Database()
        for rel in self:
            new_name = mapping.get(rel.name, rel.name)
            out.add(Relation(new_name, rel.attributes, rel.data, dedup=False))
        return out
