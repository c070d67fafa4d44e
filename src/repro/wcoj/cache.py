"""Bounded LRU cache of per-level intersection results.

This is the mechanism behind the paper's "HCubeJ + Cache" baseline
(CacheTrieJoin, Kalinsky et al.): Leapfrog repeatedly recomputes the same
intersections when different prefixes lead to identical trie ranges, so
caching them trades memory for computation.  The capacity is measured in
*cached values* (array elements), so the engine can size it from whatever
memory HCube left over — the exact effect the paper describes on LJ/OK
where the shuffle eats the memory budget and caching stops helping.
"""

from __future__ import annotations

from collections import OrderedDict

from ..errors import ConfigError

__all__ = ["IntersectionCache"]


class IntersectionCache:
    """LRU map from intersection keys to (values, spans) results."""

    def __init__(self, capacity_values: int):
        if capacity_values < 0:
            raise ConfigError("capacity must be >= 0")
        self.capacity_values = int(capacity_values)
        self._store: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._used_values = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def _entry_size(entry: tuple) -> int:
        vals, resolved = entry
        size = int(vals.shape[0])
        for starts, ends in resolved:
            size += int(starts.shape[0]) + int(ends.shape[0])
        return size

    def get(self, key: tuple):
        entry = self._store.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._store.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: tuple, entry: tuple) -> None:
        size = self._entry_size(entry)
        if size > self.capacity_values or not self.capacity_values:
            # Larger than the whole cache, or no cache at all (an empty
            # intersection has size 0): never admit.
            return
        if key in self._store:
            self._used_values -= self._entry_size(self._store.pop(key))
        while self._used_values + size > self.capacity_values and self._store:
            _, old = self._store.popitem(last=False)
            self._used_values -= self._entry_size(old)
            self.evictions += 1
        self._store[key] = entry
        self._used_values += size

    def clear(self) -> None:
        self._store.clear()
        self._used_values = 0

    @property
    def used_values(self) -> int:
        return self._used_values

    def __len__(self) -> int:
        return len(self._store)

    def __repr__(self) -> str:
        return (f"IntersectionCache(entries={len(self)}, "
                f"used={self._used_values}/{self.capacity_values}, "
                f"hits={self.hits}, misses={self.misses})")
