"""One string-keyed registry shape for every pluggable lineup.

Engines (:data:`repro.engines.registry.ENGINES`), join kernels
(:data:`repro.kernels.KERNELS`), data-plane transports
(:data:`repro.runtime.transport.TRANSPORTS`), executor backends
(:data:`repro.runtime.executor.BACKENDS`) and lint checkers
(:data:`repro.analysis.CHECKERS`) are all instances of
:class:`Registry`: ``keys()`` is the lineup the CLI choices, the benches
and ``RunConfig`` validation read, and an unknown or duplicate key is a
:class:`~repro.errors.ConfigError` worded the same way everywhere.

>>> KERNELS.register("mykernel", MyKernel, summary="what it does")
>>> KERNELS.create("mykernel").execute(query, db)

A ``lazy="module:attr"`` entry is imported on first :meth:`get`, so
registering ``tcp`` or ``remote`` never imports :mod:`repro.net`;
:meth:`check` validates a key without loading anything.
"""

from __future__ import annotations

import importlib
from typing import Any

from .errors import ConfigError

__all__ = ["Registry", "load"]


def load(path: str) -> Any:
    """The object a ``"module:attr"`` path names (imports the module)."""
    module, _, attr = path.partition(":")
    return getattr(importlib.import_module(module), attr)


class Registry:
    """Keys, in registration order, mapped to classes or factories."""

    def __init__(self, kind: str):
        #: What one entry is called in error messages ("engine", ...).
        self.kind = kind
        #: key -> (target, or None until a lazy entry is imported;
        #: "module:attr" path or None; one-line summary).
        self._entries: dict[str, tuple[Any, str | None, str]] = {}

    def register(self, key: str, target: Any = None, *,
                 lazy: str | None = None, summary: str = "") -> None:
        """Add ``target`` (or a lazy ``"module:attr"`` path) under ``key``."""
        if key in self._entries:
            raise ConfigError(f"{self.kind} {key!r} is already registered")
        if (target is None) == (lazy is None):
            raise ConfigError(f"register {self.kind} {key!r} with exactly "
                              f"one of target= or lazy='module:attr'")
        self._entries[key] = (target, lazy, summary)

    def keys(self) -> tuple[str, ...]:
        """Registered keys, in registration order."""
        return tuple(self._entries)

    def check(self, key: str) -> str:
        """``key`` itself if registered; else the unknown-key error."""
        if key not in self._entries:
            raise ConfigError(f"unknown {self.kind} {key!r}; "
                              f"choose from {self.keys()}")
        return key

    def get(self, key: str) -> Any:
        """The class or factory registered under ``key``."""
        target, lazy, summary = self._entries[self.check(key)]
        if target is None:
            target = load(str(lazy))
            self._entries[key] = (target, lazy, summary)
        return target

    def create(self, key: str, *args: Any, **kwargs: Any) -> Any:
        """Instantiate (or call) what is registered under ``key``."""
        return self.get(key)(*args, **kwargs)

    def summary(self, key: str) -> str:
        """The one-line summary ``key`` was registered with."""
        return self._entries[self.check(key)][2]
