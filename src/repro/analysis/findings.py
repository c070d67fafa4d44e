"""The unit of lint output: one :class:`Finding` per violated invariant.

A finding names the rule, the file, the position and a human message;
its :attr:`~Finding.fingerprint` deliberately excludes line/column so
tooling reading the ``--json`` report can recognize the same finding
while unrelated edits move it around the file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

__all__ = ["Finding"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str                 # posix-style path, relative to the lint root
    line: int                 # 1-based
    col: int                  # 0-based, as ast reports it
    rule: str                 # checker rule id, e.g. "lazy-net"
    message: str
    #: Short hint on how to fix or legitimately suppress the finding.
    hint: str = field(default="", compare=False)

    @property
    def fingerprint(self) -> str:
        """Stable, position-independent identity (``--json`` consumers)."""
        raw = f"{self.rule}::{self.path}::{self.message}"
        return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]

    def as_dict(self) -> dict:
        """JSON-ready representation (the ``--json`` report format)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
            "fingerprint": self.fingerprint,
        }

    def render(self) -> str:
        """The human one-liner: ``path:line:col: [rule] message``."""
        return (f"{self.path}:{self.line}:{self.col}: "
                f"[{self.rule}] {self.message}")
