"""Structured logging for the ``repro.*`` logger hierarchy.

Every module logs through :func:`get_logger` (``repro.net.agent``,
``repro.runtime.scheduler``, ...), so one root configuration governs the
whole stack.  :func:`configure_logging` installs a key=value formatter
on the ``repro`` root logger:

    ts=2026-08-07T12:00:01.123 level=INFO logger=repro.net.agent \
        msg="task done" slot=2 worker=5

Severity resolves flag > ``REPRO_LOG`` env > WARNING, mirroring the
RunConfig precedence rule.  Messages stay human strings; structured
fields ride as ``key=value`` pairs via :func:`kv` (values with spaces
are quoted).  The library never configures logging on import — only the
CLI and ``JoinSession`` call :func:`configure_logging`, so embedding
applications keep control of their own handlers.
"""

from __future__ import annotations

import logging
import time

from ..errors import ConfigError
from ..knobs import env

__all__ = ["get_logger", "kv", "configure_logging", "resolve_level",
           "KeyValueFormatter"]

_ROOT = "repro"


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro`` hierarchy (idempotent, cheap)."""
    if name != _ROOT and not name.startswith(_ROOT + "."):
        name = f"{_ROOT}.{name}"
    return logging.getLogger(name)


def kv(**fields) -> str:
    """Render fields as ``key=value`` pairs for a log message tail."""
    parts = []
    for key, value in fields.items():
        text = str(value)
        if " " in text or '"' in text:
            text = '"' + text.replace('"', r'\"') + '"'
        parts.append(f"{key}={text}")
    return " ".join(parts)


class KeyValueFormatter(logging.Formatter):
    """``ts=... level=... logger=... msg=...`` — one line per record."""

    def format(self, record: logging.LogRecord) -> str:
        msg = record.getMessage()
        if " " in msg or '"' in msg:
            msg = '"' + msg.replace('"', r'\"') + '"'
        ts = time.strftime("%Y-%m-%dT%H:%M:%S",
                           time.localtime(record.created))
        line = (f"ts={ts}.{int(record.msecs):03d} "
                f"level={record.levelname} logger={record.name} "
                f"msg={msg}")
        if record.exc_info:
            line += "\n" + self.formatException(record.exc_info)
        return line


def resolve_level(level: str | int | None) -> int:
    """Flag > ``REPRO_LOG`` env > WARNING, as a logging level int."""
    if level is None:
        level = env("REPRO_LOG") or "warning"
    if isinstance(level, int):
        return level
    parsed = logging.getLevelName(str(level).strip().upper())
    if not isinstance(parsed, int):
        raise ConfigError(f"unknown log level: {level!r}")
    return parsed


def configure_logging(level: str | int | None = None) -> logging.Logger:
    """Install the key=value handler on the ``repro`` root logger.

    Idempotent: reconfiguring just updates the level of the handler it
    installed earlier.  Returns the root ``repro`` logger.
    """
    root = logging.getLogger(_ROOT)
    root.setLevel(resolve_level(level))
    for handler in root.handlers:
        if getattr(handler, "_repro_obs", False):
            return root
    handler = logging.StreamHandler()
    handler.setFormatter(KeyValueFormatter())
    handler._repro_obs = True
    root.addHandler(handler)
    root.propagate = False
    return root
