"""Structured logging for CLI and benchmark narration.

A thin ``key=value`` layer over stdlib :mod:`logging`: status lines go to
stderr (tables and figures keep stdout to themselves), the global
``--quiet``/``-q`` CLI flag drops everything below WARNING, and — when
tracing is active — every log line is mirrored into the trace as a
``log`` event, so the RUN artifact carries the narration too.
"""

from __future__ import annotations

import logging
import sys
from typing import Any, TextIO

from repro.obs import trace

#: Root logger name every :func:`get_logger` child hangs under.
ROOT_LOGGER = "repro"


def configure(
    *,
    quiet: bool = False,
    level: int | None = None,
    stream: TextIO | None = None,
) -> logging.Logger:
    """(Re)install the ``repro`` handler; idempotent, returns the root logger.

    ``quiet`` caps output at WARNING; otherwise ``level`` (default INFO)
    applies. ``stream`` defaults to stderr so stdout stays machine-readable.
    """
    root = logging.getLogger(ROOT_LOGGER)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(
        logging.Formatter(
            "%(asctime)s %(levelname)-7s %(name)s: %(message)s", datefmt="%H:%M:%S"
        )
    )
    root.handlers[:] = [handler]
    root.propagate = False
    root.setLevel(logging.WARNING if quiet else (level or logging.INFO))
    return root


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    text = str(value)
    return repr(text) if " " in text else text


class StructuredLogger:
    """``logger.info("msg", key=value, ...)`` -> ``msg key=value ...``."""

    def __init__(self, name: str = "") -> None:
        full = f"{ROOT_LOGGER}.{name}" if name else ROOT_LOGGER
        self._logger = logging.getLogger(full)

    def _log(self, level: int, message: str, fields: dict[str, Any]) -> None:
        if fields:
            suffix = " ".join(f"{k}={_format_value(v)}" for k, v in fields.items())
            message = f"{message} {suffix}"
        self._logger.log(level, message)
        if trace.enabled():
            trace.event(
                "log",
                level=logging.getLevelName(level),
                logger=self._logger.name,
                message=message,
            )

    def info(self, message: str, **fields: Any) -> None:
        self._log(logging.INFO, message, fields)

    def error(self, message: str, **fields: Any) -> None:
        self._log(logging.ERROR, message, fields)


def get_logger(name: str = "") -> StructuredLogger:
    """Structured logger under the ``repro`` hierarchy."""
    return StructuredLogger(name)


__all__ = ["ROOT_LOGGER", "configure", "get_logger", "StructuredLogger"]
