"""Where observability artifacts land on disk.

``RUN_*.jsonl`` traces, ``PROF_*.pstats`` profiles and ``BENCH_*.json``
timing snapshots all share one artifact directory: ``$REPRO_BENCH_DIR``
when set, else ``benchmarks/results/`` at the repo root. This module owns
that resolution so :mod:`repro.obs` never has to import the execution
layer (which imports :mod:`repro.obs` for its metrics hooks).
"""

from __future__ import annotations

import os
from pathlib import Path

from repro import knobs

#: Default artifact directory (benchmarks/results at the repo root).
DEFAULT_ARTIFACT_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "results"


def artifact_dir() -> Path:
    """Directory RUN/PROF/BENCH artifacts are written to (env-overridable)."""
    return Path(knobs.get("REPRO_BENCH_DIR") or DEFAULT_ARTIFACT_DIR)


def run_target(value: str | None, prefix: str) -> Path | None:
    """The JSONL file a ``REPRO_TRACE``/``REPRO_TELEM`` value selects.

    A value with a path separator or a ``.jsonl`` suffix is the path
    itself; any other value names ``<prefix>_<value>.jsonl`` in the
    artifact directory; ``None`` (unset) selects no file.
    """
    if value is None:
        return None
    if os.sep in value or value.endswith(".jsonl"):
        return Path(value)
    return artifact_dir() / f"{prefix}_{value}.jsonl"


__all__ = ["DEFAULT_ARTIFACT_DIR", "artifact_dir", "run_target"]
