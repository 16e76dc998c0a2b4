"""Every ``REPRO_*`` knob the library reads, declared once, parsed once.

Each knob is one :class:`Knob` row of :data:`KNOBS`, and :func:`get` is
the one parser for all of them:

* an explicit override (a CLI flag, a constructor argument) beats the
  environment; a non-string override is parsed as its text;
* text is stripped, and empty or whitespace-only text means the default;
* aliases (``off``/``none``/``auto``) and choices match case-insensitively;
* every bad value raises :class:`~repro.errors.ConfigurationError` naming
  the variable: ``REPRO_X must be ..., got '...'``.

:func:`resolved` snapshots every knob for artifact headers, and
:func:`add_flags` / :func:`export_flags` derive a verb's CLI flags from
the table. Within the package this module imports only
:mod:`repro.errors`, so every layer can use it.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Mapping

from repro.errors import ConfigurationError


def _cpu_count() -> int:
    return os.cpu_count() or 1


_AUTO = {"auto": _cpu_count}
_OFF_IS_1 = {"off": 1, "none": 1}  # a batch width switched off
_OFF_IS_0 = {"off": 0, "none": 0}  # a cache or bank switched off
_ON_IS_RUN = {word: "run" for word in ("1", "true", "yes", "on")}
_ADVERSARIES = ("sweep", "reactive", "follower", "learning")


@dataclass(frozen=True)
class Knob:
    """One ``REPRO_*`` variable: its grammar, default, and CLI flag.

    ``kind`` is ``int`` or ``float`` (within ``minimum``/``maximum``, and
    ``> 0`` when ``positive``), ``choice`` (one of ``choices``), ``names``
    (a comma list drawn from ``choices``), ``switch`` (on unless an alias
    says off), or ``text`` (kept as given). An alias maps a lower-cased
    word to a value, or to a callable producing it.
    """

    name: str
    kind: str
    default: Any
    doc: str
    choices: tuple[str, ...] = ()
    minimum: float | None = None
    maximum: float | None = None
    positive: bool = False
    aliases: Mapping[str, Any] = field(default_factory=dict)
    flag: str | None = None


# fmt: off
KNOBS: dict[str, Knob] = {knob.name: knob for knob in (
    Knob("REPRO_WORKERS", "int", 1, "process-pool size; 'auto' or 0 = one per CPU",
         minimum=1, aliases={**_AUTO, "0": _cpu_count}, flag="--workers"),
    Knob("REPRO_ON_ERROR", "choice", "raise",
         "what a failed pool task does: 'raise' aborts the sweep, 'retry' "
         "re-dispatches it (same seed), 'skip' keeps the completed results",
         choices=("raise", "retry", "skip"), flag="--on-error"),
    Knob("REPRO_MAX_RETRIES", "int", 2, "re-dispatches per task under retry/skip",
         minimum=0, flag="--max-retries"),
    Knob("REPRO_TASK_TIMEOUT", "float", None, "per-task result budget in seconds",
         positive=True),
    Knob("REPRO_FAULT_RATE", "float", 0.0, "deterministic fault-injection probability",
         minimum=0.0, maximum=1.0),
    Knob("REPRO_FAULT_SEED", "int", 0, "seed of the fault injector's stream",
         minimum=0),
    Knob("REPRO_ENV_BATCH", "int", 8,
         "seeds trained lock-step per pool task; 1 or 'off' = one task per seed",
         minimum=1, aliases=_OFF_IS_1, flag="--env-batch"),
    Knob("REPRO_CHANNEL", "choice", "analytic",
         "channel-fidelity tier of PER and jam adjudication",
         choices=("analytic", "hybrid", "waveform"), flag="--channel"),
    Knob("REPRO_CALIBRATION", "text", None,
         "hybrid-tier calibration artifact path (unset: the committed one)"),
    Knob("REPRO_PER_CACHE", "int", 1 << 16,
         "PER memo-table entries per link table; 0 or 'off' disables",
         minimum=0, aliases=_OFF_IS_0),
    # ~1.6 ms of burst at 20 Msps: a few frames, so random slices decorrelate.
    Knob("REPRO_JAMMER_BANK", "int", 1 << 15,
         "jammer waveform bank size in samples; 0 or 'off' re-encodes every trial",
         minimum=0, aliases=_OFF_IS_0, flag="--jammer-bank"),
    Knob("REPRO_SHARDS", "int", 1, "field-grid spatial shards; 'auto' = one per CPU",
         minimum=1, aliases=_AUTO, flag="--shards"),
    Knob("REPRO_FIELD_BATCH", "int", 64,
         "slots of uniforms per rng refill in aggregate sampling; 'off' = 1",
         minimum=1, aliases=_OFF_IS_1, flag="--field-batch"),
    Knob("REPRO_ADVERSARIES", "names", _ADVERSARIES,
         "comma list of adversaries for figure adv",
         choices=_ADVERSARIES, flag="--adversaries"),
    Knob("REPRO_SERVE_BATCH", "int", 64, "max decisions per stacked forward; 'off' = 1",
         minimum=1, aliases=_OFF_IS_1, flag="--batch"),
    # Well inside the paper's ~9 ms per-decision budget (Fig. 9).
    Knob("REPRO_SERVE_DEADLINE_MS", "float", 2.0,
         "max milliseconds a decision request waits for batch peers",
         minimum=0.0, flag="--deadline-ms"),
    Knob("REPRO_SERVE_QUEUE", "int", 256, "pending-request queue bound of the server",
         minimum=1, flag="--queue"),
    Knob("REPRO_SERVE_ADMISSION", "choice", "queue",
         "what the server does with a request that finds its queue full",
         choices=("queue", "shed", "degrade"), flag="--admission"),
    Knob("REPRO_TRACE", "text", None, "write a RUN_*.jsonl trace: run name, path, or 1",
         aliases=_ON_IS_RUN),
    Knob("REPRO_TRACE_SAMPLE", "float", 1.0, "fraction of trace events kept",
         maximum=1.0, positive=True),
    Knob("REPRO_TELEM", "text", None,
         "write TELEM_*.jsonl fleet telemetry: run name, path, or 1",
         aliases=_ON_IS_RUN),
    Knob("REPRO_TELEM_INTERVAL", "int", 20,
         "telemetry window length in slots or episodes", minimum=1),
    Knob("REPRO_PROFILE", "switch", False,
         "cProfile each timed stage into PROF_<stage>.pstats",
         aliases={word: False for word in ("0", "false", "no", "off")}),
    Knob("REPRO_BENCH_DIR", "text", None,
         "where BENCH/RUN/TELEM/PROF artifacts go (unset: benchmarks/results)"),
)}
# fmt: on


def _in_bounds(knob: Knob, value: float) -> bool:
    # NaN fails every comparison, so it is never in bounds.
    return (
        (knob.minimum is None or value >= knob.minimum)
        and (knob.maximum is None or value <= knob.maximum)
        and (not knob.positive or value > 0)
    )


def _expected(knob: Knob) -> str:
    """What a valid value of ``knob`` looks like, for error messages."""
    if knob.kind == "choice":
        return f"one of {knob.choices}"
    if knob.kind == "names":
        return f"a comma list of names from {knob.choices}"
    noun = "an integer" if knob.kind == "int" else "a number"
    if knob.maximum is not None:
        low = "(0" if knob.positive else f"[{knob.minimum:g}"
        bound = f" in {low}, {knob.maximum:g}]"
    elif knob.positive:
        bound = " > 0"
    elif knob.minimum is not None:
        bound = f" >= {knob.minimum:g}"
    else:
        bound = ""
    return noun + bound + "".join(f" or '{word}'" for word in knob.aliases)


def _parse(knob: Knob, text: str) -> Any:
    """Parse stripped, non-empty ``text``; raise ValueError when invalid."""
    key = text.lower()
    if key in knob.aliases:
        value = knob.aliases[key]
        return value() if callable(value) else value
    if knob.kind == "choice":
        if key in knob.choices:
            return key
    elif knob.kind == "names":
        names = tuple(part.strip() for part in key.split(",") if part.strip())
        if names and all(name in knob.choices for name in names):
            return names
    elif knob.kind in ("int", "float"):
        value = int(text) if knob.kind == "int" else float(text)
        if _in_bounds(knob, value):
            return value
    elif knob.kind == "switch":
        return True
    else:
        return text
    raise ValueError(text)


def parse(knob: Knob, raw: Any) -> Any:
    """Parse ``raw`` (``None`` when unset) under ``knob``'s grammar.

    Also serves variables outside :data:`KNOBS` that share the grammar,
    such as the benchmark budgets.
    """
    text = "" if raw is None else str(raw).strip()
    if not text:
        return knob.default
    try:
        return _parse(knob, text)
    except ValueError:
        raise ConfigurationError(
            f"{knob.name} must be {_expected(knob)}, got {str(raw)!r}"
        ) from None


def get(name: str, override: Any = None) -> Any:
    """Resolve knob ``name`` from ``override`` (when not None) or the env."""
    raw = os.environ.get(name) if override is None else override
    return parse(KNOBS[name], raw)


def resolved() -> dict[str, Any]:
    """Every knob's resolved value, keyed by variable name."""
    return {name: get(name) for name in KNOBS}


def environ() -> dict[str, str]:
    """The raw ``REPRO_*`` environment as set, knob or not."""
    return {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")}


def _flag_text(name: str, text: str) -> str:
    try:
        get(name, text)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def add_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    """Declare the CLI flag of each named knob on a verb's parser.

    A flag takes its knob's grammar (checked at parse time) and keeps the
    raw text; :func:`export_flags` then sets it in the environment.
    """
    declared = dict(parser.get_default("knob_flags") or {})
    for name in names:
        knob = KNOBS[name]
        choices = "{" + ",".join(knob.choices) + "}"
        action = parser.add_argument(
            knob.flag,
            type=partial(_flag_text, name),
            metavar=choices if knob.kind == "choice" else None,
            help=f"{knob.doc} (overrides {name})",
        )
        declared[name] = action.dest
    parser.set_defaults(knob_flags=declared)


def export_flags(args: argparse.Namespace) -> dict[str, str | None]:
    """Export the knob flags given on the command line to the environment.

    The library reads a knob from the environment wherever a call does
    not pass it explicitly, so exporting reaches every layer at once.
    Returns each exported variable's prior value (``None``: unset), for
    :func:`restore_flags`.
    """
    prior: dict[str, str | None] = {}
    for name, dest in getattr(args, "knob_flags", {}).items():
        value = getattr(args, dest)
        if value is not None:
            prior[name] = os.environ.get(name)
            os.environ[name] = value
    return prior


def restore_flags(prior: dict[str, str | None]) -> None:
    """Undo :func:`export_flags`: reset or unset each exported variable."""
    for name, value in prior.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
