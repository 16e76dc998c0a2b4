"""Live TTY dashboard over a ``TELEM_*.jsonl`` telemetry stream.

``repro obs watch TELEM_run.jsonl`` re-reads the file every refresh and
renders the merged fleet view as plain text: unicode sparklines of the
per-window jam rate / goodput, the negotiation-latency quantiles from
the merged bucket counts, the hottest (most-jammed) networks, and
per-adversary hit rates. Because the renderer consumes the *merged*
series (:func:`repro.obs.telemetry.merge_frames`), the dashboard shows
the same numbers regardless of how many shards or pool workers produced
the file.

Pure python on purpose (no numpy): the dashboard must be able to watch a
grid run from a second terminal without paying the engine's import bill.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import TextIO

from repro.errors import ReproError
from repro.obs.metrics import parse_metric_key, quantile_from_buckets
from repro.obs.sink import ObsDoc
from repro.obs.telemetry import LATENCY_BUCKETS, load_telemetry, merge_frames

#: Eight-level block characters, lowest to highest.
SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values, width: int = 60) -> str:
    """Render the last ``width`` values as a unicode sparkline."""
    vals = [float(v) for v in values][-int(width):]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    if hi <= lo:
        return SPARK_CHARS[0] * len(vals)
    top = len(SPARK_CHARS) - 1
    return "".join(
        SPARK_CHARS[min(top, int((v - lo) / (hi - lo) * top + 0.5))] for v in vals
    )


def _fmt(value: float) -> str:
    return f"{float(value):.4g}"


def _series_line(name: str, values: list[float], width: int) -> str:
    spark = sparkline(values, width)
    last = values[-1]
    return (
        f"  {name:<12} {spark:<{width}} last={_fmt(last)} "
        f"min={_fmt(min(values))} max={_fmt(max(values))}"
    )


def _render_field(windows: list[dict], lines: list[str], *, top: int, width: int) -> None:
    last = windows[-1]
    networks = last["networks"]
    lines.append(
        f"field fleet  ({len(networks)} networks, {len(windows)} windows, "
        f"{last['slots']} slots/window)"
    )
    lines.append(_series_line("jam rate", [w["jam_rate"] for w in windows], width))
    lines.append(_series_line("goodput", [w["goodput"] for w in windows], width))
    if last.get("tokens"):
        per_window = [
            sum(w["tokens"]) / len(w["tokens"]) for w in windows if w.get("tokens")
        ]
        lines.append(_series_line("duty tokens", per_window, width))

    lat_counts = [0] * (len(LATENCY_BUCKETS) + 1)
    lat_min, lat_max = None, None
    for w in windows:
        for i, count in enumerate(w.get("lat_counts", ())):
            lat_counts[i] += int(count)
        if w.get("lat_min") is not None:
            lat_min = w["lat_min"] if lat_min is None else min(lat_min, w["lat_min"])
        if w.get("lat_max") is not None:
            lat_max = w["lat_max"] if lat_max is None else max(lat_max, w["lat_max"])
    if sum(lat_counts) and lat_min is not None:
        quantiles = {
            q: quantile_from_buckets(
                LATENCY_BUCKETS, lat_counts, q, minimum=lat_min, maximum=lat_max
            )
            for q in (0.5, 0.9, 0.99)
        }
        lines.append(
            "  negotiation  "
            + "  ".join(f"p{int(q * 100)}={_fmt(v)}s" for q, v in quantiles.items())
            + f"  max={_fmt(lat_max)}s"
        )

    jam_totals: dict[int, int] = {}
    slot_totals = 0
    for w in windows:
        slot_totals += int(w["slots"])
        for net, jammed in zip(w["networks"], w["jammed"]):
            jam_totals[int(net)] = jam_totals.get(int(net), 0) + int(jammed)
    hottest = sorted(jam_totals.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
    if hottest and slot_totals:
        described = "  ".join(
            f"#{net}:{count / slot_totals:.0%}" for net, count in hottest
        )
        lines.append(f"  hottest networks  {described}")

    by_adversary: dict[str, list[int]] = {}
    for w in windows:
        adversary = (w.get("labels") or {}).get("adversary", "none")
        row = by_adversary.setdefault(adversary, [0, 0])
        row[0] += sum(int(j) for j in w["jammed"])
        row[1] += sum(int(a) for a in w["attempts"])
    hits = [
        f"{adversary}:{jam / att:.0%} ({jam}/{att})"
        for adversary, (jam, att) in sorted(by_adversary.items())
        if att
    ]
    if hits:
        lines.append("  adversary hit rate  " + "  ".join(hits))


def _render_generic(
    series: str, windows: list[dict], lines: list[str], *, width: int
) -> None:
    last = windows[-1]
    lines.append(
        f"{series}  ({len(windows)} windows, {last.get('ticks', 1)} ticks/window)"
    )
    keys = sorted(last.get("values") or {})
    for key in keys:
        per_tick = [
            w["values"].get(key, 0.0) / max(1, w.get("ticks", 1))
            for w in windows
            if key in (w.get("values") or {})
        ]
        if per_tick:
            lines.append(_series_line(key, per_tick, width))


def _render_adversary_counters(doc: ObsDoc, lines: list[str], *, top: int) -> None:
    """Aggregate final jam.*/defense.* labelled counters over networks."""
    counters = (doc.metrics or {}).get("counters", {})
    rollup: dict[tuple[str, str], float] = {}
    for key, value in counters.items():
        name, labels = parse_metric_key(key)
        if not name.startswith(("jam.", "defense.")):
            continue
        who = labels.get("adversary") or labels.get("scheme") or "?"
        rollup[(name, who)] = rollup.get((name, who), 0.0) + float(value)
    if not rollup:
        return
    lines.append("")
    lines.append(f"adversary/defence counters (fleet totals, top {top})")
    ranked = sorted(rollup.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
    for (name, who), value in ranked:
        lines.append(f"  {name:<28} {who:<12} {value:>12g}")


def render_dashboard(
    source: ObsDoc | Path | str, *, top: int = 5, width: int = 60
) -> str:
    """One full dashboard frame for a telemetry file (or its parsed document)."""
    doc = source if isinstance(source, ObsDoc) else load_telemetry(source)
    merged = merge_frames(doc)
    lines: list[str] = []

    header = doc.head or {}
    lines.append(f"telemetry {doc.path}")
    described = "  ".join(
        f"{k}={v}"
        for k, v in (
            ("run", header.get("run")),
            ("time", header.get("time")),
            ("interval", header.get("interval")),
            ("frames", len(doc.frames)),
        )
        if v is not None
    )
    if described:
        lines.append(described)
    if doc.malformed:
        lines.append(f"warning: skipped {doc.malformed} malformed line(s)")
    lines.append("")

    if not merged:
        lines.append("(no frames yet)")
    for series in sorted(merged):
        windows = merged[series]
        if not windows:
            continue
        if series == "field":
            _render_field(windows, lines, top=top, width=width)
        else:
            _render_generic(series, windows, lines, width=width)
        lines.append("")
    while lines and not lines[-1]:
        lines.pop()

    _render_adversary_counters(doc, lines, top=top)
    return "\n".join(lines)


def watch(
    path: Path | str,
    *,
    interval: float = 2.0,
    iterations: int | None = None,
    top: int = 5,
    width: int = 60,
    stream: TextIO | None = None,
) -> int:
    """Render the dashboard every ``interval`` seconds until interrupted.

    ``iterations=1`` (the CLI's ``--once``) renders a single frame with
    no screen-clear escapes — the transcript-friendly mode tests and
    docs use. It prints the error and returns 1 when the telemetry cannot
    be read, so a run that wrote none fails; live mode waits for it
    instead. Returns a process exit code.
    """
    out = stream if stream is not None else sys.stdout
    clearing = iterations != 1
    rendered = 0
    while True:
        try:
            frame = render_dashboard(path, top=top, width=width)
        except ReproError as exc:
            if iterations == 1:
                out.write(f"no telemetry: {exc}\n")
                return 1
            frame = f"waiting for telemetry: {exc}"
        if clearing:
            out.write("\x1b[2J\x1b[H")
        out.write(frame + "\n")
        out.flush()
        rendered += 1
        if iterations is not None and rendered >= iterations:
            return 0
        try:
            time.sleep(max(0.0, float(interval)))
        except KeyboardInterrupt:
            return 0


__all__ = ["SPARK_CHARS", "sparkline", "render_dashboard", "watch"]
