"""OpenMetrics text exposition for metrics snapshots and telemetry files.

Turns the labelled :class:`repro.obs.metrics.MetricsRegistry` snapshot
format (flat ``name{k=v,...}`` keys) into the OpenMetrics text format
that Prometheus-compatible scrapers ingest: dotted names become
underscored families, counters gain the ``_total`` suffix, histograms
expand into cumulative ``_bucket{le="..."}`` samples plus ``_sum`` and
``_count``, and label values are quoted/escaped per the spec.

:func:`export_telemetry` is the ``repro obs export`` backend: it reads a
``TELEM_*.jsonl`` file, writes the final metrics record as a ``.prom``
exposition (augmented with fleet-level gauges recomputed from the merged
field series), and writes the merged windowed series as one JSON line
per ``(series, window)`` for downstream plotting.

Zero-dependency on purpose — exporting never drags in numpy.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Mapping

from repro.errors import ReproError
from repro.obs.metrics import label_key, parse_metric_key
from repro.obs.telemetry import load_telemetry, merge_frames

_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def metric_name(name: str) -> str:
    """Sanitise a dotted registry name into an OpenMetrics family name."""
    name = _NAME_BAD.sub("_", str(name))
    if not name:
        raise ReproError("metric name is empty after sanitisation")
    if name[0].isdigit():
        name = "_" + name
    return name


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _labels_text(labels: Mapping[str, str], extra: str | None = None) -> str:
    parts = [f'{metric_name(k)}="{_escape(v)}"' for k, v in sorted(labels.items())]
    if extra is not None:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _num(value: float) -> str:
    value = float(value)
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _families(section: Mapping[str, object]) -> dict[str, list[tuple[str, object]]]:
    """Group flat ``name{labels}`` keys by sanitised family name."""
    families: dict[str, list[tuple[str, object]]] = {}
    for key in sorted(section):
        base, _ = parse_metric_key(key)
        families.setdefault(metric_name(base), []).append((key, section[key]))
    return families


def render_openmetrics(snapshot: Mapping[str, Mapping]) -> str:
    """Render a registry snapshot dict as OpenMetrics text (ends ``# EOF``)."""
    lines: list[str] = []

    for family, entries in sorted(_families(snapshot.get("counters", {})).items()):
        lines.append(f"# TYPE {family} counter")
        for key, value in entries:
            _, labels = parse_metric_key(key)
            lines.append(f"{family}_total{_labels_text(labels)} {_num(value)}")

    for family, entries in sorted(_families(snapshot.get("gauges", {})).items()):
        lines.append(f"# TYPE {family} gauge")
        for key, value in entries:
            _, labels = parse_metric_key(key)
            lines.append(f"{family}{_labels_text(labels)} {_num(value)}")

    for family, entries in sorted(_families(snapshot.get("histograms", {})).items()):
        lines.append(f"# TYPE {family} histogram")
        for key, doc in entries:
            _, labels = parse_metric_key(key)
            buckets = list(doc["buckets"])
            counts = list(doc["counts"])
            cum = 0
            for bound, count in zip(buckets, counts):
                cum += int(count)
                le = _labels_text(labels, extra=f'le="{_num(bound)}"')
                lines.append(f"{family}_bucket{le} {cum}")
            cum += int(counts[len(buckets)]) if len(counts) > len(buckets) else 0
            le = _labels_text(labels, extra='le="+Inf"')
            lines.append(f"{family}_bucket{le} {cum}")
            lines.append(f"{family}_sum{_labels_text(labels)} {_num(doc['sum'])}")
            lines.append(
                f"{family}_count{_labels_text(labels)} {_num(doc['count'])}"
            )

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def _fleet_gauges(merged: Mapping[str, list[dict]]) -> dict[str, float]:
    """Fleet-level gauges recomputed from the last merged field window."""
    windows = merged.get("field") or []
    if not windows:
        return {}
    last = windows[-1]
    labels = dict(last.get("labels", {}))
    gauges = {
        label_key("fleet.networks", labels): float(len(last["networks"])),
        label_key("fleet.jam_rate", labels): float(last["jam_rate"]),
        label_key("fleet.goodput", labels): float(last["goodput"]),
    }
    tokens = last.get("tokens")
    if tokens:
        gauges[label_key("fleet.duty_tokens", labels)] = sum(tokens) / len(tokens)
    return gauges


def export_telemetry(
    path: Path | str,
    *,
    out: Path | str | None = None,
    series_out: Path | str | None = None,
) -> tuple[Path, Path]:
    """Export a telemetry file: OpenMetrics ``.prom`` + merged series JSONL.

    Returns ``(prom_path, series_path)``. The exposition holds the final
    labelled registry snapshot (empty sections when the run was killed
    before :func:`repro.obs.telemetry.finish_run`) plus ``fleet_*``
    gauges recomputed from the merged field series; the series file holds
    one JSON object per merged ``(series, window)``, already
    deduplicated and shard-merged so it is bit-identical for any
    ``REPRO_SHARDS``/``REPRO_WORKERS`` decomposition.
    """
    doc = load_telemetry(path)
    merged = merge_frames(doc)
    src = Path(path)

    snapshot = {
        section: dict((doc.metrics or {}).get(section, {}))
        for section in ("counters", "gauges", "histograms")
    }
    snapshot["gauges"].update(_fleet_gauges(merged))

    prom_path = Path(out) if out is not None else src.with_suffix(".prom")
    prom_path.parent.mkdir(parents=True, exist_ok=True)
    prom_path.write_text(render_openmetrics(snapshot), encoding="utf-8")

    series_path = (
        Path(series_out)
        if series_out is not None
        else src.with_name(src.stem + "_series.jsonl")
    )
    series_path.parent.mkdir(parents=True, exist_ok=True)
    with series_path.open("w", encoding="utf-8") as handle:
        for series in sorted(merged):
            for window in merged[series]:
                handle.write(json.dumps({"series": series, **window}) + "\n")
    return prom_path, series_path


__all__ = [
    "metric_name",
    "render_openmetrics",
    "export_telemetry",
]
