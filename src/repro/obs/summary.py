"""Offline trace summarisation behind the ``repro obs`` CLI subcommand.

Reads a ``RUN_*.jsonl`` trace (parsed by :func:`repro.obs.sink.read`)
and renders, as plain text: the manifest
header, the span tree with per-name wall-clock rollups (spans sharing a
name under the same parent aggregate into one line — 4 pool tasks under
one dispatch show as ``exec/task 4x``), event counts, top counters, and
histogram quantiles estimated from the final metrics snapshot.

Deliberately free of imports from the analysis/execution layers so the
summariser can read a trace without dragging in numpy-heavy modules.
"""

from __future__ import annotations

from pathlib import Path

from repro.obs.metrics import quantile_from_buckets
from repro.obs.sink import RUN, ObsDoc, read


# -- span tree ----------------------------------------------------------------------


def _aggregate(spans: list[dict], children_of: dict[str | None, list[dict]]) -> list:
    """Group sibling spans by name; recurse over their pooled children."""
    groups: dict[str, dict] = {}
    for span in spans:
        group = groups.setdefault(
            span.get("name", "?"), {"count": 0, "dur": 0.0, "children": []}
        )
        group["count"] += 1
        group["dur"] += float(span.get("dur") or 0.0)
        group["children"].extend(children_of.get(span.get("id"), ()))
    rows = []
    for name, group in groups.items():
        rows.append(
            (
                name,
                group["count"],
                group["dur"],
                _aggregate(group["children"], children_of),
            )
        )
    rows.sort(key=lambda row: row[2], reverse=True)
    return rows


def span_tree(doc: ObsDoc) -> list:
    """Aggregated span forest: ``[(name, count, total_dur, children), ...]``."""
    known = {span.get("id") for span in doc.spans}
    children_of: dict[str | None, list[dict]] = {}
    roots: list[dict] = []
    for span in doc.spans:
        parent = span.get("parent")
        if parent is None or parent not in known:
            roots.append(span)  # orphaned parents (crash/kill) become roots
        else:
            children_of.setdefault(parent, []).append(span)
    return _aggregate(roots, children_of)


def _render_tree(rows: list, lines: list[str], indent: int) -> None:
    for name, count, dur, children in rows:
        label = f"{'  ' * indent}{name}"
        lines.append(f"  {label:<44} {count:>5}x {_fmt_seconds(dur):>10}")
        _render_tree(children, lines, indent + 1)


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}us"


# -- rendering ----------------------------------------------------------------------


def render_summary(source: ObsDoc | Path | str, *, top: int = 10) -> str:
    """Human-readable summary of one trace file (or its parsed document)."""
    doc = source if isinstance(source, ObsDoc) else read(source, RUN)
    lines: list[str] = []

    manifest = doc.head or {}
    lines.append(f"trace {doc.path}")
    header = [
        ("run", manifest.get("run")),
        ("trace id", manifest.get("trace")),
        ("time", manifest.get("time")),
        ("git", (manifest.get("git_sha") or "")[:12] or None),
        ("python", manifest.get("python")),
        ("sample", manifest.get("sample")),
    ]
    described = "  ".join(f"{k}={v}" for k, v in header if v is not None)
    if described:
        lines.append(described)
    if doc.malformed:
        lines.append(f"warning: skipped {doc.malformed} malformed line(s)")
    lines.append("")

    tree = span_tree(doc)
    lines.append(f"spans ({len(doc.spans)} recorded)")
    if tree:
        _render_tree(tree, lines, 0)
    else:
        lines.append("  (none)")
    lines.append("")

    lines.append(f"events ({len(doc.events)} recorded)")
    by_name: dict[str, int] = {}
    for evt in doc.events:
        by_name[evt.get("name", "?")] = by_name.get(evt.get("name", "?"), 0) + 1
    for name, count in sorted(by_name.items(), key=lambda kv: -kv[1])[:top]:
        lines.append(f"  {name:<44} {count:>6}x")
    if not by_name:
        lines.append("  (none)")
    lines.append("")

    metrics = doc.metrics or {}
    counters = metrics.get("counters", {})
    lines.append(f"counters ({len(counters)})")
    for name, value in sorted(counters.items(), key=lambda kv: -kv[1])[:top]:
        lines.append(f"  {name:<44} {value:>12g}")
    if not counters:
        lines.append("  (none)")
    gauges = metrics.get("gauges", {})
    if gauges:
        lines.append(f"gauges ({len(gauges)})")
        for name, value in sorted(gauges.items())[:top]:
            lines.append(f"  {name:<44} {value:>12g}")

    histograms = metrics.get("histograms", {})
    if histograms:
        lines.append("")
        lines.append(f"histograms ({len(histograms)})")
        lines.append(
            f"  {'name':<32} {'count':>7} {'mean':>10} {'p50':>10} "
            f"{'p90':>10} {'p99':>10} {'max':>10}"
        )
        for name, doc_h in sorted(histograms.items()):
            count = doc_h.get("count", 0)
            if not count:
                continue
            buckets = tuple(doc_h["buckets"])
            counts = list(doc_h["counts"])
            minimum = doc_h.get("min") or 0.0
            maximum = doc_h.get("max") or 0.0
            quantiles = [
                quantile_from_buckets(
                    buckets, counts, q, minimum=minimum, maximum=maximum
                )
                for q in (0.5, 0.9, 0.99)
            ]
            mean = doc_h.get("sum", 0.0) / count
            lines.append(
                f"  {name:<32} {count:>7} {mean:>10.4g} "
                + " ".join(f"{q:>10.4g}" for q in quantiles)
                + f" {maximum:>10.4g}"
            )
    return "\n".join(lines)


__all__ = ["span_tree", "render_summary"]
