"""Store-backed dashboards: sweeps and RunRecords to markdown / HTML.

The renderer consumes either a content-addressed
:class:`~repro.engine.store.ResultStore` directory (every persisted task
entry, including the engine's per-task telemetry rows) or a set of
:class:`~repro.api.record.RunRecord` JSON files, and produces two
self-contained artifacts:

* ``report.md`` — one section per task with the result table, a
  competitive-ratio roll-up per scenario kind / algorithm, and the per-task
  engine telemetry;
* ``report.html`` — the same content plus inline-SVG cost-vs-n curves.
  Columns named ``upper_bound*`` / ``predicted_*`` / ``bound*`` (the shapes
  the fig2/fig3 experiments emit for the paper's bound curves) are drawn as
  dashed overlay lines over the measured series, no external assets needed.

Rendering is deterministic: entries are sorted by content, and *volatile*
columns (wall-clock runtimes) are excluded from tables and summaries, so the
same store renders byte-identical reports across runs — which is what makes
the committed-baseline regression gate in CI meaningful.  The baseline file
maps each task to its per-column means; :func:`compare_baseline` flags any
relative drift beyond tolerance, so a competitive-ratio regression fails CI
by name.
"""

from __future__ import annotations

import html as _html
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.tables import format_markdown_table
from repro.engine.store import ResultStore
from repro.exceptions import ReproError, TelemetryError
from repro.trace.export import summarize_trace
from repro.trace.tracer import validate_payload

__all__ = [
    "compare_baseline",
    "load_record_rows",
    "load_store_entries",
    "load_trace_profile",
    "render_report",
    "summarize_groups",
    "ReportResult",
]

#: Format marker of the committed regression-baseline JSON.
BASELINE_FORMAT = "repro.telemetry.report-baseline"
BASELINE_VERSION = 1

#: Columns excluded from tables, summaries and baselines: wall-clock noise
#: would break byte-identical rendering and drown real ratio drift.
VOLATILE_COLUMNS = frozenset(
    {"runtime_seconds", "runtime_s", "wall_seconds", "total_seconds"}
)

#: Candidate x-axis columns for the cost-vs-n curves, in preference order.
X_COLUMN_CANDIDATES = ("n", "num_requests", "S", "num_commodities", "num_points")

#: Candidate group-by columns for the competitive-ratio roll-up.
RATIO_GROUP_CANDIDATES = ("scenario", "kind", "algorithm", "instance")


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def load_store_entries(directory: Union[str, Path]) -> List[Dict[str, Any]]:
    """Every readable entry of a result store, deterministically ordered."""
    store = ResultStore(directory)
    entries: List[Dict[str, Any]] = []
    for key in store.keys():
        payload = store.get(key)
        if payload is not None:
            entries.append(payload)
    if not entries:
        raise TelemetryError(
            f"result store {str(directory)!r} holds no readable entries"
        )
    entries.sort(
        key=lambda e: (
            str(e.get("task")),
            json.dumps(e.get("case"), sort_keys=True, default=str),
            int(e.get("seed", 0)),
        )
    )
    return entries


def load_record_rows(paths: Sequence[Union[str, Path]]) -> List[Dict[str, Any]]:
    """Rows from RunRecord JSON files (a dict or a list of dicts per file)."""
    rows: List[Dict[str, Any]] = []
    for path in paths:
        data = json.loads(Path(path).read_text())
        items = data if isinstance(data, list) else [data]
        for item in items:
            if not isinstance(item, Mapping):
                raise TelemetryError(
                    f"{path}: expected RunRecord row dict(s), got "
                    f"{type(item).__name__}"
                )
            rows.append(dict(item))
    if not rows:
        raise TelemetryError("no RunRecord rows to report on")
    return rows


def _group_entries(entries: Sequence[Mapping[str, Any]]) -> Dict[str, List[Dict[str, Any]]]:
    """``{task: [row, ...]}`` preserving entry order within each task."""
    groups: Dict[str, List[Dict[str, Any]]] = {}
    for entry in entries:
        task = str(entry.get("task", "records"))
        groups.setdefault(task, []).extend(dict(row) for row in entry.get("rows", []))
    return groups


def load_trace_profile(path: Union[str, Path], *, top: int = 10) -> Dict[str, Any]:
    """A ``repro trace record`` payload summarized for the Profile section.

    The summary carries wall-clock numbers by design — the Profile section is
    the one deliberately volatile part of a report, which is why it only
    renders when a trace is passed in.
    """
    try:
        data = json.loads(Path(path).read_text())
        payload = validate_payload(data)
    except (OSError, ValueError, ReproError) as error:
        raise TelemetryError(f"cannot load trace payload {str(path)!r}: {error}") from None
    return summarize_trace(payload, top=top)


# ----------------------------------------------------------------------
# Summaries + regression gate
# ----------------------------------------------------------------------
def _is_numeric(value: Any) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(float(value))
    )


def summarize_groups(
    groups: Mapping[str, Sequence[Mapping[str, Any]]]
) -> Dict[str, Dict[str, float]]:
    """Per-task per-column means over the stable numeric columns."""
    summary: Dict[str, Dict[str, float]] = {}
    for task in sorted(groups):
        columns: Dict[str, List[float]] = {}
        for row in groups[task]:
            for column, value in row.items():
                if column in VOLATILE_COLUMNS or not _is_numeric(value):
                    continue
                columns.setdefault(column, []).append(float(value))
        summary[task] = {
            column: sum(values) / len(values)
            for column, values in sorted(columns.items())
        }
    return summary


def baseline_payload(summary: Mapping[str, Mapping[str, float]]) -> Dict[str, Any]:
    return {
        "format": BASELINE_FORMAT,
        "version": BASELINE_VERSION,
        "groups": {task: dict(columns) for task, columns in summary.items()},
    }


def load_baseline(path: Union[str, Path]) -> Dict[str, Dict[str, float]]:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or data.get("format") != BASELINE_FORMAT:
        raise TelemetryError(f"{path} is not a report baseline file")
    if data.get("version") != BASELINE_VERSION:
        raise TelemetryError(
            f"{path}: unsupported baseline version {data.get('version')!r}"
        )
    return {
        str(task): {str(c): float(v) for c, v in columns.items()}
        for task, columns in data["groups"].items()
    }


def compare_baseline(
    summary: Mapping[str, Mapping[str, float]],
    baseline: Mapping[str, Mapping[str, float]],
    *,
    rtol: float = 1e-6,
    atol: float = 1e-9,
) -> List[Dict[str, Any]]:
    """Drift findings between a fresh summary and the committed baseline.

    Any column whose mean moved beyond ``atol + rtol·|baseline|`` is flagged
    (in either direction — the sweeps are deterministic, so *any* unexplained
    movement is a contract break, not just ratios getting worse).  Tasks or
    columns missing on either side are flagged too: a silently dropped task
    must not pass the gate.
    """
    findings: List[Dict[str, Any]] = []
    for task in sorted(set(summary) | set(baseline)):
        if task not in baseline:
            findings.append({"task": task, "column": None, "kind": "new-task"})
            continue
        if task not in summary:
            findings.append({"task": task, "column": None, "kind": "missing-task"})
            continue
        fresh, old = summary[task], baseline[task]
        for column in sorted(set(fresh) | set(old)):
            if column not in old:
                findings.append({"task": task, "column": column, "kind": "new-column"})
                continue
            if column not in fresh:
                findings.append(
                    {"task": task, "column": column, "kind": "missing-column"}
                )
                continue
            drift = abs(fresh[column] - old[column])
            if drift > atol + rtol * abs(old[column]):
                findings.append(
                    {
                        "task": task,
                        "column": column,
                        "kind": "drift",
                        "baseline": old[column],
                        "current": fresh[column],
                        "relative": (
                            drift / abs(old[column]) if old[column] != 0 else None
                        ),
                    }
                )
    return findings


# ----------------------------------------------------------------------
# Table helpers
# ----------------------------------------------------------------------
def _sanitize_rows(rows: Sequence[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Flatten multi-line / oversized string cells so tables stay tables."""

    def clean(value: Any) -> Any:
        if isinstance(value, str):
            flat = " ".join(value.split())
            return flat if len(flat) <= 120 else flat[:117] + "..."
        return value

    return [{column: clean(value) for column, value in row.items()} for row in rows]


def _stable_columns(rows: Sequence[Mapping[str, Any]]) -> List[str]:
    columns: List[str] = []
    for row in rows:
        for column in row:
            if column not in columns and column not in VOLATILE_COLUMNS:
                columns.append(column)
    return columns


def _ratio_rollup(rows: Sequence[Mapping[str, Any]]) -> Optional[List[Dict[str, Any]]]:
    """Mean/max competitive ratio per scenario kind (or algorithm/instance)."""
    if not any("ratio" in row for row in rows):
        return None
    group_column = next(
        (c for c in RATIO_GROUP_CANDIDATES if all(c in row for row in rows)), None
    )
    if group_column is None:
        return None
    buckets: Dict[str, List[float]] = {}
    for row in rows:
        if _is_numeric(row.get("ratio")):
            buckets.setdefault(str(row[group_column]), []).append(float(row["ratio"]))
    if not buckets:
        return None
    return [
        {
            group_column: name,
            "runs": len(values),
            "mean_ratio": sum(values) / len(values),
            "max_ratio": max(values),
        }
        for name, values in sorted(buckets.items())
    ]


def _chart_series(
    rows: Sequence[Mapping[str, Any]]
) -> Optional[Tuple[str, List[str], List[str]]]:
    """``(x column, measured y columns, overlay y columns)`` or ``None``."""
    x_column = next(
        (
            c
            for c in X_COLUMN_CANDIDATES
            if all(_is_numeric(row.get(c)) for row in rows)
            and len({float(row[c]) for row in rows}) >= 2
        ),
        None,
    )
    if x_column is None:
        return None
    measured: List[str] = []
    overlays: List[str] = []
    for column in _stable_columns(rows):
        if column == x_column:
            continue
        if not all(_is_numeric(row.get(column)) for row in rows):
            continue
        if column.startswith(("upper_bound", "predicted_", "bound", "lower_bound")):
            overlays.append(column)
        else:
            measured.append(column)
    if not measured and not overlays:
        return None
    return x_column, measured, overlays


# ----------------------------------------------------------------------
# SVG chart (no external assets — the HTML report is self-contained)
# ----------------------------------------------------------------------
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _svg_chart(
    rows: Sequence[Mapping[str, Any]],
    x_column: str,
    measured: Sequence[str],
    overlays: Sequence[str],
    *,
    width: int = 640,
    height: int = 320,
) -> str:
    pad = 48
    series = [(name, False) for name in measured] + [(name, True) for name in overlays]
    points: Dict[str, List[Tuple[float, float]]] = {}
    for name, _ in series:
        pairs = sorted(
            (float(row[x_column]), float(row[name]))
            for row in rows
            if _is_numeric(row.get(name)) and _is_numeric(row.get(x_column))
        )
        if pairs:
            points[name] = pairs
    if not points:
        return ""
    xs = [x for pairs in points.values() for x, _ in pairs]
    ys = [y for pairs in points.values() for _, y in pairs]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x: float) -> float:
        return pad + (x - x_lo) / x_span * (width - 2 * pad)

    def sy(y: float) -> float:
        return height - pad - (y - y_lo) / y_span * (height - 2 * pad)

    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" height="{height}" '
        'xmlns="http://www.w3.org/2000/svg" role="img">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="#333"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="#333"/>',
        f'<text x="{width / 2:.1f}" y="{height - 10}" text-anchor="middle" '
        f'font-size="12">{_html.escape(x_column)}</text>',
        f'<text x="{pad}" y="{pad - 8}" font-size="11" fill="#555">'
        f"[{y_lo:.4g}, {y_hi:.4g}]</text>",
    ]
    legend_y = pad
    for index, (name, is_overlay) in enumerate(series):
        pairs = points.get(name)
        if not pairs:
            continue
        color = _PALETTE[index % len(_PALETTE)]
        path = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pairs)
        dash = ' stroke-dasharray="6 4"' if is_overlay else ""
        parts.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"{dash}/>'
        )
        parts.append(
            f'<text x="{width - pad + 4}" y="{legend_y}" font-size="11" '
            f'fill="{color}">{_html.escape(name)}{" (bound)" if is_overlay else ""}</text>'
        )
        legend_y += 14
    parts.append("</svg>")
    return "\n".join(parts)


# ----------------------------------------------------------------------
# Profile section (trace-backed, wall-clock — opt-in via --trace)
# ----------------------------------------------------------------------
_PHASE_COLUMNS = ("phase", "count", "total_seconds", "mean_seconds", "p50", "p95", "p99")
_SELF_COLUMNS = ("phase", "spans", "total_seconds", "self_seconds")
_SLOW_COLUMNS = ("name", "ordinal", "span_id", "shard", "wall_duration")


def _profile_tables(
    profile: Mapping[str, Any]
) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]], List[Dict[str, Any]]]:
    """``(phase rows, self-time rows, slowest-span rows)`` for the tables."""
    phase_rows: List[Dict[str, Any]] = []
    for name, stats in profile["phases"].items():
        row = {"phase": name, **{c: stats.get(c) for c in _PHASE_COLUMNS[1:]}}
        count, total = stats.get("count", 0), stats.get("total_seconds")
        row["mean_seconds"] = total / count if (count and total is not None) else None
        phase_rows.append(row)
    self_time = profile["self_time"]
    self_rows = [
        {"phase": name, **{c: self_time[name].get(c) for c in _SELF_COLUMNS[1:]}}
        for name in sorted(self_time, key=lambda n: -self_time[n]["self_seconds"])
    ]
    slow_rows = [
        {c: ("" if span.get(c) is None else span.get(c)) for c in _SLOW_COLUMNS}
        for span in profile["slowest_spans"]
    ]
    return phase_rows, self_rows, slow_rows


def _profile_caption(profile: Mapping[str, Any], trace_path: Optional[str]) -> str:
    meta = profile["meta"]
    return (
        f"Span trace `{trace_path}`: {meta['spans_retained']} spans retained "
        f"({meta['dropped_spans']} dropped), event clock {meta['event_clock']}, "
        f"detail stride {meta['detail_stride']}.  Wall-clock profiling numbers "
        "— volatile by design, rendered only when a trace is passed in."
    )


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _markdown_report(
    groups: Mapping[str, Sequence[Mapping[str, Any]]],
    telemetry_rows: Sequence[Mapping[str, Any]],
    regressions: Optional[Sequence[Mapping[str, Any]]],
    *,
    title: str,
    baseline_path: Optional[str],
    profile: Optional[Mapping[str, Any]] = None,
    trace_path: Optional[str] = None,
) -> str:
    lines: List[str] = [f"# {title}", ""]
    if regressions is not None:
        lines.append("## Regression gate")
        lines.append("")
        if regressions:
            lines.append(
                f"**{len(regressions)} finding(s)** vs baseline `{baseline_path}`:"
            )
            lines.append("")
            lines.append(
                format_markdown_table(
                    [dict(f) for f in regressions],
                    columns=["task", "column", "kind", "baseline", "current", "relative"],
                )
            )
        else:
            lines.append(f"No drift vs baseline `{baseline_path}`.")
        lines.append("")
    for task in sorted(groups):
        rows = _sanitize_rows(groups[task])
        lines.append(f"## {task}")
        lines.append("")
        lines.append(format_markdown_table(rows, columns=_stable_columns(rows)))
        lines.append("")
        rollup = _ratio_rollup(rows)
        if rollup is not None:
            lines.append(f"### Competitive ratio — {task}")
            lines.append("")
            lines.append(format_markdown_table(rollup))
            lines.append("")
    if telemetry_rows:
        lines.append("## Engine telemetry")
        lines.append("")
        lines.append(
            format_markdown_table(
                [dict(row) for row in telemetry_rows],
                columns=["task", "index", "seed", "rows", "reused"],
            )
        )
        lines.append("")
    if profile is not None:
        phase_rows, self_rows, slow_rows = _profile_tables(profile)
        lines += ["## Profile", "", _profile_caption(profile, trace_path), ""]
        lines += ["### Phase aggregates", ""]
        lines.append(format_markdown_table(phase_rows, columns=list(_PHASE_COLUMNS)))
        lines.append("")
        if self_rows:
            lines += ["### Self time", ""]
            lines.append(format_markdown_table(self_rows, columns=list(_SELF_COLUMNS)))
            lines.append("")
        if slow_rows:
            lines += ["### Slowest spans", ""]
            lines.append(format_markdown_table(slow_rows, columns=list(_SLOW_COLUMNS)))
            lines.append("")
    return "\n".join(lines)


def _html_table(rows: Sequence[Mapping[str, Any]], columns: Sequence[str]) -> str:
    def cell(value: Any) -> str:
        if isinstance(value, float):
            return format(value, ".4g")
        return _html.escape(str(value))

    head = "".join(f"<th>{_html.escape(c)}</th>" for c in columns)
    body = "".join(
        "<tr>" + "".join(f"<td>{cell(row.get(c, ''))}</td>" for c in columns) + "</tr>"
        for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def _html_report(
    groups: Mapping[str, Sequence[Mapping[str, Any]]],
    telemetry_rows: Sequence[Mapping[str, Any]],
    regressions: Optional[Sequence[Mapping[str, Any]]],
    *,
    title: str,
    baseline_path: Optional[str],
    profile: Optional[Mapping[str, Any]] = None,
    trace_path: Optional[str] = None,
) -> str:
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8"/>',
        f"<title>{_html.escape(title)}</title>",
        "<style>",
        "body{font-family:system-ui,sans-serif;margin:2rem;max-width:70rem}",
        "table{border-collapse:collapse;margin:0.5rem 0}",
        "td,th{border:1px solid #ccc;padding:0.25rem 0.5rem;font-size:0.85rem;"
        "text-align:right}",
        "th{background:#f3f3f3}",
        "td:first-child,th:first-child{text-align:left}",
        ".fail{color:#b00020;font-weight:bold}.ok{color:#1a7f37}",
        "</style></head><body>",
        f"<h1>{_html.escape(title)}</h1>",
    ]
    if regressions is not None:
        parts.append("<h2>Regression gate</h2>")
        if regressions:
            parts.append(
                f'<p class="fail">{len(regressions)} finding(s) vs baseline '
                f"{_html.escape(str(baseline_path))}</p>"
            )
            parts.append(
                _html_table(
                    regressions,
                    ["task", "column", "kind", "baseline", "current", "relative"],
                )
            )
        else:
            parts.append(
                f'<p class="ok">No drift vs baseline '
                f"{_html.escape(str(baseline_path))}.</p>"
            )
    for task in sorted(groups):
        rows = _sanitize_rows(groups[task])
        parts.append(f"<h2>{_html.escape(task)}</h2>")
        chart = _chart_series(rows)
        if chart is not None:
            x_column, measured, overlays = chart
            svg = _svg_chart(rows, x_column, measured, overlays)
            if svg:
                parts.append(svg)
        parts.append(_html_table(rows, _stable_columns(rows)))
        rollup = _ratio_rollup(rows)
        if rollup is not None:
            parts.append(f"<h3>Competitive ratio — {_html.escape(task)}</h3>")
            parts.append(_html_table(rollup, _stable_columns(rollup)))
    if telemetry_rows:
        parts.append("<h2>Engine telemetry</h2>")
        parts.append(
            _html_table(telemetry_rows, ["task", "index", "seed", "rows", "reused"])
        )
    if profile is not None:
        phase_rows, self_rows, slow_rows = _profile_tables(profile)
        parts.append("<h2>Profile</h2>")
        parts.append(f"<p>{_html.escape(_profile_caption(profile, trace_path))}</p>")
        parts.append("<h3>Phase aggregates</h3>")
        parts.append(_html_table(phase_rows, list(_PHASE_COLUMNS)))
        if self_rows:
            parts.append("<h3>Self time</h3>")
            parts.append(_html_table(self_rows, list(_SELF_COLUMNS)))
        if slow_rows:
            parts.append("<h3>Slowest spans</h3>")
            parts.append(_html_table(slow_rows, list(_SLOW_COLUMNS)))
    parts.append("</body></html>")
    return "\n".join(parts)


@dataclass
class ReportResult:
    """Outcome of one :func:`render_report` call."""

    markdown_path: Optional[Path]
    html_path: Optional[Path]
    summary: Dict[str, Dict[str, float]]
    regressions: Optional[List[Dict[str, Any]]] = None
    baseline_written: Optional[Path] = None
    tasks: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        """Whether the regression gate flagged drift."""
        return bool(self.regressions)


def render_report(
    *,
    store: Optional[Union[str, Path]] = None,
    records: Optional[Sequence[Union[str, Path]]] = None,
    out_dir: Union[str, Path],
    title: str = "repro report",
    baseline: Optional[Union[str, Path]] = None,
    write_baseline: Optional[Union[str, Path]] = None,
    formats: Sequence[str] = ("markdown", "html"),
    trace: Optional[Union[str, Path]] = None,
    trace_top: int = 10,
) -> ReportResult:
    """Render a store-backed sweep (or RunRecord files) to dashboards.

    Exactly one of ``store`` / ``records`` must be given.  With ``baseline``,
    the per-task column means are diffed against the committed baseline and
    the findings are embedded in the report (CI turns ``result.failed`` into
    a nonzero exit).  With ``write_baseline``, the fresh summary is written
    out as the new baseline file.  With ``trace`` (a ``repro trace record``
    payload), a Profile section is appended: per-phase wall-time aggregates,
    self time, and the ``trace_top`` slowest spans.  The section is opt-in
    because its numbers are wall-clock volatile — reports without it stay
    byte-identical across runs.
    """
    if (store is None) == (records is None):
        raise TelemetryError("pass exactly one of store= or records=")
    if store is not None:
        entries = load_store_entries(store)
    else:
        entries = [{"task": "records", "rows": load_record_rows(records or [])}]
    groups = _group_entries(entries)
    telemetry_rows = [
        dict(entry["telemetry"]) for entry in entries if isinstance(entry.get("telemetry"), Mapping)
    ]
    summary = summarize_groups(groups)

    regressions: Optional[List[Dict[str, Any]]] = None
    baseline_path = str(baseline) if baseline is not None else None
    if baseline is not None:
        regressions = compare_baseline(summary, load_baseline(baseline))

    profile: Optional[Dict[str, Any]] = None
    trace_path = str(trace) if trace is not None else None
    if trace is not None:
        profile = load_trace_profile(trace, top=trace_top)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    markdown_path: Optional[Path] = None
    html_path: Optional[Path] = None
    if "markdown" in formats:
        markdown_path = out / "report.md"
        markdown_path.write_text(
            _markdown_report(
                groups,
                telemetry_rows,
                regressions,
                title=title,
                baseline_path=baseline_path,
                profile=profile,
                trace_path=trace_path,
            )
        )
    if "html" in formats:
        html_path = out / "report.html"
        html_path.write_text(
            _html_report(
                groups,
                telemetry_rows,
                regressions,
                title=title,
                baseline_path=baseline_path,
                profile=profile,
                trace_path=trace_path,
            )
        )

    baseline_written: Optional[Path] = None
    if write_baseline is not None:
        baseline_written = Path(write_baseline)
        baseline_written.parent.mkdir(parents=True, exist_ok=True)
        baseline_written.write_text(
            json.dumps(baseline_payload(summary), indent=2, sort_keys=True) + "\n"
        )

    return ReportResult(
        markdown_path=markdown_path,
        html_path=html_path,
        summary=summary,
        regressions=regressions,
        baseline_written=baseline_written,
        tasks=sorted(groups),
    )
