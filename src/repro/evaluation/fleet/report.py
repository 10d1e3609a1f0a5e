"""The static HTML trend dashboard (stdlib only).

:func:`render_report` turns a history of merged sweep artifacts plus the
perfbench history (one line per nightly run, see :func:`load_bench_history`)
into one self-contained HTML page: stat tiles for the latest sweep, an
error-geomean trend line per configuration, the calibrated perfbench pass
time per workload, the latest sweep's per-configuration table, and the
failure ledger.

Design notes (deliberate, please keep):

* **No dependencies, no network.**  The page is a CI artifact viewed from
  a file:// URL; everything — styles, SVG charts, data tables — is inline.
* Charts follow the house data-viz method: series hues come from a fixed,
  CVD-validated categorical order and are assigned by sorted series key
  (never cycled, never re-assigned when a series disappears); lines are
  2px with >=8px markers ringed in the surface color; gridlines are
  1px hairlines; text never wears a series color.  Past eight series the
  rest fold into the data table rather than inventing hues.
* Every chart has a data-table twin directly below it, so the page stays
  readable colorblind, grayscale-printed, or through a screen reader.
* Dark mode is a real second palette (stepped for the dark surface), not
  a CSS filter, and follows ``prefers-color-scheme``.
"""

from __future__ import annotations

import html
import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

#: Categorical slots (light, dark) in their validated fixed order.
_SERIES = (
    ("#2a78d6", "#3987e5"),  # blue
    ("#eb6834", "#d95926"),  # orange
    ("#1baf7a", "#199e70"),  # aqua
    ("#eda100", "#c98500"),  # yellow
    ("#e87ba4", "#d55181"),  # magenta
    ("#008300", "#008300"),  # green
    ("#4a3aa7", "#9085e9"),  # violet
    ("#e34948", "#e66767"),  # red
)
_MAX_SERIES = len(_SERIES)

_CHART_WIDTH = 720
_CHART_HEIGHT = 260
_MARGIN_LEFT = 64
_MARGIN_RIGHT = 16
_MARGIN_TOP = 16
_MARGIN_BOTTOM = 36


def _esc(value: object) -> str:
    return html.escape(str(value), quote=True)


def _nice_ticks(top: float, count: int = 4) -> List[float]:
    """Clean round tick values covering [0, top]."""
    if top <= 0:
        return [0.0, 1.0]
    raw = top / count
    magnitude = 10.0 ** math.floor(math.log10(raw))
    step = magnitude * 10
    for multiplier in (1, 2, 2.5, 5, 10):
        if magnitude * multiplier >= raw:
            step = magnitude * multiplier
            break
    ticks = [0.0]
    while ticks[-1] < top:
        ticks.append(round(ticks[-1] + step, 10))
    return ticks


def _fmt(value: float) -> str:
    if value >= 1_000_000:
        return f"{value / 1_000_000:.1f}M"
    if value >= 10_000:
        return f"{value / 1000:.0f}k"
    if value >= 1000:
        return f"{value / 1000:.1f}k"
    if value >= 10:
        return f"{value:.0f}"
    if value >= 1:
        return f"{value:.2f}"
    return f"{value:.3g}"


def _line_chart(
    title: str,
    series: Dict[str, List[Optional[float]]],
    x_labels: Sequence[str],
    unit: str,
    chart_id: str,
) -> str:
    """One SVG line chart + legend + its data-table twin.

    ``series`` maps series key -> one value per x position (None = gap).
    Series are drawn in sorted-key order, which is also the fixed color
    assignment; at most eight get a hue, the rest live in the table.
    """
    keys = sorted(series)
    plotted = keys[:_MAX_SERIES]
    folded = keys[_MAX_SERIES:]
    points = len(x_labels)
    inner_w = _CHART_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    inner_h = _CHART_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    top = max(
        (v for key in plotted for v in series[key] if v is not None),
        default=1.0,
    )
    ticks = _nice_ticks(top * 1.05 if top > 0 else 1.0)
    y_top = ticks[-1]

    def x_of(index: int) -> float:
        if points <= 1:
            return _MARGIN_LEFT + inner_w / 2
        return _MARGIN_LEFT + inner_w * index / (points - 1)

    def y_of(value: float) -> float:
        return _MARGIN_TOP + inner_h * (1 - value / y_top)

    grid = []
    for tick in ticks:
        y = y_of(tick)
        grid.append(
            f'<line class="grid" x1="{_MARGIN_LEFT}" y1="{y:.1f}" '
            f'x2="{_CHART_WIDTH - _MARGIN_RIGHT}" y2="{y:.1f}"/>'
            f'<text class="tick" x="{_MARGIN_LEFT - 8}" y="{y + 4:.1f}" '
            f'text-anchor="end">{_esc(_fmt(tick))}</text>'
        )

    x_axis = []
    shown = range(points) if points <= 8 else range(0, points, max(1, points // 8))
    for index in shown:
        x = x_of(index)
        x_axis.append(
            f'<text class="tick" x="{x:.1f}" y="{_CHART_HEIGHT - 10}" '
            f'text-anchor="middle">{_esc(x_labels[index])}</text>'
        )

    marks = []
    for slot, key in enumerate(plotted):
        values = series[key]
        coords = [
            (x_of(i), y_of(v)) for i, v in enumerate(values) if v is not None
        ]
        if not coords:
            continue
        if len(coords) > 1:
            path = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
            marks.append(
                f'<polyline class="line s{slot}" points="{path}"/>'
            )
        for (x, y), (index, value) in zip(
            coords, ((i, v) for i, v in enumerate(values) if v is not None)
        ):
            marks.append(
                f'<circle class="dot s{slot}" cx="{x:.1f}" cy="{y:.1f}" r="4">'
                f"<title>{_esc(key)} — {_esc(x_labels[index])}: "
                f"{_esc(_fmt(value))} {_esc(unit)}</title></circle>"
            )

    legend = ""
    if len(plotted) > 1:
        items = "".join(
            f'<span class="key"><span class="swatch s{slot}"></span>'
            f"{_esc(key)}</span>"
            for slot, key in enumerate(plotted)
        )
        legend = f'<div class="legend">{items}</div>'

    folded_note = ""
    if folded:
        folded_note = (
            f'<p class="note">{len(folded)} more series exceed the fixed '
            f"palette and appear only in the table below.</p>"
        )

    header = "".join(f"<th>{_esc(label)}</th>" for label in x_labels)
    body = []
    for key in keys:
        cells = "".join(
            f'<td>{_esc(_fmt(v)) if v is not None else "–"}</td>'
            for v in series[key]
        )
        body.append(f"<tr><th scope=\"row\">{_esc(key)}</th>{cells}</tr>")
    table = (
        f'<details class="data"><summary>Data table ({_esc(unit)})</summary>'
        f'<table><thead><tr><th>series</th>{header}</tr></thead>'
        f'<tbody>{"".join(body)}</tbody></table></details>'
    )

    empty = not any(v is not None for key in plotted for v in series[key])
    if empty:
        return (
            f'<section class="chart" id="{_esc(chart_id)}">'
            f"<h2>{_esc(title)}</h2>"
            f'<p class="note">No data points yet.</p></section>'
        )
    return (
        f'<section class="chart" id="{_esc(chart_id)}">'
        f"<h2>{_esc(title)}</h2>{legend}"
        f'<svg viewBox="0 0 {_CHART_WIDTH} {_CHART_HEIGHT}" '
        f'role="img" aria-label="{_esc(title)}">'
        f'{"".join(grid)}{"".join(x_axis)}{"".join(marks)}</svg>'
        f"{folded_note}{table}</section>"
    )


# ----------------------------------------------------------------------
# Input shaping
# ----------------------------------------------------------------------
def sweep_error_series(
    sweeps: Sequence[Tuple[str, dict]],
) -> Tuple[Dict[str, List[Optional[float]]], List[str]]:
    """Per-configuration geomean-error-% series over the sweep history."""
    labels = [label for label, _ in sweeps]
    keys = sorted(
        {
            config["key"]
            for _, artifact in sweeps
            for config in artifact.get("configurations", [])
        }
    )
    series: Dict[str, List[Optional[float]]] = {key: [] for key in keys}
    for _, artifact in sweeps:
        by_key = {
            config["key"]: config
            for config in artifact.get("configurations", [])
        }
        for key in keys:
            config = by_key.get(key)
            value = None
            if config is not None and config.get("cases_ok"):
                value = config["geomean_error"] * 100.0
            series[key].append(value)
    return series, labels


def _pass_s(result: dict) -> Optional[float]:
    """A correct run's calibrated ``pass_s``, else None (a gap)."""
    metric = result["metrics"].get("pass_s")
    if result.get("correct") is not True or not isinstance(metric, dict):
        return None
    value = metric.get("value")
    return float(value) if isinstance(value, (int, float)) else None


def bench_pass_series(
    history: Sequence[dict],
) -> Tuple[Dict[str, List[Optional[float]]], List[str]]:
    """Calibrated perfbench ``pass_s`` per workload over the history."""
    labels = [entry["recorded"][:10] for entry in history]
    names = sorted({name for entry in history for name in entry["workloads"]})
    series = {
        name: [
            _pass_s(entry["workloads"][name]) if name in entry["workloads"] else None
            for entry in history
        ]
        for name in names
    }
    return series, labels


def _is_history_line(entry: object) -> bool:
    if not isinstance(entry, dict):
        return False
    workloads = entry.get("workloads")
    return (
        isinstance(entry.get("recorded"), str)
        and isinstance(entry.get("commit"), str)
        and isinstance(workloads, dict)
        and bool(workloads)
        and all(
            isinstance(result, dict) and isinstance(result.get("metrics"), dict)
            for result in workloads.values()
        )
    )


def load_bench_history(path: Union[str, Path]) -> List[dict]:
    """Parse the perfbench history; lines of another shape are skipped.

    Each line is one JSON object: ``recorded`` (the run's UTC time),
    ``commit``, and ``workloads``, which maps every workload to the result
    line perfbench printed for it.
    """
    entries = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError:
        return entries
    for line in text.splitlines():
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        if _is_history_line(entry):
            entries.append(entry)
    return entries


# ----------------------------------------------------------------------
# Page assembly
# ----------------------------------------------------------------------
def _style() -> str:
    slots_light = "".join(
        f".s{i} {{ --series: {light}; }}\n" for i, (light, _) in enumerate(_SERIES)
    )
    slots_dark = "".join(
        f"  .s{i} {{ --series: {dark}; }}\n" for i, (_, dark) in enumerate(_SERIES)
    )
    return f"""
:root {{
  color-scheme: light dark;
  --surface: #fcfcfb; --page: #f9f9f7;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --border: rgba(11,11,11,0.10);
  --critical: #d03b3b;
}}
{slots_light}
@media (prefers-color-scheme: dark) {{
  :root {{
    --surface: #1a1a19; --page: #0d0d0d;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --border: rgba(255,255,255,0.10);
    --critical: #e66767;
  }}
{slots_dark}}}
* {{ box-sizing: border-box; }}
body {{
  margin: 0; padding: 24px; background: var(--page); color: var(--ink);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}}
main {{ max-width: 880px; margin: 0 auto; }}
h1 {{ font-size: 20px; margin: 0 0 4px; }}
h2 {{ font-size: 15px; margin: 0 0 8px; color: var(--ink); }}
.sub {{ color: var(--ink-2); margin: 0 0 20px; }}
.tiles {{ display: flex; flex-wrap: wrap; gap: 12px; margin: 0 0 20px; }}
.tile {{
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; min-width: 150px; flex: 1;
}}
.tile .label {{ color: var(--ink-2); font-size: 12px; }}
.tile .value {{ font-size: 26px; font-weight: 600; }}
.tile .value.bad {{ color: var(--critical); }}
.tile .hint {{ color: var(--muted); font-size: 11px; }}
section.chart, section.table {{
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px; margin: 0 0 20px;
}}
svg {{ width: 100%; height: auto; display: block; }}
svg .grid {{ stroke: var(--grid); stroke-width: 1; }}
svg .tick {{ fill: var(--muted); font-size: 11px;
             font-variant-numeric: tabular-nums; }}
svg .line {{ fill: none; stroke: var(--series); stroke-width: 2;
             stroke-linejoin: round; stroke-linecap: round; }}
svg .dot {{ fill: var(--series); stroke: var(--surface); stroke-width: 2; }}
.legend {{ display: flex; flex-wrap: wrap; gap: 6px 16px; margin: 0 0 8px;
           color: var(--ink-2); font-size: 12px; }}
.legend .key {{ display: inline-flex; align-items: center; gap: 6px; }}
.legend .swatch {{ width: 10px; height: 10px; border-radius: 50%;
                   background: var(--series); display: inline-block; }}
.note {{ color: var(--muted); font-size: 12px; }}
details.data {{ margin-top: 8px; }}
details.data summary {{ color: var(--ink-2); font-size: 12px; cursor: pointer; }}
table {{ border-collapse: collapse; width: 100%; margin-top: 8px;
         font-size: 12px; }}
th, td {{ text-align: right; padding: 4px 8px;
          border-bottom: 1px solid var(--grid);
          font-variant-numeric: tabular-nums; }}
th[scope="row"], thead th:first-child {{ text-align: left; }}
thead th {{ color: var(--ink-2); font-weight: 600; }}
.failures li {{ color: var(--ink-2); }}
.failures code {{ color: var(--critical); }}
footer {{ color: var(--muted); font-size: 11px; margin-top: 24px; }}
"""


def _stat_tiles(latest: Optional[dict], sweeps: int) -> str:
    if latest is None:
        return ""
    configs = latest.get("configurations", [])
    worst = max(
        (c["geomean_error"] for c in configs if c.get("cases_ok")),
        default=None,
    )
    failures = latest.get("failures_total", 0)
    tiles = [
        ("Sweeps on record", str(sweeps), ""),
        ("Units in latest sweep", str(latest.get("units", 0)), ""),
        (
            "Worst config geomean error",
            f"{worst * 100:.1f}%" if worst is not None else "–",
            "geometric mean of per-case estimate error",
        ),
        (
            "Failed cases",
            str(failures),
            "across every configuration",
        ),
    ]
    rendered = []
    for label, value, hint in tiles:
        bad = ' bad' if label == "Failed cases" and failures else ""
        hint_html = f'<div class="hint">{_esc(hint)}</div>' if hint else ""
        rendered.append(
            f'<div class="tile"><div class="label">{_esc(label)}</div>'
            f'<div class="value{bad}">{_esc(value)}</div>{hint_html}</div>'
        )
    if not latest.get("complete", True):
        rendered.append(
            '<div class="tile"><div class="label">Coverage</div>'
            '<div class="value bad">incomplete</div>'
            f'<div class="hint">{len(latest.get("missing", []))} unit(s) '
            "missing from checkpoints</div></div>"
        )
    return f'<div class="tiles">{"".join(rendered)}</div>'


def _latest_table(latest: Optional[dict]) -> str:
    if latest is None:
        return ""
    rows = []
    for config in latest.get("configurations", []):
        rows.append(
            "<tr>"
            f'<th scope="row">{_esc(config["key"])}</th>'
            f"<td>{config.get('cases_ok', 0)}</td>"
            f"<td>{config.get('cases_failed', 0)}</td>"
            f"<td>{config.get('geomean_achieved', 0):.2f}x</td>"
            f"<td>{config.get('geomean_estimated', 0):.2f}x</td>"
            f"<td>{config.get('geomean_error', 0) * 100:.1f}%</td>"
            f"<td>{_esc(_fmt(config.get('total_samples', 0)))}</td>"
            "</tr>"
        )
    return (
        '<section class="table"><h2>Latest sweep by configuration</h2>'
        "<table><thead><tr><th>configuration</th><th>ok</th><th>failed</th>"
        "<th>geomean achieved</th><th>geomean estimated</th>"
        "<th>geomean error</th><th>samples</th></tr></thead>"
        f'<tbody>{"".join(rows)}</tbody></table></section>'
    )


def _failure_ledger(latest: Optional[dict]) -> str:
    if latest is None:
        return ""
    items = []
    for config in latest.get("configurations", []):
        for failure in config.get("failures", []):
            items.append(
                f"<li><code>{_esc(failure['case'])}</code> "
                f"[{_esc(config['key'])}] — {_esc(failure['error'])}</li>"
            )
    for missing in latest.get("missing", []):
        items.append(
            f"<li><code>{_esc(missing['case'])}</code> "
            f"[{_esc(missing['config'])}] — missing from checkpoints</li>"
        )
    if not items:
        return ""
    return (
        '<section class="table failures"><h2>Failure ledger (latest sweep)'
        f'</h2><ul>{"".join(items)}</ul></section>'
    )


def render_report(
    sweeps: Sequence[Tuple[str, dict]],
    bench_history: Sequence[dict] = (),
    generated: str = "",
) -> str:
    """The full dashboard page.  ``sweeps`` is (label, artifact), oldest
    first; ``bench_history`` is :func:`load_bench_history`'s entries."""
    latest = sweeps[-1][1] if sweeps else None
    error_series, error_labels = sweep_error_series(sweeps)
    bench_series, bench_labels = bench_pass_series(bench_history)

    charts = []
    if sweeps:
        charts.append(
            _line_chart(
                "Estimate-error geomean by configuration",
                error_series,
                error_labels,
                "% error",
                "errors",
            )
        )
    if bench_history:
        charts.append(
            _line_chart(
                "perfbench pass time by workload (calibrated)",
                bench_series,
                bench_labels,
                "s",
                "pass-time",
            )
        )

    stamp = f" · generated {_esc(generated)}" if generated else ""
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        '<meta name="viewport" content="width=device-width, initial-scale=1">'
        "<title>Fleet evaluation dashboard</title>"
        f"<style>{_style()}</style></head><body><main>"
        "<h1>Fleet evaluation dashboard</h1>"
        '<p class="sub">Error geomeans per configuration across sweep '
        "history, perfbench pass time per workload, and the latest failure "
        f"ledger{stamp}.</p>"
        f"{_stat_tiles(latest, len(sweeps))}"
        f'{"".join(charts)}'
        f"{_latest_table(latest)}"
        f"{_failure_ledger(latest)}"
        "<footer>Static artifact of the fleet evaluation pipeline "
        "(python -m repro.evaluation.fleet report); stdlib-generated, "
        "no external assets.</footer>"
        "</main></body></html>\n"
    )


__all__ = [
    "bench_pass_series",
    "load_bench_history",
    "render_report",
    "sweep_error_series",
]
