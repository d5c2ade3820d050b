"""CSV tables and deterministic SVG charts for the benchmark harness.

Each table (timings.csv, memory.csv, summary.csv, scaling.csv) has one
header, its `*_HEADER`, which is part of the external contract: the
writer writes it through `_write_csv` and the reader checks it through
`_read_csv`. The timings and memory headers are the field names of their
record types. summary.csv's per-step means cover steps >= 1.

Charts are plain SVG with fixed dimensions, text-as-text and no
timestamps, so identical inputs produce byte-identical files. Both draw
their marks in the one frame that `_svg` draws, and escape every text
they are given (a title, a label, a phase or an axis name) as XML.
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass, fields
from pathlib import Path


@dataclass(frozen=True)
class TimingRecord:
    label: str
    step: int
    phase: str
    seconds: float


@dataclass(frozen=True)
class MemoryRecord:
    label: str
    role: str
    peak_rss_bytes: int


TIMINGS_HEADER = [f.name for f in fields(TimingRecord)]
MEMORY_HEADER = [f.name for f in fields(MemoryRecord)]
SUMMARY_HEADER = ["label", "phase", "mean_s", "stddev_s", "total_bytes"]
SCALING_HEADER = ["producers", "mean_time_per_step_s", "stddev_s", "peak_rss_mean_bytes"]


def _write_csv(path: str | Path, header: list[str], rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _read_csv(path: str | Path, header: list[str]) -> list[list[str]]:
    """The rows of a table after its header, which must be `header`."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != header:
        raise ValueError(f"{path}: expected header {','.join(header)}")
    return rows[1:]


def write_timings(path: str | Path, records: list[TimingRecord]):
    _write_csv(path, TIMINGS_HEADER,
               ([r.label, r.step, r.phase, f"{r.seconds:.9f}"] for r in records))


def read_timings(path: str | Path) -> list[TimingRecord]:
    return [TimingRecord(label, int(step), phase, float(seconds))
            for label, step, phase, seconds in _read_csv(path, TIMINGS_HEADER)]


def write_memory(path: str | Path, records: list[MemoryRecord]):
    _write_csv(path, MEMORY_HEADER, map(astuple, records))


def read_memory(path: str | Path) -> list[MemoryRecord]:
    return [MemoryRecord(label, role, int(rss))
            for label, role, rss in _read_csv(path, MEMORY_HEADER)]


def write_scaling(path: str | Path, rows: list[tuple[int, float, float, int]]):
    """Rows of (producers, mean_s, stddev_s, peak_rss_mean_bytes)."""
    _write_csv(path, SCALING_HEADER,
               ([p, f"{mean:.9f}", f"{sd:.9f}", rss] for p, mean, sd, rss in rows))


def mean_std(values: list[float]) -> tuple[float, float]:
    n = len(values)
    m = sum(values) / n
    if n < 2:
        return m, 0.0
    var = sum((v - m) ** 2 for v in values) / (n - 1)
    return m, math.sqrt(var)


def aggregate(records: list[TimingRecord], bytes_by_key: dict[tuple[str, str], int] | None = None):
    """Group timings by (label, phase) -> (mean_s, stddev_s, total_bytes).

    Mean and stddev are over a phase's steps >= 1, leaving out step 0's
    start-up rendezvous; a phase with no such row (a step -1 total, a
    phase timed only at step 0) is averaged over all of its rows.
    """
    if not records:
        raise ValueError("no data")
    groups: dict[tuple[str, str], list[TimingRecord]] = {}
    for r in records:
        groups.setdefault((r.label, r.phase), []).append(r)
    out = {}
    for key in sorted(groups):
        rows = groups[key]
        m, sd = mean_std([r.seconds for r in rows if r.step >= 1] or [r.seconds for r in rows])
        out[key] = (m, sd, (bytes_by_key or {}).get(key, 0))
    return out


def write_summary(path: str | Path, agg: dict[tuple[str, str], tuple[float, float, int]]):
    _write_csv(path, SUMMARY_HEADER,
               ([label, phase, f"{m:.9f}", f"{sd:.9f}", nbytes]
                for (label, phase), (m, sd, nbytes) in sorted(agg.items())))


def read_summary(path: str | Path) -> dict[tuple[str, str], tuple[float, float, int]]:
    return {(label, phase): (float(m), float(sd), int(nbytes))
            for label, phase, m, sd, nbytes in _read_csv(path, SUMMARY_HEADER)}


# ---------------------------------------------------------------------------
# deterministic SVG charts
# ---------------------------------------------------------------------------

_W, _H = 640, 360
_ML, _MR, _MT, _MB = 70, 20, 30, 80
_PLOT_W, _PLOT_H = _W - _ML - _MR, _H - _MT - _MB

_PALETTE = ["#3b4cc0", "#b40426", "#2e8b57", "#b8860b", "#6a3d9a", "#444444"]


def _text(s: str) -> str:
    """s as XML character data, as xml.sax.saxutils.escape gives it; that
    module imports urllib.request and ssl, 2 MB of every run's peak RSS."""
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _svg(title: str, marks: list[str], labels: list[str]) -> str:
    """One chart: the canvas and title, `marks`, both axes, then `labels`."""
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="11">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:g}" y="18" text-anchor="middle" font-size="14">{_text(title)}</text>',
        *marks,
        f'<line x1="{_ML}" y1="{_MT + _PLOT_H}" x2="{_W - _MR}" y2="{_MT + _PLOT_H}" '
        f'stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_MT + _PLOT_H}" stroke="black"/>',
        *labels,
        "</svg>",
    ]) + "\n"


def bar_chart_svg(agg: dict[tuple[str, str], tuple[float, float, int]], title: str) -> str:
    """Grouped bar chart of mean seconds per (label, phase)."""
    if not agg:
        raise ValueError("no data")
    keys = sorted(agg)
    vmax = max(v[0] for v in agg.values()) or 1.0
    bw = _PLOT_W / len(keys)
    phases = sorted({phase for _, phase in keys})
    color = {p: _PALETTE[i % len(_PALETTE)] for i, p in enumerate(phases)}
    marks = []
    for i, key in enumerate(keys):
        mean = agg[key][0]
        h = _PLOT_H * mean / vmax
        x = _ML + i * bw + 0.15 * bw
        y = _MT + _PLOT_H - h
        lx = _ML + (i + 0.5) * bw
        marks += [
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{0.7 * bw:.1f}" height="{h:.1f}" '
            f'fill="{color[key[1]]}"/>',
            f'<text x="{lx:.1f}" y="{_MT + _PLOT_H + 12}" text-anchor="end" '
            f'transform="rotate(-35 {lx:.1f} {_MT + _PLOT_H + 12})">'
            f'{_text(key[0])}/{_text(key[1])}</text>',
            f'<text x="{lx:.1f}" y="{y - 4:.1f}" text-anchor="middle">{mean:.2e}</text>',
        ]
    return _svg(title, marks, [f'<text x="12" y="{_MT + 8}">{vmax:.2e}s</text>'])


def line_chart_svg(points: list[tuple[float, float]], title: str, xlabel: str, ylabel: str) -> str:
    """Single-series line chart; x and y both start at 0."""
    if not points:
        raise ValueError("no data")
    xs, ys = zip(*points)
    xmax = max(xs) or 1.0
    ymax = max(ys) or 1.0

    def px(x):
        return _ML + _PLOT_W * x / xmax

    def py(y):
        return _MT + _PLOT_H * (1 - y / ymax)

    coords = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in points)
    marks = [f'<polyline points="{coords}" fill="none" stroke="{_PALETTE[0]}" stroke-width="2"/>']
    for x, y in points:
        marks += [
            f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3" fill="{_PALETTE[0]}"/>',
            f'<text x="{px(x):.1f}" y="{py(y) - 8:.1f}" text-anchor="middle">{y:.2e}</text>',
            f'<text x="{px(x):.1f}" y="{_MT + _PLOT_H + 14}" text-anchor="middle">{x:g}</text>',
        ]
    return _svg(title, marks, [
        f'<text x="{_W / 2:g}" y="{_H - 6}" text-anchor="middle">{_text(xlabel)}</text>',
        f'<text x="12" y="{_MT + 8}">{_text(ylabel)}</text>',
    ])


def report(input_dir: str | Path,
           output_dir: str | Path | None = None) -> tuple[Path, Path | None]:
    """Aggregate every timings.csv under input_dir into summary.csv + chart.svg.

    total_bytes per (label, phase) is summed from every summary.csv that
    has a timings.csv next to it, i.e. that a run role wrote. Any other
    summary.csv is a previous merged output and is skipped, so a rerun
    neither loses nor compounds bytes.

    The chart plots per-step rows only: a step -1 row holds a run total,
    not a per-step mean. With no per-step rows (an endpoint's own
    directory) no chart is written, and None is returned for its path.
    """
    input_dir = Path(input_dir)
    output_dir = Path(output_dir) if output_dir else input_dir
    timing_files = sorted(input_dir.rglob("timings.csv"))
    records: list[TimingRecord] = []
    for p in timing_files:
        records.extend(read_timings(p))
    if not records:
        raise ValueError(f"no data: no timings.csv rows under {input_dir}")

    bytes_by_key: dict[tuple[str, str], int] = {}
    for p in timing_files:
        if (p.parent / "summary.csv").exists():
            for key, (_, _, nbytes) in read_summary(p.parent / "summary.csv").items():
                bytes_by_key[key] = bytes_by_key.get(key, 0) + nbytes

    agg = aggregate(records, bytes_by_key)
    output_dir.mkdir(parents=True, exist_ok=True)
    summary_path = output_dir / "summary.csv"
    write_summary(summary_path, agg)
    per_step = [r for r in records if r.step >= 0]
    if not per_step:
        return summary_path, None
    chart_path = output_dir / "chart.svg"
    chart_path.write_text(bar_chart_svg(aggregate(per_step), "mean seconds per step phase"))
    return summary_path, chart_path
