"""CSV schemas and deterministic chart output for the benchmark harness.

Emitted files (headers are part of the external contract):

    timings.csv  label,step,phase,seconds
    memory.csv   label,role,peak_rss_bytes
    summary.csv  label,phase,mean_s,stddev_s,total_bytes
    scaling.csv  producers,mean_time_per_step_s,stddev_s,peak_rss_mean_bytes

Charts are plain SVG with fixed dimensions, text-as-text and no
timestamps, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

TIMINGS_HEADER = ["label", "step", "phase", "seconds"]
MEMORY_HEADER = ["label", "role", "peak_rss_bytes"]
SUMMARY_HEADER = ["label", "phase", "mean_s", "stddev_s", "total_bytes"]
SCALING_HEADER = ["producers", "mean_time_per_step_s", "stddev_s", "peak_rss_mean_bytes"]


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


def write_timings(path: str | Path, records: list[TimingRecord]):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(TIMINGS_HEADER)
        for r in records:
            w.writerow([r.label, r.step, r.phase, f"{r.seconds:.9f}"])


def read_timings(path: str | Path) -> list[TimingRecord]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != TIMINGS_HEADER:
        raise ValueError(f"{path}: expected header {','.join(TIMINGS_HEADER)}")
    return [TimingRecord(r[0], int(r[1]), r[2], float(r[3])) for r in rows[1:]]


def write_memory(path: str | Path, records: list[MemoryRecord]):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(MEMORY_HEADER)
        for r in records:
            w.writerow([r.label, r.role, r.peak_rss_bytes])


def read_memory(path: str | Path) -> list[MemoryRecord]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != MEMORY_HEADER:
        raise ValueError(f"{path}: expected header {','.join(MEMORY_HEADER)}")
    return [MemoryRecord(r[0], r[1], int(r[2])) for r in rows[1:]]


def write_scaling(path: str | Path, rows: list[tuple[int, float, float, int]]):
    """Rows of (producers, mean_s, stddev_s, peak_rss_mean_bytes)."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(SCALING_HEADER)
        for p, mean, sd, rss in rows:
            w.writerow([p, f"{mean:.9f}", f"{sd:.9f}", rss])


def mean_std(values: list[float]) -> tuple[float, float]:
    n = len(values)
    m = sum(values) / n
    if n < 2:
        return m, 0.0
    var = sum((v - m) ** 2 for v in values) / (n - 1)
    return m, math.sqrt(var)


def aggregate(records: list[TimingRecord], bytes_by_key: dict[tuple[str, str], int] | None = None):
    """Group timings by (label, phase) -> (mean_s, stddev_s, total_bytes)."""
    if not records:
        raise ValueError("no data")
    groups: dict[tuple[str, str], list[float]] = {}
    for r in records:
        groups.setdefault((r.label, r.phase), []).append(r.seconds)
    out = {}
    for key in sorted(groups):
        m, sd = mean_std(groups[key])
        out[key] = (m, sd, (bytes_by_key or {}).get(key, 0))
    return out


def write_summary(path: str | Path, agg: dict[tuple[str, str], tuple[float, float, int]]):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(SUMMARY_HEADER)
        for (label, phase), (m, sd, nbytes) in sorted(agg.items()):
            w.writerow([label, phase, f"{m:.9f}", f"{sd:.9f}", nbytes])


def read_summary(path: str | Path) -> dict[tuple[str, str], tuple[float, float, int]]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != SUMMARY_HEADER:
        raise ValueError(f"{path}: expected header {','.join(SUMMARY_HEADER)}")
    return {(r[0], r[1]): (float(r[2]), float(r[3]), int(r[4])) for r in rows[1:]}


# ---------------------------------------------------------------------------
# deterministic SVG charts
# ---------------------------------------------------------------------------

_W, _H = 640, 360
_ML, _MR, _MT, _MB = 70, 20, 30, 80

_PALETTE = ["#3b4cc0", "#b40426", "#2e8b57", "#b8860b", "#6a3d9a", "#444444"]


def _svg_header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="11">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:g}" y="18" text-anchor="middle" font-size="14">{title}</text>',
    ]


def bar_chart_svg(agg: dict[tuple[str, str], tuple[float, float, int]], title: str) -> str:
    """Grouped bar chart of mean seconds per (label, phase)."""
    if not agg:
        raise ValueError("no data")
    keys = sorted(agg)
    vmax = max(v[0] for v in agg.values()) or 1.0
    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB
    bw = plot_w / len(keys)
    parts = _svg_header(title)
    phases = sorted({phase for _, phase in keys})
    color = {p: _PALETTE[i % len(_PALETTE)] for i, p in enumerate(phases)}
    for i, key in enumerate(keys):
        mean = agg[key][0]
        h = plot_h * mean / vmax
        x = _ML + i * bw + 0.15 * bw
        y = _MT + plot_h - h
        parts.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{0.7 * bw:.1f}" height="{h:.1f}" '
            f'fill="{color[key[1]]}"/>'
        )
        lx = _ML + (i + 0.5) * bw
        parts.append(
            f'<text x="{lx:.1f}" y="{_MT + plot_h + 12}" text-anchor="end" '
            f'transform="rotate(-35 {lx:.1f} {_MT + plot_h + 12})">{key[0]}/{key[1]}</text>'
        )
        parts.append(
            f'<text x="{lx:.1f}" y="{y - 4:.1f}" text-anchor="middle">{mean:.2e}</text>'
        )
    parts.append(
        f'<line x1="{_ML}" y1="{_MT + plot_h}" x2="{_W - _MR}" y2="{_MT + plot_h}" stroke="black"/>'
    )
    parts.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_MT + plot_h}" stroke="black"/>')
    parts.append(f'<text x="12" y="{_MT + 8}">{vmax:.2e}s</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def line_chart_svg(points: list[tuple[float, float]], title: str, xlabel: str, ylabel: str) -> str:
    """Single-series line chart; x and y both start at 0."""
    if not points:
        raise ValueError("no data")
    xs, ys = zip(*points)
    xmax = max(xs) or 1.0
    ymax = max(ys) or 1.0
    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def px(x):
        return _ML + plot_w * x / xmax

    def py(y):
        return _MT + plot_h * (1 - y / ymax)

    parts = _svg_header(title)
    coords = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in points)
    parts.append(f'<polyline points="{coords}" fill="none" stroke="{_PALETTE[0]}" stroke-width="2"/>')
    for x, y in points:
        parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3" fill="{_PALETTE[0]}"/>')
        parts.append(f'<text x="{px(x):.1f}" y="{py(y) - 8:.1f}" text-anchor="middle">{y:.2e}</text>')
        parts.append(f'<text x="{px(x):.1f}" y="{_MT + plot_h + 14}" text-anchor="middle">{x:g}</text>')
    parts.append(
        f'<line x1="{_ML}" y1="{_MT + plot_h}" x2="{_W - _MR}" y2="{_MT + plot_h}" stroke="black"/>'
    )
    parts.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_MT + plot_h}" stroke="black"/>')
    parts.append(f'<text x="{_W / 2:g}" y="{_H - 6}" text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="12" y="{_MT + 8}">{ylabel}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


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
