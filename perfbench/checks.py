"""Correctness checks on the outputs of one benchmark round.

Every check comes from a property the method must have or from a value
computed apart from the program's sinks, never from a stored copy of
earlier output:

* a binary and an ascii checkpoint of the same step decode, through
  ``checkpoint_read``, to bit-identical arrays;
* every step has one stats row per field, and each equals numpy's min/max/mean of the checkpoint read back for
  that step, or of a snapshot replayed with the public solver;
* wall rows are exact (u = v = 0, T = 1 at the bottom, T = 0 at the top)
  and 0 <= T <= 1 everywhere;
* a PPM is exactly 3*W*H + 15 bytes, and the temperature image's top row
  is the colormap's t = 0 colour and its bottom row the t = 1 colour;
* at the first analysed steps, the analysed grid equals the x-tiling of
  snapshots that ``replay`` computes with the public solver, each
  producer at seed ``seed + pid``;
* the endpoint reports every shipped step complete.

A sink invocation fails when its output is missing or fails a check; a
shipped step fails when the endpoint reports it incomplete or a process
exited non-zero. Outputs that are present but wrong are also listed as
errors, which makes the round incorrect.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FIELDS = ("velocity", "pressure", "temperature")
COMPONENTS = {"velocity": 2, "pressure": 1, "temperature": 1}
RENDER_FIELDS = ("temperature", "velocity_mag")


@dataclass
class Verdict:
    """Operations attempted and failed, and the wrong outputs seen."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def op(self, problems: list[str], missing: bool = False):
        """Count one operation; `problems` are its failed checks."""
        self.attempted += 1
        if problems or missing:
            self.failed += 1
        if not missing:
            self.errors.extend(problems)


def replay(nx: int, ny: int, seed: int, producers: int, steps: list[int]) -> dict[int, dict]:
    """Global point grids at `steps`, computed with the public solver.

    Producer pid runs at seed `seed + pid`; the global grid is the x-tiling
    of the producers' grids in pid order. Returns step -> {field: array of
    shape (ny, producers*nx, components)} plus "time".
    """
    from nekmini.solver import SolverParams, init_state, snapshot_of, step

    per_producer = []
    for pid in range(producers):
        p = SolverParams(nx=nx, ny=ny, seed=seed + pid)
        s = init_state(p)
        grids = {}
        for k in range(max(steps) + 1):
            if k in steps:
                b = snapshot_of(s, producer_id=pid).blocks[0]
                grids[k] = {f: b.field_named(f).values.reshape(ny, nx, COMPONENTS[f]) for f in FIELDS}
                grids[k]["time"] = s.time
            if k < max(steps):
                s = step(s, p)
        per_producer.append(grids)
    out = {}
    for k in steps:
        out[k] = {f: np.concatenate([g[k][f] for g in per_producer], axis=1) for f in FIELDS}
        out[k]["time"] = per_producer[0][k]["time"]
    return out


def grid_of(snap, f: str) -> np.ndarray:
    b = snap.blocks[0]
    ni, nj, _ = b.dims
    return b.field_named(f).values.reshape(nj, ni, COMPONENTS[f])


def physics_problems(snap, where: str) -> list[str]:
    """Exact wall rows and the temperature maximum principle."""
    problems = []
    vel, temp = grid_of(snap, "velocity"), grid_of(snap, "temperature")
    if np.any(vel[0] != 0) or np.any(vel[-1] != 0):
        problems.append(f"{where}: velocity not exactly 0 on a wall row")
    if np.any(temp[0] != 1):
        problems.append(f"{where}: bottom temperature row not exactly 1")
    if np.any(temp[-1] != 0):
        problems.append(f"{where}: top temperature row not exactly 0")
    if temp.min() < 0 or temp.max() > 1:
        problems.append(f"{where}: temperature outside [0, 1]")
    return problems


def same_arrays(a, b, where: str) -> list[str]:
    """Bit-identical field arrays, same step, time and extents."""
    problems = []
    ba, bb = a.blocks[0], b.blocks[0]
    if (a.step, a.time, ba.extents) != (b.step, b.time, bb.extents):
        problems.append(f"{where}: step, time or extents differ")
    for f in FIELDS:
        va, vb = ba.field_named(f).values, bb.field_named(f).values
        if va.shape != vb.shape or va.tobytes() != vb.tobytes():
            problems.append(f"{where}: field {f} not bit-identical")
    return problems


def replay_problems(snap, ref: dict, where: str) -> list[str]:
    problems = []
    if snap.time != ref["time"]:
        problems.append(f"{where}: time {snap.time!r} != replayed {ref['time']!r}")
    for f in FIELDS:
        got = grid_of(snap, f)
        if got.shape != ref[f].shape or got.tobytes() != ref[f].tobytes():
            problems.append(f"{where}: field {f} differs from the replayed tiling")
    return problems


def read_stats(path: Path) -> dict[int, dict[str, tuple[float, float, float, float]]]:
    """step -> field -> (time, min, max, mean)."""
    rows: dict[int, dict] = {}
    with open(path, newline="") as f:
        reader = csv.reader(f)
        if next(reader, None) != ["step", "time", "field", "min", "max", "mean"]:
            raise ValueError(f"{path}: bad header")
        for r in reader:
            rows.setdefault(int(r[0]), {})[r[2]] = tuple(float(x) for x in (r[1], r[3], r[4], r[5]))
    return rows


def stats_problems(row: dict, grids: dict, t: float, where: str) -> list[str]:
    """One step's stats rows, one per field, against numpy on independently obtained grids."""
    problems = []
    for f in FIELDS:
        vals = np.ascontiguousarray(grids[f]).ravel()
        want = (t, float(vals.min()), float(vals.max()), float(vals.mean()))
        if row[f] != want:
            problems.append(f"{where}: stats {f} {row[f]} != numpy {want}")
    return problems


def ppm_problems(path: Path, width: int, height: int, temperature: bool) -> list[str]:
    from nekmini.sinks import DEFAULT_COLORMAP

    data = path.read_bytes()
    if len(data) != 3 * width * height + 15:
        return [f"{path.name}: {len(data)} bytes, expected {3 * width * height + 15}"]
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    if not data.startswith(header):
        return [f"{path.name}: bad PPM header"]
    if not temperature:
        return []
    pixels = np.frombuffer(data, dtype=np.uint8, offset=len(header)).reshape(height, width, 3)
    problems = []
    cold, hot = DEFAULT_COLORMAP.apply(np.array([0.0, 1.0]))
    if np.any(pixels[0] != cold):
        problems.append(f"{path.name}: top row is not the colormap's t=0 colour")
    if np.any(pixels[-1] != hot):
        problems.append(f"{path.name}: bottom row is not the colormap's t=1 colour")
    return problems


def check_sinks(out: Path, sinks: tuple[str, ...], analysed: list[int],
                refs: dict[int, dict], image: tuple[int, int], v: Verdict):
    """Check every sink invocation of the schedule.

    `out` holds one directory per sink kind as the workload configures
    them; `refs` holds replayed grids for the first analysed steps.
    """
    from nekmini.sinks import checkpoint_filename, checkpoint_read

    stats = read_stats(out / "stats.csv") if (out / "stats.csv").exists() else {}
    for k in analysed:
        ckpt = {}
        for fmt in ("binary", "ascii"):
            if f"checkpoint-{fmt}" not in sinks:
                continue
            path = out / f"ckpt_{fmt}" / checkpoint_filename(k, 0)
            if not path.exists():
                v.op([], missing=True)
                continue
            try:
                snap = checkpoint_read(path)
            except (ValueError, KeyError, IndexError) as e:
                v.op([f"{path.name} ({fmt}): unreadable: {e}"])
                continue
            where = f"step {k} {fmt} checkpoint"
            problems = physics_problems(snap, where)
            if snap.step != k:
                problems.append(f"{where}: header step {snap.step}")
            if k in refs:
                problems += replay_problems(snap, refs[k], where)
            if "binary" in ckpt:
                problems += same_arrays(ckpt["binary"], snap, f"step {k} ascii vs binary")
            ckpt[fmt] = snap
            v.op(problems)

        if "stats" in sinks:
            where, row = f"step {k} stats", stats.get(k)
            if row is None:
                v.op([], missing=True)
            elif set(row) != set(FIELDS):
                v.op([f"{where}: rows for {sorted(row)}, expected one per field of {FIELDS}"])
            else:
                problems = []
                if k in refs:
                    problems += stats_problems(row, refs[k], refs[k]["time"], where)
                if ckpt:
                    snap = next(iter(ckpt.values()))
                    grids = {f: grid_of(snap, f) for f in FIELDS}
                    problems += stats_problems(row, grids, snap.time, where)
                if row["temperature"][1:3] != (0.0, 1.0):
                    problems.append(f"{where}: temperature min/max is not (0, 1)")
                v.op(problems)

        if "render" in sinks:
            paths = [out / "img" / f"step{k:06d}_{f}.ppm" for f in RENDER_FIELDS]
            if all(p.exists() for p in paths):
                v.op([e for p in paths
                      for e in ppm_problems(p, *image, p.name.endswith("temperature.ppm"))])
            else:
                v.op([], missing=True)


def check_endpoint(summary_path: Path, expected_steps: int, exit_ok: bool, v: Verdict):
    """Count shipped steps; each fails unless the endpoint completed it."""
    completed = 0
    if summary_path.exists():
        facts = dict(line.split("=", 1) for line in summary_path.read_text().splitlines() if "=" in line)
        if int(facts.get("incomplete_steps", 1)) == 0 and "error" not in facts:
            completed = int(facts.get("steps_completed", 0))
    ok = min(completed, expected_steps) if exit_ok else 0
    v.attempted += expected_steps
    v.failed += expected_steps - ok
