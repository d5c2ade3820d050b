"""Self-test of the benchmark's checks and failure counts.

    python3 perfbench/selftest.py [--quick]

Runs small rounds of the workloads' shapes through the real CLI, confirms
that their outputs pass every check, then corrupts one output at a time
and confirms that the checks reject it: one perturbed checkpoint value, a
stats row off by one ulp, a wrong image row, a missing file, a swapped
tiling order, an incomplete endpoint step, a stats row dropped at a late
step, a non-zero exit with every output in place. It also confirms that a
sink failing on every trigger (``field="bogus"``) is counted as failed
while the program itself exits 0. ``--quick`` uses 16x16 grids instead of the
workloads' own. Exits non-zero if any case does not hold.
"""

from __future__ import annotations

import argparse
import dataclasses
import shutil
import struct
import sys
from pathlib import Path

import numpy as np

import run
from checks import Verdict, check_sinks

OUT = run.OUT / "selftest"


class BogusRender(run.Workload):
    """A render sink asked for a field that no snapshot has."""

    def config(self, sinks_dir: Path) -> str:
        return (f'<sensei><analysis type="render" field="bogus" dir="{sinks_dir}/img" '
                f'frequency="{self.frequency}"/></sensei>\n')


def shapes(quick: bool) -> list[run.Workload]:
    """The workloads with 4 analysed steps, on 16x16 grids when quick.

    The last step lies past the three that ``replay`` covers, as most of a
    workload's steps do.
    """
    out = []
    for wl in run.WORKLOADS.values():
        grid = {"nx": 16, "ny": 16} if quick else {}
        out.append(dataclasses.replace(wl, steps=3 * wl.frequency, **grid))
    return out


def perturb_value(path: Path):
    """Add one ulp to the middle value of a binary checkpoint's temperature."""
    data = bytearray(path.read_bytes())
    line = data.index(b"\ntemperature ") + 1
    count = int(data[line:data.index(b"\n", line)].split()[2])
    at = data.index(b"\n", line) + 1 + 8 * (count // 2)
    (x,) = struct.unpack_from(">d", data, at)
    struct.pack_into(">d", data, at, float(np.nextafter(x, np.inf)))
    path.write_bytes(bytes(data))


def off_by_one_ulp(stats: Path, step: int):
    lines = stats.read_text().splitlines()
    for i, line in enumerate(lines):
        cells = line.split(",")
        if cells[0] == str(step) and cells[2] == "temperature":
            cells[5] = f"{np.nextafter(float(cells[5]), np.inf):.17g}"
            lines[i] = ",".join(cells)
            break
    stats.write_text("\n".join(lines) + "\n")


def drop_row(stats: Path, step: int, field: str):
    lines = stats.read_text().splitlines()
    lines = [line for line in lines
             if [line.split(",")[i] for i in (0, 2)] != [str(step), field]]
    stats.write_text("\n".join(lines) + "\n")


def wrong_image_row(ppm: Path, width: int):
    data = bytearray(ppm.read_bytes())
    data[-3 * width:] = bytes(3 * width)  # bottom row black
    ppm.write_bytes(bytes(data))


def swap_halves(ckpt: Path):
    """Rewrite a checkpoint with its two producers' blocks in swapped x order."""
    from nekmini.data_model import Block, FieldArray, Snapshot
    from nekmini.sinks import checkpoint_read, checkpoint_write

    snap = checkpoint_read(ckpt)
    b = snap.blocks[0]
    ni, nj, _ = b.dims
    fields = []
    for f in b.fields:
        g = f.values.reshape(nj, ni, f.components)
        fields.append(FieldArray(f.name, f.association, f.components,
                                 np.concatenate([g[:, ni // 2:], g[:, :ni // 2]], axis=1).ravel()))
    swapped = Snapshot(snap.time, snap.step, snap.producer_id,
                       (Block(b.origin, b.spacing, b.extents, tuple(fields)),))
    checkpoint_write(swapped, ckpt.parent, "binary")


def incomplete_step(summary: Path):
    text = summary.read_text().replace("incomplete_steps=0", "incomplete_steps=1")
    summary.write_text(text + "error=step 10: injected\n")


def corruptions(wl: run.Workload) -> dict:
    """name -> function(sinks dir, out dir) that corrupts one output."""
    k = wl.frequency
    cases = {}
    if "checkpoint-binary" in wl.sinks:
        cases["perturbed checkpoint value"] = lambda s, o: perturb_value(
            s / "ckpt_binary" / f"step{k:06d}_blk000.vtk")
    if "checkpoint-ascii" in wl.sinks:
        cases["missing ascii checkpoint"] = lambda s, o: (
            s / "ckpt_ascii" / f"step{2 * k:06d}_blk000.vtk").unlink()
    if "stats" in wl.sinks:
        cases["stats row off by one ulp"] = lambda s, o: off_by_one_ulp(s / "stats.csv", k)
        cases["stats row off by one ulp at step 0"] = lambda s, o: off_by_one_ulp(s / "stats.csv", 0)
        cases["velocity stats row dropped at the last step"] = lambda s, o: drop_row(
            s / "stats.csv", wl.analysed[-1], "velocity")
    if "render" in wl.sinks:
        cases["wrong image row"] = lambda s, o: wrong_image_row(
            s / "img" / f"step{k:06d}_temperature.ppm", run.IMAGE[0])
        cases["missing image"] = lambda s, o: (s / "img" / f"step{k:06d}_velocity_mag.ppm").unlink()
    if wl.producers > 1 and "checkpoint-binary" in wl.sinks:
        cases["swapped tiling order"] = lambda s, o: swap_halves(
            s / "ckpt_binary" / f"step{k:06d}_blk000.vtk")
    if wl.producers:
        cases["incomplete endpoint step"] = lambda s, o: incomplete_step(
            o / "endpoint" / "endpoint_summary.txt")
    return cases


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="16x16 grids")
    args = ap.parse_args(argv)
    seed, bad = 5, []

    def expect(ok: bool, what: str):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            bad.append(what)

    for wl in shapes(args.quick):
        rdir = OUT / wl.name
        code, _ = run.launch(wl, seed, rdir, False, 120)
        refs = run.checks.replay(wl.nx, wl.ny, seed, max(wl.producers, 1), wl.analysed[:3])
        clean = run.check(wl, rdir, refs, code)
        expect(code == 0 and clean.failed == 0 and not clean.errors and clean.attempted > 0,
               f"{wl.name}: clean outputs pass ({clean.attempted} operations, {clean.errors[:3]})")
        for name, corrupt in corruptions(wl).items():
            trial = OUT / "trial"
            shutil.rmtree(trial, ignore_errors=True)
            shutil.copytree(rdir, trial)
            corrupt(trial / "sinks", trial / "out")
            v = run.check(wl, trial, refs, code)
            missing = name.startswith("missing") or name.startswith("incomplete")
            expect(v.attempted == clean.attempted and v.failed > 0 and (missing or v.errors),
                   f"{wl.name}: {name} is rejected ({v.failed} failed; {v.errors[:1]})")
        v = run.check(wl, rdir, refs, 1)
        expect(v.attempted == clean.attempted and v.failed > 0,
               f"{wl.name}: a non-zero exit with every output in place is counted failed "
               f"({v.failed} failed)")

    # a sink that fails on every trigger: the program exits 0, the count sees it
    wl = dataclasses.replace(shapes(True)[0], sinks=("render",))
    wl = BogusRender(**dataclasses.asdict(wl))
    code, _ = run.launch(wl, seed, OUT / "bogus", False, 120)
    v = Verdict()
    check_sinks(OUT / "bogus" / "sinks", wl.sinks, wl.analysed, {}, run.IMAGE, v)
    expect(code == 0 and v.failed == v.attempted == len(wl.analysed),
           f"bogus render sink: exit {code}, {v.failed} of {v.attempted} invocations failed")

    shutil.rmtree(OUT, ignore_errors=True)
    print(f"selftest: {'FAILED ' + str(len(bad)) if bad else 'all'} cases"
          f"{'' if bad else ' hold'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
