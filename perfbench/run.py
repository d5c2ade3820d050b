"""The nekmini benchmark: three workloads through the CLI, checked outputs.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from its
``src/``. A run repeats rounds of one workload for about ``--seconds``.
Each round is a fresh process tree (``nekmini run`` or ``nekmini bench``)
with at least 100 analysed steps; its sink outputs are checked and then
removed. With ``--trace 0`` the last line of output is a JSON object with
the end-to-end metrics; with ``--trace 1`` rounds alternate between traced
and untraced, and it holds the per-layer metrics and the tracing overhead.
Without ``--workload`` and ``--trace`` every workload is run untraced and
then traced. See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HOOK = HERE / "hook"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HOOK))
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import layers  # noqa: E402
from perfbench_probe import PROBE_ENV, SPAWN_ENV, TRACE_ENV  # noqa: E402

RUN_DEADLINE_S = 165.0  # a run must end within 180 s, whatever --seconds says
IMAGE = (256, 256)


@dataclass(frozen=True)
class Workload:
    name: str
    producers: int  # 0: in situ
    nx: int
    ny: int
    steps: int
    frequency: int  # the producers' cadence and every analysis's frequency
    sinks: tuple[str, ...]

    @property
    def analysed(self) -> list[int]:
        return list(range(0, self.steps + 1, self.frequency))

    def config(self, sinks_dir: Path) -> str:
        xml = {
            "checkpoint-binary": f'type="checkpoint" format="binary" dir="{sinks_dir}/ckpt_binary"',
            "checkpoint-ascii": f'type="checkpoint" format="ascii" dir="{sinks_dir}/ckpt_ascii"',
            "render": f'type="render" width="{IMAGE[0]}" height="{IMAGE[1]}" dir="{sinks_dir}/img"',
            "stats": f'type="stats" path="{sinks_dir}/stats.csv"',
        }
        lines = [f'  <analysis {xml[s]} frequency="{self.frequency}"/>' for s in self.sinks]
        return "<sensei>\n" + "\n".join(lines) + "\n</sensei>\n"

    def command(self, out: Path, config: Path, seed: int) -> list[str]:
        grid = ["--nx", str(self.nx), "--ny", str(self.ny), "--steps", str(self.steps),
                "--seed", str(seed), "--config", str(config), "--out", str(out),
                "--label", self.name]
        if not self.producers:
            return [sys.executable, "-m", "nekmini", "run", *grid]
        return [sys.executable, "-m", "nekmini", "bench", *grid,
                "--producers", str(self.producers), "--frequency", str(self.frequency)]


WORKLOADS = {w.name: w for w in (
    Workload("insitu-sinks", 0, 64, 64, 1000, 10,
             ("checkpoint-binary", "checkpoint-ascii", "render", "stats")),
    Workload("intransit-bulk", 1, 512, 512, 100, 1, ("stats",)),
    Workload("intransit-fanin", 2, 128, 128, 1000, 10,
             ("render", "checkpoint-binary", "stats")),
)}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_metrics(trace: bool) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares for this kind of run."""
    return {m["name"]: m["unit"] for m in spec()["per_layer" if trace else "end_to_end"]}


@dataclass
class Round:
    traced: bool
    verdict: checks.Verdict
    setup_s: float | None = None
    step_ms: float | None = None
    stalls_ms: list[float] = field(default_factory=list)
    rss_MB: float | None = None
    role_rss_MB: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)


def read_timings(path: Path) -> dict[int, dict[str, float]]:
    from nekmini.reporting import read_timings as read

    steps: dict[int, dict[str, float]] = {}
    for r in read(path):
        steps.setdefault(r.step, {})[r.phase] = r.seconds
    return steps


def step_and_stalls(steps: dict, n: int, frequency: int, stall_phase: str) -> tuple[float, list]:
    """Mean step time over steps >= 1, and the stall of each analysed step >= 1."""
    total = sum(s for k, phases in steps.items() if k >= 1 for s in phases.values())
    stalls = [1e3 * (steps[k]["snapshot_copy"] + steps[k][stall_phase])
              for k in range(frequency, n + 1, frequency)]
    return 1e3 * total / n, stalls


def stop_group(proc: subprocess.Popen):
    """Kill what is left of a round's process group and wait until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(200):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def launch(wl: Workload, seed: int, rdir: Path, traced: bool,
           timeout: float) -> tuple[int | None, float]:
    """One round's process tree, from a clean `rdir`; returns (exit code, launch time).

    The exit code is None when the round ran past `timeout` and was killed.
    """
    shutil.rmtree(rdir, ignore_errors=True)
    for d in ("out", "probe", "sinks"):
        (rdir / d).mkdir(parents=True)
    config = rdir / "analysis.xml"
    config.write_text(wl.config(rdir / "sinks"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(HOOK), str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    env[PROBE_ENV], env[TRACE_ENV] = str(rdir / "probe"), "1" if traced else "0"
    with open(rdir / "log.txt", "w") as log:
        t = time.monotonic()
        env[SPAWN_ENV] = repr(t)
        proc = subprocess.Popen(wl.command(rdir / "out", config, seed), cwd=rdir, env=env,
                                stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            stop_group(proc)
    return code, t


def check(wl: Workload, rdir: Path, refs: dict, code: int | None) -> checks.Verdict:
    """Every operation of a round's schedule, counted and checked.

    The round's process exit is one operation too: it fails on a non-zero
    exit or a kill, even when every output is in place.
    """
    v = checks.Verdict()
    v.op([], missing=code != 0)
    checks.check_sinks(rdir / "sinks", wl.sinks, wl.analysed, refs, IMAGE, v)
    if wl.producers:
        checks.check_endpoint(rdir / "out" / "endpoint" / "endpoint_summary.txt",
                              len(wl.analysed), code == 0, v)
    return v


def run_round(wl: Workload, seed: int, rdir: Path, traced: bool, refs: dict,
              timeout: float) -> Round:
    code, launched = launch(wl, seed, rdir, traced, timeout)
    v = check(wl, rdir, refs, code)
    shutil.rmtree(rdir / "sinks")
    out, probe = rdir / "out", rdir / "probe"
    r = Round(traced, v)
    if code != 0:
        return r

    records = [json.loads(p.read_text()) for p in probe.glob("*.json")]
    solvers = [rec for rec in records if layers.role_of(rec) in ("insitu", "producer")]
    r.setup_s = max(rec["first_step_t"] for rec in solvers) - launched
    r.rss_MB = sum(rec["peak_rss_bytes"] for rec in records) / 1e6
    from nekmini.reporting import read_memory

    if wl.producers:
        per_producer = [step_and_stalls(read_timings(out / f"producer_{p}" / "timings.csv"),
                                        wl.steps, wl.frequency, "transport")
                        for p in range(wl.producers)]
        r.step_ms = statistics.fmean(s for s, _ in per_producer)
        r.stalls_ms = [x for _, stalls in per_producer for x in stalls]
        producer_rss = [m.peak_rss_bytes for p in range(wl.producers)
                        for m in read_memory(out / f"producer_{p}" / "memory.csv")]
        r.role_rss_MB = {"producer": statistics.fmean(producer_rss) / 1e6,
                         "endpoint": read_memory(out / "endpoint" / "memory.csv")[0].peak_rss_bytes / 1e6}
    else:
        r.step_ms, r.stalls_ms = step_and_stalls(read_timings(out / "timings.csv"),
                                                 wl.steps, wl.frequency, "sink")
        r.role_rss_MB = {"insitu": read_memory(out / "memory.csv")[0].peak_rss_bytes / 1e6}
    if traced:
        r.layers = layers.per_layer(records)
    return r


def measure(wl: Workload, seed: int, seconds: int, trace: bool) -> tuple[dict, int]:
    """Rounds of one workload for about `seconds`: (result object, rounds run).

    The last round's CSVs, probe records and log stay in .perfbench_out.
    """
    start = time.monotonic()
    refs = checks.replay(wl.nx, wl.ny, seed, max(wl.producers, 1), wl.analysed[:3])
    rounds: list[Round] = []
    while True:
        t0 = time.monotonic()
        remaining = start + RUN_DEADLINE_S - t0
        rounds.append(run_round(wl, seed, OUT / wl.name, trace and len(rounds) % 2 == 0, refs,
                                remaining))
        r = rounds[-1]
        last = time.monotonic() - t0
        print(f"# round {len(rounds)} traced={int(r.traced)} wall_s={last:.2f} setup_s={r.setup_s} "
              f"step_ms={r.step_ms} rss_MB={r.rss_MB} failed={r.verdict.failed}", file=sys.stderr)
        end = time.monotonic() - start + last
        if end > RUN_DEADLINE_S or (end > seconds and len(rounds) >= (2 if trace else 1)):
            break

    done = [r for r in rounds if r.step_ms is not None]
    plain = [r for r in done if not r.traced]
    traced = [r for r in done if r.traced]
    if not plain or (trace and not traced):
        raise RuntimeError(f"{wl.name}: no round completed; see {OUT / wl.name / 'log.txt'}")
    if trace:
        names = list(traced[0].layers)
        metrics = {n: statistics.median(r.layers[n] for r in traced) for n in names}
        for role in ("insitu", "producer", "endpoint"):
            metrics[f"{role}.rss_MB"] = statistics.median(r.role_rss_MB.get(role, 0.0) for r in plain)
        metrics["trace.overhead_ms"] = (statistics.median(r.step_ms for r in traced)
                                        - statistics.median(r.step_ms for r in plain))
    else:
        stalls = sorted(x for r in plain for x in r.stalls_ms)
        metrics = {
            "setup_s": statistics.median(r.setup_s for r in plain),
            "step_ms": statistics.median(r.step_ms for r in plain),
            "stall_ms": statistics.median(stalls),
            "stall_ms_p90": statistics.quantiles(stalls, n=10, method="inclusive")[-1],
            "rss_peak_MB": statistics.median(r.rss_MB for r in plain),
        }
    units = declared_metrics(trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    errors = [e for r in rounds for e in r.verdict.errors]
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": sum(r.verdict.attempted for r in rounds),
        "failed": sum(r.verdict.failed for r in rounds),
        "metrics": {n: {"value": metrics[n], "unit": unit} for n, unit in units.items()},
    }, len(rounds)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload")
    ap.add_argument("--seed", type=int, default=1, help="solver seed; producer p uses seed + p")
    ap.add_argument("--seconds", type=int, help="about how long a run measures; "
                    "default: BENCHMARK.json's run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="1: per-layer metrics from traced rounds; default: 0 then 1")
    args = ap.parse_args(argv)
    if not (SRC / "nekmini" / "__init__.py").is_file():
        print(f"no nekmini source under {SRC}: run from a source checkout", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    traces = [bool(args.trace)] if args.trace is not None else [False, True]
    for trace in traces:
        for name in names:
            result, rounds = measure(WORKLOADS[name], args.seed, seconds, trace)
            print(f"# {name} seed={args.seed} trace={int(trace)} rounds={rounds} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"correct={result['correct']}")
            for n, m in result["metrics"].items():
                print(f"#   {n:32s} {m['value']:14.6g} {m['unit']}")
            print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
