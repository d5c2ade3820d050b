"""Benchmark harness: in situ runs, in transit producer/endpoint roles,
process orchestration, and the weak-scaling experiment.

The in situ run and every producer share one solver loop, `_drive`, which
hands snapshots to the bridge or to the transport; every role writes
its timings.csv, memory.csv and summary.csv through `_write_reports`.
Per-step phases recorded in timings.csv (step -1 rows carry each sink
kind's total, see `_write_reports`); the last two appear on due steps only:

    solve          one solver step
    snapshot_copy  copying solver buffers into a Snapshot
    sink           total time spent in due sinks (in situ runs)
    transport      shipping a due snapshot (producers): waiting for
                   the previous shipped step's ack, if it is not in yet,
                   then encoding and sending this one; at step 0 also
                   waiting for step 0's ack, the start-up rendezvous

A producer also writes one step -1 `ack_drain` row: the wait for its
last shipped step's ack after the solver loop.

The "Original" baseline configuration is an empty bridge config: the
loop and the measurement still run; no step is due, so no snapshot is
taken and no sink runs.

Every setting of a role arrives through its CLI flags; nothing is read
from the environment. The orchestrator reads the endpoint's address from
its endpoint.addr, waiting at most transport.STEP_TIMEOUT as for any peer,
and passes each producer that address and every SolverParams field.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from nekmini import bridge as bridge_mod
from nekmini import reporting, transport
from nekmini.reporting import MemoryRecord, TimingRecord
from nekmini.solver import SolverParams, init_state, snapshot_of, step


@dataclass(frozen=True)
class RunConfig:
    solver: SolverParams
    steps: int
    bridge_config_path: str | None
    output_dir: Path
    label: str
    producers: int = 4
    frequency: int = 100  # producer-side send cadence (in transit)
    endpoint_address: str | None = None
    producer_id: int = 0

    def __post_init__(self):
        if min(self.steps, self.frequency, self.producers) < 1:
            raise ValueError(f"steps, frequency and producers must be >= 1, got "
                             f"{self.steps}, {self.frequency} and {self.producers}")
        object.__setattr__(self, "output_dir", Path(self.output_dir))


def measure_memory_hwm() -> int:
    """Peak resident set size of the calling process, in bytes.

    On Linux this is VmHWM from /proc/self/status. getrusage's ru_maxrss
    is not used there: Linux carries it across execve, so a child process
    would report its parent's peak whenever that is the larger.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024  # reported in kB
    except OSError:
        pass  # no procfs (macOS): fall back to getrusage
    try:
        import resource
    except ImportError as e:
        raise RuntimeError(f"peak RSS measurement unsupported on this platform: {e}") from e
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if peak <= 0:
        raise RuntimeError("ru_maxrss unavailable on this platform")
    # Linux reports KiB, macOS reports bytes
    return peak if sys.platform == "darwin" else peak * 1024


def _drive(cfg: RunConfig, deliver, phase: str, due) -> list[TimingRecord]:
    """The solver loop of the in situ run and of a producer.

    Snapshots each step that `due(step)` accepts, the initial condition
    (step 0) included, and only those, and hands the snapshot to
    `deliver`; times each delivery as `phase`. Returns the per-step rows:
    solve for steps 1..N, then snapshot_copy and `phase` on due steps.
    """
    label, pid = cfg.label, cfg.producer_id
    rows: list[TimingRecord] = []
    state = init_state(cfg.solver)
    for n in range(cfg.steps + 1):
        if n:  # pass 0 looks at the initial condition
            t0 = time.perf_counter()
            state = step(state, cfg.solver)
            rows.append(TimingRecord(label, state.step, "solve", time.perf_counter() - t0))
        if due(state.step):
            t0 = time.perf_counter()
            snap = snapshot_of(state, producer_id=pid)
            t1 = time.perf_counter()
            deliver(snap)
            t2 = time.perf_counter()
            del snap  # not held across the next solver step, which reuses its memory
            rows.append(TimingRecord(label, state.step, "snapshot_copy", t1 - t0))
            rows.append(TimingRecord(label, state.step, phase, t2 - t1))
    return rows


def _write_reports(out: Path, label: str, role: str, steps: list[TimingRecord],
                   sinks: list[bridge_mod.SinkSummary], phase_bytes: dict[str, int]):
    """Write one role's timings.csv, memory.csv and summary.csv.

    timings.csv holds the per-step rows plus step -1 rows: one per sink
    kind, carrying the seconds of every sink of that kind summed, and a
    0 s row for each phase in `phase_bytes` that no step timed, so that
    its bytes appear. summary.csv aggregates those rows; its total_bytes
    come from the sinks and from `phase_bytes`.
    """
    seconds: dict[str, float] = {}
    nbytes: dict[str, int] = {}
    for s in sinks:
        key = f"sink:{s.kind}"
        seconds[key] = seconds.get(key, 0.0) + s.seconds
        nbytes[key] = nbytes.get(key, 0) + s.bytes_written
    timed = {r.phase for r in steps}
    for key, n in phase_bytes.items():
        nbytes[key] = n
        if key not in timed:
            seconds[key] = 0.0
    rows = steps + [TimingRecord(label, -1, key, s) for key, s in seconds.items()]
    reporting.write_timings(out / "timings.csv", rows)
    reporting.write_memory(out / "memory.csv", [MemoryRecord(label, role, measure_memory_hwm())])
    agg = reporting.aggregate(rows, {(label, key): n for key, n in nbytes.items()})
    reporting.write_summary(out / "summary.csv", agg)


def run_insitu(cfg: RunConfig) -> Path:
    """Solver and sinks in one process; writes the report CSVs.

    Returns the output directory. Every step records a solve; a step the
    bridge says is due also records a snapshot_copy and a sink phase, and
    the other steps take no snapshot.
    """
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    br = bridge_mod.initialize(bridge_mod.load_config(cfg.bridge_config_path))
    rows = _drive(cfg, br.update, "sink", br.due)
    _write_reports(out, cfg.label, "insitu", rows, br.finalize(), {})
    return out


def run_producer(cfg: RunConfig) -> Path:
    """In transit producer: independent solver instance streaming
    triggered snapshots to the endpoint.

    Each send returns before its step's ack, so the solver runs while the
    endpoint analyses; the last ack is drained after the loop. Step 0 is
    the exception: its ack is the start-up rendezvous, which comes only
    once every producer has launched and joined, so step 0's transport
    waits for it and start-up skew stays out of steps >= 1. An abandoned
    step raises ProtocolError naming it, at the next send or at a drain.
    """
    if not cfg.endpoint_address:
        raise ValueError("no endpoint address")
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    conn = transport.ProducerConnection(cfg.endpoint_address, cfg.producer_id)

    def ship(snap):
        conn.send_step(snap)
        if snap.step == 0:
            conn.drain()

    try:
        rows = _drive(cfg, ship, "transport", lambda n: n % cfg.frequency == 0)
        t0 = time.perf_counter()
        conn.drain()
        rows.append(TimingRecord(cfg.label, -1, "ack_drain", time.perf_counter() - t0))
    finally:
        conn.close()
    _write_reports(out, cfg.label, f"producer{cfg.producer_id}", rows, [],
                   {"transport": conn.bytes_sent})
    return out


def run_endpoint(output_dir: str | Path, bridge_config_path: str | None, label: str,
                 producers: int, listen: str = "127.0.0.1:0") -> Path:
    """In transit endpoint: runs the configured bridge behind the staging
    transport. Publishes the bound host:port as endpoint.addr in
    output_dir once listening."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    br = bridge_mod.initialize(bridge_mod.load_config(bridge_config_path))
    ep = transport.Endpoint(listen, producers, br)
    tmp = out / "endpoint.addr.tmp"
    tmp.write_text(ep.address)
    tmp.rename(out / "endpoint.addr")  # atomic publish
    summary = ep.serve()
    _write_reports(out, label, "endpoint", [], br.finalize(),
                   {"endpoint:received": summary.bytes_received})
    counts = asdict(summary)
    errors = counts.pop("errors")
    lines = [f"{name}={value}" for name, value in counts.items()] + [f"error={e}" for e in errors]
    (out / "endpoint_summary.txt").write_text("\n".join(lines) + "\n")
    return out


def _wait_for_file(path: Path, proc: subprocess.Popen) -> str:
    deadline = time.monotonic() + transport.STEP_TIMEOUT
    while time.monotonic() < deadline:
        if path.exists():
            return path.read_text().strip()
        if proc.poll() is not None:
            raise RuntimeError(f"endpoint exited with {proc.returncode} before listening")
        time.sleep(0.05)
    raise TimeoutError(f"endpoint never published its address to {path}")


def run_intransit(cfg: RunConfig) -> Path:
    """Orchestrated in transit run: spawns 1 endpoint + P producer
    processes, waits for them, merges the reports."""
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    address_file = out / "endpoint" / "endpoint.addr"
    address_file.unlink(missing_ok=True)  # a previous run's, naming a dead endpoint

    base_cmd = [sys.executable, "-m", "nekmini"]
    ep_cmd = base_cmd + [
        "endpoint",
        "--out", str(address_file.parent),
        "--producers", str(cfg.producers),
        "--label", cfg.label,
    ]
    if cfg.bridge_config_path:
        ep_cmd += ["--config", str(cfg.bridge_config_path)]
    ep_proc = subprocess.Popen(ep_cmd)
    try:
        address = _wait_for_file(address_file, ep_proc)
        producer_procs = []
        for pid in range(cfg.producers):
            solver = replace(cfg.solver, seed=cfg.solver.seed + pid)
            cmd = base_cmd + [
                "producer",
                "--endpoint", address,
                "--id", str(pid),
                "--steps", str(cfg.steps),
                "--frequency", str(cfg.frequency),
                "--out", str(out / f"producer_{pid}"),
                "--label", cfg.label,
            ]
            for f in fields(solver):
                cmd += [f"--{f.name}", str(getattr(solver, f.name))]
            producer_procs.append(subprocess.Popen(cmd))
        failures = []
        for pid, proc in enumerate(producer_procs):
            if proc.wait() != 0:
                failures.append(f"producer {pid} exited with {proc.returncode}")
        try:
            if len(failures) == len(producer_procs):
                code = ep_proc.poll()  # no producer can reach it: the finally kills it
            else:
                code = ep_proc.wait(timeout=transport.STEP_TIMEOUT)
            if code:
                failures.append(f"endpoint exited with {code}")
        except subprocess.TimeoutExpired:
            failures.append(f"endpoint did not exit within {transport.STEP_TIMEOUT:g} s")
        if failures:
            raise RuntimeError("; ".join(failures))
    finally:
        if ep_proc.poll() is None:
            ep_proc.kill()
            ep_proc.wait()

    reporting.report(out, out)
    return out


def weak_scaling(base: RunConfig, producer_counts: list[int]) -> Path:
    """Run the orchestrated in transit benchmark for each producer count
    with a fixed per-producer problem size; emit scaling.csv + chart."""
    out = base.output_dir
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for p in producer_counts:
        run_dir = out / f"p{p}"
        cfg = replace(base, output_dir=run_dir, producers=p, label=f"{base.label}-p{p}")
        run_intransit(cfg)
        per_step, rss = _producer_step_times(run_dir, p)
        mean, sd = reporting.mean_std(per_step)
        rows.append((p, mean, sd, int(sum(rss) / len(rss))))

    reporting.write_scaling(out / "scaling.csv", rows)
    chart = reporting.line_chart_svg(
        [(p, mean) for p, mean, _, _ in rows],
        "weak scaling: mean producer time per step",
        "producers", "seconds/step",
    )
    (out / "scaling.svg").write_text(chart)
    return out


def _producer_step_times(run_dir: Path, producers: int) -> tuple[list[float], list[int]]:
    """Per-producer mean wall time per step: all phases of steps 1..N
    summed, divided by N.

    Step 0 is excluded. Its transport phase is the start-up rendezvous,
    which waits for the slowest peer to launch its interpreter, so it
    measures process start-up skew, not the time of a step.
    """
    per_step = []
    rss = []
    for pid in range(producers):
        pdir = run_dir / f"producer_{pid}"
        recs = reporting.read_timings(pdir / "timings.csv")
        steps = max(r.step for r in recs)
        per_step.append(sum(r.seconds for r in recs if r.step >= 1) / max(steps, 1))
        rss.extend(m.peak_rss_bytes for m in reporting.read_memory(pdir / "memory.csv"))
    return per_step, rss
