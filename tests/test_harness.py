"""Tests for the benchmark harness: in situ runs, the in transit roles,
and the process orchestration."""

import csv
import subprocess
import sys
import threading
import time
from dataclasses import fields, replace
from pathlib import Path

import pytest

from nekmini import cli, harness, reporting, transport
from nekmini.harness import (
    RunConfig,
    _producer_step_times,
    measure_memory_hwm,
    run_endpoint,
    run_insitu,
    run_intransit,
    run_producer,
)
from nekmini.solver import SolverParams


def small_solver(**kw):
    defaults = dict(nx=16, ny=16, rayleigh=1e4, prandtl=0.7, seed=0)
    defaults.update(kw)
    return SolverParams(**defaults)


class FakeProcess:
    """A Popen stand-in: the endpoint publishes an address and exits only
    when killed (or has exited with `endpoint_exit`), and every producer
    whose id is not in `succeeding` exits with 1. Each wait records its
    timeout."""

    succeeding: set[int] = set()
    endpoint_exit: int | None = None

    def __init__(self, cmd):
        self.cmd = cmd
        self.role = cmd[3]  # python -m nekmini <role> ...
        self.returncode = self.endpoint_exit if self.role == "endpoint" else None
        self.killed = False
        self.waits = []
        if self.role == "endpoint":
            out = Path(cmd[cmd.index("--out") + 1])
            out.mkdir(parents=True, exist_ok=True)
            (out / "endpoint.addr").write_text("127.0.0.1:9")

    def poll(self):
        return self.returncode

    def wait(self, timeout=None):
        self.waits.append(timeout)
        if self.role == "endpoint":
            if self.returncode is None:
                raise subprocess.TimeoutExpired("endpoint", timeout)
            return self.returncode
        self.returncode = 0 if int(self.cmd[self.cmd.index("--id") + 1]) in self.succeeding else 1
        return self.returncode

    def kill(self):
        self.killed = True
        self.returncode = -9


@pytest.fixture
def fake_popen(monkeypatch):
    """The orchestrator's processes, in launch order, none of them real."""
    launched = []

    def popen(cmd):
        launched.append(FakeProcess(cmd))
        return launched[-1]

    monkeypatch.setattr(harness.subprocess, "Popen", popen)
    return launched


def insitu_config(tmp_path, steps=5, config=None, label="run"):
    return RunConfig(
        solver=small_solver(),
        steps=steps,
        bridge_config_path=config,
        output_dir=tmp_path / "out",
        label=label,
    )


def write_config(tmp_path, body):
    p = tmp_path / "analysis.xml"
    p.write_text(f"<sensei>{body}</sensei>\n")
    return str(p)


def test_measure_memory_hwm_is_plausible():
    rss = measure_memory_hwm()
    # a running python interpreter with numpy loaded: between 10 MB and 100 GB
    assert 10 * 2**20 < rss < 100 * 2**30


def test_measure_memory_hwm_excludes_parent_peak():
    # a parent that peaked 200 MiB above its steady state spawns a child;
    # the child's peak is its own, not the parent's
    script = (
        "import subprocess, sys\n"
        "import numpy as np\n"
        "from nekmini.harness import measure_memory_hwm\n"
        "a = np.ones(200 * 2**20 // 8)\n"
        "del a\n"
        "child = subprocess.run([sys.executable, '-c', 'from nekmini.harness import "
        "measure_memory_hwm; print(measure_memory_hwm())'], capture_output=True, "
        "text=True, check=True)\n"
        "print(measure_memory_hwm(), child.stdout.strip())\n"
    )
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    parent, child = (int(x) for x in r.stdout.split())
    assert child < parent - 150 * 2**20


def test_run_config_validation(tmp_path):
    with pytest.raises(ValueError, match="steps"):
        RunConfig(small_solver(), 0, None, tmp_path, "x")


@pytest.mark.parametrize("bad", [{"frequency": 0}, {"frequency": -2}, {"producers": 0},
                                 {"producers": -1}])
def test_run_config_rejects_impossible_counts(tmp_path, bad):
    # caught when the config is built, not by a producer dying mid-run
    with pytest.raises(ValueError, match="steps, frequency and producers must be >= 1"):
        RunConfig(small_solver(), 4, None, tmp_path, "x", **bad)


def test_producer_step_times_exclude_start_up_rendezvous(tmp_path):
    # step 0 is the start-up rendezvous: a 1 s transport row that must not
    # count towards the per-step mean of steps 1..N
    for pid in range(2):
        pdir = tmp_path / f"producer_{pid}"
        pdir.mkdir()
        recs = [reporting.TimingRecord("w", 0, "snapshot_copy", 0.125),
                reporting.TimingRecord("w", 0, "transport", 1.0)]
        for s in range(1, 5):
            recs.append(reporting.TimingRecord("w", s, "solve", 0.25 * (pid + 1)))
            if s % 2 == 0:
                recs.append(reporting.TimingRecord("w", s, "snapshot_copy", 0.125))
                recs.append(reporting.TimingRecord("w", s, "transport", 0.5))
        reporting.write_timings(pdir / "timings.csv", recs)
        reporting.write_memory(pdir / "memory.csv",
                               [reporting.MemoryRecord("w", f"producer{pid}", 1000 * (pid + 1))])

    per_step, rss = _producer_step_times(tmp_path, 2)
    # steps 1..4: four solve rows plus two shipped steps of 0.625 s each
    assert per_step == pytest.approx([(4 * 0.25 + 2 * 0.625) / 4, (4 * 0.5 + 2 * 0.625) / 4])
    assert rss == [1000, 2000]


class TestInsitu:
    def test_phase_rows_complete(self, tmp_path):
        cfg_path = write_config(tmp_path, '<analysis type="null" frequency="3"/>')
        out = run_insitu(insitu_config(tmp_path, steps=7, config=cfg_path))
        recs = reporting.read_timings(out / "timings.csv")
        # step 0: snapshot_copy + sink; due steps 3, 6: solve + snapshot_copy
        # + sink; every other step: solve alone; step -1: the sink's total
        by_step = {}
        for r in recs:
            by_step.setdefault(r.step, set()).add(r.phase)
        assert by_step == {
            -1: {"sink:null"},
            0: {"snapshot_copy", "sink"},
            **{s: {"solve", "snapshot_copy", "sink"} if s % 3 == 0 else {"solve"}
               for s in range(1, 8)},
        }
        assert len(recs) == len({(r.step, r.phase) for r in recs})  # one row each
        assert all(r.seconds >= 0 for r in recs)
        assert all(r.label == "run" for r in recs)

    def test_snapshots_exactly_the_union_of_the_specs_steps(self, tmp_path):
        cfg_path = write_config(tmp_path, '<analysis type="null" frequency="3"/>'
                                          '<analysis type="null" frequency="5"/>')
        out = run_insitu(insitu_config(tmp_path, steps=15, config=cfg_path))
        recs = reporting.read_timings(out / "timings.csv")
        due = [0, 3, 5, 6, 9, 10, 12, 15]
        assert [r.step for r in recs if r.phase == "snapshot_copy"] == due
        assert [r.step for r in recs if r.phase == "sink"] == due
        assert [r.step for r in recs if r.phase == "solve"] == list(range(1, 16))

    def test_empty_config_takes_no_snapshot(self, tmp_path, monkeypatch):
        steps = []
        real = harness.snapshot_of

        def counted(state, **kwargs):
            steps.append(state.step)
            return real(state, **kwargs)

        monkeypatch.setattr(harness, "snapshot_of", counted)
        out = run_insitu(insitu_config(tmp_path, steps=5))
        assert steps == []
        recs = reporting.read_timings(out / "timings.csv")
        assert {(r.step, r.phase) for r in recs} == {(s, "solve") for s in range(1, 6)}
        # the count sees the loop's calls: one sink at frequency 2 takes three
        cfg_path = write_config(tmp_path, '<analysis type="null" frequency="2"/>')
        run_insitu(insitu_config(tmp_path, steps=5, config=cfg_path))
        assert steps == [0, 2, 4]

    def test_memory_csv_row(self, tmp_path):
        out = run_insitu(insitu_config(tmp_path, steps=2))
        mem = reporting.read_memory(out / "memory.csv")
        assert len(mem) == 1
        assert mem[0].role == "insitu"
        assert mem[0].peak_rss_bytes > 10 * 2**20

    def test_summary_bytes_match_files_on_disk(self, tmp_path):
        ck = tmp_path / "ck"
        cfg_path = write_config(
            tmp_path, f'<analysis type="checkpoint" frequency="2" dir="{ck}"/>'
        )
        out = run_insitu(insitu_config(tmp_path, steps=4, config=cfg_path))
        written = sum(p.stat().st_size for p in ck.glob("*.vtk"))
        summary = reporting.read_summary(out / "summary.csv")
        assert summary[("run", "sink:checkpoint")][2] == written
        # triggers at steps 0, 2, 4
        assert len(list(ck.glob("*.vtk"))) == 3
        # the report command rewrites the run's summary without losing a row
        reporting.report(out, out)
        rerun = reporting.read_summary(out / "summary.csv")
        assert {k: v[2] for k, v in rerun.items()} == {k: v[2] for k, v in summary.items()}

    def test_summary_sums_every_sink_of_one_kind(self, tmp_path):
        # two checkpoint sinks share the sink:checkpoint row: its bytes are
        # both directories' files, not the last sink's alone
        body = "".join(
            f'<analysis type="checkpoint" frequency="10" format="{fmt}" dir="{tmp_path / fmt}"/>'
            for fmt in ("binary", "ascii")
        )
        out = run_insitu(insitu_config(tmp_path, steps=30, config=write_config(tmp_path, body)))
        files = [p for fmt in ("binary", "ascii") for p in (tmp_path / fmt).glob("*.vtk")]
        assert len(files) == 8  # steps 0, 10, 20, 30 in each format
        summary = reporting.read_summary(out / "summary.csv")
        assert summary[("run", "sink:checkpoint")][2] == sum(p.stat().st_size for p in files)

    def test_empty_config_baseline_writes_nothing_extra(self, tmp_path):
        out = run_insitu(insitu_config(tmp_path, steps=3, label="Original"))
        names = sorted(p.name for p in out.iterdir())
        assert names == ["memory.csv", "summary.csv", "timings.csv"]
        summary = reporting.read_summary(out / "summary.csv")
        assert all(nbytes == 0 for _, _, nbytes in summary.values())


class TestIntransitRoles:
    def test_producer_requires_address(self, tmp_path):
        cfg = RunConfig(small_solver(), 2, None, tmp_path / "p", "x")
        with pytest.raises(ValueError, match="endpoint address"):
            run_producer(cfg)

    def test_endpoint_plus_producer_in_threads(self, tmp_path, monkeypatch):
        monkeypatch.setattr(transport, "STEP_TIMEOUT", 30.0)
        stats = tmp_path / "stats.csv"
        cfg_path = write_config(tmp_path, f'<analysis type="stats" frequency="1" path="{stats}"/>')
        address_file = tmp_path / "ep" / "endpoint.addr"
        result = {}

        def serve():
            result["out"] = run_endpoint(tmp_path / "ep", cfg_path, "t", 1, "127.0.0.1:0")

        t = threading.Thread(target=serve, daemon=True)
        t.start()
        deadline = 30.0
        t0 = time.monotonic()
        while not address_file.exists():
            assert time.monotonic() - t0 < deadline
            time.sleep(0.02)
        address = address_file.read_text().strip()

        prod_cfg = RunConfig(small_solver(), 4, None, tmp_path / "p0", "t", frequency=2,
                             endpoint_address=address, producer_id=0)
        before = set(threading.enumerate())
        p_out = run_producer(prod_cfg)
        assert set(threading.enumerate()) <= before  # its transport's worker is gone
        t.join(timeout=30)
        assert not t.is_alive()

        # producer wrote solve rows for every step, transport rows on cadence
        recs = reporting.read_timings(p_out / "timings.csv")
        transport_steps = sorted(r.step for r in recs if r.phase == "transport")
        assert transport_steps == [0, 2, 4]
        assert sorted(r.step for r in recs if r.phase == "snapshot_copy") == [0, 2, 4]
        assert sorted(r.step for r in recs if r.phase == "solve") == [1, 2, 3, 4]
        # and three run-total rows: the wait for the last step's ack, and
        # the transport worker's time sending and reading acks
        totals = ("ack_drain", "send", "ack_wait")
        assert [(r.step, r.phase) for r in recs if r.phase in totals] == [(-1, p) for p in totals]
        assert {r.phase for r in recs} == {"solve", "snapshot_copy", "transport", *totals}

        # endpoint ran the stats sink once per delivered step
        lines = stats.read_text().strip().split("\n")
        assert len(lines) == 1 + 3 * 3  # header + 3 steps x 3 fields

        # byte accounting agrees across the two roles
        p_summary = reporting.read_summary(p_out / "summary.csv")
        e_summary = reporting.read_summary(result["out"] / "summary.csv")
        sent = p_summary[("t", "transport")][2]
        assert sent == e_summary[("t", "endpoint:received")][2]
        # the whole endpoint summary, key order included
        assert (result["out"] / "endpoint_summary.txt").read_text().splitlines() == [
            "steps_completed=3",
            "incomplete_steps=0",
            f"bytes_received={sent}",
            "producers_seen=1",
            "rejected_connections=0",
        ]

    def test_endpoint_summary_lists_every_count_then_every_error(self, tmp_path, monkeypatch):
        summary = transport.EndpointSummary(steps_completed=4, incomplete_steps=2,
                                            bytes_received=1234, producers_seen=2,
                                            rejected_connections=1,
                                            errors=["step 5: boom", "step 6: bang"])

        class Served:
            address = "127.0.0.1:9"

            def __init__(self, listen, producers, bridge):
                pass

            def serve(self):
                return summary

        monkeypatch.setattr(transport, "Endpoint", Served)
        out = run_endpoint(tmp_path / "ep", None, "t", 2)
        assert (out / "endpoint_summary.txt").read_text() == (
            "steps_completed=4\n"
            "incomplete_steps=2\n"
            "bytes_received=1234\n"
            "producers_seen=2\n"
            "rejected_connections=1\n"
            "error=step 5: boom\n"
            "error=step 6: bang\n"
        )

    def test_abandoned_last_step_fails_the_producer(self, tmp_path, monkeypatch):
        # the producer ships steps 0, 2 and 4; the endpoint's analysis
        # fails on step 4, whose error ack arrives only at the drain
        monkeypatch.setattr(transport, "STEP_TIMEOUT", 30.0)

        class FailOn4:
            def update(self, s):
                if s.step == 4:
                    raise RuntimeError("injected analysis failure")

        ep = transport.Endpoint("127.0.0.1:0", 1, FailOn4())
        t = threading.Thread(target=ep.serve, daemon=True)
        t.start()
        cfg = RunConfig(small_solver(), 4, None, tmp_path / "p0", "t", frequency=2,
                        endpoint_address=ep.address, producer_id=0)
        before = set(threading.enumerate())
        with pytest.raises(transport.ProtocolError, match=r"^endpoint abandoned step 4$"):
            run_producer(cfg)
        assert set(threading.enumerate()) <= before
        t.join(timeout=30)
        assert not t.is_alive()
        assert (ep.summary.steps_completed, ep.summary.incomplete_steps) == (2, 1)
        assert ep.summary.errors[0] == "step 4: RuntimeError: injected analysis failure"

    def test_start_up_rendezvous_stays_in_step_0(self, tmp_path, monkeypatch):
        # producer 1 starts 0.5 s after producer 0; producer 0 waits for
        # it in step 0's transport, not in a later step's
        monkeypatch.setattr(transport, "STEP_TIMEOUT", 30.0)

        class NoSinks:
            def update(self, s):
                pass

        ep = transport.Endpoint("127.0.0.1:0", 2, NoSinks())
        serve = threading.Thread(target=ep.serve, daemon=True)
        serve.start()
        cfgs = [RunConfig(small_solver(seed=pid), 4, None, tmp_path / f"p{pid}", "t",
                          frequency=2, endpoint_address=ep.address, producer_id=pid)
                for pid in range(2)]
        late = threading.Timer(0.5, run_producer, args=(cfgs[1],))
        late.start()
        run_producer(cfgs[0])
        late.join(timeout=30)
        serve.join(timeout=30)
        assert not late.is_alive() and not serve.is_alive()
        assert ep.summary.steps_completed == 3
        recs = reporting.read_timings(tmp_path / "p0" / "timings.csv")
        shipped = {r.step: r.seconds for r in recs if r.phase == "transport"}
        assert shipped[0] >= 0.4
        assert max(shipped[2], shipped[4]) < 0.2

    def test_worker_time_is_a_run_total_off_the_solver_thread(self, tmp_path, monkeypatch):
        # the endpoint analyses each step for 50 ms and the solver takes
        # 60 ms a step: the worker waits about 50 ms for each ack, which
        # shows in the step -1 ack_wait row, while each step's transport
        # only hands the step over
        monkeypatch.setattr(transport, "STEP_TIMEOUT", 30.0)
        real_step = harness.step

        def slow_step(state, params):
            time.sleep(0.06)
            return real_step(state, params)

        class Slow:
            def update(self, s):
                time.sleep(0.05)

        monkeypatch.setattr(harness, "step", slow_step)
        ep = transport.Endpoint("127.0.0.1:0", 1, Slow())
        t = threading.Thread(target=ep.serve, daemon=True)
        t.start()
        steps = 8
        cfg = RunConfig(small_solver(), steps, None, tmp_path / "p0", "t", frequency=1,
                        endpoint_address=ep.address, producer_id=0)
        recs = reporting.read_timings(run_producer(cfg) / "timings.csv")
        t.join(timeout=30)
        assert not t.is_alive()
        assert ep.summary.steps_completed == steps + 1
        totals = {r.phase: r.seconds for r in recs if r.step == -1}
        assert totals["ack_wait"] >= 0.04 * steps
        assert 0 < totals["send"] < totals["ack_wait"]
        shipped = sorted(r.seconds for r in recs if r.phase == "transport" and r.step >= 1)
        assert len(shipped) == steps
        assert shipped[steps // 2] < 0.010


class TestOrchestration:
    def test_run_intransit_two_producers(self, tmp_path):
        ck = tmp_path / "ck"
        cfg_path = write_config(
            tmp_path, f'<analysis type="checkpoint" frequency="2" dir="{ck}"/>'
        )
        cfg = RunConfig(small_solver(), 4, cfg_path, tmp_path / "out", "orc",
                        producers=2, frequency=2)
        out = run_intransit(cfg)
        # merged report
        assert (out / "summary.csv").exists()
        assert (out / "chart.svg").exists()
        # per-role artifacts
        for sub in ("endpoint", "producer_0", "producer_1"):
            assert (out / sub / "memory.csv").exists()
        text = (out / "endpoint" / "endpoint_summary.txt").read_text()
        assert "steps_completed=3" in text
        # checkpoint sink saw assembled steps 0, 2, 4 (frequency 2, one
        # global block per step)
        names = sorted(p.name for p in ck.glob("*.vtk"))
        assert names == [
            "step000000_blk000.vtk", "step000002_blk000.vtk", "step000004_blk000.vtk",
        ]
        # the merged summary keeps every role's rows, the endpoint's too
        merged = reporting.read_summary(out / "summary.csv")
        written = sum(p.stat().st_size for p in ck.glob("*.vtk"))
        assert merged[("orc", "sink:checkpoint")][2] == written
        sent = sum(reporting.read_summary(out / f"producer_{pid}" / "summary.csv")
                   [("orc", "transport")][2] for pid in (0, 1))
        assert merged[("orc", "transport")][2] == merged[("orc", "endpoint:received")][2] == sent
        # the endpoint's timings.csv holds its step -1 totals
        ep_rows = reporting.read_timings(out / "endpoint" / "timings.csv")
        assert sorted((r.step, r.phase) for r in ep_rows) == [
            (-1, "endpoint:received"), (-1, "sink:checkpoint")]

    def test_run_intransit_surfaces_producer_failure(self, tmp_path):
        # producers=3 launches pids 0..2 but the endpoint expects 3 and gets
        # them; instead break things by pointing the bridge at a bad config
        bad = tmp_path / "bad.xml"
        bad.write_text("<sensei><analysis type='warp-drive' frequency='1'/></sensei>")
        cfg = RunConfig(small_solver(), 2, str(bad), tmp_path / "out", "x",
                        producers=1, frequency=1)
        with pytest.raises(RuntimeError):
            run_intransit(cfg)

    def test_run_intransit_passes_dt_to_producers(self, tmp_path):
        stats = tmp_path / "stats.csv"
        cfg_path = write_config(tmp_path, f'<analysis type="stats" frequency="1" path="{stats}"/>')
        cfg = RunConfig(small_solver(dt=1e-6), 2, cfg_path, tmp_path / "out", "dt",
                        producers=1, frequency=1)
        run_intransit(cfg)
        with open(stats, newline="") as f:
            times = {int(r["step"]): float(r["time"]) for r in csv.DictReader(f)}
        assert times[1] == 1e-6

    def test_run_intransit_ignores_a_previous_runs_endpoint_address(self, tmp_path):
        # every run leaves endpoint.addr behind, naming an endpoint that has exited;
        # the next run into that --out reads its own endpoint's address
        stale = tmp_path / "out" / "endpoint" / "endpoint.addr"
        stale.parent.mkdir(parents=True)
        stale.write_text("127.0.0.1:1")
        cfg = RunConfig(small_solver(), 2, None, tmp_path / "out", "x", producers=1, frequency=1)
        out = run_intransit(cfg)
        assert "steps_completed=3" in (out / "endpoint" / "endpoint_summary.txt").read_text()
        assert stale.read_text() != "127.0.0.1:1"

    def test_run_intransit_names_failed_producer_when_endpoint_hangs(self, tmp_path,
                                                                   fake_popen):
        # every producer failed, so nothing can reach the endpoint: it is
        # killed at once, never given transport.STEP_TIMEOUT to exit
        cfg = RunConfig(small_solver(), 2, None, tmp_path / "out", "x", producers=2, frequency=1)
        with pytest.raises(RuntimeError) as e:
            run_intransit(cfg)
        assert str(e.value) == "producer 0 exited with 1; producer 1 exited with 1"
        assert [p.role for p in fake_popen if p.killed] == ["endpoint"]
        assert fake_popen[0].waits == [None]  # reaped after the kill, no timed wait

    def test_run_intransit_names_an_endpoint_that_failed_before_its_producers(
            self, tmp_path, fake_popen, monkeypatch):
        monkeypatch.setattr(FakeProcess, "endpoint_exit", 1)
        cfg = RunConfig(small_solver(), 2, None, tmp_path / "out", "x", producers=1, frequency=1)
        with pytest.raises(RuntimeError) as e:
            run_intransit(cfg)
        assert str(e.value) == "producer 0 exited with 1; endpoint exited with 1"
        assert not fake_popen[0].killed and fake_popen[0].waits == []

    def test_run_intransit_waits_for_the_endpoint_while_a_producer_succeeded(
            self, tmp_path, fake_popen, monkeypatch):
        # producer 0 finished, so the endpoint may still complete its steps:
        # it gets transport.STEP_TIMEOUT before it is named and killed
        monkeypatch.setattr(FakeProcess, "succeeding", {0})
        cfg = RunConfig(small_solver(), 2, None, tmp_path / "out", "x", producers=2, frequency=1)
        with pytest.raises(RuntimeError) as e:
            run_intransit(cfg)
        assert str(e.value) == "producer 1 exited with 1; endpoint did not exit within 120 s"
        assert [p.role for p in fake_popen if p.killed] == ["endpoint"]
        assert fake_popen[0].waits == [transport.STEP_TIMEOUT, None]

    def test_every_solver_setting_reaches_every_producer(self, tmp_path, fake_popen):
        # every field away from its default, so a field the orchestrator
        # drops (or a new field it does not forward) shows as a difference
        changed = {f.name: 1e-6 if f.default is None else
                   f.default * 2 if isinstance(f.default, float) else f.default + 3
                   for f in fields(SolverParams)}
        solver = SolverParams(**changed)
        assert all(getattr(solver, f.name) != f.default for f in fields(SolverParams))
        config = write_config(tmp_path, '<analysis type="null"/>')
        out = tmp_path / "out"
        # steps, frequency, label and producers away from the CLI's defaults
        # (3000, 100, "intransit" and 4) too
        cfg = RunConfig(solver, 17, config, out, "a b&c", producers=3, frequency=4)
        with pytest.raises(RuntimeError):
            run_intransit(cfg)
        endpoint, *producers = fake_popen
        assert endpoint.role == "endpoint" and len(producers) == 3
        args = cli.build_parser().parse_args(endpoint.cmd[3:])
        assert (args.producers, args.label, args.config, args.out) == (
            3, "a b&c", config, str(out / "endpoint"))
        for pid, p in enumerate(producers):
            assert p.role == "producer"
            args = cli.build_parser().parse_args(p.cmd[3:])
            run_cfg = cli._run_config(args, bridge_config_path=None, frequency=args.frequency,
                                      endpoint_address=args.endpoint, producer_id=args.id)
            expected = replace(cfg, solver=replace(solver, seed=solver.seed + pid),
                               output_dir=out / f"producer_{pid}",
                               endpoint_address="127.0.0.1:9", producer_id=pid)
            for f in fields(RunConfig):
                if f.name not in ("bridge_config_path", "producers"):  # the endpoint's
                    assert getattr(run_cfg, f.name) == getattr(expected, f.name), f.name
