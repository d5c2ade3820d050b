"""CLI surface tests (argument parsing plus the lightweight subcommands)."""

import platform
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from nekmini import cli, reporting
from nekmini.bridge import ConfigError, initialize, load_config
from nekmini.cli import _run_config, build_parser, main
from nekmini.reporting import TimingRecord
from nekmini.solver import SolverParams, init_state, snapshot_of


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_defaults():
    args = build_parser().parse_args(["run", "--out", "x"])
    assert (args.steps, args.label) == (3000, "insitu")
    assert args.config is None
    # SolverParams is the one declaration of the solver settings and their defaults
    for argv in (["run"], ["producer", "--endpoint", "h:1"], ["bench"], ["weak-scale"]):
        args = build_parser().parse_args(argv + ["--out", "x"])
        assert _run_config(args, bridge_config_path=None).solver == SolverParams(), argv


def test_readme_solver_flag_list_matches_the_solver_params_fields():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("\n## CLI\n")[1].split("\n## ")[0]
    flags = re.search(r"Solver flags: `([^`]*)`", section).group(1).split()
    assert flags == [f"--{f.name}" for f in fields(SolverParams)]


def test_producer_requires_endpoint(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["producer", "--out", "x"])
    assert "--endpoint" in capsys.readouterr().err
    args = build_parser().parse_args(["producer", "--out", "x", "--endpoint", "h:1"])
    assert args.endpoint == "h:1"


def test_weak_scale_producer_list():
    args = build_parser().parse_args(["weak-scale", "--out", "x", "--producers", "1,2,8"])
    assert args.producers == [1, 2, 8]
    assert build_parser().parse_args(["weak-scale", "--out", "x"]).producers == [1, 2, 4]


def test_validate_config_ok(tmp_path, capsys):
    p = tmp_path / "a.xml"
    p.write_text('<sensei><analysis type="null" frequency="10"/></sensei>')
    assert main(["validate-config", str(p)]) == 0
    out = capsys.readouterr().out
    assert "kind=null" in out and "ok: 1" in out


def test_validate_config_bad(tmp_path, capsys):
    p = tmp_path / "a.xml"
    p.write_text('<sensei><analysis type="fft" frequency="10"/></sensei>')
    assert main(["validate-config", str(p)]) == 1
    assert "invalid" in capsys.readouterr().err


def test_validate_config_missing_file(tmp_path, capsys):
    assert main(["validate-config", str(tmp_path / "nope.xml")]) == 1


def test_report_subcommand(tmp_path, capsys):
    reporting.write_timings(tmp_path / "timings.csv",
                            [TimingRecord("x", 1, "solve", 0.01)])
    assert main(["report", str(tmp_path)]) == 0
    assert (tmp_path / "summary.csv").exists()
    assert (tmp_path / "chart.svg").exists()


# A fresh CLI process (cli.main, here validate-config) renders one in situ
# render trigger, two 256x256 images of a 64x64 snapshot, 5 times to warm up
# and 20 times counted. With glibc's defaults each pair re-faults its
# temporaries: about 3,000 minor faults.
RENDER_FAULTS = """
import resource, sys
from nekmini.cli import main
from nekmini.sinks import render
from nekmini.solver import SolverParams, init_state, snapshot_of

assert main(["validate-config", sys.argv[1]]) == 0
snap = snapshot_of(init_state(SolverParams(nx=64, ny=64)), 0)
for i in range(25):
    if i == 5:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for name in ("temperature", "velocity:mag"):
        render(snap, name, 256, 256)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_a_cli_process_keeps_its_freed_heap_across_render_triggers(tmp_path):
    p = tmp_path / "a.xml"
    p.write_text('<sensei><analysis type="null" frequency="10"/></sensei>')
    r = subprocess.run([sys.executable, "-c", RENDER_FAULTS, str(p)],
                       capture_output=True, text=True, check=True)
    assert float(r.stdout.splitlines()[-1]) < 100  # minor faults per render pair


def test_keep_freed_heap_loads_no_libc_off_glibc(monkeypatch):
    def no_load(name):
        raise AssertionError(f"loaded {name!r}")
    monkeypatch.setattr(platform, "libc_ver", lambda: ("musl", "1.2.4"))
    monkeypatch.setattr(cli.ctypes, "CDLL", no_load)
    cli.keep_freed_heap()


def test_keep_freed_heap_warns_when_mallopt_refuses(monkeypatch, caplog):
    def refuse(param, value):
        return 0
    monkeypatch.setattr(platform, "libc_ver", lambda: ("glibc", "2.36"))
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=refuse))
    cli.keep_freed_heap()
    assert [r.levelname for r in caplog.records] == ["WARNING", "WARNING"]
    assert "mallopt(-1, 268435456) failed" in caplog.text


def test_main_keeps_freed_heap_once(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "keep_freed_heap", lambda: calls.append(1))
    p = tmp_path / "a.xml"
    p.write_text('<sensei><analysis type="null" frequency="10"/></sensei>')
    assert main(["validate-config", str(p)]) == 0
    assert calls == [1]


def test_run_small_insitu(tmp_path, capsys):
    rc = main(["run", "--nx", "12", "--ny", "12", "--steps", "2",
               "--out", str(tmp_path / "o"), "--label", "tiny"])
    assert rc == 0
    assert (tmp_path / "o" / "timings.csv").exists()


@pytest.mark.parametrize("frequency", ["0", "-2"])
def test_bench_rejects_a_frequency_below_1_before_it_starts(tmp_path, frequency, capsys):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as e:
        main(["bench", "--producers", "2", "--nx", "8", "--ny", "8", "--steps", "2",
              "--frequency", frequency, "--out", str(out)])
    assert e.value.code == 2
    assert "frequency" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,flag", [
    (["run", "--steps", "0"], "--steps"),
    (["run", "--nx", "3"], "grid must be at least 4x4"),
    (["producer", "--endpoint", "h:1", "--frequency", "0"], "--frequency"),
    (["producer", "--endpoint", "h:1", "--steps", "x"], "--steps"),
    (["endpoint", "--producers", "0"], "--producers"),
    (["bench", "--producers", "-1"], "--producers"),
    (["bench", "--ny", "2"], "grid must be at least 4x4"),
    (["weak-scale", "--producers", "1,x"], "--producers"),
    (["weak-scale", "--producers", "2,0"], "--producers"),
    (["weak-scale", "--producers", ","], "--producers"),
    (["weak-scale", "--ny", "1"], "grid must be at least 4x4"),
    (["run", "--dt", "1"], "diffusive ratio"),
    (["bench", "--dt", "1"], "diffusive ratio"),
    (["producer", "--endpoint", "bogus"], "--endpoint"),
    (["producer", "--endpoint", "127.0.0.1:99999"], "--endpoint"),
    (["endpoint", "--listen", "nope"], "--listen"),
    (["endpoint", "--listen", "127.0.0.1:99999"], "--listen"),
    (["producer", "--endpoint", "h:1", "--id", "-1"], "--id"),
    (["producer", "--endpoint", "h:1", "--id", str(1 << 32)], "--id"),
])
def test_bad_input_is_a_usage_error_before_anything_starts(tmp_path, capsys, argv, flag):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as e:
        main(argv + ["--out", str(out)])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err
    assert err.startswith(f"usage: nekmini {argv[0]} ")  # the subcommand's usage, not the top's
    assert not out.exists()


# the attributes of a bad <analysis> element, and the start of the error they give
BAD_DOCUMENTS = [
    ('type="checkpoint" format="zip"', "checkpoint attribute format='zip': must be"),
    ('type="render" width="0"', "render attribute width='0': must be"),
    ('type="render" width="-3"', "render attribute width='-3': must be"),
    ('type="render" width="abc"', "render attribute width='abc': invalid literal"),
    ('type="render" height="0"', "render attribute height='0': must be"),
    ('type="render" vmin="hot"', "render attribute vmin='hot': could not convert"),
    ('type="render" vmax="x"', "render attribute vmax='x': could not convert"),
    ('type="stats"', "stats analysis requires a 'path' attribute"),
]


@pytest.mark.parametrize("attrs,message", BAD_DOCUMENTS)
def test_bad_attribute_is_rejected_alike_by_validate_config_and_run(tmp_path, capsys,
                                                                     attrs, message):
    p = tmp_path / "a.xml"
    p.write_text(f'<sensei><analysis {attrs} dir="{tmp_path}/sink"/></sensei>')
    assert main(["validate-config", str(p)]) == 1
    assert capsys.readouterr().err.startswith(f"invalid: {message}")
    with pytest.raises(ConfigError):
        load_config(str(p))
    # each command that takes --config rejects it while parsing its command line,
    # before it creates --out or the sink's directory, or spawns anything
    for command in ("run", "endpoint", "bench", "weak-scale"):
        with pytest.raises(SystemExit) as e:
            main([command, "--config", str(p), "--out", str(tmp_path / "o")])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: nekmini {command} ")
        assert f"error: argument --config: {message}" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()
    assert not (tmp_path / "sink").exists()


def test_unknown_render_field_validates_and_fails_every_trigger(tmp_path, capsys, caplog):
    # the field name can only be checked against a snapshot: parsing takes it, and
    # each trigger counts one sink failure while the run exits 0
    p = tmp_path / "a.xml"
    p.write_text(f'<sensei><analysis type="render" field="bogus" dir="{tmp_path}/img" '
                 f'frequency="2"/></sensei>')
    assert main(["validate-config", str(p)]) == 0
    with caplog.at_level("WARNING", logger="nekmini.bridge"):
        assert main(["run", "--nx", "8", "--ny", "8", "--steps", "6", "--config", str(p),
                     "--out", str(tmp_path / "o")]) == 0
    error = "KeyError: \"no field named 'bogus'\""
    assert [r.getMessage() for r in caplog.records] == [
        f"sink render failed at step {n}: {error}" for n in (0, 2, 4, 6)]
    assert list((tmp_path / "img").iterdir()) == []

    br = initialize(load_config(str(p)))
    snap = snapshot_of(init_state(SolverParams(nx=8, ny=8)), producer_id=0)
    for n in range(7):
        br.update(replace(snap, step=n))
    (summary,) = br.finalize()
    assert (summary.invocations, summary.failures, summary.bytes_written) == (4, 4, 0)


def test_module_entry_point(tmp_path):
    # python -m nekmini is how the orchestrator spawns roles
    r = subprocess.run([sys.executable, "-m", "nekmini", "--help"],
                       capture_output=True, text=True)
    assert r.returncode == 0
    for cmd in ("run", "endpoint", "producer", "bench", "weak-scale"):
        assert cmd in r.stdout
