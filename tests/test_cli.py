"""CLI surface tests (argument parsing plus the lightweight subcommands)."""

import subprocess
import sys

import pytest

from nekmini import reporting
from nekmini.cli import build_parser, main
from nekmini.reporting import TimingRecord


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_defaults():
    args = build_parser().parse_args(["run", "--out", "x"])
    assert (args.nx, args.ny, args.steps, args.label) == (64, 64, 3000, "insitu")
    assert args.config is None


def test_producer_requires_endpoint(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["producer", "--out", "x"])
    assert "--endpoint" in capsys.readouterr().err
    args = build_parser().parse_args(["producer", "--out", "x", "--endpoint", "h:1"])
    assert args.endpoint == "h:1"


def test_weak_scale_producer_list():
    args = build_parser().parse_args(["weak-scale", "--out", "x", "--producers", "1,2,8"])
    assert [int(x) for x in args.producers.split(",")] == [1, 2, 8]


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


def test_run_small_insitu(tmp_path, capsys):
    rc = main(["run", "--nx", "12", "--ny", "12", "--steps", "2",
               "--out", str(tmp_path / "o"), "--label", "tiny"])
    assert rc == 0
    assert (tmp_path / "o" / "timings.csv").exists()


@pytest.mark.parametrize("frequency", ["0", "-2"])
def test_bench_rejects_a_frequency_below_1_before_it_starts(tmp_path, frequency):
    out = tmp_path / "o"
    with pytest.raises(ValueError, match="frequency"):
        main(["bench", "--producers", "2", "--nx", "8", "--ny", "8", "--steps", "2",
              "--frequency", frequency, "--out", str(out)])
    assert not out.exists()


def test_module_entry_point(tmp_path):
    # python -m nekmini is how the orchestrator spawns roles
    r = subprocess.run([sys.executable, "-m", "nekmini", "--help"],
                       capture_output=True, text=True)
    assert r.returncode == 0
    for cmd in ("run", "endpoint", "producer", "bench", "weak-scale"):
        assert cmd in r.stdout
