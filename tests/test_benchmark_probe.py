"""The benchmark's probe (perfbench/hook) in a real in transit run and a
real in situ run.

The probe wraps nekmini's functions by name, and perfbench/layers.py
picks spans out by name and attribute. A rename in the package would
crash or blind the benchmark's traced rounds; these tests fail first.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_layers():
    spec = importlib.util.spec_from_file_location("layers", ROOT / "perfbench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_probed(tmp_path, traced: bool, args: list[str]) -> list[dict]:
    """Run `nekmini <args>` under the probe; the records of its processes."""
    probe_dir = tmp_path / f"probe{int(traced)}"
    probe_dir.mkdir()
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "perfbench" / "hook"), str(ROOT / "src")]),
           "PERFBENCH_PROBE_DIR": str(probe_dir), "PERFBENCH_TRACE": str(int(traced))}
    r = subprocess.run([sys.executable, "-m", "nekmini", *args], env=env, cwd=tmp_path,
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    return [json.loads(p.read_text()) for p in probe_dir.glob("*.json")]


def test_traced_bench_records_the_spans_the_benchmark_reads(tmp_path):
    records = run_probed(tmp_path, True, [
        "bench", "--producers", "2", "--nx", "8", "--ny", "8", "--steps", "4",
        "--frequency", "2", "--out", str(tmp_path / "out")])
    assert sorted(rec["argv"][1] for rec in records) == ["bench", "endpoint", "producer", "producer"]
    (endpoint,) = [rec for rec in records if rec["argv"][1] == "endpoint"]
    spans = [span for thread in endpoint["threads"] for span in thread]
    assert "BlockPayload" in {attr for name, *_, attr in spans if name == "transport.recv"}
    assert {"wire.decode", "data_model.assemble", "bridge.update"} <= {s[0] for s in spans}

    metrics = load_layers().per_layer(records)
    assert metrics["transport.frame_recv_ms"] > 0


def test_insitu_run_under_the_probe(tmp_path):
    # one sink at frequency 2 over 6 steps: due at steps 0, 2, 4 and 6
    config = tmp_path / "analysis.xml"
    config.write_text('<sensei><analysis type="null" frequency="2"/></sensei>')
    args = ["run", "--nx", "16", "--ny", "16", "--steps", "6", "--config", str(config)]

    (plain,) = run_probed(tmp_path, False, args + ["--out", str(tmp_path / "plain")])
    assert plain["argv"][1] == "run"
    assert plain["first_step_t"] is not None  # insitu-sinks' setup_s is read from it

    (traced,) = run_probed(tmp_path, True, args + ["--out", str(tmp_path / "traced")])
    names = [span[0] for thread in traced["threads"] for span in thread]
    assert "bridge.init" in names
    assert names.count("solver.snapshot") == 4
