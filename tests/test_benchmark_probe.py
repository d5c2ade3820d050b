"""The benchmark's probe (perfbench/hook) traces a real in transit run.

The probe wraps nekmini's functions by name, and perfbench/layers.py
picks spans out by name and attribute. A rename in the package would
crash or blind the benchmark's traced rounds; this test fails first.
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


def test_traced_bench_records_the_spans_the_benchmark_reads(tmp_path):
    probe_dir = tmp_path / "probe"
    probe_dir.mkdir()
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "perfbench" / "hook"), str(ROOT / "src")]),
           "PERFBENCH_PROBE_DIR": str(probe_dir), "PERFBENCH_TRACE": "1"}
    r = subprocess.run(
        [sys.executable, "-m", "nekmini", "bench", "--producers", "2", "--nx", "8", "--ny", "8",
         "--steps", "4", "--frequency", "2", "--out", str(tmp_path / "out")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr

    records = [json.loads(p.read_text()) for p in probe_dir.glob("*.json")]
    assert sorted(rec["argv"][1] for rec in records) == ["bench", "endpoint", "producer", "producer"]
    (endpoint,) = [rec for rec in records if rec["argv"][1] == "endpoint"]
    spans = [span for thread in endpoint["threads"] for span in thread]
    assert "BlockPayload" in {attr for name, *_, attr in spans if name == "transport.recv"}
    assert {"wire.decode", "data_model.assemble", "bridge.update"} <= {s[0] for s in spans}

    metrics = load_layers().per_layer(records)
    assert metrics["transport.frame_recv_ms"] > 0
