"""Per-layer metrics from the spans that the probe wrote in a traced round.

A layer's self time is its span minus the spans of its children. Which
spans make up each metric, and what each is divided by, is written next
to it below; the README's table says which end-to-end metric each should
move, and on which workload.
"""

from __future__ import annotations

import statistics

# span name -> per-layer metric: mean self time per call, in ms
PER_CALL_MS = {
    "solver.poisson": "solver.poisson_ms",
    "solver.snapshot": "solver.snapshot_ms",
    "data_model.validate": "data_model.validate_ms",
    "data_model.assemble": "data_model.assemble_ms",
    "transport.send_step": "transport.send_step_ms",
    "transport.connect": "transport.connect_ms",
    "bridge.update": "bridge.update_ms",
    "bridge.init": "bridge.init_ms",
    "sinks.checkpoint_binary": "sinks.checkpoint_binary_ms",
    "sinks.checkpoint_ascii": "sinks.checkpoint_ascii_ms",
    "sinks.render": "sinks.render_ms",
    "sinks.stats": "sinks.stats_ms",
}

# round trips, reported whole: their time is the wire and the peer's work
WHOLE = {"transport.send_step", "transport.connect"}


def role_of(record: dict) -> str:
    """insitu | producer | endpoint | orchestrator, from the process's argv."""
    sub = record["argv"][1] if len(record["argv"]) > 1 else ""
    return {"run": "insitu", "producer": "producer", "endpoint": "endpoint"}.get(sub, "orchestrator")


def _spans(record: dict):
    """(name, duration, self_seconds, parent_name, attr) for every span."""
    for spans in record["threads"]:
        for name, t0, t1, child, parent, attr in spans:
            yield name, t1 - t0, t1 - t0 - child, spans[parent][0] if parent >= 0 else None, attr


def _mean_ms(values: list[float]) -> float:
    return 1e3 * sum(values) / len(values) if values else 0.0


def per_layer(records: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced round (all its processes)."""
    calls: dict[str, list[float]] = {}
    step_s, encode_s, decode_s, ack_s, frame_s, update_s = [], [], [], [], [], []
    sent = bytes_in = bytes_decoded = 0
    payload = 0
    for rec in records:
        for name, dur, self_s, parent, attr in _spans(rec):
            if name == "solver.step":
                step_s.append(dur)
            elif name == "wire.encode" and parent == "transport.send_step":
                encode_s.append(self_s)
                sent += attr
            elif name == "wire.decode":
                if role_of(rec) == "endpoint":
                    decode_s.append(self_s)
                if isinstance(attr, list):
                    bytes_in += attr[0]
                    bytes_decoded += attr[1]
            elif name == "transport.recv":
                if parent == "transport.send_step":
                    ack_s.append(dur)
                elif attr == "BlockPayload":
                    frame_s.append(self_s)
            if name == "bridge.update":
                payload += attr
                update_s.append(dur)
            if name in PER_CALL_MS:
                calls.setdefault(name, []).append(dur if name in WHOLE else self_s)

    ships = len(calls.get("transport.send_step", []))
    producers = sum(role_of(rec) == "producer" for rec in records)
    # the round trip less the analysis it waited for at the endpoint
    wire_s = sum(calls.get("transport.send_step", [])) - producers * sum(update_s)
    built = sum(rec["counters"].get("data_model.field_bytes_built", 0) for rec in records)
    out = {metric: _mean_ms(calls.get(span, [])) for span, metric in PER_CALL_MS.items()}
    out.update({
        "solver.step_ms": _mean_ms(step_s),
        "solver.poisson_calls_per_step": len(calls.get("solver.poisson", [])) / max(len(step_s), 1),
        "data_model.field_copy_ratio": built / payload if payload else 0.0,
        "wire.encode_ms": 1e3 * sum(encode_s) / ships if ships else 0.0,
        "wire.decode_ms": 1e3 * sum(decode_s) / ships if ships else 0.0,
        "wire.scan_ratio": bytes_in / bytes_decoded if bytes_decoded else 0.0,
        "transport.ack_wait_ms": _mean_ms(ack_s),
        "transport.frame_recv_ms": _mean_ms(frame_s),
        "transport.MBps": sent / wire_s / 1e6 if ships else 0.0,
        "harness.startup_s": statistics.fmean(_startups(records)),
        "harness.rendezvous_ms": 1e3 * _rendezvous_s(records),
    })
    return out


def _startups(records: list[dict]) -> list[float]:
    """Spawn of each role process until its first call into a layer."""
    out = []
    for rec in records:
        if role_of(rec) == "orchestrator":
            continue
        first = min(t0 for spans in rec["threads"] for _, t0, *_ in spans)
        out.append(first - rec["spawn_t"])
    return out


def _rendezvous_s(records: list[dict]) -> float:
    """Step 0 at the endpoint: first producer's block until the last one's."""
    arrivals = []
    for rec in records:
        if role_of(rec) != "endpoint":
            continue
        for spans in rec["threads"]:
            blocks = [t1 for name, _, t1, _, _, attr in spans
                      if name == "transport.recv" and attr == "BlockPayload"]
            if blocks:
                arrivals.append(blocks[0])
    return max(arrivals) - min(arrivals) if arrivals else 0.0
