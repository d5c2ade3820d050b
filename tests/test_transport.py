"""End-to-end tests for the N:1 staging transport.

Each test launches an in-process Endpoint on a loopback ephemeral port,
runs its serve() loop in a thread, and drives real ProducerConnection
clients against it. Timeouts, retry counts and backoffs are module
constants of the transport; a test that needs other values monkeypatches
them.
"""

import gc
import socket
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nekmini import transport
from nekmini.data_model import CELL, POINT, Block, FieldArray, Snapshot
from nekmini.harness import run_endpoint
from nekmini.transport import (
    AckTimeout,
    ConnectionLost,
    Endpoint,
    FrameReader,
    ProducerConnection,
    ProtocolError,
    TransportError,
    parse_address,
)
from nekmini.wire import (
    ERROR_STEP,
    HEADER,
    MAGIC,
    TAG_STEP_HEADER,
    VERSION,
    BlockPayload,
    Bye,
    Hello,
    HelloAck,
    StepAck,
    StepHeader,
    encode_message,
)


class RecordingBridge:
    """Captures every snapshot the endpoint delivers, and when each
    update returned, on the monotonic clock."""

    def __init__(self, delay=0.0, fail_on_step=None):
        self.snapshots = []
        self.done = {}
        self.delay = delay
        self.fail_on_step = fail_on_step

    def update(self, s):
        if self.delay:
            time.sleep(self.delay)
        if self.fail_on_step is not None and s.step == self.fail_on_step:
            raise RuntimeError("injected bridge failure")
        self.snapshots.append(s)
        self.done[s.step] = time.monotonic()


@pytest.fixture(autouse=True)
def quick_transport(monkeypatch):
    """Fail within seconds, not minutes, and retry a missing endpoint fast."""
    monkeypatch.setattr(transport, "STEP_TIMEOUT", 10.0)
    monkeypatch.setattr(transport, "CONNECT_RETRIES", 3)
    monkeypatch.setattr(transport, "RETRY_BACKOFF", 0.05)


def producer_block(pid, ni=4, nj=3, step=0, seed=None):
    rng = np.random.default_rng(1000 * pid + step if seed is None else seed)
    o = pid * ni  # producer k owns columns k*ni .. k*ni + ni - 1, as in snapshot_of
    npts = ni * nj
    fields = (
        FieldArray("temperature", POINT, 1, rng.standard_normal(npts)),
        FieldArray("velocity", POINT, 2, rng.standard_normal(2 * npts)),
    )
    return Block((o * 0.5, 0.0, 0.0), (0.5, 0.5, 1.0), (o, o + ni - 1, 0, nj - 1, 0, 0), fields)


def producer_snapshot(pid, step, **kw):
    return Snapshot(time=0.01 * step, step=step, producer_id=pid,
                    blocks=(producer_block(pid, step=step, **kw),))


def start_endpoint(k, bridge=None):
    bridge = bridge if bridge is not None else RecordingBridge()
    ep = Endpoint("127.0.0.1:0", k, bridge)
    t = threading.Thread(target=ep.serve, daemon=True)
    t.start()
    return ep, bridge, t


def connect(ep, pid):
    return ProducerConnection(ep.address, pid)


def test_parse_address():
    assert parse_address("127.0.0.1:8080") == ("127.0.0.1", 8080)
    with pytest.raises(ValueError):
        parse_address("nohost")
    with pytest.raises(ValueError):
        parse_address("host:notaport")


def test_single_producer_steps_counted():
    ep, bridge, t = start_endpoint(k=1)
    conn = connect(ep, 0)
    for step in (0, 100, 200):
        assert conn.send_step(producer_snapshot(0, step)) == step
    conn.close()
    t.join(timeout=10)
    assert not t.is_alive()
    assert ep.summary.steps_completed == 3
    assert ep.summary.incomplete_steps == 0
    assert ep.summary.producers_seen == 1
    assert [s.step for s in bridge.snapshots] == [0, 100, 200]
    # exact byte accounting: endpoint counted every frame the producer sent
    assert ep.summary.bytes_received == conn.bytes_sent


def test_four_producers_assemble_in_pid_order():
    ep, bridge, t = start_endpoint(k=4)
    conns = {}
    errs = []

    def run(pid):
        try:
            c = connect(ep, pid)
            conns[pid] = c
            c.send_step(producer_snapshot(pid, 0))
            c.close()
        except Exception as e:  # surface in the main thread
            errs.append((pid, e))

    # connect in scrambled order; assembly must still be by producer id
    threads = [threading.Thread(target=run, args=(pid,)) for pid in (2, 0, 3, 1)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=15)
    t.join(timeout=10)
    assert not t.is_alive()
    assert errs == []
    assert ep.summary.steps_completed == 1
    s = bridge.snapshots[0]
    assert len(s.blocks) == 1
    g = s.blocks[0]
    ni, nj = 4, 3
    # global grid is 4 tiles of ni points wide
    gni = g.dims[0]
    assert gni == 4 * ni
    temp = g.field_named("temperature").values.reshape(nj, gni)
    for pid in range(4):
        local = producer_block(pid).field_named("temperature").values.reshape(nj, ni)
        assert np.array_equal(temp[:, pid * ni:(pid + 1) * ni], local)


def test_duplicate_producer_id_rejected():
    ep, _, t = start_endpoint(k=2)
    a = connect(ep, 0)
    with pytest.raises(TransportError, match="rejected"):
        connect(ep, 0)
    b = connect(ep, 1)
    # each send returns before its ack; the closes read the acks
    th = threading.Thread(target=lambda: a.send_step(producer_snapshot(0, 0)))
    th.start()
    b.send_step(producer_snapshot(1, 0))
    th.join(timeout=10)
    a.close()
    b.close()
    t.join(timeout=10)
    assert not t.is_alive()
    assert ep.summary.steps_completed == 1
    assert ep.summary.rejected_connections == 1


def test_extra_producer_beyond_k_rejected():
    ep, _, t = start_endpoint(k=1)
    a = connect(ep, 0)
    with pytest.raises(TransportError, match="rejected"):
        connect(ep, 1)
    a.close()
    t.join(timeout=10)
    assert not t.is_alive()
    assert ep.summary.rejected_connections == 1


def test_ack_is_synchronous_backpressure():
    # a bridge that takes 0.2 s per update delays each ack by at least
    # that long: the producer cannot ship the next step, nor drain, until
    # the endpoint has analysed the one before
    ep, _, t = start_endpoint(k=1, bridge=RecordingBridge(delay=0.2))
    conn = connect(ep, 0)
    t0 = time.monotonic()
    conn.send_step(producer_snapshot(0, 0))
    conn.send_step(producer_snapshot(0, 100))
    shipped = time.monotonic() - t0
    conn.drain()
    drained = time.monotonic() - t0
    conn.close()
    t.join(timeout=10)
    assert not t.is_alive()
    assert shipped >= 0.2
    assert drained >= 0.4


def test_send_never_returns_before_the_previous_step_is_analysed():
    # two producers ship steps 0..5; each send_step(k + 1), and each
    # drain after step 5, returns only after bridge.update(k) returned
    ep, bridge, t = start_endpoint(k=2, bridge=RecordingBridge(delay=0.02))
    returned = {}
    errs = []

    def run(pid):
        try:
            conn = connect(ep, pid)
            stamps = returned[pid] = []
            for step in range(6):
                conn.send_step(producer_snapshot(pid, step))
                stamps.append(time.monotonic())
            conn.drain()
            stamps.append(time.monotonic())
            conn.close()
        except Exception as e:  # surface in the main thread
            errs.append((pid, e))

    threads = [threading.Thread(target=run, args=(pid,)) for pid in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=15)
    t.join(timeout=10)
    assert not t.is_alive()
    assert errs == []
    assert sorted(bridge.done) == list(range(6))
    for pid in range(2):
        # stamps[k + 1] ends send_step(k + 1), or the drain for k = 5
        assert all(returned[pid][k + 1] > bridge.done[k] for k in range(6))


def test_solver_time_hides_the_endpoint_analysis():
    # the endpoint takes 50 ms per step and the producer computes 60 ms
    # between sends: each ack is in before the next send, so sending
    # costs little; in lock step every send would take at least 50 ms
    ep, _, t = start_endpoint(k=1, bridge=RecordingBridge(delay=0.05))
    conn = connect(ep, 0)
    sends = []
    for step in range(8):
        t0 = time.monotonic()
        conn.send_step(producer_snapshot(0, step))
        sends.append(time.monotonic() - t0)
        time.sleep(0.06)  # the solver steps between two shipped steps
    conn.close()
    t.join(timeout=10)
    assert not t.is_alive()
    assert ep.summary.steps_completed == 8
    assert sorted(sends)[len(sends) // 2] < 0.010


def test_disconnect_mid_round_discards_step_and_error_acks_peer(monkeypatch):
    monkeypatch.setattr(transport, "STEP_TIMEOUT", 5.0)
    ep, bridge, t = start_endpoint(k=2)
    a = connect(ep, 0)
    b = connect(ep, 1)
    a.send_step(producer_snapshot(0, 0))  # returns before its ack
    time.sleep(0.2)  # let a's step reach the endpoint
    b.sock.close()  # b vanishes without sending its step
    with pytest.raises(ProtocolError, match="abandoned step 0"):
        a.drain()
    t.join(timeout=10)
    a.close()
    assert not t.is_alive()
    assert bridge.snapshots == []
    assert ep.summary.steps_completed == 0
    assert ep.summary.incomplete_steps >= 1
    assert any("discarded" in e or "producer 1" in e for e in ep.summary.errors)


def test_step_mismatch_is_fatal(monkeypatch):
    monkeypatch.setattr(transport, "STEP_TIMEOUT", 5.0)
    ep, bridge, t = start_endpoint(k=2)
    a = connect(ep, 0)
    b = connect(ep, 1)
    results = {}

    def push(name, conn, step):
        try:
            conn.send_step(producer_snapshot(0 if name == "a" else 1, step))
            conn.drain()
            results[name] = "acked"
        except ProtocolError as e:
            results[name] = str(e)

    ta = threading.Thread(target=push, args=("a", a, 100))
    tb = threading.Thread(target=push, args=("b", b, 200))
    ta.start(); tb.start()
    ta.join(timeout=10); tb.join(timeout=10)
    t.join(timeout=10)
    a.close(); b.close()
    assert not t.is_alive()
    assert results["a"] != "acked" and results["b"] != "acked"
    assert bridge.snapshots == []
    assert any("disagree" in e for e in ep.summary.errors)


def test_bridge_failure_error_acks_producers():
    ep, bridge, t = start_endpoint(k=1, bridge=RecordingBridge(fail_on_step=100))
    conn = connect(ep, 0)
    assert conn.send_step(producer_snapshot(0, 0)) == 0
    assert conn.send_step(producer_snapshot(0, 100)) == 100  # read step 0's ack
    sent = conn.bytes_sent
    # step 100's error ack surfaces at the next send, before any byte of it
    with pytest.raises(ProtocolError, match="abandoned step 100"):
        conn.send_step(producer_snapshot(0, 200))
    assert conn.bytes_sent == sent
    t.join(timeout=10)
    conn.close()
    assert not t.is_alive()
    assert ep.summary.steps_completed == 1
    assert ep.summary.incomplete_steps == 1
    assert ep.summary.bytes_received == sent


def test_blocks_that_do_not_tile_error_ack_the_step(tmp_path):
    # two expected producers with ids 0 and 3: their blocks leave a gap of
    # columns 4..11, so the step is error-acked, not stored as columns 0..7
    port_file = tmp_path / "addr"
    t = threading.Thread(target=run_endpoint, args=(tmp_path / "ep", None, "t", 2),
                         kwargs=dict(port_file=port_file), daemon=True)
    t.start()
    deadline = time.monotonic() + 10
    while not port_file.exists():
        assert time.monotonic() < deadline
        time.sleep(0.02)
    address = port_file.read_text()
    conns = [ProducerConnection(address, pid) for pid in (0, 3)]
    results = {}

    for c, pid in zip(conns, (0, 3)):
        c.send_step(producer_snapshot(pid, 0))  # returns before its ack
    for c, pid in zip(conns, (0, 3)):
        try:
            c.drain()
            results[pid] = 0
        except ProtocolError as e:
            results[pid] = str(e)
    for c in conns:
        c.close()
    t.join(timeout=10)
    assert not t.is_alive()
    assert results == {0: "endpoint abandoned step 0", 3: "endpoint abandoned step 0"}
    lines = (tmp_path / "ep" / "endpoint_summary.txt").read_text().splitlines()
    assert "steps_completed=0" in lines and "incomplete_steps=1" in lines
    assert ("error=step 0: SchemaMismatch: blocks do not tile along x: extents "
            "(0, 3, 0, 2, 0, 0) are followed by (12, 15, 0, 2, 0, 0)") in lines


def test_endpoint_exits_when_no_producer_connects(monkeypatch):
    monkeypatch.setattr(transport, "STEP_TIMEOUT", 0.5)
    ep, _, t = start_endpoint(k=2)
    t.join(timeout=5)
    assert not t.is_alive()
    assert ep.summary.errors == ["no producer connected within 0.5s"]
    assert ep.summary.steps_completed == 0


def test_silent_connection_does_not_stall_registered_producer(monkeypatch):
    # a client that connects and never says Hello holds a socket open at
    # the endpoint; the one registered producer's handshake and steps
    # still complete within 2 s, well within the 30 s timeout, and
    # serve() ends at its Bye
    monkeypatch.setattr(transport, "STEP_TIMEOUT", 30.0)
    ep, bridge, t = start_endpoint(k=1)
    silent = socket.create_connection(parse_address(ep.address))
    try:
        t0 = time.monotonic()
        conn = connect(ep, 0)
        for step in (0, 100, 200):
            assert conn.send_step(producer_snapshot(0, step)) == step
        assert time.monotonic() - t0 < 2.0
        conn.close()
        t.join(timeout=10)
        assert not t.is_alive()
    finally:
        silent.close()
    assert [s.step for s in bridge.snapshots] == [0, 100, 200]
    assert ep.summary.steps_completed == 3
    assert ep.summary.errors == []


def test_producer_ack_timeout(monkeypatch):
    # a bare listener that accepts the hello but never acks a step
    monkeypatch.setattr(transport, "STEP_TIMEOUT", 0.5)
    srv = socket.create_server(("127.0.0.1", 0))
    host, port = srv.getsockname()[:2]

    def stub():
        conn, _ = srv.accept()
        conn.recv(4096)  # swallow Hello
        conn.sendall(encode_message(HelloAck(True)))
        time.sleep(5.0)
        conn.close()

    th = threading.Thread(target=stub, daemon=True)
    th.start()
    conn = ProducerConnection(f"{host}:{port}", 0)
    conn.send_step(producer_snapshot(0, 0))  # returns before its ack
    with pytest.raises(AckTimeout):
        conn.drain()
    conn.close()
    srv.close()


def test_producer_retries_until_endpoint_appears(monkeypatch):
    # reserve a port, start the endpoint only after the first connect attempts
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    holder = {}

    def late_start():
        time.sleep(0.4)
        ep = Endpoint(f"127.0.0.1:{port}", 1, RecordingBridge())
        holder["ep"] = ep
        ep.serve()

    th = threading.Thread(target=late_start, daemon=True)
    th.start()
    monkeypatch.setattr(transport, "CONNECT_RETRIES", 20)
    monkeypatch.setattr(transport, "RETRY_BACKOFF", 0.1)
    conn = ProducerConnection(f"127.0.0.1:{port}", 0)
    assert conn.send_step(producer_snapshot(0, 0)) == 0
    conn.close()
    th.join(timeout=10)
    assert not th.is_alive()
    assert holder["ep"].summary.steps_completed == 1


def test_unreachable_endpoint_raises_transport_error(monkeypatch):
    monkeypatch.setattr(transport, "CONNECT_RETRIES", 1)
    monkeypatch.setattr(transport, "RETRY_BACKOFF", 0.01)
    with pytest.raises(TransportError, match="cannot reach"):
        ProducerConnection("127.0.0.1:1", 0)


def test_fidelity_bit_exact_through_transport():
    # values delivered to the bridge are bit-identical to what was sent
    ep, bridge, t = start_endpoint(k=1)
    conn = connect(ep, 0)
    s = producer_snapshot(0, 0, ni=8, nj=6)
    conn.send_step(s)
    conn.close()
    t.join(timeout=10)
    assert not t.is_alive()
    got = bridge.snapshots[0].blocks[0]
    sent = s.blocks[0]
    for f in sent.fields:
        assert np.array_equal(got.field_named(f.name).values, f.values)
    assert got.origin == sent.origin
    assert got.spacing == sent.spacing


@pytest.mark.parametrize("k, pids", [(2, (0, 0, 1)), (1, (0, 1))], ids=["duplicate-id", "beyond-k"])
def test_rejected_producer_closes_its_socket(k, pids):
    ep, _, t = start_endpoint(k=k)
    first = connect(ep, pids[0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(TransportError, match="rejected"):
            connect(ep, pids[1])
        gc.collect()
    others = [connect(ep, pid) for pid in pids[2:]]
    for c in (first, *others):
        c.close()
    t.join(timeout=10)
    assert not t.is_alive()
    assert ep.summary.rejected_connections == 1
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_malformed_step_header_drops_only_that_producer(monkeypatch):
    # a StepHeader with a 19-byte payload fails producer 0; the endpoint
    # keeps serving, error-acks producer 1 and ends when it leaves
    monkeypatch.setattr(transport, "STEP_TIMEOUT", 5.0)
    ep, bridge, t = start_endpoint(k=2)
    bad = socket.create_connection(parse_address(ep.address))
    try:
        bad.sendall(encode_message(Hello(0)))
        assert FrameReader(bad).recv_message() == HelloAck(True)
        good = connect(ep, 1)
        bad.sendall(HEADER.pack(MAGIC, VERSION, TAG_STEP_HEADER, 19) + bytes(19))
        good.send_step(producer_snapshot(1, 0))  # returns before its ack
        with pytest.raises(ProtocolError, match="abandoned"):
            good.drain()
        good.close()
        t.join(timeout=10)
        assert not t.is_alive()
    finally:
        bad.close()
    assert bridge.snapshots == []
    assert "producer 0: StepHeader payload must be 20 bytes, got 19" in ep.summary.errors


# ---------------------------------------------------------------------------
# the frame reader on its own, over a socketpair
# ---------------------------------------------------------------------------

def stream_of(data, chunks):
    """The read end of a socketpair whose other end sends data in chunks of
    the given sizes (cycled) from a thread, then closes."""
    a, b = socket.socketpair()

    def send():
        try:
            pos, i = 0, 0
            while pos < len(data):
                n = chunks[i % len(chunks)]
                a.sendall(data[pos:pos + n])
                pos, i = pos + n, i + 1
        except OSError:
            pass  # the reader stopped early and closed its end
        finally:
            a.close()

    th = threading.Thread(target=send, daemon=True)
    th.start()
    return b, th


def wire_block(seed, ni, nj):
    rng = np.random.default_rng(seed)
    return Block((0.5 * seed, 0.0, 0.0), (0.5, 0.25, 1.0), (0, ni - 1, 0, nj - 1, 0, 0), (
        FieldArray("temperature", POINT, 1, rng.standard_normal(ni * nj)),
        FieldArray("p", CELL, 2, rng.standard_normal(2 * (ni - 1) * (nj - 1))),
    ))


messages = st.one_of(
    st.builds(Hello, st.integers(0, 2**32 - 1)),
    st.builds(HelloAck, st.booleans()),
    st.builds(StepHeader, st.integers(0, 2**64 - 1), st.floats(allow_nan=False),
              st.integers(0, 2**32 - 1)),
    st.builds(StepAck, st.integers(0, ERROR_STEP)),
    st.just(Bye()),
    st.builds(lambda seed, ni, nj: BlockPayload(wire_block(seed, ni, nj)),
              st.integers(0, 1000), st.integers(2, 12), st.integers(2, 12)),
)
chunkings = st.lists(st.integers(1, 2000), min_size=1, max_size=8)


def frames(msgs):
    return b"".join(bytes(encode_message(m)) for m in msgs)


@settings(max_examples=60, deadline=None)
@given(msgs=st.lists(messages, max_size=6), chunks=chunkings)
def test_reader_decodes_valid_streams_under_any_chunking(msgs, chunks):
    data = frames(msgs)
    sock, th = stream_of(data, chunks)
    reader = FrameReader(sock)
    try:
        with pytest.MonkeyPatch.context() as mp:  # per example: 5 s per read
            mp.setattr(transport, "STEP_TIMEOUT", 5.0)
            got = [reader.recv_message() for _ in msgs]
            with pytest.raises(ConnectionLost):
                reader.recv_message()
    finally:
        sock.close()
        th.join(timeout=5)
    assert not th.is_alive()
    assert got == msgs
    assert reader.bytes_consumed == len(data)


garbage = st.one_of(
    st.binary(max_size=300),
    # a valid magic and version, then any tag, a small declared length and junk
    st.builds(lambda tag, length, tail: HEADER.pack(MAGIC, VERSION, tag, length) + tail,
              st.integers(0, 255), st.integers(0, 4096), st.binary(max_size=300)),
    # a valid frame cut short
    st.builds(lambda m, cut: frames([m])[:-cut], messages, st.integers(1, 14)),
)


@settings(max_examples=100, deadline=None)
@given(prefix=st.lists(messages, max_size=2), junk=garbage, chunks=chunkings)
def test_reader_rejects_garbage_without_hanging(prefix, junk, chunks):
    # every frame is at least a header long, so the stream ends within
    # len(data) // HEADER.size + 1 reads; a reader that waited for bytes
    # that never come would raise AckTimeout instead
    data = frames(prefix) + junk
    sock, th = stream_of(data, chunks)
    reader = FrameReader(sock)
    try:
        with pytest.MonkeyPatch.context() as mp:  # per example: 5 s per read
            mp.setattr(transport, "STEP_TIMEOUT", 5.0)
            with pytest.raises((ProtocolError, ConnectionLost)):
                for _ in range(len(data) // HEADER.size + 1):
                    reader.recv_message()
    finally:
        sock.close()
        th.join(timeout=5)
    assert not th.is_alive()


def test_reader_scans_each_frame_byte_once(monkeypatch):
    # one ~8 MiB BlockPayload arriving in 64 KiB chunks is decoded once, on
    # the whole frame; a reader that retried the decode per chunk would
    # scan the frame's bytes about 64 times over
    values = np.arange(1 << 20, dtype=np.float64)
    block = Block((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0, 1023, 0, 1023, 0, 0),
                  (FieldArray("temperature", POINT, 1, values),))
    scanned = []
    real = transport.decode_message

    def counting(buf, *args, **kwargs):
        scanned.append(len(buf))
        return real(buf, *args, **kwargs)

    monkeypatch.setattr(transport, "decode_message", counting)
    monkeypatch.setattr(transport, "STEP_TIMEOUT", 30.0)
    frame = bytes(encode_message(BlockPayload(block)))
    sock, th = stream_of(frame, [1 << 16])
    try:
        msg = FrameReader(sock).recv_message()
    finally:
        sock.close()
        th.join(timeout=10)
    assert not th.is_alive()
    assert sum(scanned) <= 1.01 * len(frame)
    assert np.array_equal(msg.block.fields[0].values, values)
