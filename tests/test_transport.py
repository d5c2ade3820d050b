"""End-to-end tests for the N:1 staging transport.

Each test launches an in-process Endpoint on a loopback ephemeral port,
runs its serve() loop in a thread, and drives real ProducerConnection
clients against it. Timeouts, retry counts and backoffs are module
constants of the transport; a test that needs other values monkeypatches
them.
"""

import gc
import socket
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nekmini import transport
from nekmini.data_model import POINT, Block, FieldArray, Snapshot
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
    TAG_BLOCK_PAYLOAD,
    VERSION,
    BlockPayload,
    Bye,
    Hello,
    HelloAck,
    StepAck,
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
    """Fail within seconds, not minutes, connecting included."""
    monkeypatch.setattr(transport, "STEP_TIMEOUT", 10.0)


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


def start_run_endpoint(out, k):
    """run_endpoint with no analysis in a thread; returns its address and thread."""
    address_file = out / "ep" / "endpoint.addr"
    t = threading.Thread(target=run_endpoint, args=(out / "ep", None, "t", k), daemon=True)
    t.start()
    deadline = time.monotonic() + 10
    while not address_file.exists():
        assert time.monotonic() < deadline
        time.sleep(0.02)
    return address_file.read_text(), t


def new_threads(before):
    """The threads running now that did not run in `before`."""
    return set(threading.enumerate()) - before


def test_parse_address():
    assert parse_address("127.0.0.1:8080") == ("127.0.0.1", 8080)
    with pytest.raises(ValueError):
        parse_address("nohost")
    with pytest.raises(ValueError):
        parse_address("host:notaport")
    assert parse_address("h:0") == ("h", 0)
    assert parse_address("h:65535") == ("h", 65535)
    with pytest.raises(ValueError, match="port from 0 to 65535"):
        parse_address("127.0.0.1:65536")


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


def test_duplicate_producer_id_rejected(tmp_path):
    address, t = start_run_endpoint(tmp_path, k=2)
    a = ProducerConnection(address, 0)
    with pytest.raises(TransportError, match="rejected"):
        ProducerConnection(address, 0)
    b = ProducerConnection(address, 1)
    # each send returns before its ack; the closes read the acks
    th = threading.Thread(target=lambda: a.send_step(producer_snapshot(0, 0)))
    th.start()
    b.send_step(producer_snapshot(1, 0))
    th.join(timeout=10)
    a.close()
    b.close()
    t.join(timeout=10)
    assert not t.is_alive()
    # the endpoint's summary file carries both counts
    lines = (tmp_path / "ep" / "endpoint_summary.txt").read_text().splitlines()
    assert "steps_completed=1" in lines
    assert "rejected_connections=1" in lines


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


def test_snapshot_of_other_than_one_block_is_refused_before_any_byte():
    # a step crosses as one frame holding one block: a snapshot of two
    # blocks, or none, raises and neither sends nor reads anything, so the
    # connection carries on with the next step
    ep, bridge, t = start_endpoint(k=1)
    conn = connect(ep, 0)
    assert conn.send_step(producer_snapshot(0, 0)) == 0
    sent = conn.bytes_sent
    two = Snapshot(0.5, 50, 0, (producer_block(0), producer_block(1)))
    for bad in (two, Snapshot(0.5, 50, 0, ())):
        with pytest.raises(ValueError):
            conn.send_step(bad)
        assert conn.bytes_sent == sent
    assert conn.send_step(producer_snapshot(0, 100)) == 100
    conn.close()
    t.join(timeout=10)
    assert not t.is_alive()
    assert [s.step for s in bridge.snapshots] == [0, 100]
    assert ep.summary.errors == []


def test_endpoint_expecting_no_producer_is_refused():
    for k in (0, -1):
        with pytest.raises(ValueError, match="expected_producers must be >= 1"):
            Endpoint("127.0.0.1:0", k, RecordingBridge())


def test_blocks_that_do_not_tile_error_ack_the_step(tmp_path):
    # two expected producers with ids 0 and 3: their blocks leave a gap of
    # columns 4..11, so the step is error-acked, not stored as columns 0..7
    address, t = start_run_endpoint(tmp_path, k=2)
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


def test_half_sent_hello_does_not_stall_registered_producer(monkeypatch):
    # a client that stops 3 bytes into its Hello holds up no one: the
    # endpoint keeps those bytes and serves the real producer at once,
    # not after STEP_TIMEOUT
    monkeypatch.setattr(transport, "STEP_TIMEOUT", 3.0)
    ep, bridge, t = start_endpoint(k=1)
    half = socket.create_connection(parse_address(ep.address))
    try:
        half.sendall(MAGIC[:3])
        time.sleep(0.05)  # the endpoint reads the 3 bytes before the producer connects
        t0 = time.monotonic()
        conn = connect(ep, 0)
        for step in (0, 100, 200):
            assert conn.send_step(producer_snapshot(0, step)) == step
        assert time.monotonic() - t0 < 1.0
        conn.close()
        t.join(timeout=10)
        assert not t.is_alive()
    finally:
        half.close()
    assert [s.step for s in bridge.snapshots] == [0, 100, 200]
    assert ep.summary.errors == []
    assert ep.summary.bytes_received == conn.bytes_sent


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


def record_connects(monkeypatch):
    """Record this thread's connect attempts with their timeouts, and its sleeps."""
    log, me = [], threading.get_ident()
    real_connect, real_sleep = socket.create_connection, time.sleep

    def connect(address, timeout):
        log.append(("connect", timeout))
        return real_connect(address, timeout=timeout)

    def sleep(seconds):
        if threading.get_ident() == me:
            log.append(("sleep", seconds))
        real_sleep(seconds)

    monkeypatch.setattr(transport.socket, "create_connection", connect)
    monkeypatch.setattr(transport.time, "sleep", sleep)
    return log


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

    monkeypatch.setattr(transport, "STEP_TIMEOUT", 5.0)
    log = record_connects(monkeypatch)
    th = threading.Thread(target=late_start, daemon=True)
    th.start()
    conn = ProducerConnection(f"127.0.0.1:{port}", 0)
    assert conn.send_step(producer_snapshot(0, 0)) == 0
    conn.close()
    th.join(timeout=10)
    assert not th.is_alive()
    assert holder["ep"].summary.steps_completed == 1
    connects = [t for what, t in log if what == "connect"]
    assert len(connects) >= 2  # it failed at least once, then reached the endpoint
    assert connects[0] <= 5.0 and connects == sorted(connects, reverse=True)
    sleeps = [t for what, t in log if what == "sleep"]
    assert sleeps == [transport.CONNECT_INTERVAL] * (len(connects) - 1)


def test_unreachable_endpoint_raises_transport_error(monkeypatch):
    # connecting waits STEP_TIMEOUT in all, and no sleep follows the last attempt
    monkeypatch.setattr(transport, "STEP_TIMEOUT", 0.5)
    log = record_connects(monkeypatch)
    t0 = time.monotonic()
    with pytest.raises(TransportError, match=r"cannot reach endpoint 127\.0\.0\.1:1 within 0\.5 s: "):
        ProducerConnection("127.0.0.1:1", 0)
    assert time.monotonic() - t0 >= 0.5 - transport.CONNECT_INTERVAL
    assert [what for what, _ in log] == ["connect", "sleep"] * (len(log) // 2) + ["connect"]
    connects = [t for what, t in log if what == "connect"]
    assert len(connects) >= 2
    assert connects[0] <= 0.5 and connects == sorted(connects, reverse=True)


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
    before = set(threading.enumerate())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(TransportError, match="rejected"):
            connect(ep, pids[1])
        gc.collect()
    assert new_threads(before) == set()  # nor a worker thread
    others = [connect(ep, pid) for pid in pids[2:]]
    for c in (first, *others):
        c.close()
    t.join(timeout=10)
    assert not t.is_alive()
    assert ep.summary.rejected_connections == 1
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_malformed_step_header_drops_only_that_producer(monkeypatch):
    # a BlockPayload of 115 bytes, one short of its fixed step-and-geometry
    # part, fails producer 0; the endpoint keeps serving, error-acks
    # producer 1 and ends when it leaves
    monkeypatch.setattr(transport, "STEP_TIMEOUT", 5.0)
    ep, bridge, t = start_endpoint(k=2)
    bad = socket.create_connection(parse_address(ep.address))
    try:
        bad.sendall(encode_message(Hello(0)))
        assert FrameReader(bad).recv_message() == HelloAck(True)
        good = connect(ep, 1)
        bad.sendall(HEADER.pack(MAGIC, VERSION, TAG_BLOCK_PAYLOAD, 115) + bytes(115))
        good.send_step(producer_snapshot(1, 0))  # returns before its ack
        with pytest.raises(ProtocolError, match="abandoned"):
            good.drain()
        good.close()
        t.join(timeout=10)
        assert not t.is_alive()
    finally:
        bad.close()
    assert bridge.snapshots == []
    assert "producer 0: BlockPayload payload must be at least 116 bytes, got 115" \
        in ep.summary.errors


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
        FieldArray("p", POINT, 2, rng.standard_normal(2 * ni * nj)),
    ))


messages = st.one_of(
    st.builds(Hello, st.integers(0, 2**32 - 1)),
    st.builds(HelloAck, st.booleans()),
    st.builds(StepAck, st.integers(0, ERROR_STEP)),
    st.just(Bye()),
    st.builds(lambda step, time, seed, ni, nj: BlockPayload(step, time, wire_block(seed, ni, nj)),
              st.integers(0, 2**64 - 1), st.floats(allow_nan=False),
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
    frame = bytes(encode_message(BlockPayload(0, 0.0, block)))
    sock, th = stream_of(frame, [1 << 16])
    try:
        msg = FrameReader(sock).recv_message()
    finally:
        sock.close()
        th.join(timeout=10)
    assert not th.is_alive()
    assert sum(scanned) <= 1.01 * len(frame)
    assert np.array_equal(msg.block.fields[0].values, values)


def snapshot_256(step=0):
    """A 256x256 snapshot with the solver's fields: a 2,097,152-byte payload."""
    rng = np.random.default_rng(step)
    n = 256 * 256
    block = Block((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0, 255, 0, 255, 0, 0), tuple(
        FieldArray(name, POINT, comps, rng.standard_normal(comps * n))
        for name, comps in (("velocity", 2), ("pressure", 1), ("temperature", 1))))
    return Snapshot(time=0.5, step=step, producer_id=0, blocks=(block,))


def raw_stub(frame_size, before_frame=lambda: None):
    """A listener that takes one producer's Hello, acks it, calls
    before_frame, reads one frame of frame_size bytes into a buffer made
    up front, acks the step and waits for Bye. Returns its address, the
    frame buffer and the thread."""
    srv = socket.create_server(("127.0.0.1", 0))
    frame = bytearray(frame_size)
    hello, bye = bytearray(len(encode_message(Hello(0)))), bytearray(len(encode_message(Bye())))
    hello_ack, step_ack = encode_message(HelloAck(True)), encode_message(StepAck(0))

    def read(conn, buf):
        view = memoryview(buf)
        while view:
            view = view[conn.recv_into(view):]

    def serve():
        conn, _ = srv.accept()
        with conn:
            read(conn, hello)
            conn.sendall(hello_ack)
            before_frame()
            read(conn, frame)
            conn.sendall(step_ack)
            read(conn, bye)
        srv.close()

    th = threading.Thread(target=serve, daemon=True)
    th.start()
    host, port = srv.getsockname()[:2]
    return f"{host}:{port}", frame, th


def peak_traced_bytes(fn):
    """Peak bytes newly traced while fn runs, in every thread."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        tracemalloc.stop()


def test_send_step_sends_the_frame_without_copying_a_field():
    # the bytes on the socket are encode_message's frame, and sending it
    # allocates under 5% of the payload: the fields go out of their own arrays
    s = snapshot_256()
    payload = sum(f.values.nbytes for f in s.blocks[0].fields)
    assert payload == 2_097_152
    expected = encode_message(BlockPayload(s.step, s.time, s.blocks[0]))
    address, frame, th = raw_stub(len(expected))
    conn = ProducerConnection(address, 0)
    try:
        # the worker sends the frame after send_step returns: drain waits for it
        peak, _ = peak_traced_bytes(lambda: (conn.send_step(s), conn.drain()))
    finally:
        conn.close()
    th.join(timeout=10)
    assert not th.is_alive()
    assert frame == expected
    assert peak < 0.05 * payload


def test_recv_message_allocates_only_its_frame():
    s = snapshot_256()
    data = encode_message(BlockPayload(s.step, s.time, s.blocks[0]))
    a, b = socket.socketpair()
    th = threading.Thread(target=a.sendall, args=(data,), daemon=True)
    th.start()
    try:
        peak, msg = peak_traced_bytes(FrameReader(b).recv_message)
    finally:
        th.join(timeout=10)
        a.close()
        b.close()
    assert not th.is_alive()
    assert peak <= 1.05 * len(data)
    for got, sent in zip(msg.block.fields, s.blocks[0].fields):
        assert np.array_equal(got.values, sent.values)


@pytest.mark.parametrize("cap", [7, 1000])
def test_partial_sends_resume_where_they_stopped(monkeypatch, cap):
    # a socket that takes at most `cap` bytes per sendmsg cuts frames inside
    # the header (cap 7) and inside fields; every step still arrives whole
    real = socket.socket.sendmsg

    def capped(self, buffers, *args):
        out, room = [], cap
        for buf in buffers:
            out.append(memoryview(buf).cast("B")[:room])
            room -= len(out[-1])
            if not room:
                break
        return real(self, out, *args)

    monkeypatch.setattr(socket.socket, "sendmsg", capped)
    ep, bridge, t = start_endpoint(k=1)
    conn = connect(ep, 0)
    sent = [producer_snapshot(0, step, ni=64, nj=16) for step in (0, 1, 2)]
    for s in sent:
        conn.send_step(s)
    conn.close()
    t.join(timeout=10)
    assert not t.is_alive()
    assert ep.summary.steps_completed == 3
    for got, s in zip(bridge.snapshots, sent, strict=True):
        for fa, fb in zip(got.blocks[0].fields, s.blocks[0].fields, strict=True):
            assert (fa.name, fa.components) == (fb.name, fb.components)
            assert np.array_equal(fa.values, fb.values)
    frames = [Hello(0)] + [BlockPayload(s.step, s.time, s.blocks[0]) for s in sent] + [Bye()]
    assert conn.bytes_sent == sum(len(encode_message(m)) for m in frames)
    assert ep.summary.bytes_received == conn.bytes_sent


def test_send_to_a_peer_that_never_reads_fails_within_the_timeout(monkeypatch):
    monkeypatch.setattr(transport, "STEP_TIMEOUT", 0.5)
    srv = socket.create_server(("127.0.0.1", 0))
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    release = threading.Event()

    def stub():
        conn, _ = srv.accept()
        with conn:
            conn.recv(len(encode_message(Hello(0))))
            conn.sendall(encode_message(HelloAck(True)))
            release.wait(10)

    th = threading.Thread(target=stub, daemon=True)
    th.start()
    host, port = srv.getsockname()[:2]
    conn = ProducerConnection(f"{host}:{port}", 0)
    conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    try:
        t0 = time.monotonic()
        conn.send_step(snapshot_256())  # hands the step over and returns
        assert time.monotonic() - t0 < 0.2
        with pytest.raises(ConnectionLost, match="timed out"):
            conn.drain()
        assert time.monotonic() - t0 < 1.5
    finally:
        conn.close()
        release.set()
        th.join(timeout=5)
        srv.close()
    assert not th.is_alive()


def test_send_step_returns_while_the_worker_sends():
    # the stub reads the frame only 0.3 s after send_step returned, and
    # the 2 MB frame does not fit in the sockets' buffers: the send runs
    # on the worker, so send_step returns at once and drain waits for it
    s = snapshot_256()
    frame_size = len(encode_message(BlockPayload(s.step, s.time, s.blocks[0])))
    returned = threading.Event()
    address, frame, th = raw_stub(frame_size, lambda: (returned.wait(10), time.sleep(0.3)))
    conn = ProducerConnection(address, 0)
    conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 65536)
    try:
        t0 = time.monotonic()
        conn.send_step(s)
        t1 = time.monotonic()
        returned.set()
        conn.drain()
        t2 = time.monotonic()
    finally:
        conn.close()
    th.join(timeout=10)
    assert not th.is_alive()
    assert t1 - t0 < 0.1
    assert t2 - t1 >= 0.3
    assert frame == encode_message(BlockPayload(s.step, s.time, s.blocks[0]))


def failing_once_stub(monkeypatch):
    """A listener that acks one Hello and then keeps every byte it gets
    until the producer closes; and a switch that makes the next sendmsg,
    on any thread, fail as a broken pipe. Returns the address, the
    switch, the bytes received and the thread."""
    srv = socket.create_server(("127.0.0.1", 0))
    received = bytearray()
    fail = threading.Event()
    real = socket.socket.sendmsg

    def sendmsg(self, buffers, *args):
        if fail.is_set():
            fail.clear()
            raise BrokenPipeError(32, "Broken pipe")
        return real(self, buffers, *args)

    def serve():
        conn, _ = srv.accept()
        with conn:
            assert FrameReader(conn).recv_message() == Hello(0)
            conn.sendall(encode_message(HelloAck(True)))
            while chunk := conn.recv(65536):
                received.extend(chunk)
        srv.close()

    monkeypatch.setattr(socket.socket, "sendmsg", sendmsg)
    th = threading.Thread(target=serve, daemon=True)
    th.start()
    host, port = srv.getsockname()[:2]
    return f"{host}:{port}", fail, received, th


@pytest.mark.parametrize("surface", ["send_step", "drain"])
def test_failed_send_surfaces_before_any_byte_of_a_later_step(monkeypatch, surface):
    # step 0's send fails on the worker; the error is raised at the next
    # send_step, which sends no byte of step 1, or at drain(). All the
    # stub ever gets after the Hello is the Bye that close() sends.
    address, fail, received, th = failing_once_stub(monkeypatch)
    conn = ProducerConnection(address, 0)
    try:
        fail.set()
        conn.send_step(producer_snapshot(0, 0))
        with pytest.raises(ConnectionLost, match="send failed: .*Broken pipe"):
            if surface == "send_step":
                conn.send_step(producer_snapshot(0, 1))
            else:
                conn.drain()
        assert not fail.is_set()  # the failure was step 0's own send
    finally:
        conn.close()
    th.join(timeout=10)
    assert not th.is_alive()
    assert received == encode_message(Bye())


@pytest.mark.parametrize("flow", ["acked", "error-ack-raised", "error-ack-at-close",
                                  "failed-send-at-close"])
def test_close_leaves_no_thread_behind(monkeypatch, flow):
    # the worker exists only between a successful handshake and close(),
    # however the last ship ended
    ep, _, t = start_endpoint(k=1, bridge=RecordingBridge(fail_on_step=1))
    before = set(threading.enumerate())
    conn = connect(ep, 0)
    conn.send_step(producer_snapshot(0, 0))
    if flow == "acked":
        conn.drain()
    elif flow == "error-ack-raised":
        conn.send_step(producer_snapshot(0, 1))
        with pytest.raises(ProtocolError, match="abandoned step 1"):
            conn.drain()
    elif flow == "error-ack-at-close":
        conn.send_step(producer_snapshot(0, 1))
    else:
        conn.drain()

        def broken(self, buffers, *args):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(socket.socket, "sendmsg", broken)
        conn.send_step(producer_snapshot(0, 2))
    assert len(new_threads(before)) == 1  # the worker
    conn.close()
    assert new_threads(before) == set()
    t.join(timeout=10)
    assert not t.is_alive()


def test_producers_ship_whole_under_rapid_thread_switching():
    # four producer threads, each with its worker, on fewer cores, with
    # the interpreter switching threads every 10 us: every step arrives
    # whole, and each producer's byte count is what the endpoint read
    ep, bridge, t = start_endpoint(k=4)
    conns = [connect(ep, pid) for pid in range(4)]
    errs = []

    def run(conn, pid):
        try:
            for step in range(20):
                conn.send_step(producer_snapshot(pid, step, ni=8, nj=8))
            conn.close()
        except Exception as e:  # surface in the main thread
            errs.append((pid, e))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(c, pid)) for pid, c in enumerate(conns)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
        t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads) and not t.is_alive()
    assert errs == []
    assert ep.summary.steps_completed == 20
    assert ep.summary.bytes_received == sum(c.bytes_sent for c in conns)
    assert [s.step for s in bridge.snapshots] == list(range(20))
    for s in bridge.snapshots:
        temp = s.blocks[0].field_named("temperature").values.reshape(8, 4 * 8)
        for pid in range(4):
            local = producer_block(pid, ni=8, nj=8, step=s.step).field_named("temperature")
            assert np.array_equal(temp[:, pid * 8:(pid + 1) * 8], local.values.reshape(8, 8))
