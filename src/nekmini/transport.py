"""In transit staging transport: N producers stream snapshots to one
endpoint over the framed wire protocol.

A producer runs one shipped step ahead of its ack, and ships each step
off the caller's thread: send_step waits until the step shipped before
is done, then hands the step as one BlockPayload frame to the
connection's one worker thread and returns. The worker gather-writes
the frame's parts (wire.frame_parts) with sendmsg, the fields straight
from the snapshot's arrays, resuming a partial send where it stopped,
all within STEP_TIMEOUT, and then reads that step's ack. The endpoint
acks a step only after all K producers delivered it and the analysis
bridge has run, so the simulation computes while the data moves and the
endpoint analyses, and is never more than one shipped step ahead of it
(backpressure). drain() waits for the last ship. A producer sends
nothing between a step and reading its ack, so one thread serves the
whole endpoint: a selector loop over the listener and every connection
handles each connection's next message in place.

Both sides read frames with a FrameReader: it reads a frame's 14-byte
header, checks it, then reads exactly the payload it declares into one
new, uninitialised buffer of the frame's size and decodes the frame
once, so receiving is linear in the payload size. Decoded field values
are read-only views over that buffer, which the data model adopts
without a copy; no buffer is reused, so a snapshot may outlive its step.
The one exception is a new connection's Hello: the endpoint reads it
without blocking and keeps what has come so far, so a client that stops
inside its Hello holds up no other producer.

Both sides give up after STEP_TIMEOUT seconds: a producer waiting for
an ack, and an endpoint that hears nothing from any connection. An idle
endpoint then abandons a step still missing some producers' frames, or
exits if no producer ever connected. A producer connecting to an
endpoint that is not listening yet retries every CONNECT_INTERVAL
seconds, and gives up once STEP_TIMEOUT has passed. These are module
constants, not options: every role reads the same values.

Failure policy: a producer disconnecting mid-step discards that step;
the other producers of that step receive an ack carrying the ERROR_STEP
sentinel, which they surface as a protocol error naming the step, at
their next send_step or at drain(), and terminate on; a failed send
surfaces the same way. Producers at different step numbers in the same
round are a fatal protocol error.
"""

from __future__ import annotations

import logging
import selectors
import socket
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from nekmini.data_model import Snapshot, assemble_global
from nekmini.wire import (
    ERROR_STEP,
    HEADER,
    TAG_HELLO,
    BlockPayload,
    Bye,
    Hello,
    HelloAck,
    ProtocolError,
    StepAck,
    WireMessage,
    check_header,
    decode_message,
    encode_message,
    frame_parts,
)

log = logging.getLogger(__name__)


STEP_TIMEOUT = 120.0  # s either side waits for the other before giving up
CONNECT_INTERVAL = 0.1  # s between a producer's attempts to connect


class TransportError(RuntimeError):
    pass


class AckTimeout(TransportError):
    pass


class ConnectionLost(TransportError):
    pass


def parse_address(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdecimal() or int(port) > 65535:
        raise ValueError(f"address must be host:port with a port from 0 to 65535, got {text!r}")
    return host, int(port)


class FrameReader:
    """Reads whole frames from a socket, each byte once.

    The header is checked before anything is allocated; the payload is
    read into the frame's buffer and never past it, so nothing is held
    between frames. After AckTimeout or ConnectionLost the stream is not
    at a frame boundary, and neither side reads from it again.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.bytes_consumed = 0

    def recv_message(self) -> WireMessage:
        """The next whole frame, read within STEP_TIMEOUT seconds."""
        deadline = time.monotonic() + STEP_TIMEOUT
        header = bytearray(HEADER.size)
        self._recv_into(memoryview(header), deadline)
        _, total = check_header(header)
        frame = np.empty(total, np.uint8)  # new per frame: decoded fields are views of it
        view = memoryview(frame)
        view[:HEADER.size] = header
        self._recv_into(view[HEADER.size:], deadline)
        msg, _ = decode_message(frame)
        self.bytes_consumed += total
        return msg

    def _recv_into(self, view: memoryview, deadline: float):
        while view:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise AckTimeout("timed out waiting for a frame")
            self.sock.settimeout(remaining)
            try:
                n = self.sock.recv_into(view)
            except socket.timeout:
                raise AckTimeout("timed out waiting for a frame") from None
            if not n:
                raise ConnectionLost("connection closed by peer")
            view = view[n:]


# ---------------------------------------------------------------------------
# producer side
# ---------------------------------------------------------------------------

def _connect(address: str) -> socket.socket:
    """Connect within STEP_TIMEOUT; each attempt may take the time left."""
    host, port = parse_address(address)
    deadline = time.monotonic() + STEP_TIMEOUT
    while True:
        try:
            return socket.create_connection((host, port),
                                            timeout=max(deadline - time.monotonic(), 0.0))
        except OSError as e:
            if time.monotonic() + CONNECT_INTERVAL >= deadline:  # no attempt would follow a sleep
                raise TransportError(
                    f"cannot reach endpoint {address} within {STEP_TIMEOUT:g} s: {e}") from None
        time.sleep(CONNECT_INTERVAL)


class ProducerConnection:
    """Connects, handshakes, and streams steps one shipped step ahead of
    their acks.

    Steps are shipped by one worker thread, which a connection gets only
    once its handshake succeeded: it sends a step's frame, then reads
    that step's ack. `_ship` is the future of the last step shipped, until
    it is waited for. Waiting for it is the first thing the next
    send_step, drain() and close() do, so the socket serves one thread
    at a time, and an error ack or a failed send surfaces before any
    byte of a later step is sent.

    `bytes_sent` counts every frame when it is handed over to be sent.
    `send_seconds` and `ack_wait_seconds` are the worker's totals: its
    time sending frames and its time reading acks.
    """

    def __init__(self, endpoint_address: str, producer_id: int):
        self.bytes_sent = 0
        self.send_seconds = 0.0
        self.ack_wait_seconds = 0.0
        self._ship: Future | None = None
        self.sock = _connect(endpoint_address)
        self.reader = FrameReader(self.sock)
        try:
            self._send(self._frame(Hello(producer_id)))
            ack = self.reader.recv_message()
            if not isinstance(ack, HelloAck):
                raise ProtocolError(f"expected HelloAck, got {type(ack).__name__}")
            if not ack.accepted:
                raise TransportError(
                    f"endpoint rejected producer {producer_id} (duplicate id or endpoint full)"
                )
        except BaseException:
            self.sock.close()
            raise
        self._worker = ThreadPoolExecutor(max_workers=1)

    def _frame(self, m: WireMessage) -> list[memoryview]:
        """m's frame parts, counted in bytes_sent on the calling thread."""
        parts = frame_parts(m)
        self.bytes_sent += sum(map(len, parts))
        return parts

    def _send(self, parts: list[memoryview]):
        """Gather-write a frame's parts within STEP_TIMEOUT, resuming a
        partial send wherever it stopped."""
        deadline = time.monotonic() + STEP_TIMEOUT
        try:
            while parts:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ConnectionLost("send failed: timed out")
                self.sock.settimeout(remaining)
                n = self.sock.sendmsg(parts)
                while parts and n >= len(parts[0]):
                    n -= len(parts.pop(0))
                if n:
                    parts[0] = parts[0][n:]
        except OSError as e:
            raise ConnectionLost(f"send failed: {e}") from e

    def send_step(self, s: Snapshot) -> int:
        """Wait until the previous step is shipped and acked, then hand
        `s` to the worker and return s.step. Raises ValueError, before
        waiting or sending, unless `s` holds one block."""
        (block,) = s.blocks
        self.drain()
        parts = self._frame(BlockPayload(s.step, s.time, block))
        self._ship = self._worker.submit(self._ship_step, s.step, parts)
        return s.step

    def _ship_step(self, step: int, parts: list[memoryview]):
        """The worker's job: send one step's frame, then read its ack."""
        t0 = time.perf_counter()
        self._send(parts)
        t1 = time.perf_counter()
        ack = self.reader.recv_message()
        self.send_seconds += t1 - t0
        self.ack_wait_seconds += time.perf_counter() - t1
        if not isinstance(ack, StepAck):
            raise ProtocolError(f"expected StepAck, got {type(ack).__name__}")
        if ack.step == ERROR_STEP:
            raise ProtocolError(f"endpoint abandoned step {step}")
        if ack.step != step:
            raise ProtocolError(f"ack for step {ack.step}, expected {step}")

    def drain(self):
        """Wait for the last step shipped, if it is not waited for yet.

        Raises what its ship raised: ProtocolError naming that step if
        the endpoint abandoned it, ConnectionLost or AckTimeout. After any
        error the stream is unusable, so nothing is left to wait for.
        """
        ship, self._ship = self._ship, None
        if ship is not None:
            ship.result()

    def close(self):
        """Wait for the last ship, say Bye, stop the worker, close; never raises."""
        try:
            self.drain()
            self._send(self._frame(Bye()))
        except (TransportError, ProtocolError, OSError):
            pass
        self._worker.shutdown()
        self.sock.close()


# ---------------------------------------------------------------------------
# endpoint side
# ---------------------------------------------------------------------------

@dataclass
class EndpointSummary:
    steps_completed: int = 0
    incomplete_steps: int = 0
    bytes_received: int = 0
    producers_seen: int = 0
    rejected_connections: int = 0
    errors: list[str] = field(default_factory=list)


class Endpoint:
    """Accepts exactly K producers and feeds assembled steps to a bridge.

    `bridge` is any object with update(snapshot); each completed step
    invokes update exactly once with the global block assembled from all
    K producer blocks ordered by producer id. K is `expected_producers`,
    the fan-in ratio, at least 1.
    """

    def __init__(self, listen_address: str, expected_producers: int, bridge):
        if expected_producers < 1:
            raise ValueError(f"expected_producers must be >= 1, got {expected_producers}")
        self.expected_producers = expected_producers
        self.bridge = bridge
        self.summary = EndpointSummary()
        host, port = parse_address(listen_address)
        self._listener = socket.create_server((host, port))

    @property
    def address(self) -> str:
        host, port = self._listener.getsockname()[:2]
        return f"{host}:{port}"

    def serve(self) -> EndpointSummary:
        """Run until every accepted producer has left; returns the summary.

        Each selector key carries (None, the bytes of its Hello read so
        far) until the Hello is whole, then (producer id, its FrameReader).
        A Hello is read without blocking, so a client that stops inside it
        holds up no one. A producer sends nothing between its step and the
        ack, so a registered connection's whole next message can be read
        in place.
        """
        k, timeout, summary = self.expected_producers, STEP_TIMEOUT, self.summary
        hello_size = len(encode_message(Hello(0)))
        sel = selectors.DefaultSelector()
        sel.register(self._listener, selectors.EVENT_READ)
        registered: set[int] = set()
        conns: dict[int, socket.socket] = {}  # registered producers not yet gone
        pending: dict[int, BlockPayload] = {}  # this step's frame, by producer id
        aborted = False

        def close(conn: socket.socket):
            pid, reader = sel.unregister(conn).data
            if pid is not None:
                summary.bytes_received += reader.bytes_consumed
            conn.close()

        def depart(pid: int, reason: str | None = None):
            nonlocal aborted
            close(conns.pop(pid))
            pending.pop(pid, None)
            if reason is not None:
                summary.errors.append(reason)
                if pending:
                    fail(f"step discarded: {reason}")
                aborted = True

        def ack(pids: list[int], step: int):
            for pid in pids:
                try:
                    conns[pid].sendall(encode_message(StepAck(step)))
                except OSError as e:
                    depart(pid, f"producer {pid}: {e}")
                    continue
                if step == ERROR_STEP:
                    depart(pid, f"producer {pid}: connection closed")

        def fail(reason: str):
            nonlocal aborted
            summary.incomplete_steps += 1
            summary.errors.append(reason)
            aborted = True
            pids = list(pending)
            pending.clear()
            ack(pids, ERROR_STEP)

        def complete():
            pids = sorted(pending)
            ordered = [pending.pop(pid) for pid in pids]
            first = ordered[0]
            try:
                global_block = assemble_global([m.block for m in ordered])
                snapshot = Snapshot(
                    time=first.time, step=first.step, producer_id=0, blocks=(global_block,)
                )
                self.bridge.update(snapshot)
                summary.steps_completed += 1
                step = first.step
            except Exception as e:
                summary.errors.append(f"step {first.step}: {type(e).__name__}: {e}")
                summary.incomplete_steps += 1
                step = ERROR_STEP
            ack(pids, step)

        def greet(conn: socket.socket, hello: bytearray):
            try:
                try:
                    chunk = conn.recv(hello_size - len(hello))
                except BlockingIOError:
                    return
                if not chunk:
                    raise ConnectionLost("connection closed by peer")
                hello += chunk
                if len(hello) >= HEADER.size and check_header(hello)[0] != TAG_HELLO:
                    raise ProtocolError("expected Hello")
                if len(hello) < hello_size:
                    return
                pid = decode_message(hello)[0].producer_id
                summary.bytes_received += hello_size
                accept = pid not in registered and len(registered) < k and not aborted
                if not accept:
                    summary.rejected_connections += 1
                conn.settimeout(timeout)
                conn.sendall(encode_message(HelloAck(accept)))
            except (TransportError, ProtocolError, OSError):
                accept = False
            if not accept:
                close(conn)
                return
            registered.add(pid)
            summary.producers_seen += 1
            conns[pid] = conn
            sel.modify(conn, selectors.EVENT_READ, (pid, FrameReader(conn)))

        def receive(pid: int, reader: FrameReader):
            try:
                msg = reader.recv_message()
                if pid in pending:
                    raise ProtocolError(f"{type(msg).__name__} before the ack of step "
                                        f"{pending[pid].step}")
                if isinstance(msg, Bye):
                    depart(pid)
                    return
                if not isinstance(msg, BlockPayload):
                    raise ProtocolError(f"expected BlockPayload or Bye, got {type(msg).__name__}")
            except (TransportError, ProtocolError, OSError) as e:
                depart(pid, f"producer {pid}: {e}")
                return
            if aborted:
                ack([pid], ERROR_STEP)
                return
            pending[pid] = msg
            if len(pending) == k:
                steps = {m.step for m in pending.values()}
                if len(steps) != 1:
                    fail(f"producers disagree on step: {sorted(steps)}")
                else:
                    complete()

        try:
            while not (registered and not conns and (len(registered) == k or aborted)):
                events = sel.select(timeout)
                if not events:
                    if pending:
                        step = next(iter(pending.values())).step
                        fail(f"timed out after {timeout}s waiting for stragglers at step {step}")
                    elif not registered:
                        summary.errors.append(f"no producer connected within {timeout}s")
                        break
                    elif not conns:
                        break  # idle and everyone who joined has left
                    continue
                for key, _ in events:
                    if key.fileobj is self._listener:
                        conn, _ = self._listener.accept()
                        conn.setblocking(False)
                        sel.register(conn, selectors.EVENT_READ, (None, bytearray()))
                        continue
                    pid, state = key.data
                    if pid is None:
                        greet(key.fileobj, state)
                    elif conns.get(pid) is key.fileobj:  # not dropped earlier in this batch
                        receive(pid, state)
        finally:
            for key in list(sel.get_map().values()):
                if key.fileobj is not self._listener:
                    close(key.fileobj)
            sel.close()
            self._listener.close()
        return summary
