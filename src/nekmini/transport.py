"""In transit staging transport: N producers stream snapshots to one
endpoint over the framed wire protocol.

A producer runs one shipped step ahead of its ack: send_step first
reads the ack of the step it shipped before, if that is still unread,
then sends StepHeader plus one BlockPayload per block and returns
without waiting. The endpoint acks a step only after all K producers
delivered it and the analysis bridge has run, so the simulation computes
while the endpoint analyses, and is never more than one shipped step
ahead of it (backpressure). drain() reads the last ack. A producer
sends nothing between a step and reading its ack, so one thread serves
the whole endpoint: a selector loop over the listener and every
connection handles each connection's next message in place.

Both sides read frames with a FrameReader: it reads a frame's 14-byte
header, checks it, then reads exactly the payload it declares into one
buffer of the frame's size and decodes the frame once, so receiving is
linear in the payload size. Decoded field values are read-only views
over that buffer, which the data model adopts without a copy.

Both sides give up after STEP_TIMEOUT seconds: a producer waiting for
an ack, and an endpoint that hears nothing from any connection. An idle
endpoint then abandons a step still missing some producers' blocks, or
exits if no producer ever connected. A producer tries to connect
CONNECT_RETRIES + 1 times, sleeping RETRY_BACKOFF seconds times the
attempt number after each failure. These are module constants, not
options: every role reads the same values.

Failure policy: a producer disconnecting mid-step discards that step;
the other producers of that step receive an ack carrying the ERROR_STEP
sentinel, which they surface as a protocol error naming the step, at
their next send_step or at drain(), and terminate on. Producers at
different step numbers in the same round are a fatal protocol error.
"""

from __future__ import annotations

import logging
import selectors
import socket
import time
from dataclasses import dataclass, field

from nekmini.data_model import Block, Snapshot, assemble_global
from nekmini.wire import (
    ERROR_STEP,
    HEADER,
    BlockPayload,
    Bye,
    Hello,
    HelloAck,
    ProtocolError,
    StepAck,
    StepHeader,
    WireMessage,
    check_header,
    decode_message,
    encode_message,
)

log = logging.getLogger(__name__)


STEP_TIMEOUT = 120.0  # s either side waits for the other before giving up
CONNECT_RETRIES = 20  # connection attempts after the first
RETRY_BACKOFF = 0.25  # s; the sleep after failed attempt n is n times this


class TransportError(RuntimeError):
    pass


class AckTimeout(TransportError):
    pass


class ConnectionLost(TransportError):
    pass


def parse_address(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"address must be host:port, got {text!r}")
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
        frame = bytearray(total)
        frame[:HEADER.size] = header
        self._recv_into(memoryview(frame)[HEADER.size:], deadline)
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
    host, port = parse_address(address)
    last: Exception | None = None
    for attempt in range(CONNECT_RETRIES + 1):
        try:
            return socket.create_connection((host, port), timeout=10.0)
        except OSError as e:
            last = e
            time.sleep(RETRY_BACKOFF * (attempt + 1))
    raise TransportError(f"cannot reach endpoint {address}: {last}")


class ProducerConnection:
    """Connects, handshakes, and streams steps one shipped step ahead of
    their acks.

    `_unacked` is the step shipped whose ack is not read yet, or None.
    Reading that ack is the first thing the next send_step, drain() and
    close() do, so an error ack surfaces before any byte of a later step
    is sent.
    """

    def __init__(self, endpoint_address: str, producer_id: int):
        self.bytes_sent = 0
        self._unacked: int | None = None
        self.sock = _connect(endpoint_address)
        self.reader = FrameReader(self.sock)
        try:
            self._send(Hello(producer_id))
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

    def _send(self, m: WireMessage):
        data = encode_message(m)
        try:
            self.sock.sendall(data)
        except OSError as e:
            raise ConnectionLost(f"send failed: {e}") from e
        self.bytes_sent += len(data)

    def send_step(self, s: Snapshot) -> int:
        """Read the previous step's ack, then send `s` without waiting for
        its own; returns s.step."""
        self.drain()
        self._send(StepHeader(s.step, s.time, len(s.blocks)))
        for b in s.blocks:
            self._send(BlockPayload(b))
        self._unacked = s.step
        return s.step

    def drain(self):
        """Read the ack of the last step shipped, if it is still unread.

        Raises ProtocolError naming that step if the endpoint abandoned it.
        After any error the stream is unusable, so nothing is left unread.
        """
        step, self._unacked = self._unacked, None
        if step is None:
            return
        ack = self.reader.recv_message()
        if not isinstance(ack, StepAck):
            raise ProtocolError(f"expected StepAck, got {type(ack).__name__}")
        if ack.step == ERROR_STEP:
            raise ProtocolError(f"endpoint abandoned step {step}")
        if ack.step != step:
            raise ProtocolError(f"ack for step {ack.step}, expected {step}")

    def close(self):
        """Read any unread ack, say Bye, close; never raises."""
        try:
            self.drain()
            self._send(Bye())
        except (TransportError, ProtocolError, OSError):
            pass
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
    the fan-in ratio.
    """

    def __init__(self, listen_address: str, expected_producers: int, bridge):
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

        Each selector key carries (producer id, or None before its Hello,
        and its FrameReader). A producer sends nothing between its step
        and the ack, so a readable connection's whole next message can be
        read in place.
        """
        k, timeout, summary = self.expected_producers, STEP_TIMEOUT, self.summary
        sel = selectors.DefaultSelector()
        sel.register(self._listener, selectors.EVENT_READ)
        registered: set[int] = set()
        conns: dict[int, socket.socket] = {}  # registered producers not yet gone
        pending: dict[int, tuple[StepHeader, list[Block]]] = {}
        aborted = False

        def close(conn: socket.socket):
            summary.bytes_received += sel.unregister(conn).data[1].bytes_consumed
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
            ordered = sorted(pending.items())
            pending.clear()
            header = ordered[0][1][0]
            try:
                global_block = assemble_global([b for _, (_, blocks) in ordered for b in blocks])
                snapshot = Snapshot(
                    time=header.time, step=header.step, producer_id=0, blocks=(global_block,)
                )
                self.bridge.update(snapshot)
                summary.steps_completed += 1
                step = header.step
            except Exception as e:
                summary.errors.append(f"step {header.step}: {type(e).__name__}: {e}")
                summary.incomplete_steps += 1
                step = ERROR_STEP
            ack([pid for pid, _ in ordered], step)

        def greet(conn: socket.socket, reader: FrameReader):
            try:
                hello = reader.recv_message()
                if not isinstance(hello, Hello):
                    raise ProtocolError(f"expected Hello, got {type(hello).__name__}")
                pid = hello.producer_id
                accept = pid not in registered and len(registered) < k and not aborted
                if not accept:
                    summary.rejected_connections += 1
                conn.sendall(encode_message(HelloAck(accept)))
            except (TransportError, ProtocolError, OSError):
                accept = False
            if not accept:
                close(conn)
                return
            registered.add(pid)
            summary.producers_seen += 1
            conns[pid] = conn
            sel.modify(conn, selectors.EVENT_READ, (pid, reader))

        def receive(pid: int, reader: FrameReader):
            try:
                msg = reader.recv_message()
                if pid in pending:
                    raise ProtocolError(f"{type(msg).__name__} before the ack of step "
                                        f"{pending[pid][0].step}")
                if isinstance(msg, Bye):
                    depart(pid)
                    return
                if not isinstance(msg, StepHeader):
                    raise ProtocolError(f"expected StepHeader or Bye, got {type(msg).__name__}")
                blocks = []
                for _ in range(msg.block_count):
                    payload = reader.recv_message()
                    if not isinstance(payload, BlockPayload):
                        raise ProtocolError(f"expected BlockPayload, got {type(payload).__name__}")
                    blocks.append(payload.block)
            except (TransportError, ProtocolError, OSError) as e:
                depart(pid, f"producer {pid}: {e}")
                return
            if aborted:
                ack([pid], ERROR_STEP)
                return
            pending[pid] = (msg, blocks)
            if len(pending) == k:
                steps = {header.step for header, _ in pending.values()}
                if len(steps) != 1:
                    fail(f"producers disagree on step: {sorted(steps)}")
                else:
                    complete()

        try:
            while not (registered and not conns and (len(registered) == k or aborted)):
                events = sel.select(timeout)
                if not events:
                    if pending:
                        step = next(iter(pending.values()))[0].step
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
                        sel.register(conn, selectors.EVENT_READ, (None, FrameReader(conn)))
                        continue
                    pid, reader = key.data
                    if pid is None:
                        greet(key.fileobj, reader)
                    elif conns.get(pid) is key.fileobj:  # not dropped earlier in this batch
                        receive(pid, reader)
        finally:
            for key in list(sel.get_map().values()):
                if key.fileobj is not self._listener:
                    close(key.fileobj)
            sel.close()
            self._listener.close()
        return summary
