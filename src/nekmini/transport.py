"""In transit staging transport: N producers stream snapshots to one
endpoint over the framed wire protocol.

Step semantics are synchronous: a producer sends StepHeader plus one
BlockPayload per block, then blocks until the endpoint acks that step.
The endpoint acks only after all K producers delivered the step and the
analysis bridge has run, so the simulation can never outrun the endpoint
by more than one in-flight step (backpressure).

Failure policy: a producer disconnecting mid-step discards that step;
producers still waiting receive an ack carrying the ERROR_STEP sentinel,
which they surface as a protocol error and terminate on. Producers at
different step numbers in the same round are a fatal protocol error.
"""

from __future__ import annotations

import logging
import queue
import socket
import threading
import time
from dataclasses import dataclass, field

from nekmini.data_model import Block, Snapshot, assemble_global
from nekmini.wire import (
    ERROR_STEP,
    BlockPayload,
    Bye,
    Hello,
    HelloAck,
    ProtocolError,
    StepAck,
    StepHeader,
    WireMessage,
    decode_message,
    encode_message,
)

log = logging.getLogger(__name__)


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
    """Incremental frame decoder over a socket."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buf = bytearray()
        self.bytes_consumed = 0

    def recv_message(self, timeout: float | None = None) -> WireMessage:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            msg, consumed = decode_message(bytes(self.buf))
            if msg is not None:
                del self.buf[:consumed]
                self.bytes_consumed += consumed
                return msg
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise AckTimeout("timed out waiting for a frame")
                self.sock.settimeout(remaining)
            else:
                self.sock.settimeout(None)
            try:
                chunk = self.sock.recv(1 << 16)
            except socket.timeout:
                raise AckTimeout("timed out waiting for a frame") from None
            if not chunk:
                raise ConnectionLost("connection closed by peer")
            self.buf.extend(chunk)


# ---------------------------------------------------------------------------
# producer side
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProducerConfig:
    endpoint_address: str
    producer_id: int
    connect_retries: int = 20
    retry_backoff: float = 0.25
    step_timeout: float = 60.0


class ProducerConnection:
    """Connects, handshakes, and streams steps with blocking ack semantics."""

    def __init__(self, cfg: ProducerConfig):
        self.cfg = cfg
        self.bytes_sent = 0
        self.sock = self._connect()
        self.reader = FrameReader(self.sock)
        self._send(Hello(cfg.producer_id))
        ack = self.reader.recv_message(cfg.step_timeout)
        if not isinstance(ack, HelloAck):
            raise ProtocolError(f"expected HelloAck, got {type(ack).__name__}")
        if not ack.accepted:
            raise TransportError(
                f"endpoint rejected producer {cfg.producer_id} (duplicate id or endpoint full)"
            )

    def _connect(self) -> socket.socket:
        host, port = parse_address(self.cfg.endpoint_address)
        last: Exception | None = None
        for attempt in range(self.cfg.connect_retries + 1):
            try:
                return socket.create_connection((host, port), timeout=10.0)
            except OSError as e:
                last = e
                time.sleep(self.cfg.retry_backoff * (attempt + 1))
        raise TransportError(f"cannot reach endpoint {self.cfg.endpoint_address}: {last}")

    def _send(self, m: WireMessage):
        data = encode_message(m)
        try:
            self.sock.sendall(data)
        except OSError as e:
            raise ConnectionLost(f"send failed: {e}") from e
        self.bytes_sent += len(data)

    def send_step(self, s: Snapshot) -> int:
        """Send one snapshot and block until the endpoint acks its step."""
        self._send(StepHeader(s.step, s.time, len(s.blocks)))
        for b in s.blocks:
            self._send(BlockPayload(b))
        ack = self.reader.recv_message(self.cfg.step_timeout)
        if not isinstance(ack, StepAck):
            raise ProtocolError(f"expected StepAck, got {type(ack).__name__}")
        if ack.step == ERROR_STEP:
            raise ProtocolError(f"endpoint abandoned step {s.step}")
        if ack.step != s.step:
            raise ProtocolError(f"ack for step {ack.step}, expected {s.step}")
        return ack.step

    def close(self):
        try:
            self._send(Bye())
        except TransportError:
            pass
        self.sock.close()


# ---------------------------------------------------------------------------
# endpoint side
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EndpointConfig:
    listen_address: str = "127.0.0.1:0"
    expected_producers: int = 4  # the fan-in ratio K
    step_timeout: float = 60.0


@dataclass
class EndpointSummary:
    steps_completed: int = 0
    incomplete_steps: int = 0
    bytes_received: int = 0
    producers_seen: int = 0
    rejected_connections: int = 0
    errors: list[str] = field(default_factory=list)


class _PendingStep:
    def __init__(self, header: StepHeader, blocks: list[Block]):
        self.header = header
        self.blocks = blocks
        self.done = threading.Event()
        self.ok = False


class Endpoint:
    """Accepts exactly K producers and feeds assembled steps to a bridge.

    `bridge` is any object with update(snapshot) and finalize(); each
    completed step invokes update exactly once with the global block
    assembled from all K producer blocks ordered by producer id.
    """

    def __init__(self, cfg: EndpointConfig, bridge):
        self.cfg = cfg
        self.bridge = bridge
        self.summary = EndpointSummary()
        self._events: queue.Queue = queue.Queue()
        self._lock = threading.Lock()  # guards registry and summary counters
        self._registered: set[int] = set()
        self._aborted = False
        host, port = parse_address(cfg.listen_address)
        self._listener = socket.create_server((host, port))
        self._threads: list[threading.Thread] = []

    @property
    def address(self) -> str:
        host, port = self._listener.getsockname()[:2]
        return f"{host}:{port}"

    def serve(self) -> EndpointSummary:
        """Run until every accepted producer has left; returns the summary."""
        accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        accept_thread.start()
        try:
            self._coordinate()
        finally:
            self._listener.close()
            for t in list(self._threads):
                t.join(timeout=5.0)
        return self.summary

    # --- connection handling -------------------------------------------

    def _accept_loop(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            t = threading.Thread(target=self._serve_connection, args=(conn,), daemon=True)
            t.start()
            self._threads.append(t)

    def _serve_connection(self, conn: socket.socket):
        reader = FrameReader(conn)
        pid: int | None = None
        try:
            hello = reader.recv_message(self.cfg.step_timeout)
            if not isinstance(hello, Hello):
                raise ProtocolError(f"expected Hello, got {type(hello).__name__}")
            with self._lock:
                accept = (
                    hello.producer_id not in self._registered
                    and len(self._registered) < self.cfg.expected_producers
                    and not self._aborted
                )
                if accept:
                    self._registered.add(hello.producer_id)
                    self.summary.producers_seen += 1
                else:
                    self.summary.rejected_connections += 1
            conn.sendall(encode_message(HelloAck(accept)))
            if not accept:
                return
            pid = hello.producer_id

            while True:
                msg = reader.recv_message(None)
                if isinstance(msg, Bye):
                    self._events.put(("bye", pid, None))
                    pid = None  # departed cleanly; no "gone" event on close
                    return
                if not isinstance(msg, StepHeader):
                    raise ProtocolError(f"expected StepHeader or Bye, got {type(msg).__name__}")
                blocks = []
                for _ in range(msg.block_count):
                    payload = reader.recv_message(self.cfg.step_timeout)
                    if not isinstance(payload, BlockPayload):
                        raise ProtocolError(f"expected BlockPayload, got {type(payload).__name__}")
                    blocks.append(payload.block)
                pending = _PendingStep(msg, blocks)
                self._events.put(("step", pid, pending))
                pending.done.wait()
                conn.sendall(encode_message(StepAck(msg.step if pending.ok else ERROR_STEP)))
                if not pending.ok:
                    return
        except (TransportError, ProtocolError, OSError) as e:
            if pid is not None:
                self._events.put(("gone", pid, f"producer {pid}: {e}"))
                pid = None
        finally:
            with self._lock:
                self.summary.bytes_received += reader.bytes_consumed
            if pid is not None:
                self._events.put(("gone", pid, f"producer {pid}: connection closed"))
            conn.close()

    # --- step coordination ----------------------------------------------

    def _coordinate(self):
        k = self.cfg.expected_producers
        departed: set[int] = set()
        pending: dict[int, _PendingStep] = {}

        def fail_pending(reason: str):
            self.summary.incomplete_steps += 1
            self.summary.errors.append(reason)
            for p in pending.values():
                p.ok = False
                p.done.set()
            pending.clear()

        def all_departed() -> bool:
            with self._lock:
                reg = set(self._registered)
            return bool(reg) and departed >= reg and (len(reg) == k or self._aborted)

        while True:
            try:
                kind, pid, payload = self._events.get(timeout=self.cfg.step_timeout)
            except queue.Empty:
                if pending:
                    fail_pending(
                        f"timed out after {self.cfg.step_timeout}s waiting for stragglers "
                        f"at step {next(iter(pending.values())).header.step}"
                    )
                    self._aborted = True
                else:
                    with self._lock:
                        reg = set(self._registered)
                    if reg and departed >= reg:
                        return  # idle and everyone who joined has left
                continue

            if kind == "step":
                if self._aborted:
                    payload.ok = False
                    payload.done.set()
                    continue
                pending[pid] = payload
                if len(pending) == k:
                    steps = {p.header.step for p in pending.values()}
                    if len(steps) != 1:
                        fail_pending(f"producers disagree on step: {sorted(steps)}")
                        self._aborted = True
                        continue
                    self._complete_step(pending)
                    pending.clear()
            else:  # bye / gone
                departed.add(pid)
                if kind == "gone":
                    self.summary.errors.append(payload)
                    if pending:
                        fail_pending(f"step discarded: {payload}")
                    self._aborted = True
                if all_departed():
                    return

    def _complete_step(self, pending: dict[int, _PendingStep]):
        ordered = sorted(pending.items())
        blocks = [b for _, p in ordered for b in p.blocks]
        header = ordered[0][1].header
        try:
            global_block = assemble_global(blocks)
            snapshot = Snapshot(
                time=header.time, step=header.step, producer_id=0, blocks=(global_block,)
            )
            self.bridge.update(snapshot)
            self.summary.steps_completed += 1
            ok = True
        except Exception as e:
            self.summary.errors.append(f"step {header.step}: {type(e).__name__}: {e}")
            self.summary.incomplete_steps += 1
            ok = False
        for _, p in ordered:
            p.ok = ok
            p.done.set()
