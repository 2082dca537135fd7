"""Worker agents and the wire protocol between the center node and workers.

Messages are length-delimited JSON over a TCP byte stream: a 4-byte big-endian
length prefix followed by a UTF-8 JSON object. The center sends one ``job``
message per dispatch (the job fields plus the assigned ``slot``); the worker
answers with a stream of ``log`` frames and ends it with the job's one result
frame: a ``fitness`` (``{"type":"fitness","value":...,"duration_s":...}``) or
an ``error``. A job whose backend spawns a trainer process (the command
backend) also gets a ``process_start`` naming the trainer's pid, the unit the
engine's ``cancel()`` stops with a ``kill`` message; an in-process backend
gets none. The center republishes the process and log frames on its bus and
returns the fitness frame's value and duration to the engine, whose scheduler
core publishes the job's one result. A frame that breaks the protocol -- a
body that is not a UTF-8 JSON object, or a ``fitness`` or ``process_start``
frame with a missing or ill-typed field -- fails the attempt as a lost
worker, and its connection is closed. A request the worker cannot read gets
an ``error`` frame, and the connection goes on serving.

A job connection outlives its job: the worker serves messages on it until
EOF, and the center keeps it idle after the job's result frame and sends the
next job for that worker over it, so a busy slot holds one connection rather
than one per job. A connection also carries the run's settings: the first
``job`` frame on it holds the whole settings map, and a later one whose
settings equal the previous frame's holds ``"settings": null``. The worker
keeps, per connection, the settings last sent and the one backend built from
them, so a lookup table is read once per connection. A null-settings frame as
a connection's first job gets an ``error`` frame, and so does a frame without
the key, which is never read as empty settings. The value is null, never a
missing key: a worker that predates it answers null with an ``error`` frame,
where a missing key would train under default settings. A ``kill`` uses a
connection of its own, so it never waits behind a running job. Both ends set
``TCP_NODELAY``: on a reused connection Nagle's algorithm would hold the
small reply frames back until the peer's delayed ACK arrives. An older worker
that still sends a frame after the result is served too: a frame already
waiting on an idle connection makes the center drop it and send the next job
on a new one, and a frame of a type the center does not know is skipped.

The worker agent CLI is ``evonas worker --listen <addr> --slots <n> --backend
<kind>``.
"""

from __future__ import annotations

import json
import logging
import math
import select
import socket
import struct
import threading
from dataclasses import dataclass, field, replace

from .backends import CommandBackend, build_backend
from .bus import InProcessBus, LogRecord, ProcessRecord
from .engine import local_terminator
from .errors import JobFailed, WorkerLostError
from .jobs import JobSpec

logger = logging.getLogger(__name__)

_HEADER = struct.Struct(">I")
MAX_MESSAGE_BYTES = 16 * 1024 * 1024


def send_msg(sock: socket.socket, payload: dict) -> None:
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    sock.sendall(_HEADER.pack(len(body)) + body)


def recv_msg(sock: socket.socket) -> dict | None:
    """Read one framed message, a JSON object; None on a clean EOF at a frame boundary.

    A frame that is not a UTF-8 JSON object raises ``WorkerLostError``: the
    peer is out of step with the protocol.
    """
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise WorkerLostError(f"oversized frame ({length} bytes)")
    body = _recv_exact(sock, length)
    if body is None:
        raise WorkerLostError("connection closed mid-frame")
    try:
        msg = json.loads(body.decode("utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise WorkerLostError(f"malformed frame: {exc}") from exc
    if not isinstance(msg, dict):
        raise WorkerLostError(f"frame is a JSON {type(msg).__name__}, not an object")
    return msg


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    chunks = b""
    while len(chunks) < n:
        chunk = sock.recv(n - len(chunks))
        if not chunk:
            if chunks:
                raise WorkerLostError("connection closed mid-frame")
            return None
        chunks += chunk
    return chunks


class WorkerAgent:
    """Executes jobs on this machine's slots and streams records back."""

    def __init__(self, host: str, port: int, slots: int, backends: tuple[str, ...] = ("surrogate",)):
        self.host = host
        self.port = port
        self.slots = slots
        self.backends = backends
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._server: socket.socket | None = None
        self._conns: set[socket.socket] = set()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def stop(self) -> None:
        """Stop accepting, and end every open connection so its handler thread exits."""
        with self._lock:
            self._stop.set()
            conns = list(self._conns)
            listening = self._server is not None
        if listening:  # wake serve_forever from its accept; loopback reaches a wildcard bind
            host = "127.0.0.1" if self.host in ("", "0.0.0.0") else self.host
            try:
                socket.create_connection((host, self.port), timeout=1.0).close()
            except OSError:
                pass
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def serve_forever(self, ready: threading.Event | None = None) -> None:
        """Serve connections until ``stop()``, which also ends a serve that has not begun."""
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as server:
            server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            server.bind((self.host, self.port))
            self.port = server.getsockname()[1]
            server.listen(self.slots + 4)
            with self._lock:
                if self._stop.is_set():
                    return
                self._server = server
            logger.info("worker listening on %s with %d slots", self.address, self.slots)
            if ready is not None:
                ready.set()
            while True:
                conn, _ = server.accept()
                if self._stop.is_set():  # stop()'s wake-up, or a peer that came after it
                    conn.close()
                    return
                threading.Thread(target=self._handle, args=(conn,), daemon=True).start()

    def _handle(self, conn: socket.socket) -> None:
        """Serve one connection's messages in order until EOF."""
        with self._lock:
            if self._stop.is_set():
                conn.close()
                return
            self._conns.add(conn)
        bound: _Bound | None = None  # the connection's settings, once a job frame sent them
        try:
            with conn:
                _no_delay(conn)
                while (msg := recv_msg(conn)) is not None:
                    kind = msg.get("type")
                    if kind == "job":
                        bound = self._run_job(conn, msg, bound)
                    elif kind == "kill":
                        try:
                            local_terminator(self.address, _field(msg, "pid", int))
                            reply = {"type": "ok"}
                        except WorkerLostError as exc:  # a kill it cannot read
                            reply = {"type": "error", "message": str(exc)}
                        send_msg(conn, reply)
        except (WorkerLostError, OSError):
            pass
        finally:
            with self._lock:
                self._conns.discard(conn)

    def _run_job(self, conn: socket.socket, msg: dict, bound: _Bound | None) -> _Bound | None:
        """Run one job, streaming its process and log frames; its result frame ends the stream.

        ``bound`` holds the settings this connection carries and the backend
        built from them; returns what the connection carries after this frame.
        """

        def announce(pid: int) -> None:
            send_msg(conn, {"type": "process_start", "node": self.address, "pid": pid, "job": job.name})

        try:
            if "settings" not in msg:  # never read as empty settings: the job would train under defaults
                raise JobFailed("job frame without settings")
            settings = msg["settings"]
            if settings is not None:  # kept before any other field is read: the center counts it sent
                if not isinstance(settings, dict):
                    raise JobFailed(f"job frame with ill-typed settings: {settings!r}")
                bound = _Bound(settings)
            elif bound is None:
                raise JobFailed("job frame with null settings as its connection's first job")
            job = JobSpec.from_message(msg, bound.settings)
            slot = int(msg.get("slot", 0))
            if job.backend not in self.backends:
                raise JobFailed(f"backend {job.backend!r} not supported here")
            backend = bound.backend
            if backend is None or backend.kind != job.backend:
                backend = bound.backend = build_backend(job.backend, bound.settings)
            if isinstance(backend, CommandBackend):
                backend = replace(backend, on_spawn=announce)
            value, duration = backend.evaluate(
                job,
                emit_log=lambda line: send_msg(conn, {"type": "log", "job": job.name, "line": line}),
                slot_id=slot,
            )
            result = {"type": "fitness", "value": value, "duration_s": duration}
        except Exception as exc:  # a request it cannot read, or a failed job: the center's job failure
            result = {"type": "error", "message": str(exc), "log_tail": getattr(exc, "log_tail", "")}
        send_msg(conn, result)
        return bound


@dataclass
class _Bound:
    """The settings a job connection carries, and the backend built from them (None until a job needs it)."""

    settings: dict
    backend: object | None = None


def _field(msg: dict, name: str, kind: type | tuple[type, ...]):
    """Field ``name`` of a frame, of type ``kind``; ``WorkerLostError`` when missing or ill-typed."""
    value = msg.get(name)
    if isinstance(value, bool) or not isinstance(value, kind):  # a JSON true is no number
        raise WorkerLostError(f"{msg.get('type')} frame with a missing or ill-typed {name!r}: {value!r}")
    return value


class _ClosedBeforeReply(WorkerLostError):
    """The worker closed a job connection before sending any frame for the job."""


def _no_delay(sock: socket.socket) -> None:
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def _closed_by_peer(sock: socket.socket) -> bool:
    """True when an idle connection is readable: the peer closed it (or broke the protocol)."""
    try:
        readable, _, _ = select.select([sock], [], [], 0)
    except (OSError, ValueError):
        return True
    return bool(readable)


@dataclass
class TcpTransport:
    """Center-side client for worker agents.

    Job connections are pooled per node: ``run_job`` takes an idle one (or
    connects), holds it for the job, and puts it back only after the job's
    stream ended cleanly with its result frame; any other end closes it.
    A pooled connection keeps the settings it last sent, and goes with them.
    A job whose reused connection closes before any reply is sent once more
    on a new connection, within the same attempt.
    """

    connect_timeout: float = 5.0
    io_timeout: float = 600.0
    # node -> idle connections, each with the settings it last sent
    _idle: dict[str, list[tuple[socket.socket, dict]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False, compare=False)

    def _connect(self, node: str) -> socket.socket:
        host, _, port = node.rpartition(":")
        try:
            sock = socket.create_connection((host, int(port)), timeout=self.connect_timeout)
        except OSError as exc:
            raise WorkerLostError(f"cannot reach worker {node}: {exc}") from exc
        sock.settimeout(self.io_timeout)
        _no_delay(sock)
        return sock

    def _checkout(self, node: str) -> tuple[socket.socket, dict | None]:
        """An idle connection to ``node`` that the worker has not closed, with the settings
        it last sent; else a new connection, which has sent none."""
        while True:
            with self._lock:
                idle = self._idle.get(node)
                conn = idle.pop() if idle else None
            if conn is None:
                return self._connect(node), None
            if not _closed_by_peer(conn[0]):
                return conn
            conn[0].close()

    def _checkin(self, node: str, sock: socket.socket, sent: dict) -> None:
        with self._lock:
            self._idle.setdefault(node, []).append((sock, sent))

    def close(self) -> None:
        """Close every idle job connection; connections in use close when their job ends."""
        with self._lock:
            idle = [sock for conns in self._idle.values() for sock, _ in conns]
            self._idle.clear()
        for sock in idle:
            sock.close()

    def run_job(self, job: JobSpec, node: str, slot: int, bus: InProcessBus) -> tuple[float, float]:
        """Dispatch one job to a worker, republishing its process and log records;
        returns the fitness frame's (value, duration)."""
        sock, sent = self._checkout(node)
        try:
            return self._exchange(sock, sent, job, node, slot, bus)
        except _ClosedBeforeReply:
            if sent is None:  # not a reused connection
                raise
        # The worker closed the pooled connection as it was taken, too late for
        # the liveness check to see it (a worker older than connection reuse
        # closes after every job). No frame came back, so the worker had not
        # taken the job up: send it once more, on a new connection.
        return self._exchange(self._connect(node), None, job, node, slot, bus)

    def _exchange(
        self, sock: socket.socket, sent: dict | None, job: JobSpec, node: str, slot: int, bus: InProcessBus
    ) -> tuple[float, float]:
        """Send one job over ``sock``, whose last job frame sent the settings ``sent``
        (None on a new connection), and read its stream through its result frame, the last one."""
        result: tuple[float, float] | None = None
        error: JobFailed | None = None
        procs: list[tuple[str, int]] = []
        replied = False
        request = job.to_message()
        request["slot"] = slot
        if job.settings == sent:  # the connection carries them already
            request["settings"] = None
        else:  # a copy, so a later change to the job's map still counts as a change
            sent = dict(job.settings)
        try:
            send_msg(sock, request)
            while result is None and error is None:
                msg = recv_msg(sock)
                if msg is None:
                    if not replied:
                        raise _ClosedBeforeReply(f"worker {node} closed the connection before replying")
                    raise WorkerLostError(f"worker {node} closed the connection before the job's result")
                replied = True
                kind = msg.get("type")
                if kind == "process_start":
                    proc = (_field(msg, "node", str), _field(msg, "pid", int))
                    procs.append(proc)
                    bus.process_started(ProcessRecord(*proc, job_name=job.name))
                elif kind == "log":
                    bus.publish(LogRecord(job_name=job.name, line=msg.get("line", "")))
                elif kind == "fitness":
                    value = float(_field(msg, "value", (int, float)))
                    duration = float(_field(msg, "duration_s", (int, float)))
                    if not (0 <= value <= 100 and 0 <= duration < math.inf):  # also refuses NaN
                        raise WorkerLostError(f"fitness frame out of range: {msg!r}")
                    result = (value, duration)
                elif kind == "error":
                    error = JobFailed(msg.get("message", "worker error"), msg.get("log_tail", ""))
        except OSError as exc:
            sock.close()
            if isinstance(exc, ConnectionError) and not replied:
                raise _ClosedBeforeReply(f"worker {node} closed the connection before replying: {exc}") from exc
            raise WorkerLostError(f"lost worker {node} mid-job: {exc}") from exc
        except BaseException:  # the stream is out of step: never reuse the connection
            sock.close()
            raise
        finally:
            for proc_node, pid in procs:  # the stream ended, or the connection died before it did
                bus.process_finished(proc_node, pid, job.name)
        self._checkin(node, sock, sent)
        if error is not None:
            raise error
        return result

    def kill(self, node: str, pid: int) -> None:
        try:
            with self._connect(node) as sock:
                send_msg(sock, {"type": "kill", "pid": pid})
                recv_msg(sock)
        except WorkerLostError:
            logger.warning("could not deliver kill to %s pid %d", node, pid)


def remote_runner(transport: TcpTransport):
    """Slot runner over ``transport``; it carries the transport's ``kill`` and ``close``,
    so an engine built on it kills remote trainers and closes idle connections."""

    def run(job: JobSpec, node: str, slot: int, bus: InProcessBus) -> tuple[float, float]:
        return transport.run_job(job, node, slot, bus)

    run.kill = transport.kill
    run.close = transport.close
    return run
