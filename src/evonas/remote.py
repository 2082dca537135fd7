"""Worker agents and the wire protocol between the center node and workers.

Messages are length-delimited JSON over a TCP byte stream: a 4-byte big-endian
length prefix followed by a UTF-8 JSON object. The center sends one ``job``
message per dispatch (the job fields plus the assigned ``slot``); the worker
answers with a stream of ``process_start``, ``log``, one ``fitness``
(``{"type":"fitness","identifier":...,"value":...,"duration_s":...}``) or one
``error``, and always a final ``process_end``, which ends the job's stream.
``poll`` and ``kill`` messages support slot reconciliation and run
interruption. The center republishes the process and log frames on its bus
and returns the fitness frame's value and duration to the engine, whose
attempt ledger publishes the job's one fitness record.

A job connection outlives its job: the worker serves messages on it until
EOF, and the center keeps it idle after a clean ``process_end`` and sends the
next job for that worker over it, so a busy slot holds one connection rather
than one per job. ``poll`` and ``kill`` use a connection of their own
each, so a kill never waits behind a running job. Both ends set
``TCP_NODELAY``: on a reused connection Nagle's algorithm would hold the small
reply frames back until the peer's delayed ACK arrives.

The worker agent CLI is ``evonas worker --listen <addr> --slots <n> --backend
<kind>``.
"""

from __future__ import annotations

import json
import logging
import os
import select
import signal
import socket
import struct
import threading
import time
from dataclasses import dataclass, field, replace

from .backends import CommandBackend, build_backend
from .bus import InProcessBus, LogRecord, ProcessRecord
from .errors import JobFailed, WorkerLostError
from .jobs import JobSpec
from .slots import SlotStore, SlotStatus, WorkerDescriptor

logger = logging.getLogger(__name__)

_HEADER = struct.Struct(">I")
MAX_MESSAGE_BYTES = 16 * 1024 * 1024


def send_msg(sock: socket.socket, payload: dict) -> None:
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    sock.sendall(_HEADER.pack(len(body)) + body)


def recv_msg(sock: socket.socket) -> dict | None:
    """Read one framed message; None on a clean EOF at a frame boundary."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise WorkerLostError(f"oversized frame ({length} bytes)")
    body = _recv_exact(sock, length)
    if body is None:
        raise WorkerLostError("connection closed mid-frame")
    return json.loads(body.decode("utf-8"))


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
        self._busy: dict[int, str] = {}
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
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def serve_forever(self, ready: threading.Event | None = None) -> None:
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as server:
            server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            server.bind((self.host, self.port))
            self.port = server.getsockname()[1]
            server.listen(self.slots + 4)
            server.settimeout(0.2)
            self._server = server
            logger.info("worker listening on %s with %d slots", self.address, self.slots)
            if ready is not None:
                ready.set()
            while not self._stop.is_set():
                try:
                    conn, _ = server.accept()
                except socket.timeout:
                    continue
                threading.Thread(target=self._handle, args=(conn,), daemon=True).start()

    def _handle(self, conn: socket.socket) -> None:
        """Serve one connection's messages in order until EOF."""
        with self._lock:
            if self._stop.is_set():
                conn.close()
                return
            self._conns.add(conn)
        # one backend per (kind, settings) for as long as the connection lives,
        # so a lookup table is read once per connection, not once per job
        backends: dict[tuple, object] = {}
        try:
            with conn:
                _no_delay(conn)
                while (msg := recv_msg(conn)) is not None:
                    kind = msg.get("type")
                    if kind == "job":
                        self._run_job(conn, msg, backends)
                    elif kind == "poll":
                        with self._lock:
                            slots = {str(i): self._busy.get(i) for i in range(self.slots)}
                        send_msg(conn, {"type": "status", "node": self.address, "pid": os.getpid(), "slots": slots})
                    elif kind == "kill":
                        self._kill(int(msg.get("pid", -1)))
                        send_msg(conn, {"type": "ok"})
        except (WorkerLostError, json.JSONDecodeError, OSError):
            pass
        finally:
            with self._lock:
                self._conns.discard(conn)

    def _kill(self, pid: int) -> None:
        if pid <= 0 or pid == os.getpid():
            return
        try:
            os.kill(pid, signal.SIGTERM)
        except (ProcessLookupError, PermissionError):
            pass

    def _run_job(self, conn: socket.socket, msg: dict, backends: dict[tuple, object]) -> None:
        job = JobSpec.from_message(msg)
        slot = int(msg.get("slot", 0))
        if job.backend not in self.backends:
            send_msg(conn, {"type": "error", "message": f"backend {job.backend!r} not supported here"})
            send_msg(conn, {"type": "process_end", "node": self.address, "pid": os.getpid(), "job": job.name})
            return
        with self._lock:
            self._busy[slot] = job.name
        pid_box = {"pid": os.getpid()}

        def announce(pid: int) -> None:
            pid_box["pid"] = pid
            send_msg(conn, {"type": "process_start", "node": self.address, "pid": pid, "job": job.name})

        try:
            key = (job.backend, tuple(sorted(job.settings.items())))
            backend = backends.get(key)
            if backend is None:
                backend = backends[key] = build_backend(job.backend, job.settings)
            if isinstance(backend, CommandBackend):
                backend = replace(backend, on_spawn=announce)
            else:
                announce(os.getpid())
            value, duration = backend.evaluate(
                job,
                emit_log=lambda line: send_msg(conn, {"type": "log", "job": job.name, "line": line}),
                slot_id=slot,
            )
            send_msg(
                conn,
                {
                    "type": "fitness",
                    "job": job.name,
                    "identifier": job.identifier,
                    "value": value,
                    "duration_s": duration,
                },
            )
        except Exception as exc:  # surfaced to the center as a job failure
            tail = getattr(exc, "log_tail", "")
            try:
                send_msg(conn, {"type": "error", "message": str(exc), "log_tail": tail})
            except OSError:
                pass
        finally:
            try:
                send_msg(conn, {"type": "process_end", "node": self.address, "pid": pid_box["pid"], "job": job.name})
            except OSError:
                pass
            with self._lock:
                self._busy.pop(slot, None)


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
    stream ended cleanly with ``process_end``; any error closes it instead.
    A job whose reused connection closes before any reply is sent once more
    on a new connection, within the same attempt.
    """

    connect_timeout: float = 5.0
    io_timeout: float = 600.0
    _idle: dict[str, list[socket.socket]] = field(default_factory=dict, init=False, repr=False, compare=False)
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

    def _checkout(self, node: str) -> tuple[socket.socket, bool]:
        """An idle connection to ``node`` that the worker has not closed, else a new one;
        and whether it was reused."""
        while True:
            with self._lock:
                idle = self._idle.get(node)
                sock = idle.pop() if idle else None
            if sock is None:
                return self._connect(node), False
            if not _closed_by_peer(sock):
                return sock, True
            sock.close()

    def _checkin(self, node: str, sock: socket.socket) -> None:
        with self._lock:
            self._idle.setdefault(node, []).append(sock)

    def close(self) -> None:
        """Close every idle job connection; connections in use close when their job ends."""
        with self._lock:
            idle = [sock for socks in self._idle.values() for sock in socks]
            self._idle.clear()
        for sock in idle:
            sock.close()

    def run_job(self, job: JobSpec, node: str, slot: int, bus: InProcessBus) -> tuple[float, float]:
        """Dispatch one job to a worker, republishing its process and log records;
        returns the fitness frame's (value, duration)."""
        sock, reused = self._checkout(node)
        try:
            return self._exchange(sock, job, node, slot, bus)
        except _ClosedBeforeReply:
            if not reused:
                raise
        # The worker closed the pooled connection as it was taken, too late for
        # the liveness check to see it (a worker older than connection reuse
        # closes after every job). No frame came back, so the worker had not
        # taken the job up: send it once more, on a new connection.
        return self._exchange(self._connect(node), job, node, slot, bus)

    def _exchange(
        self, sock: socket.socket, job: JobSpec, node: str, slot: int, bus: InProcessBus
    ) -> tuple[float, float]:
        """Send one job over ``sock`` and read its stream through ``process_end``."""
        result: tuple[float, float] | None = None
        error: JobFailed | None = None
        procs: list[tuple[str, int]] = []
        replied = False
        try:
            send_msg(sock, {**job.to_message(), "slot": slot})
            while True:
                msg = recv_msg(sock)
                if msg is None:
                    if error is not None:  # a worker that closes after its error frame
                        raise error
                    if not replied:
                        raise _ClosedBeforeReply(f"worker {node} closed the connection before replying")
                    raise WorkerLostError(f"worker {node} closed the connection before process_end")
                replied = True
                kind = msg.get("type")
                if kind == "process_start":
                    procs.append((msg["node"], int(msg["pid"])))
                    bus.process_started(
                        ProcessRecord(
                            node=msg["node"], pid=int(msg["pid"]), job_name=job.name, started_at=time.time()
                        )
                    )
                elif kind == "log":
                    bus.publish(LogRecord(job_name=job.name, line=msg.get("line", "")))
                elif kind == "fitness":
                    result = (float(msg["value"]), float(msg["duration_s"]))
                elif kind == "process_end":
                    bus.process_ended(msg["node"], int(msg["pid"]), job.name)
                    procs = [p for p in procs if p != (msg["node"], int(msg["pid"]))]
                    break
                elif kind == "error":
                    error = JobFailed(msg.get("message", "worker error"), msg.get("log_tail", ""))
        except (OSError, json.JSONDecodeError) as exc:
            sock.close()
            if isinstance(exc, ConnectionError) and not replied:
                raise _ClosedBeforeReply(f"worker {node} closed the connection before replying: {exc}") from exc
            raise WorkerLostError(f"lost worker {node} mid-job: {exc}") from exc
        except BaseException:  # the stream is out of step: never reuse the connection
            sock.close()
            raise
        finally:
            for proc_node, pid in procs:  # connection died before process_end arrived
                bus.process_ended(proc_node, pid, job.name)
        self._checkin(node, sock)
        if error is not None:
            raise error
        if result is None:
            raise WorkerLostError(f"worker {node} ended job {job.name} without a fitness record")
        return result

    def poll(self, node: str) -> dict[int, str | None]:
        """Slot occupancy as reported by the worker: slot index -> job name or None."""
        with self._connect(node) as sock:
            send_msg(sock, {"type": "poll"})
            msg = recv_msg(sock)
        if msg is None or msg.get("type") != "status":
            raise WorkerLostError(f"worker {node} gave no status")
        return {int(k): v for k, v in msg.get("slots", {}).items()}

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


@dataclass
class PollOutcome:
    reachable: list[str] = field(default_factory=list)
    lost: dict[str, list[str]] = field(default_factory=dict)  # node -> requeue-needed job names
    quarantined: list[tuple[str, int]] = field(default_factory=list)


def poll_workers(
    transport,
    workers: list[WorkerDescriptor],
    store: SlotStore,
    *,
    lost_after_s: float = 10.0,
    now: float | None = None,
) -> PollOutcome:
    """Reconcile worker-reported slot occupancy into the store.

    A slot the worker reports busy with a job this run does not own is
    quarantined (someone else is using that GPU); a worker unreachable for
    longer than ``lost_after_s`` has its slots marked lost and its in-flight
    jobs reported for requeue.
    """
    if not workers:
        raise WorkerLostError("worker registry is empty")
    now = time.monotonic() if now is None else now
    outcome = PollOutcome()
    ours = {(s.node, s.slot_id): s for s in store.snapshot()}
    for worker in workers:
        try:
            reported = transport.poll(worker.node)
        except WorkerLostError:
            last = max(
                (s.last_poll for s in ours.values() if s.node == worker.node), default=0.0
            )
            if now - last > lost_after_s:
                outcome.lost[worker.node] = store.mark_lost(worker.node)
            continue
        outcome.reachable.append(worker.node)
        store.touch(worker.node, now)
        for slot_id, job_name in reported.items():
            state = ours.get((worker.node, slot_id))
            if state is None:
                continue
            if job_name is None:
                if state.status is SlotStatus.QUARANTINED:
                    store.clear_quarantine(worker.node, slot_id)
            elif not (state.status is SlotStatus.BUSY and state.job_name == job_name):
                store.quarantine(worker.node, slot_id, job_name)
                outcome.quarantined.append((worker.node, slot_id))
    return outcome
