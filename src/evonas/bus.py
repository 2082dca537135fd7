"""Record bus: the channel between running jobs and the run directory.

Jobs publish two families of records. Process records are presence state (a
job's node and pid while it runs); run records -- Log lines and one
FitnessRecord per completed job -- are queued for a single listener, which
routes them to the cache, result, log, and duration files and deletes each
record after applying it. Records carry unique ids and the listener journals
applied ids, so delete-after-apply stays exactly-once across listener
restarts.

Two bus implementations: an in-process queue (default; also used by the
simulated farm) and a durable spool-directory queue for multi-machine runs.
"""

from __future__ import annotations

import json
import threading
import uuid
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable

from .cache import ResultCache
from .errors import PersistError

RESULT_FILE = "results.txt"
RUN_LOG_FILE = "run.log"
DURATIONS_FILE = "durations.txt"
DEAD_LETTER_FILE = "dead_letter.txt"
JOURNAL_FILE = "routed_ids.txt"


def _new_record_id() -> str:
    return uuid.uuid4().hex


@dataclass(frozen=True)
class ProcessRecord:
    node: str
    pid: int
    job_name: str
    started_at: float
    record_id: str = ""


@dataclass(frozen=True)
class LogRecord:
    job_name: str
    line: str
    record_id: str = ""


@dataclass(frozen=True)
class FitnessRecord:
    job_name: str
    identifier: str
    value: float  # percent, 2-decimal quantized
    duration_s: float
    record_id: str = ""


RunRecord = LogRecord | FitnessRecord

_KINDS = {"log": LogRecord, "fitness": FitnessRecord}


def _with_id(record):
    if record.record_id:
        return record
    return replace(record, record_id=_new_record_id())


class RecordBus(ABC):
    """Many publishers, one consumer; process records are presence, not queue items."""

    @abstractmethod
    def publish(self, record: RunRecord) -> None: ...

    @abstractmethod
    def take(self) -> RunRecord | None:
        """Claim the oldest pending record (consumer only); None when empty."""

    @abstractmethod
    def ack(self, record: RunRecord) -> None:
        """Delete a consumed record after it has been applied."""

    @abstractmethod
    def pending(self) -> int: ...

    @abstractmethod
    def process_started(self, record: ProcessRecord) -> None: ...

    @abstractmethod
    def process_ended(self, node: str, pid: int, job_name: str) -> None: ...

    @abstractmethod
    def live_processes(self) -> list[ProcessRecord]: ...


class InProcessBus(RecordBus):
    def __init__(self) -> None:
        self._queue: deque[RunRecord] = deque()
        self._procs: dict[tuple[str, int, str], ProcessRecord] = {}
        self._lock = threading.Lock()

    def publish(self, record: RunRecord) -> None:
        with self._lock:
            self._queue.append(_with_id(record))

    def take(self) -> RunRecord | None:
        with self._lock:
            return self._queue.popleft() if self._queue else None

    def ack(self, record: RunRecord) -> None:
        pass  # popping the in-memory queue already removed it

    def pending(self) -> int:
        with self._lock:
            return len(self._queue)

    def process_started(self, record: ProcessRecord) -> None:
        with self._lock:
            self._procs[(record.node, record.pid, record.job_name)] = _with_id(record)

    def process_ended(self, node: str, pid: int, job_name: str) -> None:
        with self._lock:
            self._procs.pop((node, pid, job_name), None)

    def live_processes(self) -> list[ProcessRecord]:
        with self._lock:
            return sorted(self._procs.values(), key=lambda p: (p.node, p.pid, p.job_name))


class FileBus(RecordBus):
    """Spool-directory queue: one JSON file per record, created atomically.

    Files are claimed in name order (a monotonic counter prefixes each name)
    and deleted only on ack, so records survive consumer crashes between
    apply and delete.
    """

    def __init__(self, root: Path | str):
        self.root = Path(root)
        (self.root / "queue").mkdir(parents=True, exist_ok=True)
        (self.root / "proc").mkdir(parents=True, exist_ok=True)
        # resume the sequence after existing spool files so replayed queues keep arrival order
        existing = [int(p.name.split("_", 1)[0]) for p in (self.root / "queue").glob("*.rec")]
        self._seq = max(existing, default=0)
        self._lock = threading.Lock()
        self._claimed: set[str] = set()
        self._paths: dict[str, Path] = {}

    def _spool(self, directory: str, name: str, payload: dict) -> Path:
        path = self.root / directory / name
        tmp = path.with_suffix(".tmp")
        try:
            tmp.write_text(json.dumps(payload), encoding="utf-8")
            tmp.rename(path)
        except OSError as exc:
            raise PersistError(f"cannot spool record to {path}: {exc}") from exc
        return path

    def publish(self, record: RunRecord) -> None:
        record = _with_id(record)
        kind = "log" if isinstance(record, LogRecord) else "fitness"
        with self._lock:
            self._seq += 1
            name = f"{self._seq:012d}_{record.record_id}.rec"
        self._spool("queue", name, {"kind": kind, **asdict(record)})

    def take(self) -> RunRecord | None:
        with self._lock:
            for path in sorted((self.root / "queue").glob("*.rec")):
                if path.name in self._claimed:
                    continue
                try:
                    data = json.loads(path.read_text(encoding="utf-8"))
                    cls = _KINDS[data.pop("kind")]
                    record = cls(**data)
                except (json.JSONDecodeError, KeyError, TypeError):
                    # malformed spool file: dead-letter it, never drop silently
                    dead = self.root / DEAD_LETTER_FILE
                    with dead.open("a", encoding="utf-8") as fh:
                        fh.write(path.read_text(encoding="utf-8", errors="replace") + "\n")
                    path.unlink()
                    continue
                self._claimed.add(path.name)
                self._paths[record.record_id] = path
                return record
        return None

    def ack(self, record: RunRecord) -> None:
        with self._lock:
            path = self._paths.pop(record.record_id, None)
            if path is not None:
                self._claimed.discard(path.name)
                path.unlink(missing_ok=True)

    def pending(self) -> int:
        with self._lock:
            return sum(1 for _ in (self.root / "queue").glob("*.rec"))

    def process_started(self, record: ProcessRecord) -> None:
        record = _with_id(record)
        name = f"{record.node}_{record.pid}_{record.job_name}.json".replace("/", "_").replace(":", "_")
        self._spool("proc", name, asdict(record))

    def process_ended(self, node: str, pid: int, job_name: str) -> None:
        name = f"{node}_{pid}_{job_name}.json".replace("/", "_").replace(":", "_")
        (self.root / "proc" / name).unlink(missing_ok=True)

    def live_processes(self) -> list[ProcessRecord]:
        out = []
        for path in (self.root / "proc").glob("*.json"):
            try:
                out.append(ProcessRecord(**json.loads(path.read_text(encoding="utf-8"))))
            except (json.JSONDecodeError, TypeError):
                continue
        return sorted(out, key=lambda p: (p.node, p.pid, p.job_name))


class Listener:
    """The single consumer that routes run records to the run-directory files.

    Routing: Log -> ``run.log`` (prefixed with the job name); FitnessRecord ->
    one cache entry (first write wins), one ``name=value`` line in
    ``results.txt`` and one duration line in ``durations.txt``. Applied record
    ids are journaled before the record is deleted, making a crashed-and-
    restarted listener skip already-applied records instead of re-routing them.
    """

    def __init__(self, bus: RecordBus, run_dir: Path | str, cache: ResultCache | None = None):
        self.bus = bus
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.cache = cache
        self._lock = threading.Lock()
        self._applied: set[str] = set()
        self._routed_names: set[str] = set()
        self._files: dict[str, object] = {}
        journal = self.run_dir / JOURNAL_FILE
        if journal.exists():
            self._applied.update(journal.read_text(encoding="utf-8").split())
        results = self.run_dir / RESULT_FILE
        if results.exists():
            for line in results.read_text(encoding="utf-8").splitlines():
                self._routed_names.add(line.split("=", 1)[0])

    def _append(self, filename: str, line: str) -> None:
        try:
            fh = self._files.get(filename)
            if fh is None:
                fh = (self.run_dir / filename).open("a", encoding="utf-8")
                self._files[filename] = fh
            fh.write(line + "\n")
            fh.flush()
        except OSError as exc:
            raise PersistError(f"cannot append to {filename}: {exc}") from exc

    def close(self) -> None:
        for fh in self._files.values():
            fh.close()
        self._files.clear()
        if self.cache is not None:
            self.cache.close()

    def __enter__(self) -> "Listener":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _apply(self, record: RunRecord) -> None:
        if isinstance(record, LogRecord):
            self._append(RUN_LOG_FILE, f"[{record.job_name}] {record.line}")
        elif isinstance(record, FitnessRecord):
            value = f"{record.value:.2f}"
            if self.cache is not None:
                self.cache.insert(record.identifier, record.value)
            if record.job_name not in self._routed_names:
                self._append(RESULT_FILE, f"{record.job_name}={value}")
                self._append(DURATIONS_FILE, f"{record.job_name} {record.identifier} {record.duration_s:.6f}")
                self._routed_names.add(record.job_name)
        else:
            self._append(DEAD_LETTER_FILE, repr(record))

    def drain(self) -> int:
        """Apply every pending record; returns the number routed."""
        routed = 0
        with self._lock:
            while (record := self.bus.take()) is not None:
                if record.record_id not in self._applied:
                    self._apply(record)
                    self._append(JOURNAL_FILE, record.record_id)
                    self._applied.add(record.record_id)
                self.bus.ack(record)
                routed += 1
        return routed


def kill_all(bus: RecordBus, terminate: Callable[[str, int], None]) -> int:
    """Send a termination command for every live process record; returns the count."""
    live = bus.live_processes()
    for proc in live:
        terminate(proc.node, proc.pid)
    return len(live)
