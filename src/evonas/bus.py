"""Record bus: the channel between running jobs and the run directory.

Jobs publish two families of records. Process records are presence state (a
trainer process's node and pid while it runs, the unit a threaded engine's
``cancel()`` terminates); run records -- log lines and
each job's one ``JobResult``, which a cancelled job never publishes -- are
queued in memory for a single listener, which routes them to the cache,
result, log, and duration files.

Delivery is exactly-once without record ids: ``publish`` appends each record
once and ``take`` pops it under the same lock, so no record is handed to the
listener twice. The queue dies with the process, so a restarted run has
nothing to replay; the cache (first write wins) and the listener's set of
names already in ``results.txt`` keep a re-run job from being counted twice.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from .cache import ResultCache
from .errors import PersistError
from .jobs import JobResult

RESULT_FILE = "results.txt"
RUN_LOG_FILE = "run.log"
DURATIONS_FILE = "durations.txt"


@dataclass(frozen=True)
class ProcessRecord:
    node: str
    pid: int
    job_name: str


@dataclass(frozen=True)
class LogRecord:
    job_name: str
    line: str


RunRecord = LogRecord | JobResult


class InProcessBus:
    """Many publishers, one consumer; process records are presence, not queue items."""

    def __init__(self) -> None:
        self._queue: deque[RunRecord] = deque()
        self._procs: dict[tuple[str, int, str], ProcessRecord] = {}
        self._lock = threading.Lock()

    def publish(self, record: RunRecord) -> None:
        with self._lock:
            self._queue.append(record)

    def take(self) -> RunRecord | None:
        """Remove and return the oldest pending record (consumer only); None when empty."""
        with self._lock:
            return self._queue.popleft() if self._queue else None

    def pending(self) -> int:
        with self._lock:
            return len(self._queue)

    def process_started(self, record: ProcessRecord) -> None:
        with self._lock:
            self._procs[(record.node, record.pid, record.job_name)] = record

    def process_ended(self, node: str, pid: int, job_name: str) -> None:
        with self._lock:
            self._procs.pop((node, pid, job_name), None)

    def live_processes(self) -> list[ProcessRecord]:
        with self._lock:
            return sorted(self._procs.values(), key=lambda p: (p.node, p.pid, p.job_name))


class Listener:
    """The single consumer that routes run records to the run-directory files.

    Routing: Log -> ``run.log`` (prefixed with the job name); JobResult ->
    one cache entry (first write wins), one ``name=value`` line in
    ``results.txt`` and one duration line in ``durations.txt``. A job name
    already in ``results.txt`` (a job re-run after a restart) gets no second
    result or duration line. A drain writes its lines through to every file
    once, at its end, not once per line.
    """

    def __init__(self, bus: InProcessBus, run_dir: Path | str, cache: ResultCache | None = None):
        self.bus = bus
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.cache = cache
        self._lock = threading.Lock()
        self._routed_names: set[str] = set()
        self._files: dict[str, object] = {}
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
        except OSError as exc:
            raise PersistError(f"cannot append to {filename}: {exc}") from exc

    def _flush(self) -> None:
        try:
            for fh in self._files.values():
                fh.flush()
        except OSError as exc:
            raise PersistError(f"cannot flush the run files in {self.run_dir}: {exc}") from exc
        if self.cache is not None:
            self.cache.flush()

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
        else:
            if self.cache is not None:
                self.cache.insert(record.identifier, record.value, flush=False)
            if record.name not in self._routed_names:
                self._append(RESULT_FILE, f"{record.name}={record.value:.2f}")
                self._append(DURATIONS_FILE, f"{record.name} {record.identifier} {record.duration_s:.6f}")
                self._routed_names.add(record.name)

    def drain(self) -> int:
        """Apply every pending record; returns the number routed."""
        routed = 0
        with self._lock:
            while (record := self.bus.take()) is not None:
                self._apply(record)
                routed += 1
            if routed:
                self._flush()  # one write per file per drain, not one per line
        return routed

