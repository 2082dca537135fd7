"""Record bus: the channel between running jobs and the run directory.

Jobs publish two families of records. Process records are presence state (a
trainer process's node and pid while it runs, the unit a threaded engine's
``cancel()`` terminates). Run records -- log lines and each job's one
``JobResult``, which a cancelled job never publishes -- are handed, on the
publishing thread, to the bus's one listener, which writes them into the
cache, result, log, and duration files under its lock, in publish order.
The bus keeps no record: one published with no listener attached, or after
the listener closed, is dropped. A restarted run has nothing to replay; the
cache (first write wins) and the listener's set of names already in
``results.txt`` keep a re-run job from being counted twice.

A cache entry is flushed as its result is applied, when its job resolves, so
a finished training survives a crash of this process: that takes a flush,
not an fsync, and power loss is out of scope. The other files are written
through at each ``drain`` (once per engine ``wait``) and at ``close``, so
after a crash ``durations.txt`` can lack lines for results in ``cache.txt``.
"""

from __future__ import annotations

import threading
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
    """Many publishers, one listener; the bus keeps only the table of live trainer processes."""

    def __init__(self) -> None:
        self.listener: Listener | None = None  # set by the listener that attaches itself
        self._procs: dict[tuple[str, int, str], ProcessRecord] = {}
        self._lock = threading.Lock()

    def publish(self, record: RunRecord) -> None:
        """Hand a run record to the listener, or drop it when none is attached."""
        listener = self.listener
        if listener is not None:
            listener._apply(record)

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
    """The single consumer that writes run records into the run-directory files.

    It attaches itself to ``bus`` when built and detaches at ``close()``.
    Routing: Log -> ``run.log`` (prefixed with the job name); JobResult ->
    one cache entry (first write wins), one ``name=value`` line in
    ``results.txt`` and one duration line in ``durations.txt``. A job name
    already in ``results.txt`` (a job re-run after a restart) gets no second
    result or duration line. A drain writes the lines applied since the last
    one through to every file once, not once per line.
    """

    def __init__(self, bus: InProcessBus, run_dir: Path | str, cache: ResultCache | None = None):
        self.bus = bus
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.cache = cache
        self._lock = threading.Lock()
        self._routed_names: set[str] = set()
        self._files: dict[str, object] = {}
        self._applied = 0  # records applied since the last drain
        results = self.run_dir / RESULT_FILE
        if results.exists():
            for line in results.read_text(encoding="utf-8").splitlines():
                self._routed_names.add(line.split("=", 1)[0])
        bus.listener = self

    def _append(self, filename: str, line: str) -> None:
        try:
            fh = self._files.get(filename)
            if fh is None:
                fh = (self.run_dir / filename).open("a", encoding="utf-8")
                self._files[filename] = fh
            fh.write(line + "\n")
        except OSError as exc:
            raise PersistError(f"cannot append to {filename}: {exc}") from exc

    def close(self) -> None:
        """Detach from the bus, then write every file through and close it."""
        with self._lock:
            if self.bus.listener is self:
                self.bus.listener = None
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
        """Write one record into the files' buffers; a cache entry is flushed at once."""
        with self._lock:
            if self.bus.listener is not self:  # published while close() ran
                return
            self._applied += 1
            if isinstance(record, LogRecord):
                self._append(RUN_LOG_FILE, f"[{record.job_name}] {record.line}")
                return
            if self.cache is not None:
                self.cache.insert(record.identifier, record.value)
            if record.name not in self._routed_names:
                self._append(RESULT_FILE, f"{record.name}={record.value:.2f}")
                self._append(DURATIONS_FILE, f"{record.name} {record.identifier} {record.duration_s:.6f}")
                self._routed_names.add(record.name)

    def drain(self) -> int:
        """Write every file through; returns the number of records applied since the last drain."""
        with self._lock:
            applied, self._applied = self._applied, 0
            try:
                for fh in self._files.values():
                    fh.flush()
            except OSError as exc:
                raise PersistError(f"cannot flush the run files in {self.run_dir}: {exc}") from exc
        return applied
