"""Execution engines' shared attempt ledger, and the threaded engine.

Both engines offer the same streaming API: ``submit(job)`` starts a job as
soon as a slot allows, ``done(name)`` tells without blocking whether it has
resolved, and ``wait(names)`` blocks until every named job has resolved,
writes the listener's files through once, and hands each ``JobResult`` out
exactly once.
``run_jobs(jobs)`` is "submit each, then wait for all". The engines assign no
fitness; the evaluator does, from what ``wait`` returns.

``AttemptLedger`` owns the attempt policy of both engines and builds every
``JobResult`` they hand out. It holds the one tuple of attempt failures
(``ATTEMPT_FAILURES``), the retry budget, the cancel flag and the slot
seconds each job has consumed. An engine reports each placement, success
and failed attempt to it, and ``failed`` alone decides what a failure
means: retry, give up with the fitness-0.00 convention, or, after a cancel,
resolve as ``cancelled``. The ledger publishes the ``JobResult`` it returns
-- the value with a duration that sums every attempt, or 0.00 for a job
that exhausted its budget -- and keeps ``EngineStats`` under one lock. The
listener applies a published result on the thread that publishes it, so a
result is in ``cache.txt`` when its job resolves, before any ``wait``. Slot
runners and the simulated farm publish only process and log records.

``cancel()`` is the interrupt path and the one call that stops an engine: no
job starts another attempt after it, the attempts in flight are stopped, a
failed or killed attempt is not retried, and a job stopped this way resolves
as ``cancelled``, unpublished, charged the seconds its attempts held a slot,
so a resumed run trains it again instead of reading fitness 0.00 from the
cache. It returns how many it stopped: attempts on the farm, trainer
processes signalled on ``ThreadedEngine``.

``ThreadedEngine`` gives real concurrency over local or remote slots: one
dispatch thread per in-flight job takes a slot, runs the job through a slot
runner (an in-process backend or a TCP worker connection), and reports the
outcome to the ledger. The pool has at most one thread per slot and a thread
holds one slot at a time, so a slot is always free for the thread asking.
The slot runner carries what it holds: its ``kill(node, pid)`` is the
engine's terminator, which ``cancel()`` calls once per live process record,
and its ``close()`` runs when the engine closes. An in-process job has no
process record and runs to its end.

Each engine owns one dispatch pool of at most one thread per slot, shared by
all its jobs: no thread starts before the first job, and a thread that has
waited ``DISPATCH_IDLE_S`` for work exits, so an engine dropped without
``close()`` keeps no thread for long. ``close()`` ends the pool and closes the
slot runner's idle worker connections.
"""

from __future__ import annotations

import dataclasses
import itertools
import logging
import os
import queue
import signal
import threading
import time
from concurrent.futures import Future
from typing import Callable

from .backends import CommandBackend
from .bus import InProcessBus, Listener, LogRecord, ProcessRecord
from .errors import DecodeError, JobFailed, LookupMiss, WorkerLostError
from .jobs import JobResult, JobSpec
from .slots import SlotStore

logger = logging.getLogger(__name__)

#: Runs one job on one slot, publishing its log records and a process record
#: for each trainer process it spawns; returns (value, duration). The engine's
#: ledger publishes the result. A runner may carry ``kill(node, pid)`` and
#: ``close()`` attributes.
SlotRunner = Callable[[JobSpec, str, int, InProcessBus], tuple[float, float]]

#: What a failed attempt raises; the ledger decides whether the job retries.
ATTEMPT_FAILURES = (JobFailed, WorkerLostError, LookupMiss, DecodeError)

#: Retries a job gets after its first failed attempt.
RETRY_BUDGET = 1

#: Seconds an idle dispatch thread waits for the next job before it exits.
DISPATCH_IDLE_S = 1.0


@dataclasses.dataclass
class EngineStats:
    jobs: int = 0          # jobs driven to a terminal result
    attempts: int = 0      # slot placements, including failed ones
    failures: int = 0      # jobs that exhausted their retry budget
    busy_seconds: float = 0.0  # total slot-occupancy time across attempts


class AttemptLedger:
    """Attempt policy of both engines: retry budget, cancel flag, consumed seconds, stats and results."""

    def __init__(self, bus: InProcessBus, retry_budget: int = RETRY_BUDGET):
        self.bus = bus
        self.retry_budget = retry_budget
        self.stats = EngineStats()
        self._lock = threading.Lock()
        self._consumed: dict[str, float] = {}  # job name -> seconds of its failed attempts
        # the cancel flag: once set, a job that fails or is about to start resolves as cancelled
        self.stopping = threading.Event()

    def placed(self) -> None:
        """Count one attempt on a slot."""
        with self._lock:
            self.stats.attempts += 1

    def failed(self, job: JobSpec, tries: int, seconds: float, reason: str) -> JobResult | None:
        """Charge a failed attempt that held a slot ``seconds``, after ``tries`` earlier ones.

        Returns None when the job may retry, its cancelled result after a
        cancel, and otherwise the fitness-0.00 give-up. A failure no retry can
        mend passes ``tries=retry_budget``.
        """
        if self.stopping.is_set():
            return self.cancelled(job, seconds)
        if tries >= self.retry_budget:
            line = f"evaluation failed: {reason}; assigning fitness 0.00"
            self.bus.publish(LogRecord(job_name=job.name, line=line))
            return self._resolve(job, 0.0, seconds, reason)
        with self._lock:
            self.stats.busy_seconds += seconds
            self._consumed[job.name] = self._consumed.get(job.name, 0.0) + seconds
        return None

    def succeeded(self, job: JobSpec, value: float, seconds: float) -> JobResult:
        """Resolve a job whose last attempt took ``seconds``."""
        return self._resolve(job, value, seconds, None)

    def cancelled(self, job: JobSpec, seconds: float = 0.0) -> JobResult:
        """Resolve a job that a cancel stopped; unpublished, so no cache entry."""
        with self._lock:
            self.stats.busy_seconds += seconds
            total = self._consumed.pop(job.name, 0.0) + seconds
        return JobResult(job.name, job.identifier, 0.0, total, ok=False, error="cancelled")

    def _resolve(self, job: JobSpec, value: float, seconds: float, failure: str | None) -> JobResult:
        """Publish and return the job's one result, whose duration sums every attempt."""
        with self._lock:
            self.stats.jobs += 1
            self.stats.failures += failure is not None
            self.stats.busy_seconds += seconds
            total = self._consumed.pop(job.name, 0.0) + seconds
        result = JobResult(job.name, job.identifier, value, total, ok=failure is None, error=failure or "")
        self.bus.publish(result)
        return result


def local_runner(backend) -> SlotRunner:
    """Slot runner that executes a backend in this process.

    A command backend's spawned trainer gets a process record while it runs:
    that is the unit a kill can stop. An in-process backend gets none, since
    no terminator signals this process. A command backend is copied per job,
    so concurrent slots share no mutable state.
    """

    def run(job: JobSpec, node: str, slot: int, bus: InProcessBus) -> tuple[float, float]:
        def emit_log(line: str) -> None:
            bus.publish(LogRecord(job_name=job.name, line=line))

        if not isinstance(backend, CommandBackend):
            return backend.evaluate(job, emit_log=emit_log, slot_id=slot)
        pids: list[int] = []

        def announce(pid: int) -> None:
            pids.append(pid)
            bus.process_started(ProcessRecord(node=node, pid=pid, job_name=job.name))

        try:
            return dataclasses.replace(backend, on_spawn=announce).evaluate(job, emit_log=emit_log, slot_id=slot)
        finally:
            for pid in pids:
                bus.process_ended(node, pid, job.name)

    run.kill = local_terminator
    return run


def local_terminator(node: str, pid: int) -> None:
    """Terminate a locally spawned trainer process.

    Never this process, and never a pid that ``os.kill`` reads as a group
    (0 is this process group, a negative pid a group or every process the
    user owns): a pid may arrive from the network.
    """
    if pid <= 0 or pid == os.getpid():
        return
    try:
        os.kill(pid, signal.SIGTERM)
    except (ProcessLookupError, PermissionError):
        pass


class DispatchPool:
    """Up to ``size`` threads that run submitted calls, started as calls arrive."""

    def __init__(self, size: int):
        self.size = size
        self._tasks: queue.SimpleQueue = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._closed = False

    def submit(self, fn: Callable, arg) -> Future:
        future: Future = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("dispatch pool is closed")
            self._tasks.put((future, fn, arg))
            if len(self._threads) < self.size:
                thread = threading.Thread(target=self._work, name=f"dispatch_{len(self._threads)}")
                self._threads.append(thread)
                thread.start()
        return future

    def _work(self) -> None:
        while True:
            try:
                task = self._tasks.get(timeout=DISPATCH_IDLE_S)
            except queue.Empty:
                with self._lock:  # submit() queues under this lock: no call is left behind
                    if self._tasks.empty():
                        self._threads.remove(threading.current_thread())
                        return
                continue
            if task is None:  # close()
                return
            future, fn, arg = task
            if future.set_running_or_notify_cancel():
                try:
                    future.set_result(fn(arg))
                except BaseException as exc:
                    future.set_exception(exc)

    def close(self) -> None:
        """Cancel queued calls, let running ones finish, and end every thread."""
        with self._lock:
            self._closed = True
            while True:
                try:
                    task = self._tasks.get_nowait()
                except queue.Empty:
                    break
                if task is not None:
                    task[0].cancel()
            threads, self._threads = self._threads, []
            for _ in threads:
                self._tasks.put(None)
        for thread in threads:
            thread.join()


class ThreadedEngine:
    def __init__(
        self,
        store: SlotStore,
        bus: InProcessBus,
        listener: Listener,
        runner: SlotRunner,
        retry_budget: int = RETRY_BUDGET,
    ):
        self.store = store
        self.bus = bus
        self.listener = listener
        self.runner = runner
        # read once: a wrapper later set as ``runner`` keeps the runner's kill and close
        self.terminator: Callable[[str, int], None] | None = getattr(runner, "kill", None)
        self.on_close: Callable[[], None] | None = getattr(runner, "close", None)
        self.ledger = AttemptLedger(bus, retry_budget)
        self.stats = self.ledger.stats
        self._pool = DispatchPool(max(1, len(store)))
        self._futures: dict[str, Future] = {}

    def cancel(self) -> int:
        """Start no further attempt and send one termination command per live process record;
        returns the number sent. Queued jobs and killed attempts resolve as cancelled."""
        self.ledger.stopping.set()
        live = self.bus.live_processes()
        if self.terminator is not None:
            for proc in live:
                self.terminator(proc.node, proc.pid)
        return len(live)

    def _execute(self, job: JobSpec) -> JobResult:
        ledger = self.ledger
        reason = "no live worker slots available"
        for tries in itertools.count():
            grant = self.store.acquire_wait(job.name)
            if grant is None:
                return ledger.failed(job, ledger.retry_budget, 0.0, reason)
            node, slot = grant
            if ledger.stopping.is_set():
                self.store.release(node, slot)
                return ledger.cancelled(job)
            ledger.placed()
            started = time.monotonic()
            try:
                value, duration = self.runner(job, node, slot, self.bus)
            except ATTEMPT_FAILURES as exc:
                reason = str(exc)
                logger.warning("job %s attempt %d failed on %s:%d: %s", job.name, tries, node, slot, exc)
                result = ledger.failed(job, tries, time.monotonic() - started, reason)
                if result is None:
                    continue
                return result
            finally:
                self.store.release(node, slot)
            return ledger.succeeded(job, value, duration)

    def submit(self, job: JobSpec) -> None:
        self._futures[job.name] = self._pool.submit(self._execute, job)

    def done(self, name: str) -> bool:
        """Whether the job has resolved and its result is still to be handed out."""
        future = self._futures.get(name)
        return future is not None and future.done()

    def wait(self, names: list[str]) -> dict[str, JobResult]:
        """Block until every named job has resolved; write the listener's files through once;
        hand the results out."""
        futures = [self._futures.pop(name) for name in names]
        results = {name: future.result() for name, future in zip(names, futures)}
        self.listener.drain()
        return results

    def run_jobs(self, jobs: list[JobSpec]) -> dict[str, JobResult]:
        if not jobs:
            return {}
        for job in jobs:
            self.submit(job)
        return self.wait([job.name for job in jobs])

    def close(self) -> None:
        """End the dispatch pool, then release what the slot runner holds (idle connections)."""
        self._pool.close()
        if self.on_close is not None:
            self.on_close()
