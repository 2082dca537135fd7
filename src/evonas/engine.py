"""The threaded engine: the scheduler core under one lock, and one thread per busy slot.

Both engines offer the same streaming API: ``submit(job)`` starts a job as
soon as a slot allows, ``done(name)`` tells without blocking whether it has
resolved, and ``wait(names)`` blocks until every named job has resolved,
writes the listener's files through once, and hands each ``JobResult`` out
exactly once; the waiting thread wakes once, when the last name resolves.
``run_jobs(jobs)`` is "submit each, then wait for all". Both schedule through
one ``scheduler.Scheduler``; the evaluator, not the engines, assigns fitness.

``ThreadedEngine`` runs a slot runner (an in-process backend or a TCP worker
connection) per attempt. A slot the core places an attempt on gets a thread:
it runs the runner outside the lock, reports the end, runs the next attempt
placed on its slot itself, and exits when its slot goes idle. The runner's
``kill(node, pid)`` is the engine's terminator, and its ``close()`` runs when
the engine closes; an in-process job announces no trainer.

A runner announces each trainer process it spawns to the engine, which files
its pid under the slot of the attempt that started it, under the same lock as
the core; the entry goes in the critical section that reports the attempt's
end. ``cancel()`` is the one call that stops an engine: no attempt starts
after it, queued jobs resolve as ``cancelled``, and a failed or killed
attempt is not retried. In the critical section that cancels the core it
collects the trainers of the attempts still in flight, and signals them
outside it, at the node each job was sent to, counting the signals that went
out; a trainer announced after it is signalled at once. ``close()`` drops the
queued jobs, lets the running attempts finish (it signals no trainer), joins
every slot thread, and closes the slot runner's idle worker connections.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import os
import signal
import threading
import time
from typing import Callable

from .backends import CommandBackend
from .bus import InProcessBus, Listener, LogRecord, RunRecord
from .jobs import JobResult, JobSpec
from .scheduler import ATTEMPT_FAILURES, RETRY_BUDGET, Attempt, Scheduler
from .slots import SlotStore

logger = logging.getLogger(__name__)

#: Runs one job on one slot of a node; returns (value, duration). Its fourth
#: argument is the engine: the runner hands it the job's log records
#: (``publish``) and announces each trainer process it spawns
#: (``process_started(node, slot, pid)``). The engine's scheduler core
#: publishes the result. A runner may carry ``kill(node, pid)``, which
#: returns whether its signal went out, and ``close()`` attributes.
SlotRunner = Callable[[JobSpec, str, int, "ThreadedEngine"], tuple[float, float]]


def local_runner(backend) -> SlotRunner:
    """Slot runner that executes a backend in this process.

    A command backend announces its spawned trainer, filed under the job's
    slot while the attempt runs: that is the unit a kill can stop. An
    in-process backend announces none, since no terminator signals this
    process. A command backend is copied per job, so concurrent slots share
    no mutable state.
    """

    def run(job: JobSpec, node: str, slot: int, engine: ThreadedEngine) -> tuple[float, float]:
        def emit_log(line: str) -> None:
            engine.publish(LogRecord(job_name=job.name, line=line))

        evaluator = backend
        if isinstance(backend, CommandBackend):
            evaluator = dataclasses.replace(backend, on_spawn=functools.partial(engine.process_started, node, slot))
        return evaluator.evaluate(job, emit_log=emit_log, slot_id=slot)

    run.kill = local_terminator
    return run


def local_terminator(node: str, pid: int) -> bool:
    """Terminate a locally spawned trainer process; returns whether the signal went out.

    Never this process, and never a pid that ``os.kill`` reads as a group
    (0 is this process group, a negative pid a group or every process the
    user owns): a pid may arrive from the network.
    """
    if pid <= 0 or pid == os.getpid():
        return False
    try:
        os.kill(pid, signal.SIGTERM)
    except (ProcessLookupError, PermissionError):
        return False
    return True


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
        self.terminator: Callable[[str, int], bool] = getattr(runner, "kill", lambda node, pid: False)
        self.on_close: Callable[[], None] | None = getattr(runner, "close", None)
        self.core = Scheduler(store, bus, retry_budget)
        self.stats = self.core.stats
        self._lock = threading.Lock()
        self._resolved = threading.Condition(self._lock)  # notified once the waited jobs resolved
        self._threads: list[threading.Thread] = []  # slot threads, pruned of finished ones
        self._error: BaseException | None = None  # what a slot thread raised outside an attempt
        self._trainers: dict[tuple[str, int], int] = {}  # (node, slot) -> pid of the trainer its attempt runs
        self._cancelled = False  # set by cancel() alone: a trainer announced after it is signalled at once

    def publish(self, record: RunRecord) -> None:
        """Hand a slot runner's run record to the bus."""
        self.bus.publish(record)

    def process_started(self, node: str, slot: int, pid: int) -> None:
        """File the trainer that the attempt on ``(node, slot)`` spawned; after ``cancel()``,
        signal it instead, on the announcing thread."""
        with self._lock:
            if not self._cancelled:
                self._trainers[node, slot] = pid
                return
        self.terminator(node, pid)

    def _advance(self, own: tuple[str, int] | None) -> Attempt | None:
        """Start a slot thread for each attempt the core places now, except one on the
        caller's own slot ``own``, which is returned for the caller to run; wake the
        waiter once every job it waits for has resolved. Holds the lock."""
        mine = None
        for attempt in self.core.placements():
            if (attempt.node, attempt.slot) == own:
                mine = attempt
                continue
            thread = threading.Thread(target=self._serve, args=(attempt,), name=f"slot {attempt.node}:{attempt.slot}")
            self._threads = [t for t in self._threads if t.is_alive()] + [thread]
            thread.start()
        if not self.core.unresolved:
            self._resolved.notify()
        return mine

    def _serve(self, attempt: Attempt | None) -> None:
        """Run attempts on one slot until the core leaves it idle."""
        try:
            while attempt is not None:
                job, node, slot = attempt.job, attempt.node, attempt.slot
                started = time.monotonic()
                try:
                    outcome, seconds = self.runner(job, node, slot, self)
                except ATTEMPT_FAILURES as exc:
                    logger.warning("job %s attempt %d failed on %s:%d: %s", job.name, attempt.tries, node, slot, exc)
                    outcome, seconds = str(exc), time.monotonic() - started
                with self._lock:
                    self._trainers.pop((node, slot), None)
                    self.core.ended(attempt.token, outcome, seconds)
                    attempt = self._advance((node, slot))
        except BaseException as exc:  # a fault of the program, not of the attempt: wait raises it
            with self._lock:
                self._error = exc
                self._resolved.notify()

    def cancel(self) -> int:
        """Start no further attempt and send one termination command per trainer of an attempt
        in flight, and per trainer announced later; returns the number of those sent now that
        went out. Queued jobs and killed attempts resolve as cancelled."""
        with self._lock:
            self._cancelled = True
            held = [(a.node, a.slot) for a in self.core.cancel() if (a.node, a.slot) in self._trainers]
            trainers = [(node, self._trainers[node, slot]) for node, slot in held]
            self._advance(None)
        return sum(bool(self.terminator(node, pid)) for node, pid in trainers)

    def submit(self, job: JobSpec) -> None:
        with self._lock:
            self.core.submit(job)
            self._advance(None)

    def done(self, name: str) -> bool:
        """Whether the job has resolved and its result is still to be handed out."""
        with self._lock:
            return self.core.done(name)

    def wait(self, names: list[str]) -> dict[str, JobResult]:
        """Block until every named job has resolved; write the listener's files through once;
        hand the results out."""
        with self._lock:
            self.core.expect(names)
            self._resolved.wait_for(lambda: not self.core.unresolved or self._error is not None)
            if self._error is not None:
                raise self._error
            results = self.core.take(names)
        self.listener.drain()
        return results

    def run_jobs(self, jobs: list[JobSpec]) -> dict[str, JobResult]:
        for job in jobs:
            self.submit(job)
        return self.wait([job.name for job in jobs])

    def close(self) -> None:
        """Drop the queued jobs, which resolve as cancelled, let the running attempts finish
        (no trainer is signalled, unless ``cancel()`` ran), join every slot thread, then
        release what the slot runner holds (idle connections)."""
        with self._lock:
            self.core.cancel()
            self._advance(None)
        for thread in self._threads:  # no thread starts after the cancel
            thread.join()
        if self.on_close is not None:
            self.on_close()
