"""Deterministic virtual-time farm for desk-scale runs and scheduler tests.

Workers, slots, job durations, and faults all live in simulated time. The
farm is the scheduler core of ``scheduler.py`` (which owns the retry budget,
the cancel flag and ``stats``) plus an event heap, a virtual clock, a trace,
and a backend call at placement: the core places queued jobs greedily on the
lowest idle slot (so no job ever waits while an idle, healthy slot exists),
the backend gives each attempt's value and duration, and a completion event
ends it at the virtual time it finishes. Event order is deterministic: ties
break on submission sequence.

The farm offers the engines' streaming API: ``submit`` places a job at the
current virtual time if a slot is idle and queues it otherwise; ``wait``
advances the clock event by event until the named jobs have resolved, so
jobs submitted at different times share the slots as they would on a real
farm. A result is handed out once and then forgotten.

Scripted faults crash a worker at a given virtual time: its slots are lost,
and each attempt in flight there fails in turn, charged its virtual seconds,
to be requeued until its retry budget runs out. A failure at placement takes no
virtual time. ``cancel()`` stops every attempt in flight and every queued
job: each resolves as ``cancelled``, an attempt charged its virtual seconds.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

from .bus import InProcessBus, Listener, LogRecord
from .errors import ConfigError, EvoNasError
from .jobs import JobResult, JobSpec
from .scheduler import ATTEMPT_FAILURES, RETRY_BUDGET, Scheduler
from .slots import SlotStore

@dataclass(frozen=True)
class FaultEvent:
    """A crash of worker ``node`` at virtual time ``at``."""

    node: str
    at: float


def parse_fault_script(faults: Iterable[FaultEvent]) -> tuple[FaultEvent, ...]:
    """Validate a fault script: every crash time is a non-negative number."""
    faults = tuple(faults)
    for fault in faults:
        if not fault.at >= 0:  # also refuses NaN, which would disorder the event heap
            raise ConfigError(f"fault time must be non-negative, got {fault.at}")
    return faults


class TraceEvent(NamedTuple):
    time: float
    kind: str  # start | finish | requeue | crash | fail | kill
    job: str
    node: str = ""
    slot: int = -1


class SimulatedFarm:
    """Virtual-time execution engine satisfying the same contract as the real one."""

    def __init__(
        self,
        workers: Mapping[str, int],
        backend,
        bus: InProcessBus,
        listener: Listener,
        *,
        duration: float | None = None,
        dispatch_overhead: float = 0.0,
        faults: Iterable[FaultEvent] = (),
        retry_budget: int = RETRY_BUDGET,
    ):
        if not workers:
            raise ConfigError("farm needs at least one worker")
        # written as not-(x >= 0), so NaN is refused too: it would disorder the event heap
        if duration is not None and not duration >= 0:
            raise ConfigError(f"job duration must be non-negative, got {duration}")
        if not dispatch_overhead >= 0:
            raise ConfigError(f"dispatch overhead must be non-negative, got {dispatch_overhead}")
        self.backend = backend
        self.bus = bus
        self.listener = listener
        self.store = SlotStore((node, i) for node, n in sorted(workers.items()) for i in range(n))
        self.core = Scheduler(
            self.store, bus, retry_budget, lambda kind, name: self.trace.append(TraceEvent(self._now, kind, name))
        )
        self.stats = self.core.stats
        self.duration = duration
        self.dispatch_overhead = dispatch_overhead
        self.trace: list[TraceEvent] = []
        self.last_makespan = 0.0
        self._now = 0.0
        self._seq = itertools.count()
        self._events: list[tuple[float, int, str, object]] = []
        for fault in parse_fault_script(faults):
            heapq.heappush(self._events, (fault.at, next(self._seq), "fault", fault))

    @property
    def now(self) -> float:
        return self._now

    def submit(self, job: JobSpec) -> None:
        self.core.submit(job)
        self._start()

    def done(self, name: str) -> bool:
        """Whether the job has resolved and its result is still to be handed out."""
        return self.core.done(name)

    def cancel(self) -> int:
        """Stop every attempt in flight, charged its virtual seconds, and start no queued job;
        each resolves as cancelled. Returns the attempts stopped."""
        stopped = self.core.cancel()
        for attempt in stopped:
            self.trace.append(TraceEvent(self._now, "kill", attempt.job.name, attempt.node, attempt.slot))
            self.core.ended(attempt.token, "cancelled", self._now - attempt.started)
        return len(stopped)

    def _start(self) -> None:
        """Run the backend of each attempt the core places now; one that fails there ends at once."""
        for attempt in self.core.placements():
            job = attempt.job
            try:
                value, seconds = self.backend.evaluate(
                    job, lambda line: self.bus.publish(LogRecord(job_name=job.name, line=line)), slot_id=attempt.slot
                )
            except ATTEMPT_FAILURES as exc:
                self.core.ended(attempt.token, str(exc), 0.0)  # placement takes no virtual time
                continue
            if self.duration is not None:
                seconds = self.duration
            attempt.started = self._now
            heapq.heappush(
                self._events,
                (self._now + self.dispatch_overhead + seconds, next(self._seq), "complete", (attempt, value, seconds)),
            )
            self.trace.append(TraceEvent(self._now, "start", job.name, attempt.node, attempt.slot))

    def step(self) -> bool:
        """Process the next event; False when the event queue is empty."""
        if not self._events:
            return False
        time, _, kind, payload = heapq.heappop(self._events)
        self._now = max(self._now, time)
        if kind == "complete":
            attempt, value, seconds = payload  # type: ignore[misc]
            if self.core.ended(attempt.token, value, seconds) is not None:  # else it crashed or was stopped
                self.trace.append(TraceEvent(self._now, "finish", attempt.job.name, attempt.node, attempt.slot))
                self._start()
            return True
        node = payload.node  # type: ignore[attr-defined]
        self.trace.append(TraceEvent(self._now, "crash", "", node))
        for attempt in self.core.node_lost(node):  # as on threads, what an end frees is placed before the next end
            self.core.ended(attempt.token, f"worker {node} crashed", self._now - attempt.started)
            self._start()
        return True

    def wait(self, names: list[str]) -> dict[str, JobResult]:
        """Run in virtual time until every named job has resolved; write the listener's files
        through once; hand the results out."""
        self.core.expect(names)
        while self.core.unresolved:
            if not self.step():
                raise EvoNasError("farm stalled with unresolved jobs and no pending events")
        self.listener.drain()
        return self.core.take(names)

    def run_jobs(self, jobs: list[JobSpec]) -> dict[str, JobResult]:
        """Submit, run to completion in virtual time, and return per-name results."""
        start = self._now
        # one submit per job, not one fill for the whole batch: a job that
        # fails at placement is retried before the jobs submitted after it
        for job in jobs:
            self.submit(job)
        results = self.wait([job.name for job in jobs])
        self.last_makespan = self._now - start
        return results

    def close(self) -> None:
        """Nothing to release: the farm holds no threads or connections."""
