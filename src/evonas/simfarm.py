"""Deterministic virtual-time farm for desk-scale runs and scheduler tests.

Workers, slots, job durations, and faults all live in simulated time: a
single-threaded event loop places queued jobs greedily on the lowest idle
slot (so no job ever waits while an idle, healthy slot exists), publishes the
log records a real farm would, and advances a virtual clock.
Event order is deterministic: ties break on submission sequence.

The farm offers the engines' streaming API: ``submit`` places a job at the
current virtual time if a slot is idle and queues it otherwise; ``wait``
advances the clock event by event until the named jobs have resolved, so
jobs submitted at different times share the slots as they would on a real
farm. A result is handed out once and then forgotten.

Scripted faults crash a worker at a given virtual time; in-flight jobs on the
dead node are requeued until their retry budget runs out. The farm keeps only
the clock and the slots. The same ``AttemptLedger`` as the threaded engine
owns the attempt policy and builds every result: the farm reports each
placement, completion, failed placement, crashed attempt and stopped attempt
to it, and the ledger decides on retries and cancels, keeps the stats and
publishes each job's result (fitness 0.00 for a job that exhausted its
budget), which the listener applies at the job's virtual resolution, as on
the threaded engine. ``cancel()`` stops every attempt in flight and every
queued job: each resolves as ``cancelled``, an attempt charged its virtual
seconds, as on the threaded engine.
"""

from __future__ import annotations

import heapq
import itertools
import logging
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

from .bus import InProcessBus, Listener, LogRecord
from .engine import ATTEMPT_FAILURES, RETRY_BUDGET, AttemptLedger
from .errors import ConfigError, EvoNasError
from .jobs import JobResult, JobSpec
from .slots import SlotStore

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FaultEvent:
    kind: str
    node: str
    at: float


def parse_fault_script(faults: Iterable[FaultEvent]) -> tuple[FaultEvent, ...]:
    """Validate a fault script; only worker crashes are scriptable."""
    faults = tuple(faults)
    for fault in faults:
        if fault.kind != "crash":
            raise ConfigError(f"unknown fault kind {fault.kind!r}")
        if not fault.at >= 0:  # also refuses NaN, which would disorder the event heap
            raise ConfigError(f"fault time must be non-negative, got {fault.at}")
    return faults


class TraceEvent(NamedTuple):
    time: float
    kind: str  # start | finish | requeue | crash | fail | kill
    job: str
    node: str = ""
    slot: int = -1


@dataclass
class _Attempt:
    job: JobSpec
    tries: int
    node: str
    slot: int
    started: float
    duration: float


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
        self.workers = dict(workers)
        self.backend = backend
        self.bus = bus
        self.listener = listener
        self.store = SlotStore((node, i) for node, n in sorted(workers.items()) for i in range(n))
        self.duration = duration
        self.dispatch_overhead = dispatch_overhead
        self.ledger = AttemptLedger(bus, retry_budget)
        self.stats = self.ledger.stats
        self.trace: list[TraceEvent] = []
        self.last_makespan = 0.0
        self._now = 0.0
        self._seq = itertools.count()
        self._events: list[tuple[float, int, str, object]] = []
        self._queue: list[tuple[JobSpec, int]] = []
        self._inflight: dict[int, _Attempt] = {}
        self._results: dict[str, JobResult] = {}  # resolved, not yet handed out
        self._unresolved: set[str] = set()  # names the current wait call waits for
        # upper bound on the idle slots of the store, which only this farm
        # changes: a release adds one, a grant takes one, a refused acquire
        # proves there are none
        self._maybe_idle = len(self.store)
        for fault in parse_fault_script(faults):
            heapq.heappush(self._events, (fault.at, next(self._seq), "fault", fault))

    @property
    def now(self) -> float:
        return self._now

    def submit(self, job: JobSpec) -> None:
        self._queue.append((job, 0))
        self._fill()

    def done(self, name: str) -> bool:
        """Whether the job has resolved and its result is still to be handed out."""
        return name in self._results

    def cancel(self) -> int:
        """Stop every attempt in flight, charged its virtual seconds, and start no queued job;
        each resolves as cancelled. Returns the attempts stopped."""
        self.ledger.stopping.set()
        stopped, self._inflight = self._inflight, {}
        for attempt in stopped.values():
            self._release(attempt.node, attempt.slot)
            self.trace.append(TraceEvent(self._now, "kill", attempt.job.name, attempt.node, attempt.slot))
            self._resolve(self.ledger.cancelled(attempt.job, self._now - attempt.started))
        self._fill()
        return len(stopped)

    def _emit_log(self, job: JobSpec):
        return lambda line: self.bus.publish(LogRecord(job_name=job.name, line=line))

    def _resolve(self, result: JobResult) -> None:
        self._results[result.name] = result
        self._unresolved.discard(result.name)

    def _release(self, node: str, slot: int) -> None:
        self.store.release(node, slot)
        self._maybe_idle += 1

    def _fill(self) -> None:
        """Place queued jobs on the lowest idle slots.

        No acquire is tried while no slot can be idle and a job is in flight:
        it would be refused, and that job's completion fills again. With
        nothing in flight a refused acquire is what finds that no slot is live:
        every busy slot holds an attempt, and a crash pops every attempt on
        the node it marks lost.
        """
        if self.ledger.stopping.is_set():
            while self._queue:
                self._resolve(self.ledger.cancelled(self._queue.pop(0)[0]))
            return
        while self._queue and (self._maybe_idle or not self._inflight):
            grant = self.store.acquire(self._queue[0][0].name)
            if grant is None:
                self._maybe_idle = 0
                if not self._inflight:  # every slot is lost: nothing can run anymore
                    while self._queue:
                        job, _ = self._queue.pop(0)
                        self._failed(job, self.ledger.retry_budget, 0.0, "no live worker slots remain")
                return
            self._maybe_idle = max(self._maybe_idle - 1, 0)
            node, slot = grant
            job, tries = self._queue.pop(0)
            self.ledger.placed()
            try:
                value, backend_dur = self.backend.evaluate(job, self._emit_log(job), slot_id=slot)
            except ATTEMPT_FAILURES as exc:
                self._release(node, slot)
                self._failed(job, tries, 0.0, str(exc))  # placement takes no virtual time
                continue
            duration = backend_dur if self.duration is None else self.duration
            token = next(self._seq)
            self._inflight[token] = _Attempt(job, tries, node, slot, self._now, duration)
            heapq.heappush(
                self._events,
                (self._now + self.dispatch_overhead + duration, next(self._seq), "complete", (token, value)),
            )
            self.trace.append(TraceEvent(self._now, "start", job.name, node, slot))

    def _failed(self, job: JobSpec, tries: int, seconds: float, reason: str) -> None:
        """Report a failed attempt to the ledger: requeue the job, or resolve it as the ledger says."""
        result = self.ledger.failed(job, tries, seconds, reason)
        if result is None:
            self.trace.append(TraceEvent(self._now, "requeue", job.name))
            self._queue.append((job, tries + 1))
        else:
            self._resolve(result)
            self.trace.append(TraceEvent(self._now, "fail", job.name))

    def _handle_complete(self, token: int, value: float) -> None:
        attempt = self._inflight.pop(token, None)
        if attempt is None:
            return  # stale completion of a crashed or stopped attempt
        job = attempt.job
        self._resolve(self.ledger.succeeded(job, value, attempt.duration))
        self.trace.append(TraceEvent(self._now, "finish", job.name, attempt.node, attempt.slot))
        self._release(attempt.node, attempt.slot)
        self._fill()

    def _handle_fault(self, fault: FaultEvent) -> None:
        self.trace.append(TraceEvent(self._now, "crash", "", fault.node))
        dead = [tok for tok, a in self._inflight.items() if a.node == fault.node]
        for token in dead:
            attempt = self._inflight.pop(token)
            self._failed(attempt.job, attempt.tries, self._now - attempt.started, f"worker {fault.node} crashed")
        self.store.mark_lost(fault.node)
        self._fill()

    def step(self) -> bool:
        """Process the next event; False when the event queue is empty."""
        if not self._events:
            return False
        time, _, kind, payload = heapq.heappop(self._events)
        self._now = max(self._now, time)
        if kind == "complete":
            token, value = payload  # type: ignore[misc]
            self._handle_complete(token, value)
        elif kind == "fault":
            self._handle_fault(payload)  # type: ignore[arg-type]
        return True

    def wait(self, names: list[str]) -> dict[str, JobResult]:
        """Run in virtual time until every named job has resolved; write the listener's files
        through once; hand the results out."""
        self._unresolved = {name for name in names if name not in self._results}
        while self._unresolved:
            if not self.step():
                raise EvoNasError("farm stalled with unresolved jobs and no pending events")
        self.listener.drain()
        return {name: self._results.pop(name) for name in names}

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
