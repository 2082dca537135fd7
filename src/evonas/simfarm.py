"""Deterministic virtual-time farm for desk-scale runs and scheduler tests.

Workers, slots, job durations, and faults all live in simulated time: a
single-threaded event loop places queued jobs greedily on the lowest idle
slot (so no job ever waits while an idle, healthy slot exists), publishes the
same process/log/fitness records a real farm would, and advances a virtual
clock. Event order is deterministic: ties break on submission sequence.

Scripted faults crash a worker at a given virtual time; in-flight jobs on the
dead node are requeued until their retry budget runs out, after which they
resolve with the fitness-0.00 convention for untrainable or unlucky jobs.
"""

from __future__ import annotations

import heapq
import itertools
import logging
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .bus import FitnessRecord, Listener, LogRecord, ProcessRecord, RecordBus
from .errors import ConfigError, DecodeError, EvoNasError, JobFailed, LookupMiss
from .jobs import JobResult, JobSpec
from .slots import SlotStore

logger = logging.getLogger(__name__)

_SYNTHETIC_PID_BASE = 100_000


@dataclass(frozen=True)
class FaultEvent:
    kind: str
    node: str
    at: float


def parse_fault_script(entries: Iterable[Mapping | FaultEvent]) -> tuple[FaultEvent, ...]:
    """Validate a fault script; only worker crashes are scriptable."""
    faults = []
    for entry in entries:
        if isinstance(entry, FaultEvent):
            fault = entry
        else:
            try:
                fault = FaultEvent(kind=str(entry["kind"]), node=str(entry["node"]), at=float(entry["at"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"malformed fault entry {entry!r}: {exc}") from exc
        if fault.kind != "crash":
            raise ConfigError(f"unknown fault kind {fault.kind!r}")
        if fault.at < 0:
            raise ConfigError(f"fault time must be non-negative, got {fault.at}")
        faults.append(fault)
    return tuple(faults)


@dataclass
class EngineStats:
    jobs: int = 0          # jobs driven to a terminal result
    attempts: int = 0      # slot placements, including retried ones
    failures: int = 0      # jobs that exhausted their retry budget
    busy_seconds: float = 0.0  # total slot-occupancy time across attempts


@dataclass(frozen=True)
class TraceEvent:
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
    pid: int


class SimulatedFarm:
    """Virtual-time execution engine satisfying the same contract as the real one."""

    def __init__(
        self,
        workers: Mapping[str, int],
        backend,
        bus: RecordBus,
        listener: Listener,
        *,
        duration: float | Callable[[JobSpec], float] | None = None,
        dispatch_overhead: float = 0.0,
        faults: Iterable[Mapping | FaultEvent] = (),
        retry_budget: int = 1,
        seed: int = 0,
    ):
        if not workers:
            raise ConfigError("farm needs at least one worker")
        if dispatch_overhead < 0:
            raise ConfigError("dispatch overhead must be non-negative")
        self.workers = dict(workers)
        self.backend = backend
        self.bus = bus
        self.listener = listener
        self.store = SlotStore((node, i) for node, n in sorted(workers.items()) for i in range(n))
        self.duration = duration
        self.dispatch_overhead = dispatch_overhead
        self.retry_budget = retry_budget
        self.seed = seed
        self.stats = EngineStats()
        self.trace: list[TraceEvent] = []
        self.last_makespan = 0.0
        self._now = 0.0
        self._seq = itertools.count()
        self._events: list[tuple[float, int, str, object]] = []
        self._queue: list[tuple[JobSpec, int]] = []
        self._inflight: dict[int, _Attempt] = {}
        self._consumed: dict[str, float] = {}
        self._results: dict[str, JobResult] = {}
        for fault in parse_fault_script(faults):
            heapq.heappush(self._events, (fault.at, next(self._seq), "fault", fault))

    @property
    def now(self) -> float:
        return self._now

    def _job_duration(self, job: JobSpec, backend_duration: float) -> float:
        if self.duration is None:
            return backend_duration
        if callable(self.duration):
            return float(self.duration(job))
        return float(self.duration)

    def submit(self, job: JobSpec) -> None:
        self._queue.append((job, 0))
        self._fill()

    def _emit_log(self, job: JobSpec):
        return lambda line: self.bus.publish(LogRecord(job_name=job.name, line=line))

    def _fill(self) -> None:
        while self._queue:
            grant = self.store.acquire(self._queue[0][0].name)
            if grant is None:
                if not self.store.has_live():
                    # every slot is lost or quarantined: nothing can run anymore
                    while self._queue:
                        job, tries = self._queue.pop(0)
                        self._terminal_fail(job, "no live worker slots remain")
                return
            node, slot = grant
            job, tries = self._queue.pop(0)
            try:
                value, backend_dur = self.backend.evaluate(job, self._emit_log(job), slot_id=slot)
            except (JobFailed, LookupMiss, DecodeError) as exc:
                self.store.release(node, slot)
                self._retry_or_fail(job, tries, str(exc))
                continue
            duration = self._job_duration(job, backend_dur)
            token = next(self._seq)
            pid = _SYNTHETIC_PID_BASE + token
            attempt = _Attempt(job, tries, node, slot, self._now, duration, pid)
            self._inflight[token] = attempt
            self.stats.attempts += 1
            self.bus.process_started(ProcessRecord(node=node, pid=pid, job_name=job.name, started_at=self._now))
            heapq.heappush(
                self._events,
                (self._now + self.dispatch_overhead + duration, next(self._seq), "complete", (token, value)),
            )
            self.trace.append(TraceEvent(self._now, "start", job.name, node, slot))

    def _retry_or_fail(self, job: JobSpec, tries: int, reason: str) -> None:
        if tries < self.retry_budget:
            self.trace.append(TraceEvent(self._now, "requeue", job.name))
            self._queue.append((job, tries + 1))
        else:
            self._terminal_fail(job, reason)

    def _terminal_fail(self, job: JobSpec, reason: str) -> None:
        consumed = self._consumed.pop(job.name, 0.0)
        self.bus.publish(LogRecord(job_name=job.name, line=f"evaluation failed: {reason}; assigning fitness 0.00"))
        self.bus.publish(
            FitnessRecord(job_name=job.name, identifier=job.identifier, value=0.0, duration_s=consumed)
        )
        self._results[job.name] = JobResult(job.name, job.identifier, 0.0, consumed, ok=False, error=reason)
        self.stats.failures += 1
        self.stats.jobs += 1
        self.trace.append(TraceEvent(self._now, "fail", job.name))

    def _handle_complete(self, token: int, value: float) -> None:
        attempt = self._inflight.pop(token, None)
        if attempt is None:
            return  # stale completion of a crashed or killed attempt
        job = attempt.job
        self.stats.busy_seconds += attempt.duration
        total = self._consumed.pop(job.name, 0.0) + attempt.duration
        self.bus.process_ended(attempt.node, attempt.pid, job.name)
        self.bus.publish(
            FitnessRecord(job_name=job.name, identifier=job.identifier, value=value, duration_s=total)
        )
        self._results[job.name] = JobResult(job.name, job.identifier, value, total, ok=True)
        self.stats.jobs += 1
        self.trace.append(TraceEvent(self._now, "finish", job.name, attempt.node, attempt.slot))
        self.store.release(attempt.node, attempt.slot)
        self._fill()

    def _handle_fault(self, fault: FaultEvent) -> None:
        self.trace.append(TraceEvent(self._now, "crash", "", fault.node))
        dead = [tok for tok, a in self._inflight.items() if a.node == fault.node]
        for token in dead:
            attempt = self._inflight.pop(token)
            elapsed = self._now - attempt.started
            self.stats.busy_seconds += elapsed
            self._consumed[attempt.job.name] = self._consumed.get(attempt.job.name, 0.0) + elapsed
            self.bus.process_ended(attempt.node, attempt.pid, attempt.job.name)
            self._retry_or_fail(attempt.job, attempt.tries, f"worker {fault.node} crashed")
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

    def run_jobs(self, jobs: list[JobSpec]) -> dict[str, JobResult]:
        """Submit, run to completion in virtual time, and return per-name results."""
        start = self._now
        names = [job.name for job in jobs]
        for job in jobs:
            self.submit(job)
        while any(name not in self._results for name in names):
            if not self.step():
                raise EvoNasError("farm stalled with unresolved jobs and no pending events")
        self.listener.drain()
        self.last_makespan = self._now - start
        return {name: self._results[name] for name in names}

    def terminate(self, node: str, pid: int) -> None:
        """Kill the attempt owning (node, pid): slot released, no requeue."""
        for token, attempt in list(self._inflight.items()):
            if attempt.node == node and attempt.pid == pid:
                del self._inflight[token]
                self.bus.process_ended(node, pid, attempt.job.name)
                self.store.release(attempt.node, attempt.slot)
                self.trace.append(TraceEvent(self._now, "kill", attempt.job.name, node, attempt.slot))
                self._results[attempt.job.name] = JobResult(
                    attempt.job.name, attempt.job.identifier, 0.0, 0.0, ok=False, error="killed"
                )

    def cancel_queued(self) -> int:
        """Drop every queued-but-unplaced job (run interruption)."""
        dropped = len(self._queue)
        for job, _ in self._queue:
            self._results.setdefault(
                job.name, JobResult(job.name, job.identifier, 0.0, 0.0, ok=False, error="killed")
            )
        self._queue.clear()
        return dropped


def simulate_farm(
    workers: Mapping[str, int],
    backend,
    bus: RecordBus,
    listener: Listener,
    *,
    duration: float | Callable[[JobSpec], float] | None = None,
    dispatch_overhead: float = 0.0,
    faults: Iterable[Mapping | FaultEvent] = (),
    retry_budget: int = 1,
    seed: int = 0,
) -> SimulatedFarm:
    """Build a validated simulated farm (ConfigError on malformed specs)."""
    return SimulatedFarm(
        workers,
        backend,
        bus,
        listener,
        duration=duration,
        dispatch_overhead=dispatch_overhead,
        faults=faults,
        retry_budget=retry_budget,
        seed=seed,
    )
