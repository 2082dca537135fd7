"""The one scheduler core of both engines, and the attempt ledger it owns.

``Scheduler`` has no threads, sockets or clock (a "sans-I/O" core): an engine
tells it what happened and runs the attempts it places. It owns the queue,
the ``SlotStore``, the ``AttemptLedger``, the attempts in flight and the
resolved results, and alone requeues a failed attempt (at the queue's tail)
and fails the queued jobs once no slot is live.

``AttemptLedger`` owns the attempt policy: the failures an attempt may raise
(``ATTEMPT_FAILURES``), the retry budget, the cancel flag, the seconds each
job consumed, and ``EngineStats`` under one lock. Its ``failed`` alone decides
what a failure means: retry, the fitness-0.00 give-up, or, after a cancel,
``cancelled``, unpublished, so a resumed run trains the job again. It builds
and publishes each job's one ``JobResult``, whose duration sums every attempt.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
from collections import deque
from typing import Callable, Iterator

from .bus import InProcessBus, LogRecord
from .errors import DecodeError, JobFailed, LookupMiss, WorkerLostError
from .jobs import JobResult, JobSpec
from .slots import SlotStore

#: What a failed attempt raises; the ledger decides whether the job retries.
ATTEMPT_FAILURES = (JobFailed, WorkerLostError, LookupMiss, DecodeError)

#: Retries a job gets after its first failed attempt.
RETRY_BUDGET = 1


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


@dataclasses.dataclass(eq=False)
class Attempt:
    """One job's attempt on one slot; ``started`` is free for the engine's clock."""

    token: int
    job: JobSpec
    tries: int  # failed attempts before this one
    node: str
    slot: int
    started: float = 0.0


class Scheduler:
    """``submit`` queues a job; ``placements`` yields the attempts to start now; the engine
    reports each end to ``ended``. ``trace(kind, job name)``, when given, hears of each
    "requeue" and "fail" the core decides before a cancel."""

    def __init__(
        self,
        store: SlotStore,
        bus: InProcessBus,
        retry_budget: int = RETRY_BUDGET,
        trace: Callable[[str, str], None] | None = None,
    ):
        self.store = store
        self.ledger = AttemptLedger(bus, retry_budget)
        self.trace = trace
        self.unresolved: set[str] = set()  # names the current wait needs that have not resolved
        self._queue: deque[tuple[JobSpec, int]] = deque()  # (job, failed attempts so far)
        self._inflight: dict[int, Attempt] = {}  # token -> attempt, in placement order
        self._pending: set[str] = set()  # submitted, not resolved
        self._results: dict[str, JobResult] = {}  # resolved, not yet handed out
        self._tokens = itertools.count()

    def submit(self, job: JobSpec) -> None:
        self._pending.add(job.name)
        self._queue.append((job, 0))

    def placements(self) -> Iterator[Attempt]:
        """Place queued jobs on the lowest idle slots, one per step, so that an attempt the
        engine ends at once is requeued before the next placement. A refused acquire with
        nothing in flight means that no slot is live (every busy slot holds an attempt): the
        queued jobs then fail. After a cancel, they resolve as cancelled instead."""
        if self.ledger.stopping.is_set():
            self.cancel()
        queue = self._queue
        while queue:
            grant = self.store.acquire(queue[0][0].name)
            if grant is None:
                while queue and not self._inflight:  # nothing in flight: no slot is live
                    job = queue.popleft()[0]
                    self._attempt_failed(job, self.ledger.retry_budget, 0.0, "no live worker slots remain")
                return
            job, tries = queue.popleft()
            self.ledger.placed()
            attempt = Attempt(next(self._tokens), job, tries, *grant)
            self._inflight[attempt.token] = attempt
            yield attempt

    def ended(self, token: int, outcome: float | str, seconds: float) -> JobResult | None:
        """Report the end of attempt ``token``: its value, or a failure's reason (a str), after
        it held its slot ``seconds``. Frees the slot. Returns the job's result when the job
        resolved; None when it was requeued, or when the attempt had ended already."""
        attempt = self._inflight.pop(token, None)
        if attempt is None:
            return None
        self.store.release(attempt.node, attempt.slot)
        if isinstance(outcome, str):
            return self._attempt_failed(attempt.job, attempt.tries, seconds, outcome)
        return self._resolve(self.ledger.succeeded(attempt.job, outcome, seconds))

    def _attempt_failed(self, job: JobSpec, tries: int, seconds: float, reason: str) -> JobResult | None:
        """Requeue the job at the queue's tail, or resolve it, as the ledger decides."""
        result = self.ledger.failed(job, tries, seconds, reason)
        if result is None:
            self._queue.append((job, tries + 1))
        else:
            self._resolve(result)
        if self.trace is not None and not self.ledger.stopping.is_set():
            self.trace("requeue" if result is None else "fail", job.name)
        return result

    def node_lost(self, node: str) -> list[Attempt]:
        """Mark every slot of ``node`` lost; returns its attempts in flight, for the engine to end."""
        self.store.mark_lost(node)
        return [attempt for attempt in self._inflight.values() if attempt.node == node]

    def cancel(self) -> list[Attempt]:
        """Set the cancel flag and resolve each queued job as cancelled; returns the attempts
        in flight, which the engine stops. Each that then ends as failed resolves as cancelled."""
        self.ledger.stopping.set()
        while self._queue:
            self._resolve(self.ledger.cancelled(self._queue.popleft()[0]))
        return list(self._inflight.values())

    def _resolve(self, result: JobResult) -> JobResult:
        self._pending.discard(result.name)
        self._results[result.name] = result
        self.unresolved.discard(result.name)
        return result

    def expect(self, names: list[str]) -> None:
        """Name the jobs a wait needs: ``unresolved`` becomes those not resolved yet.
        A name that was never submitted, or was handed out already, raises KeyError."""
        unresolved = {name for name in names if name not in self._results}
        unknown = unresolved - self._pending
        if unknown:
            raise KeyError(sorted(unknown)[0])
        self.unresolved = unresolved

    def done(self, name: str) -> bool:
        """Whether the job has resolved and its result is still to be handed out."""
        return name in self._results

    def take(self, names: list[str]) -> dict[str, JobResult]:
        """Hand the named results out, each once."""
        return {name: self._results.pop(name) for name in names}
