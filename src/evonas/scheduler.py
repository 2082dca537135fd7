"""The one scheduler core of both engines.

``Scheduler`` has no threads, sockets or clock (a "sans-I/O" core): an engine
tells it what happened and runs the attempts it places. It owns the queue,
the ``SlotStore``, the attempts in flight, the resolved results and the
attempt policy: the failures an attempt may raise (``ATTEMPT_FAILURES``), the
retry budget, the cancel flag, the seconds each job consumed, and
``EngineStats``. It alone decides what a failure means: a requeue at the
queue's tail, the fitness-0.00 give-up, or, after a cancel, ``cancelled``,
unpublished, so a resumed run trains the job again. It fails the queued jobs
once no slot is live, and builds and publishes each job's one ``JobResult``,
whose duration sums every attempt. Every call runs on one thread (the farm)
or under one lock (the threaded engine), so the core takes no lock itself.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import deque
from typing import Callable, Iterator

from .bus import InProcessBus, LogRecord
from .errors import DecodeError, JobFailed, LookupMiss, WorkerLostError
from .jobs import JobResult, JobSpec
from .slots import SlotStore

#: What a failed attempt raises; the core decides whether the job retries.
ATTEMPT_FAILURES = (JobFailed, WorkerLostError, LookupMiss, DecodeError)

#: Retries a job gets after its first failed attempt.
RETRY_BUDGET = 1


@dataclasses.dataclass
class EngineStats:
    jobs: int = 0          # jobs driven to a terminal result
    attempts: int = 0      # slot placements, including failed ones
    failures: int = 0      # jobs that exhausted their retry budget
    busy_seconds: float = 0.0  # total slot-occupancy time across attempts


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
        self.bus = bus
        self.retry_budget = retry_budget
        self.trace = trace
        self.stats = EngineStats()
        self.unresolved: set[str] = set()  # names the current wait needs that have not resolved
        self._cancelled = False  # once set, a job that fails or is about to start resolves as cancelled
        self._queue: deque[tuple[JobSpec, int]] = deque()  # (job, failed attempts so far)
        self._inflight: dict[int, Attempt] = {}  # token -> attempt, in placement order
        self._pending: set[str] = set()  # submitted, not resolved
        self._results: dict[str, JobResult] = {}  # resolved, not yet handed out
        self._consumed: dict[str, float] = {}  # job name -> seconds of its failed attempts
        self._tokens = itertools.count()

    def submit(self, job: JobSpec) -> None:
        self._pending.add(job.name)
        self._queue.append((job, 0))

    def placements(self) -> Iterator[Attempt]:
        """Place queued jobs on the lowest idle slots, one per step, so that an attempt the
        engine ends at once is requeued before the next placement. With no idle slot and an
        attempt in flight, the pass stops without asking the store. A refused acquire with
        nothing in flight means that no slot is live (every busy slot holds an attempt): the
        queued jobs then fail. After a cancel, they resolve as cancelled instead."""
        if self._cancelled:
            self.cancel()
        queue = self._queue
        while queue:
            if self._inflight and not self.store.idle():
                return
            grant = self.store.acquire()
            if grant is None:  # refused with nothing in flight: no slot is live
                while queue:
                    self._failed(queue.popleft()[0], self.retry_budget, 0.0, "no live worker slots remain")
                return
            job, tries = queue.popleft()
            self.stats.attempts += 1
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
            return self._failed(attempt.job, attempt.tries, seconds, outcome)
        return self._resolve(attempt.job, outcome, seconds)

    def _failed(self, job: JobSpec, tries: int, seconds: float, reason: str) -> JobResult | None:
        """Charge a failed attempt that held a slot ``seconds``, after ``tries`` earlier ones.
        Resolves the job as cancelled after a cancel; requeues it at the queue's tail while
        its retry budget lasts (None); otherwise resolves it with the fitness-0.00 give-up.
        A failure no retry can mend passes ``tries=retry_budget``."""
        if self._cancelled:
            return self._resolve(job, 0.0, seconds, "cancelled")
        if tries < self.retry_budget:
            self.stats.busy_seconds += seconds
            self._consumed[job.name] = self._consumed.get(job.name, 0.0) + seconds
            self._queue.append((job, tries + 1))
            result = None
        else:
            line = f"evaluation failed: {reason}; assigning fitness 0.00"
            self.bus.publish(LogRecord(job_name=job.name, line=line))
            result = self._resolve(job, 0.0, seconds, reason)
        if self.trace is not None:
            self.trace("requeue" if result is None else "fail", job.name)
        return result

    def node_lost(self, node: str) -> list[Attempt]:
        """Mark every slot of ``node`` lost; returns its attempts in flight, for the engine to end."""
        self.store.mark_lost(node)
        return [attempt for attempt in self._inflight.values() if attempt.node == node]

    def cancel(self) -> list[Attempt]:
        """Set the cancel flag and resolve each queued job as cancelled; returns the attempts
        in flight, which the engine stops. Each that then ends as failed resolves as cancelled."""
        self._cancelled = True
        while self._queue:
            self._resolve(self._queue.popleft()[0], 0.0, 0.0, "cancelled")
        return list(self._inflight.values())

    def _resolve(self, job: JobSpec, value: float, seconds: float, failure: str | None = None) -> JobResult:
        """Record the job's one result, whose duration sums every attempt, and publish it.
        After a cancel every failure resolves as cancelled: neither published nor counted,
        so no cache entry keeps it."""
        self.stats.busy_seconds += seconds
        total = self._consumed.pop(job.name, 0.0) + seconds
        result = JobResult(job.name, job.identifier, value, total, ok=failure is None, error=failure or "")
        if failure is None or not self._cancelled:
            self.stats.jobs += 1
            self.stats.failures += failure is not None
            self.bus.publish(result)
        self._pending.discard(job.name)
        self._results[job.name] = result
        self.unresolved.discard(job.name)
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
