"""Per-population fitness evaluation: decode, cache lookup, dispatch of misses.

For every unevaluated member the evaluator first consults the durable cache by
genotype identifier. Misses become jobs -- one per distinct identifier, so a
population full of duplicates costs a single backend call -- which run
concurrently on the execution engine. With caching disabled (``cache=None``)
every unevaluated member is submitted as its own job, making the backend-call
count equal the raw evaluation budget.

One job table, ``_inflight``, maps each job key (the identifier, or the
member name without a cache) to the name of its job, from the moment the job
is started until ``evaluate_population`` hands its result out. ``_start`` is
the one place that enters jobs into it, for ``submit`` and
``evaluate_population`` alike, and it picks their start order.

Jobs start in submission order, with one exception. When the run scores the
parameter-count objective (``objectives >= 2``) and a batch holds more jobs
than the engine has slots, the batch is handed over longest job first: a
stable sort by FLOPs, descending, so equal-cost jobs keep submission order.
This is Graham's LPT rule (SIAM J. Appl. Math. 17(2), 1969), which bounds the
batch makespan at (4/3 - 1/(3m)) x optimal on m slots and cuts the straggler
tail that submission order leaves. Only the start order changes: results are
applied per member, so the search trajectory is the same. The FLOPs come from
the same per-identifier decode that yields the parameter count, so ordering
costs no extra decode; single-objective runs decode nothing here, because
ordering them would add one decode per job next to the backend's own.

Members can also be started ahead of their evaluation: ``submit(members)``
starts a job for each cache miss whose key is not already in the table, and a
member whose key is in the table joins that job, so two equal children
submitted at different times cost one backend job. ``submit`` assigns no
fitness, not even to cache hits: a later ``evaluate_population`` call that
contains the member assigns it. That call hands the jobs it starts itself to
one ``engine.run_jobs`` call, then waits through ``engine.wait`` for the jobs
started earlier. ``resolved(member)`` tells without blocking whether that
call would wait for a submitted member.

A failed job (after the engine's retries) is assigned fitness 0.00: the
convention for untrainable architectures, which keeps the evaluation budget
exact instead of resampling.
"""

from __future__ import annotations

import hashlib
import logging
from operator import attrgetter
from typing import Iterable

from .arch import Genotype, canonical_text, flop_count, param_count
from .arch.spaces import EncodingSpace
from .backends import decode_from_settings
from .cache import ResultCache
from .evo.individual import Individual, Population
from .jobs import JobSpec

logger = logging.getLogger(__name__)


def job_seed(master_seed: int, identifier: str) -> int:
    digest = hashlib.sha256(f"{master_seed}:job:{identifier}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def job_spec(
    name: str, identifier: str, genotype: Genotype, settings: dict[str, str], master_seed: int
) -> JobSpec:
    """The fitness job for one genotype under ``settings``, which name its backend
    (surrogate when absent) and its epoch budget (one epoch when absent)."""
    return JobSpec(
        name=name,
        identifier=identifier,
        payload=canonical_text(genotype),
        backend=settings.get("backend", "surrogate"),
        settings=settings,
        seed=job_seed(master_seed, identifier),
        epochs=int(settings.get("total_epoch", 1)),
    )


class Evaluator:
    def __init__(
        self,
        engine,
        cache: ResultCache | None,
        settings: dict[str, str],
        space: EncodingSpace,
        master_seed: int = 0,
        objectives: int = 1,
    ):
        self.engine = engine
        self.cache = cache
        self.settings = dict(settings)
        self.space = space
        self.master_seed = master_seed
        self.objectives = objectives
        # identifier -> (params, FLOPs), one decode each; per instance, so no
        # decode is shared across runs
        self._costs: dict[str, tuple[int, int]] = {}
        # the job table: key (identifier, member name without a cache) -> name
        # of the job started for it, until evaluate_population hands it out
        self._inflight: dict[str, str] = {}
        self._key = attrgetter("identifier" if cache is not None else "name")

    @property
    def width(self) -> int:
        """How many jobs the engine runs at once: the slots of its store."""
        return len(self.engine.store)

    def _cost(self, member: Individual) -> tuple[int, int]:
        cost = self._costs.get(member.identifier)
        if cost is None:
            ir = decode_from_settings(member.genotype, self.settings)
            cost = (param_count(ir), flop_count(ir))
            self._costs[member.identifier] = cost
        return cost

    def params_of(self, member: Individual) -> int:
        return self._cost(member)[0]

    def fitness_vector(self, member: Individual, percent: float) -> tuple[float, ...]:
        accuracy = percent / 100.0
        if self.objectives >= 2:
            return (accuracy, float(self.params_of(member)))
        return (accuracy,)

    def _lookup(self, member: Individual) -> float | None:
        return self.cache.lookup(member.identifier) if self.cache is not None else None

    def _start(self, members: Iterable[Individual]) -> list[JobSpec]:
        """Enter a job into the job table for each member whose key is not in it yet;
        return the new jobs in start order."""
        leads = []
        for member in members:
            key = self._key(member)
            if key not in self._inflight:
                self._inflight[key] = member.name
                leads.append(member)
        if self.objectives >= 2 and len(leads) > self.width:
            leads.sort(key=lambda member: -self._cost(member)[1])
        return [job_spec(m.name, m.identifier, m.genotype, self.settings, self.master_seed) for m in leads]

    def submit(self, members: Iterable[Individual]) -> None:
        """Start the jobs these members need, joining jobs already in flight; assign no fitness."""
        for job in self._start(
            m for m in members
            if m.fitness is None and self._key(m) not in self._inflight and self._lookup(m) is None
        ):
            self.engine.submit(job)

    def resolved(self, member: Individual) -> bool:
        """Whether evaluating this submitted member would not wait for its job."""
        name = self._inflight.get(self._key(member))
        return name is None or self.engine.done(name)

    def evaluate_population(self, members: Population | Iterable[Individual]) -> None:
        """Assign fitness to every member; returns only when all are evaluated.

        Idempotent: already-evaluated members are untouched, and a second call
        on the same population performs zero backend jobs.
        """
        if isinstance(members, Population):
            members = members.members
        todo = [m for m in members if m.fitness is None]
        if not todo:
            return

        pending: list[Individual] = []
        for member in todo:
            if self._key(member) in self._inflight:
                continue
            hit = self._lookup(member)
            if hit is not None:
                member.assign_fitness(self.fitness_vector(member, hit))
            else:
                pending.append(member)
        jobs = self._start(pending)
        results = {}
        if jobs:
            logger.debug("starting %d jobs for %d unevaluated members", len(jobs), len(todo))
            results = self.engine.run_jobs(jobs)
        names = {self._key(m): self._inflight[self._key(m)] for m in todo if m.fitness is None}
        earlier = [name for name in names.values() if name not in results]
        if earlier:
            results = {**results, **self.engine.wait(earlier)}
        for key in names:
            del self._inflight[key]
        for member in todo:
            if member.fitness is None:
                result = results[names[self._key(member)]]
                if not result.ok:
                    logger.warning("job %s failed (%s); fitness 0.00", result.name, result.error)
                member.assign_fitness(self.fitness_vector(member, result.value))
