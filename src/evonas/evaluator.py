"""Per-population fitness evaluation: decode, cache lookup, dispatch of misses.

For every unevaluated member the evaluator first consults the durable cache by
genotype identifier. Misses become jobs -- one per distinct identifier, so a
population full of duplicates costs a single backend call -- which run
concurrently on the execution engine. With caching disabled (``cache=None``)
every unevaluated member is submitted as its own job, making the backend-call
count equal the raw evaluation budget.

A failed job (after the engine's retries) is assigned fitness 0.00: the
convention for untrainable architectures, which keeps the evaluation budget
exact instead of resampling.
"""

from __future__ import annotations

import hashlib
import logging
from typing import Iterable

from .arch import param_count
from .arch.spaces import EncodingSpace
from .cache import ResultCache
from .datasets import dataset_spec
from .errors import EvoNasError
from .evo.individual import Individual, Population
from .jobs import JobSpec

logger = logging.getLogger(__name__)


def job_seed(master_seed: int, identifier: str) -> int:
    digest = hashlib.sha256(f"{master_seed}:job:{identifier}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


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
        self._params_cache: dict[str, int] = {}

    @property
    def width(self) -> int:
        """How many jobs the engine runs at once: the slots of its store."""
        return len(self.engine.store)

    def params_of(self, member: Individual) -> int:
        cached = self._params_cache.get(member.identifier)
        if cached is None:
            shape, classes = dataset_spec(self.settings.get("dataset", "cifar10"))
            cached = param_count(self.space.decode(member.genotype, shape, classes))
            self._params_cache[member.identifier] = cached
        return cached

    def fitness_vector(self, member: Individual, percent: float) -> tuple[float, ...]:
        accuracy = percent / 100.0
        if self.objectives >= 2:
            return (accuracy, float(self.params_of(member)))
        return (accuracy,)

    def job_for(self, member: Individual) -> JobSpec:
        from .arch import canonical_text

        return JobSpec(
            name=member.name,
            identifier=member.identifier,
            payload=canonical_text(member.genotype),
            backend=self.settings.get("backend", "surrogate"),
            settings=self.settings,
            seed=job_seed(self.master_seed, member.identifier),
            epochs=int(self.settings.get("total_epoch", 1)),
        )

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
            hit = self.cache.lookup(member.identifier) if self.cache is not None else None
            if hit is not None:
                member.assign_fitness(self.fitness_vector(member, hit))
            else:
                pending.append(member)
        if not pending:
            return

        if self.cache is not None:
            # one job per distinct identifier; duplicates share the result
            groups: dict[str, list[Individual]] = {}
            for member in pending:
                groups.setdefault(member.identifier, []).append(member)
            jobs = [self.job_for(group[0]) for group in groups.values()]
        else:
            groups = {}
            jobs = [self.job_for(member) for member in pending]

        logger.debug("dispatching %d jobs for %d unevaluated members", len(jobs), len(pending))
        results = self.engine.run_jobs(jobs)

        if self.cache is not None:
            for identifier, group in groups.items():
                result = results[group[0].name]
                if not result.ok:
                    logger.warning("job %s failed (%s); fitness 0.00", result.name, result.error)
                for member in group:
                    member.assign_fitness(self.fitness_vector(member, result.value))
        else:
            for member in pending:
                result = results[member.name]
                member.assign_fitness(self.fitness_vector(member, result.value))

        still = [m.name for m in todo if m.fitness is None]
        if still:
            raise EvoNasError(f"members left unevaluated after dispatch: {still}")
