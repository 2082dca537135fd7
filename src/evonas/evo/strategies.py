"""Concrete search strategies behind a single interface.

Four strategies are registered:

* ``elitist_ga``    -- generational GA with elitist truncation over the
                       fixed-binary encoding,
* ``variable_ga``   -- the same loop over the variable-length block encoding,
* ``aging_evolution`` -- steady-state tournament evolution that always retires
                       the oldest member (cell-graph encoding), pipelined at a
                       fixed lag so that every slot stays busy,
* ``nsga2``         -- two-objective (accuracy up, parameters down) selection
                       by non-dominated sorting and crowding distance.

A strategy produces exactly ``pop_size`` new evaluations per generation, so a
full run of ``max_gen`` generations (the initial population counts as the
first) costs ``pop_size * max_gen`` evaluations when every job misses the cache.

The runner drives a strategy through ``generations``, which yields each next
generation once all its members have fitness. The generational strategies
make one ``advance`` call per generation and evaluate a whole generation at
once; they do not depend on the slot count. They share one breeding loop,
``_breed``, and differ only in how a parent is picked (a tournament, or a
uniform draw for nsga2) and in the final selection.

Aging evolution keeps one history list of every member ever created: the
initial population, then every child in child order. After ``m`` children
have been applied the queue is ``hist[m : m + P]`` (P the population size).
With K slots the lag is L = 2K - 1: global child i is drawn from the queue
``hist[j : j + P]`` with ``j = max(0, i - L + 1)``, so children before j
must have fitness by then, while the L - 1 children before i may still be
in flight. Each child draws its sample and its mutation from the RNG of its
own generation, in child order, is submitted as soon as it is drawn, and
is applied in child order. The trajectory thus depends on the seed and K,
never on completion order; K = 1 gives L = 1, the classic one-child loop.
The lag crosses generation boundaries: generation t is complete, and is
yielded, when its last child is applied, while children of generation t+1
are still running. Generation t is then exactly ``hist[tP : tP + P]``, so a
resume rebuilds the history from the trailing population logs (see
``runner``).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterator

from ..arch.spaces import CellGraphSpace, EncodingSpace, FixedBinarySpace, VariableBlocksSpace
from ..errors import ConfigError, EvaluationOrderError
from .individual import Individual, Population, individual_name, make_individual
from .operators import FITNESS0, crossover, environmental_select_elitist, mutate, tournament_select
from .pareto import crowding_select

EvaluateFn = Callable[[list[Individual]], None]


@dataclass
class StrategyConfig:
    strategy: str
    pop_size: int
    max_gen: int
    crossover_prob: float = 0.9
    mutation_prob: float = 0.1
    tournament_size: int = 2
    sample_size: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"unknown strategy {self.strategy!r}; registered: {sorted(STRATEGIES)}", "strategy"
            )
        if self.pop_size < 2:
            raise ConfigError(f"must be >= 2, got {self.pop_size}", "pop_size")
        if self.max_gen < 0:
            raise ConfigError(f"must be >= 0, got {self.max_gen}", "max_gen")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ConfigError(f"outside [0, 1]: {self.crossover_prob}", "crossover_prob")
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise ConfigError(f"outside [0, 1]: {self.mutation_prob}", "mutation_prob")
        if self.tournament_size < 2:
            raise ConfigError(f"must be >= 2, got {self.tournament_size}", "tournament_size")
        if self.sample_size < 1:
            raise ConfigError(f"must be >= 1, got {self.sample_size}", "sample_size")


class SearchStrategy(ABC):
    """One generation-producing search procedure over a configured space."""

    key: ClassVar[str]
    objectives: ClassVar[int] = 1

    def __init__(self, cfg: StrategyConfig, space: EncodingSpace):
        self.cfg = cfg
        self.space = space

    def initial_population(self, rng: random.Random) -> Population:
        members = [
            make_individual(individual_name(0, i), self.space.sample(rng), age=0)
            for i in range(self.cfg.pop_size)
        ]
        return Population(generation=0, members=members)

    def lag(self, width: int) -> int:
        """The pipeline lag on ``width`` slots; 0 when the trajectory does not depend on it."""
        return 0

    def generations(
        self, history: list[Individual], t: int, evaluator, rng_for: Callable[[int], random.Random]
    ) -> Iterator[Population]:
        """Yield generations t+1 .. max_gen-1, each once all its members have fitness.

        ``history`` ends with generation t's evaluated members; ``rng_for(g)``
        is the RNG that advances generation g. ``evaluator`` supplies
        ``evaluate_population``, ``submit``, ``resolved`` and ``width``.
        """
        pop = Population(t, list(history[-self.cfg.pop_size:]))
        while pop.generation + 1 < self.cfg.max_gen:
            pop = self.advance(pop, evaluator.evaluate_population, rng_for(pop.generation))
            yield pop

    @abstractmethod
    def advance(self, pop: Population, evaluate: EvaluateFn, rng: random.Random) -> Population:
        """Produce the next generation from an evaluated population."""

    def _breed(self, pop: Population, pick: Callable[[], Individual], rng: random.Random) -> Population:
        """``pop_size`` children of the next generation: each pair of parents from ``pick``
        is crossed over, then each child is mutated, all drawing from ``rng`` in that order."""
        cfg = self.cfg
        gen = pop.generation + 1
        children: list[Individual] = []
        while len(children) < cfg.pop_size:
            pa, pb = pick(), pick()
            ga, gb = crossover(self.space, pa.genotype, pb.genotype, cfg.crossover_prob, rng)
            for g in (ga, gb):
                if len(children) >= cfg.pop_size:
                    break
                g = mutate(self.space, g, cfg.mutation_prob, rng)
                children.append(make_individual(individual_name(gen, len(children)), g, age=gen))
        return Population(generation=pop.generation, members=children)


class GenerationalGA(SearchStrategy):
    """Tournament mating, scheme crossover/mutation, elitist truncation."""

    key = "elitist_ga"

    def __init__(self, cfg: StrategyConfig, space: EncodingSpace):
        if cfg.tournament_size > cfg.pop_size:
            raise ConfigError(f"{cfg.tournament_size} exceeds pop_size {cfg.pop_size}", "tournament_size")
        super().__init__(cfg, space)

    def advance(self, pop: Population, evaluate: EvaluateFn, rng: random.Random) -> Population:
        offspring = self._breed(pop, lambda: tournament_select(pop, self.cfg.tournament_size, rng), rng)
        evaluate(offspring.members)
        return environmental_select_elitist(pop, offspring, self.cfg.pop_size)


class VariableGA(GenerationalGA):
    key = "variable_ga"


class AgingEvolution(SearchStrategy):
    """Steady-state aging evolution at a fixed lag; one generation = ``pop_size`` children."""

    key = "aging_evolution"

    def __init__(self, cfg: StrategyConfig, space: EncodingSpace):
        if cfg.sample_size > cfg.pop_size:
            raise ConfigError(f"{cfg.sample_size} exceeds pop_size {cfg.pop_size}", "sample_size")
        super().__init__(cfg, space)

    def lag(self, width: int) -> int:
        return 2 * width - 1

    def generations(
        self, history: list[Individual], t: int, evaluator, rng_for: Callable[[int], random.Random]
    ) -> Iterator[Population]:
        return self._pipeline(
            history, t, self.cfg.max_gen - 1, self.lag(evaluator.width), rng_for,
            evaluator.evaluate_population, evaluator.submit, evaluator.resolved,
        )

    def advance(self, pop: Population, evaluate: EvaluateFn, rng: random.Random) -> Population:
        """One generation of the classic loop (lag 1), each child evaluated on its own."""
        (nxt,) = self._pipeline(pop.members, pop.generation, pop.generation + 1, 1, lambda g: rng, evaluate)
        return nxt

    def _pipeline(
        self,
        history: list[Individual],
        t: int,
        last: int,
        lag: int,
        rng_for: Callable[[int], random.Random],
        evaluate: EvaluateFn,
        submit: EvaluateFn | None = None,
        resolved: Callable[[Individual], bool] | None = None,
    ) -> Iterator[Population]:
        """Yield generations t+1 .. ``last`` of aging at ``lag`` over ``history``.

        Positions are indices into ``hist``: child c (counted from the first
        child of generation t+1, so global child i = tP + c) sits at
        ``base + c``, and its queue ends ``min(i, lag - 1)`` positions before
        it. Each time the oldest unapplied child is needed, one ``evaluate``
        call covers it and every later child up to the first one whose job is
        still running, so one call serves each wait.
        """
        cfg = self.cfg
        size = cfg.pop_size
        hist = list(history)
        base = len(hist)
        total = (last - t) * size
        drawn = applied = 0
        rng = None
        while applied < total:
            fresh = []
            while drawn < total:
                end = base + drawn - min(t * size + drawn, lag - 1)
                if end > base + applied:
                    break  # the queue of this child still holds one without fitness
                gen, index = divmod(drawn, size)
                if index == 0:
                    rng = rng_for(t + gen)
                parent = max(rng.sample(hist[end - size : end], cfg.sample_size), key=FITNESS0)
                g = self.space.mutate(parent.genotype, 1.0, rng)
                child = make_individual(individual_name(t + 1 + gen, index), g, age=t + 1 + gen)
                hist.append(child)
                fresh.append(child)
                drawn += 1
            if submit is not None and fresh:
                submit(fresh)
            head = base + applied
            stop = head + 1
            if resolved is not None:
                while stop < base + drawn and resolved(hist[stop]):
                    stop += 1
            evaluate(hist[head:stop])
            if hist[head].fitness is None:
                raise EvaluationOrderError(f"child {hist[head].name} came back unevaluated")
            while applied < drawn and hist[base + applied].fitness is not None:
                applied += 1
                if applied % size == 0:
                    yield Population(t + applied // size, hist[base + applied - size : base + applied])
                    # no later queue starts before this generation less the lag: drop the rest
                    dead = base + applied - size - (lag - 1)
                    if dead > 0:
                        del hist[:dead]
                        base -= dead


class ParetoGA(SearchStrategy):
    """Two-objective search: maximize accuracy, minimize parameter count."""

    key = "nsga2"
    objectives = 2

    def advance(self, pop: Population, evaluate: EvaluateFn, rng: random.Random) -> Population:
        offspring = self._breed(pop, lambda: pop.members[rng.randrange(len(pop))], rng)
        evaluate(offspring.members)
        return crowding_select(pop, offspring, self.cfg.pop_size, n_obj=self.objectives)


STRATEGIES: dict[str, type[SearchStrategy]] = {
    cls.key: cls for cls in (GenerationalGA, VariableGA, AgingEvolution, ParetoGA)
}


def default_space(strategy_key: str, input_hw: int = 32) -> EncodingSpace:
    """The encoding each strategy searches by default."""
    if strategy_key == "elitist_ga":
        return FixedBinarySpace()
    if strategy_key in ("variable_ga", "nsga2"):
        return VariableBlocksSpace(input_hw=input_hw)
    if strategy_key == "aging_evolution":
        return CellGraphSpace()
    raise ConfigError(f"unknown strategy {strategy_key!r}")


def build_strategy(
    cfg: StrategyConfig, space: EncodingSpace | None = None, input_hw: int = 32
) -> SearchStrategy:
    return STRATEGIES[cfg.strategy](cfg, space if space is not None else default_space(cfg.strategy, input_hw))
