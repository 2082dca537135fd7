"""Concrete search strategies behind a single interface.

Four strategies are registered:

* ``elitist_ga``    -- generational GA with elitist truncation over the
                       fixed-binary encoding,
* ``variable_ga``   -- the same loop over the variable-length block encoding,
* ``aging_evolution`` -- steady-state tournament evolution that always retires
                       the oldest member (cell-graph encoding); its steps run
                       in batches of ``width`` children, one ``evaluate`` call
                       per batch,
* ``nsga2``         -- two-objective (accuracy up, parameters down) selection
                       by non-dominated sorting and crowding distance.

A strategy produces exactly ``pop_size`` new evaluations per ``advance`` call,
so a full run of ``max_gen`` generations (the initial population counts as the
first) costs ``pop_size * max_gen`` evaluations when every job misses the cache.

``advance`` takes the number of jobs the engine can run at once as ``width``.
The generational strategies evaluate a whole generation in one call and ignore
it. Aging evolution draws ``width`` parents from the queue as it stands, then
evaluates their children together and applies their retire-head /
append-tail steps in child order, so ``width`` slots stay busy instead of
one; a generation is ``ceil(pop_size / width)`` such batches, the last one
short. Children of one batch cannot see each other, so the trajectory depends
on ``width`` (``width`` 1 is the classic one-child-at-a-time loop) and a run
must keep its width to stay reproducible.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, ClassVar

from ..arch.spaces import CellGraphSpace, EncodingSpace, FixedBinarySpace, VariableBlocksSpace
from ..errors import ConfigError
from .individual import Individual, Population, individual_name, make_individual
from .operators import aging_step, crossover, environmental_select_elitist, mutate, tournament_select
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
        if self.pop_size < 2:
            raise ConfigError(f"pop_size must be >= 2, got {self.pop_size}")
        if self.max_gen < 0:
            raise ConfigError(f"max_gen must be >= 0, got {self.max_gen}")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ConfigError(f"crossover_prob outside [0, 1]: {self.crossover_prob}")
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise ConfigError(f"mutation_prob outside [0, 1]: {self.mutation_prob}")
        if self.tournament_size < 2:
            raise ConfigError(f"tournament_size must be >= 2, got {self.tournament_size}")
        if self.sample_size < 1:
            raise ConfigError(f"sample_size must be >= 1, got {self.sample_size}")


class SearchStrategy(ABC):
    """One generation-producing search procedure over a configured space."""

    key: ClassVar[str]
    objectives: ClassVar[int] = 1
    #: whether ``advance``'s trajectory depends on its ``width`` argument
    uses_width: ClassVar[bool] = False

    def __init__(self, cfg: StrategyConfig, space: EncodingSpace):
        self.cfg = cfg
        self.space = space

    def initial_population(self, rng: random.Random) -> Population:
        members = [
            make_individual(individual_name(0, i), self.space.sample(rng), age=0)
            for i in range(self.cfg.pop_size)
        ]
        return Population(generation=0, members=members)

    @abstractmethod
    def advance(
        self, pop: Population, evaluate: EvaluateFn, rng: random.Random, width: int = 1
    ) -> Population:
        """Produce the next generation from an evaluated population.

        ``width`` is how many jobs the engine runs at once.
        """


class GenerationalGA(SearchStrategy):
    """Tournament mating, scheme crossover/mutation, elitist truncation."""

    key = "elitist_ga"

    def advance(
        self, pop: Population, evaluate: EvaluateFn, rng: random.Random, width: int = 1
    ) -> Population:
        cfg = self.cfg
        gen = pop.generation + 1
        children: list[Individual] = []
        while len(children) < cfg.pop_size:
            pa = tournament_select(pop, cfg.tournament_size, rng)
            pb = tournament_select(pop, cfg.tournament_size, rng)
            ga, gb = crossover(self.space, pa.genotype, pb.genotype, cfg.crossover_prob, rng)
            for g in (ga, gb):
                if len(children) >= cfg.pop_size:
                    break
                g = mutate(self.space, g, cfg.mutation_prob, rng)
                children.append(
                    make_individual(individual_name(gen, len(children)), g, age=gen)
                )
        offspring = Population(generation=pop.generation, members=children)
        evaluate(offspring.members)
        return environmental_select_elitist(pop, offspring, cfg.pop_size)


class VariableGA(GenerationalGA):
    key = "variable_ga"


class AgingEvolution(SearchStrategy):
    """Steady-state aging evolution; one generation = ``pop_size`` aging steps.

    The steps run in batches of ``width``: one ``aging_step`` call, and so one
    ``evaluate`` call, per batch.
    """

    key = "aging_evolution"
    uses_width = True

    def advance(
        self, pop: Population, evaluate: EvaluateFn, rng: random.Random, width: int = 1
    ) -> Population:
        cfg = self.cfg
        if cfg.sample_size > cfg.pop_size:
            raise ConfigError("sample_size cannot exceed pop_size")
        gen = pop.generation + 1
        counter = 0

        def make_child(parent: Individual) -> Individual:
            nonlocal counter
            g = self.space.mutate(parent.genotype, 1.0, rng)
            child = make_individual(individual_name(gen, counter), g, age=gen)
            counter += 1
            return child

        current = pop
        done = 0
        while done < cfg.pop_size:
            batch = min(width, cfg.pop_size - done)
            current = aging_step(current, cfg.sample_size, rng, make_child, evaluate, batch)
            done += batch
        return Population(generation=gen, members=current.members)


class ParetoGA(SearchStrategy):
    """Two-objective search: maximize accuracy, minimize parameter count."""

    key = "nsga2"
    objectives = 2

    def advance(
        self, pop: Population, evaluate: EvaluateFn, rng: random.Random, width: int = 1
    ) -> Population:
        cfg = self.cfg
        gen = pop.generation + 1
        children: list[Individual] = []
        while len(children) < cfg.pop_size:
            pa = pop.members[rng.randrange(len(pop))]
            pb = pop.members[rng.randrange(len(pop))]
            ga, gb = crossover(self.space, pa.genotype, pb.genotype, cfg.crossover_prob, rng)
            for g in (ga, gb):
                if len(children) >= cfg.pop_size:
                    break
                g = mutate(self.space, g, cfg.mutation_prob, rng)
                children.append(
                    make_individual(individual_name(gen, len(children)), g, age=gen)
                )
        offspring = Population(generation=pop.generation, members=children)
        evaluate(offspring.members)
        return crowding_select(pop, offspring, cfg.pop_size, n_obj=self.objectives)


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
    try:
        cls = STRATEGIES[cfg.strategy]
    except KeyError:
        raise ConfigError(
            f"unknown strategy {cfg.strategy!r}; registered: {sorted(STRATEGIES)}"
        ) from None
    return cls(cfg, space if space is not None else default_space(cfg.strategy, input_hw))
