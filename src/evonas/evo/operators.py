"""Selection and variation operators shared by the search strategies."""

from __future__ import annotations

import random
from operator import attrgetter
from typing import Callable

from ..arch import Genotype
from ..arch.spaces import EncodingSpace
from ..errors import ConfigError, EvaluationOrderError, InvariantViolation, SchemeError
from .individual import Individual, Population, rank_key

#: Objective 0 as a ``max`` key; ``max`` keeps the first of equally fit members.
FITNESS0 = attrgetter("fitness0")


def tournament_select(pop: Population, k: int, rng: random.Random) -> Individual:
    """Best of ``k`` members sampled without replacement; ties go to the earlier sample slot."""
    if k < 1 or k > len(pop):
        raise ConfigError(f"tournament size {k} invalid for population of {len(pop)}")
    pop.require_evaluated()
    sample = rng.sample(pop.members, k)
    winner = sample[0]
    for contender in sample[1:]:
        if contender.fitness0 > winner.fitness0:
            winner = contender
    return winner


def roulette_select(pop: Population, rng: random.Random) -> Individual:
    """Fitness-proportionate selection; uniform fallback when all fitnesses are zero."""
    pop.require_evaluated()
    weights = [m.fitness0 for m in pop.members]
    if any(w < 0 for w in weights):
        raise InvariantViolation("roulette selection requires non-negative fitness")
    total = sum(weights)
    if total == 0.0:
        return pop.members[rng.randrange(len(pop))]
    pick = rng.random() * total
    acc = 0.0
    for member, w in zip(pop.members, weights):
        acc += w
        if pick < acc:
            return member
    return pop.members[-1]  # guards float round-off at the upper edge


def crossover(
    space: EncodingSpace,
    a: Genotype,
    b: Genotype,
    p_c: float,
    rng: random.Random,
) -> tuple[Genotype, Genotype]:
    """With probability ``p_c`` recombine via the scheme's operator, else copy the parents."""
    if a.scheme is not b.scheme:
        raise SchemeError(f"cannot cross {a.scheme.value} with {b.scheme.value}")
    if a.scheme is not space.scheme:
        raise SchemeError(f"space handles {space.scheme.value}, got {a.scheme.value}")
    if rng.random() >= p_c:
        return a, b
    return space.crossover_pair(a, b, rng)


def mutate(space: EncodingSpace, g: Genotype, p_m: float, rng: random.Random) -> Genotype:
    if g.scheme is not space.scheme:
        raise SchemeError(f"space handles {space.scheme.value}, got {g.scheme.value}")
    return space.mutate(g, p_m, rng)


def environmental_select_elitist(
    parents: Population, offspring: Population, pop_size: int | None = None
) -> Population:
    """Top ``pop_size`` of parents + offspring by objective 0; deterministic tie-breaks."""
    parents.require_evaluated()
    offspring.require_evaluated()
    size = pop_size if pop_size is not None else len(parents)
    pool = sorted(parents.members + offspring.members, key=rank_key)
    return Population(generation=parents.generation + 1, members=pool[:size])


def aging_step(
    pop: Population,
    sample_size: int,
    rng: random.Random,
    make_child: Callable[[Individual], Individual],
    evaluate: Callable[[list[Individual]], None],
) -> Population:
    """One classic steady-state aging step.

    The population is a queue ordered by insertion. The step mutates the best
    member of a random sample of the queue (ties go to the earlier sample
    slot), evaluates the child, then removes the head (index 0) regardless of
    its fitness and appends the child to the tail. Population size is
    unchanged. ``AgingEvolution`` runs the same draw in a pipeline whose
    queue lags the children in flight.
    """
    if sample_size < 1 or sample_size > len(pop):
        raise ConfigError(f"sample size {sample_size} invalid for population of {len(pop)}")
    pop.require_evaluated()
    child = make_child(max(rng.sample(pop.members, sample_size), key=FITNESS0))
    evaluate([child])
    if child.fitness is None:
        raise EvaluationOrderError(f"child {child.name} came back unevaluated")
    return Population(generation=pop.generation, members=pop.members[1:] + [child])
