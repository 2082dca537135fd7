"""Individuals and populations.

An individual's fitness is a vector of objective values: objective 0 is
accuracy in [0, 1] (maximized); objective 1, present only under the
multi-objective strategy, is the parameter count (minimized). Fitness is
write-once -- cache semantics forbid re-evaluation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..arch import Genotype, identifier
from ..errors import EvaluationOrderError, InvariantViolation

_NAME_RE = re.compile(r"^indi_gen(\d+)_no(\d+)$")


def individual_name(generation: int, index: int) -> str:
    return f"indi_gen{generation:02d}_no{index:02d}"


def birth_generation(name: str) -> int:
    """Recover the birth generation encoded in an individual's name."""
    m = _NAME_RE.match(name)
    if m is None:
        raise InvariantViolation(f"unparseable individual name {name!r}")
    return int(m.group(1))


@dataclass
class Individual:
    name: str
    genotype: Genotype
    identifier: str = ""  # derived from the genotype when not given; verified when given
    fitness: tuple[float, ...] | None = None
    age: int = 0  # birth generation

    def __post_init__(self) -> None:
        expected = identifier(self.genotype)
        if not self.identifier:
            self.identifier = expected
        elif self.identifier != expected:
            raise InvariantViolation(
                f"identifier of {self.name} does not match its genotype"
            )

    def assign_fitness(self, values: tuple[float, ...]) -> None:
        if self.fitness is not None:
            raise InvariantViolation(f"{self.name} already has a fitness; re-evaluation is forbidden")
        if not values:
            raise InvariantViolation("fitness vector must be non-empty")
        self.fitness = tuple(float(v) for v in values)

    @property
    def fitness0(self) -> float:
        if self.fitness is None:
            raise EvaluationOrderError(f"{self.name} has not been evaluated")
        return self.fitness[0]

    @property
    def evaluated(self) -> bool:
        return self.fitness is not None


def make_individual(name: str, genotype: Genotype, age: int = 0) -> Individual:
    return Individual(name=name, genotype=genotype, age=age)


@dataclass
class Population:
    """Ordered multiset of individuals with a generation counter.

    For the aging strategy the list order is the insertion queue: index 0 is
    the oldest member.
    """

    generation: int
    members: list[Individual] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.members)

    def require_evaluated(self) -> None:
        missing = [m.name for m in self.members if m.fitness is None]
        if missing:
            raise EvaluationOrderError(f"unevaluated members: {missing}")

    def best(self) -> Individual:
        """Highest objective-0 member; ties prefer the younger, then the name."""
        self.require_evaluated()
        return min(self.members, key=rank_key)


def rank_key(m: Individual) -> tuple:
    """Deterministic ordering key: fitness descending, younger (later birth) first, then name."""
    return (-m.fitness0, -m.age, m.name)
