import random

import pytest

from evonas.arch import identifier
from evonas.arch.spaces import FixedBinarySpace
from evonas.errors import EvaluationOrderError, InvariantViolation
from evonas.evo import Population, make_individual
from evonas.evo.individual import birth_generation, individual_name
from evonas.runner import parse_record


def sample(seed=0):
    return FixedBinarySpace(stage_sizes=(4,), stage_channels=(8,)).sample(random.Random(seed))


def test_name_encodes_birth_generation():
    assert individual_name(3, 7) == "indi_gen03_no07"
    assert birth_generation("indi_gen03_no07") == 3
    with pytest.raises(InvariantViolation):
        birth_generation("bob")


def test_identifier_must_match_genotype():
    g = sample()
    with pytest.raises(InvariantViolation):
        from evonas.evo.individual import Individual

        Individual(name="indi_gen00_no00", genotype=g, identifier="0" * 56)


def test_fitness_is_write_once():
    m = make_individual("indi_gen00_no00", sample())
    m.assign_fitness((0.5,))
    with pytest.raises(InvariantViolation):
        m.assign_fitness((0.9,))
    assert m.fitness == (0.5,)


def test_empty_fitness_vector_rejected():
    m = make_individual("indi_gen00_no00", sample())
    with pytest.raises(InvariantViolation):
        m.assign_fitness(())


def test_fitness0_requires_evaluation():
    m = make_individual("indi_gen00_no00", sample())
    with pytest.raises(EvaluationOrderError):
        m.fitness0


def test_population_best_breaks_ties_younger_then_name():
    older = make_individual("indi_gen00_no00", sample(0), age=0)
    younger = make_individual("indi_gen01_no00", sample(1), age=1)
    for m in (older, younger):
        m.assign_fitness((0.7,))
    pop = Population(1, [older, younger])
    assert pop.best() is younger
    a = make_individual("indi_gen01_no01", sample(2), age=1)
    a.assign_fitness((0.7,))
    pop2 = Population(1, [a, younger])
    assert pop2.best() is younger  # equal fitness and age: lexicographic name


def test_na_fitness_record_loads_as_unevaluated():
    m = make_individual("indi_gen00_no00", sample())
    from evonas.runner import format_record

    line = format_record(m)
    assert line.endswith(";fit=NA")
    back = parse_record(line)
    assert back.fitness is None
    assert back.identifier == identifier(m.genotype)


def count_identifier_calls(monkeypatch):
    """Count genotype hashes: the hash function is replaced at every evonas module binding."""
    import sys

    calls = []

    def counting(g):
        calls.append(g)
        return identifier(g)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "evonas":
            for attr, value in list(vars(module).items()):
                if value is identifier:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def test_make_individual_hashes_its_genotype_once(monkeypatch):
    genotypes = [sample(seed) for seed in range(5)]
    calls = count_identifier_calls(monkeypatch)
    members = [make_individual(f"indi_gen00_no{i:02d}", g) for i, g in enumerate(genotypes)]
    assert len(calls) == len(members)
    assert [m.identifier for m in members] == [identifier(g) for g in genotypes]


def test_parse_record_hashes_its_genotype_once(monkeypatch):
    from evonas.runner import format_record

    lines = [format_record(make_individual(f"indi_gen00_no{i:02d}", sample(i))) for i in range(5)]
    calls = count_identifier_calls(monkeypatch)
    members = [parse_record(line) for line in lines]
    assert len(calls) == len(members)
    assert [format_record(m) for m in members] == lines
