import random

import pytest

from evonas.arch import identifier
from evonas.arch.spaces import FixedBinarySpace, VariableBlocksSpace
from evonas.errors import ConfigError
from evonas.evo import make_individual
from evonas.evo.individual import individual_name
from evonas.evo.strategies import STRATEGIES, StrategyConfig, build_strategy, default_space


def evaluate_single(members):
    """Deterministic stand-in: fitness derived from the identifier digest."""
    for m in members:
        if m.fitness is None:
            m.assign_fitness((int(m.identifier[:8], 16) / 16**8,))


def evaluate_double(members):
    for m in members:
        if m.fitness is None:
            m.assign_fitness(
                (int(m.identifier[:8], 16) / 16**8, float(int(m.identifier[8:12], 16)))
            )


class FakeEvaluator:
    """Records submits and evaluate calls; a seeded coin says which submitted child has resolved."""

    def __init__(self, width, seed, evaluate=evaluate_single):
        self.width = width
        self.coin = random.Random(seed)
        self.evaluate = evaluate
        self.submitted = []
        self.calls = []

    def submit(self, members):
        assert all(m.fitness is None for m in members)
        self.submitted.extend(members)

    def resolved(self, member):
        return self.coin.random() < 0.5

    def evaluate_population(self, members):
        self.calls.append([m.name for m in members])
        self.evaluate(members)


def test_registry_has_all_four():
    assert set(STRATEGIES) == {"elitist_ga", "variable_ga", "aging_evolution", "nsga2"}


def test_config_validation():
    with pytest.raises(ConfigError):
        StrategyConfig("elitist_ga", pop_size=1, max_gen=2)
    with pytest.raises(ConfigError):
        StrategyConfig("elitist_ga", pop_size=4, max_gen=-1)
    with pytest.raises(ConfigError):
        StrategyConfig("elitist_ga", pop_size=4, max_gen=2, crossover_prob=1.5)
    with pytest.raises(ConfigError):
        build_strategy(StrategyConfig("who_knows", pop_size=4, max_gen=2))


def test_initial_population_size_and_validity():
    cfg = StrategyConfig("elitist_ga", pop_size=20, max_gen=2)
    strat = build_strategy(cfg)
    pop = strat.initial_population(random.Random(3))
    assert len(pop) == 20 and pop.generation == 0
    for m in pop.members:
        strat.space.validate(m.genotype)
        assert m.fitness is None and m.age == 0
        assert m.identifier == identifier(m.genotype)


def test_initial_population_deterministic_under_seed():
    cfg = StrategyConfig("variable_ga", pop_size=10, max_gen=2)
    a = build_strategy(cfg).initial_population(random.Random(42))
    b = build_strategy(cfg).initial_population(random.Random(42))
    assert [m.identifier for m in a.members] == [m.identifier for m in b.members]


def test_fixed_binary_space_bit_width():
    space = FixedBinarySpace(stage_sizes=(4,), stage_channels=(8,))
    pop_bits = {len(space.sample(random.Random(s)).payload.bits) for s in range(20)}
    assert pop_bits == {6}  # K(K-1)/2 for K=4


def test_infeasible_space_raises_config_error():
    with pytest.raises(ConfigError):
        VariableBlocksSpace(min_len=5, max_len=3)


@pytest.mark.parametrize("key", sorted(STRATEGIES))
def test_advance_produces_next_generation(key):
    """One generation through ``generations``, the runner's entry to every strategy."""
    cfg = StrategyConfig(key, pop_size=6, max_gen=3, sample_size=3)
    strat = build_strategy(cfg)
    evaluate = evaluate_double if strat.objectives == 2 else evaluate_single
    pop = strat.initial_population(random.Random(1))
    evaluate(pop.members)
    nxt = next(strat.generations(pop.members, 0, FakeEvaluator(1, 0, evaluate), lambda g: random.Random(2)))
    assert nxt.generation == 1
    assert len(nxt) == 6
    for m in nxt.members:
        assert m.fitness is not None


@pytest.mark.parametrize("key", sorted(STRATEGIES))
def test_budget_identity_per_generation(key):
    """Each generation costs exactly pop_size fresh evaluations (no cache in play)."""
    cfg = StrategyConfig(key, pop_size=5, max_gen=4, sample_size=2)
    strat = build_strategy(cfg)
    calls = {"n": 0}

    def counting_evaluate(members):
        for m in members:
            if m.fitness is None:
                calls["n"] += 1
                if strat.objectives == 2:
                    m.assign_fitness((random.Random(calls["n"]).random(), float(calls["n"])))
                else:
                    m.assign_fitness((random.Random(calls["n"]).random(),))

    pop = strat.initial_population(random.Random(0))
    counting_evaluate(pop.members)
    assert calls["n"] == 5
    pops = list(strat.generations(pop.members, 0, FakeEvaluator(1, 0, counting_evaluate), random.Random))
    assert [p.generation for p in pops] == [1, 2, 3]
    assert calls["n"] == 5 + 3 * 5  # pop_size per generation


def test_elitism_best_fitness_never_decreases():
    cfg = StrategyConfig("elitist_ga", pop_size=8, max_gen=10)
    strat = build_strategy(cfg)
    pop = strat.initial_population(random.Random(5))
    evaluate_single(pop.members)
    best = max(m.fitness0 for m in pop.members)
    for g in range(9):
        pop = strat.advance(pop, evaluate_single, random.Random(100 + g))
        new_best = max(m.fitness0 for m in pop.members)
        assert new_best >= best
        best = new_best


def test_aging_generation_is_pop_size_steps():
    cfg = StrategyConfig("aging_evolution", pop_size=4, max_gen=2, sample_size=2)
    strat = build_strategy(cfg)
    pop = strat.initial_population(random.Random(7))
    evaluate_single(pop.members)
    original = {m.name for m in pop.members}
    nxt = next(strat.generations(pop.members, 0, FakeEvaluator(1, 0), lambda g: random.Random(8)))
    # pop_size steps retire every original member of a size-pop_size queue
    assert original.isdisjoint({m.name for m in nxt.members})
    assert len(nxt) == 4


def test_aging_sample_larger_than_pop_rejected():
    cfg = StrategyConfig("aging_evolution", pop_size=2, max_gen=2, sample_size=3)
    with pytest.raises(ConfigError):
        build_strategy(cfg)


def test_each_strategy_checks_only_the_selection_size_it_reads():
    build_strategy(StrategyConfig("aging_evolution", pop_size=4, max_gen=2, tournament_size=6))
    build_strategy(StrategyConfig("elitist_ga", pop_size=4, max_gen=2, sample_size=6))
    build_strategy(StrategyConfig("nsga2", pop_size=4, max_gen=2, tournament_size=6, sample_size=6))


def test_nsga2_keeps_two_objectives():
    cfg = StrategyConfig("nsga2", pop_size=6, max_gen=2)
    strat = build_strategy(cfg)
    assert strat.objectives == 2
    pop = strat.initial_population(random.Random(9))
    evaluate_double(pop.members)
    nxt = strat.advance(pop, evaluate_double, random.Random(10))
    assert all(len(m.fitness) == 2 for m in nxt.members)


def test_default_spaces_match_strategies():
    assert default_space("elitist_ga").scheme.value == "FB"
    assert default_space("variable_ga").scheme.value == "VB"
    assert default_space("nsga2").scheme.value == "VB"
    assert default_space("aging_evolution").scheme.value == "CG"


# ------------------------------------------------------- pipelined aging

def history_slice_oracle(strat, initial, lag, generations):
    """The lag rule taken literally: global child i is drawn from a copy of hist[j:j+P],
    j = max(0, i - lag + 1), with the RNG of its generation; every child is evaluated at once."""
    size, sample_size = strat.cfg.pop_size, strat.cfg.sample_size
    hist = list(initial)
    for g in range(1, generations + 1):
        rng = random.Random(1000 + g - 1)
        for index in range(size):
            i = (g - 1) * size + index
            j = max(0, i - lag + 1)
            sample = rng.sample(hist[j : j + size], sample_size)
            parent = sample[0]
            for contender in sample[1:]:
                if contender.fitness0 > parent.fitness0:
                    parent = contender
            child = make_individual(
                individual_name(g, index), strat.space.mutate(parent.genotype, 1.0, rng), age=g
            )
            evaluate_single([child])
            hist.append(child)
    return hist


@pytest.mark.parametrize("width, pop_size", [(1, 6), (2, 6), (4, 6), (4, 3)])
def test_lag_pipeline_matches_the_history_slice_oracle(width, pop_size):
    cfg = StrategyConfig("aging_evolution", pop_size=pop_size, max_gen=5, sample_size=3)
    strat = build_strategy(cfg, space=FixedBinarySpace(stage_sizes=(4,), stage_channels=(8,)))
    initial = strat.initial_population(random.Random(5))
    evaluate_single(initial.members)
    oracle = history_slice_oracle(strat, initial.members, 2 * width - 1, 4)

    fake = FakeEvaluator(width, seed=width)
    pops = list(strat.generations(initial.members, 0, fake, lambda g: random.Random(1000 + g)))
    assert [p.generation for p in pops] == [1, 2, 3, 4]
    for p in pops:
        expected = oracle[p.generation * pop_size : (p.generation + 1) * pop_size]
        assert [(m.name, m.identifier) for m in p.members] == [(m.name, m.identifier) for m in expected]
    # children are submitted in child order, and each is unevaluated in exactly one call,
    # which starts with the oldest child not yet applied
    assert [m.name for m in fake.submitted] == [m.name for m in oracle[pop_size:]]
    evaluated = [name for call in fake.calls for name in call]
    assert sorted(evaluated) == sorted(m.name for m in fake.submitted)
    assert len(evaluated) == len(set(evaluated))
    heads = [call[0] for call in fake.calls]
    assert heads == sorted(heads)
    if width == 1:
        assert all(len(call) == 1 for call in fake.calls)  # the classic loop
