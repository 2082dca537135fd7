import itertools
import math
import random
from collections import Counter

import pytest

from evonas.arch import BlockGene, BlockKind, Genotype
from evonas.arch.spaces import CellGraphSpace, FixedBinarySpace, VariableBlocksSpace
from evonas.errors import ConfigError, EvaluationOrderError, InvariantViolation, SchemeError
from evonas.evo import (
    Population,
    aging_step,
    crossover,
    environmental_select_elitist,
    make_individual,
    mutate,
    roulette_select,
    tournament_select,
)
from evonas.evo.individual import individual_name


def fb_space(bits=6):
    sizes = {3: (3,), 6: (4,), 10: (5,)}[bits]
    return FixedBinarySpace(stage_sizes=sizes, stage_channels=(8,))


def make_pop(fitnesses, generation=0):
    space = fb_space(10)
    rng = random.Random(0)
    members = []
    for i, fit in enumerate(fitnesses):
        m = make_individual(individual_name(generation, i), space.sample(rng), age=generation)
        if fit is not None:
            m.assign_fitness((fit,))
        members.append(m)
    return Population(generation=generation, members=members)


# ------------------------------------------------------------- tournament

def test_tournament_full_size_returns_global_best(rng):
    pop = make_pop([0.2, 0.9, 0.5, 0.7])
    assert tournament_select(pop, k=4, rng=rng).fitness0 == 0.9


def test_tournament_pairwise_max(rng):
    pop = make_pop([0.9, 0.1])
    for _ in range(20):
        assert tournament_select(pop, k=2, rng=rng).fitness0 == 0.9


def test_tournament_requires_fitness(rng):
    pop = make_pop([0.9, None])
    with pytest.raises(EvaluationOrderError):
        tournament_select(pop, k=2, rng=rng)


def test_tournament_win_rates_match_enumeration():
    # exact win probability of member i under k=2: count over ordered pairs
    fitnesses = [0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95]
    pop = make_pop(fitnesses)
    n = len(fitnesses)
    wins = Counter()
    for a, b in itertools.permutations(range(n), 2):
        winner = a if fitnesses[a] >= fitnesses[b] else b
        if fitnesses[b] > fitnesses[a]:
            winner = b
        wins[winner] += 1
    total_pairs = n * (n - 1)
    rng = random.Random(77)
    draws = 10_000
    observed = Counter()
    for _ in range(draws):
        observed[tournament_select(pop, 2, rng).name] += 1
    for i in range(n):
        p = wins[i] / total_pairs
        sigma = math.sqrt(p * (1 - p) * draws)
        assert abs(observed[individual_name(0, i)] - p * draws) <= 3 * sigma + 1


# --------------------------------------------------------------- roulette

def test_roulette_degenerate_simplex(rng):
    pop = make_pop([1.0, 0.0, 0.0])
    for _ in range(50):
        assert roulette_select(pop, rng).name == individual_name(0, 0)


def test_roulette_zero_total_falls_back_to_uniform():
    pop = make_pop([0.0, 0.0, 0.0])
    rng = random.Random(3)
    seen = {roulette_select(pop, rng).name for _ in range(200)}
    assert len(seen) == 3


def test_roulette_rejects_negative_fitness(rng):
    pop = make_pop([0.5, -0.1])
    with pytest.raises(InvariantViolation):
        roulette_select(pop, rng)


def test_roulette_three_to_one_ratio():
    pop = make_pop([0.3, 0.1])
    rng = random.Random(11)
    draws = 40_000
    hits = sum(roulette_select(pop, rng).name == individual_name(0, 0) for _ in range(draws))
    assert abs(hits / draws - 0.75) < 0.01


def test_roulette_frequencies_match_normalized_fitness():
    fitnesses = [0.12, 0.31, 0.05, 0.44, 0.08]
    pop = make_pop(fitnesses)
    total = sum(fitnesses)
    rng = random.Random(5)
    draws = 100_000
    observed = Counter(roulette_select(pop, rng).name for _ in range(draws))
    for i, fit in enumerate(fitnesses):
        assert abs(observed[individual_name(0, i)] / draws - fit / total) < 0.01


# -------------------------------------------------------------- crossover

def test_crossover_identity_when_probability_zero(rng):
    space = fb_space()
    a, b = space.sample(rng), space.sample(rng)
    o1, o2 = crossover(space, a, b, p_c=0.0, rng=rng)
    assert (o1, o2) == (a, b)


def test_crossover_one_point_pinned_cut():
    space = fb_space(6)
    a = Genotype.fixed_binary((4,), "000000")
    b = Genotype.fixed_binary((4,), "111111")

    class FixedCut(random.Random):
        def random(self):
            return 0.0  # always recombine

        def randint(self, lo, hi):
            return 2

    o1, o2 = crossover(space, a, b, p_c=1.0, rng=FixedCut())
    assert o1.payload.bits == "001111"
    assert o2.payload.bits == "110000"


def test_crossover_scheme_mismatch():
    space = fb_space()
    a = space.sample(random.Random(0))
    vb = Genotype.variable_blocks([BlockGene(BlockKind.RES_UNIT, out_channels=32)])
    with pytest.raises(SchemeError):
        crossover(space, a, vb, 1.0, random.Random(0))
    with pytest.raises(SchemeError):
        crossover(space, vb, vb, 1.0, random.Random(0))


def test_variable_crossover_independent_cuts_change_lengths():
    space = VariableBlocksSpace(min_len=1, max_len=10, channel_choices=(32,), amount_choices=(1,))
    a = Genotype.variable_blocks([BlockGene(BlockKind.RES_UNIT, out_channels=32)] * 3)
    b = Genotype.variable_blocks([BlockGene(BlockKind.DENSE_UNIT, out_channels=32)] * 5)

    cuts = iter([1, 4])

    class ScriptedCuts(random.Random):
        def randint(self, lo, hi):
            return next(cuts)

    o1, o2 = space.crossover_pair(a, b, ScriptedCuts())
    # head(a, 1) + tail(b, from 4) and head(b, 4) + tail(a, from 1)
    assert (len(o1.blocks), len(o2.blocks)) == (2, 6)
    assert len(o1.blocks) + len(o2.blocks) == 8  # total length preserved


def test_variable_crossover_respects_length_bounds():
    space = VariableBlocksSpace(min_len=3, max_len=5, channel_choices=(32,), amount_choices=(1, 2))
    rng = random.Random(9)
    for _ in range(200):
        a, b = space.sample(rng), space.sample(rng)
        o1, o2 = space.crossover_pair(a, b, rng)
        space.validate(o1)
        space.validate(o2)


# ---------------------------------------------------------------- mutation

def test_mutation_identity_at_zero(rng):
    space = fb_space()
    g = space.sample(rng)
    assert mutate(space, g, 0.0, rng) == g


def test_mutation_flips_every_bit_at_one():
    space = fb_space(6)
    g = Genotype.fixed_binary((4,), "011010")
    mutant = mutate(space, g, 1.0, random.Random(0))
    assert mutant.payload.bits == "100101"


def test_mutation_flip_count_is_binomial():
    space = FixedBinarySpace(stage_sizes=(15, 11), stage_channels=(8,))
    assert space.n_bits == 160
    # expected flips per genotype: n * p
    p = 0.05
    n = space.n_bits
    rng = random.Random(31)
    g = space.sample(rng)
    trials = 10_000
    total_flips = 0
    for _ in range(trials):
        mutant = space.mutate(g, p, rng)
        total_flips += sum(x != y for x, y in zip(g.payload.bits, mutant.payload.bits))
    mean = total_flips / trials
    sigma = math.sqrt(n * p * (1 - p) / trials)
    assert abs(mean - n * p) <= 3 * sigma


def test_variable_mutation_produces_valid_genotypes():
    space = VariableBlocksSpace(min_len=2, max_len=6)
    rng = random.Random(8)
    g = space.sample(rng)
    for _ in range(300):
        g = space.mutate(g, 1.0, rng)
        space.validate(g)


def test_cell_mutation_rewires_or_relabels():
    space = CellGraphSpace(n_nodes=5, cell_channels=8)
    rng = random.Random(21)
    g = space.sample(rng)
    changed = 0
    for _ in range(100):
        mutant = space.mutate(g, 1.0, rng)
        space.validate(mutant)
        changed += mutant != g
        g = mutant
    assert changed == 100  # p_m=1 must always alter the graph


# ---------------------------------------------- environmental selection

def test_elitist_keeps_parents_when_offspring_worse():
    parents = make_pop([0.8, 0.7], generation=0)
    offspring = make_pop([0.1, 0.2], generation=1)
    offspring.generation = 0
    survivors = environmental_select_elitist(parents, offspring)
    assert {m.name for m in survivors.members} == {m.name for m in parents.members}
    assert survivors.generation == 1


def test_elitist_top_two_of_pool():
    parents = make_pop([0.5, 0.4])
    offspring = make_pop([0.9, 0.1], generation=1)
    offspring.generation = 0
    survivors = environmental_select_elitist(parents, offspring, pop_size=2)
    assert sorted(m.fitness0 for m in survivors.members) == [0.5, 0.9]


def test_elitist_matches_sort_truncate_oracle():
    rng = random.Random(17)
    parents = make_pop([round(rng.random(), 6) for _ in range(20)], generation=3)
    offspring = make_pop([round(rng.random(), 6) for _ in range(20)], generation=4)
    offspring.generation = 3
    survivors = environmental_select_elitist(parents, offspring)
    pool = parents.members + offspring.members
    oracle = sorted(pool, key=lambda m: (-m.fitness0, -m.age, m.name))[:20]
    assert [m.name for m in survivors.members] == [m.name for m in oracle]


def test_elitist_requires_evaluated_members():
    parents = make_pop([0.5, None])
    offspring = make_pop([0.9, 0.1], generation=1)
    with pytest.raises(EvaluationOrderError):
        environmental_select_elitist(parents, offspring)


# ------------------------------------------------------------------ aging

def _aging_setup(fitnesses):
    space = fb_space(10)
    pop = make_pop(fitnesses)
    counter = itertools.count()

    def make_child(parent):
        child = make_individual(
            individual_name(1, next(counter)), space.mutate(parent.genotype, 1.0, random.Random(1)), age=1
        )
        return child

    def evaluate(children):
        for child in children:
            child.assign_fitness((0.5,))

    return pop, make_child, evaluate


def test_aging_removes_oldest_even_when_best():
    pop, make_child, evaluate = _aging_setup([0.99, 0.1, 0.2])  # head is the global best
    nxt = aging_step(pop, 3, random.Random(2), make_child, evaluate)
    assert individual_name(0, 0) not in {m.name for m in nxt.members}
    assert len(nxt) == 3


def test_aging_full_sample_mutates_global_best():
    pop, _, evaluate = _aging_setup([0.2, 0.9, 0.5])
    picked = []

    def spy_child(parent):
        picked.append(parent.name)
        return _aging_setup([0.1])[1](parent)

    aging_step(pop, 3, random.Random(2), spy_child, evaluate)
    assert picked == [individual_name(0, 1)]


def test_aging_sample_size_bounds():
    pop, make_child, evaluate = _aging_setup([0.1, 0.2])
    with pytest.raises(ConfigError):
        aging_step(pop, 3, random.Random(0), make_child, evaluate)


def test_aging_hundred_steps_follow_queue_oracle():
    space = fb_space(10)
    rng = random.Random(6)
    pop = make_pop([0.1 * (i % 7) / 7 + 0.05 for i in range(10)])
    expected_queue = [m.name for m in pop.members]
    counter = itertools.count()

    def make_child(parent):
        return make_individual(individual_name(1, next(counter)), space.mutate(parent.genotype, 1.0, rng), age=1)

    def evaluate(children):
        for child in children:
            child.assign_fitness((rng.random(),))

    removed = []
    for _ in range(100):
        before = {m.name for m in pop.members}
        pop = aging_step(pop, 4, rng, make_child, evaluate)
        after = {m.name for m in pop.members}
        removed.extend(sorted(before - after))
        assert len(pop) == 10
    # oracle: an independent deque trace of the same 100 removals
    from collections import deque

    oracle = deque(expected_queue)
    for i in range(100):
        assert removed[i] == oracle.popleft()
        oracle.append(individual_name(1, i))  # the child appended at step i
    # ages are non-decreasing from head to tail after churn
    ages = [m.age for m in pop.members]
    assert ages == sorted(ages)




def test_mutation_stuck_raises_after_retry_budget():
    from evonas.arch.spaces import CellGraphSpace
    from evonas.errors import MutationStuckError

    # one identity node: no edge to rewire, no alternative op to relabel
    space = CellGraphSpace(n_nodes=1, ops=("identity",))
    g = space.sample(random.Random(0))
    with pytest.raises(MutationStuckError):
        space.mutate(g, 1.0, random.Random(0))
