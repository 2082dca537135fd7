import random

import pytest

from evonas.arch.spaces import FixedBinarySpace
from evonas.errors import ConfigError, EvaluationOrderError
from evonas.evo import Population, crowding_distance, crowding_select, make_individual, nondominated_sort
from evonas.evo.individual import individual_name


def mo_pop(points, generation=0):
    """points: list of (accuracy, params)."""
    space = FixedBinarySpace(stage_sizes=(5,), stage_channels=(8,))
    rng = random.Random(1)
    members = []
    for i, (acc, params) in enumerate(points):
        m = make_individual(individual_name(generation, i), space.sample(rng), age=generation)
        m.assign_fitness((acc, float(params)))
        members.append(m)
    return Population(generation=generation, members=members)


# oracle: O(n^2) dominance matrix ground truth, written independently
def oracle_fronts(points):
    def dom(p, q):
        better_acc = p[0] >= q[0]
        better_par = p[1] <= q[1]
        strict = p[0] > q[0] or p[1] < q[1]
        return better_acc and better_par and strict

    remaining = list(range(len(points)))
    fronts = []
    while remaining:
        front = [
            i
            for i in remaining
            if not any(dom(points[j], points[i]) for j in remaining if j != i)
        ]
        fronts.append(sorted(front))
        remaining = [i for i in remaining if i not in front]
    return fronts


def test_two_point_domination():
    pop = mo_pop([(0.9, 1_000_000), (0.8, 2_000_000)])
    fronts = nondominated_sort(pop.members)
    assert [[m.name for m in f] for f in fronts] == [
        [individual_name(0, 0)],
        [individual_name(0, 1)],
    ]


def test_mutually_nondominated_single_front():
    pop = mo_pop([(0.9, 2_000_000), (0.8, 1_000_000)])
    fronts = nondominated_sort(pop.members)
    assert len(fronts) == 1 and len(fronts[0]) == 2


def test_missing_objective_raises():
    pop = mo_pop([(0.9, 1.0)])
    pop.members[0].fitness = (0.9,)  # strip objective 1
    with pytest.raises(EvaluationOrderError):
        nondominated_sort(pop.members)


def oracle_cases():
    rng = random.Random(50)
    for _ in range(50):
        yield [(round(rng.random(), 4), rng.randrange(1, 10**7)) for _ in range(50)]
    # tie-heavy pools: cache hits and carried-over survivors repeat values and vectors
    rng = random.Random(51)
    for case in range(48):
        n = 200 if case % 4 == 0 else rng.randrange(2, 121)
        accs = [round(rng.random(), 4) for _ in range(rng.randrange(2, 6))]
        params = [rng.randrange(1, 10**7) for _ in range(rng.randrange(2, 6))]
        kind = case % 3
        if kind == 0:  # accuracy drawn from 2-5 values
            points = [(rng.choice(accs), rng.randrange(1, 10**7)) for _ in range(n)]
        elif kind == 1:  # params drawn from 2-5 values
            points = [(round(rng.random(), 4), rng.choice(params)) for _ in range(n)]
        else:  # exact duplicate vectors
            base = [(round(rng.random(), 2), rng.randrange(1, 50)) for _ in range(rng.randrange(1, 20))]
            points = [rng.choice(base) for _ in range(n)]
        yield points


def test_fronts_partition_and_order_against_oracle():
    for points in oracle_cases():
        pop = mo_pop(points)
        fronts = nondominated_sort(pop.members)
        flat = [m.name for f in fronts for m in f]
        assert sorted(flat) == sorted(m.name for m in pop.members)  # a partition
        index = {individual_name(0, i): i for i in range(len(points))}
        got = [[index[m.name] for m in f] for f in fronts]
        assert got == oracle_fronts(points)  # each front in input order
        # no member of F_i is dominated by any member of F_j, j >= i
        for i, front in enumerate(fronts):
            later = [m for f in fronts[i:] for m in f]
            for m in front:
                for other in later:
                    dominated = (
                        other.fitness[0] >= m.fitness[0]
                        and other.fitness[1] <= m.fitness[1]
                        and (other.fitness[0] > m.fitness[0] or other.fitness[1] < m.fitness[1])
                    )
                    assert not dominated


def test_single_objective_fronts_are_accuracy_levels():
    rng = random.Random(52)
    points = [(rng.choice((0.2, 0.5, 0.7, 0.9)), rng.randrange(1, 100)) for _ in range(60)]
    pop = mo_pop(points)
    for m in pop.members[::2]:
        m.fitness = m.fitness[:1]  # one objective needs accuracy only
    fronts = nondominated_sort(pop.members, n_obj=1)
    index = {individual_name(0, i): i for i in range(len(points))}
    got = [[index[m.name] for m in f] for f in fronts]
    levels = sorted({acc for acc, _ in points}, reverse=True)
    assert got == [[i for i, (acc, _) in enumerate(points) if acc == level] for level in levels]


def test_three_objectives_rejected():
    pop = mo_pop([(0.9, 1.0), (0.8, 2.0)])
    for m in pop.members:
        m.fitness = m.fitness + (1.0,)
    with pytest.raises(ConfigError):
        nondominated_sort(pop.members, n_obj=3)


def test_crowding_boundary_gets_infinity():
    pop = mo_pop([(0.1, 100), (0.5, 50), (0.9, 10)])
    dist = crowding_distance(pop.members)
    names = [m.name for m in pop.members]
    assert dist[names[0]] == float("inf")
    assert dist[names[2]] == float("inf")
    assert dist[names[1]] < float("inf")


def test_crowding_select_whole_front_fits():
    parents = mo_pop([(0.9, 100), (0.8, 50)])
    offspring = mo_pop([(0.1, 900), (0.2, 800)], generation=1)
    offspring.generation = 0
    nxt = crowding_select(parents, offspring, pop_size=2)
    assert {m.name for m in nxt.members} == {m.name for m in parents.members}
    assert nxt.generation == 1


def test_crowding_select_collinear_extremes_survive():
    parents = mo_pop([(0.1, 10), (0.5, 50), (0.9, 90)])
    offspring = Population(generation=0, members=[])
    nxt = crowding_select(parents, offspring, pop_size=2)
    kept = {m.name for m in nxt.members}
    assert kept == {individual_name(0, 0), individual_name(0, 2)}


def oracle_crowding_select(points, size):
    """Independent re-derivation of fill-then-truncate used as the trial oracle."""
    fronts = oracle_fronts(points)
    chosen = []
    for front in fronts:
        if len(chosen) + len(front) <= size:
            chosen.extend(sorted(front))
            continue
        # crowding distance inside the partially admitted front
        dist = {i: 0.0 for i in front}
        for axis, sign in ((0, -1), (1, 1)):  # accuracy negated, params as-is
            vals = sorted(front, key=lambda i: (sign * points[i][axis], individual_name(0, i)))
            dist[vals[0]] = float("inf")
            dist[vals[-1]] = float("inf")
            lo = sign * points[vals[0]][axis]
            hi = sign * points[vals[-1]][axis]
            if hi == lo:
                continue
            for pos in range(1, len(vals) - 1):
                if dist[vals[pos]] != float("inf"):
                    gap = sign * points[vals[pos + 1]][axis] - sign * points[vals[pos - 1]][axis]
                    dist[vals[pos]] += gap / (hi - lo)
        ranked = sorted(front, key=lambda i: (-dist[i], individual_name(0, i)))
        chosen.extend(ranked[: size - len(chosen)])
        break
    return sorted(chosen)


def test_crowding_select_matches_oracle_on_random_pools():
    rng = random.Random(123)
    agreements = 0
    for _ in range(200):
        n = rng.randrange(4, 61)
        size = rng.randrange(2, n + 1)
        points = [(round(rng.random(), 3), rng.randrange(1, 10**6)) for _ in range(n)]
        pop = mo_pop(points)
        parents = Population(0, pop.members[: n // 2])
        offspring = Population(0, pop.members[n // 2 :])
        got = crowding_select(parents, offspring, pop_size=size)
        index = {individual_name(0, i): i for i in range(n)}
        got_ids = sorted(index[m.name] for m in got.members)
        assert got_ids == oracle_crowding_select(points, size)
        agreements += 1
    assert agreements == 200
