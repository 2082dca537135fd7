import random

import pytest

import evonas.evaluator as evaluator_module
from evonas.arch import flop_count, identifier, param_count
from evonas.arch.spaces import FixedBinarySpace, VariableBlocksSpace
from evonas.backends import (
    DEFAULT_TIME_BASE,
    DEFAULT_TIME_PER_MAC,
    SurrogateBackend,
    decode_from_settings,
)
from evonas.bus import InProcessBus, Listener
from evonas.cache import ResultCache
from evonas.evaluator import Evaluator, job_seed
from evonas.evo import Population, make_individual
from evonas.evo.individual import individual_name
from evonas.simfarm import SimulatedFarm

SETTINGS = {
    "dataset": "cifar10",
    "backend": "surrogate",
    "total_epoch": "8",
    "stage_channels": "8",
}


def space():
    return FixedBinarySpace(stage_sizes=(4,), stage_channels=(8,))


@pytest.fixture
def build(closing):
    """build(run_dir, use_cache, slots) -> (evaluator, farm, cache); listeners close at teardown."""

    def factory(run_dir, use_cache=True, slots=2):
        cache = ResultCache(run_dir / "cache.txt", "d" * 56) if use_cache else None
        bus = InProcessBus()
        listener = closing(Listener(bus, run_dir, cache))
        farm = SimulatedFarm({"sim": slots}, SurrogateBackend(), bus, listener)
        evaluator = Evaluator(farm, cache, SETTINGS, space(), master_seed=3)
        return evaluator, farm, cache

    return factory


def fresh_pop(n, seed=0, distinct=True):
    rng = random.Random(seed)
    sp = space()
    members = []
    seen = set()
    i = 0
    while len(members) < n:
        g = sp.sample(rng)
        from evonas.arch import identifier

        if distinct and identifier(g) in seen:
            continue
        seen.add(identifier(g))
        members.append(make_individual(individual_name(0, i), g))
        i += 1
    return Population(0, members)


def test_all_members_get_fitness(tmp_path, build):
    evaluator, farm, _ = build(tmp_path)
    pop = fresh_pop(5)
    evaluator.evaluate_population(pop)
    assert all(m.fitness is not None for m in pop.members)
    assert farm.stats.jobs == 5


def test_identical_genotypes_cost_one_backend_job(tmp_path, build):
    evaluator, farm, cache = build(tmp_path)
    sp = space()
    g = sp.sample(random.Random(1))
    members = [make_individual(individual_name(0, i), g) for i in range(6)]
    evaluator.evaluate_population(members)
    assert farm.stats.jobs == 1
    assert len({m.fitness for m in members}) == 1
    assert len(cache) == 1


def test_cached_population_runs_zero_jobs(tmp_path, build):
    evaluator, farm, _ = build(tmp_path)
    pop = fresh_pop(4)
    evaluator.evaluate_population(pop)
    jobs_before = farm.stats.jobs

    # a fresh population with the same genotypes: all cache hits
    again = Population(0, [make_individual(m.name, m.genotype) for m in pop.members])
    evaluator.evaluate_population(again)
    assert farm.stats.jobs == jobs_before
    assert [m.fitness for m in again.members] == [m.fitness for m in pop.members]


def test_evaluate_population_is_idempotent(tmp_path, build):
    evaluator, farm, _ = build(tmp_path)
    pop = fresh_pop(4)
    evaluator.evaluate_population(pop)
    before = [m.fitness for m in pop.members]
    evaluator.evaluate_population(pop)  # second call: no members lack fitness
    assert farm.stats.jobs == 4
    assert [m.fitness for m in pop.members] == before


def test_caching_disabled_submits_one_job_per_member(tmp_path, build):
    evaluator, farm, _ = build(tmp_path, use_cache=False)
    sp = space()
    g = sp.sample(random.Random(1))
    members = [make_individual(individual_name(0, i), g) for i in range(4)]
    evaluator.evaluate_population(members)
    assert farm.stats.jobs == 4  # raw budget: no memoization anywhere


def test_cache_hits_reduce_jobs_to_distinct_identifiers(tmp_path, build):
    evaluator, farm, _ = build(tmp_path)
    sp = space()
    rng = random.Random(5)
    genotypes = [sp.sample(rng) for _ in range(3)]
    members = [
        make_individual(individual_name(0, i), genotypes[i % 3]) for i in range(9)
    ]
    evaluator.evaluate_population(members)
    distinct = len({m.identifier for m in members})
    assert farm.stats.jobs == distinct


def test_fitness_is_percent_over_100_and_quantized(tmp_path, build):
    evaluator, _, cache = build(tmp_path)
    pop = fresh_pop(3)
    evaluator.evaluate_population(pop)
    for m in pop.members:
        assert 0.0 <= m.fitness0 <= 1.0
        percent = 100.0 * m.fitness0
        assert float(f"{percent:.2f}") == pytest.approx(percent, abs=1e-9)
        assert cache.lookup(m.identifier) == pytest.approx(percent)


def test_two_objective_mode_attaches_param_count(tmp_path, closing):
    cache = ResultCache(tmp_path / "cache.txt", "d" * 56)
    bus = InProcessBus()
    listener = closing(Listener(bus, tmp_path, cache))
    farm = SimulatedFarm({"sim": 2}, SurrogateBackend(), bus, listener)
    evaluator = Evaluator(farm, cache, SETTINGS, space(), objectives=2)
    pop = fresh_pop(3)
    evaluator.evaluate_population(pop)
    from evonas.arch import param_count

    for m in pop.members:
        assert len(m.fitness) == 2
        ir = space().decode(m.genotype, (3, 32, 32), 10)
        assert m.fitness[1] == float(param_count(ir))


def test_job_seed_is_stable_and_identifier_specific():
    assert job_seed(1, "a" * 56) == job_seed(1, "a" * 56)
    assert job_seed(1, "a" * 56) != job_seed(2, "a" * 56)
    assert job_seed(1, "a" * 56) != job_seed(1, "b" * 56)


def test_wall_time_scales_with_slot_count(tmp_path, closing):
    # 10 one-second jobs on 4 slots: virtual wall time == ceil(10/4) seconds
    cache = ResultCache(tmp_path / "cache.txt", "d" * 56)
    bus = InProcessBus()
    listener = closing(Listener(bus, tmp_path, cache))
    farm = SimulatedFarm({"sim": 4}, SurrogateBackend(), bus, listener, duration=1.0)
    evaluator = Evaluator(farm, cache, SETTINGS, space(), master_seed=1)
    pop = fresh_pop(10, seed=9)
    evaluator.evaluate_population(pop)
    assert farm.last_makespan == pytest.approx(3.0)


# ----------------------------------------------------------- start order

def flops_of(member):
    return flop_count(space().decode(member.genotype, (3, 32, 32), 10))


def recording(farm):
    """Wrap ``farm.run_jobs`` to keep the names of every batch it receives."""
    batches = []
    run_jobs = farm.run_jobs

    def record(jobs):
        batches.append([job.name for job in jobs])
        return run_jobs(jobs)

    farm.run_jobs = record
    return batches


def counting_decodes(monkeypatch):
    """Count decodes through the binding the evaluator calls."""
    calls = []

    def counted(genotype, settings):
        calls.append(identifier(genotype))
        return decode_from_settings(genotype, settings)

    monkeypatch.setattr(evaluator_module, "decode_from_settings", counted)
    return calls


@pytest.mark.parametrize("use_cache", [True, False])
def test_multiobjective_batch_larger_than_the_slots_starts_longest_first(tmp_path, build, use_cache):
    evaluator, farm, _ = build(tmp_path, use_cache=use_cache, slots=2)
    evaluator.objectives = 2
    pop = fresh_pop(12)
    batches = recording(farm)
    evaluator.evaluate_population(pop)

    by_name = {m.name: m for m in pop.members}
    submitted = [m.name for m in pop.members]
    (order,) = batches
    assert sorted(order) == sorted(submitted)
    costs = [flops_of(by_name[name]) for name in order]
    assert costs == sorted(costs, reverse=True)
    assert len(set(costs)) < len(costs)  # the batch has ties to keep in order
    for a, b in zip(order, order[1:]):
        if flops_of(by_name[a]) == flops_of(by_name[b]):
            assert submitted.index(a) < submitted.index(b)
    assert all(m.fitness is not None for m in pop.members)


def test_batch_that_fits_the_slots_keeps_submission_order(tmp_path, build):
    evaluator, farm, _ = build(tmp_path, slots=8)
    evaluator.objectives = 2
    pop = fresh_pop(8)
    batches = recording(farm)
    evaluator.evaluate_population(pop)
    assert batches == [[m.name for m in pop.members]]


def test_single_objective_keeps_submission_order_and_decodes_nothing(tmp_path, build, monkeypatch):
    decodes = counting_decodes(monkeypatch)
    evaluator, farm, _ = build(tmp_path, slots=2)
    pop = fresh_pop(12)
    batches = recording(farm)
    evaluator.evaluate_population(pop)
    assert batches == [[m.name for m in pop.members]]
    assert decodes == []


def test_params_of_decodes_once_per_identifier(tmp_path, build, monkeypatch):
    decodes = counting_decodes(monkeypatch)
    evaluator, _, _ = build(tmp_path, slots=2)
    evaluator.objectives = 2
    sp = space()
    rng = random.Random(5)
    genotypes = [sp.sample(rng) for _ in range(4)]
    members = [make_individual(individual_name(0, i), genotypes[i % 4]) for i in range(12)]
    evaluator.evaluate_population(members)
    for m in members:
        assert evaluator.params_of(m) == param_count(space().decode(m.genotype, (3, 32, 32), 10))
    assert sorted(decodes) == sorted({m.identifier for m in members})


def list_schedule(durations, slots):
    """Makespan of starting each job, in the given order, on the earliest free slot."""
    free = [0.0] * slots
    for d in durations:
        free[free.index(min(free))] += d
    return max(free)


def test_farm_makespan_is_the_longest_first_schedule(tmp_path):
    # four short jobs submitted before one long one, on two slots
    sp = VariableBlocksSpace()
    rng = random.Random(0)
    genotypes = sorted(
        (sp.sample(rng) for _ in range(40)),
        key=lambda g: flop_count(sp.decode(g, (3, 32, 32), 10)),
    )
    batch = genotypes[:4] + genotypes[-1:]
    settings = {"dataset": "cifar10", "backend": "surrogate", "total_epoch": "8"}
    durations = [
        DEFAULT_TIME_BASE + DEFAULT_TIME_PER_MAC * 8 * flop_count(sp.decode(g, (3, 32, 32), 10))
        for g in batch
    ]
    lpt = list_schedule(sorted(durations, reverse=True), 2)
    fifo = list_schedule(durations, 2)
    assert lpt < fifo

    bus = InProcessBus()
    listener = Listener(bus, tmp_path, None)
    farm = SimulatedFarm({"sim": 2}, SurrogateBackend(), bus, listener)
    evaluator = Evaluator(farm, None, settings, sp, objectives=2)
    evaluator.evaluate_population([make_individual(individual_name(0, i), g) for i, g in enumerate(batch)])
    listener.close()
    assert farm.last_makespan == pytest.approx(lpt)


def test_nsga2_trajectory_does_not_depend_on_the_slot_count(make_harness):
    logs = []
    for slots in (4, 256):
        harness = make_harness(name=f"slots{slots}", strategy="nsga2", pop_size=12, max_gen=4, slots=slots)
        runner, _ = harness.build()
        runner.run()
        logs.append({t: (harness.run_dir / f"begin_{t}.txt").read_bytes() for t in range(4)})
    assert logs[0] == logs[1]


@pytest.mark.parametrize("lead_first", [True, False], ids=["lead_first", "joiner_first"])
def test_equal_members_submitted_at_different_times_cost_one_job(tmp_path, build, lead_first):
    evaluator, farm, _ = build(tmp_path, slots=1)
    g = space().sample(random.Random(1))
    (other,) = fresh_pop(1, seed=9).members
    assert other.identifier != identifier(g)
    lead = make_individual(individual_name(1, 0), g)
    evaluator.submit([other, lead])  # the lead's job queues behind other's on the one slot
    joiner = make_individual(individual_name(1, 1), g)
    evaluator.submit([joiner])  # same identifier while the lead's job is in flight
    assert (lead.fitness, joiner.fitness) == (None, None)  # submit assigns no fitness
    first, second = (lead, joiner) if lead_first else (joiner, lead)
    evaluator.evaluate_population([first])
    evaluator.evaluate_population([other, second])
    assert farm.stats.jobs == 2
    assert lead.fitness == joiner.fitness is not None


def test_without_a_cache_equal_submitted_members_cost_one_job_each(tmp_path, build):
    evaluator, farm, _ = build(tmp_path, use_cache=False, slots=1)
    g = space().sample(random.Random(1))
    members = [make_individual(individual_name(1, i), g) for i in range(3)]
    evaluator.submit(members[:2])
    evaluator.submit(members[2:])
    evaluator.evaluate_population(members)
    assert farm.stats.jobs == 3


def test_submit_starts_no_job_for_a_cache_hit_and_assigns_no_fitness(tmp_path, build):
    evaluator, farm, _ = build(tmp_path)
    g = space().sample(random.Random(1))
    evaluator.evaluate_population([make_individual(individual_name(0, 0), g)])
    again = make_individual(individual_name(1, 0), g)
    evaluator.submit([again])
    assert again.fitness is None and evaluator.resolved(again)
    evaluator.evaluate_population([again])
    assert again.fitness is not None and farm.stats.jobs == 1
