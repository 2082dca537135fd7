import random

import pytest

import evonas.arch.genotype as genotype_module
import evonas.arch.ir as ir_module
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
from evonas.cli import main
from evonas.config import BackendConfig, TrainerSettings, settings_map
from evonas.evaluator import Evaluator, job_seed
from evonas.evo import Population, make_individual
from evonas.evo.individual import individual_name
from evonas.jobs import JobResult
from evonas.report import retrain_best
from evonas.runner import derive_rng, save_population
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


class RecordingEngine:
    def __init__(self):
        self.jobs = []

    def submit(self, job):
        self.jobs.append(job)

    def run_jobs(self, jobs):
        self.jobs.extend(jobs)
        return {job.name: JobResult(job.name, job.identifier, 90.0, 1.0) for job in jobs}


def test_search_retrain_and_simulate_jobs_match_pinned_fields(tmp_path, monkeypatch):
    """One genotype's search, retrain and ``simulate`` jobs, field for field."""
    engine = RecordingEngine()
    monkeypatch.setattr(SimulatedFarm, "run_jobs", lambda farm, jobs: engine.run_jobs(jobs))
    assert main(["simulate", "--jobs", "1", "--seed", "3"]) == 0
    # simulate --seed 3 samples its first genotype from this stream
    g = FixedBinarySpace().sample(derive_rng(3, "simulate"))
    settings = settings_map(TrainerSettings(), BackendConfig(), FixedBinarySpace().decode_settings())
    member = make_individual("indi_gen00_no00", g)
    Evaluator(engine, None, settings, FixedBinarySpace(), master_seed=3).submit([member])
    member.assign_fitness((0.5,))
    save_population(tmp_path, 0, Population(0, [member]))
    retrain_best(tmp_path, {**settings, "total_epoch": "600"}, engine, master_seed=3)

    ident = "c30c162a394459c3671d199e5f238124e46124f74f7d5bd3a6283e4c"
    payload = "FB:4,5:010101,1110001100"
    assert [(j.name, j.identifier, j.payload, j.backend, j.seed, j.epochs) for j in engine.jobs] == [
        ("job000", ident, payload, "surrogate", 2216035203, 1),
        ("indi_gen00_no00", ident, payload, "surrogate", 2216035203, 50),
        ("indi_gen00_no00_retrain", ident, payload, "surrogate", 2216035203, 600),
    ]
    assert engine.jobs[0].settings == {"dataset": "cifar10", "stage_channels": "32,64"}
    assert engine.jobs[1].settings == settings
    assert engine.jobs[2].settings == {**settings, "total_epoch": "600"}


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


def test_one_nsga2_generation_walks_each_ir_once_and_serializes_each_genotype_once(make_harness, monkeypatch):
    """Guards the cost of the genotype -> cost path: no extra consistency walk or serialization."""
    counts = {"decodes": 0, "walks": 0}
    serialized = []  # the genotype objects, held so that their ids stay unique
    build, walk, serialize = ir_module._Builder.build, ir_module._consistency_walk, genotype_module._serialize

    def counting_build(self):
        counts["decodes"] += 1
        return build(self)

    def counting_walk(ir):
        counts["walks"] += 1
        return walk(ir)

    def recording_serialize(g):
        serialized.append(g)
        return serialize(g)

    monkeypatch.setattr(ir_module._Builder, "build", counting_build)
    monkeypatch.setattr(ir_module, "_consistency_walk", counting_walk)
    monkeypatch.setattr(genotype_module, "_serialize", recording_serialize)
    harness = make_harness(strategy="nsga2", pop_size=12, max_gen=2, slots=4)
    runner, farm = harness.build()
    runner.run()
    # nsga2 decodes each job twice: once for its params objective, once in the backend
    assert counts["decodes"] == 2 * farm.stats.jobs > 0
    assert counts["walks"] == counts["decodes"]
    assert len({id(g) for g in serialized}) == len(serialized) >= 24


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
