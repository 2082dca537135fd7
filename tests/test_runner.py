import itertools
import random

import pytest

from evonas.arch.spaces import FixedBinarySpace
from evonas.errors import CorruptLogError, EvaluationOrderError, RestartError
from evonas.evo import Population, make_individual
from evonas.evo.individual import individual_name
from evonas.evo.strategies import STRATEGIES, AgingEvolution, SearchStrategy
from evonas.runner import (
    RunState,
    format_record,
    list_generations,
    load_latest_population,
    log_path,
    parse_record,
    save_population,
)


class Boom(RuntimeError):
    """Injected crash."""


def small_pop(n=4, generation=0, evaluated=True, seed=0):
    space = FixedBinarySpace(stage_sizes=(4,), stage_channels=(8,))
    rng = random.Random(seed)
    members = []
    for i in range(n):
        m = make_individual(individual_name(generation, i), space.sample(rng), age=generation)
        if evaluated:
            m.assign_fitness((round(rng.uniform(0.3, 0.95), 4),))
        members.append(m)
    return Population(generation, members)


# --------------------------------------------------------- log round trip

def test_record_format_pinned():
    pop = small_pop(1)
    member = pop.members[0]
    member.fitness = (0.9042,)
    line = format_record(member)
    assert line == (
        f"name={member.name};enc=FB:4:{member.genotype.payload.bits};"
        f"id={member.identifier};fit=90.42"
    )


def test_fitness_round_trips_within_half_a_percent_point():
    pop = small_pop(1)
    member = pop.members[0]
    member.fitness = (0.90423,)
    parsed = parse_record(format_record(member))
    assert abs(parsed.fitness0 - member.fitness0) <= 0.005 / 100 * 100  # +-0.005 in percent terms
    assert parsed.fitness0 == pytest.approx(0.9042)


def test_save_writes_one_record_per_member(tmp_path):
    pop = small_pop(2)
    save_population(tmp_path, 0, pop)
    lines = log_path(tmp_path, 0).read_text().splitlines()
    assert len(lines) == 2


def test_save_requires_evaluated_population(tmp_path):
    pop = small_pop(2, evaluated=False)
    with pytest.raises(EvaluationOrderError):
        save_population(tmp_path, 0, pop)


def test_save_load_round_trip_field_equal(tmp_path):
    pop = small_pop(20)
    save_population(tmp_path, 0, pop)
    t, loaded = load_latest_population(tmp_path)
    assert t == 0
    assert len(loaded) == len(pop)
    for orig, back in zip(pop.members, loaded.members):
        assert back.name == orig.name
        assert back.genotype == orig.genotype
        assert back.identifier == orig.identifier
        assert back.fitness0 == pytest.approx(float(f"{orig.fitness0 * 100:.2f}") / 100)
        assert back.age == orig.age


def test_loads_maximum_generation(tmp_path):
    for t in (0, 3, 2, 1):
        save_population(tmp_path, t, small_pop(2, generation=t, seed=t))
    t, pop = load_latest_population(tmp_path)
    assert t == 3
    assert pop.generation == 3


def test_load_without_logs_is_restart_error(tmp_path):
    with pytest.raises(RestartError):
        load_latest_population(tmp_path)


def test_non_contiguous_logs_rejected(tmp_path):
    save_population(tmp_path, 0, small_pop(2, 0))
    save_population(tmp_path, 2, small_pop(2, 2, seed=2))
    with pytest.raises(RestartError):
        load_latest_population(tmp_path)


def test_tampered_encoding_detected(tmp_path):
    save_population(tmp_path, 0, small_pop(2))
    path = log_path(tmp_path, 0)
    lines = path.read_text().splitlines()
    # flip one bit inside the encoding field without touching the stored id
    tampered = lines[0].replace("enc=FB:4:0", "enc=FB:4:1", 1)
    if tampered == lines[0]:
        tampered = lines[0].replace("enc=FB:4:1", "enc=FB:4:0", 1)
    path.write_text("\n".join([tampered] + lines[1:]) + "\n")
    with pytest.raises(CorruptLogError):
        load_latest_population(tmp_path)


def test_run_state_round_trip(tmp_path):
    RunState(1, "demo", "elitist_ga", 4, 7).save(tmp_path)
    assert RunState.load(tmp_path) == RunState(1, "demo", "elitist_ga", 4, 7)
    assert "generation" not in (tmp_path / "run_state.txt").read_text()
    assert RunState.load(tmp_path / "missing").is_running == 0
    # a file from before the generation line was dropped still loads
    (tmp_path / "run_state.txt").write_text(
        "is_running=1\nalgorithm=demo\nstrategy=elitist_ga\ngeneration=5\nwidth=4\nlag=7\n"
    )
    assert RunState.load(tmp_path) == RunState(1, "demo", "elitist_ga", 4, 7)


# ------------------------------------------------------------- full runs

def read_all_logs(run_dir):
    return {t: log_path(run_dir, t).read_bytes() for t in list_generations(run_dir)}


def test_max_gen_zero_evaluates_initial_population_only(make_harness):
    harness = make_harness(pop_size=4, max_gen=0)
    runner, farm = harness.build()
    best = runner.run()
    assert farm.stats.jobs == 4
    assert list_generations(harness.run_dir) == [0]
    assert best.fitness is not None
    assert RunState.load(harness.run_dir).is_running == 0


def test_repeated_fresh_runs_are_identical(make_harness, tmp_path):
    a = make_harness(name="a", pop_size=4, max_gen=3, seed=11)
    b = make_harness(name="b", pop_size=4, max_gen=3, seed=11)
    best_a = a.build()[0].run()
    best_b = b.build()[0].run()
    assert best_a.identifier == best_b.identifier
    logs_a = {t: v for t, v in read_all_logs(a.run_dir).items()}
    logs_b = {t: v for t, v in read_all_logs(b.run_dir).items()}
    assert logs_a == logs_b


def test_budget_is_pop_size_times_max_gen(make_harness):
    harness = make_harness(pop_size=4, max_gen=5, use_cache=False, mutation_prob=0.4)
    runner, farm = harness.build()
    runner.run()
    assert farm.stats.jobs == 4 * 5
    assert list_generations(harness.run_dir) == [0, 1, 2, 3, 4]


def test_flag_discipline_around_the_run(make_harness, monkeypatch):
    harness = make_harness(pop_size=4, max_gen=3)
    observed = []
    written = []
    save = RunState.save

    def counting_save(state, run_dir):
        written.append(state.is_running)
        save(state, run_dir)

    def spy(t):
        observed.append((t, RunState.load(harness.run_dir).is_running, list_generations(harness.run_dir)))

    monkeypatch.setattr(RunState, "save", counting_save)
    runner, _ = harness.build(on_save=spy)
    runner.run()
    for t, flag, logs in observed:
        assert flag == 1  # flagged running at every generation boundary...
        assert logs == list(range(t + 1))  # ...with logs 0..t on disk
    assert RunState.load(harness.run_dir).is_running == 0  # cleared at the end
    assert written == [1, 0]  # written when the run starts and when it ends, not per generation


def crash_after(harness, n_saves):
    """Run until the n-th save completes, then die; returns the crash evidence."""
    count = {"saves": 0}

    def bomb(t):
        count["saves"] += 1
        if count["saves"] >= n_saves:
            raise Boom(f"crashed after saving generation {t}")

    runner, _ = harness.build(on_save=bomb)
    with pytest.raises(Boom):
        runner.run()
    return count


def test_kill_after_first_generation_then_resume(make_harness):
    twin = make_harness(name="uninterrupted", pop_size=4, max_gen=3, seed=21)
    twin.build()[0].run()

    crashed = make_harness(name="crashed", pop_size=4, max_gen=3, seed=21)
    crash_after(crashed, n_saves=2)  # dies right after begin_1.txt
    assert list_generations(crashed.run_dir) == [0, 1]
    assert RunState.load(crashed.run_dir).is_running == 1

    resumed, _ = crashed.build()
    best = resumed.run()
    assert read_all_logs(crashed.run_dir) == read_all_logs(twin.run_dir)
    assert RunState.load(crashed.run_dir).is_running == 0
    assert best.identifier == twin.build()[0].run().identifier  # completed twin re-run is a no-op...


def test_resume_leaves_a_record_journal_of_older_versions_untouched(make_harness):
    """Older versions journaled one id per applied record; resume neither reads nor extends it."""
    twin = make_harness(name="uninterrupted", pop_size=4, max_gen=3, seed=21)
    twin.build()[0].run()

    crashed = make_harness(name="crashed", pop_size=4, max_gen=3, seed=21)
    crash_after(crashed, n_saves=2)
    journal = crashed.run_dir / "routed_ids.txt"
    results = (crashed.run_dir / "results.txt").read_text(encoding="utf-8").splitlines()
    journal.write_text("".join(f"{i:032x}\n" for i in range(len(results))), encoding="utf-8")
    stale = journal.read_bytes()

    crashed.build()[0].run()
    assert read_all_logs(crashed.run_dir) == read_all_logs(twin.run_dir)
    assert journal.read_bytes() == stale


def test_restart_equivalence_across_every_crash_point(make_harness):
    """Property: for each generation boundary of a 4x5 run, crash-then-resume
    reproduces the uninterrupted run's logs byte for byte."""
    twin = make_harness(name="twin", pop_size=4, max_gen=5, seed=33)
    twin.build()[0].run()
    reference = read_all_logs(twin.run_dir)
    assert len(reference) == 5

    for crash_point in range(1, 6):  # after each of the five saves
        harness = make_harness(name=f"crash_{crash_point}", pop_size=4, max_gen=5, seed=33)
        crash_after(harness, n_saves=crash_point)
        runner, _ = harness.build()
        runner.run()
        assert read_all_logs(harness.run_dir) == reference, f"crash point {crash_point}"


def test_resume_after_normal_end_is_a_noop(make_harness):
    harness = make_harness(pop_size=4, max_gen=2, seed=3)
    runner, farm = harness.build()
    runner.run()
    logs = read_all_logs(harness.run_dir)
    runner2, farm2 = harness.build()
    runner2.run()  # the run goes on from its newest log, which is its last
    assert read_all_logs(harness.run_dir) == logs
    assert farm2.stats.jobs == 0  # everything came from the cache


def test_elitist_best_fitness_nondecreasing_in_logs(make_harness):
    harness = make_harness(name="elite", pop_size=6, max_gen=6, seed=44)
    harness.build()[0].run()
    best_per_gen = []
    for t in list_generations(harness.run_dir):
        lines = log_path(harness.run_dir, t).read_text().splitlines()
        best_per_gen.append(max(float(line.rsplit("fit=", 1)[1]) for line in lines))
    assert best_per_gen == sorted(best_per_gen)


def test_nsga2_run_resumes_with_recomputed_params(make_harness):
    harness = make_harness(name="mo", strategy="nsga2", pop_size=4, max_gen=4, seed=5)
    crash_after(harness, n_saves=2)
    runner, _ = harness.build()
    runner.run()
    twin = make_harness(name="mo_twin", strategy="nsga2", pop_size=4, max_gen=4, seed=5)
    twin.build()[0].run()
    assert read_all_logs(harness.run_dir) == read_all_logs(twin.run_dir)


def test_backend_interchangeability_lookup_reproduces_surrogate_run(make_harness, tmp_path):
    """Any deterministic backend drives the runner to the same logs: build a
    lookup table from a surrogate run's cache, then replay it through the
    lookup backend."""
    from evonas.backends import LookupBackend

    source = make_harness(name="src", pop_size=4, max_gen=3, seed=55)
    source.build()[0].run()
    cache_lines = (source.run_dir / "cache.txt").read_text().splitlines()[1:]
    table = tmp_path / "bench.csv"
    rows = ["identifier,fitness"]
    rows += [f"{line.split(' = ')[0]},{line.split(' = ')[1]}" for line in cache_lines]
    table.write_text("\n".join(rows) + "\n")

    replay = make_harness(
        name="replay", pop_size=4, max_gen=3, seed=55, backend=LookupBackend(str(table))
    )
    replay.build()[0].run()
    assert read_all_logs(replay.run_dir) == read_all_logs(source.run_dir)


def test_crash_mid_generation_discards_partial_offspring(make_harness):
    """Dying during fitness evaluation (before the save) loses nothing: the
    resumed run regenerates the same offspring and converges to the twin. A
    fuse below pop_size dies inside generation 0, before any log exists."""
    from evonas.backends import SurrogateBackend

    class DetonatingBackend(SurrogateBackend):
        def __init__(self, fuse):
            super().__init__()
            self.fuse = fuse

        def evaluate(self, job, emit_log=None, slot_id=0):
            self.fuse -= 1
            if self.fuse < 0:
                raise Boom("died mid-evaluation")
            return super().evaluate(job, emit_log, slot_id)

    twin = make_harness(name="midgen_twin", pop_size=4, max_gen=3, seed=66)
    twin.build()[0].run()

    for fuse in (6, 2):
        crashed = make_harness(
            name=f"midgen_{fuse}", pop_size=4, max_gen=3, seed=66, backend=DetonatingBackend(fuse=fuse)
        )
        runner, _ = crashed.build()
        with pytest.raises(Boom):
            runner.run()  # dies inside some generation's evaluation
        # fuse 6 dies inside generation 2, fuse 2 inside generation 0
        assert list_generations(crashed.run_dir) == ([0, 1] if fuse > 4 else [])
        assert RunState.load(crashed.run_dir).is_running == 1

        crashed.backend = SurrogateBackend()
        crashed.build()[0].run()
        assert read_all_logs(crashed.run_dir) == read_all_logs(twin.run_dir), f"fuse {fuse}"


def test_population_logs_never_rewritten(tmp_path):
    first = small_pop(2, seed=1)
    save_population(tmp_path, 0, first)
    original = log_path(tmp_path, 0).read_bytes()
    other = small_pop(2, seed=2)
    save_population(tmp_path, 0, other)  # silently skipped: append-created once
    assert log_path(tmp_path, 0).read_bytes() == original


def test_aging_run_restart_equivalence(make_harness):
    twin = make_harness(name="age_twin", strategy="aging_evolution", pop_size=4, max_gen=3, seed=77, sample_size=2)
    twin.build()[0].run()
    crashed = make_harness(name="age_crash", strategy="aging_evolution", pop_size=4, max_gen=3, seed=77, sample_size=2)
    crash_after(crashed, n_saves=2)
    crashed.build()[0].run()
    assert read_all_logs(crashed.run_dir) == read_all_logs(twin.run_dir)


# ------------------------------------------------------- pipelined aging

def _one_child_aging_step(pop, sample_size, rng, make_child, evaluate):
    """Aging step as it ran before pipelining: one child per evaluate call."""
    sample = rng.sample(pop.members, sample_size)
    parent = sample[0]
    for contender in sample[1:]:
        if contender.fitness0 > parent.fitness0:
            parent = contender
    child = make_child(parent)
    evaluate([child])
    return Population(generation=pop.generation, members=pop.members[1:] + [child])


class OneChildAging(AgingEvolution):
    """Oracle: pop_size one-child aging steps per generation, one advance call per
    generation, whatever the slot count."""

    generations = SearchStrategy.generations  # the generational loop, not the pipeline

    def advance(self, pop, evaluate, rng):
        gen = pop.generation + 1
        counter = itertools.count()

        def make_child(parent):
            g = self.space.mutate(parent.genotype, 1.0, rng)
            return make_individual(individual_name(gen, next(counter)), g, age=gen)

        current = pop
        for _ in range(self.cfg.pop_size):
            current = _one_child_aging_step(current, self.cfg.sample_size, rng, make_child, evaluate)
        return Population(generation=gen, members=current.members)


def aging_harness(make_harness, name, slots, pop_size=10, **kwargs):
    return make_harness(
        name=name, strategy="aging_evolution", pop_size=pop_size, max_gen=5, seed=64, sample_size=3,
        slots=slots, **kwargs,
    )


def run_files(run_dir):
    return {path.name: path.read_bytes() for path in sorted(run_dir.iterdir())}


def test_one_slot_aging_run_matches_the_one_child_oracle(make_harness):
    piped = aging_harness(make_harness, "k1", slots=1)
    piped.build()[0].run()
    oracle = aging_harness(make_harness, "k1_oracle", slots=1)
    runner, _ = oracle.build()
    runner.strategy = OneChildAging(runner.strategy.cfg, runner.strategy.space)
    runner.run()
    assert len(list_generations(piped.run_dir)) == 5
    assert read_all_logs(piped.run_dir) == read_all_logs(oracle.run_dir)
    assert (RunState.load(piped.run_dir).width, RunState.load(piped.run_dir).lag) == (1, 1)


@pytest.mark.parametrize("pop_size", [10, 4], ids=["pop10", "pop4"])
def test_lag_aging_resume_at_every_generation_boundary(make_harness, pop_size):
    """K = 4 slots, lag 7: with pop 4 the lag reaches back further than one log."""
    twin = aging_harness(make_harness, f"k4_twin_{pop_size}", slots=4, pop_size=pop_size)
    twin.build()[0].run()
    reference = read_all_logs(twin.run_dir)
    assert len(reference) == 5
    assert RunState.load(twin.run_dir).lag == 7
    for crash_point in range(1, 6):
        crashed = aging_harness(make_harness, f"k4_crash_{pop_size}_{crash_point}", slots=4, pop_size=pop_size)
        crash_after(crashed, n_saves=crash_point)
        assert list_generations(crashed.run_dir) == list(range(crash_point))
        crashed.build()[0].run()
        assert read_all_logs(crashed.run_dir) == reference, f"crash point {crash_point}"
    one_slot = aging_harness(make_harness, f"k4_vs_k1_{pop_size}", slots=1, pop_size=pop_size)
    one_slot.build()[0].run()
    assert read_all_logs(one_slot.run_dir) != reference  # the lag matters


def test_aging_resume_with_another_slot_count_is_refused_before_writing(make_harness):
    crashed = aging_harness(make_harness, "k_change", slots=4)
    crash_after(crashed, n_saves=2)
    before = run_files(crashed.run_dir)
    crashed.slots = 2
    with pytest.raises(RestartError, match="at lag 7"):
        crashed.build()[0].run()
    assert run_files(crashed.run_dir) == before


def test_run_of_the_batched_step_is_refused_before_writing(make_harness):
    """A run_state.txt with width > 1 and no lag line was written by the batched step."""
    crashed = aging_harness(make_harness, "batched", slots=4)
    crash_after(crashed, n_saves=2)
    state_path = crashed.run_dir / "run_state.txt"
    lines = state_path.read_text(encoding="utf-8").splitlines(keepends=True)
    state_path.write_text("".join(line for line in lines if not line.startswith("lag=")), encoding="utf-8")
    before = run_files(crashed.run_dir)
    for slots in (4, 1):
        crashed.slots = slots
        with pytest.raises(RestartError, match="batches of 4"):
            crashed.build()[0].run()
    assert run_files(crashed.run_dir) == before


def test_generational_resume_with_another_slot_count_is_allowed(make_harness):
    twin = make_harness(name="ga_twin", pop_size=4, max_gen=4, seed=65, slots=4)
    twin.build()[0].run()
    crashed = make_harness(name="ga_change", pop_size=4, max_gen=4, seed=65, slots=4)
    crash_after(crashed, n_saves=2)
    crashed.slots = 2
    crashed.build()[0].run()
    assert read_all_logs(crashed.run_dir) == read_all_logs(twin.run_dir)
    assert (RunState.load(crashed.run_dir).width, RunState.load(crashed.run_dir).lag) == (2, 0)


def test_run_state_without_width_line_resumes_as_one_slot(make_harness):
    """Files from before the lag: no width line, or width=1, was the one-child loop (lag 1)."""
    twin = aging_harness(make_harness, "legacy_twin", slots=1)
    twin.build()[0].run()
    for dropped in (("width=", "lag="), ("lag=",)):
        crashed = aging_harness(make_harness, f"legacy_{len(dropped)}", slots=1)
        crash_after(crashed, n_saves=2)
        state_path = crashed.run_dir / "run_state.txt"
        lines = state_path.read_text(encoding="utf-8").splitlines(keepends=True)
        state_path.write_text("".join(line for line in lines if not line.startswith(dropped)), encoding="utf-8")
        assert (RunState.load(crashed.run_dir).width, RunState.load(crashed.run_dir).lag) == (1, 0)
        crashed.slots = 4
        with pytest.raises(RestartError, match="at lag 1"):
            crashed.build()[0].run()
        crashed.slots = 1
        crashed.build()[0].run()
        assert read_all_logs(crashed.run_dir) == read_all_logs(twin.run_dir)


def test_lag_aging_evaluates_each_child_once_with_the_pipeline_full(make_harness):
    """K = 4: at most 2K - 1 = 7 children are drawn but not yet evaluated, and that many
    are; submit assigns no fitness; every child is unevaluated in exactly one evaluate
    call, which starts with the oldest child not yet evaluated; one call often serves
    several children."""
    harness = make_harness(
        name="k4_calls", strategy="aging_evolution", pop_size=10, max_gen=4, seed=66, sample_size=3, slots=4
    )
    runner, _ = harness.build()
    evaluator = runner.evaluator
    evaluate, submit = evaluator.evaluate_population, evaluator.submit
    submitted, calls, unevaluated = [], [], []

    def recording_submit(members):
        assert all(m.fitness is None for m in members)
        submitted.extend(members)
        unevaluated.append(sum(m.fitness is None for m in submitted))
        submit(members)
        assert all(m.fitness is None for m in members)

    def recording_evaluate(members):
        members = list(members.members if isinstance(members, Population) else members)
        calls.append([m.name for m in members if m.fitness is None])
        evaluate(members)

    evaluator.submit = recording_submit
    evaluator.evaluate_population = recording_evaluate
    runner.run()
    assert calls[0] == [individual_name(0, i) for i in range(10)]
    children = [name for call in calls[1:] for name in call]
    assert children == [m.name for m in submitted] == sorted(children)  # child order
    assert len(children) == len(set(children)) == 30
    assert max(unevaluated) == 7
    assert len(calls) - 1 < 30


def test_lag_aging_does_not_depend_on_completion_order(make_harness):
    """Threads finishing in random order give the logs of the simulated farm at the same K."""
    import time

    from evonas.backends import SurrogateBackend
    from evonas.engine import ThreadedEngine, local_runner
    from evonas.slots import SlotStore

    class JitteryBackend(SurrogateBackend):
        def evaluate(self, job, emit_log=None, slot_id=0):
            time.sleep(random.random() * 0.005)
            return super().evaluate(job, emit_log, slot_id)

    def engine_factory(bus, listener):
        store = SlotStore([("local", i) for i in range(3)])
        return ThreadedEngine(store, bus, listener, local_runner(JitteryBackend()))

    farm = aging_harness(make_harness, "order_farm", slots=3)
    farm.build()[0].run()
    threaded = aging_harness(make_harness, "order_threads", slots=3, engine_factory=engine_factory)
    threaded.build()[0].run()
    assert RunState.load(threaded.run_dir).lag == 5
    assert read_all_logs(threaded.run_dir) == read_all_logs(farm.run_dir)


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_crash_after_each_published_result_resumes_to_the_twin_and_trains_nothing_twice(make_harness, strategy):
    """Sweep the crash point over every result the ledger publishes: the center
    dies right after the k-th ``succeeded``, and a fresh stack resumes the run.
    The logs equal the uninterrupted twin's, and every genotype whose fitness
    was in ``cache.txt`` at the crash was trained once across both stacks."""
    from collections import Counter

    from evonas.backends import SurrogateBackend

    class CountingBackend(SurrogateBackend):
        def __init__(self):
            super().__init__()
            self.trained = Counter()

        def evaluate(self, job, emit_log=None, slot_id=0):
            self.trained[job.identifier] += 1
            return super().evaluate(job, emit_log, slot_id)

    shape = dict(strategy=strategy, pop_size=6, max_gen=4, seed=17, slots=3)
    twin = make_harness(name="twin", **shape)
    runner, twin_farm = twin.build()
    runner.run()
    reference = read_all_logs(twin.run_dir)
    assert len(reference) == 4

    for k in range(1, twin_farm.stats.jobs + 1):
        backend = CountingBackend()
        harness = make_harness(name=f"crash_{k}", backend=backend, **shape)
        runner, farm = harness.build()
        succeeded = farm.ledger.succeeded
        published = itertools.count(1)

        def succeeded_then_die(job, value, seconds):
            result = succeeded(job, value, seconds)
            if next(published) == k:
                raise Boom(f"crashed after publishing result {k}")
            return result

        farm.ledger.succeeded = succeeded_then_die
        with pytest.raises(Boom):
            runner.run()
        cached = [
            line.split(" = ")[0]
            for line in (harness.run_dir / "cache.txt").read_text(encoding="utf-8").splitlines()[1:]
        ]
        assert len(cached) == k  # every published result reached the cache file

        harness.build()[0].run()
        assert read_all_logs(harness.run_dir) == reference, f"crash after result {k}"
        assert all(backend.trained[identifier] == 1 for identifier in cached), f"crash after result {k}"
