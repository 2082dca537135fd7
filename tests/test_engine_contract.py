"""Both engines account a job's attempts the same way.

The same retry scenarios run through ``SimulatedFarm`` and through
``ThreadedEngine(local_runner(...))``: the results, the stats and the one
fitness record per job must agree. A failed attempt costs what the engine's
clock measured: wall time on the threaded engine, and nothing on the farm,
where a failure at placement takes no virtual time.
"""

import random
import sys
import time
from collections import Counter

import pytest

from evonas.arch import canonical_text, identifier
from evonas.arch.spaces import FixedBinarySpace
from evonas.backends import SurrogateBackend
from evonas.bus import DURATIONS_FILE, FitnessRecord, InProcessBus, Listener
from evonas.engine import ThreadedEngine, local_runner
from evonas.errors import JobFailed
from evonas.jobs import JobSpec
from evonas.simfarm import SimulatedFarm
from evonas.slots import SlotStore

FAIL_S = 0.05  # wall time a failing attempt holds its slot
ALWAYS = 10**6  # a job that fails every attempt


class FlakyBackend(SurrogateBackend):
    """Surrogate values, but each job's first ``failures`` evaluations raise after ``fail_s``."""

    def __init__(self, failures, fail_s=FAIL_S):
        super().__init__()
        self.failures = failures
        self.fail_s = fail_s
        self.calls = Counter()

    def evaluate(self, job, emit_log=None, slot_id=0):
        self.calls[job.name] += 1
        if self.calls[job.name] <= self.failures:
            time.sleep(self.fail_s)
            raise JobFailed(f"synthetic failure {self.calls[job.name]}", "")
        return super().evaluate(job, emit_log, slot_id)


class FitnessTallyBus(InProcessBus):
    """Keeps every fitness record published on it."""

    def __init__(self):
        super().__init__()
        self.fitness: list[FitnessRecord] = []

    def publish(self, record):
        if isinstance(record, FitnessRecord):
            self.fitness.append(record)
        super().publish(record)


def make_jobs(n):
    space = FixedBinarySpace(stage_sizes=(4,), stage_channels=(8,))
    genotypes = [space.sample(random.Random(seed)) for seed in range(n)]
    return [
        JobSpec(
            name=f"job{i:03d}",
            identifier=identifier(g),
            payload=canonical_text(g),
            backend="surrogate",
            settings={"dataset": "cifar10", "stage_channels": "8"},
            seed=i,
            epochs=2,
        )
        for i, g in enumerate(genotypes)
    ]


# scenario -> (failures before success, retry budget, ok, failed attempts per job)
SCENARIOS = {
    "fail_once_then_succeed": (1, 1, True, 1),
    "always_fail_budget_0": (ALWAYS, 0, False, 1),
    "always_fail_budget_1": (ALWAYS, 1, False, 2),
}
ENGINES = {"farm": 0.0, "threaded": FAIL_S}  # engine -> least seconds a failed attempt costs
JOBS = make_jobs(2)
SUCCESS_S = {job.name: SurrogateBackend().evaluate(job)[1] for job in JOBS}  # a successful attempt's duration


def run_scenario(engine_kind, run_dir, closing, failures, retry_budget):
    bus = FitnessTallyBus()
    listener = closing(Listener(bus, run_dir, cache=None))
    backend = FlakyBackend(failures)
    if engine_kind == "farm":
        engine = SimulatedFarm({"w": 2}, backend, bus, listener, retry_budget=retry_budget)
    else:
        store = SlotStore([("local", 0), ("local", 1)])
        engine = ThreadedEngine(store, bus, listener, local_runner(backend), retry_budget=retry_budget)
    closing(engine)
    results = engine.run_jobs(JOBS)
    recorded = {}
    for line in (run_dir / DURATIONS_FILE).read_text(encoding="utf-8").splitlines():
        name, _, seconds = line.split()
        recorded[name] = float(seconds)
    return engine, bus, results, recorded


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_both_engines_account_retries_alike(tmp_path, closing, scenario):
    failures, retry_budget, ok, failed_attempts = SCENARIOS[scenario]
    outcomes = {}
    for engine_kind, failed_cost in ENGINES.items():
        engine, bus, results, recorded = run_scenario(
            engine_kind, tmp_path / engine_kind, closing, failures, retry_budget
        )
        jobs = len(results)
        assert (engine.stats.jobs, engine.stats.attempts, engine.stats.failures) == (
            jobs,
            jobs * (failed_attempts + ok),
            0 if ok else jobs,
        ), engine_kind
        assert sorted(r.job_name for r in bus.fitness) == sorted(results), engine_kind  # one record per job
        for record in bus.fitness:
            result = results[record.job_name]
            success_s = SUCCESS_S[record.job_name] if ok else 0.0
            # the recorded duration sums every attempt: each failed one and the success
            assert record.duration_s == result.duration_s, engine_kind
            assert recorded[record.job_name] == pytest.approx(result.duration_s, abs=1e-6), engine_kind
            assert result.duration_s >= success_s + failed_attempts * failed_cost, engine_kind
            if failed_cost == 0.0:
                assert result.duration_s == pytest.approx(success_s), engine_kind
        assert engine.stats.busy_seconds == pytest.approx(sum(r.duration_s for r in results.values()))
        outcomes[engine_kind] = {name: (r.ok, r.value) for name, r in results.items()}
    assert outcomes["farm"] == outcomes["threaded"]
    assert all(result_ok == ok for result_ok, _ in outcomes["farm"].values())


def test_dispatch_threads_lose_no_count(tmp_path, closing):
    """Eight dispatch threads, with a thread switch forced as often as the interpreter allows,
    count every attempt, failure and job: an unlocked read-modify-write would lose some."""
    bus = InProcessBus()
    listener = closing(Listener(bus, tmp_path, cache=None))
    store = SlotStore([("local", i) for i in range(8)])
    engine = closing(ThreadedEngine(store, bus, listener, local_runner(FlakyBackend(1, fail_s=0.0))))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = engine.run_jobs(make_jobs(400))
    finally:
        sys.setswitchinterval(interval)
    assert all(r.ok for r in results.values())
    assert (engine.stats.jobs, engine.stats.attempts, engine.stats.failures) == (400, 800, 0)
    assert engine.stats.busy_seconds == pytest.approx(sum(r.duration_s for r in results.values()))
