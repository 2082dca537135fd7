"""Both engines account a job's attempts the same way, and keep the same streaming contract.

The same retry scenarios run through ``SimulatedFarm`` and through
``ThreadedEngine(local_runner(...))``: the results, the stats and the one
published result per job must agree. A failed attempt costs what the engine's
clock measured: wall time on the threaded engine, and nothing on the farm,
where a failure at placement takes no virtual time. Jobs submitted one by one
and waited for in groups give what one ``run_jobs`` call gives, and a cancel
starts no queued job on either engine. The attempts a cancel stops resolve
as cancelled on both, charged the seconds they held their slots.
"""

import random
import sys
import threading
import time
from collections import Counter

import pytest

from evonas.arch import canonical_text, identifier
from evonas.arch.spaces import FixedBinarySpace
from evonas.backends import SurrogateBackend
from evonas.bus import DURATIONS_FILE, InProcessBus, Listener
from evonas.cache import ResultCache
from evonas.engine import ThreadedEngine, local_runner
from evonas.errors import JobFailed
from evonas.jobs import JobResult, JobSpec
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
    """Keeps every job result published on it."""

    def __init__(self):
        super().__init__()
        self.fitness: list[JobResult] = []

    def publish(self, record):
        if isinstance(record, JobResult):
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
        assert sorted(r.name for r in bus.fitness) == sorted(results), engine_kind  # one record per job
        for record in bus.fitness:
            result = results[record.name]
            success_s = SUCCESS_S[record.name] if ok else 0.0
            assert record == result, engine_kind  # the core publishes the result it returns
            # the recorded duration sums every attempt: each failed one and the success
            assert recorded[record.name] == pytest.approx(result.duration_s, abs=1e-6), engine_kind
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


def test_an_error_that_is_no_attempt_failure_is_raised_by_wait(tmp_path, closing):
    """A slot runner that raises what no retry is for (a defect, not a failed attempt): the
    slot thread hands it to the waiter, which raises it instead of waiting forever."""

    def runner(job, node, slot, bus):
        raise ValueError(f"defect running {job.name}")

    bus = InProcessBus()
    listener = closing(Listener(bus, tmp_path, cache=None))
    engine = closing(ThreadedEngine(SlotStore([("local", 0)]), bus, listener, runner))
    with pytest.raises(ValueError, match="defect running job000"):
        engine.run_jobs(make_jobs(2))


@pytest.mark.parametrize("engine_kind", ENGINES)
def test_submit_and_wait_match_run_jobs(tmp_path, closing, engine_kind):
    """Jobs submitted one by one and waited for in two groups give the results, stats
    and one published result per job that one run_jobs call gives; each result is handed
    out once."""
    outcomes = []
    for mode in ("run_jobs", "submit_wait"):
        bus = FitnessTallyBus()
        listener = closing(Listener(bus, tmp_path / f"{engine_kind}_{mode}", cache=None))
        backend = FlakyBackend(1)  # every job fails once, then succeeds
        if engine_kind == "farm":
            engine = SimulatedFarm({"w": 2}, backend, bus, listener)
        else:
            engine = ThreadedEngine(SlotStore([("local", 0), ("local", 1)]), bus, listener, local_runner(backend))
        closing(engine)
        jobs = make_jobs(5)
        if mode == "run_jobs":
            results = engine.run_jobs(jobs)
        else:
            for job in jobs:
                engine.submit(job)
            results = engine.wait([job.name for job in jobs[3:]])
            durations = tmp_path / f"{engine_kind}_{mode}" / DURATIONS_FILE
            written = {line.split()[0] for line in durations.read_text(encoding="utf-8").splitlines()}
            assert written >= set(results)  # wait writes the listener's files through
            results.update(engine.wait([job.name for job in jobs[:3]]))
            assert not any(engine.done(job.name) for job in jobs)  # each result is handed out once
        assert sorted(r.name for r in bus.fitness) == sorted(results)
        lines = (tmp_path / f"{engine_kind}_{mode}" / DURATIONS_FILE).read_text(encoding="utf-8").splitlines()
        assert len(lines) == 5
        outcomes.append((
            {name: (r.ok, r.value) for name, r in results.items()},
            (engine.stats.jobs, engine.stats.attempts, engine.stats.failures),
        ))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == (5, 10, 0)


class ReverseOrderBackend(SurrogateBackend):
    """Each job's evaluation waits until the job submitted after it has finished, so the
    jobs finish last to first; ``finished`` keeps that order."""

    def __init__(self, jobs):
        super().__init__()
        self.after = {job.name: later.name for job, later in zip(jobs, jobs[1:])}
        self.ended = {job.name: threading.Event() for job in jobs}
        self.finished = []

    def evaluate(self, job, emit_log=None, slot_id=0):
        later = self.after.get(job.name)
        if later is not None:
            assert self.ended[later].wait(5.0)
        self.finished.append(job.name)
        self.ended[job.name].set()
        return super().evaluate(job, emit_log, slot_id)


@pytest.mark.parametrize("waited", ["when_all_done", "in_flight"])
def test_one_wait_hands_out_jobs_that_finish_in_reverse_order(tmp_path, closing, waited):
    """One wait hands out every job, each exactly once, whether they resolved before it
    (done() was true for each) or while it blocked; the first job submitted is the last
    to finish."""
    jobs = make_jobs(4)
    names = [job.name for job in jobs]
    backend = ReverseOrderBackend(jobs)
    bus = FitnessTallyBus()
    listener = closing(Listener(bus, tmp_path, cache=None))
    store = SlotStore([("local", i) for i in range(len(jobs))])
    engine = closing(ThreadedEngine(store, bus, listener, local_runner(backend)))
    for job in jobs:
        engine.submit(job)
    if waited == "when_all_done":
        deadline = time.monotonic() + 10
        while not all(engine.done(name) for name in names):
            assert time.monotonic() < deadline, "the jobs never resolved"
            time.sleep(0.005)
    results = engine.wait(names)
    assert backend.finished == names[::-1]
    assert list(results) == names
    assert [(r.ok, r.value) for r in results.values()] == [
        (True, SurrogateBackend().evaluate(job)[0]) for job in jobs
    ]
    assert not any(engine.done(name) for name in names)  # handed out
    assert sorted(r.name for r in bus.fitness) == names  # one published result per job
    with pytest.raises(KeyError):
        engine.wait(names[:1])


@pytest.mark.parametrize("engine_kind", ENGINES)
def test_result_is_in_the_cache_file_once_its_job_resolves(tmp_path, closing, engine_kind):
    """The cache line of a resolved job is on disk before any wait, on both engines: a
    center that dies in the middle of a batch keeps every training that finished."""
    bus = InProcessBus()
    listener = closing(Listener(bus, tmp_path, ResultCache(tmp_path / "cache.txt", "0" * 56)))
    if engine_kind == "farm":
        engine = SimulatedFarm({"w": 1}, SurrogateBackend(), bus, listener)
    else:
        engine = ThreadedEngine(SlotStore([("local", 0)]), bus, listener, local_runner(SurrogateBackend()))
    closing(engine)
    (job,) = make_jobs(1)
    engine.submit(job)
    deadline = time.monotonic() + 10
    while not engine.done(job.name):
        assert time.monotonic() < deadline, "the job never resolved"
        if engine_kind == "farm":
            assert engine.step()
        else:
            time.sleep(0.005)
    entries = (tmp_path / "cache.txt").read_text(encoding="utf-8").splitlines()[1:]
    assert [line.split(" = ")[0] for line in entries] == [job.identifier]
    assert engine.wait([job.name])[job.name].ok


@pytest.mark.parametrize("engine_kind", ENGINES)
def test_cancel_starts_no_queued_job_and_records_no_fitness(tmp_path, closing, engine_kind):
    """After cancel, a job that has not started resolves as cancelled and unpublished
    (a resumed run trains it again); a job that finished keeps its published result.
    The farm's attempt in flight is stopped and charged its virtual seconds; an
    in-process threaded job has no process to stop and finishes."""
    bus = FitnessTallyBus()
    listener = closing(Listener(bus, tmp_path, cache=None))
    backend = SlowBackend(block=engine_kind == "threaded")  # the farm runs a backend at placement
    if engine_kind == "farm":
        engine = SimulatedFarm({"w": 1}, backend, bus, listener)
    else:
        engine = ThreadedEngine(SlotStore([("local", 0)]), bus, listener, local_runner(backend))
    closing(engine)
    first, *rest = make_jobs(4)
    done = engine.run_jobs([first])
    for job in rest:
        engine.submit(job)
    deadline = time.monotonic() + 10
    while len(backend.started) < 2:  # the second job holds the one slot
        assert time.monotonic() < deadline
        time.sleep(0.01)
    assert engine.cancel() == (1 if engine_kind == "farm" else 0)
    backend.release.set()
    results = engine.wait([job.name for job in rest])
    assert done[first.name].ok
    assert backend.started == [first.name, rest[0].name]  # the second job took the slot before the cancel
    if engine_kind == "farm":
        stopped = results[rest[0].name]
        assert (stopped.ok, stopped.error) == (False, "cancelled")
        assert stopped.duration_s == 0.0  # stopped at the virtual time it was placed
        assert [r.name for r in bus.fitness] == [first.name]
        assert engine.stats.jobs == 1
    else:
        assert results[rest[0].name].ok
        assert [r.name for r in bus.fitness] == [first.name, rest[0].name]
        assert engine.stats.jobs == 2
    for job in rest[1:]:
        assert (results[job.name].ok, results[job.name].error) == (False, "cancelled")


class SlowBackend(SurrogateBackend):
    """Records the jobs it starts; with ``block``, each after the first waits for ``release``."""

    def __init__(self, block):
        super().__init__()
        self.block = block
        self.started = []
        self.release = threading.Event()

    def evaluate(self, job, emit_log=None, slot_id=0):
        self.started.append(job.name)
        if self.block and len(self.started) > 1:
            self.release.wait(10.0)
        return super().evaluate(job, emit_log, slot_id)


@pytest.mark.parametrize("engine_kind", ENGINES)
def test_killed_attempt_resolves_as_cancelled_and_is_charged(tmp_path, closing, engine_kind):
    """cancel() stops an in-flight attempt: the job resolves as cancelled and unpublished,
    and the seconds the killed attempt held its slot join the busy time."""
    bus = FitnessTallyBus()
    listener = closing(Listener(bus, tmp_path, cache=None))
    long_job, short_job = make_jobs(2)
    if engine_kind == "farm":
        backend = TimedBackend({long_job.name: 100.0, short_job.name: 4.0})
        engine = SimulatedFarm({"w": 2}, backend, bus, listener)
    else:
        runner = KillableRunner(long_job.name, short_s=4.0)
        engine = ThreadedEngine(SlotStore([("local", 0), ("local", 1)]), bus, listener, runner)
    closing(engine)
    engine.submit(long_job)
    assert engine.run_jobs([short_job])[short_job.name].ok  # on the farm the clock reaches 4 s
    if engine_kind == "threaded":
        assert runner.announced.wait(10.0)  # the long job's trainer runs
    assert engine.stats.busy_seconds == 4.0
    assert engine.cancel() == 1
    killed = engine.wait([long_job.name])[long_job.name]
    assert (killed.ok, killed.error) == (False, "cancelled")
    assert killed.duration_s > 0
    if engine_kind == "farm":
        assert killed.duration_s == 4.0  # virtual seconds from placement to the kill
    assert engine.stats.busy_seconds == pytest.approx(4.0 + killed.duration_s)
    assert [r.name for r in bus.fitness] == [short_job.name]
    assert engine.stats.jobs == 1


class TimedBackend(SurrogateBackend):
    """Surrogate values, with the duration of each job given by name."""

    def __init__(self, seconds):
        super().__init__()
        self.seconds = seconds

    def evaluate(self, job, emit_log=None, slot_id=0):
        value, _ = super().evaluate(job, emit_log, slot_id)
        return value, self.seconds[job.name]


class KillableRunner:
    """Slot runner: the ``blocking`` job runs as a trainer process until ``kill``; any other
    job succeeds at once, reporting ``short_s`` seconds."""

    PID = 424242

    def __init__(self, blocking, short_s):
        self.blocking = blocking
        self.short_s = short_s
        self.announced = threading.Event()
        self.killed = threading.Event()

    def __call__(self, job, node, slot, engine):
        if job.name != self.blocking:
            return SurrogateBackend().evaluate(job)[0], self.short_s
        engine.process_started(node, slot, self.PID)
        self.announced.set()
        self.killed.wait(10.0)
        raise JobFailed("trainer terminated", "")

    def kill(self, node, pid):
        self.killed.set()
        return True
