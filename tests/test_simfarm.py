import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evonas.arch import canonical_text, identifier
from evonas.arch.spaces import FixedBinarySpace
from evonas.backends import SurrogateBackend
from evonas.bus import InProcessBus, Listener
from evonas.errors import ConfigError
from evonas.jobs import JobSpec
from evonas.simfarm import FaultEvent, SimulatedFarm, parse_fault_script

import random


def make_jobs(n, seed=0):
    space = FixedBinarySpace(stage_sizes=(4,), stage_channels=(8,))
    rng = random.Random(seed)
    jobs = []
    seen = set()
    while len(jobs) < n:
        g = space.sample(rng)
        ident = identifier(g)
        if ident in seen:
            continue
        seen.add(ident)
        jobs.append(
            JobSpec(
                name=f"job{len(jobs):03d}",
                identifier=ident,
                payload=canonical_text(g),
                backend="surrogate",
                settings={"dataset": "cifar10", "stage_channels": "8"},
                seed=len(jobs),
                epochs=2,
            )
        )
    return jobs


@pytest.fixture
def make_farm(closing):
    """make_farm(run_dir, workers, **farm_kwargs) -> (farm, bus, listener); listeners close at teardown."""

    def factory(run_dir, workers, **kwargs):
        bus = InProcessBus()
        listener = closing(Listener(bus, run_dir, cache=None))
        farm = SimulatedFarm(workers, SurrogateBackend(), bus, listener, **kwargs)
        return farm, bus, listener

    return factory


def test_serial_slot_runs_jobs_back_to_back(tmp_path, make_farm):
    farm, _, _ = make_farm(tmp_path, {"w": 1}, duration=5.0)
    farm.run_jobs(make_jobs(3))
    finishes = [e.time for e in farm.trace if e.kind == "finish"]
    assert finishes == [5.0, 10.0, 15.0]


def test_ten_jobs_four_slots_makespan_three(tmp_path, make_farm):
    farm, _, _ = make_farm(tmp_path, {"w": 4}, duration=1.0)
    farm.run_jobs(make_jobs(10))
    assert farm.last_makespan == pytest.approx(3.0)


def test_eight_jobs_four_slots_makespan_two(tmp_path, make_farm):
    farm, _, _ = make_farm(tmp_path, {"w": 4}, duration=1.0)
    farm.run_jobs(make_jobs(8))
    assert farm.last_makespan == pytest.approx(2.0)


def test_makespan_with_dispatch_overhead_within_five_percent(tmp_path, make_farm):
    farm, _, _ = make_farm(tmp_path, {"w": 4}, duration=1.0, dispatch_overhead=0.01)
    farm.run_jobs(make_jobs(10))
    assert farm.last_makespan <= 3.0 * 1.05


def test_results_and_stats(tmp_path, make_farm):
    farm, _, _ = make_farm(tmp_path, {"w": 2}, duration=1.0)
    results = farm.run_jobs(make_jobs(5))
    assert len(results) == 5
    assert all(r.ok and 0 <= r.value <= 100 for r in results.values())
    assert farm.stats.jobs == 5
    assert farm.stats.busy_seconds == pytest.approx(5.0)
    assert len((tmp_path / "results.txt").read_text(encoding="utf-8").splitlines()) == 5


def test_same_seed_identical_event_traces(tmp_path, make_farm):
    farm_a, _, _ = make_farm(tmp_path / "a", {"w": 3}, duration=2.0)
    farm_b, _, _ = make_farm(tmp_path / "b", {"w": 3}, duration=2.0)
    farm_a.run_jobs(make_jobs(7))
    farm_b.run_jobs(make_jobs(7))
    assert farm_a.trace == farm_b.trace


def test_work_conservation_no_idle_slot_with_queued_jobs(tmp_path, make_farm):
    farm, _, _ = make_farm(tmp_path, {"w": 3}, duration=1.0)
    farm.run_jobs(make_jobs(9))
    # replay the trace between distinct virtual instants: whenever jobs are
    # still queued, every slot must be busy
    from itertools import groupby

    busy = 0
    outstanding = 9
    for _, events in groupby(farm.trace, key=lambda e: e.time):
        for event in events:
            if event.kind == "start":
                busy += 1
            elif event.kind == "finish":
                busy -= 1
                outstanding -= 1
        queued = outstanding - busy
        if queued > 0:
            assert busy == 3  # a queued job never waits beside an idle slot
    assert outstanding == 0


def test_crashed_worker_requeues_job_on_survivor(tmp_path, make_farm):
    farm, _, _ = make_farm(
        tmp_path,
        {"w1": 1, "w2": 1},
        duration=10.0,
        faults=[FaultEvent("w1", 7.0)],
    )
    results = farm.run_jobs(make_jobs(2))
    assert all(r.ok for r in results.values())
    requeues = [e for e in farm.trace if e.kind == "requeue"]
    assert len(requeues) == 1
    crashed_job = requeues[0].job
    # the requeued attempt must finish on the surviving worker
    last_start = [e for e in farm.trace if e.kind == "start" and e.job == crashed_job][-1]
    assert last_start.node == "w2"
    assert farm.store.idle() == 1  # w1's slot is lost, w2's idle again
    assert [farm.store.acquire(), farm.store.acquire()] == [("w2", 0), None]


def test_job_requeued_exactly_once_per_retry_budget(tmp_path, make_farm):
    farm, _, _ = make_farm(
        tmp_path,
        {"w1": 1},
        duration=10.0,
        retry_budget=1,
        faults=[FaultEvent("w1", 3.0)],
    )
    results = farm.run_jobs(make_jobs(1))
    job = make_jobs(1)[0]
    requeues = [e for e in farm.trace if e.kind == "requeue"]
    fails = [e for e in farm.trace if e.kind == "fail"]
    assert len(requeues) == 1  # one requeue allowed...
    assert len(fails) == 1  # ...then no slots remain, so the job fails
    assert not results[job.name].ok
    assert results[job.name].value == 0.0


def test_failed_job_resolves_with_zero_fitness_record(tmp_path, make_farm):
    farm, bus, listener = make_farm(
        tmp_path, {"w1": 1}, duration=4.0, retry_budget=0,
        faults=[FaultEvent("w1", 2.0)],
    )
    results = farm.run_jobs(make_jobs(1))
    (result,) = results.values()
    assert not result.ok and result.value == 0.0
    results_file = (tmp_path / "results.txt").read_text()
    assert results_file == "job000=0.00\n"
    run_log = (tmp_path / "run.log").read_text()
    assert "evaluation failed" in run_log


def test_kill_all_leaves_no_orphan_processes(tmp_path, make_farm):
    """cancel() stops both attempts in flight and frees their slots; every job resolves as cancelled."""
    farm, _, _ = make_farm(tmp_path, {"w": 2}, duration=50.0)
    jobs = make_jobs(4)
    for job in jobs:
        farm.submit(job)
    assert farm.cancel() == 2  # two placed, two queued
    assert farm.store.idle() == len(farm.store) == 2
    results = farm.wait([job.name for job in jobs])
    assert {(r.ok, r.error) for r in results.values()} == {(False, "cancelled")}
    assert [e.kind for e in farm.trace] == ["start", "start", "kill", "kill"]


def test_kill_all_during_race_over_many_interleavings(tmp_path, make_farm):
    # interrupt after each event step in turn; no slot may stay busy after any cut
    for cut in range(8):
        farm, _, _ = make_farm(tmp_path / str(cut), {"w": 2}, duration=3.0)
        jobs = make_jobs(6, seed=cut)
        for job in jobs:
            farm.submit(job)
        for _ in range(cut):
            if not farm.step():
                break
        in_flight = len(farm.store) - farm.store.idle()
        assert farm.cancel() == in_flight
        assert farm.store.idle() == len(farm.store)
        results = farm.wait([job.name for job in jobs])
        assert all(r.ok or r.error == "cancelled" for r in results.values())
        traced = len(farm.trace)
        while farm.step():  # the stopped attempts' completion events are stale
            pass
        assert len(farm.trace) == traced


@settings(max_examples=60, deadline=None)
@given(
    workers=st.dictionaries(st.sampled_from(["w1", "w2", "w3"]), st.integers(1, 3), min_size=1),
    n_jobs=st.integers(0, 12),
    crashes=st.dictionaries(st.sampled_from(["w1", "w2", "w3"]), st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0])),
    retry_budget=st.integers(0, 2),
)
def test_idle_slots_plus_attempts_in_flight_are_the_slots_of_live_nodes(workers, n_jobs, crashes, retry_budget):
    """The store keeps only which slots are idle and the core which attempt runs where:
    after every step the two together account for each slot of a node not yet crashed."""
    jobs = make_jobs(n_jobs)
    with tempfile.TemporaryDirectory() as tmp:
        bus = InProcessBus()
        with Listener(bus, Path(tmp), cache=None) as listener:
            farm = SimulatedFarm(
                workers, SurrogateBackend(), bus, listener, duration=1.0, retry_budget=retry_budget,
                faults=[FaultEvent(node, at) for node, at in crashes.items()],
            )

            def check():
                crashed = {e.node for e in farm.trace if e.kind == "crash"}
                live = sum(n for node, n in workers.items() if node not in crashed)
                assert farm.store.idle() + len(farm.core._inflight) == live

            for job in jobs:
                farm.submit(job)
                check()
            while farm.step():
                check()
            results = farm.wait([job.name for job in jobs])
    assert len(results) == n_jobs


def test_fault_script_validation():
    for at in (-3.0, float("nan")):
        with pytest.raises(ConfigError, match="must be non-negative"):
            parse_fault_script([FaultEvent("w", at)])
    fault = FaultEvent("w", 3.0)
    assert parse_fault_script(iter([fault])) == (fault,)


def test_farm_requires_workers(tmp_path):
    bus = InProcessBus()
    listener = Listener(bus, tmp_path, cache=None)
    with pytest.raises(ConfigError):
        SimulatedFarm({}, SurrogateBackend(), bus, listener)


def test_gpu_days_accounting_matches_durations(tmp_path, make_farm):
    farm, _, _ = make_farm(tmp_path, {"w": 4}, duration=3600.0)
    farm.run_jobs(make_jobs(8))
    # 8 jobs x 1 slot-hour each = 8 slot-hours
    assert farm.stats.busy_seconds == pytest.approx(8 * 3600.0)
    total = sum(
        float(line.split()[2]) for line in (tmp_path / "durations.txt").read_text().splitlines()
    )
    assert total == pytest.approx(8 * 3600.0)
