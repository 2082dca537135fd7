import itertools
import sys
import threading
import time

import pytest

from evonas.bus import (
    DURATIONS_FILE,
    InProcessBus,
    Listener,
    LogRecord,
    RESULT_FILE,
    RUN_LOG_FILE,
)
from evonas.cache import ResultCache
from evonas.engine import ThreadedEngine
from evonas.errors import JobFailed
from evonas.jobs import JobResult, JobSpec
from evonas.slots import SlotStore

DIGEST = "0" * 56


def fit_record(i, value=90.5):
    return JobResult(
        name=f"indi_gen00_no{i:02d}",
        identifier=format(i, "x").rjust(56, "0"),
        value=value,
        duration_s=1.5,
    )


@pytest.fixture(params=["memory"])  # the param keeps the test ids stable
def bus():
    return InProcessBus()


def test_publish_writes_through_at_drain_and_nothing_after_close(tmp_path, bus):
    listener = Listener(bus, tmp_path, cache=None)
    bus.publish(LogRecord(job_name="j", line="epoch 1 acc 10.0"))
    assert listener.drain() == 1
    assert (tmp_path / RUN_LOG_FILE).read_text() == "[j] epoch 1 acc 10.0\n"
    listener.close()
    bus.publish(LogRecord(job_name="j", line="epoch 2 acc 20.0"))
    bus.publish(fit_record(1))
    assert listener.drain() == 0
    assert (tmp_path / RUN_LOG_FILE).read_text() == "[j] epoch 1 acc 10.0\n"
    assert not (tmp_path / RESULT_FILE).exists()


def test_records_published_with_no_listener_are_dropped(tmp_path, bus):
    bus.publish(fit_record(1))
    with Listener(bus, tmp_path, cache=None) as listener:
        assert listener.drain() == 0
    assert list(tmp_path.iterdir()) == []


def test_listener_routes_fitness_to_cache_result_and_durations(tmp_path, bus, closing):
    cache = ResultCache(tmp_path / "cache.txt", DIGEST)
    listener = closing(Listener(bus, tmp_path, cache))
    bus.publish(fit_record(1, 90.50))
    assert listener.drain() == 1
    ident = format(1, "x").rjust(56, "0")
    assert cache.lookup(ident) == 90.50
    assert (tmp_path / RESULT_FILE).read_text() == "indi_gen00_no01=90.50\n"
    durations = (tmp_path / DURATIONS_FILE).read_text().splitlines()
    assert durations[0].startswith(f"indi_gen00_no01 {ident} 1.5")


def test_listener_routes_logs_with_job_prefix(tmp_path, bus, closing):
    listener = closing(Listener(bus, tmp_path, cache=None))
    bus.publish(LogRecord(job_name="jobA", line="epoch 3 acc 52.10"))
    listener.drain()
    assert (tmp_path / RUN_LOG_FILE).read_text() == "[jobA] epoch 3 acc 52.10\n"


def test_thousand_publishes_consumed_exactly_once(tmp_path, bus, closing):
    listener = closing(Listener(bus, tmp_path, cache=None))
    for i in range(500):
        bus.publish(LogRecord(job_name="j", line=f"line {i}"))
        bus.publish(fit_record(i))
    routed = listener.drain()
    assert routed == 1000
    log_lines = (tmp_path / RUN_LOG_FILE).read_text().splitlines()
    result_lines = (tmp_path / RESULT_FILE).read_text().splitlines()
    assert len(log_lines) == 500
    assert len(result_lines) == 500
    assert len(set(result_lines)) == 500  # none duplicated


def make_job(i):
    return JobSpec(name=f"indi_gen00_no{i:02d}", identifier=format(i, "x").rjust(56, "0"), payload="", backend="surrogate")


class AnnouncingRunner:
    """Slot runner: each job announces a trainer, pid ``pids[job.name]``, to the engine.
    A job in ``hold`` then runs until a termination command reaches it; any other job
    succeeds at once. Records each termination command instead of sending it, and
    reports it delivered."""

    def __init__(self, pids, hold=()):
        self.pids = pids
        self.hold = set(hold)
        self.killed = []
        self.running = threading.Semaphore(0)  # released once per held job whose trainer was announced
        self._signalled = threading.Event()

    def __call__(self, job, node, slot, engine):
        engine.process_started(node, slot, self.pids[job.name])
        if job.name not in self.hold:
            return 50.0, 1.0
        self.running.release()
        assert self._signalled.wait(5.0)
        raise JobFailed("trainer terminated", "")

    def kill(self, node, pid):
        self.killed.append((node, pid))
        self._signalled.set()
        return True


def cancelling_engine(tmp_path, bus, closing, runner, nodes=("local",)):
    """A ThreadedEngine with one slot per node, whose runner records each termination command."""
    listener = closing(Listener(bus, tmp_path, cache=None))
    return closing(ThreadedEngine(SlotStore([(node, 0) for node in nodes]), bus, listener, runner))


def test_process_records_present_exactly_while_running(tmp_path, bus, closing):
    """The engine files a trainer under its attempt's slot while the attempt runs and drops
    it when the attempt ends: cancel() signals the trainer of the attempt in flight, not
    that of the attempt that finished on the same slot before it."""
    done, held = make_job(0), make_job(1)
    runner = AnnouncingRunner({done.name: 4242, held.name: 4343}, hold=[held.name])
    engine = cancelling_engine(tmp_path, bus, closing, runner, nodes=["n1"])
    assert engine.run_jobs([done])[done.name].ok
    engine.submit(held)
    assert runner.running.acquire(timeout=5.0)
    assert engine.cancel() == 1
    assert runner.killed == [("n1", 4343)]
    assert engine.wait([held.name])[held.name].error == "cancelled"


def test_kill_all_sends_one_termination_per_live_process(tmp_path, bus, closing):
    """ThreadedEngine.cancel: one terminator call per trainer of an attempt in flight; returns the count."""
    jobs = [make_job(i) for i in range(3)]
    runner = AnnouncingRunner({job.name: 100 + i for i, job in enumerate(jobs)}, hold=[job.name for job in jobs])
    engine = cancelling_engine(tmp_path, bus, closing, runner, nodes=["n0", "n1", "n2"])
    for job in jobs:  # each is placed on the lowest idle slot as it is submitted
        engine.submit(job)
    for _ in jobs:
        assert runner.running.acquire(timeout=5.0)
    assert engine.cancel() == 3
    assert sorted(runner.killed) == [("n0", 100), ("n1", 101), ("n2", 102)]


def test_kill_all_noop_without_live_processes(tmp_path, bus, closing):
    runner = AnnouncingRunner({})
    engine = cancelling_engine(tmp_path, bus, closing, runner)
    assert engine.cancel() == 0
    assert runner.killed == []


def test_a_trainer_announced_after_cancel_returned_is_signalled(tmp_path, bus, closing):
    """A slot runner that spawns its trainer after cancel() collected the trainers to
    signal: announcing it to the engine hands its pid to the terminator at once."""
    killed = []
    running, cancelled = threading.Event(), threading.Event()

    def runner(job, node, slot, engine):
        running.set()
        assert cancelled.wait(5.0)
        engine.process_started(node, slot, 4242)
        raise JobFailed("trainer terminated", "")

    runner.kill = lambda node, pid: killed.append((node, pid))
    engine = cancelling_engine(tmp_path, bus, closing, runner)
    job = make_job(0)
    engine.submit(job)
    assert running.wait(5.0)
    assert engine.cancel() == 0  # nothing was announced yet
    cancelled.set()
    result = engine.wait([job.name])[job.name]
    assert killed == [("local", 4242)]
    assert (result.ok, result.error) == (False, "cancelled")


def test_a_trainer_announced_while_close_runs_is_not_signalled(tmp_path, bus, closing):
    """close() lets the running attempts finish: a trainer announced after it dropped the
    queued jobs is filed, not signalled, and its attempt's result stands."""
    job = make_job(0)
    runner = AnnouncingRunner({job.name: 4242})
    engine = cancelling_engine(tmp_path, bus, closing, runner)
    running, closed = threading.Event(), threading.Event()
    cancel_core = engine.core.cancel

    def core_cancel():  # close() cancels the core before it joins the slot threads
        attempts = cancel_core()
        closed.set()
        return attempts

    def announce_after_close(job, node, slot, engine):
        running.set()
        assert closed.wait(5.0)
        return runner(job, node, slot, engine)

    engine.core.cancel = core_cancel
    engine.runner = announce_after_close
    engine.submit(job)
    assert running.wait(5.0)
    engine.close()
    assert runner.killed == []
    assert engine.wait([job.name])[job.name].ok


def test_cancel_racing_announcements_signals_each_trainer_exactly_once(tmp_path, bus, closing):
    """Trainers announced on eight slots while cancel() runs, with thread switches forced
    at every few instructions: each announced trainer is signalled once, whether cancel()
    collected it or it was announced after, and no other pid is signalled."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(100):
            pids = itertools.count(1)
            announced, killed, stops = [], [], {}

            def runner(job, node, slot, engine):
                pid = next(pids)
                stops[pid] = threading.Event()
                announced.append((node, pid))
                engine.process_started(node, slot, pid)
                assert stops[pid].wait(5.0), f"trainer {pid} was never signalled"
                raise JobFailed("trainer terminated", "")

            def kill(node, pid):
                killed.append((node, pid))
                stops[pid].set()
                return True

            runner.kill = kill
            listener = closing(Listener(bus, tmp_path / str(round_), cache=None))
            engine = closing(ThreadedEngine(SlotStore([("n", i) for i in range(8)]), bus, listener, runner))
            jobs = [make_job(i) for i in range(12)]
            for job in jobs:
                engine.submit(job)
            engine.cancel()
            results = engine.wait([job.name for job in jobs])
            assert all(result.error == "cancelled" for result in results.values())
            assert sorted(killed) == sorted(announced), round_
    finally:
        sys.setswitchinterval(switch)


def test_in_process_bus_throughput_ten_thousand_per_second(tmp_path, closing):
    bus = InProcessBus()
    listener = closing(Listener(bus, tmp_path, cache=None))
    n = 20_000
    start = time.perf_counter()
    for i in range(n):
        bus.publish(LogRecord(job_name="j", line=str(i)))
    listener.drain()
    elapsed = time.perf_counter() - start
    assert n / elapsed >= 10_000, f"bus throughput {n / elapsed:.0f} records/s"


def test_bus_empty_at_quiescence(tmp_path, bus, closing):
    """Ten jobs, each announcing a trainer, run to their end: ten results are written and
    no trainer stays filed, so cancel() signals none."""
    jobs = [make_job(i) for i in range(10)]
    runner = AnnouncingRunner({job.name: i for i, job in enumerate(jobs)})
    engine = cancelling_engine(tmp_path, bus, closing, runner, nodes=["n"])
    assert all(result.ok for result in engine.run_jobs(jobs).values())
    assert len((tmp_path / RESULT_FILE).read_text().splitlines()) == 10
    assert engine.cancel() == 0
    assert runner.killed == []
