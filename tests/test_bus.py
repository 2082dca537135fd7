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


def test_process_records_present_exactly_while_running(bus):
    bus.process_started("n1", 4242)
    assert bus.live_processes() == [("n1", 4242)]
    bus.process_finished("n1", 4242)
    assert bus.live_processes() == []


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


def cancelling_engine(tmp_path, bus, closing, killed):
    """A ThreadedEngine whose runner records each termination command instead of sending it."""

    def runner(job, node, slot, bus):
        raise AssertionError("no job runs")

    runner.kill = lambda node, pid: killed.append((node, pid))
    listener = closing(Listener(bus, tmp_path, cache=None))
    return closing(ThreadedEngine(SlotStore([("local", 0)]), bus, listener, runner))


def test_kill_all_sends_one_termination_per_live_process(tmp_path, bus, closing):
    """ThreadedEngine.cancel: one terminator call per live trainer; returns the count."""
    killed = []
    engine = cancelling_engine(tmp_path, bus, closing, killed)
    for i in range(3):
        bus.process_started(f"n{i}", 100 + i)
    assert engine.cancel() == 3
    assert sorted(killed) == [("n0", 100), ("n1", 101), ("n2", 102)]


def test_kill_all_noop_without_live_processes(tmp_path, bus, closing):
    killed = []
    engine = cancelling_engine(tmp_path, bus, closing, killed)
    assert engine.cancel() == 0
    assert killed == []


def test_a_trainer_announced_after_cancel_returned_is_signalled(tmp_path, bus, closing):
    """A slot runner that spawns its trainer after cancel() took its snapshot of the live
    processes: announcing it on the bus hands its pid to the terminator at once."""
    killed = []
    running, cancelled = threading.Event(), threading.Event()

    def runner(job, node, slot, bus):
        running.set()
        assert cancelled.wait(5.0)
        bus.process_started(node, 4242)
        bus.process_finished(node, 4242)
        raise JobFailed("trainer terminated", "")

    runner.kill = lambda node, pid: killed.append((node, pid))
    listener = closing(Listener(bus, tmp_path, cache=None))
    engine = closing(ThreadedEngine(SlotStore([("local", 0)]), bus, listener, runner))
    job = JobSpec(name="indi_gen00_no00", identifier="a" * 56, payload="", backend="surrogate")
    engine.submit(job)
    assert running.wait(5.0)
    assert engine.cancel() == 0  # nothing was live yet
    cancelled.set()
    result = engine.wait([job.name])[job.name]
    assert killed == [("local", 4242)]
    assert (result.ok, result.error) == (False, "cancelled")
    assert bus.live_processes() == []


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
    listener = closing(Listener(bus, tmp_path, cache=None))
    for i in range(10):
        bus.process_started("n", i)
        bus.publish(fit_record(i))
        bus.process_finished("n", i)
    listener.drain()
    assert len((tmp_path / RESULT_FILE).read_text().splitlines()) == 10
    assert bus.live_processes() == []
