import dataclasses
import time

import pytest

from evonas.bus import (
    DURATIONS_FILE,
    FileBus,
    FitnessRecord,
    InProcessBus,
    Listener,
    LogRecord,
    ProcessRecord,
    RESULT_FILE,
    RUN_LOG_FILE,
    _with_id,
    kill_all,
)
from evonas.cache import ResultCache

DIGEST = "0" * 56


def fit_record(i, value=90.5):
    return FitnessRecord(
        job_name=f"indi_gen00_no{i:02d}",
        identifier=format(i, "x").rjust(56, "0"),
        value=value,
        duration_s=1.5,
    )


@pytest.fixture(params=["memory", "file"])
def bus(request, tmp_path):
    if request.param == "memory":
        return InProcessBus()
    return FileBus(tmp_path / "bus")


def test_publish_take_ack_cycle(bus):
    bus.publish(LogRecord(job_name="j", line="epoch 1 acc 10.0"))
    assert bus.pending() == 1
    record = bus.take()
    assert record.line == "epoch 1 acc 10.0"
    bus.ack(record)
    assert bus.pending() == 0
    assert bus.take() is None


def test_records_get_unique_ids(bus):
    for i in range(50):
        bus.publish(LogRecord(job_name="j", line=str(i)))
    ids = set()
    while (record := bus.take()) is not None:
        ids.add(record.record_id)
        bus.ack(record)
    assert len(ids) == 50


def test_process_records_present_exactly_while_running(bus):
    bus.process_started(ProcessRecord(node="n1", pid=4242, job_name="j1", started_at=time.time()))
    live = bus.live_processes()
    assert [(p.node, p.pid) for p in live] == [("n1", 4242)]
    bus.process_ended("n1", 4242, "j1")
    assert bus.live_processes() == []


def test_listener_routes_fitness_to_cache_result_and_durations(tmp_path, bus):
    cache = ResultCache(tmp_path / "cache.txt", DIGEST)
    listener = Listener(bus, tmp_path, cache)
    bus.publish(fit_record(1, 90.50))
    assert listener.drain() == 1
    ident = format(1, "x").rjust(56, "0")
    assert cache.lookup(ident) == 90.50
    assert (tmp_path / RESULT_FILE).read_text() == "indi_gen00_no01=90.50\n"
    durations = (tmp_path / DURATIONS_FILE).read_text().splitlines()
    assert durations[0].startswith(f"indi_gen00_no01 {ident} 1.5")
    assert bus.pending() == 0


def test_listener_routes_logs_with_job_prefix(tmp_path, bus):
    listener = Listener(bus, tmp_path, cache=None)
    bus.publish(LogRecord(job_name="jobA", line="epoch 3 acc 52.10"))
    listener.drain()
    assert (tmp_path / RUN_LOG_FILE).read_text() == "[jobA] epoch 3 acc 52.10\n"


def test_thousand_publishes_consumed_exactly_once(tmp_path, bus):
    listener = Listener(bus, tmp_path, cache=None)
    for i in range(500):
        bus.publish(LogRecord(job_name="j", line=f"line {i}"))
        bus.publish(fit_record(i))
    routed = listener.drain()
    assert routed == 1000
    assert bus.pending() == 0
    log_lines = (tmp_path / RUN_LOG_FILE).read_text().splitlines()
    result_lines = (tmp_path / RESULT_FILE).read_text().splitlines()
    assert len(log_lines) == 500
    assert len(result_lines) == 500
    assert len(set(result_lines)) == 500  # none duplicated


def test_listener_restart_replays_without_double_apply(tmp_path):
    """Crash window: record applied and journaled but not yet deleted."""
    bus = FileBus(tmp_path / "bus")
    listener = Listener(bus, tmp_path, cache=None)
    bus.publish(fit_record(7, 77.25))

    # simulate the crash: apply + journal happen, the delete never does
    record = bus.take()
    listener._apply(record)
    listener._append("routed_ids.txt", record.record_id)
    del listener  # listener dies before ack; the spool file survives
    assert bus.pending() == 1

    bus2 = FileBus(tmp_path / "bus")
    listener2 = Listener(bus2, tmp_path, cache=None)
    listener2.drain()
    assert bus2.pending() == 0
    result_lines = (tmp_path / RESULT_FILE).read_text().splitlines()
    assert result_lines == ["indi_gen00_no07=77.25"]  # applied exactly once


def test_malformed_spool_record_goes_to_dead_letter(tmp_path):
    bus = FileBus(tmp_path / "bus")
    bad = tmp_path / "bus" / "queue" / "000000000001_deadbeef.rec"
    bad.write_text("{not json", encoding="utf-8")
    assert bus.take() is None
    assert not bad.exists()
    assert "{not json" in (tmp_path / "bus" / "dead_letter.txt").read_text()


def test_kill_all_sends_one_termination_per_live_process(bus):
    for i in range(3):
        bus.process_started(ProcessRecord(node=f"n{i}", pid=100 + i, job_name=f"j{i}", started_at=0.0))
    killed = []
    count = kill_all(bus, lambda node, pid: killed.append((node, pid)))
    assert count == 3
    assert sorted(killed) == [("n0", 100), ("n1", 101), ("n2", 102)]


def test_kill_all_noop_without_live_processes(bus):
    killed = []
    assert kill_all(bus, lambda node, pid: killed.append((node, pid))) == 0
    assert killed == []


def test_in_process_bus_throughput_ten_thousand_per_second(tmp_path):
    bus = InProcessBus()
    listener = Listener(bus, tmp_path, cache=None)
    n = 20_000
    start = time.perf_counter()
    for i in range(n):
        bus.publish(LogRecord(job_name="j", line=str(i)))
    listener.drain()
    elapsed = time.perf_counter() - start
    assert n / elapsed >= 10_000, f"bus throughput {n / elapsed:.0f} records/s"


def test_bus_empty_at_quiescence(tmp_path, bus):
    listener = Listener(bus, tmp_path, cache=None)
    for i in range(10):
        bus.process_started(ProcessRecord(node="n", pid=i, job_name=f"j{i}", started_at=0.0))
        bus.publish(fit_record(i))
        bus.process_ended("n", i, f"j{i}")
    listener.drain()
    assert bus.pending() == 0
    assert bus.live_processes() == []


def test_record_id_stamp_keeps_every_field():
    for record in (
        fit_record(3, value=71.25),
        LogRecord(job_name="j", line="epoch 2 acc 40.0"),
        ProcessRecord(node="n1", pid=4242, job_name="j", started_at=12.5),
    ):
        stamped = _with_id(record)
        assert type(stamped) is type(record)
        assert len(stamped.record_id) == 32 and int(stamped.record_id, 16) >= 0
        assert dataclasses.replace(stamped, record_id="") == record
        assert _with_id(stamped) is stamped  # an id, once set, is kept
    assert _with_id(fit_record(1)).record_id != _with_id(fit_record(1)).record_id
