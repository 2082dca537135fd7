import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from evonas.errors import InvariantViolation, WorkerLostError
from evonas.remote import poll_workers
from evonas.slots import SlotStatus, SlotStore, WorkerDescriptor


def test_acquire_lowest_idle_slot():
    store = SlotStore([("n1", 0), ("n1", 1)])
    assert store.acquire("job") == ("n1", 0)
    assert store.acquire("job2") == ("n1", 1)
    assert store.acquire("job3") is None


def test_acquire_skips_busy():
    store = SlotStore([("n1", 0), ("n1", 1)])
    store.acquire("a")
    assert store.acquire("b") == ("n1", 1)


def test_release_returns_slot_to_idle():
    store = SlotStore([("n1", 0)])
    store.acquire("a")
    store.release("n1", 0)
    assert store.acquire("b") == ("n1", 0)


def test_release_unknown_slot_rejected():
    store = SlotStore([("n1", 0)])
    with pytest.raises(InvariantViolation):
        store.release("nX", 3)


def test_duplicate_slots_rejected():
    with pytest.raises(InvariantViolation):
        SlotStore([("n1", 0), ("n1", 0)])


def test_mark_lost_reports_orphans_and_blocks_scheduling():
    store = SlotStore([("n1", 0), ("n2", 0)])
    store.acquire("running")  # lands on n1:0
    orphans = store.mark_lost("n1")
    assert orphans == ["running"]
    assert store.acquire("next") == ("n2", 0)
    assert store.acquire("more") is None  # n1 slots never granted while lost


def test_quarantine_and_clear():
    store = SlotStore([("n1", 0)])
    store.quarantine("n1", 0, "someone_elses_job")
    assert store.acquire("mine") is None
    store.clear_quarantine("n1", 0)
    assert store.acquire("mine") == ("n1", 0)


def test_has_live_false_once_every_slot_lost_or_quarantined():
    store = SlotStore([("n1", 0), ("n2", 0), ("n2", 1)])
    store.acquire("a")
    store.acquire("b")
    store.acquire("c")
    assert store.has_live()  # busy slots are live
    store.mark_lost("n1")
    store.quarantine("n2", 0)
    assert store.has_live()
    store.quarantine("n2", 1)
    assert not store.has_live()
    store.clear_quarantine("n2", 1)
    assert store.has_live()


def test_slots_scan_in_key_order_whatever_the_input_order():
    store = SlotStore([("n2", 1), ("n1", 1), ("n2", 0), ("n1", 0)])
    assert [(s.node, s.slot_id) for s in store.snapshot()] == [
        ("n1", 0), ("n1", 1), ("n2", 0), ("n2", 1),
    ]
    assert [store.acquire("j") for _ in range(4)] == [("n1", 0), ("n1", 1), ("n2", 0), ("n2", 1)]


def test_state_file_persists_transitions(tmp_path):
    path = tmp_path / "slots.json"
    store = SlotStore([("n1", 0), ("n1", 1)], state_path=path)
    store.acquire("j")
    data = json.loads(path.read_text())
    statuses = {(d["node"], d["slot"]): d["status"] for d in data}
    assert statuses[("n1", 0)] == "busy"
    assert statuses[("n1", 1)] == "idle"


def test_concurrent_acquisition_grants_each_slot_once():
    store = SlotStore([("n", i) for i in range(10)])
    with ThreadPoolExecutor(max_workers=100) as pool:
        grants = list(pool.map(lambda _: store.acquire("j"), range(100)))
    won = [g for g in grants if g is not None]
    assert len(won) == 10
    assert len(set(won)) == 10  # no slot double-granted


def test_acquire_wait_blocks_until_release():
    store = SlotStore([("n", 0)])
    store.acquire("first")
    got = []

    def waiter():
        got.append(store.acquire_wait("second", timeout=5.0))

    thread = threading.Thread(target=waiter)
    thread.start()
    store.release("n", 0)
    thread.join(timeout=5.0)
    assert got == [("n", 0)]


def test_acquire_wait_gives_up_when_no_live_slots():
    store = SlotStore([("n", 0)])
    store.mark_lost("n")
    assert store.acquire_wait("j", timeout=0.5) is None


class FakeTransport:
    def __init__(self, statuses):
        self.statuses = statuses  # node -> dict | WorkerLostError

    def poll(self, node):
        status = self.statuses[node]
        if isinstance(status, Exception):
            raise status
        return status


def descriptors(*nodes):
    return [WorkerDescriptor(node, 2) for node in nodes]


def test_poll_all_idle_keeps_slots_idle():
    store = SlotStore([("w1", 0), ("w1", 1)])
    transport = FakeTransport({"w1": {0: None, 1: None}})
    outcome = poll_workers(transport, descriptors("w1"), store)
    assert outcome.reachable == ["w1"]
    assert all(s.status is SlotStatus.IDLE for s in store.snapshot())


def test_poll_unknown_busy_slot_gets_quarantined():
    store = SlotStore([("w1", 0), ("w1", 1)])
    transport = FakeTransport({"w1": {0: "not_our_job", 1: None}})
    outcome = poll_workers(transport, descriptors("w1"), store)
    assert outcome.quarantined == [("w1", 0)]
    statuses = {s.slot_id: s.status for s in store.snapshot()}
    assert statuses[0] is SlotStatus.QUARANTINED
    assert statuses[1] is SlotStatus.IDLE


def test_poll_our_job_not_quarantined():
    store = SlotStore([("w1", 0), ("w1", 1)])
    store.acquire("indi_x")  # w1:0 busy with our job
    transport = FakeTransport({"w1": {0: "indi_x", 1: None}})
    outcome = poll_workers(transport, descriptors("w1"), store)
    assert outcome.quarantined == []
    assert store.snapshot()[0].status is SlotStatus.BUSY


def test_poll_unreachable_worker_marked_lost_after_timeout():
    store = SlotStore([("w1", 0), ("w2", 0)])
    store.acquire("in_flight")  # w1:0
    transport = FakeTransport({"w1": WorkerLostError("down"), "w2": {0: None}})
    outcome = poll_workers(transport, descriptors("w1", "w2"), store, lost_after_s=0.0, now=100.0)
    assert outcome.lost == {"w1": ["in_flight"]}
    statuses = {(s.node, s.slot_id): s.status for s in store.snapshot()}
    assert statuses[("w1", 0)] is SlotStatus.LOST
    assert statuses[("w2", 0)] is SlotStatus.IDLE


def test_poll_clears_stale_quarantine():
    store = SlotStore([("w1", 0)])
    store.quarantine("w1", 0, "ghost")
    transport = FakeTransport({"w1": {0: None}})
    poll_workers(transport, descriptors("w1"), store)
    assert store.snapshot()[0].status is SlotStatus.IDLE


def test_poll_empty_registry_rejected():
    store = SlotStore([("w1", 0)])
    with pytest.raises(WorkerLostError):
        poll_workers(FakeTransport({}), [], store)
