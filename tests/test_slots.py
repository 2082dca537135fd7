import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from evonas.errors import InvariantViolation
from evonas.slots import SlotStore


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


def test_slots_scan_in_key_order_whatever_the_input_order():
    store = SlotStore([("n2", 1), ("n1", 1), ("n2", 0), ("n1", 0)])
    assert [(s.node, s.slot_id) for s in store.snapshot()] == [
        ("n1", 0), ("n1", 1), ("n2", 0), ("n2", 1),
    ]
    assert [store.acquire("j") for _ in range(4)] == [("n1", 0), ("n1", 1), ("n2", 0), ("n2", 1)]


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
        got.append(store.acquire_wait("second"))

    thread = threading.Thread(target=waiter)
    thread.start()
    store.release("n", 0)
    thread.join(timeout=5.0)
    assert got == [("n", 0)]


def test_acquire_wait_gives_up_when_no_live_slots():
    store = SlotStore([("n", 0)])
    store.mark_lost("n")
    assert store.acquire_wait("j") is None
