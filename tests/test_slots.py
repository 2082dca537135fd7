import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evonas.errors import InvariantViolation
from evonas.slots import SlotStatus, SlotStore


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


NODES = ("n0", "n1", "n2")

# (operation, node, slot); losing a node is rarer than the other operations, so
# that most sequences keep live slots to grant and release
store_ops = st.lists(
    st.tuples(
        st.sampled_from(["acquire"] * 3 + ["acquire_wait"] * 2 + ["release"] * 5 + ["mark_lost"]),
        st.sampled_from(NODES),
        st.integers(0, 3),
    ),
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 4), min_size=len(NODES), max_size=len(NODES)),
    ops=store_ops,
    data=st.data(),
)
def test_every_grant_is_the_lowest_idle_slot_a_plain_scan_finds(sizes, ops, data):
    """Reference model: a dict of slot states that a plain scan in key order reads."""
    keys = [(node, i) for node, n in zip(NODES, sizes) for i in range(n)]
    store = SlotStore(data.draw(st.permutations(keys)))
    ref = {key: (SlotStatus.IDLE, None) for key in sorted(keys)}
    for step, (op, node, slot) in enumerate(ops):
        name = f"job{step}"
        if op in ("acquire", "acquire_wait"):
            idle = [key for key, (status, _) in ref.items() if status is SlotStatus.IDLE]
            live = idle or [key for key, (status, _) in ref.items() if status is SlotStatus.BUSY]
            if op == "acquire_wait" and live and not idle:
                continue  # it would block until another thread releases
            grant = getattr(store, op)(name)
            assert grant == (idle[0] if idle else None)
            if idle:
                ref[idle[0]] = (SlotStatus.BUSY, name)
        elif op == "release":
            if (node, slot) not in ref:
                with pytest.raises(InvariantViolation):
                    store.release(node, slot)
                continue
            store.release(node, slot)
            if ref[node, slot][0] is SlotStatus.BUSY:
                ref[node, slot] = (SlotStatus.IDLE, None)
        else:
            orphans = store.mark_lost(node)
            mine = [key for key in ref if key[0] == node]
            assert orphans == [ref[key][1] for key in mine if ref[key][0] is SlotStatus.BUSY]
            for key in mine:
                ref[key] = (SlotStatus.LOST, None)
        assert [(s.node, s.slot_id, s.status, s.job_name) for s in store.snapshot()] == [
            (*key, status, job) for key, (status, job) in ref.items()
        ]
