import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_mark_lost_blocks_scheduling_even_after_release():
    store = SlotStore([("n1", 0), ("n1", 1), ("n2", 0)])
    assert store.acquire("running") == ("n1", 0)
    assert store.mark_lost("n1") is None
    assert (store.idle(), len(store)) == (1, 3)
    store.release("n1", 0)  # the attempt that ran there ends: its slot stays lost
    assert store.idle() == 1
    assert store.acquire("next") == ("n2", 0)
    assert store.acquire("more") is None  # n1 slots never granted while lost


def test_slots_scan_in_key_order_whatever_the_input_order():
    store = SlotStore([("n2", 1), ("n1", 1), ("n2", 0), ("n1", 0)])
    assert (store.idle(), len(store)) == (4, 4)
    assert [store.acquire() for _ in range(4)] == [("n1", 0), ("n1", 1), ("n2", 0), ("n2", 1)]
    assert store.idle() == 0


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


def test_acquire_wait_gives_up_when_the_node_of_the_last_busy_slot_is_lost():
    store = SlotStore([("n", 0)])
    store.acquire()
    got = []
    thread = threading.Thread(target=lambda: got.append(store.acquire_wait()))
    thread.start()
    store.mark_lost("n")
    thread.join(timeout=5.0)
    assert got == [None]


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
    """Reference model: a dict of slot statuses ("idle", "busy" or "lost") that a plain
    scan in key order reads. After every step the store's grant and idle count match it."""
    keys = [(node, i) for node, n in zip(NODES, sizes) for i in range(n)]
    store = SlotStore(data.draw(st.permutations(keys)))
    ref = {key: "idle" for key in sorted(keys)}
    assert len(store) == len(ref)
    for step, (op, node, slot) in enumerate(ops):
        if op in ("acquire", "acquire_wait"):
            idle = [key for key, status in ref.items() if status == "idle"]
            busy = [key for key, status in ref.items() if status == "busy"]
            if op == "acquire_wait" and busy and not idle:
                continue  # it would block until another thread releases
            grant = getattr(store, op)(f"job{step}")
            assert grant == (idle[0] if idle else None)
            if idle:
                ref[idle[0]] = "busy"
        elif op == "release":
            if (node, slot) not in ref:
                with pytest.raises(InvariantViolation):
                    store.release(node, slot)
                continue
            store.release(node, slot)
            if ref[node, slot] == "busy":
                ref[node, slot] = "idle"
        else:
            assert store.mark_lost(node) is None
            for key in ref:
                if key[0] == node:
                    ref[key] = "lost"
        assert store.idle() == sum(status == "idle" for status in ref.values())
