"""The scheduler core on its own: no threads, no clock, every event fed by the test."""

import pytest

from evonas.bus import InProcessBus
from evonas.jobs import JobSpec
from evonas.scheduler import Scheduler
from evonas.slots import SlotStore


def jobs(*names):
    return [JobSpec(name=name, identifier=name, payload="", backend="surrogate") for name in names]


def core(slots, retry_budget=1):
    """A core over ``slots``, and the (kind, job name) events its trace hook hears."""
    events = []
    sched = Scheduler(SlotStore(slots), InProcessBus(), retry_budget, lambda kind, name: events.append((kind, name)))
    return sched, events


def place(core):
    return [(a.job.name, a.node, a.slot) for a in core.placements()]


def test_a_failed_attempt_is_requeued_at_the_tail_of_the_queue():
    sched, events = core([("n", 0)])
    for job in jobs("a", "b", "c"):
        sched.submit(job)
    (first,) = sched.placements()
    assert first.job.name == "a"
    assert sched.ended(first.token, "trainer died", 2.0) is None
    assert events == [("requeue", "a")]
    order = []
    for _ in range(3):
        (attempt,) = sched.placements()
        order.append((attempt.job.name, attempt.tries))
        sched.ended(attempt.token, 50.0, 1.0)
    assert place(sched) == []
    assert order == [("b", 0), ("c", 0), ("a", 1)]
    sched.expect(["a", "b", "c"])
    results = sched.take(["a", "b", "c"])
    assert results["a"].ok and results["a"].duration_s == 3.0  # the failed attempt's 2 s count
    assert sched.stats.attempts == 4


def test_a_failure_at_placement_is_requeued_before_the_next_placement():
    """The engine ends an attempt while the core is still placing: the requeued job goes to
    the tail, behind the jobs that wait, and the same placement pass places it again."""
    sched, _ = core([("n", 0), ("n", 1), ("n", 2)])
    for job in jobs("a", "b"):
        sched.submit(job)
    placed = []
    for attempt in sched.placements():
        placed.append((attempt.job.name, attempt.slot))
        if (attempt.job.name, attempt.tries) == ("a", 0):
            sched.ended(attempt.token, "no such layer", 0.0)
    assert placed == [("a", 0), ("b", 0), ("a", 1)]


def test_a_placement_pass_asks_the_store_only_for_a_slot_it_can_grant():
    """5 jobs on 2 slots: one acquire per placement, and no refused one while an attempt is
    in flight and no slot is idle."""
    store = SlotStore([("n", 0), ("n", 1)])
    acquire, grants = store.acquire, []
    store.acquire = lambda job_name=None: grants.append(acquire(job_name)) or grants[-1]
    sched = Scheduler(store, InProcessBus())
    for job in jobs("a", "b", "c", "d", "e"):
        sched.submit(job)
    running = list(sched.placements())
    while running:
        sched.ended(running.pop(0).token, 50.0, 1.0)
        running += sched.placements()
    assert grants == [("n", 0), ("n", 1), ("n", 0), ("n", 1), ("n", 0)]
    assert sched.stats.jobs == 5


def test_queued_jobs_fail_only_once_no_slot_is_live():
    sched, events = core([("n1", 0), ("n2", 0)], retry_budget=0)
    for job in jobs("a", "b", "c"):
        sched.submit(job)
    assert place(sched) == [("a", "n1", 0), ("b", "n2", 0)]
    (lost,) = sched.node_lost("n1")
    assert sched.ended(lost.token, "worker n1 crashed", 1.0).error == "worker n1 crashed"
    assert place(sched) == []  # n2 is live and busy: "c" waits
    assert not sched.done("c")
    (last,) = sched.node_lost("n2")
    sched.ended(last.token, "worker n2 crashed", 1.5)
    assert place(sched) == []
    assert sched.done("c")
    assert events == [("fail", "a"), ("fail", "b"), ("fail", "c")]
    assert sched.take(["c"])["c"].error == "no live worker slots remain"


def test_cancel_drops_the_queue_and_a_late_failure_resolves_as_cancelled():
    sched, events = core([("n", 0)])
    for job in jobs("a", "b"):
        sched.submit(job)
    (running,) = sched.placements()
    assert sched.cancel() == [running]
    assert sched.done("b") and not sched.done("a")
    sched.ended(running.token, "killed", 4.0)
    sched.submit(jobs("c")[0])  # submitted after the cancel: never placed
    assert place(sched) == []
    results = sched.take(["a", "b", "c"])
    assert {name: (r.ok, r.error, r.duration_s) for name, r in results.items()} == {
        "a": (False, "cancelled", 4.0), "b": (False, "cancelled", 0.0), "c": (False, "cancelled", 0.0),
    }
    assert events == []  # a cancel is no failure
    assert sched.stats.jobs == 0


def test_expect_refuses_a_name_never_submitted_or_already_handed_out():
    sched, _ = core([("n", 0)])
    sched.submit(jobs("a")[0])
    (attempt,) = sched.placements()
    sched.expect(["a"])
    assert sched.unresolved == {"a"}
    sched.ended(attempt.token, 50.0, 1.0)
    assert sched.unresolved == set()
    assert sched.take(["a"])["a"].ok
    for name in ("a", "z"):
        with pytest.raises(KeyError):
            sched.expect([name])
    assert sched.ended(attempt.token, 50.0, 1.0) is None  # a stale end changes nothing
