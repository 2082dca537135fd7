"""The simulated farm and the threaded engine schedule alike, tested against each other.

Both engines drive the same scheduler core. Hypothesis draws a job list, a
failure script per job and worker crashes, and runs each draw twice: on the
farm, and on a ``ThreadedEngine`` whose slot runner holds every attempt until
the test releases it. The test releases them in the order of the farm's
events, each once the engine has settled (every slot thread it started waits
at the gate or has ended), and it sets the engine's clock to the farm's
virtual time. The two runs must give equal results, attempts per job,
``EngineStats``, ``cache.txt`` bytes and start order.
"""

import hashlib
import tempfile
import threading
import time
import types
from collections import Counter
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings, strategies as st

import evonas.engine as engine_module
from evonas.bus import InProcessBus, Listener
from evonas.cache import ResultCache
from evonas.engine import ThreadedEngine
from evonas.errors import JobFailed, WorkerLostError
from evonas.jobs import JobSpec
from evonas.simfarm import FaultEvent, SimulatedFarm
from evonas.slots import SlotStore

DIGEST = "0" * 56
SETTLE_S = 10.0  # real seconds an engine may take to settle before the test fails

# one attempt's outcome: None fails it at placement, a number is its duration
outcomes = st.lists(st.one_of(st.none(), st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])), max_size=3)


class Script:
    """Each job's attempts in order; an attempt past the end of its list succeeds in 1 s."""

    def __init__(self, scripts):
        self.scripts = scripts
        self.calls = []  # (job name, slot) of every attempt, in start order

    def attempt(self, job, slot):
        k = sum(1 for name, _ in self.calls if name == job.name)
        self.calls.append((job.name, slot))
        steps = self.scripts[job.name]
        step = steps[k] if k < len(steps) else 1.0
        if step is None:
            raise JobFailed(f"scripted failure of attempt {k}", "")
        return float(int(job.identifier[:4], 16) % 10000) / 100, step


class ScriptedBackend:
    kind = "surrogate"

    def __init__(self, script):
        self.script = script

    def evaluate(self, job, emit_log=None, slot_id=0):
        return self.script.attempt(job, slot_id)


class GateRunner:
    """Slot runner that holds each attempt which passes placement until ``release``."""

    def __init__(self, script):
        self.script = script
        self.lock = threading.Lock()
        self.held = {}  # (job, node, slot) -> (thread, event, outcome holder)
        self.arrivals = []  # (job, node, slot) of every held attempt, in arrival order

    def __call__(self, job, node, slot, bus):
        value, seconds = self.script.attempt(job, slot)
        verdict = []
        released = threading.Event()
        with self.lock:
            self.held[job.name, node, slot] = (threading.current_thread(), released, verdict)
            self.arrivals.append((job.name, node, slot))
        assert released.wait(SETTLE_S)
        if verdict == ["crash"]:
            raise WorkerLostError(f"worker {node} crashed")
        return value, seconds

    def release(self, key, verdict):
        with self.lock:
            _, released, holder = self.held.pop(key)
        holder.append(verdict)
        released.set()

    def holders(self):
        with self.lock:
            return {thread for thread, _, _ in self.held.values()}

    def release_all(self):
        with self.lock:
            held, self.held = self.held, {}
        for _, released, holder in held.values():
            holder.append("crash")
            released.set()


def settle(runner, before):
    """Wait until every thread the engine started is held at the gate or has ended."""
    deadline = time.monotonic() + SETTLE_S
    while not set(threading.enumerate()) - before <= runner.holders():
        assert time.monotonic() < deadline, "the threaded engine never settled"
        time.sleep(0.0005)


def make_jobs(n):
    names = [f"job{i}" for i in range(n)]
    return [
        JobSpec(name, hashlib.sha224(name.encode()).hexdigest(), payload="", backend="surrogate")
        for name in names
    ]


def run_farm(root, workers, jobs, scripts, crashes, retry_budget):
    script = Script(scripts)
    bus = InProcessBus()
    with Listener(bus, root / "farm", ResultCache(root / "farm" / "cache.txt", DIGEST)) as listener:
        farm = SimulatedFarm(
            workers, ScriptedBackend(script), bus, listener, retry_budget=retry_budget,
            faults=[FaultEvent(node, at) for node, at in crashes.items()],
        )
        results = farm.run_jobs(jobs)
    return farm, script, results


def run_threaded(root, workers, jobs, scripts, farm_trace, retry_budget):
    script = Script(scripts)
    runner = GateRunner(script)
    clock = types.SimpleNamespace(now=0.0)
    bus = InProcessBus()
    store = SlotStore((node, i) for node, n in sorted(workers.items()) for i in range(n))
    before = set(threading.enumerate())
    with Listener(bus, root / "threads", ResultCache(root / "threads" / "cache.txt", DIGEST)) as listener, \
            mock.patch.object(engine_module, "time", types.SimpleNamespace(monotonic=lambda: clock.now)):
        engine = ThreadedEngine(store, bus, listener, runner, retry_budget=retry_budget)
        try:
            for job in jobs:
                engine.submit(job)
                settle(runner, before)
            for event in farm_trace:
                if event.kind not in ("finish", "crash"):
                    continue  # what follows from a release, not a release
                clock.now = event.time
                if event.kind == "finish":
                    runner.release((event.job, event.node, event.slot), "finish")
                    settle(runner, before)
                    continue
                for attempt in engine.core.node_lost(event.node):  # the engine is settled: no lock needed
                    runner.release((attempt.job.name, attempt.node, attempt.slot), "crash")
                    settle(runner, before)
            results = engine.wait([job.name for job in jobs])
        finally:
            runner.release_all()
            engine.close()
    return engine, script, runner, results


@settings(max_examples=60, deadline=None)
# a crash ends two attempts: the first one's job fails at its next placement and is placed
# again before the second attempt ends, on the farm as on threads
@example(workers={"n1": 2, "n3": 2}, scripts=[[], [], [0.5], [1.5, None], []], crash_times={"n3": 1.5}, retry_budget=2)
@given(
    workers=st.dictionaries(st.sampled_from(["n1", "n2", "n3"]), st.integers(1, 2), min_size=1),
    scripts=st.lists(outcomes, min_size=1, max_size=7),
    crash_times=st.dictionaries(st.sampled_from(["n1", "n2", "n3"]), st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 4.5])),
    retry_budget=st.integers(0, 2),
)
def test_farm_and_threaded_engine_schedule_alike(workers, scripts, crash_times, retry_budget):
    jobs = make_jobs(len(scripts))
    by_name = {job.name: steps for job, steps in zip(jobs, scripts)}
    crashes = {node: at for node, at in crash_times.items() if node in workers}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        farm, farm_script, farm_results = run_farm(root, workers, jobs, by_name, crashes, retry_budget)
        engine, script, runner, results = run_threaded(root, workers, jobs, by_name, farm.trace, retry_budget)
        assert results == farm_results
        assert script.calls == farm_script.calls  # every attempt, in start order
        assert Counter(name for name, _ in script.calls) == Counter(name for name, _ in farm_script.calls)
        assert runner.arrivals == [(e.job, e.node, e.slot) for e in farm.trace if e.kind == "start"]
        assert engine.stats == farm.stats
        farm_cache = (root / "farm" / "cache.txt").read_bytes()
        assert (root / "threads" / "cache.txt").read_bytes() == farm_cache
        assert len(farm_cache.splitlines()) == 1 + len(jobs)  # every job resolved, none cancelled
