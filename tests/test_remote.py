import os
import signal
import socket
import sys
import threading
import time
from collections import Counter

import pytest

import evonas.remote as remote
from evonas.arch import BlockGene, BlockKind, Genotype, canonical_text, identifier
from evonas.backends import LookupBackend, SurrogateBackend
from evonas.bus import InProcessBus, Listener
from evonas.cache import ResultCache
from evonas.engine import ThreadedEngine, local_runner, local_terminator
from evonas.errors import JobFailed, WorkerLostError
from evonas.jobs import JobSpec
from evonas.remote import TcpTransport, WorkerAgent, recv_msg, remote_runner, send_msg
from evonas.slots import SlotStore


@pytest.fixture
def worker():
    agent = WorkerAgent("127.0.0.1", 0, slots=2, backends=("surrogate", "command"))
    ready = threading.Event()
    thread = threading.Thread(target=agent.serve_forever, args=(ready,), daemon=True)
    thread.start()
    assert ready.wait(5.0)
    yield agent
    agent.stop()
    thread.join(timeout=5.0)


def genotype():
    return Genotype.variable_blocks([BlockGene(BlockKind.RES_UNIT, out_channels=16)])


def job(name="indi_gen00_no00", backend="surrogate", settings=None, epochs=10):
    g = genotype()
    base = {"dataset": "cifar10"}
    base.update(settings or {})
    return JobSpec(
        name=name,
        identifier=identifier(g),
        payload=canonical_text(g),
        backend=backend,
        settings=base,
        seed=4,
        epochs=epochs,
    )


class TallyBus(InProcessBus):
    """Counts the records published on it, by record type."""

    def __init__(self):
        super().__init__()
        self.published = Counter()

    def publish(self, record):
        self.published[type(record).__name__] += 1
        super().publish(record)


class ProcessTallyBus(InProcessBus):
    """Keeps every process record announced on it."""

    def __init__(self):
        super().__init__()
        self.started = []

    def process_started(self, record):
        self.started.append(record)
        super().process_started(record)


TOY_TRAINER = (
    f"{sys.executable} -m evonas.toy_trainer --payload {{payload_path}} "
    f"--settings {{settings_path}} --seed {{seed}} --slot {{slot_id}}"
)


def test_surrogate_job_round_trip_matches_in_process(worker, closing):
    bus = TallyBus()
    value, duration = closing(TcpTransport()).run_job(job(), f"127.0.0.1:{worker.port}", 0, bus)
    expected_value, expected_duration = SurrogateBackend().evaluate(job())
    assert value == expected_value
    assert duration == expected_duration
    assert bus.published == Counter()  # the transport returns the fitness; the engine publishes its record
    assert bus.live_processes() == []  # process record removed at completion


def test_command_job_runs_toy_trainer_over_loopback(worker, tmp_path, closing):
    node = f"127.0.0.1:{worker.port}"
    transport = closing(TcpTransport())
    bus = TallyBus()
    the_job = job(backend="command", settings={"command": TOY_TRAINER}, epochs=5)
    value, _ = transport.run_job(the_job, node, 1, bus)
    expected_value, _ = SurrogateBackend().evaluate(the_job)
    assert value == expected_value
    # 5 epoch lines streamed back as log records, and no job result from the transport
    assert bus.published == Counter(LogRecord=5)
    # through an engine the job gets exactly one published result, from the engine's ledger
    bus = TallyBus()
    listener = closing(Listener(bus, tmp_path, cache=None))
    engine = closing(ThreadedEngine(SlotStore([(node, 1)]), bus, listener, remote_runner(transport)))
    (result,) = engine.run_jobs([the_job]).values()
    assert result.ok and result.value == expected_value
    assert bus.published == {"LogRecord": 5, "JobResult": 1}


def test_unsupported_backend_is_job_failure(worker, closing):
    bus = InProcessBus()
    with pytest.raises(JobFailed):
        closing(TcpTransport()).run_job(job(backend="lookup", settings={"table": "x.csv"}),
                               f"127.0.0.1:{worker.port}", 0, bus)


def test_unreachable_worker_raises_worker_lost():
    with socket.socket() as probe:  # find a free port nobody listens on
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    with pytest.raises(WorkerLostError):
        TcpTransport(connect_timeout=0.2).run_job(job(), f"127.0.0.1:{port}", 0, InProcessBus())


def test_kill_message_is_accepted(worker):
    TcpTransport().kill(f"127.0.0.1:{worker.port}", 999_999)  # no such pid: harmless no-op


def test_no_pid_that_names_a_group_or_this_process_is_signalled(worker, monkeypatch):
    """The center's terminator and the worker's kill message share one rule: 0 (this
    process group), -1 (every process the user owns) and the process's own pid signal
    nothing; any other pid gets SIGTERM."""
    signalled = []
    monkeypatch.setattr(os, "kill", lambda pid, sig: signalled.append((pid, sig)))
    node = f"127.0.0.1:{worker.port}"
    for kill in (local_terminator, TcpTransport().kill):
        for pid in (0, -1, os.getpid()):
            kill(node, pid)
        assert signalled == [], kill
        kill(node, 999_999)
        assert signalled == [(999_999, signal.SIGTERM)], kill
        signalled.clear()


def test_in_process_jobs_announce_no_process_record(worker, tmp_path, closing, monkeypatch):
    """No terminator signals the center or a worker itself, so an in-process backend's
    job gets no process record, locally or over TCP (no process_start frame); a command
    job over TCP announces its trainer, and every job's stream still ends with process_end."""
    frames = []
    recv = remote.recv_msg

    def recording(sock):
        msg = recv(sock)
        if msg is not None:
            frames.append(msg["type"])
        return msg

    monkeypatch.setattr(remote, "recv_msg", recording)
    node = f"127.0.0.1:{worker.port}"
    jobs = [job(name=f"indi_gen00_no{i:02d}") for i in range(3)]
    runners = {
        "local": (SlotStore([("local", 0)]), local_runner(SurrogateBackend())),
        "tcp": (SlotStore([(node, 0), (node, 1)]), remote_runner(closing(TcpTransport()))),
    }
    for where, (store, runner) in runners.items():
        bus = ProcessTallyBus()
        listener = closing(Listener(bus, tmp_path / where, cache=None))
        results = closing(ThreadedEngine(store, bus, listener, runner)).run_jobs(jobs)
        assert all(r.ok for r in results.values()), where
        assert bus.started == [], where
    assert frames.count("process_start") == 0
    assert frames.count("process_end") == len(jobs)
    bus = ProcessTallyBus()
    command_job = job(backend="command", settings={"command": TOY_TRAINER}, epochs=2)
    closing(TcpTransport()).run_job(command_job, node, 0, bus)
    assert [record.pid != os.getpid() for record in bus.started] == [True]
    assert bus.live_processes() == []
    assert frames[-1] == "process_end" and frames.count("process_start") == 1


def test_threaded_engine_over_remote_workers(worker, tmp_path, closing):
    node = f"127.0.0.1:{worker.port}"
    store = SlotStore([(node, 0), (node, 1)])
    bus = InProcessBus()
    listener = closing(Listener(bus, tmp_path, cache=None))
    engine = closing(ThreadedEngine(store, bus, listener, remote_runner(closing(TcpTransport()))))
    jobs = [job(name=f"indi_gen00_no{i:02d}") for i in range(5)]
    results = engine.run_jobs(jobs)
    assert len(results) == 5
    expected, _ = SurrogateBackend().evaluate(jobs[0])
    assert all(r.ok and r.value == expected for r in results.values())
    result_lines = (tmp_path / "results.txt").read_text().splitlines()
    assert len(result_lines) == 5


def test_threaded_engine_local_runner_failure_convention(tmp_path, closing):
    class ExplodingBackend:
        kind = "surrogate"

        def evaluate(self, job, emit_log=None, slot_id=0):
            raise JobFailed("synthetic failure", "tail")

    store = SlotStore([("local", 0)])
    bus = InProcessBus()
    listener = closing(Listener(bus, tmp_path, cache=None))
    engine = closing(ThreadedEngine(store, bus, listener, local_runner(ExplodingBackend()), retry_budget=1))
    results = engine.run_jobs([job()])
    (result,) = results.values()
    assert not result.ok and result.value == 0.0
    assert engine.stats.attempts == 2  # original try + one retry
    assert "evaluation failed" in (tmp_path / "run.log").read_text()
    assert (tmp_path / "results.txt").read_text().endswith("=0.00\n")


def test_threaded_engine_local_matches_simulated_values(tmp_path, closing):
    store = SlotStore([("local", 0), ("local", 1)])
    bus = InProcessBus()
    listener = closing(Listener(bus, tmp_path, cache=None))
    engine = closing(ThreadedEngine(store, bus, listener, local_runner(SurrogateBackend())))
    jobs = [job(name=f"indi_gen00_no{i:02d}", epochs=7) for i in range(4)]
    results = engine.run_jobs(jobs)
    expected, _ = SurrogateBackend().evaluate(jobs[0])
    assert [r.value for r in results.values()] == [expected] * 4


def test_local_command_jobs_register_the_spawned_trainer_pid(tmp_path, closing):
    """kill-all must target the trainer subprocess, so its pid (not the
    center's) goes into the process record."""
    import textwrap

    from evonas.backends import CommandBackend

    script = tmp_path / "echo_pid.py"
    script.write_text(
        textwrap.dedent(
            """
            import os
            print(f"mypid {os.getpid()}")
            print("FITNESS=50.00")
            """
        ),
        encoding="utf-8",
    )
    backend = CommandBackend(template=f"{sys.executable} {script}")

    bus = ProcessTallyBus()
    store = SlotStore([("local", 0)])
    listener = closing(Listener(bus, tmp_path, cache=None))
    engine = closing(ThreadedEngine(store, bus, listener, local_runner(backend)))
    results = engine.run_jobs([job(backend="command", settings={"command": backend.template})])
    assert next(iter(results.values())).ok
    log_line = (tmp_path / "run.log").read_text()
    reported_pid = int(log_line.split("mypid ", 1)[1].strip())
    assert [p.pid for p in bus.started] == [reported_pid]
    assert reported_pid != os.getpid()
    assert bus.live_processes() == []


def record_connections(agent):
    """Replace the agent's connection handler with one that records each handler thread."""
    handlers = []
    handle = agent._handle

    def recording(conn):
        handlers.append(threading.current_thread())
        handle(conn)

    agent._handle = recording
    return handlers


def start_worker(port=0, backends=("surrogate", "command")):
    agent = WorkerAgent("127.0.0.1", port, slots=2, backends=backends)
    ready = threading.Event()
    thread = threading.Thread(target=agent.serve_forever, args=(ready,), daemon=True)
    thread.start()
    assert ready.wait(5.0)
    return agent, thread


def remote_engine(node, tmp_path, slots=1, transport=None):
    transport = transport or TcpTransport()
    store = SlotStore([(node, i) for i in range(slots)])
    bus = InProcessBus()
    listener = Listener(bus, tmp_path, cache=None)
    return ThreadedEngine(store, bus, listener, remote_runner(transport))


def test_sequential_jobs_on_one_slot_share_one_connection(worker, tmp_path):
    handlers = record_connections(worker)
    engine = remote_engine(f"127.0.0.1:{worker.port}", tmp_path)
    for i in range(10):
        (result,) = engine.run_jobs([job(name=f"indi_gen{i:02d}_no00")]).values()
        assert result.ok
    engine.close()
    engine.listener.close()
    assert len(handlers) == 1
    assert engine.stats.attempts == 10


def test_connection_closed_by_worker_while_idle_is_replaced_without_a_retry(tmp_path):
    agent, thread = start_worker()
    node = f"127.0.0.1:{agent.port}"
    engine = remote_engine(node, tmp_path)
    try:
        (first,) = engine.run_jobs([job(name="indi_gen00_no00")]).values()
        agent.stop()  # closes the connection the center keeps idle
        thread.join(5.0)
        agent, thread = start_worker(agent.port)  # the worker comes back on the same port
        (second,) = engine.run_jobs([job(name="indi_gen01_no00")]).values()
    finally:
        engine.close()
        engine.listener.close()
        agent.stop()
        thread.join(5.0)
    assert first.ok and second.ok
    assert engine.stats.attempts == 2
    assert engine.stats.failures == 0


def test_lookup_jobs_over_one_connection_read_the_table_once(tmp_path, monkeypatch):
    table = tmp_path / "table.csv"
    table.write_text(f"identifier,fitness\n{job().identifier},61.25\n", encoding="utf-8")
    loads = []
    load = LookupBackend._load
    monkeypatch.setattr(LookupBackend, "_load", lambda self: (loads.append(self.table_path), load(self))[1])
    agent, thread = start_worker(backends=("lookup",))
    handlers = record_connections(agent)
    transport = TcpTransport()
    lookup_job = job(backend="lookup", settings={"table": str(table)})
    try:
        values = [transport.run_job(lookup_job, f"127.0.0.1:{agent.port}", 0, InProcessBus())[0] for _ in range(3)]
    finally:
        transport.close()
        agent.stop()
        thread.join(5.0)
    assert values == [61.25] * 3
    assert len(handlers) == 1
    assert loads == [str(table)]


class OneJobPerConnectionWorker(WorkerAgent):
    """Serves one message per connection and then closes it, as workers did before connection reuse."""

    def _handle(self, conn):
        with conn:
            msg = recv_msg(conn)
            if msg is not None and msg.get("type") == "job":
                self._run_job(conn, msg, {})


def test_worker_that_closes_after_every_job_costs_no_retry(tmp_path):
    agent = OneJobPerConnectionWorker("127.0.0.1", 0, slots=2)
    ready = threading.Event()
    thread = threading.Thread(target=agent.serve_forever, args=(ready,), daemon=True)
    thread.start()
    assert ready.wait(5.0)
    engine = remote_engine(f"127.0.0.1:{agent.port}", tmp_path, slots=2)
    try:
        for t in range(15):
            results = engine.run_jobs([job(name=f"indi_gen{t:02d}_no{i:02d}") for i in range(4)])
            assert all(r.ok for r in results.values())
    finally:
        engine.close()
        engine.listener.close()
        agent.stop()
        thread.join(5.0)
    assert engine.stats.attempts == 60  # a connection closed as it was reused is resent, not retried


class MalformedReplyWorker(WorkerAgent):
    """Answers every job with one raw frame body and a process_end, on a connection per job."""

    def __init__(self, body):
        super().__init__("127.0.0.1", 0, slots=1)
        self.body = body
        self.jobs = 0

    def _handle(self, conn):
        with conn:
            conn.settimeout(10.0)
            if recv_msg(conn) is None:
                return
            self.jobs += 1
            try:
                conn.sendall(len(self.body).to_bytes(4, "big") + self.body)
                send_msg(conn, {"type": "process_end", "node": self.address, "pid": 1, "job": "j"})
                conn.recv(1)  # until the center closes the connection
            except OSError:
                pass


@pytest.mark.parametrize(
    "body",
    [
        b'{"type":"fitness","identifier":"x","duration_s":1.0}',
        b"[1,2]",
        b"\xff\xfe",
        b'{"type":"process_start","node":"n","pid":"abc"}',
        b'{"type":"fitness","identifier":"x","value":150.0,"duration_s":1.0}',
    ],
    ids=["fitness_without_value", "not_an_object", "not_utf8", "pid_not_an_integer", "value_out_of_range"],
)
def test_malformed_frame_fails_the_attempt_and_closes_its_connection(tmp_path, closing, body):
    agent = MalformedReplyWorker(body)
    ready = threading.Event()
    thread = threading.Thread(target=agent.serve_forever, args=(ready,), daemon=True)
    thread.start()
    assert ready.wait(5.0)
    node = f"127.0.0.1:{agent.port}"
    bus = InProcessBus()
    listener = closing(Listener(bus, tmp_path, ResultCache(tmp_path / "cache.txt", "0" * 56)))
    engine = closing(ThreadedEngine(SlotStore([(node, 0)]), bus, listener, remote_runner(closing(TcpTransport()))))
    try:
        (result,) = engine.run_jobs([job()]).values()
    finally:
        agent.stop()
        thread.join(5.0)
    assert not result.ok and result.value == 0.0  # the retry budget's give-up, as for a lost worker
    assert agent.jobs == 2  # the retry came on a new connection: a broken one is never reused


def test_unsupported_backend_ends_its_stream_and_keeps_the_connection(worker):
    handlers = record_connections(worker)
    transport = TcpTransport()
    node = f"127.0.0.1:{worker.port}"
    bus = InProcessBus()
    with pytest.raises(JobFailed, match="not supported"):
        transport.run_job(job(backend="lookup", settings={"table": "x.csv"}), node, 0, bus)
    value, _ = transport.run_job(job(), node, 0, bus)
    transport.close()
    assert value == SurrogateBackend().evaluate(job())[0]
    assert len(handlers) == 1


def test_stop_ends_every_handler_thread(worker, tmp_path):
    handlers = record_connections(worker)
    engine = remote_engine(f"127.0.0.1:{worker.port}", tmp_path, slots=2)
    engine.run_jobs([job(name=f"indi_gen00_no{i:02d}") for i in range(4)])
    assert handlers and all(t.is_alive() for t in handlers)  # idle, waiting for the next job
    worker.stop()
    deadline = time.monotonic() + 1.0
    for handler in handlers:
        handler.join(max(0.0, deadline - time.monotonic()))
    assert not any(t.is_alive() for t in handlers)
    engine.close()
    engine.listener.close()


def test_engine_reuses_its_dispatch_threads_and_close_releases_everything(worker, tmp_path):
    transport = TcpTransport()
    opened = []
    connect = transport._connect

    def recording_connect(node):
        sock = connect(node)
        opened.append(sock)
        return sock

    transport._connect = recording_connect
    before = set(threading.enumerate())
    engine = remote_engine(f"127.0.0.1:{worker.port}", tmp_path, slots=2, transport=transport)
    assert set(threading.enumerate()) == before  # no thread before the first job
    engine.run_jobs([job(name=f"indi_gen00_no{i:02d}") for i in range(4)])
    dispatch = set(threading.enumerate()) - before - {t for t in threading.enumerate() if t.daemon}
    engine.run_jobs([job(name=f"indi_gen01_no{i:02d}") for i in range(4)])
    assert dispatch and dispatch <= set(threading.enumerate())  # the second batch ran on the same threads
    assert 1 <= len(opened) <= 2  # one connection per busy slot, not one per job
    engine.close()
    engine.listener.close()
    assert not any(t.is_alive() for t in dispatch)
    assert all(sock.fileno() == -1 for sock in opened)


def test_idle_dispatch_threads_exit_and_later_batches_still_run(tmp_path, monkeypatch):
    import evonas.engine as engine_module

    monkeypatch.setattr(engine_module, "DISPATCH_IDLE_S", 0.05)
    store = SlotStore([("local", 0), ("local", 1)])
    bus = InProcessBus()
    engine = ThreadedEngine(store, bus, Listener(bus, tmp_path, cache=None), local_runner(SurrogateBackend()))
    for t in range(3):
        results = engine.run_jobs([job(name=f"indi_gen{t:02d}_no{i:02d}") for i in range(3)])
        assert all(r.ok for r in results.values())
        deadline = time.monotonic() + 5.0
        while engine._pool._threads and time.monotonic() < deadline:
            time.sleep(0.01)
        assert engine._pool._threads == []
    engine.close()
    engine.listener.close()


def test_no_live_process_record_after_any_job(worker):
    transport = TcpTransport()
    node = f"127.0.0.1:{worker.port}"
    bus = InProcessBus()
    for the_job in (
        job(),
        job(backend="command", settings={"command": TOY_TRAINER}, epochs=2),
        job(backend="command", settings={"command": f"{sys.executable} -c 'import sys; sys.exit(3)'"}),
        job(backend="lookup", settings={"table": "x.csv"}),
        job(),
    ):
        try:
            transport.run_job(the_job, node, 0, bus)
        except JobFailed:
            pass
        assert bus.live_processes() == []
    transport.close()


def test_dispatch_pool_runs_every_call_while_threads_retire(monkeypatch):
    """Calls submitted just as idle threads time out and exit are never left queued."""
    import random

    import evonas.engine as engine_module

    monkeypatch.setattr(engine_module, "DISPATCH_IDLE_S", 0.001)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    rng = random.Random(7)
    pools = [engine_module.DispatchPool(size) for size in (1, 2, 3)]
    try:
        for wave in range(600):
            pool = pools[wave % len(pools)]
            futures = [pool.submit(lambda x: x * x, i) for i in range(rng.randrange(1, 5))]
            assert [f.result(timeout=5.0) for f in futures] == [i * i for i in range(len(futures))]
            time.sleep(rng.uniform(0.0, 0.003))
    finally:
        sys.setswitchinterval(interval)
        for pool in pools:
            pool.close()
    assert all(pool._threads == [] for pool in pools)


def test_call_submitted_as_the_last_idle_thread_gives_up_still_runs(monkeypatch):
    import queue

    import evonas.engine as engine_module

    monkeypatch.setattr(engine_module, "DISPATCH_IDLE_S", 0.01)
    pool = engine_module.DispatchPool(1)
    late: list = []  # a submit to make after the thread's wait timed out, before it retires
    late_futures: list = []

    class LateSubmitQueue(queue.SimpleQueue):
        def get(self, block=True, timeout=None):
            try:
                return super().get(block, timeout)
            except queue.Empty:
                if late:
                    late.pop()()
                raise

    pool._tasks = LateSubmitQueue()
    assert pool.submit(abs, -1).result(timeout=5.0) == 1
    late.append(lambda: late_futures.append(pool.submit(abs, -2)))
    deadline = time.monotonic() + 5.0
    while not late_futures and time.monotonic() < deadline:
        time.sleep(0.005)
    assert late_futures[0].result(timeout=5.0) == 2  # the one thread saw the call and stayed
    pool.close()
    assert pool._threads == []
