import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import replace

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


class RecordingSink:
    """Stands in for the engine a slot runner reports to: counts the records published
    through it, by type, and keeps the (node, slot, pid) of every trainer announced."""

    def __init__(self):
        self.published = Counter()
        self.started = []

    def publish(self, record):
        self.published[type(record).__name__] += 1

    def process_started(self, node, slot, pid):
        self.started.append((node, slot, pid))


class ProcessTallyEngine(ThreadedEngine):
    """Keeps the (node, pid) of every trainer announced to it, once the engine filed it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.started = []

    def process_started(self, node, slot, pid):
        super().process_started(node, slot, pid)
        self.started.append((node, pid))


TOY_TRAINER = (
    f"{sys.executable} -m evonas.toy_trainer --payload {{payload_path}} "
    f"--settings {{settings_path}} --seed {{seed}} --slot {{slot_id}}"
)


def test_surrogate_job_round_trip_matches_in_process(worker, closing):
    sink = RecordingSink()
    value, duration = closing(TcpTransport()).run_job(job(), f"127.0.0.1:{worker.port}", 0, sink)
    expected_value, expected_duration = SurrogateBackend().evaluate(job())
    assert value == expected_value
    assert duration == expected_duration
    assert sink.published == Counter()  # the transport returns the fitness; the engine publishes its record
    assert sink.started == []  # an in-process backend starts no trainer


def test_command_job_runs_toy_trainer_over_loopback(worker, tmp_path, closing):
    node = f"127.0.0.1:{worker.port}"
    transport = closing(TcpTransport())
    sink = RecordingSink()
    the_job = job(backend="command", settings={"command": TOY_TRAINER}, epochs=5)
    value, _ = transport.run_job(the_job, node, 1, sink)
    expected_value, _ = SurrogateBackend().evaluate(the_job)
    assert value == expected_value
    # 5 epoch lines streamed back as log records, and no job result from the transport
    assert sink.published == Counter(LogRecord=5)
    # through an engine the job gets exactly one published result, from the engine's scheduler core
    bus = TallyBus()
    listener = closing(Listener(bus, tmp_path, cache=None))
    engine = closing(ThreadedEngine(SlotStore([(node, 1)]), bus, listener, remote_runner(transport)))
    (result,) = engine.run_jobs([the_job]).values()
    assert result.ok and result.value == expected_value
    assert bus.published == {"LogRecord": 5, "JobResult": 1}


def test_unsupported_backend_is_job_failure(worker, closing):
    with pytest.raises(JobFailed):
        closing(TcpTransport()).run_job(job(backend="lookup", settings={"table": "x.csv"}),
                               f"127.0.0.1:{worker.port}", 0, RecordingSink())


def test_unreachable_worker_raises_worker_lost():
    with socket.socket() as probe:  # find a free port nobody listens on
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    with pytest.raises(WorkerLostError):
        TcpTransport(connect_timeout=0.2).run_job(job(), f"127.0.0.1:{port}", 0, RecordingSink())


def test_kill_message_is_accepted(worker):
    # no such pid: a harmless no-op, which the worker answers with an error, not ok
    assert TcpTransport().kill(f"127.0.0.1:{worker.port}", 999_999) is False


@pytest.fixture
def silent_node():
    """The address of a socket that listens but never accepts, as a frozen worker's does:
    a connection to it opens through the backlog, and no answer ever comes."""
    with socket.socket() as server:
        server.bind(("127.0.0.1", 0))
        server.listen(4)
        yield f"127.0.0.1:{server.getsockname()[1]}"


def test_a_kill_to_a_silent_worker_returns_within_the_connect_timeout(silent_node):
    transport = TcpTransport(connect_timeout=0.5, io_timeout=3.0)
    started = time.monotonic()
    assert transport.kill(silent_node, 4242) is False  # logged, not raised
    assert time.monotonic() - started < 2.0


def test_cancel_signals_the_trainer_after_a_silent_worker(worker, silent_node, tmp_path, closing, monkeypatch):
    """The kill to a worker that never answers costs cancel() at most the connect timeout,
    and the kill for the trainer after it still reaches its worker; cancel() counts only
    the kill that went out."""
    delivered = []
    monkeypatch.setattr(worker, "_kill", lambda msg: (delivered.append(msg["pid"]), {"type": "ok"})[1])
    live = f"localhost:{worker.port}"
    assert silent_node < live  # the silent node's slot is placed, and its trainer signalled, first
    running, release = threading.Semaphore(0), threading.Event()

    def runner(job, node, slot, engine):
        engine.process_started(node, slot, 4242 if node == silent_node else 4343)
        running.release()
        release.wait(10.0)
        raise JobFailed("trainer terminated", "")

    runner.kill = closing(TcpTransport(connect_timeout=0.5, io_timeout=3.0)).kill
    bus = InProcessBus()
    listener = closing(Listener(bus, tmp_path, cache=None))
    engine = closing(ThreadedEngine(SlotStore([(silent_node, 0), (live, 0)]), bus, listener, runner))
    for i in range(2):
        engine.submit(job(name=f"indi_gen00_no{i:02d}"))
    for _ in range(2):
        assert running.acquire(timeout=5.0)
    started = time.monotonic()
    try:
        assert engine.cancel() == 1
        elapsed = time.monotonic() - started
    finally:
        release.set()
    assert delivered == [4343]
    assert elapsed < 2.0


def test_no_pid_that_names_a_group_or_this_process_is_signalled(worker, monkeypatch):
    """Neither the center's terminator nor the worker's kill message signals 0 (this
    process group), -1 (every process the user owns) or the process's own pid. The
    terminator sends any other pid SIGTERM; the worker signals only a trainer it runs."""
    signalled = []
    monkeypatch.setattr(os, "kill", lambda pid, sig: signalled.append((pid, sig)))
    node = f"127.0.0.1:{worker.port}"
    for kill in (local_terminator, TcpTransport().kill):
        for pid in (0, -1, os.getpid()):
            assert kill(node, pid) is False
        assert signalled == [], kill
    assert TcpTransport().kill(node, 999_999) is False
    assert signalled == []
    assert local_terminator(node, 999_999) is True
    assert signalled == [(999_999, signal.SIGTERM)]


def test_a_kill_for_a_process_that_already_ended_reports_no_signal():
    ended = subprocess.Popen([sys.executable, "-c", "pass"])
    ended.wait()
    assert local_terminator("local", ended.pid) is False


def test_a_kill_for_a_process_the_worker_did_not_start_gets_an_error_and_signals_nothing(worker):
    """Any peer can send a kill frame: the worker answers one naming a process that is
    not a trainer it runs with an error frame, and the process runs on."""
    bystander = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        with socket.create_connection(("127.0.0.1", worker.port), timeout=5.0) as sock:
            send_msg(sock, {"type": "kill", "pid": bystander.pid})
            reply = recv_msg(sock)
        assert reply["type"] == "error" and str(bystander.pid) in reply["message"]
        with pytest.raises(subprocess.TimeoutExpired):
            bystander.wait(timeout=0.5)
    finally:
        bystander.kill()
        bystander.wait()


def test_in_process_jobs_announce_no_process_record(worker, tmp_path, closing, monkeypatch):
    """No terminator signals the center or a worker itself, so an in-process backend's
    job announces no trainer, locally or over TCP (no process_start frame); a command
    job over TCP announces its trainer first, under the node it was sent to. Every job's
    stream holds one result frame, and that frame ends it."""
    streams = []  # the frame types the center read for each job, in order
    current = threading.local()
    recv, exchange = remote.recv_msg, TcpTransport._exchange

    def recording_recv(sock):
        msg = recv(sock)
        if msg is not None and hasattr(current, "stream"):  # the worker's reads are not recorded
            current.stream.append(msg["type"])
        return msg

    def recording_exchange(self, *args):
        current.stream = []
        streams.append(current.stream)
        return exchange(self, *args)

    monkeypatch.setattr(remote, "recv_msg", recording_recv)
    monkeypatch.setattr(TcpTransport, "_exchange", recording_exchange)
    node = f"127.0.0.1:{worker.port}"
    jobs = [job(name=f"indi_gen00_no{i:02d}") for i in range(3)]
    runners = {
        "local": (SlotStore([("local", 0)]), local_runner(SurrogateBackend())),
        "tcp": (SlotStore([(node, 0), (node, 1)]), remote_runner(closing(TcpTransport()))),
    }
    for where, (store, runner) in runners.items():
        bus = InProcessBus()
        listener = closing(Listener(bus, tmp_path / where, cache=None))
        engine = closing(ProcessTallyEngine(store, bus, listener, runner))
        results = engine.run_jobs(jobs)
        assert all(r.ok for r in results.values()), where
        assert engine.started == [], where
    assert streams == [["fitness"]] * len(jobs)
    sink = RecordingSink()
    command_job = job(backend="command", settings={"command": TOY_TRAINER}, epochs=2)
    closing(TcpTransport()).run_job(command_job, node, 0, sink)
    assert [(where, pid != os.getpid()) for where, _, pid in sink.started] == [(node, True)]
    assert streams[-1] == ["process_start", "log", "log", "fitness"]


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
    center's) is announced, under the slot's node."""
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

    bus = InProcessBus()
    store = SlotStore([("local", 0)])
    listener = closing(Listener(bus, tmp_path, cache=None))
    engine = closing(ProcessTallyEngine(store, bus, listener, local_runner(backend)))
    results = engine.run_jobs([job(backend="command", settings={"command": backend.template})])
    assert next(iter(results.values())).ok
    log_line = (tmp_path / "run.log").read_text()
    reported_pid = int(log_line.split("mypid ", 1)[1].strip())
    assert engine.started == [("local", reported_pid)]
    assert reported_pid != os.getpid()
    assert engine.cancel() == 0  # the trainer's entry went with its attempt


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
    return ProcessTallyEngine(store, bus, listener, remote_runner(transport))


class ElsewhereNamedWorker(WorkerAgent):
    """A worker whose own address is not the one the center dispatches to, as with a
    wildcard bind, NAT or an SSH tunnel."""

    @property
    def address(self):
        return "127.0.0.1:1"


def test_cancel_signals_a_remote_trainer_through_the_node_its_job_was_sent_to(tmp_path):
    """The center files a remote trainer under the node it sent the job to, not under
    the worker's own address, so cancel() stops it and close() returns at once."""
    sleep_s = 10
    agent = ElsewhereNamedWorker("127.0.0.1", 0, slots=1, backends=("command",))
    ready = threading.Event()
    thread = threading.Thread(target=agent.serve_forever, args=(ready,), daemon=True)
    thread.start()
    assert ready.wait(5.0)
    node = f"127.0.0.1:{agent.port}"
    engine = remote_engine(node, tmp_path)
    sleeper = f"{sys.executable} -c 'import time; time.sleep({sleep_s})'"
    the_job = job(backend="command", settings={"command": sleeper})
    try:
        engine.submit(the_job)
        deadline = time.monotonic() + 10
        while not (live := engine.started):
            assert time.monotonic() < deadline, "the trainer never started"
            time.sleep(0.01)
        cancelled = time.monotonic()
        assert engine.cancel() == 1
        result = engine.wait([the_job.name])[the_job.name]
        engine.close()
        elapsed = time.monotonic() - cancelled
    finally:
        engine.close()
        engine.listener.close()
        agent.stop()
        thread.join(5.0)
    assert elapsed < sleep_s / 2
    assert (result.ok, result.error) == (False, "cancelled")
    ((where, pid),) = live
    assert where == node
    with pytest.raises(ProcessLookupError):  # the worker reaped its trainer
        os.kill(pid, 0)


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
        values = [transport.run_job(lookup_job, f"127.0.0.1:{agent.port}", 0, RecordingSink())[0] for _ in range(3)]
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
                self._run_job(conn, msg, None)


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
    """Answers every job with one raw frame body, on a connection per job."""

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
                conn.recv(1)  # until the center closes the connection
            except OSError:
                pass


@pytest.mark.parametrize(
    "body",
    [
        b'{"type":"fitness","identifier":"x","duration_s":1.0}',
        b"[1,2]",
        b"\xff\xfe",
        b'{"type":"process_start","pid":"abc"}',
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
    sink = RecordingSink()
    with pytest.raises(JobFailed, match="not supported"):
        transport.run_job(job(backend="lookup", settings={"table": "x.csv"}), node, 0, sink)
    value, _ = transport.run_job(job(), node, 0, sink)
    transport.close()
    assert value == SurrogateBackend().evaluate(job())[0]
    assert len(handlers) == 1


def test_a_request_the_worker_cannot_read_gets_an_error_and_the_connection_serves_on(worker, monkeypatch):
    unhandled = []
    monkeypatch.setattr(threading, "excepthook", unhandled.append)
    no_identifier = job().to_message()
    del no_identifier["identifier"]
    requests = [no_identifier, {**job().to_message(), "slot": 0}, {"type": "kill", "pid": "abc"}]
    with socket.create_connection(("127.0.0.1", worker.port), timeout=5.0) as sock:
        replies = []
        for request in requests:
            send_msg(sock, request)
            replies.append(recv_msg(sock)["type"])
    assert replies == ["error", "fitness", "error"]
    assert unhandled == []


class TrailingProcessEndWorker(WorkerAgent):
    """Sends a process_end after each job's result, as workers did before the result frame
    ended a job's stream: in the same write as the result, or, when ``delayed``, only once
    the connection's next job frame has come in."""

    def __init__(self, delayed):
        super().__init__("127.0.0.1", 0, slots=2)
        self.delayed = delayed

    def _handle(self, conn):
        def frame(msg):
            body = json.dumps(msg).encode("utf-8")
            return len(body).to_bytes(4, "big") + body

        pending = b""
        settings = None  # what the connection carries: a job frame after the first sends null
        try:
            with conn:
                while (msg := recv_msg(conn)) is not None:
                    settings = settings if msg["settings"] is None else msg["settings"]
                    the_job = JobSpec.from_message(msg, settings)
                    value, duration = SurrogateBackend().evaluate(the_job)
                    result = frame({"type": "fitness", "identifier": the_job.identifier,
                                    "value": value, "duration_s": duration})
                    end = frame({"type": "process_end", "node": self.address, "pid": os.getpid(),
                                 "job": the_job.name})
                    if self.delayed:
                        conn.sendall(pending + result)
                        pending = end
                    else:
                        conn.sendall(result + end)
        except OSError:  # the center dropped a connection with the process_end unread
            pass


@pytest.mark.parametrize("delayed", [False, True], ids=["buffered_at_checkout", "read_with_the_next_job"])
def test_a_worker_that_sends_process_end_after_the_result_is_served(tmp_path, delayed):
    agent = TrailingProcessEndWorker(delayed)
    handlers = record_connections(agent)
    ready = threading.Event()
    thread = threading.Thread(target=agent.serve_forever, args=(ready,), daemon=True)
    thread.start()
    assert ready.wait(5.0)
    engine = remote_engine(f"127.0.0.1:{agent.port}", tmp_path, slots=2)
    try:
        for t in range(3):
            results = engine.run_jobs([job(name=f"indi_gen{t:02d}_no{i:02d}") for i in range(4)])
            assert all(r.ok for r in results.values())
    finally:
        engine.close()
        engine.listener.close()
        agent.stop()
        thread.join(5.0)
    assert engine.stats.attempts == 12
    # a process_end waiting on an idle connection retires it; one read with the next job is skipped
    assert len(handlers) == (2 if delayed else 12)


def test_stop_ends_serve_forever_at_once():
    agent, thread = start_worker()
    stopped = time.monotonic()
    agent.stop()
    thread.join(5.0)
    assert not thread.is_alive()
    assert time.monotonic() - stopped < 0.05


def test_stop_before_serve_forever_binds_makes_it_return():
    agent = WorkerAgent("127.0.0.1", 0, slots=1)
    agent.stop()
    ready = threading.Event()
    thread = threading.Thread(target=agent.serve_forever, args=(ready,), daemon=True)
    thread.start()
    thread.join(5.0)
    assert not thread.is_alive()
    assert not ready.is_set()  # it never served, so it never said it listens


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
    """No thread before the first job; each slot's connection serves both batches (its
    thread ends with the batch); close() joins every thread and closes every connection."""
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
    assert 1 <= len(opened) <= 2  # one connection per busy slot, not one per job
    engine.close()
    engine.listener.close()
    assert not any(t.is_alive() for t in dispatch)
    assert all(sock.fileno() == -1 for sock in opened)


def test_slot_threads_exit_on_their_own_once_run_jobs_returns(tmp_path, closing):
    """A slot's thread exits when its slot goes idle: every thread the engine started
    ends after run_jobs returns, without close(), and the next batch starts new ones."""
    bus = InProcessBus()
    listener = closing(Listener(bus, tmp_path, cache=None))
    engine = ThreadedEngine(SlotStore([("local", 0), ("local", 1)]), bus, listener, local_runner(SurrogateBackend()))
    before = set(threading.enumerate())
    for t in range(3):
        results = engine.run_jobs([job(name=f"indi_gen{t:02d}_no{i:02d}") for i in range(5)])
        assert all(r.ok for r in results.values())
        started = set(threading.enumerate()) - before
        deadline = time.monotonic() + 0.5  # an idle thread pool would keep them for its idle timeout
        for thread in started:
            thread.join(max(0.0, deadline - time.monotonic()))
        assert not any(thread.is_alive() for thread in started), t
    assert set(threading.enumerate()) == before


class HeldRunner:
    """Slot runner whose first job runs until ``release`` is set; later jobs succeed at once."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()
        self.runs = []

    def __call__(self, the_job, node, slot, bus):
        self.runs.append(the_job.name)
        if len(self.runs) == 1:
            self.started.set()
            assert self.release.wait(5.0)
        return SurrogateBackend().evaluate(the_job)


def held_engine(tmp_path, closing):
    """A one-slot engine whose first job holds the slot, and its runner."""
    runner = HeldRunner()
    bus = InProcessBus()
    listener = closing(Listener(bus, tmp_path, cache=None))
    return ThreadedEngine(SlotStore([("local", 0)]), bus, listener, runner), runner


def test_a_wait_on_a_queued_job_that_close_drops_returns(tmp_path, closing):
    """close() drops the queued jobs: a wait on one returns its cancelled result while the
    running attempt still holds the slot, and close() returns once that attempt ends."""
    engine, runner = held_engine(tmp_path, closing)
    running, queued = job(name="indi_gen00_no00"), job(name="indi_gen00_no01")
    engine.submit(running)
    engine.submit(queued)
    assert runner.started.wait(5.0)
    closer = threading.Thread(target=engine.close)
    closer.start()
    dropped = engine.wait([queued.name])[queued.name]
    assert (dropped.ok, dropped.error) == (False, "cancelled")
    assert closer.is_alive()  # still waiting for the running attempt
    runner.release.set()
    closer.join(5.0)
    assert not closer.is_alive()
    assert runner.runs == [running.name]  # the dropped job never ran


def test_close_lets_a_running_attempt_finish(tmp_path, closing):
    """close() kills nothing: it waits for the attempt in flight, whose result is published
    and can still be waited for."""
    engine, runner = held_engine(tmp_path, closing)
    running = job(name="indi_gen00_no00")
    engine.submit(running)
    assert runner.started.wait(5.0)
    closer = threading.Thread(target=engine.close)
    closer.start()
    closer.join(0.2)
    assert closer.is_alive()
    runner.release.set()
    closer.join(5.0)
    assert not closer.is_alive()
    assert engine.wait([running.name])[running.name].ok
    assert (tmp_path / "results.txt").read_text(encoding="utf-8").startswith(f"{running.name}=")


def test_a_connection_is_opened_once_per_busy_slot_not_once_per_job(worker, tmp_path, monkeypatch):
    """Slot threads come and go with each batch, but the transport keeps each slot's
    connection: three batches of six jobs on two slots open two connections."""
    first_two = threading.Barrier(2, timeout=5.0)
    evaluate = SurrogateBackend.evaluate
    calls = []

    def evaluate_first_two_together(self, the_job, emit_log=None, slot_id=0):
        calls.append(the_job.name)
        if len(calls) <= 2:  # both slots are busy at once, so both connections open
            first_two.wait()
        return evaluate(self, the_job, emit_log, slot_id)

    monkeypatch.setattr(SurrogateBackend, "evaluate", evaluate_first_two_together)
    transport = TcpTransport()
    opened = []
    connect = transport._connect

    def recording_connect(node):
        opened.append(node)
        return connect(node)

    transport._connect = recording_connect
    engine = remote_engine(f"127.0.0.1:{worker.port}", tmp_path, slots=2, transport=transport)
    try:
        for t in range(3):
            results = engine.run_jobs([job(name=f"indi_gen{t:02d}_no{i:02d}") for i in range(6)])
            assert len(results) == 6 and all(r.ok for r in results.values())
    finally:
        engine.close()
        engine.listener.close()
    assert len(calls) == 18
    assert len(opened) == 2


def record_slots(agent):
    """Replace the agent's job runner with one that records, per connection, the slot of
    every job frame it carried, in order."""
    carried = {}
    run_job = agent._run_job

    def recording(conn, msg, bound):
        carried.setdefault(conn, []).append(msg.get("slot"))
        return run_job(conn, msg, bound)

    agent._run_job = recording
    return carried


def run_batches(engine, batches, size=8):
    for t in batches:
        results = engine.run_jobs([job(name=f"indi_gen{t:02d}_no{i:02d}") for i in range(size)])
        assert len(results) == size and all(r.ok for r in results.values())


@pytest.fixture
def slot_1_slower(monkeypatch):
    """Slot 1's jobs take 20 ms longer, so its connection is the last one to go idle in
    a batch: a pool that hands out the last connection put back gives it to slot 0 next."""
    evaluate = SurrogateBackend.evaluate

    def slower(self, the_job, emit_log=None, slot_id=0):
        time.sleep(0.02 * slot_id)
        return evaluate(self, the_job, emit_log, slot_id)

    monkeypatch.setattr(SurrogateBackend, "evaluate", slower)


def test_each_slot_keeps_a_connection_of_its_own(worker, tmp_path, slot_1_slower):
    """Three batches of eight jobs on two slots of one worker: the worker sees two
    connections, and each carries the jobs of one slot only."""
    carried = record_slots(worker)
    engine = remote_engine(f"127.0.0.1:{worker.port}", tmp_path, slots=2)
    try:
        run_batches(engine, range(3))
    finally:
        engine.close()
        engine.listener.close()
    assert sorted(sorted(set(slots)) for slots in carried.values()) == [[0], [1]]
    assert sum(map(len, carried.values())) == 24


def test_a_slot_whose_connection_the_worker_closed_reconnects_alone(worker, tmp_path, slot_1_slower):
    """The worker closes slot 0's idle connection after the first of three batches: slot
    0's next job goes on a new connection with no retry, and slot 1 keeps its own."""
    carried = record_slots(worker)
    engine = remote_engine(f"127.0.0.1:{worker.port}", tmp_path, slots=2)
    try:
        run_batches(engine, [0])
        (slot0,) = [conn for conn, slots in carried.items() if slots[0] == 0]
        (slot1,) = [conn for conn, slots in carried.items() if slots[0] == 1]
        slot1_jobs = len(carried[slot1])
        slot0.shutdown(socket.SHUT_RDWR)  # the handler reads EOF and closes it
        run_batches(engine, [1, 2])
    finally:
        engine.close()
        engine.listener.close()
    assert engine.stats.attempts == 24
    assert engine.stats.failures == 0
    assert len(carried) == 3  # slot 0's new connection
    assert len(carried[slot1]) > slot1_jobs  # slot 1 went on over its own connection
    assert all(len(set(slots)) == 1 for slots in carried.values())


def test_no_live_process_record_after_any_job(worker, tmp_path, closing):
    """Whether its job succeeds, its trainer fails or the worker rejects it, an attempt's
    trainer entry goes with the attempt: after the jobs, cancel() signals no trainer."""
    node = f"127.0.0.1:{worker.port}"
    bus = InProcessBus()
    listener = closing(Listener(bus, tmp_path, cache=None))
    runner = remote_runner(closing(TcpTransport()))
    engine = closing(ProcessTallyEngine(SlotStore([(node, 0)]), bus, listener, runner, retry_budget=0))
    outcomes = []
    for i, the_job in enumerate((
        job(),
        job(backend="command", settings={"command": TOY_TRAINER}, epochs=2),
        job(backend="command", settings={"command": f"{sys.executable} -c 'import sys; sys.exit(3)'"}),
        job(backend="lookup", settings={"table": "x.csv"}),
        job(),
    )):
        (result,) = engine.run_jobs([replace(the_job, name=f"indi_gen00_no{i:02d}")]).values()
        outcomes.append(result.ok)
    assert outcomes == [True, True, False, False, True]
    assert len(engine.started) == 2
    assert engine.cancel() == 0


def record_job_frames(monkeypatch):
    """Record the settings of every job frame sent, in order."""
    sent = []
    send = remote.send_msg

    def recording_send(sock, payload):
        if payload.get("type") == "job":
            sent.append(payload["settings"] and dict(payload["settings"]))
        send(sock, payload)

    monkeypatch.setattr(remote, "send_msg", recording_send)
    return sent


def test_a_connection_carries_the_settings_until_they_change(worker, monkeypatch):
    """The first job frame on a connection sends the settings, a later one with equal
    settings sends null, and a change sends the new map; the worker evaluates every
    job under its own settings. A job the worker refuses still leaves its settings
    on the connection."""
    handlers = record_connections(worker)
    sent = record_job_frames(monkeypatch)
    transport = TcpTransport()
    node = f"127.0.0.1:{worker.port}"
    fast = {"tau": "5.0"}  # a setting the surrogate's fitness reads
    jobs = [job(epochs=e) for e in (3, 4, 5)]
    jobs += [job(settings=fast, epochs=e) for e in (3, 4)]
    jobs += [job(epochs=6)]
    try:
        with pytest.raises(JobFailed, match="not supported"):  # same settings, a kind it does not serve
            transport.run_job(job(backend="lookup"), node, 0, RecordingSink())
        values = [transport.run_job(the_job, node, 0, RecordingSink()) for the_job in jobs]
    finally:
        transport.close()
    assert values == [SurrogateBackend().evaluate(the_job) for the_job in jobs]
    assert values[3] != SurrogateBackend().evaluate(job(epochs=3))  # the change took effect
    base, changed = jobs[0].settings, jobs[3].settings
    assert sent == [base, None, None, None, changed, None, base]
    assert len(handlers) == 1


def test_thirty_jobs_on_two_slots_send_the_settings_twice(worker, tmp_path, monkeypatch):
    """Once per connection: the first two jobs hold both slots at once, so two
    connections open, and the other 28 jobs send null settings over them."""
    first_two = threading.Barrier(2, timeout=5.0)
    evaluate = SurrogateBackend.evaluate
    calls = []

    def evaluate_first_two_together(self, the_job, emit_log=None, slot_id=0):
        calls.append(the_job.name)
        if len(calls) <= 2:
            first_two.wait()
        return evaluate(self, the_job, emit_log, slot_id)

    monkeypatch.setattr(SurrogateBackend, "evaluate", evaluate_first_two_together)
    sent = record_job_frames(monkeypatch)
    engine = remote_engine(f"127.0.0.1:{worker.port}", tmp_path, slots=2)
    try:
        results = engine.run_jobs([job(name=f"indi_gen00_no{i:02d}") for i in range(30)])
    finally:
        engine.close()
        engine.listener.close()
    assert len(results) == 30 and all(r.ok for r in results.values())
    assert len(sent) == 30
    assert [settings for settings in sent if settings is not None] == [job().settings] * 2


def test_null_settings_as_a_connections_first_job_get_an_error_and_the_connection_serves_on(worker):
    null_first = {**job().to_message(), "settings": None, "slot": 0}
    replies = []
    with socket.create_connection(("127.0.0.1", worker.port), timeout=5.0) as sock:
        for request in (null_first, {**job().to_message(), "slot": 0}, null_first):
            send_msg(sock, request)
            replies.append(recv_msg(sock))
    assert replies[0]["type"] == "error" and "null settings" in replies[0]["message"]
    assert [reply["type"] for reply in replies[1:]] == ["fitness", "fitness"]
    assert replies[1] == replies[2]


def test_a_job_frame_without_settings_gets_an_error_and_keeps_the_connections_settings(worker):
    """A missing key is not read as empty settings, first on a connection or later on it."""
    no_settings = {**job().to_message(), "slot": 0}
    del no_settings["settings"]
    requests = (no_settings, {**job().to_message(), "slot": 0}, no_settings, {**no_settings, "settings": None})
    replies = []
    with socket.create_connection(("127.0.0.1", worker.port), timeout=5.0) as sock:
        for request in requests:
            send_msg(sock, request)
            replies.append(recv_msg(sock))
    assert [reply["type"] for reply in replies] == ["error", "fitness", "error", "fitness"]
    assert replies[0]["message"] == replies[2]["message"] == "job frame without settings"
    assert replies[3] == replies[1]


def test_the_fitness_frame_has_three_fields(worker):
    with socket.create_connection(("127.0.0.1", worker.port), timeout=5.0) as sock:
        send_msg(sock, {**job().to_message(), "slot": 0})
        reply = recv_msg(sock)
    value, duration = SurrogateBackend().evaluate(job())
    assert reply == {"type": "fitness", "value": value, "duration_s": duration}


class PerJobSettingsWorker(WorkerAgent):
    """Reads each job frame's settings as workers did while every frame carried them,
    with ``dict(msg.get("settings", {}))``, and keeps each job it evaluates."""

    def __init__(self):
        super().__init__("127.0.0.1", 0, slots=1)
        self.evaluated = []

    def _handle(self, conn):
        with conn:
            while (msg := recv_msg(conn)) is not None:
                try:
                    the_job = JobSpec.from_message(msg, dict(msg.get("settings", {})))
                    self.evaluated.append(the_job.settings)
                    value, duration = SurrogateBackend().evaluate(the_job)
                    reply = {"type": "fitness", "identifier": the_job.identifier, "value": value,
                             "duration_s": duration}
                except Exception as exc:
                    reply = {"type": "error", "message": str(exc)}
                send_msg(conn, reply)


def test_a_worker_that_reads_settings_from_every_frame_refuses_null_settings():
    """Such a worker cannot read null settings, so it answers with an error frame and
    trains nothing, rather than training under default settings."""
    agent = PerJobSettingsWorker()
    ready = threading.Event()
    thread = threading.Thread(target=agent.serve_forever, args=(ready,), daemon=True)
    thread.start()
    assert ready.wait(5.0)
    transport = TcpTransport()
    node = f"127.0.0.1:{agent.port}"
    try:
        first = transport.run_job(job(), node, 0, RecordingSink())
        with pytest.raises(JobFailed):
            transport.run_job(job(), node, 0, RecordingSink())
    finally:
        transport.close()
        agent.stop()
        thread.join(5.0)
    assert first == SurrogateBackend().evaluate(job())
    assert agent.evaluated == [job().settings]


class ByteSink:
    """Stands in for a socket: keeps every byte sent."""

    def __init__(self):
        self.sent = b""

    def sendall(self, data):
        self.sent += data


def test_send_msg_writes_the_json_dumps_bytes_of_every_frame_type():
    frames = [
        {**job().to_message(), "slot": 1},
        {**job().to_message(), "settings": None, "slot": 0},
        {"type": "fitness", "value": 61.25, "duration_s": 1.5},
        {"type": "error", "message": "trainer exited with status 3", "log_tail": "époque 2\n"},
        {"type": "log", "line": "epoch 1 acc 10.0 — ok"},
        {"type": "kill", "pid": 4242},
        {"type": "process_start", "pid": 4242},
    ]
    for frame in frames:
        sink = ByteSink()
        send_msg(sink, frame)
        body = json.dumps(frame, separators=(",", ":")).encode("utf-8")
        assert sink.sent == len(body).to_bytes(4, "big") + body, frame["type"]
