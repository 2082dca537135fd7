"""Closed-loop evonas workloads, driven through the public API the way ``evonas run`` is.

One workload pass runs ``runs`` independent search runs one after another, each
with its own master seed derived from the benchmark seed and its own run
directory. Every run builds its stack like ``cli.cmd_run``: ``global.ini`` and
``train.ini`` are written and parsed, then ``build_engine`` -> ``Evaluator`` ->
``Runner``. The loop is closed: a generation's jobs all finish before the
strategy produces the next generation.

Several short runs per pass instead of one long run: a search's backend jobs,
makespan and best fitness depend on its seed, and the sum over independent
runs varies across benchmark seeds far less than one long run does.
"""

from __future__ import annotations

import gc
import resource
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from evonas.bus import DURATIONS_FILE, RESULT_FILE, InProcessBus, Listener
from evonas.cache import ResultCache
from evonas.cli import build_engine
from evonas.config import canonical_settings_text, parse_global, parse_train, settings_digest, settings_map
from evonas.datasets import dataset_spec
from evonas.errors import EvoNasError
from evonas.evaluator import Evaluator
from evonas.evo.individual import Population
from evonas.evo.strategies import build_strategy
from evonas.remote import WorkerAgent
from evonas.runner import SETTINGS_FILE, Runner, list_generations, load_latest_population, log_path, parse_record
from evonas.simfarm import SimulatedFarm

from stats import MIN_TAIL, percentile, samples_beyond, slot_util

#: Each TCP job opens one connection, and the worker side then holds it for
#: 60 s in TIME_WAIT. ``measure`` keeps an invocation at or below this rate,
#: half the 28,232-port ephemeral range, even back to back. (Each search run
#: also has a worker of its own on a port of its own, so no connect competes
#: with an earlier run's TIME_WAIT connections.)
TCP_CONNECTIONS_PER_MINUTE = 14000

#: The clock of every timed metric: CPU seconds of the whole process. Each
#: workload runs on one CPU (``run.py`` pins it), in a closed loop that never
#: idles inside a search run, so this clock is the wall time the process was
#: given: wall time less the time the CPU ran something else. On a virtual
#: machine shared with other tenants the hypervisor takes 5-16% of the CPU
#: away, a share that drifts over minutes; wall time follows it, this clock
#: does not. The measurement window itself is paced in wall time.
CLOCK = time.process_time

#: CPU-clock milliseconds ``calibration_ms`` reads at the reference speed:
#: about its median on a 2-vCPU Xeon VM (2.0 GHz), where it read 2.4-3.4 ms
#: as the other tenants' load changed.
REFERENCE_MS = 2.5


def _calibration_work() -> int:
    """Fixed interpreter work that uses nothing of evonas: dicts, strings, tuples, a sort."""
    table = {}
    for i in range(3000):
        table[str(i)] = [i, i * 2, (i, str(i))]
    total = 0
    for key, value in table.items():
        total += len(key) + value[0]
    return total + len(sorted(table, key=lambda key: -table[key][0]))


def calibration_ms() -> float:
    """Median CPU-clock milliseconds of three runs of the calibration work, collector off.

    The host's speed drifts: on a VM shared with other tenants the same work
    took 286 us per evaluation in one 20 s window and 416 us two windows
    later, and this loop slowed with it. Timed metrics are divided by the
    host factor (``Measurement.host_factor``) that these readings give.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        samples = []
        for _ in range(3):
            started = CLOCK()
            _calibration_work()
            samples.append(1e3 * (CLOCK() - started))
    finally:
        if enabled:
            gc.enable()
    return statistics.median(samples)


TRAIN_INI = """\
[optimizer]
_optimizer_name = SGD
_batch_size = 64
_total_epoch = 50

[LearningRate]
lr = 0.025
lr_strategy = CosineAnnealingLR

[dataset]
_name = cifar10

[backend]
kind = surrogate
tau = 20.0
sigma = 0.0
c0 = 1.0
c1 = 1e-09
"""


@dataclass(frozen=True)
class Workload:
    name: str
    strategy: str
    pop_size: int
    max_gen: int  # per search run, the initial generation included
    runs: int  # independent search runs per pass
    slots: int
    tcp: bool


#: Why each workload was chosen is recorded in ``BENCHMARK.json``.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("nsga2_wide", "nsga2", 100, 6, 20, 16, False),
        Workload("aging_serial", "aging_evolution", 50, 21, 10, 16, False),
        Workload("ga_tcp", "elitist_ga", 30, 21, 10, 2, True),
    )
}


#: Stacks built for each search run, the last of which runs; ``setup_s`` is
#: the median over all of them. Building one takes about 2 ms, so one sample
#: per run would leave the median to chance on ga_tcp, which fits only about
#: 18 search runs in a 40 s window.
SETUPS_PER_RUN = 5


def run_seed(seed: int, k: int) -> int:
    """Master seed of search run ``k`` under benchmark seed ``seed``."""
    return seed * 1000 + k


@dataclass
class RunResult:
    """What one search run measured, plus the correctness problems found in it."""

    setup_s: list[float]  # one sample per stack built for the run
    search_s: float
    gen_s: list[float]
    evaluations: int
    jobs: int
    failures: int
    makespan_s: float
    busy_s: float
    attempts: int
    best_percent: float
    simulated: bool  # makespan and busy time are virtual seconds of the simulated farm
    calibration_ms: float = REFERENCE_MS  # read just before the run
    problems: list[str] = field(default_factory=list)

    def outcome(self) -> tuple:
        """The values a seed fixes exactly; repeats of a run must reproduce them."""
        virtual = (self.makespan_s, self.busy_s) if self.simulated else ()
        return (self.jobs, self.failures, self.best_percent) + virtual


class _SearchRun:
    """One stack built like ``cli.cmd_run`` over a fresh run directory."""

    def __init__(self, workload: Workload, root: Path, seed: int):
        (root / "global.ini").write_text(
            "[algorithm]\n"
            f"name = {workload.name}\n"
            f"run_algorithm = {workload.strategy}\n"
            f"max_gen = {workload.max_gen}\n"
            f"pop_size = {workload.pop_size}\n"
            f"seed = {seed}\n",
            encoding="utf-8",
        )
        (root / "train.ini").write_text(TRAIN_INI, encoding="utf-8")
        self.agent: WorkerAgent | None = None
        workers = None
        if workload.tcp:
            # the worker is its own process in a deployment, started before `evonas run`
            self.agent = WorkerAgent("127.0.0.1", 0, workload.slots, ("surrogate",))
            ready = threading.Event()
            self.agent_thread = threading.Thread(
                target=self.agent.serve_forever, args=(ready,), name="bench-worker"
            )
            self.agent_thread.start()
            if not ready.wait(10.0):
                self.agent.stop()
                self.agent_thread.join(10.0)
                raise RuntimeError("worker agent did not start listening")
            workers = f"{self.agent.address}={workload.slots}"

        started = CLOCK()
        global_cfg = parse_global(root / "global.ini")
        train, backend_cfg = parse_train(root / "train.ini")
        self.strategy = build_strategy(
            global_cfg.strategy_config(), input_hw=dataset_spec(train.dataset)[0][1]
        )
        settings = settings_map(train, backend_cfg, self.strategy.space.decode_settings())
        self.run_dir = root / global_cfg.name
        self.run_dir.mkdir(parents=True, exist_ok=True)
        (self.run_dir / SETTINGS_FILE).write_text(canonical_settings_text(settings), encoding="utf-8")
        cache = ResultCache(self.run_dir / "cache.txt", settings_digest(settings))
        bus = InProcessBus()
        self.listener = Listener(bus, self.run_dir, cache)
        self.engine = build_engine(backend_cfg, settings, bus, self.listener, workers, workload.slots)
        self.evaluator = Evaluator(
            self.engine, cache, settings, self.strategy.space,
            master_seed=global_cfg.seed, objectives=self.strategy.objectives,
        )
        self.marks: list[float] = []
        self.runner = Runner(
            self.run_dir, self.strategy, self.evaluator,
            label=global_cfg.name, master_seed=global_cfg.seed,
            on_save=lambda t: self.marks.append(CLOCK()),
        )
        self.setup_s = CLOCK() - started
        self._instrument()

    def _instrument(self) -> None:
        """Count evaluations; on TCP also time run_jobs and each slot's hold."""
        self.evaluated = 0
        self.left_unevaluated = 0
        evaluate = self.evaluator.evaluate_population

        def counted(members) -> None:
            if isinstance(members, Population):
                members = members.members
            todo = [m for m in members if m.fitness is None]
            evaluate(members)
            self.evaluated += len(todo)
            self.left_unevaluated += sum(1 for m in todo if m.fitness is None)

        self.evaluator.evaluate_population = counted
        self.run_jobs_s: list[float] = []
        self.slot_hold_s: list[float] = []
        if isinstance(self.engine, SimulatedFarm):
            return
        run_jobs = self.engine.run_jobs
        slot_runner = self.engine.runner

        def timed_run_jobs(jobs):
            started = CLOCK()
            try:
                return run_jobs(jobs)
            finally:
                self.run_jobs_s.append(CLOCK() - started)

        def timed_slot_runner(job, node, slot, bus):
            started = CLOCK()
            try:
                return slot_runner(job, node, slot, bus)
            finally:
                self.slot_hold_s.append(CLOCK() - started)

        self.engine.run_jobs = timed_run_jobs
        self.engine.runner = timed_slot_runner

    def run(self):
        started = CLOCK()
        try:
            best = self.runner.run()
        finally:
            self.search_s = CLOCK() - started
            self.close()
        return best

    def close(self) -> None:
        self.listener.close()
        if self.agent is not None:
            self.agent.stop()
            self.agent_thread.join(10.0)
            self.agent = None

    def result(self, best) -> RunResult:
        jobs, failures = _job_lines(self.run_dir)
        simulated = isinstance(self.engine, SimulatedFarm)
        if simulated:
            stats = self.engine.stats
            makespan, busy, attempts = self.engine.now, stats.busy_seconds, stats.attempts
        else:
            makespan, busy, attempts = sum(self.run_jobs_s), sum(self.slot_hold_s), len(self.slot_hold_s)
        return RunResult(
            setup_s=[self.setup_s],
            search_s=self.search_s,
            gen_s=[b - a for a, b in zip(self.marks, self.marks[1:])],
            evaluations=self.evaluated,
            jobs=jobs,
            failures=failures,
            makespan_s=makespan,
            busy_s=busy,
            attempts=attempts,
            best_percent=round(100.0 * best.fitness0, 2),
            simulated=simulated,
        )


def _job_lines(run_dir: Path) -> tuple[int, int]:
    """Backend jobs and fitness-0.00 failures, counted from the run directory's files."""
    durations = run_dir / DURATIONS_FILE
    results = run_dir / RESULT_FILE
    jobs = len(durations.read_text(encoding="utf-8").splitlines()) if durations.exists() else 0
    values = results.read_text(encoding="utf-8").splitlines() if results.exists() else []
    return jobs, sum(1 for line in values if line.rpartition("=")[2] == "0.00")


def check_run(workload: Workload, run: _SearchRun, result: RunResult) -> list[str]:
    """Correctness gate for one finished search run; returns the problems found."""
    problems = []
    run_dir = run.run_dir
    if list_generations(run_dir) != list(range(workload.max_gen)):
        problems.append(f"population logs {list_generations(run_dir)} != 0..{workload.max_gen - 1}")
        return problems
    try:
        for t in range(workload.max_gen - 1):
            for line in log_path(run_dir, t).read_text(encoding="utf-8").splitlines():
                parse_record(line)
        t, pop = load_latest_population(
            run_dir, objectives=run.strategy.objectives,
            augment=lambda m: (float(run.evaluator.params_of(m)),),
        )
    except EvoNasError as exc:
        problems.append(f"population logs do not reload: {exc}")
        return problems
    if t != workload.max_gen - 1 or len(pop) != workload.pop_size or not all(m.evaluated for m in pop.members):
        problems.append(f"last log holds {len(pop)} members of generation {t}, not all evaluated")
    expected = workload.pop_size * workload.max_gen
    if result.evaluations != expected or run.left_unevaluated:
        problems.append(
            f"{result.evaluations} evaluations ({run.left_unevaluated} left without fitness), expected {expected}"
        )
    identifiers = [
        line.split()[1] for line in (run_dir / DURATIONS_FILE).read_text(encoding="utf-8").splitlines()
    ]
    if len(set(identifiers)) != len(identifiers):
        problems.append(f"durations.txt repeats identifiers: {len(identifiers) - len(set(identifiers))} extra")
    cache_entries = len((run_dir / "cache.txt").read_text(encoding="utf-8").splitlines()) - 1
    if not cache_entries == len(identifiers) == result.jobs:
        problems.append(f"cache entries {cache_entries} != durations lines {len(identifiers)}")
    if result.simulated and run.engine.stats.jobs != result.jobs:
        problems.append(f"farm counted {run.engine.stats.jobs} jobs, run directory {result.jobs}")
    logged_best = max(m.fitness0 for m in pop.members)
    if round(100.0 * logged_best, 2) != result.best_percent:
        problems.append(f"best fitness {result.best_percent} != last log's {100.0 * logged_best:.2f}")
    return problems


def run_pass(
    workload: Workload, seed: int, scratch: Path, indices: Iterable[int], tracer=None, instrument=None
) -> list[RunResult]:
    """Run the search runs ``indices`` one after another, then gate each of them.

    ``instrument(tracer)`` installs the tracer's wrappers before any stack is
    built, and the wrappers come off before the gate reads the run directories.
    """
    results = []
    with tempfile.TemporaryDirectory(prefix=f"{workload.name}-", dir=scratch) as tmp:
        runs = []
        if tracer is not None:
            instrument(tracer)
        try:
            for k in indices:
                gc.collect()  # each run starts from a heap without the last run's garbage
                calibration = calibration_ms()
                setup_s = []
                for i in range(SETUPS_PER_RUN):
                    root = Path(tmp) / f"run{k}.{i}"
                    root.mkdir()
                    run = _SearchRun(workload, root, run_seed(seed, k))
                    setup_s.append(run.setup_s)
                    if i < SETUPS_PER_RUN - 1:
                        run.close()  # a spare: only the last stack runs
                result = run.result(run.run())
                result.setup_s = setup_s
                result.calibration_ms = calibration
                runs.append((run, result))
        finally:
            if tracer is not None:
                tracer.restore()
        for run, result in runs:
            result.problems = check_run(workload, run, result)
            results.append(result)
    return results


def host_factor(runs: Iterable[RunResult]) -> float:
    """How much slower than the reference speed the host ran during ``runs``: their
    calibration readings, averaged, over ``REFERENCE_MS``. One reading precedes each
    search run, so the average weighs the host's phases as the runs' work met them."""
    return statistics.fmean(r.calibration_ms for r in runs) / REFERENCE_MS


@dataclass
class Measurement:
    """Untraced pass 0, the untraced search runs repeated after it, and the traced passes."""

    workload: Workload
    reference: list[RunResult]
    repeats: list[tuple[int, RunResult]]
    traced: list[list[RunResult]]
    problems: list[str]

    @property
    def untraced(self) -> list[RunResult]:
        return self.reference + [r for _, r in self.repeats]

    @property
    def all_runs(self) -> list[RunResult]:
        return self.untraced + [r for p in self.traced for r in p]

    @property
    def evaluations(self) -> int:
        return sum(r.evaluations for r in self.all_runs)

    @property
    def failed(self) -> int:
        return len(self.problems) + sum(r.failures for r in self.all_runs)

    @property
    def host_factor(self) -> float:
        """The host factor of the untraced runs, which scales the end-to-end times."""
        return host_factor(self.untraced)

    def by_index(self) -> list[list[RunResult]]:
        """Every untraced result of search run ``k``, for each ``k``."""
        out = [[r] for r in self.reference]
        for k, r in self.repeats:
            out[k].append(r)
        return out


def measure(
    workload: Workload, seed: int, seconds: float, scratch: Path, tracer=None, instrument=None
) -> Measurement:
    """Run pass 0, then repeat search runs until the next one would end after ``seconds``.

    Untraced, every search run is its own step: pass 0 runs them one at a
    time, and the repeats cycle through them, so the whole window is
    measured. Traced, whole traced and untraced passes alternate, starting
    and ending with a traced one. On TCP, no step starts that would push the
    connection count above the per-minute limit over the window, and a pause
    after every step holds that rate from the start of the window on. The
    measured runs thus spread over the whole window, and back-to-back
    invocations keep the rate too.
    """
    started = time.perf_counter()
    connections = 0

    def fits(cost_s: float, cost_connections: int) -> bool:
        elapsed = time.perf_counter() - started
        if workload.tcp:
            allowed = TCP_CONNECTIONS_PER_MINUTE * max(seconds, elapsed) / 60.0
            if connections + cost_connections > allowed:
                return False
        return elapsed + cost_s <= seconds

    def step(indices, traced=False) -> list[RunResult]:
        nonlocal connections
        results = run_pass(workload, seed, scratch, indices, tracer if traced else None, instrument)
        connections += sum(r.attempts for r in results)
        if workload.tcp:
            time.sleep(max(0.0, connections * 60.0 / TCP_CONNECTIONS_PER_MINUTE - (time.perf_counter() - started)))
        return results

    reference = [r for k in range(workload.runs) for r in step([k])]
    repeats: list[tuple[int, RunResult]] = []
    traced: list[list[RunResult]] = []
    if tracer is None:
        done, k = len(reference), 0
        while fits((time.perf_counter() - started) / done, reference[k].attempts):
            (result,) = step([k])
            repeats.append((k, result))
            done, k = done + 1, (k + 1) % workload.runs
    else:
        pass_connections = connections
        while True:
            pass_start = time.perf_counter()
            traced.append(step(range(workload.runs), traced=True))
            if not fits(2 * (time.perf_counter() - pass_start), 2 * pass_connections):
                break
            repeats += enumerate(step(range(workload.runs)))

    problems = [f"run {k}: {msg}" for k, r in enumerate(reference) for msg in r.problems]
    problems += [f"run {k} repeated: {msg}" for k, r in repeats for msg in r.problems]
    problems += [f"run {k} traced: {msg}" for p in traced for k, r in enumerate(p) for msg in r.problems]
    for k, r in list(repeats) + [(k, r) for p in traced for k, r in enumerate(p)]:
        if r.outcome() != reference[k].outcome():
            problems.append(f"run {k} did not reproduce: {r.outcome()} != {reference[k].outcome()}")
    return Measurement(workload, reference, repeats, traced, problems)


def end_to_end(m: Measurement) -> tuple[dict[str, float], dict[str, int]]:
    """End-to-end metrics from the untraced runs, and the sample count behind each.

    Counts and virtual times come from pass 0, which a seed fixes. Makespan
    and busy time take the median of each search run's repeats, which on TCP
    are measured times, before summing over the pass. Every measured time is
    divided by ``m.host_factor``, so it reads as at the reference speed.
    """
    w = m.workload
    runs = m.untraced
    host = m.host_factor
    gen_ms = [1e3 * s / host for r in runs for s in r.gen_s]
    if samples_beyond(len(gen_ms), 90) < MIN_TAIL:
        m.problems.append(f"only {len(gen_ms)} generation samples: p90 needs 10 beyond it")
    jobs = sum(r.jobs for r in m.reference)
    repeats = m.by_index()
    span_scale = host if w.tcp else 1.0  # the simulated farm's times are virtual
    makespan = sum(statistics.median(r.makespan_s for r in rs) for rs in repeats) / span_scale
    busy = sum(statistics.median(r.busy_s for r in rs) for rs in repeats) / span_scale
    metrics = {
        "setup_s": statistics.median(s for r in runs for s in r.setup_s) / host,
        "evals_per_s": sum(r.evaluations for r in runs) / sum(r.search_s for r in runs) * host,
        "gen_ms_p50": percentile(gen_ms, 50),
        "gen_ms_p90": percentile(gen_ms, 90),
        "makespan_virtual_s": makespan,
        "slot_util": slot_util(busy, w.slots, makespan),
        "backend_jobs": jobs,
        "best_fitness": statistics.fmean(r.best_percent for r in m.reference),
        "job_ok_ratio": 1.0 - sum(r.failures for r in m.reference) / jobs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "setup_s": sum(len(r.setup_s) for r in runs),
        "evals_per_s": sum(r.evaluations for r in runs),
        "gen_ms_p50": len(gen_ms),
        "gen_ms_p90": len(gen_ms),
        "makespan_virtual_s": len(runs),
        "slot_util": len(runs),
        "backend_jobs": len(m.reference),
        "best_fitness": len(m.reference),
        "job_ok_ratio": jobs,
        "peak_rss_mb": 1,
    }
    return metrics, samples
