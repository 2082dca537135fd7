"""Command-line entry points: run, worker, simulate, retrain, compare.

All run state lives under a run directory (``<run-root>/<algorithm name>``),
so a killed run resumes with the same command that started it and no external
services are required: the default execution engine is the in-process
simulated farm (surrogate/lookup backends) or local threads (command backend).
Passing ``--workers`` dispatches jobs to remote worker agents instead.
"""

from __future__ import annotations

import argparse
import logging
import sys
import tempfile
from pathlib import Path
from typing import Callable

from . import report as report_mod
from .arch import identifier
from .arch.spaces import DECODE_KEYS, FixedBinarySpace
from .backends import BACKEND_KINDS, SurrogateBackend, build_backend
from .bus import InProcessBus, Listener
from .cache import ResultCache
from .config import (
    BackendConfig,
    canonical_settings_text,
    parse_global,
    parse_train,
    settings_digest,
    settings_map,
)
from .datasets import dataset_spec
from .engine import ThreadedEngine, local_runner
from .errors import ConfigError, EvoNasError
from .evaluator import Evaluator, job_spec
from .evo.strategies import build_strategy
from .remote import TcpTransport, WorkerAgent, remote_runner
from .runner import Runner, SETTINGS_FILE, derive_rng
from .simfarm import FaultEvent, SimulatedFarm
from .slots import SlotStore

logger = logging.getLogger(__name__)


def _host_port(addr: str, label: str, lowest: int = 1) -> tuple[str, int]:
    """``host:port`` -> (host, port), the port in ``lowest``..65535; the error names ``label``."""
    host, _, port = addr.rpartition(":")
    if not host or not port.isdecimal() or not lowest <= int(port) < 65536:
        raise ConfigError(f"{label} needs host:port with a port in {lowest}..65535")
    return host, int(port)


def _parse_workers(spec: str) -> dict[str, int]:
    """``host:port=slots,host:port=slots`` -> worker map; ``=slots`` defaults to 1."""
    workers: dict[str, int] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        addr, _, slots = part.partition("=")
        _host_port(addr, f"worker {part!r}")
        if slots and not (slots.isdecimal() and int(slots) >= 1):
            raise ConfigError(f"worker {part!r} needs a whole slot count of at least 1")
        if addr in workers:
            raise ConfigError(f"worker {addr!r} is listed more than once")
        workers[addr] = int(slots) if slots else 1
    if not workers:
        raise ConfigError(f"no workers in spec {spec!r}")
    return workers


def _positive_int(text: str) -> int:
    """argparse type of a slot, worker or job count: a whole number of at least 1."""
    if not (text.isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"needs a whole number of at least 1, got {text!r}")
    return int(text)


def _crash(text: str) -> FaultEvent:
    """argparse type of ``--crash``: ``node@time``, a worker crash at a virtual time."""
    node, _, at = text.partition("@")
    try:
        if node:
            return FaultEvent("crash", node, float(at))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"needs node@time, e.g. w1@7.0, got {text!r}")


def build_engine(
    backend_cfg: BackendConfig,
    settings: dict[str, str],
    bus: InProcessBus,
    listener: Listener,
    workers: str | None = None,
    local_slots: int = 4,
):
    """Pick the execution engine: remote workers > local threads > simulated farm."""
    if workers:
        worker_map = _parse_workers(workers)
        store = SlotStore((node, i) for node, n in sorted(worker_map.items()) for i in range(n))
        return ThreadedEngine(store, bus, listener, remote_runner(TcpTransport()))
    backend = build_backend(backend_cfg.kind, settings)
    if backend_cfg.kind == "command":
        store = SlotStore(("local", i) for i in range(local_slots))
        return ThreadedEngine(store, bus, listener, local_runner(backend))
    return SimulatedFarm({"sim": local_slots}, backend, bus, listener)


def _session(engine, listener: Listener, work: Callable[[], int], resumes_from: Path | None = None) -> int:
    """Return ``work()``'s exit status, or 130 after Ctrl-C, which stops the engine's work first.

    The engine and listener close either way; closing the listener writes the
    results that finished before an interrupt through to the run files.
    """
    try:
        return work()
    except KeyboardInterrupt:
        resume = f"; run resumes from {resumes_from}" if resumes_from is not None else ""
        print(f"interrupted: sent {engine.cancel()} termination command(s){resume}", file=sys.stderr)
        return 130
    finally:
        engine.close()
        listener.close()


def cmd_run(args) -> int:
    global_cfg = parse_global(args.global_config)
    train, backend_cfg = parse_train(args.train_config)
    strategy = build_strategy(
        global_cfg.strategy_config(), input_hw=dataset_spec(train.dataset)[0][1]
    )
    settings = settings_map(train, backend_cfg, strategy.space.decode_settings())
    # refused before the run directory exists, so a corrected rerun is not a settings change
    if args.workers:
        _parse_workers(args.workers)
    else:  # the backend runs here, so a missing lookup table is known now
        build_backend(backend_cfg.kind, settings)
    run_dir = Path(args.run_root) / global_cfg.name
    run_dir.mkdir(parents=True, exist_ok=True)
    settings_path = run_dir / SETTINGS_FILE
    settings_text = canonical_settings_text(settings)
    if not settings_path.exists():
        settings_path.write_text(settings_text, encoding="utf-8")
    elif settings_path.read_text(encoding="utf-8") != settings_text:
        # checked before anything is written: the run keeps the settings it started with
        raise ConfigError(
            f"{settings_path} holds other settings than the given configs; "
            "refusing to resume this run under changed settings"
        )

    cache = None if args.no_cache else ResultCache(run_dir / "cache.txt", settings_digest(settings))
    bus = InProcessBus()
    listener = Listener(bus, run_dir, cache)
    engine = build_engine(backend_cfg, settings, bus, listener, args.workers, args.local_slots)
    evaluator = Evaluator(
        engine, cache, settings, strategy.space,
        master_seed=global_cfg.seed, objectives=strategy.objectives,
    )
    runner = Runner(run_dir, strategy, evaluator, label=global_cfg.name, master_seed=global_cfg.seed)

    def search() -> int:
        best = runner.run()
        stats = engine.stats
        print(f"run {global_cfg.name}: best {best.name} fitness {100 * best.fitness0:.2f}")
        print(f"  identifier {best.identifier}")
        print(f"  backend jobs {stats.jobs}, busy {stats.busy_seconds:.1f}s, failures {stats.failures}")
        print(f"  run directory {run_dir}")
        return 0

    return _session(engine, listener, search, resumes_from=run_dir)


def cmd_worker(args) -> int:
    host, port = _host_port(args.listen, f"--listen {args.listen!r}", lowest=0)
    agent = WorkerAgent(host, port, args.slots, tuple(args.backend))
    try:
        agent.serve_forever()
    except KeyboardInterrupt:
        agent.stop()
    return 0


def cmd_simulate(args) -> int:
    workers = {f"w{i}": args.slots_per_worker for i in range(args.worker_count)}
    space = FixedBinarySpace()
    settings = {"dataset": "cifar10", **space.decode_settings()}
    rng = derive_rng(args.seed, "simulate")
    bus = InProcessBus()
    with tempfile.TemporaryDirectory(prefix="evonas_sim_") as tmp, Listener(bus, tmp, cache=None) as listener:
        farm = SimulatedFarm(
            workers,
            SurrogateBackend(),
            bus,
            listener,
            duration=args.duration,
            dispatch_overhead=args.overhead,
            faults=args.crash,
        )
        genotypes = [space.sample(rng) for _ in range(args.jobs)]
        farm.run_jobs(
            [job_spec(f"job{i:03d}", identifier(g), g, settings, args.seed) for i, g in enumerate(genotypes)]
        )
        print(f"jobs {args.jobs}  slots {sum(workers.values())}  duration {args.duration}s")
        print(f"virtual makespan {farm.last_makespan:.3f}s  attempts {farm.stats.attempts}")
        if args.trace:
            for event in farm.trace:
                where = f"{event.node}:{event.slot}" if event.node else "-"
                print(f"  t={event.time:8.3f}  {event.kind:<8} {event.job:<10} {where}")
    return 0


def cmd_retrain(args) -> int:
    train, backend_cfg = parse_train(args.train_config)
    run_dir = Path(args.run_dir)
    # decode parameters ride along from the original run's snapshot
    original = report_mod.read_settings(run_dir)
    decode_params = {k: v for k, v in original.items() if k in DECODE_KEYS}
    settings = settings_map(train, backend_cfg, decode_params)
    bus = InProcessBus()
    listener = Listener(bus, run_dir, cache=None)
    engine = build_engine(backend_cfg, settings, bus, listener, args.workers, args.local_slots)

    def retrain() -> int:
        name, value = report_mod.retrain_best(run_dir, settings, engine, master_seed=args.seed)
        print(f"retrained {name}: {value:.2f} ({settings.get('total_epoch')} epochs)")
        return 0

    return _session(engine, listener, retrain)


def cmd_compare(args) -> int:
    rows, text, csv_text = report_mod.compare(args.run_dirs, allow_mixed=args.allow_mixed)
    print(text, end="")
    if args.csv:
        Path(args.csv).write_text(csv_text, encoding="utf-8")
        print(f"csv written to {args.csv}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evonas", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a search strategy to completion (resumes after a crash)")
    p.add_argument("--global-config", default="global.ini")
    p.add_argument("--train-config", default="train.ini")
    p.add_argument("--run-root", default="runs")
    p.add_argument("--workers", default=None, help="host:port=slots,... remote worker agents")
    p.add_argument("--local-slots", type=_positive_int, default=4)
    p.add_argument("--no-cache", action="store_true", help="disable the fitness cache")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("worker", help="serve this machine's slots to a remote runner")
    p.add_argument("--listen", required=True, help="host:port (port 0 picks a free port)")
    p.add_argument("--slots", type=_positive_int, default=1)
    p.add_argument(
        "--backend", action="append", default=None, choices=BACKEND_KINDS,
        help="allowed backend kind (repeatable); default: all of them",
    )
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser("simulate", help="exercise the virtual-time farm on synthetic jobs")
    p.add_argument("--jobs", type=_positive_int, default=10)
    p.add_argument("--worker-count", type=_positive_int, default=1)
    p.add_argument("--slots-per-worker", type=_positive_int, default=4)
    p.add_argument("--duration", type=float, default=1.0)
    p.add_argument("--overhead", type=float, default=0.0)
    p.add_argument("--crash", type=_crash, action="append", default=[], help="node@time, e.g. w1@7.0")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("retrain", help="re-dispatch a finished run's best under retrain settings")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--train-config", required=True)
    p.add_argument("--workers", default=None)
    p.add_argument("--local-slots", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_retrain)

    p = sub.add_parser("compare", help="tabulate completed runs into the comparison report")
    p.add_argument("run_dirs", nargs="+")
    p.add_argument("--allow-mixed", action="store_true", help="tabulate despite differing settings")
    p.add_argument("--csv", default=None, help="also write the CSV report here")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    if args.command == "worker" and args.backend is None:
        args.backend = list(BACKEND_KINDS)
    try:
        return args.func(args)
    except EvoNasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
