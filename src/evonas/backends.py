"""Pluggable fitness producers bound to worker slots.

Three backends satisfy the same contract -- ``evaluate(job, emit_log, slot_id)
-> (fitness percent, duration seconds)`` with the percent quantized to two
decimals:

* ``surrogate`` -- a deterministic closed-form stand-in for training: each
  architecture has an asymptotic accuracy derived from its identifier hash and
  its structure (depth, width, parameter count), approached as a saturating
  function of the epoch budget. Enables desk-scale verification of the whole
  platform without GPUs.
* ``lookup`` -- exact-match retrieval from a CSV benchmark table.
* ``command`` -- runs an external trainer process and parses its final
  ``FITNESS=<dd.dd>`` line, streaming all other stdout lines as log records.

Backends hold no shared mutable state; one instance per slot is safe.
"""

from __future__ import annotations

import csv
import itertools
import math
import queue
import random
import shlex
import subprocess
import tempfile
import threading
import time
import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

from .arch import Genotype, flop_count, structure
from .arch.ir import ArchIR
from .arch.spaces import decode_under
from .datasets import dataset_spec
from .errors import ConfigError, JobFailed, LookupMiss
from .jobs import JobSpec

EmitLog = Callable[[str], None]

DEFAULT_TAU = 20.0
DEFAULT_SIGMA = 0.0
DEFAULT_TIME_BASE = 1.0      # fixed virtual seconds per job
DEFAULT_TIME_PER_MAC = 1e-9  # virtual seconds per multiply-accumulate per epoch
DEFAULT_TIMEOUT_S = 300.0    # wall-clock seconds a command job may run
LOG_TAIL_LINES = 20          # trainer output lines a failed command job keeps
LOG_QUEUE_LINES = 1000       # trainer output lines read ahead of the job's thread


def _quantize(value: float) -> float:
    """Clamp to [0, 100] and quantize to the 2-decimal percent grid."""
    return round(min(max(value, 0.0), 100.0), 2)


def decode_from_settings(genotype: Genotype, settings: Mapping[str, str]) -> ArchIR:
    """Decode a genotype under a run's settings: its dataset and its decode keys."""
    shape, classes = dataset_spec(settings.get("dataset", "cifar10"))
    return decode_under(genotype, shape, classes, settings)


def architecture_asymptote(identifier: str, ir: ArchIR) -> float:
    """Asymptotic accuracy in [0, 1] for one architecture.

    Depth (convolution count) and width (mean convolution output channels)
    raise it with diminishing returns, parameter count drags it down, and the
    identifier hash contributes a small architecture-specific offset -- enough
    signal for selection pressure and for non-degenerate accuracy/size
    trade-off fronts. All three structural numbers come from the IR's one
    consistency pass.
    """
    depth, channels, params = structure(ir)
    width = channels / depth if depth else 1.0
    hash_frac = int(identifier[:12], 16) / float(16**12)
    a = (
        0.30
        + 0.40 * (1.0 - math.exp(-depth / 6.0))
        + 0.15 * (1.0 - math.exp(-width / 64.0))
        - 0.25 * (1.0 - math.exp(-params / 2.0e7))
        + 0.10 * (hash_frac - 0.5)
    )
    return min(max(a, 0.02), 0.98)


def saturation(epochs: int, tau: float) -> float:
    return 1.0 - math.exp(-epochs / tau)


@dataclass
class SurrogateBackend:
    """Closed-form fitness: ``100 * (a(g) * (1 - exp(-epochs/tau)) + noise)``.

    Deterministic given (genotype, settings, seed); with ``sigma == 0`` it is
    exactly reproducible and monotone in the epoch budget. Job settings
    override the instance defaults; ``fixed_asymptote`` pins ``a(g)`` for
    tests.
    """

    kind: str = "surrogate"
    tau: float = DEFAULT_TAU
    sigma: float = DEFAULT_SIGMA
    time_base: float = DEFAULT_TIME_BASE
    time_per_mac: float = DEFAULT_TIME_PER_MAC
    fixed_asymptote: float | None = None

    def _setting(self, job: JobSpec, key: str, default: float) -> float:
        raw = job.settings.get(key)
        return float(raw) if raw is not None else default

    def evaluate(self, job: JobSpec, emit_log: EmitLog | None = None, slot_id: int = 0) -> tuple[float, float]:
        ir = decode_from_settings(job.genotype, job.settings)
        tau = self._setting(job, "tau", self.tau)
        sigma = self._setting(job, "sigma", self.sigma)
        a = self.fixed_asymptote
        if a is None:
            a = architecture_asymptote(job.identifier, ir)
        noise = 0.0
        if sigma > 0.0:
            noise = random.Random(f"{job.identifier}:{job.seed}").gauss(0.0, sigma)
        fitness = _quantize(100.0 * (a * saturation(job.epochs, tau) + noise))
        flops = flop_count(ir)
        c0 = self._setting(job, "c0", self.time_base)
        c1 = self._setting(job, "c1", self.time_per_mac)
        duration = c0 + c1 * flops * job.epochs
        return fitness, duration


@dataclass
class LookupBackend:
    """Benchmark-table retrieval: ``identifier,fitness[,params,flops]`` CSV rows."""

    table_path: str
    fallback: str = "error"  # "error" | "surrogate"
    kind: str = "lookup"
    _table: dict[str, float] = field(default_factory=dict, repr=False)
    _loaded: bool = field(default=False, repr=False)

    def _load(self) -> None:
        path = Path(self.table_path)
        if not path.exists():
            raise ConfigError(f"lookup table {path} does not exist")
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or reader.fieldnames[:2] != ["identifier", "fitness"]:
                raise ConfigError(
                    f"lookup table {path} must start with columns identifier,fitness"
                )
            for row in reader:
                try:
                    fitness = float(row["fitness"])
                except (TypeError, ValueError):
                    fitness = math.nan
                if not 0.0 <= fitness <= 100.0:  # also refuses NaN
                    raise ConfigError(
                        f"{path}:{reader.line_num}: fitness {row['fitness']!r} is not a number in [0, 100]"
                    )
                self._table.setdefault(row["identifier"], fitness)
        self._loaded = True

    def evaluate(self, job: JobSpec, emit_log: EmitLog | None = None, slot_id: int = 0) -> tuple[float, float]:
        if not self._loaded:
            self._load()
        value = self._table.get(job.identifier)
        if value is None:
            if self.fallback == "surrogate":
                return SurrogateBackend().evaluate(job, emit_log, slot_id)
            raise LookupMiss(f"identifier {job.identifier} not in {self.table_path}")
        return _quantize(value), 0.0


@dataclass
class CommandBackend:
    """External trainer command bound to a slot's device index.

    The template may reference ``{payload_path}``, ``{settings_path}``,
    ``{slot_id}`` and ``{seed}``. The command's stdout is streamed as log
    records; its final ``FITNESS=<dd.dd>`` line is the fitness.
    ``on_spawn`` (if set) receives the child pid, so hosts can register the
    killable process.
    """

    template: str
    timeout_s: float = DEFAULT_TIMEOUT_S
    kind: str = "command"
    on_spawn: Callable[[int], None] | None = None

    def evaluate(self, job: JobSpec, emit_log: EmitLog | None = None, slot_id: int = 0) -> tuple[float, float]:
        if not self.template:
            raise ConfigError("command backend requires a command template")
        started = time.monotonic()
        with tempfile.TemporaryDirectory(prefix="evonas_job_") as tmp:
            payload_path = Path(tmp) / "payload.txt"
            settings_path = Path(tmp) / "settings.json"
            payload_path.write_text(job.payload, encoding="utf-8")
            settings_path.write_text(
                json.dumps({**job.settings, "epochs": str(job.epochs)}, indent=1),
                encoding="utf-8",
            )
            argv = _command_argv(self.template, payload_path, settings_path, slot_id, job.seed)
            tail: deque[str] = deque(maxlen=LOG_TAIL_LINES)  # a trainer may print without end
            fitness: float | None = None
            try:
                proc = subprocess.Popen(
                    argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
                )
            except OSError as exc:
                raise JobFailed(f"cannot launch trainer: {exc}") from exc
            if self.on_spawn is not None:
                self.on_spawn(proc.pid)
            assert proc.stdout is not None
            # a reader thread feeds stdout lines to this one, so the deadline
            # holds even while the trainer prints nothing
            lines: queue.Queue[str | None] = queue.Queue(maxsize=LOG_QUEUE_LINES)
            stopped = threading.Event()
            threading.Thread(target=_pump_lines, args=(proc.stdout, lines, stopped), daemon=True).start()
            deadline = started + self.timeout_s

            def timed_out() -> JobFailed:
                return JobFailed(f"trainer timed out after {self.timeout_s}s", "\n".join(tail))

            try:
                while True:
                    try:
                        line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
                    except queue.Empty:
                        raise timed_out() from None
                    if line is None:
                        break
                    line = line.rstrip("\n")
                    if line.startswith("FITNESS="):
                        try:
                            fitness = float(line.split("=", 1)[1])
                        except ValueError:
                            pass
                        continue
                    tail.append(line)
                    if emit_log is not None:
                        emit_log(line)
                try:
                    code = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    raise timed_out() from None
            finally:
                stopped.set()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            if code != 0:
                raise JobFailed(f"trainer exited with status {code}", "\n".join(tail))
            if fitness is None:
                raise JobFailed("trainer produced no FITNESS line", "\n".join(tail))
            if not math.isfinite(fitness):
                raise JobFailed(f"trainer reported a non-finite fitness: {fitness}", "\n".join(tail))
        return _quantize(fitness), time.monotonic() - started


def _command_argv(template: str, payload_path: Path, settings_path: Path, slot_id: int, seed: int) -> list[str]:
    """A trainer's argv: the command template with its four placeholders filled, split as a shell would."""
    return shlex.split(
        template.format(payload_path=payload_path, settings_path=settings_path, slot_id=slot_id, seed=seed)
    )


def _pump_lines(stream, lines: queue.Queue, stopped: threading.Event) -> None:
    """Copy a trainer's output lines into ``lines``, then None at EOF.

    A full ``lines`` holds the copy back, and with it the trainer's writes, so
    a trainer that prints faster than its lines are read fills no memory.
    Once ``stopped`` is set, the lines left are read and dropped.
    """
    with stream:
        for line in itertools.chain(stream, [None]):
            while not stopped.is_set():
                try:
                    lines.put(line, timeout=0.1)
                    break
                except queue.Full:
                    pass


BACKEND_KINDS = ("surrogate", "lookup", "command")


def build_backend(kind: str, settings: dict[str, str] | None = None):
    """Instantiate a backend by kind, pulling its parameters from job settings."""
    settings = settings or {}
    if kind == "surrogate":
        return SurrogateBackend()
    if kind == "lookup":
        table = settings.get("table", "")
        if not table:
            raise ConfigError("lookup backend requires a 'table' setting")
        if not Path(table).exists():
            raise ConfigError(f"lookup table {table} does not exist")
        return LookupBackend(table_path=table, fallback=settings.get("fallback", "error"))
    if kind == "command":
        template = settings.get("command", "")
        if not template:
            raise ConfigError("command backend requires a 'command' setting")
        try:  # a template that cannot be filled or split would fail every job
            _command_argv(template, Path("payload.txt"), Path("settings.json"), 0, 0)
        except KeyError as exc:
            raise ConfigError(f"command template names an unknown placeholder {{{exc.args[0]}}}") from exc
        except (IndexError, AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"command template cannot be used: {exc}") from exc
        return CommandBackend(template=template, timeout_s=float(settings.get("timeout_s", DEFAULT_TIMEOUT_S)))
    raise ConfigError(f"unknown backend kind {kind!r}; known: {BACKEND_KINDS}")
