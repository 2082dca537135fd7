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
  ``FITNESS=<dd.dd>`` line, streaming all other stdout lines as log records
  from the job's own thread (POSIX hosts only).

Backends hold no shared mutable state; one instance per slot is safe.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import os
import random
import selectors
import shlex
import subprocess
import tempfile
import time
import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Mapping

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


def _setting(job: JobSpec, key: str, default: float) -> float:
    raw = job.settings.get(key)
    return float(raw) if raw is not None else default


@dataclass
class SurrogateBackend:
    """Closed-form fitness: ``100 * (a(g) * (1 - exp(-epochs/tau)) + noise)``.

    Deterministic given (genotype, settings, seed); with ``sigma == 0`` it is
    exactly reproducible and monotone in the epoch budget. The job settings
    ``tau``, ``sigma``, ``c0`` and ``c1`` set the curve and the duration, and
    one that is absent takes its ``DEFAULT_*`` value; ``fixed_asymptote`` pins
    ``a(g)`` for tests.
    """

    kind: str = "surrogate"
    fixed_asymptote: float | None = None

    def evaluate(self, job: JobSpec, emit_log: EmitLog | None = None, slot_id: int = 0) -> tuple[float, float]:
        ir = decode_from_settings(job.genotype, job.settings)
        tau = _setting(job, "tau", DEFAULT_TAU)
        sigma = _setting(job, "sigma", DEFAULT_SIGMA)
        a = self.fixed_asymptote
        if a is None:
            a = architecture_asymptote(job.identifier, ir)
        noise = 0.0
        if sigma > 0.0:
            noise = random.Random(f"{job.identifier}:{job.seed}").gauss(0.0, sigma)
        fitness = _quantize(100.0 * (a * saturation(job.epochs, tau) + noise))
        flops = flop_count(ir)
        c0 = _setting(job, "c0", DEFAULT_TIME_BASE)
        c1 = _setting(job, "c1", DEFAULT_TIME_PER_MAC)
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
    ``{slot_id}`` and ``{seed}``. The command's stdout and stderr are read on
    the calling thread, decoded as UTF-8, and streamed as log records; its
    final ``FITNESS=<dd.dd>`` line is the fitness, a percent: a value that is
    not a number in [0, 100] fails the job. ``timeout_s`` is a wall-clock
    deadline, which a silent trainer meets too. ``on_spawn`` (if set)
    receives the child pid, so hosts can register the killable process.
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
                proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
            except OSError as exc:
                raise JobFailed(f"cannot launch trainer: {exc}") from exc
            deadline = started + self.timeout_s
            lines = self._output_lines(proc, deadline)
            try:
                if self.on_spawn is not None:
                    self.on_spawn(proc.pid)
                for line in lines:
                    if line.startswith("FITNESS="):
                        try:
                            fitness = float(line.split("=", 1)[1])
                        except ValueError:
                            pass
                        continue
                    tail.append(line)
                    if emit_log is not None:
                        emit_log(line)
                code = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise JobFailed(f"trainer timed out after {self.timeout_s}s", "\n".join(tail)) from None
            finally:
                lines.close()
                proc.stdout.close()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            if code != 0:
                raise JobFailed(f"trainer exited with status {code}", "\n".join(tail))
            if fitness is None:
                raise JobFailed("trainer produced no FITNESS line", "\n".join(tail))
            if not math.isfinite(fitness):
                raise JobFailed(f"trainer reported a non-finite fitness: {fitness}", "\n".join(tail))
            if not 0 <= fitness <= 100:
                raise JobFailed(f"trainer reported a fitness outside [0, 100]: {fitness}", "\n".join(tail))
        return _quantize(fitness), time.monotonic() - started

    def _output_lines(self, proc: subprocess.Popen, deadline: float) -> Iterator[str]:
        """A trainer's output lines, read on the calling thread until EOF.

        Each wait on the pipe ends at ``deadline``, which then raises
        ``TimeoutExpired``, so a silent trainer cannot hold the job past it. The
        output is decoded as UTF-8 with undecodable bytes replaced by U+FFFD, and
        ``\\r\\n`` and ``\\r`` end a line as ``\\n`` does. A trainer that prints faster
        than its lines are used is held back by the pipe's own buffer. Waiting on
        a pipe with ``selectors`` needs a POSIX host.
        """
        fd = proc.stdout.fileno()
        decoder = io.IncrementalNewlineDecoder(codecs.getincrementaldecoder("utf-8")("replace"), translate=True)
        pending = ""
        with selectors.DefaultSelector() as selector:
            selector.register(fd, selectors.EVENT_READ)
            chunk = None
            while chunk != b"":
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    raise subprocess.TimeoutExpired(proc.args, self.timeout_s)
                chunk = os.read(fd, 1 << 16)
                *done, pending = (pending + decoder.decode(chunk, final=not chunk)).split("\n")
                yield from done
        if pending:  # a last line without its newline
            yield pending


def _command_argv(template: str, payload_path: Path, settings_path: Path, slot_id: int, seed: int) -> list[str]:
    """A trainer's argv: the command template with its four placeholders filled, split as a shell would."""
    return shlex.split(
        template.format(payload_path=payload_path, settings_path=settings_path, slot_id=slot_id, seed=seed)
    )


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
