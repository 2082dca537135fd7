"""The generational loop with log-based downtime restart.

All run state lives in the run directory:

* ``run_state.txt``   -- ``is_running`` flag (1 while a process runs the
  search; ``compare`` reads it, the start path does not), the run's labels,
  ``width`` (the engine's slot count), ``lag`` (the aging pipeline's lag on
  that many slots; 0 for strategies without one) and the search settings:
  ``max_gen`` and ``SEARCH_KEYS``. None of these change mid-run, so it is
  written when a run starts or resumes and when it ends; the newest
  ``begin_<t>.txt`` is the resume point,
* ``begin_<t>.txt``   -- one population log per generation, written atomically
  after every member of that generation has fitness; one record per line::

      name=<string>;enc=<canonical serialization>;id=<56 hex>;fit=<percent 2dp or NA>

A run has one start path, and a fresh start is a resume from nothing. When
population logs exist, it loads the newest ``begin_<t>.txt``, verifying
every record's identifier against its re-serialized genotype, and resumes
from it, whether the run was interrupted or finished. When none exists,
generation 0 is rebuilt from the seed (``derive_rng(master_seed, "init")``),
so a run stopped before its first log resumes like any other, and the cache
supplies whatever generation 0 had already trained. Variation for generation
``t+1`` draws its RNG from ``H(master_seed, t)``, so a resumed run
regenerates exactly the offspring the uninterrupted run would have -- the
cache makes re-evaluation of anything already trained free, and subsequent
population logs come out byte-identical.

Aging evolution draws children at a lag of L = 2K - 1 on K slots (see
``evo.strategies``), and its logs are written while children of the next
generation are still running. Its trajectory depends on L, so a restart with
another lag raises ``RestartError`` before anything is written, instead of
silently forking the run; this holds for a finished run as much as for an
interrupted one. Its first draws after ``begin_<t>.txt`` read queue
positions up to L - 1 children back, so a resume loads ``begin_<t-1>.txt``
as well when L > 1 (more logs when L - 1 > P): generation g fills history
positions gP .. gP+P-1. Children in flight at the crash are drawn again
identically and hit the cache if their jobs had resolved. A
``run_state.txt`` without a ``lag`` line was written before the pipeline:
with ``width=1`` or no ``width`` line it was the one-child loop and reads as
lag 1; a larger ``width`` is a run of the older batched step, which cannot be
reproduced, and is refused.

A run directory keeps the search settings it was started with: a rerun whose
strategy, seed, population size or operator settings differ from the
recorded ones raises ``RestartError`` before anything is written, whether the
run was interrupted or finished. ``max_gen`` only says where the trajectory
stops, so it may be raised to extend a run (a finished run then goes on from
its newest log); lowering it is refused, so the logs never run past the
recorded budget. A file without these lines was written before they were
recorded and is not checked.

``max_gen`` counts generations including the initial one: a full run evaluates
``pop_size * max_gen`` candidates when nothing hits the cache.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import math
import random
import re
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

from .arch import canonical_text, parse_canonical
from .errors import CorruptLogError, EvaluationOrderError, PersistError, RestartError
from .evaluator import Evaluator
from .evo.individual import Individual, Population, birth_generation
from .evo.strategies import SearchStrategy, StrategyConfig

logger = logging.getLogger(__name__)

RUN_STATE_FILE = "run_state.txt"
SETTINGS_FILE = "settings.txt"
_LOG_RE = re.compile(r"^begin_(\d+)\.txt$")
_RECORD_RE = re.compile(r"^name=([^;]+);enc=([^;]+);id=([0-9a-f]{56});fit=(NA|\d{1,3}\.\d{2})$")
#: The strategy settings a run records besides its strategy and ``max_gen``;
#: a rerun must give the same values. ``seed`` is the run's master seed.
SEARCH_KEYS = tuple(f.name for f in fields(StrategyConfig) if f.name not in ("strategy", "max_gen"))


def derive_rng(master_seed: int, tag) -> random.Random:
    digest = hashlib.sha256(f"{master_seed}:{tag}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass
class RunState:
    is_running: int = 0
    algorithm: str = ""
    strategy: str = ""
    width: int = 1
    lag: int = 0  # 0 in a file written before the lag was recorded
    max_gen: int = 0  # 0 in a file written before the search settings were recorded
    search: dict[str, str] = field(default_factory=dict)  # SEARCH_KEYS -> value; empty in such a file

    @staticmethod
    def load(run_dir: Path) -> "RunState":
        path = run_dir / RUN_STATE_FILE
        state = RunState()
        if not path.exists():
            return state
        # unknown keys are skipped: older files carry a ``generation`` line
        types = {
            "is_running": int, "algorithm": str, "strategy": str, "width": int, "lag": int, "max_gen": int
        }
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            key, _, value = line.partition("=")
            if key in SEARCH_KEYS:
                state.search[key] = value
            elif key in types:
                try:
                    setattr(state, key, types[key](value))
                except ValueError:
                    raise RestartError(f"{path} line {number} is malformed: {line!r}") from None
        return state

    def save(self, run_dir: Path) -> None:
        path = run_dir / RUN_STATE_FILE
        body = (
            f"is_running={self.is_running}\n"
            f"algorithm={self.algorithm}\n"
            f"strategy={self.strategy}\n"
            f"width={self.width}\n"
            f"lag={self.lag}\n"
            f"max_gen={self.max_gen}\n"
        ) + "".join(f"{key}={value}\n" for key, value in self.search.items())
        tmp = path.with_suffix(".tmp")
        try:
            tmp.write_text(body, encoding="utf-8")
            tmp.rename(path)
        except OSError as exc:
            raise PersistError(f"cannot persist run state: {exc}") from exc


def format_record(member: Individual) -> str:
    if member.fitness is None:
        fit = "NA"
    else:
        fit = f"{100.0 * member.fitness[0]:.2f}"
    return f"name={member.name};enc={canonical_text(member.genotype)};id={member.identifier};fit={fit}"


def log_path(run_dir: Path, t: int) -> Path:
    return run_dir / f"begin_{t}.txt"


def list_generations(run_dir: Path) -> list[int]:
    out = []
    for path in run_dir.iterdir():
        m = _LOG_RE.match(path.name)
        if m:
            out.append(int(m.group(1)))
    return sorted(out)


def save_population(run_dir: Path, t: int, pop: Population) -> None:
    """Atomically write ``begin_<t>.txt``; every member must already have fitness."""
    pop.require_evaluated()
    path = log_path(run_dir, t)
    if path.exists():
        return  # logs are append-created, never rewritten
    body = "".join(format_record(m) + "\n" for m in pop.members)
    tmp = path.with_suffix(".tmp")
    try:
        tmp.write_text(body, encoding="utf-8")
        tmp.rename(path)
    except OSError as exc:
        raise PersistError(f"cannot write population log {path}: {exc}") from exc


def parse_record(line: str) -> Individual:
    m = _RECORD_RE.match(line)
    if m is None:
        raise CorruptLogError(f"malformed population record: {line!r}")
    name, enc, stored_id, fit = m.groups()
    member = Individual(name=name, genotype=parse_canonical(enc))
    if member.identifier != stored_id:
        raise CorruptLogError(
            f"identifier mismatch for {name}: log says {stored_id[:12]}.., "
            f"encoding hashes to {member.identifier[:12]}.."
        )
    member.age = birth_generation(name)
    if fit != "NA":
        member.assign_fitness((float(fit) / 100.0,))
    return member


def load_population(
    run_dir: Path,
    t: int,
    objectives: int = 1,
    augment: Callable[[Individual], tuple[float, ...]] | None = None,
) -> Population:
    """Load ``begin_<t>.txt``, verifying every identifier.

    ``augment`` supplies the derived extra objectives (e.g. parameter count)
    for multi-objective runs; objective 0 always comes from the log.
    """
    path = log_path(run_dir, t)
    members = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        try:
            member = parse_record(line)
        except CorruptLogError as exc:
            raise CorruptLogError(f"{path}:{lineno}: {exc}") from exc
        if objectives >= 2 and member.fitness is not None and augment is not None:
            base = member.fitness
            member.fitness = None
            member.assign_fitness(base + tuple(augment(member)))
        members.append(member)
    return Population(generation=t, members=members)


def load_latest_population(
    run_dir: Path,
    objectives: int = 1,
    augment: Callable[[Individual], tuple[float, ...]] | None = None,
) -> tuple[int, Population]:
    """Load the newest population log, verifying identifiers and log contiguity."""
    generations = list_generations(run_dir)
    if not generations:
        raise RestartError(f"{run_dir} holds no population logs")
    if generations != list(range(generations[-1] + 1)):
        raise RestartError(f"population logs are not contiguous in {run_dir}: {generations}")
    t = generations[-1]
    return t, load_population(run_dir, t, objectives, augment)


class Runner:
    """Executes one configured run inside a run directory, resumably."""

    def __init__(
        self,
        run_dir: Path | str,
        strategy: SearchStrategy,
        evaluator: Evaluator,
        label: str = "",
        master_seed: int = 0,
        on_save: Callable[[int], None] | None = None,
    ):
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.strategy = strategy
        self.evaluator = evaluator
        self.label = label or strategy.cfg.strategy
        self.master_seed = master_seed
        self.on_save = on_save  # test hook, called after each persisted generation

    def _state(self, is_running: int) -> RunState:
        cfg, width = self.strategy.cfg, self.evaluator.width
        search = {key: str(self.master_seed if key == "seed" else getattr(cfg, key)) for key in SEARCH_KEYS}
        lag = self.strategy.lag(width)
        return RunState(is_running, self.label, cfg.strategy, width, lag, cfg.max_gen, search)

    def _check_search(self, state: RunState) -> None:
        """Refuse, before anything is written, a rerun under other search settings than recorded."""
        given = self._state(0)
        changed = [
            f"{key} {state.search[key]} -> {given.search[key]}"
            for key in SEARCH_KEYS
            if key in state.search and state.search[key] != given.search[key]
        ]
        if state.strategy and state.strategy != given.strategy:
            changed.insert(0, f"strategy {state.strategy} -> {given.strategy}")
        if state.max_gen > given.max_gen:
            changed.append(f"max_gen {state.max_gen} -> {given.max_gen} (it may only be raised)")
        if changed:
            raise RestartError(
                f"{self.run_dir} was started under other search settings ({'; '.join(changed)}); "
                "refusing to rerun it under changed settings"
            )

    def _save(self, t: int, pop: Population) -> None:
        save_population(self.run_dir, t, pop)
        if self.on_save is not None:
            self.on_save(t)

    def _check_lag(self, state: RunState, lag: int) -> None:
        """Refuse, before anything is written, a resume that would fork a lagged trajectory."""
        name = self.strategy.cfg.strategy
        if not state.lag and state.width > 1:
            raise RestartError(
                f"{self.run_dir} ran {name} in batches of {state.width}, a schedule this version "
                "no longer runs; its trajectory cannot be resumed, start the run afresh"
            )
        recorded = state.lag or 1
        if recorded != lag:
            raise RestartError(
                f"{self.run_dir} ran {name} at lag {recorded}; resuming at lag {lag} "
                f"({self.evaluator.width} slot(s)) would fork its trajectory, "
                f"resume it on {(recorded + 1) // 2} slot(s)"
            )

    def run(self) -> Individual:
        cfg = self.strategy.cfg
        lag = self.strategy.lag(self.evaluator.width)
        state = RunState.load(self.run_dir)
        self._check_search(state)
        objectives = self.strategy.objectives

        def augment(member: Individual) -> tuple[float, ...]:
            return (float(self.evaluator.params_of(member)),)

        if list_generations(self.run_dir):
            if lag:
                self._check_lag(state, lag)
            t, pop = load_latest_population(self.run_dir, objectives=objectives, augment=augment)
            logger.info("resuming %s at generation %d", self.run_dir, t)
        else:  # a start from nothing: generation 0 is a function of the seed
            t, pop = 0, self.strategy.initial_population(derive_rng(self.master_seed, "init"))
            logger.info("starting %s at generation 0 (strategy %s)", self.run_dir, cfg.strategy)
        # the first draws after generation t read up to lag - 1 positions before it
        first = max(0, t - math.ceil(max(lag - 1, 0) / cfg.pop_size))
        history = []
        for g in range(first, t):
            history += load_population(self.run_dir, g, objectives, augment).members
        history += pop.members
        self._state(1).save(self.run_dir)

        self.evaluator.evaluate_population(pop)
        self._save(t, pop)

        rng_for = functools.partial(derive_rng, self.master_seed)
        for pop in self.strategy.generations(history, t, self.evaluator, rng_for):
            if pop.generation != t + 1:
                raise EvaluationOrderError(
                    f"strategy advanced generation {t} to {pop.generation}, expected {t + 1}"
                )
            t += 1
            self._save(t, pop)

        best = pop.best()
        self._state(0).save(self.run_dir)
        logger.info("run complete: best %s fitness %.4f", best.name, best.fitness0)
        return best
