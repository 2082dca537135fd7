from __future__ import annotations

import os
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # sha224_reference import
# the package from this checkout, also for the trainers and workers tests start as subprocesses
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

from evonas.backends import SurrogateBackend
from evonas.bus import InProcessBus, Listener
from evonas.cache import ResultCache
from evonas.config import BackendConfig, TrainerSettings, canonical_settings_text, settings_digest, settings_map
from evonas.evaluator import Evaluator
from evonas.evo.strategies import StrategyConfig, build_strategy
from evonas.runner import Runner, SETTINGS_FILE
from evonas.simfarm import SimulatedFarm


@pytest.fixture
def rng():
    return random.Random(12345)


@dataclass
class RunHarness:
    """Builds fresh runner/farm stacks over one run directory.

    Every ``build()`` constructs new components that read their state from
    disk, which is exactly what a restarted process would do. ``close()``
    closes every engine and listener the builds opened.
    """

    run_dir: Path
    cfg: StrategyConfig
    slots: int = 2
    use_cache: bool = True
    backend: object = field(default_factory=SurrogateBackend)
    train: TrainerSettings = field(default_factory=TrainerSettings)
    backend_cfg: BackendConfig = field(default_factory=BackendConfig)
    label: str = "test_run"
    space: object = None  # overrides the strategy's default encoding space
    engine_factory: object = None  # callable(bus, listener) -> execution engine
    opened: list = field(default_factory=list, init=False, repr=False)  # (engine, listener) per build

    def __post_init__(self) -> None:
        self.run_dir.mkdir(parents=True, exist_ok=True)
        strategy = self._strategy()
        self.settings = settings_map(self.train, self.backend_cfg, strategy.space.decode_settings())
        (self.run_dir / SETTINGS_FILE).write_text(
            canonical_settings_text(self.settings), encoding="utf-8"
        )

    def _strategy(self):
        return build_strategy(self.cfg, space=self.space)

    def build(self, on_save=None) -> tuple[Runner, object]:
        strategy = self._strategy()
        cache = (
            ResultCache(self.run_dir / "cache.txt", settings_digest(self.settings))
            if self.use_cache
            else None
        )
        bus = InProcessBus()
        listener = Listener(bus, self.run_dir, cache)
        if self.engine_factory is not None:
            engine = self.engine_factory(bus, listener)
        else:
            engine = SimulatedFarm({"sim": self.slots}, self.backend, bus, listener)
        self.opened.append((engine, listener))
        evaluator = Evaluator(
            engine,
            cache,
            self.settings,
            strategy.space,
            master_seed=self.cfg.seed,
            objectives=strategy.objectives,
        )
        runner = Runner(
            self.run_dir,
            strategy,
            evaluator,
            label=self.label,
            master_seed=self.cfg.seed,
            on_save=on_save,
        )
        return runner, engine

    def close(self) -> None:
        for engine, listener in self.opened:
            engine.close()
            listener.close()
        self.opened.clear()


@pytest.fixture
def closing():
    """``closing(thing)`` returns ``thing`` and closes it at teardown, last opened first."""
    opened = []

    def register(thing):
        opened.append(thing)
        return thing

    yield register
    for thing in reversed(opened):
        thing.close()


@pytest.fixture
def make_harness(tmp_path):
    harnesses: list[RunHarness] = []

    def factory(name="run", strategy="elitist_ga", pop_size=4, max_gen=3, seed=7, **kwargs) -> RunHarness:
        cfg_kwargs = {}
        for key in ("crossover_prob", "mutation_prob", "tournament_size", "sample_size"):
            if key in kwargs:
                cfg_kwargs[key] = kwargs.pop(key)
        cfg = StrategyConfig(
            strategy=strategy, pop_size=pop_size, max_gen=max_gen, seed=seed, **cfg_kwargs
        )
        harness = RunHarness(run_dir=tmp_path / name, cfg=cfg, **kwargs)
        harnesses.append(harness)
        return harness

    yield factory
    for harness in harnesses:
        harness.close()
