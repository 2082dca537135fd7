"""INI configuration: ``global.ini`` (what to search) and ``train.ini`` (how to train).

``global.ini``::

    [algorithm]
    name = my_run            ; folder label for the run's output
    run_algorithm = elitist_ga
    max_gen = 20
    pop_size = 20
    ; optional: seed, crossover_prob, mutation_prob, tournament_size, sample_size

``train.ini``::

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
    kind = surrogate         ; surrogate | lookup | command
    ; command = python -m evonas.toy_trainer --payload {payload_path} ...
    ; table = bench.csv   fallback = error|surrogate
    ; tau / sigma / c0 / c1 tune the surrogate; timeout_s bounds a command job

Each setting is declared once: ``KEYS`` maps its section and key to the
dataclass field it fills, and that field gives its type and its default (a
field without a default is a required key). Each dataclass's
``__post_init__`` is the one place its values are checked; an error there is
reported at the section and key the value came from. A strategy checks the
selection size it reads against ``pop_size`` when it is built, which
``evonas run`` does before it writes anything. Unknown sections or keys
are rejected with their location named. The flattened settings map (trainer +
backend + decode parameters) is digested into the cache header and the
per-run ``settings.txt``; runs are only comparable -- and caches only
reusable -- under an identical digest.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .backends import (
    BACKEND_KINDS,
    DEFAULT_SIGMA,
    DEFAULT_TAU,
    DEFAULT_TIME_BASE,
    DEFAULT_TIME_PER_MAC,
    DEFAULT_TIMEOUT_S,
)
from .datasets import DATASETS
from .errors import ConfigError
from .evo.strategies import StrategyConfig

KNOWN_OPTIMIZERS = ("SGD", "Adam", "RMSprop")
KNOWN_LR_STRATEGIES = (
    "StepLR",
    "MultiStepLR",
    "ExponentialLR",
    "CosineAnnealingLR",
    "ReduceLROnPlateau",
)


@dataclass
class GlobalConfig:
    name: str
    strategy: StrategyConfig

    @property
    def seed(self) -> int:
        return self.strategy.seed

    def strategy_config(self) -> StrategyConfig:
        return self.strategy


@dataclass
class TrainerSettings:
    optimizer: str = "SGD"
    batch_size: int = 64
    total_epoch: int = 50
    lr: float = 0.025
    lr_strategy: str = "CosineAnnealingLR"
    dataset: str = "cifar10"

    def __post_init__(self) -> None:
        if self.optimizer not in KNOWN_OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}", "optimizer")
        if self.batch_size <= 0:
            raise ConfigError("must be positive", "batch_size")
        if self.total_epoch <= 0:
            raise ConfigError("must be positive", "total_epoch")
        if not self.lr > 0:
            raise ConfigError(f"must be positive, got {self.lr}", "lr")
        if self.lr_strategy not in KNOWN_LR_STRATEGIES:
            raise ConfigError(f"unknown strategy {self.lr_strategy!r}", "lr_strategy")
        if self.dataset.lower() not in DATASETS:
            raise ConfigError(f"unknown dataset {self.dataset!r}", "dataset")


@dataclass
class BackendConfig:
    kind: str = "surrogate"
    command: str = ""
    table: str = ""
    fallback: str = "error"
    tau: float = DEFAULT_TAU
    sigma: float = DEFAULT_SIGMA
    c0: float = DEFAULT_TIME_BASE
    c1: float = DEFAULT_TIME_PER_MAC
    timeout_s: float = DEFAULT_TIMEOUT_S

    def __post_init__(self) -> None:
        if self.kind not in BACKEND_KINDS:
            raise ConfigError(f"unknown backend {self.kind!r}", "kind")
        if self.kind == "command" and not self.command:
            raise ConfigError("required for the command backend", "command")
        if self.kind == "lookup" and not self.table:
            raise ConfigError("required for the lookup backend", "table")
        if self.fallback not in ("error", "surrogate"):
            raise ConfigError(f"unknown value {self.fallback!r}", "fallback")
        # written as `not (x > 0)` so that nan is refused too
        for name in ("tau", "timeout_s"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"must be positive, got {getattr(self, name)}", name)
        for name in ("sigma", "c0", "c1"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"must be >= 0, got {getattr(self, name)}", name)


#: Every INI key: (section, key) -> (dataclass, field) it fills.
KEYS: dict[tuple[str, str], tuple[type, str]] = {
    ("algorithm", "name"): (GlobalConfig, "name"),
    ("algorithm", "run_algorithm"): (StrategyConfig, "strategy"),
    ("algorithm", "max_gen"): (StrategyConfig, "max_gen"),
    ("algorithm", "pop_size"): (StrategyConfig, "pop_size"),
    ("algorithm", "seed"): (StrategyConfig, "seed"),
    ("algorithm", "crossover_prob"): (StrategyConfig, "crossover_prob"),
    ("algorithm", "mutation_prob"): (StrategyConfig, "mutation_prob"),
    ("algorithm", "tournament_size"): (StrategyConfig, "tournament_size"),
    ("algorithm", "sample_size"): (StrategyConfig, "sample_size"),
    ("optimizer", "_optimizer_name"): (TrainerSettings, "optimizer"),
    ("optimizer", "_batch_size"): (TrainerSettings, "batch_size"),
    ("optimizer", "_total_epoch"): (TrainerSettings, "total_epoch"),
    ("LearningRate", "lr"): (TrainerSettings, "lr"),
    ("LearningRate", "lr_strategy"): (TrainerSettings, "lr_strategy"),
    ("dataset", "_name"): (TrainerSettings, "dataset"),
    **{("backend", f.name): (BackendConfig, f.name) for f in fields(BackendConfig)},
}

_CASTS = {"str": str, "int": int, "float": float}


def _read_ini(path: Path | str) -> configparser.ConfigParser:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return parser


def _read(path: Path | str, classes: tuple[type, ...]) -> dict[type, dict[str, object]]:
    """The keyword arguments ``path`` gives each of ``classes``, through ``KEYS``."""
    parser = _read_ini(path)
    table = {at: dest for at, dest in KEYS.items() if dest[0] in classes}
    sections = {section for section, _ in table}
    declared = {(cls, f.name): f for cls in classes for f in fields(cls)}
    kwargs: dict[type, dict[str, object]] = {cls: {} for cls in classes}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"{path}: unknown section '{section}'")
        for key, raw in parser.items(section):
            dest = table.get((section, key))
            if dest is None:
                raise ConfigError(f"{path}: unknown key '{key}' in section '{section}'")
            cls, name = dest
            f = declared[dest]
            try:
                kwargs[cls][name] = _CASTS[f.type](raw)
            except ValueError:
                raise ConfigError(
                    f"section '{section}', key '{key}': cannot interpret {raw!r} as {f.type}"
                ) from None
    for (section, key), (cls, name) in table.items():
        if name not in kwargs[cls] and declared[cls, name].default is MISSING:
            raise ConfigError(f"missing key '{key}' in section '{section}'")
    return kwargs


def _build(cls: type, kwargs: dict[str, object]):
    """``cls(**kwargs)``, with an error in a field reported at its section and key."""
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        for (section, key), dest in KEYS.items():
            if dest == (cls, exc.field):
                raise ConfigError(f"section '{section}', key '{key}': {exc.reason}") from None
        raise


def parse_global(path: Path | str) -> GlobalConfig:
    kwargs = _read(path, (GlobalConfig, StrategyConfig))
    return GlobalConfig(strategy=_build(StrategyConfig, kwargs[StrategyConfig]), **kwargs[GlobalConfig])


def parse_train(path: Path | str) -> tuple[TrainerSettings, BackendConfig]:
    kwargs = _read(path, (TrainerSettings, BackendConfig))
    return _build(TrainerSettings, kwargs[TrainerSettings]), _build(BackendConfig, kwargs[BackendConfig])


def settings_map(
    train: TrainerSettings, backend: BackendConfig, decode_settings: dict[str, str] | None = None
) -> dict[str, str]:
    """Flatten trainer, backend, and decode parameters into the per-job settings."""
    out = {
        "optimizer": train.optimizer,
        "batch_size": str(train.batch_size),
        "total_epoch": str(train.total_epoch),
        "lr": repr(train.lr),
        "lr_strategy": train.lr_strategy,
        "dataset": train.dataset.lower(),
        "backend": backend.kind,
        "tau": repr(backend.tau),
        "sigma": repr(backend.sigma),
        "c0": repr(backend.c0),
        "c1": repr(backend.c1),
    }
    if backend.kind == "command":
        out["command"] = backend.command
        out["timeout_s"] = repr(backend.timeout_s)
    if backend.kind == "lookup":
        out["table"] = backend.table
        out["fallback"] = backend.fallback
    out.update(decode_settings or {})
    return out


def canonical_settings_text(settings: dict[str, str]) -> str:
    return "".join(f"{k}={settings[k]}\n" for k in sorted(settings))


def settings_digest(settings: dict[str, str]) -> str:
    return hashlib.sha224(canonical_settings_text(settings).encode("utf-8")).hexdigest()
