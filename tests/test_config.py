import dataclasses

import pytest

from evonas.arch.spaces import CellGraphSpace, FixedBinarySpace
from evonas.config import (
    KEYS,
    BackendConfig,
    GlobalConfig,
    TrainerSettings,
    canonical_settings_text,
    parse_global,
    parse_train,
    settings_digest,
    settings_map,
)
from evonas.errors import ConfigError
from evonas.evo.strategies import StrategyConfig

GLOBAL_OK = """\
[algorithm]
name = demo
run_algorithm = elitist_ga
max_gen = 20
pop_size = 20
"""

TRAIN_OK = """\
[optimizer]
_optimizer_name = SGD
_batch_size = 64
_total_epoch = 50

[LearningRate]
lr = 0.025
lr_strategy = CosineAnnealingLR

[dataset]
_name = cifar10
"""


def write(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return path


def test_parse_global_happy_path(tmp_path):
    cfg = parse_global(write(tmp_path, "global.ini", GLOBAL_OK))
    assert cfg.name == "demo"
    assert cfg.strategy.strategy == "elitist_ga"
    assert (cfg.strategy.max_gen, cfg.strategy.pop_size) == (20, 20)
    assert cfg.seed == 0 and cfg.strategy.crossover_prob == 0.9 and cfg.strategy.mutation_prob == 0.1


def test_integer_strings_are_parsed(tmp_path):
    cfg = parse_global(write(tmp_path, "g.ini", GLOBAL_OK.replace("pop_size = 20", 'pop_size = "20"').replace('"', "")))
    assert cfg.strategy.pop_size == 20


def test_negative_max_gen_rejected(tmp_path):
    bad = GLOBAL_OK.replace("max_gen = 20", "max_gen = -1")
    with pytest.raises(ConfigError, match="max_gen"):
        parse_global(write(tmp_path, "g.ini", bad))


def test_unknown_strategy_rejected(tmp_path):
    bad = GLOBAL_OK.replace("elitist_ga", "simulated_annealing")
    with pytest.raises(ConfigError, match="run_algorithm"):
        parse_global(write(tmp_path, "g.ini", bad))


def test_unknown_key_rejected_with_location(tmp_path):
    bad = GLOBAL_OK + "surprise = 1\n"
    with pytest.raises(ConfigError, match="surprise"):
        parse_global(write(tmp_path, "g.ini", bad))


def test_unknown_section_rejected(tmp_path):
    bad = GLOBAL_OK + "\n[extras]\nx = 1\n"
    with pytest.raises(ConfigError, match="extras"):
        parse_global(write(tmp_path, "g.ini", bad))


def test_missing_required_key(tmp_path):
    bad = GLOBAL_OK.replace("pop_size = 20\n", "")
    with pytest.raises(ConfigError, match="pop_size"):
        parse_global(write(tmp_path, "g.ini", bad))


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        parse_global(tmp_path / "nope.ini")


def test_parse_train_happy_path(tmp_path):
    train, backend = parse_train(write(tmp_path, "train.ini", TRAIN_OK))
    assert train.optimizer == "SGD" and train.batch_size == 64
    assert train.total_epoch == 50 and train.lr == 0.025
    assert train.dataset == "cifar10"
    assert backend.kind == "surrogate"


def test_unknown_lr_strategy_names_section(tmp_path):
    bad = TRAIN_OK.replace("CosineAnnealingLR", "WarpSpeedLR")
    with pytest.raises(ConfigError, match="LearningRate"):
        parse_train(write(tmp_path, "t.ini", bad))


def test_unknown_optimizer_rejected(tmp_path):
    bad = TRAIN_OK.replace("SGD", "Adagrad")
    with pytest.raises(ConfigError, match="optimizer"):
        parse_train(write(tmp_path, "t.ini", bad))


def test_unknown_dataset_rejected(tmp_path):
    bad = TRAIN_OK.replace("cifar10", "svhn")
    with pytest.raises(ConfigError, match="dataset"):
        parse_train(write(tmp_path, "t.ini", bad))


def test_bad_type_names_key(tmp_path):
    bad = TRAIN_OK.replace("_batch_size = 64", "_batch_size = many")
    with pytest.raises(ConfigError, match="_batch_size"):
        parse_train(write(tmp_path, "t.ini", bad))


def test_backend_section_validation(tmp_path):
    body = TRAIN_OK + "\n[backend]\nkind = command\n"
    with pytest.raises(ConfigError, match="command"):
        parse_train(write(tmp_path, "t.ini", body))
    body = TRAIN_OK + "\n[backend]\nkind = lookup\n"
    with pytest.raises(ConfigError, match="table"):
        parse_train(write(tmp_path, "t.ini", body))
    body = TRAIN_OK + "\n[backend]\nkind = surrogate\ntau = 25\n"
    _, backend = parse_train(write(tmp_path, "t.ini", body))
    assert backend.tau == 25.0


#: One value per INI key, none of them its field's default.
EVERY_KEY = {
    ("algorithm", "name"): "other",
    ("algorithm", "run_algorithm"): "aging_evolution",
    ("algorithm", "max_gen"): 7,
    ("algorithm", "pop_size"): 9,
    ("algorithm", "seed"): 17,
    ("algorithm", "crossover_prob"): 0.5,
    ("algorithm", "mutation_prob"): 0.25,
    ("algorithm", "tournament_size"): 3,
    ("algorithm", "sample_size"): 4,
    ("optimizer", "_optimizer_name"): "Adam",
    ("optimizer", "_batch_size"): 128,
    ("optimizer", "_total_epoch"): 12,
    ("LearningRate", "lr"): 0.1,
    ("LearningRate", "lr_strategy"): "StepLR",
    ("dataset", "_name"): "cifar100",
    ("backend", "kind"): "command",
    ("backend", "command"): "python train.py {payload_path}",
    ("backend", "table"): "bench.csv",
    ("backend", "fallback"): "surrogate",
    ("backend", "tau"): 25.5,
    ("backend", "sigma"): 0.5,
    ("backend", "c0"): 2.0,
    ("backend", "c1"): 3e-09,
    ("backend", "timeout_s"): 60.0,
}


def ini_text(values):
    lines: dict[str, str] = {}
    for (section, key), value in values.items():
        lines[section] = lines.get(section, f"[{section}]\n") + f"{key} = {value}\n"
    return "".join(lines.values())


def test_every_key_parses_to_exactly_its_value(tmp_path):
    assert set(EVERY_KEY) == set(KEYS)
    is_global = {at: KEYS[at][0] in (GlobalConfig, StrategyConfig) for at in KEYS}
    g = ini_text({at: v for at, v in EVERY_KEY.items() if is_global[at]})
    t = ini_text({at: v for at, v in EVERY_KEY.items() if not is_global[at]})
    cfg = parse_global(write(tmp_path, "g.ini", g))
    train, backend = parse_train(write(tmp_path, "t.ini", t))
    parsed = {GlobalConfig: cfg, StrategyConfig: cfg.strategy, TrainerSettings: train, BackendConfig: backend}
    defaults = {(cls, f.name): f.default for cls in parsed for f in dataclasses.fields(cls)}
    for at, value in EVERY_KEY.items():
        cls, name = KEYS[at]
        got = getattr(parsed[cls], name)
        assert (type(got), got) == (type(value), value), at
        assert value != defaults[cls, name], at


@pytest.mark.parametrize(
    "section, key, raw",
    [
        ("backend", "tau", "0"),
        ("backend", "tau", "nan"),
        ("backend", "timeout_s", "0"),
        ("backend", "timeout_s", "nan"),
        ("LearningRate", "lr", "-0.1"),
        ("LearningRate", "lr", "nan"),
        ("backend", "sigma", "-0.5"),
        ("backend", "sigma", "nan"),
        ("backend", "c0", "-1"),
        ("backend", "c0", "nan"),
        ("backend", "c1", "-1e-9"),
        ("backend", "c1", "nan"),
    ],
)
def test_numeric_training_keys_are_range_checked(tmp_path, section, key, raw):
    if section == "LearningRate":
        body = TRAIN_OK.replace("lr = 0.025", f"lr = {raw}")
    else:
        body = TRAIN_OK + f"\n[{section}]\n{key} = {raw}\n"
    with pytest.raises(ConfigError, match=f"section '{section}', key '{key}'"):
        parse_train(write(tmp_path, "t.ini", body))


def test_zero_sigma_c0_c1_are_allowed(tmp_path):
    body = TRAIN_OK + "\n[backend]\nsigma = 0\nc0 = 0\nc1 = 0\n"
    _, backend = parse_train(write(tmp_path, "t.ini", body))
    assert (backend.sigma, backend.c0, backend.c1) == (0.0, 0.0, 0.0)


def test_settings_digest_sensitive_to_every_field():
    train = TrainerSettings()
    backend = BackendConfig()
    base = settings_digest(settings_map(train, backend))
    changed = TrainerSettings(total_epoch=51)
    assert settings_digest(settings_map(changed, backend)) != base
    changed_backend = BackendConfig(tau=21.0)
    assert settings_digest(settings_map(train, changed_backend)) != base
    with_decode = settings_map(train, backend, {"stage_channels": "8,16"})
    assert settings_digest(with_decode) != base


def test_settings_digest_golden_values():
    """Every existing settings.txt and cache.txt header was written under these."""
    train, backend = TrainerSettings(), BackendConfig()
    assert (
        settings_digest(settings_map(train, backend))
        == "f6a4a02cd80946dd6557933599080916d5b226f8fbe78b25e0b8b67d"
    )
    assert (
        settings_digest(settings_map(train, backend, FixedBinarySpace().decode_settings()))
        == "62013bb0806d7ad43b512ea8e894e6b5292c75c324a3dab0ed27ec81"
    )
    command = BackendConfig(kind="command", command="python -m evonas.toy_trainer --payload {payload_path}")
    assert canonical_settings_text(settings_map(train, command, CellGraphSpace().decode_settings())) == (
        "backend=command\n"
        "batch_size=64\n"
        "c0=1.0\n"
        "c1=1e-09\n"
        "cell_channels=32\n"
        "command=python -m evonas.toy_trainer --payload {payload_path}\n"
        "dataset=cifar10\n"
        "lr=0.025\n"
        "lr_strategy=CosineAnnealingLR\n"
        "optimizer=SGD\n"
        "sigma=0.0\n"
        "tau=20.0\n"
        "timeout_s=300.0\n"
        "total_epoch=50\n"
    )


def test_canonical_settings_text_is_sorted_and_stable():
    text = canonical_settings_text({"b": "2", "a": "1"})
    assert text == "a=1\nb=2\n"
    assert settings_digest({"a": "1", "b": "2"}) == settings_digest({"b": "2", "a": "1"})


def test_strategy_config_carries_optional_keys(tmp_path):
    body = GLOBAL_OK + "seed = 17\ncrossover_prob = 0.5\nmutation_prob = 0.25\n"
    cfg = parse_global(write(tmp_path, "g.ini", body))
    sc = cfg.strategy_config()
    assert (sc.seed, sc.crossover_prob, sc.mutation_prob) == (17, 0.5, 0.25)
