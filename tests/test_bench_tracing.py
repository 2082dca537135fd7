"""The benchmark's traced mode (``bench/run.py --trace 1``) runs against this package.

``bench/layers.instrument`` wraps methods at ``cls.__dict__[attr]`` and
functions at every ``evonas`` module binding, so moving a traced method to a
base class, or renaming a traced function, breaks the traced benchmark. These
tests install the wrappers, run a tiny traced measurement per engine kind,
and check that ``restore`` puts every binding back.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import harness  # noqa: E402
import layers  # noqa: E402
from tracing import NAME, Tracer  # noqa: E402

PER_LAYER = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]}

TINY = {
    "sim_aging": harness.Workload("tiny_aging", "aging_evolution", 6, 3, 1, 4, False),
    "sim_nsga2": harness.Workload("tiny_nsga2", "nsga2", 6, 3, 1, 4, False),
    "tcp_ga": harness.Workload("tiny_tcp", "elitist_ga", 4, 3, 1, 2, True),
}


def evonas_bindings() -> dict[tuple[str, ...], object]:
    """Every attribute of each loaded ``evonas`` module and of each class defined there."""
    out: dict[tuple[str, ...], object] = {}
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "evonas" or mod_name.startswith("evonas.")):
            continue
        for attr, value in vars(module).items():
            out[(mod_name, attr)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for cls_attr, cls_value in vars(value).items():
                    out[(mod_name, attr, cls_attr)] = cls_value
    return out


def test_instrument_wraps_each_traced_method_on_its_own_class_and_restore_undoes_it():
    before = evonas_bindings()
    tracer = Tracer()
    layers.instrument(tracer)
    try:
        during = evonas_bindings()
    finally:
        tracer.restore()
    assert evonas_bindings() == before
    wrapped = {key[1:] for key, value in before.items() if during[key] is not value}
    assert {
        ("Evaluator", "evaluate_population"),
        ("Evaluator", "params_of"),
        ("ThreadedEngine", "run_jobs"),
        ("SimulatedFarm", "run_jobs"),
        ("Listener", "drain"),
        ("InProcessBus", "publish"),
        ("GenerationalGA", "advance"),
        ("ParetoGA", "advance"),
        ("decode",),  # evonas.arch.ir.decode, a module function
    } <= wrapped


@pytest.mark.parametrize("kind", TINY)
def test_traced_measurement_reports_every_layer_metric(tmp_path, kind):
    workload = TINY[kind]
    before = evonas_bindings()
    tracer = Tracer()
    m = harness.measure(workload, 1, 0.0, tmp_path, tracer, layers.instrument)
    assert evonas_bindings() == before
    assert m.problems == []
    assert len(m.traced) == 1
    metrics = layers.layer_metrics(tracer, m)
    assert set(metrics) == PER_LAYER
    names = {span[NAME] for span in tracer.spans}
    assert {"evaluator.evaluate_population", "arch.decode", "cache.lookup", "bus.drain"} <= names
    engine_layer = "engine.run_jobs" if workload.tcp else "simfarm.run_jobs"
    assert metrics[f"{engine_layer}.calls"] >= 1
    assert metrics["evaluator.evaluate_population.calls"] >= workload.max_gen
    if workload.strategy == "nsga2":
        assert metrics["pareto.crowding_select.calls"] == workload.max_gen - 1
