"""The benchmark's own arithmetic and its correctness gate, on tiny workloads."""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
from stats import (  # noqa: E402
    covered,
    nearest_rank,
    percentile,
    samples_beyond,
    self_time,
    slot_util,
)
from tracing import END, NAME, PARENT, SID, START, Tracer  # noqa: E402

TINY_SIM = harness.Workload("tiny_sim", "aging_evolution", 6, 3, 2, 4, False)
TINY_TCP = harness.Workload("tiny_tcp", "elitist_ga", 4, 3, 1, 2, True)


def test_nearest_rank_percentile_and_tail_count():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert nearest_rank(100, 90) == 90
    assert percentile(values, 90) == 90
    assert percentile(values, 50) == 50
    assert percentile([7.0], 99) == 7.0
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(1000, 99) == 10


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        nearest_rank(10, 0)


def test_self_time_subtracts_the_union_of_child_intervals():
    assert covered([(1, 3), (2, 5), (7, 8)]) == 5
    assert self_time(0, 10, [(1, 3), (2, 5), (7, 8)]) == 5
    # children are clipped to the parent's interval; disjoint ones do not count
    assert self_time(0, 10, [(9, 12), (-3, -1)]) == 9
    assert self_time(0, 10, []) == 10


def test_slot_util_formula():
    assert slot_util(30.0, 4, 10.0) == 0.75
    assert slot_util(16.0, 16, 1.0) == 1.0
    with pytest.raises(ValueError):
        slot_util(1.0, 4, 0.0)


def test_tracer_links_children_and_computes_self_time():
    import types

    module = types.ModuleType("evonas._bench_probe")

    def inner():
        time.sleep(0.01)

    def outer():
        time.sleep(0.01)
        module.inner()

    module.inner, module.outer = inner, outer
    sys.modules[module.__name__] = module
    tracer = Tracer()
    try:
        tracer.patch_function("probe.inner", inner)
        tracer.patch_function("probe.outer", outer)
        module.outer()
    finally:
        tracer.restore()
        del sys.modules[module.__name__]
    assert module.inner is inner and module.outer is outer
    spans = {s[NAME]: s for s in tracer.spans}
    assert spans["probe.inner"][PARENT] == spans["probe.outer"][SID]
    own = tracer.self_times()
    outer_span = spans["probe.outer"]
    inner_span = spans["probe.inner"]
    assert own[outer_span[SID]] == pytest.approx(
        (outer_span[END] - outer_span[START]) - (inner_span[END] - inner_span[START])
    )


def test_advance_time_excludes_only_the_evaluate_calls_nested_in_it():
    tracer = Tracer()
    # advance [0, 10] > operator step [1, 6] > evaluate [2, 5]; evaluate [7, 9] directly
    # under advance; an evaluate outside any advance is ignored
    tracer.spans += [
        (3, 2, "evaluate", 2.0, 5.0, None),
        (2, 1, "step", 1.0, 6.0, None),
        (4, 1, "evaluate", 7.0, 9.0, None),
        (1, 0, "advance", 0.0, 10.0, None),
        (5, 0, "evaluate", 11.0, 12.0, None),
    ]
    assert tracer.minus_descendants("advance", "evaluate") == {1: 5.0}
    # plain self time removes the operator step too
    assert tracer.self_times()[1] == 3.0


@pytest.mark.parametrize("workload", [TINY_SIM, TINY_TCP], ids=lambda w: w.name)
def test_seed_fixes_deterministic_metrics(tmp_path, workload):
    first = harness.run_pass(workload, 1, tmp_path, range(workload.runs))
    again = harness.run_pass(workload, 1, tmp_path, range(workload.runs))
    other = harness.run_pass(workload, 2, tmp_path, range(workload.runs))
    assert [r.problems for r in first + again + other] == [[]] * (3 * workload.runs)
    assert [r.outcome() for r in first] == [r.outcome() for r in again]
    assert [r.outcome() for r in first] != [r.outcome() for r in other]
    assert all(r.evaluations == workload.pop_size * workload.max_gen for r in first)


def test_gate_reports_a_missing_population_log(tmp_path):
    run = harness._SearchRun(TINY_SIM, tmp_path, 5)
    result = run.result(run.run())
    assert harness.check_run(TINY_SIM, run, result) == []
    (run.run_dir / "begin_1.txt").unlink()
    assert harness.check_run(TINY_SIM, run, result)


def test_gate_reports_a_cache_that_disagrees_with_durations(tmp_path):
    run = harness._SearchRun(TINY_SIM, tmp_path, 5)
    result = run.result(run.run())
    with (run.run_dir / "cache.txt").open("a", encoding="utf-8") as fh:
        fh.write("0" * 56 + " = 1.00\n")
    assert any("cache entries" in p for p in harness.check_run(TINY_SIM, run, result))


def test_end_to_end_reports_every_metric_with_its_sample_count(tmp_path):
    wide = harness.Workload("tiny_wide", "nsga2", 4, 11, 11, 4, False)
    m = harness.measure(wide, 3, 0.0, tmp_path)
    metrics, samples = harness.end_to_end(m)
    assert set(metrics) == set(samples)
    assert m.problems == []
    assert samples["gen_ms_p90"] == 110
    assert metrics["backend_jobs"] == sum(r.jobs for r in m.reference)
    assert 0 < metrics["slot_util"] <= 1


def test_end_to_end_divides_measured_times_by_the_host_factor(tmp_path):
    m = harness.measure(TINY_TCP, 4, 0.0, tmp_path)
    base, _ = harness.end_to_end(m)
    factor = m.host_factor
    for r in m.untraced:
        r.calibration_ms *= 2.0
    assert m.host_factor == pytest.approx(2.0 * factor)
    slow, _ = harness.end_to_end(m)
    for name in ("setup_s", "gen_ms_p50", "gen_ms_p90", "makespan_virtual_s"):
        assert slow[name] == pytest.approx(base[name] / 2.0)
    assert slow["evals_per_s"] == pytest.approx(2.0 * base["evals_per_s"])
    for name in ("slot_util", "backend_jobs", "best_fitness", "job_ok_ratio"):
        assert slow[name] == pytest.approx(base[name])
