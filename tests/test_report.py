import pytest

from evonas.backends import SurrogateBackend
from evonas.bus import InProcessBus, Listener
from evonas.errors import ReportError
from evonas.report import (
    CSV_HEADER,
    RETRAIN_FILE,
    compare,
    retrain_best,
    summarize_run,
)
from evonas.simfarm import SimulatedFarm


def completed_run(make_harness, name, seed=7, **kwargs):
    harness = make_harness(name=name, pop_size=4, max_gen=3, seed=seed, **kwargs)
    runner, farm = harness.build()
    runner.run()
    return harness


def retrain_engine(harness, run_dir, epochs=600):
    bus = InProcessBus()
    listener = Listener(bus, run_dir, cache=None)
    farm = SimulatedFarm({"sim": 1}, SurrogateBackend(), bus, listener)
    harness.opened.append((farm, listener))  # closed with the harness at teardown
    settings = dict(harness.settings)
    settings["total_epoch"] = str(epochs)
    return farm, settings


def test_summarize_completed_run(make_harness):
    harness = completed_run(make_harness, "runA")
    row = summarize_run(harness.run_dir)
    assert row.algorithm == "test_run"
    assert row.search_acc is not None and 0 <= row.search_acc <= 100
    assert row.params and row.params > 0
    assert row.flops and row.flops > 0
    assert row.evaluations == 4 * 3
    assert row.gpu_days > 0
    assert row.partial  # no retrain yet
    assert row.retrain_acc is None


def test_summarize_requires_some_generation(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(ReportError):
        summarize_run(tmp_path / "empty")


def test_retrain_improves_on_search_with_noiseless_surrogate(make_harness):
    harness = completed_run(make_harness, "runR")
    row_before = summarize_run(harness.run_dir)
    engine, settings = retrain_engine(harness, harness.run_dir, epochs=600)
    name, value = retrain_best(harness.run_dir, settings, engine, master_seed=7)
    assert (harness.run_dir / RETRAIN_FILE).exists()
    row = summarize_run(harness.run_dir)
    assert row.retrain_acc == value
    assert row.retrain_acc >= row_before.search_acc  # monotone in epochs
    assert not row.partial
    # retrain job accounted in gpu-days but not in the evaluation count
    assert row.evaluations == row_before.evaluations
    assert row.gpu_days > row_before.gpu_days


def test_retrain_requires_completed_run(tmp_path):
    (tmp_path / "none").mkdir()
    with pytest.raises(ReportError):
        retrain_best(tmp_path / "none", {}, None)


def test_compare_orders_rows_by_retrain_accuracy(make_harness):
    runs = []
    for i, name in enumerate(["alpha", "beta", "gamma"]):
        harness = completed_run(make_harness, name, seed=20 + i)
        harness_label = harness
        engine, settings = retrain_engine(harness, harness.run_dir)
        retrain_best(harness.run_dir, settings, engine, master_seed=20 + i)
        runs.append(harness)
    rows, text, csv_text = compare([h.run_dir for h in runs])
    accs = [row.retrain_acc for row in rows]
    assert accs == sorted(accs, reverse=True)
    assert csv_text.splitlines()[0] == CSV_HEADER
    assert len(csv_text.splitlines()) == 4


def test_compare_csv_deterministic_across_repeats(make_harness):
    a = completed_run(make_harness, "det_a", seed=31)
    b = completed_run(make_harness, "det_b", seed=32)
    for harness in (a, b):
        engine, settings = retrain_engine(harness, harness.run_dir)
        retrain_best(harness.run_dir, settings, engine)
    _, _, csv_1 = compare([a.run_dir, b.run_dir])
    _, _, csv_2 = compare([a.run_dir, b.run_dir])
    assert csv_1.encode() == csv_2.encode()


def test_compare_refuses_mixed_settings(make_harness):
    from evonas.config import TrainerSettings

    a = completed_run(make_harness, "mix_a", seed=41)
    b = completed_run(make_harness, "mix_b", seed=42, train=TrainerSettings(total_epoch=25))
    with pytest.raises(ReportError, match="different trainer settings"):
        compare([a.run_dir, b.run_dir])


def test_compare_allow_mixed_flags_rows(make_harness):
    from evonas.config import TrainerSettings

    a = completed_run(make_harness, "mixok_a", seed=43)
    b = completed_run(make_harness, "mixok_b", seed=44)
    c = completed_run(make_harness, "mixok_c", seed=45, train=TrainerSettings(total_epoch=25))
    rows, text, csv_text = compare([a.run_dir, b.run_dir, c.run_dir], allow_mixed=True)
    flagged = [row.mixed for row in rows]
    assert sum(flagged) == 1  # only the odd one out
    assert "mixed-settings" in text
    assert csv_text.splitlines()[0] == CSV_HEADER  # schema unchanged by flagging


def test_csv_na_fields_for_partial_rows(make_harness):
    harness = completed_run(make_harness, "partial")
    rows, _, csv_text = compare([harness.run_dir])
    line = csv_text.splitlines()[1]
    fields = line.split(",")
    assert fields[2] == "NA"  # retrain column
    assert fields[0] == "test_run"


def test_gpu_days_definition(tmp_path):
    # 4 slots busy for a total of 24 slot-hours -> exactly one gpu-day
    from evonas.report import accounting

    run_dir = tmp_path / "gd"
    run_dir.mkdir()
    lines = []
    for i in range(24):
        lines.append(f"indi_gen00_no{i:02d} {'a' * 56} {3600.0:.6f}")
    (run_dir / "durations.txt").write_text("\n".join(lines) + "\n")
    evaluations, gpu_days = accounting(run_dir)
    assert evaluations == 24
    assert f"{gpu_days:.2f}" == "1.00"
