import hashlib
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

import evonas
import evonas.cli
from evonas.cli import main
from evonas.report import CSV_HEADER
from evonas.runner import RunState, list_generations

GLOBAL_INI = """\
[algorithm]
name = {name}
run_algorithm = elitist_ga
max_gen = 3
pop_size = 4
seed = {seed}
"""

TRAIN_INI = """\
[optimizer]
_optimizer_name = SGD
_batch_size = 64
_total_epoch = {epochs}

[LearningRate]
lr = 0.025
lr_strategy = CosineAnnealingLR

[dataset]
_name = cifar10
"""


def write_configs(tmp_path, name="demo", seed=7, epochs=50, extra_train=""):
    g = tmp_path / f"{name}_global.ini"
    t = tmp_path / f"{name}_train.ini"
    g.write_text(GLOBAL_INI.format(name=name, seed=seed), encoding="utf-8")
    t.write_text(TRAIN_INI.format(epochs=epochs) + extra_train, encoding="utf-8")
    return g, t


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_run_verb_completes_and_resumes(tmp_path, capsys):
    g, t = write_configs(tmp_path)
    code = run_cli("run", "--global-config", g, "--train-config", t, "--run-root", tmp_path / "runs")
    assert code == 0
    out = capsys.readouterr().out
    assert "best indi_gen" in out
    assert (tmp_path / "runs" / "demo" / "begin_2.txt").exists()
    # a second invocation goes on from the newest log without changing the logs
    before = (tmp_path / "runs" / "demo" / "begin_2.txt").read_bytes()
    assert run_cli("run", "--global-config", g, "--train-config", t, "--run-root", tmp_path / "runs") == 0
    assert (tmp_path / "runs" / "demo" / "begin_2.txt").read_bytes() == before


def run_files(run_dir):
    return {path.name: path.read_bytes() for path in sorted(run_dir.iterdir())}


def test_run_leaves_exactly_the_documented_run_files(tmp_path):
    """The files of README's "Run directory layout", and nothing else."""
    g, t = write_configs(tmp_path)
    assert run_cli("run", "--global-config", g, "--train-config", t, "--run-root", tmp_path / "runs") == 0
    assert set(run_files(tmp_path / "runs" / "demo")) == {
        "run_state.txt", "settings.txt", "begin_0.txt", "begin_1.txt", "begin_2.txt",
        "cache.txt", "results.txt", "durations.txt",
    }


@pytest.mark.parametrize("no_cache", [False, True])
def test_resume_under_changed_settings_is_refused_before_writing(tmp_path, capsys, no_cache):
    flags = ["--no-cache"] if no_cache else []
    g, t = write_configs(tmp_path, epochs=50)
    assert run_cli("run", "--global-config", g, "--train-config", t, "--run-root", tmp_path / "runs", *flags) == 0
    before = run_files(tmp_path / "runs" / "demo")
    g, t = write_configs(tmp_path, epochs=25)
    code = run_cli("run", "--global-config", g, "--train-config", t, "--run-root", tmp_path / "runs", *flags)
    assert code == 2
    assert "changed settings" in capsys.readouterr().err
    assert run_files(tmp_path / "runs" / "demo") == before  # settings.txt included


SEARCH_INI = """\
[algorithm]
name = fork
run_algorithm = {strategy}
max_gen = {max_gen}
pop_size = {pop_size}
seed = {seed}
"""


def write_search(path, max_gen=10, pop_size=20, seed=7, strategy="elitist_ga", extra=""):
    text = SEARCH_INI.format(max_gen=max_gen, pop_size=pop_size, seed=seed, strategy=strategy)
    path.write_text(text + extra, encoding="utf-8")
    return path


def interrupt_after(monkeypatch, argv, generation):
    """Run ``argv`` with a Ctrl-C right after ``begin_<generation>.txt`` is saved."""
    save = evonas.cli.Runner._save

    def interrupting_save(runner, t, pop):
        save(runner, t, pop)
        if t == generation:
            raise KeyboardInterrupt

    with monkeypatch.context() as patch:
        patch.setattr(evonas.cli.Runner, "_save", interrupting_save)
        assert run_cli(*argv) == 130


@pytest.mark.parametrize(
    "changed",
    [
        {"seed": 8, "pop_size": 12},
        {"seed": 8},
        {"pop_size": 12},
        {"extra": "crossover_prob = 0.5\n"},
        {"extra": "mutation_prob = 0.2\n"},
        {"extra": "tournament_size = 3\n"},
        {"extra": "sample_size = 2\n"},
        {"max_gen": 8},
    ],
    ids=["seed_and_pop_size", "seed", "pop_size", "crossover_prob", "mutation_prob", "tournament_size",
         "sample_size", "lower_max_gen"],
)
def test_resume_under_changed_search_settings_is_refused_before_writing(tmp_path, capsys, monkeypatch, changed):
    """An elitist_ga run (pop 20 x 10, seed 7) interrupted after generation 5 keeps its search settings."""
    g, t = write_configs(tmp_path)
    argv = ("run", "--global-config", write_search(g), "--train-config", t, "--run-root", tmp_path / "runs")
    interrupt_after(monkeypatch, argv, 5)
    run_dir = tmp_path / "runs" / "fork"
    before = run_files(run_dir)
    capsys.readouterr()
    write_search(g, **changed)
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "refusing to rerun it under changed settings" in err and "Traceback" not in err
    for key in changed:
        assert (key if key != "extra" else changed[key].split()[0]) in err
    assert run_files(run_dir) == before
    write_search(g)  # the recorded settings resume it
    assert run_cli(*argv) == 0
    assert [len((run_dir / f"begin_{t}.txt").read_text().splitlines()) for t in range(10)] == [20] * 10


def test_resume_under_another_strategy_of_the_same_space_is_refused_before_writing(tmp_path, capsys, monkeypatch):
    """variable_ga and nsga2 search one space under equal trainer settings; only run_state.txt tells them apart."""
    g, t = write_configs(tmp_path)
    argv = ("run", "--global-config", write_search(g, strategy="variable_ga"), "--train-config", t,
            "--run-root", tmp_path / "runs")
    interrupt_after(monkeypatch, argv, 2)
    before = run_files(tmp_path / "runs" / "fork")
    write_search(g, strategy="nsga2")
    assert run_cli(*argv) == 2
    assert "strategy variable_ga -> nsga2" in capsys.readouterr().err
    assert run_files(tmp_path / "runs" / "fork") == before


@pytest.mark.parametrize(
    "strategy, interrupted",
    [
        pytest.param("elitist_ga", False, id="finished"),
        pytest.param("elitist_ga", True, id="interrupted"),
        pytest.param("aging_evolution", False, id="aging_evolution-finished"),
        pytest.param("aging_evolution", True, id="aging_evolution-interrupted"),
        pytest.param("nsga2", False, id="nsga2-finished"),
        pytest.param("nsga2", True, id="nsga2-interrupted"),
    ],
)
def test_raising_max_gen_extends_a_run_as_if_it_had_been_set_from_the_start(
    tmp_path, monkeypatch, strategy, interrupted
):
    """``max_gen`` only says where the trajectory stops, so it may be raised; lowering it is refused.
    The extension goes on from the newest log: aging reloads its lag history, nsga2 its params objective."""
    g, t = write_configs(tmp_path)
    argv = ("run", "--global-config", write_search(g, max_gen=3, pop_size=6, strategy=strategy),
            "--train-config", t, "--run-root", tmp_path / "runs")
    if interrupted:
        interrupt_after(monkeypatch, argv, 1)
    else:
        assert run_cli(*argv) == 0
    write_search(g, max_gen=5, pop_size=6, strategy=strategy)
    assert run_cli(*argv) == 0
    extended = run_files(tmp_path / "runs" / "fork")
    assert "max_gen=5\n" in extended["run_state.txt"].decode()
    twin_argv = ("run", "--global-config", g, "--train-config", t, "--run-root", tmp_path / "twin")
    assert run_cli(*twin_argv) == 0
    twin = run_files(tmp_path / "twin" / "fork")
    logs = [f"begin_{t}.txt" for t in range(5)]
    assert [extended[name] for name in logs] == [twin[name] for name in logs]
    write_search(g, max_gen=4, pop_size=6, strategy=strategy)
    assert run_cli(*argv) == 2
    assert run_files(tmp_path / "runs" / "fork") == extended


def test_extending_a_finished_aging_run_on_other_slots_is_refused_before_writing(tmp_path, capsys):
    """Aging's trajectory depends on its lag: a finished run on 4 slots (lag 7) extended on 2 (lag 3)
    would fork it, so the rerun exits 2, writes nothing, and names the slot count that resumes it."""
    g, t = write_configs(tmp_path)
    search = write_search(g, max_gen=3, pop_size=6, strategy="aging_evolution")
    argv = ("run", "--global-config", search, "--train-config", t, "--run-root", tmp_path / "runs")
    assert run_cli(*argv, "--local-slots", 4) == 0
    run_dir = tmp_path / "runs" / "fork"
    before = run_files(run_dir)
    write_search(g, max_gen=5, pop_size=6, strategy="aging_evolution")
    capsys.readouterr()
    assert run_cli(*argv, "--local-slots", 2) == 2
    err = capsys.readouterr().err
    assert "at lag 7" in err and "resume it on 4 slot(s)" in err and "Traceback" not in err
    assert run_files(run_dir) == before
    assert run_cli(*argv, "--local-slots", 4) == 0
    assert RunState.load(run_dir).lag == 7 and list_generations(run_dir) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("strategy", ["elitist_ga", "aging_evolution"])
def test_rerun_after_a_ctrl_c_in_generation_0_finishes(tmp_path, capsys, monkeypatch, strategy):
    """A Ctrl-C before ``begin_0.txt`` exists leaves a run that resumes: generation 0 is
    rebuilt from the seed, and the rerun ends with the logs of an uninterrupted twin."""
    g, t = write_configs(tmp_path)
    search = write_search(g, max_gen=3, pop_size=6, strategy=strategy)
    argv = ("run", "--global-config", search, "--train-config", t, "--run-root", tmp_path / "runs")
    run_dir = tmp_path / "runs" / "fork"

    def interrupted_save(runner, t, pop):
        raise KeyboardInterrupt  # generation 0 is evaluated but not yet logged

    with monkeypatch.context() as patch:
        patch.setattr(evonas.cli.Runner, "_save", interrupted_save)
        assert run_cli(*argv) == 130
    assert f"run resumes from {run_dir}" in capsys.readouterr().err
    assert list_generations(run_dir) == [] and RunState.load(run_dir).is_running == 1
    assert run_cli(*argv) == 0
    assert run_cli("run", "--global-config", search, "--train-config", t, "--run-root", tmp_path / "twin") == 0
    logs = [f"begin_{t}.txt" for t in range(3)]
    resumed, twin = run_files(run_dir), run_files(tmp_path / "twin" / "fork")
    assert [resumed[name] for name in logs] == [twin[name] for name in logs]


def test_run_verb_config_error_is_reported(tmp_path, capsys):
    g, t = write_configs(tmp_path)
    g.write_text(g.read_text().replace("elitist_ga", "nonsense"), encoding="utf-8")
    code = run_cli("run", "--global-config", g, "--train-config", t, "--run-root", tmp_path / "runs")
    assert code == 2
    assert "run_algorithm" in capsys.readouterr().err


@pytest.mark.parametrize(
    "strategy, key",
    [("elitist_ga", "tournament_size"), ("variable_ga", "tournament_size"), ("aging_evolution", "sample_size")],
)
def test_selection_size_above_pop_size_is_refused_before_writing(tmp_path, capsys, strategy, key):
    g, t = write_configs(tmp_path)
    g.write_text(g.read_text().replace("elitist_ga", strategy) + f"{key} = 6\n", encoding="utf-8")
    code = run_cli("run", "--global-config", g, "--train-config", t, "--run-root", tmp_path / "runs")
    assert code == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "runs" / "demo").exists()


@pytest.mark.parametrize(
    "workers", ["127.0.0.1:1=abc", "127.0.0.1:1=0", "127.0.0.1=2", "127.0.0.1:=2", "127.0.0.1:70000=1"]
)
def test_malformed_workers_are_refused_before_writing(tmp_path, capsys, workers):
    g, t = write_configs(tmp_path)
    code = run_cli(
        "run", "--global-config", g, "--train-config", t, "--run-root", tmp_path / "runs", "--workers", workers
    )
    assert code == 2
    assert workers in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_duplicate_worker_address_is_refused_before_writing(tmp_path, capsys):
    g, t = write_configs(tmp_path)
    workers = "127.0.0.1:7070=2,127.0.0.1:7070=3"
    code = run_cli(
        "run", "--global-config", g, "--train-config", t, "--run-root", tmp_path / "runs", "--workers", workers
    )
    assert code == 2
    assert "'127.0.0.1:7070' is listed more than once" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def exit_code(*argv):
    """``main``'s return code, or the code argparse exits with."""
    try:
        return run_cli(*argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "verb, flag",
    [
        ("run", "--local-slots"),
        ("retrain", "--local-slots"),
        ("simulate", "--worker-count"),
        ("simulate", "--slots-per-worker"),
        ("simulate", "--jobs"),
        ("worker", "--slots"),
    ],
)
def test_slot_counts_below_one_are_refused_before_writing(tmp_path, capsys, verb, flag):
    g, t = write_configs(tmp_path)
    required = {
        "run": ["--global-config", g, "--train-config", t, "--run-root", tmp_path / "runs"],
        "retrain": ["--run-dir", tmp_path / "runs" / "demo", "--train-config", t],
        "simulate": [],
        "worker": ["--listen", "127.0.0.1:0"],
    }[verb]
    assert exit_code(verb, *required, flag, 0) == 2
    assert "at least 1, got '0'" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "crash, message",
    [("w0", "needs node@time"), ("w0@x", "needs node@time"), ("@7.0", "needs node@time"),
     ("w0@-1", "must be non-negative"), ("w0@nan", "must be non-negative")],
)
def test_malformed_crash_is_refused_with_a_message(capsys, crash, message):
    assert exit_code("simulate", "--jobs", 4, "--crash", crash) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flag, value, message",
    [("--duration", "-1", "job duration must be non-negative, got -1.0"),
     ("--duration", "nan", "job duration must be non-negative, got nan"),
     ("--overhead", "nan", "dispatch overhead must be non-negative, got nan"),
     ("--jobs", "-2", "at least 1, got '-2'")],
)
def test_simulate_refuses_negative_or_nan_times_and_job_counts(capsys, flag, value, message):
    assert exit_code("simulate", "--jobs", 3, flag, value) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "virtual makespan" not in captured.out


@pytest.mark.parametrize("listen", ["localhost", "localhost:", "localhost:http", "localhost:65536"])
def test_worker_listen_address_without_a_valid_port_is_refused_with_a_message(capsys, listen):
    assert exit_code("worker", "--listen", listen) == 2
    err = capsys.readouterr().err
    assert f"--listen {listen!r} needs host:port with a port in 0..65535" in err
    assert "Traceback" not in err


def test_worker_with_an_unknown_backend_is_refused_before_serving(capsys, monkeypatch):
    served = []
    monkeypatch.setattr(evonas.cli.WorkerAgent, "serve_forever", lambda self: served.append(self))
    assert exit_code("worker", "--listen", "127.0.0.1:0", "--backend", "bogus") == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    assert served == []


def test_malformed_run_state_is_refused_before_writing(tmp_path, capsys):
    g, t = write_configs(tmp_path)
    argv = ("run", "--global-config", g, "--train-config", t, "--run-root", tmp_path / "runs")
    assert run_cli(*argv) == 0
    state = tmp_path / "runs" / "demo" / "run_state.txt"
    state.write_text(state.read_text(encoding="utf-8").replace("lag=0", "lag=zz"), encoding="utf-8")
    before = run_files(tmp_path / "runs" / "demo")
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert f"{state} line 5 is malformed: 'lag=zz'" in err
    assert "Traceback" not in err
    assert run_files(tmp_path / "runs" / "demo") == before


UNKNOWN_PLACEHOLDER = f"{sys.executable} -c \"print('FITNESS=50.00')\" {{nope}}"
UNBALANCED_QUOTE = f"{sys.executable} -c \"print('FITNESS=50.00')"


@pytest.mark.parametrize(
    "command, message, workers",
    [
        (UNKNOWN_PLACEHOLDER, "unknown placeholder {nope}", ()),
        (UNBALANCED_QUOTE, "No closing quotation", ()),
        # the template is filled on the worker, but it is the same on every worker
        (UNKNOWN_PLACEHOLDER, "unknown placeholder {nope}", ("--workers", "127.0.0.1:5=1")),
        (UNBALANCED_QUOTE, "No closing quotation", ("--workers", "127.0.0.1:5=1")),
    ],
    ids=["unknown_placeholder", "unbalanced_quote", "unknown_placeholder_workers", "unbalanced_quote_workers"],
)
def test_unusable_command_template_is_refused_before_writing(tmp_path, capsys, command, message, workers):
    g, t = write_configs(tmp_path, extra_train=f"\n[backend]\nkind = command\ncommand = {command}\n")
    argv = ("run", "--global-config", g, "--train-config", t, "--run-root", tmp_path / "runs", *workers)
    assert run_cli(*argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_missing_lookup_table_is_refused_before_writing(tmp_path, capsys):
    table = tmp_path / "table.csv"
    backend = f"\n[backend]\nkind = lookup\ntable = {table}\nfallback = surrogate\n"
    g, t = write_configs(tmp_path, extra_train=backend)
    argv = ("run", "--global-config", g, "--train-config", t, "--run-root", tmp_path / "runs")
    assert run_cli(*argv) == 2
    assert "table.csv does not exist" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()
    # the same command with the table in place is a fresh start, not a refused resume
    table.write_text("identifier,fitness\n", encoding="utf-8")
    assert run_cli(*argv) == 0


def test_lookup_table_row_without_a_percent_fitness_exits_2_naming_its_line(tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_text(f"identifier,fitness\n{'f' * 56},50.0\n{'e' * 56},n/a\n", encoding="utf-8")
    backend = f"\n[backend]\nkind = lookup\ntable = {table}\nfallback = surrogate\n"
    g, t = write_configs(tmp_path, extra_train=backend)
    assert run_cli("run", "--global-config", g, "--train-config", t, "--run-root", tmp_path / "runs") == 2
    err = capsys.readouterr().err
    assert f"error: {table}:3: fitness 'n/a' is not a number in [0, 100]" in err
    assert "Traceback" not in err


def test_trainer_printing_a_non_finite_fitness_fails_its_job_not_the_run(tmp_path, capsys):
    """Each attempt fails; the job gets the fitness-0.00 give-up and the run ends normally."""
    trainer = f"{sys.executable} -c \"print('FITNESS=nan')\""
    g, t = write_configs(tmp_path, extra_train=f"\n[backend]\nkind = command\ncommand = {trainer}\n")
    assert run_cli("run", "--global-config", g, "--train-config", t, "--run-root", tmp_path / "runs") == 0
    assert "trainer reported a non-finite fitness: nan" in (tmp_path / "runs" / "demo" / "run.log").read_text()
    entries = (tmp_path / "runs" / "demo" / "cache.txt").read_text().splitlines()[1:]
    assert entries and all(entry.endswith(" = 0.00") for entry in entries)


def test_simulate_verb_reports_makespan(capsys):
    code = run_cli(
        "simulate", "--jobs", 10, "--worker-count", 1, "--slots-per-worker", 4,
        "--duration", "1.0", "--trace",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "virtual makespan 3.000s" in out
    assert "finish" in out


def test_simulate_verb_with_crash(capsys):
    code = run_cli(
        "simulate", "--jobs", 4, "--worker-count", 2, "--slots-per-worker", 1,
        "--duration", "5.0", "--crash", "w0@2.0",
    )
    assert code == 0
    assert "virtual makespan" in capsys.readouterr().out


# The README's crash example, byte for byte: job002 is requeued when w0 dies at
# t=7 and runs last on w1.
README_CRASH_SCHEDULE = """\
jobs 8  slots 2  duration 5.0s
virtual makespan 35.000s  attempts 9
  t=   0.000  start    job000     w0:0
  t=   0.000  start    job001     w1:0
  t=   5.000  finish   job000     w0:0
  t=   5.000  start    job002     w0:0
  t=   5.000  finish   job001     w1:0
  t=   5.000  start    job003     w1:0
  t=   7.000  crash               w0:-1
  t=   7.000  requeue  job002     -
  t=  10.000  finish   job003     w1:0
  t=  10.000  start    job004     w1:0
  t=  15.000  finish   job004     w1:0
  t=  15.000  start    job005     w1:0
  t=  20.000  finish   job005     w1:0
  t=  20.000  start    job006     w1:0
  t=  25.000  finish   job006     w1:0
  t=  25.000  start    job007     w1:0
  t=  30.000  finish   job007     w1:0
  t=  30.000  start    job002     w1:0
  t=  35.000  finish   job002     w1:0
"""


def simulate_trace(capsys, *argv) -> str:
    assert run_cli("simulate", *argv, "--trace") == 0
    return capsys.readouterr().out


def test_readme_crash_example_prints_its_pinned_schedule(capsys):
    out = simulate_trace(
        capsys, "--jobs", 8, "--worker-count", 2, "--slots-per-worker", 1, "--duration", 5, "--crash", "w0@7.0"
    )
    assert out == README_CRASH_SCHEDULE


def test_surrogate_durations_schedule_is_pinned(capsys):
    """Surrogate durations, two slots per worker and a crash mid-job: every start,
    finish, crash and requeue at its virtual time, pinned by its digest."""
    out = simulate_trace(
        capsys, "--jobs", 12, "--worker-count", 2, "--slots-per-worker", 2, "--crash", "w1@1.5", "--seed", 4
    )
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "6e513a1bc43694b26182eaf9cea06b70bea8f65c3b004ee8c7ec69775f582f02"
    )


def test_retrain_and_compare_verbs(tmp_path, capsys):
    runs = tmp_path / "runs"
    for name, seed in (("alpha", 1), ("bravo", 2)):
        g, t = write_configs(tmp_path, name=name, seed=seed)
        assert run_cli("run", "--global-config", g, "--train-config", t, "--run-root", runs) == 0
    # retrain each best with a 600-epoch budget
    retrain_ini = tmp_path / "retrain_train.ini"
    retrain_ini.write_text(TRAIN_INI.format(epochs=600), encoding="utf-8")
    for name in ("alpha", "bravo"):
        assert run_cli("retrain", "--run-dir", runs / name, "--train-config", retrain_ini) == 0
        assert "retrained indi_gen" in capsys.readouterr().out
        assert (runs / name / "retrain.txt").exists()

    csv_path = tmp_path / "report.csv"
    code = run_cli("compare", runs / "alpha", runs / "bravo", "--csv", csv_path)
    assert code == 0
    out = capsys.readouterr().out
    assert "algorithm" in out and "gpu_days" in out
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3


def test_compare_verb_refuses_mixed_settings(tmp_path, capsys):
    runs = tmp_path / "runs"
    g1, t1 = write_configs(tmp_path, name="one", seed=1, epochs=50)
    g2, t2 = write_configs(tmp_path, name="two", seed=2, epochs=25)
    assert run_cli("run", "--global-config", g1, "--train-config", t1, "--run-root", runs) == 0
    assert run_cli("run", "--global-config", g2, "--train-config", t2, "--run-root", runs) == 0
    code = run_cli("compare", runs / "one", runs / "two")
    assert code == 2
    assert "different trainer settings" in capsys.readouterr().err
    assert run_cli("compare", runs / "one", runs / "two", "--allow-mixed") == 0


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_worker_subprocess_serves_run(tmp_path, capsys):
    """The worker CLI in a real subprocess, driven by a remote run."""
    port = free_port()
    proc = subprocess.Popen(
        [sys.executable, "-m", "evonas.cli", "worker", "--listen", f"127.0.0.1:{port}", "--slots", "2"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                with socket.create_connection(("127.0.0.1", port), timeout=0.2):
                    break
            except OSError:
                time.sleep(0.05)
        else:
            pytest.fail("worker subprocess never came up")
        g, t = write_configs(tmp_path, name="remote_demo", seed=9)
        code = run_cli(
            "run", "--global-config", g, "--train-config", t,
            "--run-root", tmp_path / "runs", "--workers", f"127.0.0.1:{port}=2",
        )
        assert code == 0
        assert "best indi_gen" in capsys.readouterr().out
        assert (tmp_path / "runs" / "remote_demo" / "begin_2.txt").exists()
    finally:
        proc.terminate()
        proc.wait(timeout=10)


def test_run_and_retrain_close_every_file(tmp_path):
    """Under ``-X dev``, an unclosed file would print a ResourceWarning on stderr."""
    g, t = write_configs(tmp_path)
    retrain_ini = tmp_path / "retrain_train.ini"
    retrain_ini.write_text(TRAIN_INI.format(epochs=600), encoding="utf-8")
    runs = tmp_path / "runs"
    src = str(Path(evonas.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for argv in (
        ["run", "--global-config", g, "--train-config", t, "--run-root", runs],
        ["retrain", "--run-dir", runs / "demo", "--train-config", retrain_ini],
    ):
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "evonas.cli", *map(str, argv)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "ResourceWarning" not in proc.stderr, proc.stderr


TRAINER = """\
import os, sys, time
with open(sys.argv[1], "a") as starts:
    starts.write(f"{os.getpid()} slot {sys.argv[2]}\\n")
time.sleep(0.2 if sys.argv[2] == "0" else 30)
print("FITNESS=50.00")
"""


def test_interrupt_kills_trainers_without_retrying_and_keeps_finished_results(tmp_path):
    """SIGINT to the center while three trainers run and one has finished: the run exits
    promptly with status 130, starts no trainer after the signal, and the finished
    result is in cache.txt."""
    trainer = tmp_path / "trainer.py"
    trainer.write_text(TRAINER, encoding="utf-8")
    starts = tmp_path / "starts.txt"
    g, t = write_configs(
        tmp_path, name="interrupted",
        extra_train=f"\n[backend]\nkind = command\ncommand = {sys.executable} {trainer} {starts} {{slot_id}}\n",
    )
    src = str(Path(evonas.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "evonas.cli", "run", "--global-config", str(g), "--train-config", str(t),
         "--run-root", str(tmp_path / "runs"), "--local-slots", "4"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 30
        while not (starts.exists() and len(starts.read_text().splitlines()) == 4):
            assert time.monotonic() < deadline, "the four trainers never started"
            time.sleep(0.05)
        time.sleep(1.5)  # the slot-0 trainer has finished; the other three sleep on
        signalled = time.monotonic()
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=15)
        elapsed = time.monotonic() - signalled
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 130, err
    assert elapsed < 10
    assert "sent 3 termination command(s)" in err
    assert len(starts.read_text().splitlines()) == 4  # no trainer started after SIGINT
    entries = (tmp_path / "runs" / "interrupted" / "cache.txt").read_text().splitlines()[1:]
    assert len(entries) == 1 and entries[0].endswith(" = 50.00")


BLOCKING_TRAINER = """\
import os, sys, time
while os.path.exists(sys.argv[1]):
    time.sleep(0.02)
print(f"FITNESS={10 + int(sys.argv[2]) % 8000 / 100:.2f}")
"""


def test_center_killed_in_generation_0_resumes_to_the_logs_of_an_uninterrupted_twin(tmp_path):
    """SIGKILL to ``evonas run`` while generation 0's trainers wait on a marker file, before
    ``begin_0.txt`` exists: the same command then runs the search to the twin's logs."""
    trainer = tmp_path / "trainer.py"
    trainer.write_text(BLOCKING_TRAINER, encoding="utf-8")
    marker = tmp_path / "hold"
    marker.touch()
    g, t = write_configs(
        tmp_path, name="killed",
        extra_train=f"\n[backend]\nkind = command\ncommand = {sys.executable} {trainer} {marker} {{seed}}\n",
    )

    def command(run_root):
        return [sys.executable, "-m", "evonas.cli", "run", "--global-config", str(g), "--train-config", str(t),
                "--run-root", str(run_root), "--local-slots", "4"]

    run_dir = tmp_path / "runs" / "killed"
    state = run_dir / "run_state.txt"
    proc = subprocess.Popen(command(tmp_path / "runs"), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30
        while not (state.exists() and "is_running=1\n" in state.read_text(encoding="utf-8")):
            assert time.monotonic() < deadline, "the run never started"
            time.sleep(0.02)
        proc.kill()
        proc.wait(timeout=10)
    finally:
        marker.unlink()  # every trainer of the killed center now ends
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert list_generations(run_dir) == []
    rerun = subprocess.run(command(tmp_path / "runs"), capture_output=True, text=True, timeout=60)
    assert rerun.returncode == 0, rerun.stderr
    twin = subprocess.run(command(tmp_path / "twin"), capture_output=True, text=True, timeout=60)
    assert twin.returncode == 0, twin.stderr
    logs = [f"begin_{t}.txt" for t in range(3)]
    resumed, reference = run_files(run_dir), run_files(tmp_path / "twin" / "killed")
    assert [resumed[name] for name in logs] == [reference[name] for name in logs]


FOURTH_BLOCKS_TRAINER = """\
import hashlib, os, sys, time
starts, finished, marker, payload = sys.argv[1:5]
ident = hashlib.sha224(open(payload, "rb").read()).hexdigest()
with open(starts, "a") as log:
    log.write(f"{os.getpid()} {ident}\\n")
with open(starts) as log:
    order = [line.split()[0] for line in log].index(str(os.getpid()))
while order >= 3 and os.path.exists(marker):  # the fourth trainer to start, and later ones, wait
    time.sleep(0.02)
print(f"FITNESS={10 + int(ident[:4], 16) % 8000 / 100:.2f}", flush=True)
with open(finished, "a") as log:
    log.write(ident + "\\n")
"""


def test_center_killed_mid_batch_keeps_the_trainings_that_finished(tmp_path):
    """SIGKILL to ``evonas run`` once three of generation 0's four trainers have printed their
    fitness and the fourth waits on a marker file: cache.txt holds the three results, and
    the rerun finishes without starting any of the three again."""
    trainer = tmp_path / "trainer.py"
    trainer.write_text(FOURTH_BLOCKS_TRAINER, encoding="utf-8")
    starts, finished, marker = tmp_path / "starts.txt", tmp_path / "finished.txt", tmp_path / "hold"
    marker.touch()
    g, t = write_configs(
        tmp_path, name="killed",
        extra_train=(
            f"\n[backend]\nkind = command\n"
            f"command = {sys.executable} {trainer} {starts} {finished} {marker} {{payload_path}}\n"
        ),
    )
    argv = [sys.executable, "-m", "evonas.cli", "run", "--global-config", str(g), "--train-config", str(t),
            "--run-root", str(tmp_path / "runs"), "--local-slots", "4"]
    cache = tmp_path / "runs" / "killed" / "cache.txt"

    def cached() -> set[str]:
        lines = cache.read_text(encoding="utf-8").splitlines()[1:] if cache.exists() else []
        return {line.split(" = ")[0] for line in lines}

    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30
        while not (finished.exists() and len(finished.read_text().splitlines()) == 3):
            assert time.monotonic() < deadline, "three trainers never finished"
            time.sleep(0.02)
        deadline = time.monotonic() + 10  # the center reads their fitness lines in its own time
        while len(cached()) < 3 and time.monotonic() < deadline:
            time.sleep(0.02)
        proc.kill()
        proc.wait(timeout=10)
    finally:
        marker.unlink()  # the fourth trainer now ends; its fitness reaches no center
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    done = set(finished.read_text().splitlines())
    assert len(done) == 3 and cached() == done
    first_starts = len(starts.read_text().splitlines())
    assert first_starts == 4
    rerun = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert rerun.returncode == 0, rerun.stderr
    started_again = {line.split()[1] for line in starts.read_text().splitlines()[first_starts:]}
    assert started_again and not started_again & done


def test_interrupted_farm_run_frees_every_slot_and_keeps_finished_results(tmp_path, capsys, monkeypatch):
    """Ctrl-C while aging evolution keeps the farm's slots busy: ``run`` exits 130 after one
    termination command per attempt in flight, no slot stays busy, every finished result
    is in cache.txt, and the run then resumes to its end."""
    g, t = write_configs(tmp_path, name="aging")
    g.write_text(GLOBAL_INI.format(name="aging", seed=11).replace("elitist_ga", "aging_evolution"), encoding="utf-8")
    engines = []
    build_engine = evonas.cli.build_engine
    monkeypatch.setattr(evonas.cli, "build_engine", lambda *a, **k: engines.append(build_engine(*a, **k)) or engines[-1])
    save = evonas.cli.Runner._save
    saves = []

    def interrupting_save(runner, t, pop):
        save(runner, t, pop)
        saves.append(t)
        if len(saves) == 2:
            raise KeyboardInterrupt

    runs = tmp_path / "runs"
    argv = ("run", "--global-config", g, "--train-config", t, "--run-root", runs)
    with monkeypatch.context() as patch:
        patch.setattr(evonas.cli.Runner, "_save", interrupting_save)
        assert run_cli(*argv) == 130
    assert capsys.readouterr().err == f"interrupted: sent 4 termination command(s); run resumes from {runs / 'aging'}\n"
    (farm,) = engines
    assert farm.store.idle() == len(farm.store)
    finished = {line.split()[1] for line in (runs / "aging" / "durations.txt").read_text().splitlines()}
    cached = {line.split(" = ")[0] for line in (runs / "aging" / "cache.txt").read_text().splitlines()[1:]}
    assert len(finished) > 4 and cached == finished
    assert run_cli(*argv) == 0
    assert "best indi_gen" in capsys.readouterr().out


RETRAIN_TRAINER = """\
import os, sys, time
with open(sys.argv[1], "w") as pid_file:
    pid_file.write(str(os.getpid()))
time.sleep(30)
print("FITNESS=50.00")
"""


def test_interrupted_retrain_stops_its_trainer_promptly(tmp_path):
    """SIGINT to ``retrain`` while its one trainer runs: status 130 within 10 s after one
    termination command, no traceback or ResourceWarning, and the trainer is gone."""
    g, t = write_configs(tmp_path)
    runs = tmp_path / "runs"
    assert run_cli("run", "--global-config", g, "--train-config", t, "--run-root", runs) == 0
    trainer = tmp_path / "trainer.py"
    trainer.write_text(RETRAIN_TRAINER, encoding="utf-8")
    pid_file = tmp_path / "trainer.pid"
    retrain_ini = tmp_path / "retrain_train.ini"
    retrain_ini.write_text(
        TRAIN_INI.format(epochs=600) + f"\n[backend]\nkind = command\ncommand = {sys.executable} {trainer} {pid_file}\n",
        encoding="utf-8",
    )
    proc = subprocess.Popen(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "evonas.cli",
         "retrain", "--run-dir", str(runs / "demo"), "--train-config", str(retrain_ini)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 30
        while not (pid_file.exists() and pid_file.read_text().isdecimal()):
            assert time.monotonic() < deadline, "the trainer never started"
            time.sleep(0.05)
        trainer_pid = int(pid_file.read_text())
        signalled = time.monotonic()
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=30)
        elapsed = time.monotonic() - signalled
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 130, err
    assert elapsed < 10
    assert "sent 1 termination command(s)" in err
    assert "Traceback" not in err and "ResourceWarning" not in err, err
    with pytest.raises(ProcessLookupError):  # the retrain reaped its trainer before it exited
        os.kill(trainer_pid, 0)
