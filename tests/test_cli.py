import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

import evonas
from evonas.cli import main
from evonas.report import CSV_HEADER

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
    # a second invocation replays from the cache without changing the logs
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
