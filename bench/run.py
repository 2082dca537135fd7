"""evonas benchmark: closed-loop search workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 bench/run.py --workload nsga2_wide --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics.
``--workload all`` runs every workload in a process of its own. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The one list of workloads and of the metrics each mode reports, with their units.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _units(key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[key]}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Import evonas from this checkout's ``src`` tree, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "evonas" / "__init__.py").is_file():
        raise SystemExit(f"error: no evonas sources under {src}")
    sys.path.insert(0, str(src))
    import evonas

    if Path(evonas.__file__).resolve().parent != src / "evonas":
        raise SystemExit(f"error: imported evonas from {evonas.__file__}, not from {src}")


def _pin_to_one_cpu() -> None:
    """Keep the workload's threads on one CPU.

    On a virtual machine shared with other tenants, a thread woken on another
    virtual CPU waits until the hypervisor runs that CPU, and that wait
    follows the other tenants' load. On a 2-vCPU VM, ga_tcp's throughput
    followed the hypervisor's steal time (585-675 evaluations/s at 0-2%
    steal, 520 at 4%, 410 at 11%) when free to use both CPUs, and stayed at
    900-1080 pinned. The work itself is one process under one interpreter lock.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_one(args) -> int:
    _pin_to_one_cpu()
    _import_program()
    import harness
    import layers
    from tracing import Tracer

    workload = harness.WORKLOADS[args.workload]
    scratch = ROOT / ".bench_tmp" / f"pid{os.getpid()}"
    scratch.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    try:
        m = harness.measure(workload, args.seed, args.seconds, scratch, tracer, layers.instrument)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:  # another invocation is still using it
            pass
        for thread in threading.enumerate():
            if thread is not threading.current_thread():
                thread.join(10.0)

    w = workload
    print(
        f"workload {w.name}: {w.strategy}, pop {w.pop_size}, {w.runs} search runs x {w.max_gen} generations "
        f"per pass, {w.slots} slots {'on a loopback TCP worker' if w.tcp else 'on the simulated farm'}; "
        f"seed {args.seed}; {len(m.untraced)} untraced and {w.runs * len(m.traced)} traced search runs"
    )
    print(
        f"  host factor {m.host_factor:.4f}: the calibration loop took {m.host_factor * harness.REFERENCE_MS:.4f} ms "
        f"against {harness.REFERENCE_MS} ms at the reference speed; end-to-end times are divided by it"
    )
    if args.trace:
        metrics = layers.layer_metrics(tracer, m)
        units = _units("per_layer")
        spans = ROOT / ".bench_out" / f"spans-{w.name}-seed{args.seed}.jsonl.gz"
        tracer.write(spans)
        print(f"  spans written to {spans.relative_to(ROOT)}")
    else:
        metrics, samples = harness.end_to_end(m)
        units = _units("end_to_end")
    for name, value in metrics.items():
        note = "" if args.trace else f"  (n={samples[name]})"
        print(f"  {name:<40} {value:>14.6g} {units[name]}{note}")
    for problem in m.problems:
        print(f"  FAILED CHECK: {problem}")
    print(json.dumps({
        "correct": not m.problems,
        "attempted": m.evaluations,
        "failed": m.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so set-up time and peak RSS are its own."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with status {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
