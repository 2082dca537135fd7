"""Fair-comparison reports across completed runs.

Each run directory contributes one row: search-phase accuracy of its best
architecture, retrain accuracy (when a retrain was performed), analytic
parameter and multiply-accumulate counts, GPU-days, and the number of backend
fitness evaluations. Rows sort by retrain accuracy, best first.

Comparing runs whose trainer-settings digests differ is refused unless
explicitly overridden, in which case the text table flags the offending rows;
the CSV schema stays fixed either way::

    algorithm,search_acc,retrain_acc,params,flops,gpu_days,evaluations
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass
from pathlib import Path

from .arch import flop_count, param_count
from .backends import decode_from_settings
from .bus import DURATIONS_FILE
from .cache import write_atomic
from .errors import ReportError
from .evaluator import job_spec
from .evo.individual import Individual
from .runner import RunState, SETTINGS_FILE, list_generations, load_latest_population

logger = logging.getLogger(__name__)

CSV_HEADER = "algorithm,search_acc,retrain_acc,params,flops,gpu_days,evaluations"
RETRAIN_FILE = "retrain.txt"
RETRAIN_SUFFIX = "_retrain"
SECONDS_PER_DAY = 86_400.0


@dataclass
class ComparisonRow:
    algorithm: str
    search_acc: float | None
    retrain_acc: float | None
    params: int | None
    flops: int | None
    gpu_days: float
    evaluations: int
    partial: bool = False
    mixed: bool = False
    digest: str = ""

    def cells(self) -> list[str]:
        """The row's values in ``CSV_HEADER`` order: NA for a missing one, two decimals for
        accuracies and GPU-days."""

        def num(v, fmt="{:.2f}"):
            return "NA" if v is None else fmt.format(v)

        return [
            self.algorithm,
            num(self.search_acc),
            num(self.retrain_acc),
            num(self.params, "{}"),
            num(self.flops, "{}"),
            num(self.gpu_days),
            str(self.evaluations),
        ]


def read_settings(run_dir: Path) -> dict[str, str]:
    path = run_dir / SETTINGS_FILE
    if not path.exists():
        raise ReportError(f"{run_dir} has no settings snapshot; was the run started here?")
    out: dict[str, str] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


def run_digest(run_dir: Path) -> str:
    path = run_dir / SETTINGS_FILE
    if not path.exists():
        raise ReportError(f"{run_dir} has no settings snapshot")
    return hashlib.sha224(path.read_bytes()).hexdigest()


def _decode_best(run_dir: Path) -> tuple[Individual, int, int]:
    t, pop = load_latest_population(run_dir)
    best = pop.best()
    ir = decode_from_settings(best.genotype, read_settings(run_dir))
    return best, param_count(ir), flop_count(ir)


def accounting(run_dir: Path) -> tuple[int, float]:
    """(search-phase evaluations, total GPU-days) from the duration ledger."""
    path = run_dir / DURATIONS_FILE
    evaluations = 0
    total_seconds = 0.0
    if path.exists():
        for line in path.read_text(encoding="utf-8").splitlines():
            fields = line.split()
            if len(fields) != 3:
                continue
            name, _, duration = fields
            total_seconds += float(duration)
            if not name.endswith(RETRAIN_SUFFIX):
                evaluations += 1
    return evaluations, total_seconds / SECONDS_PER_DAY


def load_retrain(run_dir: Path) -> float | None:
    path = run_dir / RETRAIN_FILE
    if not path.exists():
        return None
    for line in path.read_text(encoding="utf-8").splitlines():
        fields = dict(part.split("=", 1) for part in line.split(";") if "=" in part)
        if "fit" in fields:
            return float(fields["fit"])
    return None


def summarize_run(run_dir: Path | str) -> ComparisonRow:
    run_dir = Path(run_dir)
    if not list_generations(run_dir):
        raise ReportError(f"{run_dir} contains no completed generations")
    state = RunState.load(run_dir)
    best, params, flops = _decode_best(run_dir)
    evaluations, gpu_days = accounting(run_dir)
    retrain = load_retrain(run_dir)
    return ComparisonRow(
        algorithm=state.algorithm or run_dir.name,
        search_acc=100.0 * best.fitness0,
        retrain_acc=retrain,
        params=params,
        flops=flops,
        gpu_days=gpu_days,
        evaluations=evaluations,
        partial=bool(state.is_running) or retrain is None,
        digest=run_digest(run_dir),
    )


def retrain_best(run_dir: Path | str, retrain_settings: dict[str, str], engine, master_seed: int = 0) -> tuple[str, float]:
    """Re-dispatch the best individual of a completed run under retrain settings.

    The retrain phase bypasses the fitness cache (its epoch budget differs
    from the search phase) and writes its outcome to ``retrain.txt``,
    replacing the outcome of any earlier retrain.
    """
    run_dir = Path(run_dir)
    if not list_generations(run_dir):
        raise ReportError(f"{run_dir} has no completed run to retrain from")
    _, pop = load_latest_population(run_dir)
    best = pop.best()
    job = job_spec(best.name + RETRAIN_SUFFIX, best.identifier, best.genotype, retrain_settings, master_seed)
    result = engine.run_jobs([job])[job.name]
    if not result.ok:
        raise ReportError(f"retrain job failed: {result.error}")
    line = f"name={best.name};fit={result.value:.2f};epochs={job.epochs}\n"
    write_atomic(run_dir / RETRAIN_FILE, line)
    return best.name, result.value


def compare(run_dirs: list[Path | str], allow_mixed: bool = False) -> tuple[list[ComparisonRow], str, str]:
    """Build the comparison report; returns (rows, text table, csv text)."""
    if not run_dirs:
        raise ReportError("no run directories given")
    rows = [summarize_run(d) for d in run_dirs]
    digests = {row.digest for row in rows}
    if len(digests) > 1:
        if not allow_mixed:
            raise ReportError(
                "refusing to compare runs with different trainer settings "
                f"({len(digests)} distinct digests); pass allow_mixed to override"
            )
        majority = max(digests, key=lambda d: sum(1 for r in rows if r.digest == d))
        for row in rows:
            row.mixed = row.digest != majority
    rows.sort(key=lambda r: (r.retrain_acc is None, -(r.retrain_acc or 0.0), r.algorithm))
    return rows, render_text(rows), render_csv(rows)


def render_csv(rows: list[ComparisonRow]) -> str:
    return CSV_HEADER + "\n" + "".join(",".join(row.cells()) + "\n" for row in rows)


def render_text(rows: list[ComparisonRow]) -> str:
    headers = ["algorithm", "search", "retrain", "params", "flops", "gpu_days", "evals", "notes"]
    table = [headers]
    for row in rows:
        notes = [note for note, flagged in (("partial", row.partial), ("mixed-settings", row.mixed)) if flagged]
        table.append(row.cells() + [",".join(notes) or "-"])
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in table]
    lines.insert(1, "-" * len(lines[0]))
    lines.append("flops are multiply-accumulates; accuracy columns are percent")
    return "\n".join(lines) + "\n"
