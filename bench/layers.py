"""Which evonas functions the traced run wraps, and the per-layer metrics made from their spans.

Every count and time is per pass, so that counts repeat exactly for one seed.
"""

from __future__ import annotations

import json
from collections import defaultdict

import evonas.arch.genotype as genotype
import evonas.arch.ir as ir
import evonas.evo.operators as operators
import evonas.evo.pareto as pareto
import evonas.remote as remote
from evonas.backends import SurrogateBackend
from evonas.bus import InProcessBus, Listener
from evonas.cache import ResultCache
from evonas.engine import ThreadedEngine
from evonas.evaluator import Evaluator
from evonas.evo.strategies import STRATEGIES
from evonas.simfarm import SimulatedFarm
from evonas.slots import SlotStore

from harness import Measurement, host_factor
from stats import percentile
from tracing import END, INFO, NAME, SID, START, Tracer


def _frame_bytes(args, result) -> int:
    return len(json.dumps(args[1], separators=(",", ":")).encode("utf-8")) + remote._HEADER.size


def instrument(tracer: Tracer) -> None:
    """Wrap each layer's entry points at the names their callers resolve."""
    for name, fn, info in (
        ("pareto.crowding_select", pareto.crowding_select, lambda a, r: len(a[0]) + len(a[1])),
        ("pareto.nondominated_sort", pareto.nondominated_sort, None),
        ("pareto.crowding_distance", pareto.crowding_distance, None),
        ("operators.aging_step", operators.aging_step, None),
        ("arch.decode", ir.decode, None),
        ("arch.param_count", ir.param_count, None),
        ("arch.flop_count", ir.flop_count, None),
        ("arch.identifier", genotype.identifier, None),
        ("arch.canonical_text", genotype.canonical_text, None),
        ("arch.parse_canonical", genotype.parse_canonical, None),
        ("remote.send_msg", remote.send_msg, _frame_bytes),
    ):
        tracer.patch_function(name, fn, info)
    for cls in STRATEGIES.values():
        if "advance" in vars(cls):
            tracer.patch_method("strategies.advance", cls, "advance")
    for name, cls, attr, info in (
        ("evaluator.evaluate_population", Evaluator, "evaluate_population", None),
        ("evaluator.params_of", Evaluator, "params_of", None),
        ("cache.lookup", ResultCache, "lookup", lambda a, r: r is not None),
        ("cache.insert", ResultCache, "insert", lambda a, r: r),
        ("bus.publish", InProcessBus, "publish", None),
        ("bus.drain", Listener, "drain", lambda a, r: r),
        ("slots.acquire", SlotStore, "acquire", lambda a, r: r is not None),
        ("slots.acquire_wait", SlotStore, "acquire_wait", lambda a, r: r is not None),
        ("slots.release", SlotStore, "release", None),
        ("simfarm.run_jobs", SimulatedFarm, "run_jobs", lambda a, r: len(a[1])),
        ("engine.run_jobs", ThreadedEngine, "run_jobs", lambda a, r: len(a[1])),
        ("remote.run_job", remote.TcpTransport, "run_job", None),
        ("backends.evaluate", SurrogateBackend, "evaluate", None),
    ):
        tracer.patch_method(name, cls, attr, info)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, m: Measurement) -> dict[str, float]:
    """Per-layer metrics from the traced passes of ``m``."""
    n = len(m.traced)
    spans = defaultdict(list)
    for span in tracer.spans:
        spans[span[NAME]].append(span)
    own = tracer.self_times()
    advance_own = tracer.minus_descendants("strategies.advance", "evaluator.evaluate_population")

    def calls(name):
        return len(spans[name]) / n

    def ms(name):
        return 1e3 * sum(s[END] - s[START] for s in spans[name]) / n

    def self_ms(name):
        return 1e3 * sum(own[s[SID]] for s in spans[name]) / n

    def ms_at(name, p):
        durations = [1e3 * (s[END] - s[START]) for s in spans[name]]
        return percentile(durations, p) if durations else 0.0

    def info_sum(name):
        return sum(s[INFO] for s in spans[name] if not isinstance(s[INFO], str))

    traced_runs = [r for p in m.traced for r in p]
    untraced_passes = len(m.untraced) / m.workload.runs
    farms = [r for r in traced_runs if r.simulated]
    jobs = sum(r.jobs for r in traced_runs)
    attempts = sum(r.attempts for r in traced_runs)
    batches = len(spans["simfarm.run_jobs"]) + len(spans["engine.run_jobs"])
    remote_jobs = len(spans["remote.run_job"])
    untraced_s = sum(r.search_s for r in m.untraced) / untraced_passes / m.host_factor
    traced_s = sum(r.search_s for r in traced_runs) / n / host_factor(traced_runs)
    return {
        "pareto.crowding_select.calls": calls("pareto.crowding_select"),
        "pareto.crowding_select.ms_p50": ms_at("pareto.crowding_select", 50),
        "pareto.nondominated_sort.ms": ms("pareto.nondominated_sort"),
        "pareto.crowding_distance.ms": ms("pareto.crowding_distance"),
        "pareto.pool_size.mean": _ratio(info_sum("pareto.crowding_select"), len(spans["pareto.crowding_select"])),
        "strategies.advance.calls": calls("strategies.advance"),
        "strategies.advance.self_ms": 1e3 * sum(advance_own.values()) / n,
        "operators.aging_step.calls": calls("operators.aging_step"),
        "evaluator.evaluate_population.calls": calls("evaluator.evaluate_population"),
        "evaluator.evaluate_population.self_ms": self_ms("evaluator.evaluate_population"),
        "evaluator.jobs_per_batch.mean": _ratio(
            info_sum("simfarm.run_jobs") + info_sum("engine.run_jobs"), batches
        ),
        "evaluator.params_of.calls": calls("evaluator.params_of"),
        "evaluator.params_of.ms": ms("evaluator.params_of"),
        "arch.decode.calls": calls("arch.decode"),
        "arch.decode.ms": ms("arch.decode"),
        "arch.param_count.ms": ms("arch.param_count"),
        "arch.flop_count.ms": ms("arch.flop_count"),
        "arch.identifier.calls": calls("arch.identifier"),
        "arch.identifier.ms": ms("arch.identifier"),
        "arch.canonical_text.calls": calls("arch.canonical_text"),
        "arch.parse_canonical.calls": calls("arch.parse_canonical"),
        "cache.lookup.calls": calls("cache.lookup"),
        "cache.lookup.hit_ratio": _ratio(info_sum("cache.lookup"), len(spans["cache.lookup"])),
        "cache.insert.calls": calls("cache.insert"),
        "cache.insert.written_ratio": _ratio(info_sum("cache.insert"), len(spans["cache.insert"])),
        "cache.insert.ms": ms("cache.insert"),
        "bus.publish.calls": calls("bus.publish"),
        "bus.drain.calls": calls("bus.drain"),
        "bus.drain.records": info_sum("bus.drain") / n,
        "bus.drain.ms": ms("bus.drain"),
        "slots.acquire.calls": calls("slots.acquire"),
        "slots.acquire.grant_ratio": _ratio(info_sum("slots.acquire"), len(spans["slots.acquire"])),
        "slots.acquire_wait.calls": calls("slots.acquire_wait"),
        "slots.acquire_wait.wait_ms_p50": ms_at("slots.acquire_wait", 50),
        "slots.acquire_wait.wait_ms_p99": ms_at("slots.acquire_wait", 99),
        "slots.release.calls": calls("slots.release"),
        "simfarm.run_jobs.calls": calls("simfarm.run_jobs"),
        "simfarm.run_jobs.self_ms": self_ms("simfarm.run_jobs"),
        "simfarm.attempts": sum(r.attempts for r in farms) / n,
        "simfarm.busy_virtual_s": sum(r.busy_s for r in farms) / n,
        "simfarm.idle_virtual_s": sum(m.workload.slots * r.makespan_s - r.busy_s for r in farms) / n,
        "engine.run_jobs.calls": calls("engine.run_jobs"),
        "engine.run_jobs.ms": ms("engine.run_jobs"),
        "engine.retries": (attempts - jobs) / n,
        "remote.run_job.calls": calls("remote.run_job"),
        "remote.run_job.ms_p50": ms_at("remote.run_job", 50),
        "remote.run_job.ms_p99": ms_at("remote.run_job", 99),
        "remote.frames_per_job": _ratio(len(spans["remote.send_msg"]), remote_jobs),
        "remote.bytes_per_job": _ratio(info_sum("remote.send_msg"), remote_jobs),
        "backends.evaluate.calls": calls("backends.evaluate"),
        "backends.evaluate.ms": ms("backends.evaluate"),
        "trace.overhead_ratio": traced_s / untraced_s - 1.0,
        "trace.untraced_s": untraced_s,
        "trace.spans": len(tracer.spans) / n,
    }

