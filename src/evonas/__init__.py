"""evonas: a crash-recoverable, distributed benchmarking orchestrator for
evolutionary neural architecture search.

Pluggable search strategies evolve architecture genotypes; fitness jobs run in
parallel across worker slots (simulated, local, or remote) behind a hash-keyed
result cache; population logs make every run resumable; and the comparer
tabulates accuracy, parameters, FLOPs, and GPU-days across runs executed under
identical data and trainer settings.
"""

from . import arch, evo
from .backends import CommandBackend, LookupBackend, SurrogateBackend, build_backend
from .bus import InProcessBus, Listener, LogRecord, ProcessRecord
from .cache import ResultCache
from .config import BackendConfig, GlobalConfig, TrainerSettings
from .engine import ThreadedEngine, local_runner
from .evaluator import Evaluator
from .jobs import JobResult, JobSpec
from .remote import TcpTransport, WorkerAgent
from .runner import Runner, load_latest_population, save_population
from .simfarm import SimulatedFarm
from .slots import SlotStore

__version__ = "0.1.0"

__all__ = [
    "BackendConfig",
    "CommandBackend",
    "Evaluator",
    "GlobalConfig",
    "InProcessBus",
    "JobResult",
    "JobSpec",
    "Listener",
    "LogRecord",
    "LookupBackend",
    "ProcessRecord",
    "ResultCache",
    "Runner",
    "SimulatedFarm",
    "SlotStore",
    "SurrogateBackend",
    "TcpTransport",
    "ThreadedEngine",
    "TrainerSettings",
    "WorkerAgent",
    "arch",
    "build_backend",
    "evo",
    "load_latest_population",
    "local_runner",
    "save_population",
]
