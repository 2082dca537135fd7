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
from .bus import FitnessRecord, InProcessBus, Listener, LogRecord, ProcessRecord, kill_all
from .cache import ResultCache
from .config import BackendConfig, GlobalConfig, TrainerSettings
from .engine import ThreadedEngine, local_runner
from .evaluator import Evaluator
from .jobs import JobResult, JobSpec
from .remote import TcpTransport, WorkerAgent, poll_workers
from .runner import Runner, load_latest_population, save_population
from .simfarm import SimulatedFarm
from .slots import SlotStore, WorkerDescriptor

__version__ = "0.1.0"

__all__ = [
    "BackendConfig",
    "CommandBackend",
    "Evaluator",
    "FitnessRecord",
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
    "WorkerDescriptor",
    "arch",
    "build_backend",
    "evo",
    "kill_all",
    "load_latest_population",
    "local_runner",
    "poll_workers",
    "save_population",
]
