"""Exception hierarchy shared across the package."""


class EvoNasError(Exception):
    """Base class for all errors raised by this package."""


class InvariantViolation(EvoNasError):
    """A domain object violates one of its structural invariants."""


class DecodeError(EvoNasError):
    """A genotype cannot be decoded into a valid architecture."""


class SchemeError(EvoNasError):
    """An operator was applied across incompatible encoding schemes."""


class ConfigError(EvoNasError):
    """A configuration file or parameter set is invalid.

    ``field`` names the config dataclass field at fault, if one is; the INI
    parser reports such an error at the section and key the value came from.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field
        self.reason = message


class MutationStuckError(EvoNasError):
    """Mutation failed to produce a valid genotype within the retry budget."""


class EvaluationOrderError(EvoNasError):
    """An operation that requires evaluated individuals saw an unevaluated one."""


class PersistError(EvoNasError):
    """Durable state could not be written."""


class RestartError(EvoNasError):
    """A run directory is not in a resumable state."""


class CorruptLogError(RestartError):
    """A population log failed verification on load."""


class LookupMiss(EvoNasError):
    """A lookup-table backend has no entry for the requested identifier."""


class JobFailed(EvoNasError):
    """A fitness job failed (nonzero exit, missing output, or timeout)."""

    def __init__(self, message: str, log_tail: str = ""):
        super().__init__(message)
        self.log_tail = log_tail


class WorkerLostError(EvoNasError):
    """A worker became unreachable while owning in-flight work."""


class ReportError(EvoNasError):
    """A comparison report could not be produced from the given run dirs."""
