"""Dispatchable fitness-evaluation units and their results."""

from __future__ import annotations

from dataclasses import dataclass, field

from .arch.genotype import Genotype, parse_canonical


@dataclass(frozen=True)
class JobSpec:
    """One fitness evaluation: a genotype payload plus the trainer snapshot.

    ``payload`` is the canonical genotype text, the only form of the genotype
    that leaves the process (workers and external trainers parse it),
    ``settings`` the flattened trainer/backend/decode parameters, and
    ``epochs`` the phase's epoch budget. ``built_from`` is the genotype
    ``payload`` was written from, when the job was built in this process; it
    is never sent, so a job rebuilt by ``from_message`` has none.
    """

    name: str
    identifier: str
    payload: str
    backend: str
    settings: dict[str, str] = field(default_factory=dict)
    seed: int = 0
    epochs: int = 1
    built_from: Genotype | None = field(default=None, compare=False, repr=False)

    @property
    def genotype(self) -> Genotype:
        """The job's genotype: ``built_from``, else ``payload`` parsed anew."""
        return self.built_from if self.built_from is not None else parse_canonical(self.payload)

    def to_message(self) -> dict:
        return {
            "type": "job",
            "name": self.name,
            "identifier": self.identifier,
            "payload": self.payload,
            "backend": self.backend,
            "settings": self.settings,
            "seed": self.seed,
            "epochs": self.epochs,
        }

    @staticmethod
    def from_message(msg: dict, settings: dict[str, str]) -> "JobSpec":
        """The job a ``job`` frame names, under ``settings``: the frame's own, or those its
        connection carries when the frame sends none."""
        return JobSpec(
            name=msg["name"],
            identifier=msg["identifier"],
            payload=msg["payload"],
            backend=msg["backend"],
            settings=settings,
            seed=int(msg.get("seed", 0)),
            epochs=int(msg.get("epochs", 1)),
        )


@dataclass(frozen=True)
class JobResult:
    name: str
    identifier: str
    value: float  # fitness as percent in [0, 100], quantized to 2 decimals
    duration_s: float
    ok: bool = True
    error: str = ""
