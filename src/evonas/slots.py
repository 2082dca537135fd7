"""Slot-state store: one record per (node, GPU-index) worker slot.

Acquire/release are atomic transitions under a single lock, so the store can
be hammered by concurrent dispatch tasks without double-granting. Acquisition
is deterministic: the lowest (node, slot) idle pair wins. The slot table is kept
in (node, slot) order, so a scan of it visits slots lowest first. The store
optionally persists itself to a JSON state file on every transition.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable

from .errors import InvariantViolation, PersistError


class SlotStatus(Enum):
    IDLE = "idle"
    BUSY = "busy"
    LOST = "lost"          # node unreachable; never scheduled
    QUARANTINED = "quarantined"  # externally occupied; never scheduled


@dataclass
class SlotState:
    node: str
    slot_id: int
    status: SlotStatus = SlotStatus.IDLE
    job_name: str | None = None
    last_poll: float = 0.0


@dataclass(frozen=True)
class WorkerDescriptor:
    node: str
    slot_count: int
    backends: tuple[str, ...] = ("surrogate",)

    def __post_init__(self) -> None:
        if self.slot_count < 1:
            raise InvariantViolation(f"worker {self.node} needs at least one slot")


class SlotStore:
    def __init__(self, slots: Iterable[tuple[str, int]], state_path: Path | str | None = None):
        table: dict[tuple[str, int], SlotState] = {}
        for node, slot_id in slots:
            key = (node, slot_id)
            if key in table:
                raise InvariantViolation(f"duplicate slot {key}")
            table[key] = SlotState(node, slot_id)
        self._slots = dict(sorted(table.items()))  # keys never change after this
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self.state_path = Path(state_path) if state_path else None
        self._persist_locked()

    @staticmethod
    def for_workers(workers: Iterable[WorkerDescriptor], state_path=None) -> "SlotStore":
        pairs = [(w.node, i) for w in workers for i in range(w.slot_count)]
        return SlotStore(pairs, state_path)

    def _persist_locked(self) -> None:
        if self.state_path is None:
            return
        payload = [
            {"node": s.node, "slot": s.slot_id, "status": s.status.value, "job": s.job_name}
            for s in self._slots.values()
        ]
        tmp = self.state_path.with_suffix(".tmp")
        try:
            tmp.write_text(json.dumps(payload, indent=1), encoding="utf-8")
            tmp.rename(self.state_path)
        except OSError as exc:
            raise PersistError(f"cannot persist slot state: {exc}") from exc

    def _claim_locked(self, job_name: str | None) -> tuple[str, int] | None:
        for key, state in self._slots.items():
            if state.status is SlotStatus.IDLE:
                state.status = SlotStatus.BUSY
                state.job_name = job_name
                self._persist_locked()
                return key
        return None

    def _live_locked(self) -> bool:
        return any(s.status in (SlotStatus.IDLE, SlotStatus.BUSY) for s in self._slots.values())

    def acquire(self, job_name: str | None = None) -> tuple[str, int] | None:
        """Atomically claim the lowest idle (node, slot), or None when all are busy."""
        with self._lock:
            return self._claim_locked(job_name)

    def acquire_wait(self, job_name: str | None = None, timeout: float | None = None) -> tuple[str, int] | None:
        """Block until a slot can be claimed; None only on timeout or no live slots."""
        deadline = None
        with self._idle:
            while True:
                key = self._claim_locked(job_name)
                if key is not None:
                    return key
                if not self._live_locked():
                    return None  # every slot lost or quarantined; waiting is hopeless
                if timeout is not None:
                    if deadline is None:
                        deadline = time.monotonic() + timeout
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._idle.wait(remaining)
                else:
                    self._idle.wait()

    def release(self, node: str, slot_id: int) -> None:
        with self._idle:
            state = self._slots.get((node, slot_id))
            if state is None:
                raise InvariantViolation(f"unknown slot ({node}, {slot_id})")
            if state.status is SlotStatus.BUSY:
                state.status = SlotStatus.IDLE
                state.job_name = None
                self._persist_locked()
                self._idle.notify_all()

    def mark_lost(self, node: str) -> list[str]:
        """Mark every slot of a node lost; returns the names of jobs that were running there."""
        with self._idle:
            orphans = []
            for state in self._slots.values():
                if state.node != node:
                    continue
                if state.status is SlotStatus.BUSY and state.job_name:
                    orphans.append(state.job_name)
                state.status = SlotStatus.LOST
                state.job_name = None
            self._persist_locked()
            self._idle.notify_all()
            return orphans

    def quarantine(self, node: str, slot_id: int, job_name: str | None = None) -> None:
        with self._idle:
            state = self._slots.get((node, slot_id))
            if state is None:
                raise InvariantViolation(f"unknown slot ({node}, {slot_id})")
            state.status = SlotStatus.QUARANTINED
            state.job_name = job_name
            self._persist_locked()

    def clear_quarantine(self, node: str, slot_id: int) -> None:
        with self._idle:
            state = self._slots.get((node, slot_id))
            if state is not None and state.status is SlotStatus.QUARANTINED:
                state.status = SlotStatus.IDLE
                state.job_name = None
                self._persist_locked()
                self._idle.notify_all()

    def restore(self, node: str) -> None:
        """Bring a node's lost/quarantined slots back to idle (e.g. after a successful poll)."""
        with self._idle:
            for state in self._slots.values():
                if state.node == node and state.status in (SlotStatus.LOST, SlotStatus.QUARANTINED):
                    state.status = SlotStatus.IDLE
                    state.job_name = None
            self._persist_locked()
            self._idle.notify_all()

    def touch(self, node: str, when: float) -> None:
        with self._lock:
            for state in self._slots.values():
                if state.node == node:
                    state.last_poll = when

    def snapshot(self) -> list[SlotState]:
        with self._lock:
            return [
                SlotState(s.node, s.slot_id, s.status, s.job_name, s.last_poll)
                for s in self._slots.values()
            ]

    def counts(self) -> dict[SlotStatus, int]:
        with self._lock:
            out = {status: 0 for status in SlotStatus}
            for state in self._slots.values():
                out[state.status] += 1
            return out

    def has_live(self) -> bool:
        """True while some slot is idle or busy, i.e. not every slot is lost or quarantined."""
        with self._lock:
            return self._live_locked()

    def __len__(self) -> int:
        return len(self._slots)
