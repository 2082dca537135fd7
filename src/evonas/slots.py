"""Slot-state store: one record per (node, GPU-index) worker slot.

Acquire/release are atomic transitions under a single lock, so the store can
be hammered by concurrent dispatch tasks without double-granting. Acquisition
is deterministic: the lowest (node, slot) idle pair wins. The idle keys are
kept in a min-heap, so a grant pops the lowest one and a release pushes its
key back, neither scanning the slot table; marking a node lost drops its keys.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .errors import InvariantViolation


class SlotStatus(Enum):
    IDLE = "idle"
    BUSY = "busy"
    LOST = "lost"  # node unreachable; never scheduled


@dataclass
class SlotState:
    node: str
    slot_id: int
    status: SlotStatus = SlotStatus.IDLE
    job_name: str | None = None


class SlotStore:
    def __init__(self, slots: Iterable[tuple[str, int]]):
        table: dict[tuple[str, int], SlotState] = {}
        for node, slot_id in slots:
            key = (node, slot_id)
            if key in table:
                raise InvariantViolation(f"duplicate slot {key}")
            table[key] = SlotState(node, slot_id)
        self._slots = dict(sorted(table.items()))  # keys never change after this
        self._free = list(self._slots)  # the keys of the idle slots, a min-heap; sorted is one
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)

    def _claim_locked(self, job_name: str | None) -> tuple[str, int] | None:
        if not self._free:
            return None
        key = heapq.heappop(self._free)
        state = self._slots[key]
        state.status = SlotStatus.BUSY
        state.job_name = job_name
        return key

    def _live_locked(self) -> bool:
        return any(s.status in (SlotStatus.IDLE, SlotStatus.BUSY) for s in self._slots.values())

    def acquire(self, job_name: str | None = None) -> tuple[str, int] | None:
        """Atomically claim the lowest idle (node, slot), or None when all are busy."""
        with self._lock:
            return self._claim_locked(job_name)

    def acquire_wait(self, job_name: str | None = None) -> tuple[str, int] | None:
        """Block until a slot can be claimed; None once no slot is live."""
        with self._idle:
            while True:
                key = self._claim_locked(job_name)
                if key is not None:
                    return key
                if not self._live_locked():
                    return None  # every slot lost; waiting is hopeless
                self._idle.wait()

    def release(self, node: str, slot_id: int) -> None:
        with self._idle:
            key = (node, slot_id)
            state = self._slots.get(key)
            if state is None:
                raise InvariantViolation(f"unknown slot ({node}, {slot_id})")
            if state.status is SlotStatus.BUSY:
                state.status = SlotStatus.IDLE
                state.job_name = None
                heapq.heappush(self._free, key)
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
            self._free = [key for key in self._free if key[0] != node]
            heapq.heapify(self._free)
            self._idle.notify_all()
            return orphans

    def snapshot(self) -> list[SlotState]:
        with self._lock:
            return [SlotState(s.node, s.slot_id, s.status, s.job_name) for s in self._slots.values()]

    def __len__(self) -> int:
        return len(self._slots)
