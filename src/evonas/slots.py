"""Slot store: which (node, GPU-index) worker slots are idle.

The store keeps three things under one lock: the set of slot keys, a
min-heap of the idle keys and the set of the busy ones. It knows no job:
the scheduler core's in-flight table is the one record of which attempt
holds which slot. Acquire/release are atomic, so concurrent callers are
never granted one slot twice, and a grant is deterministic: it pops the
lowest idle (node, slot) key. Marking a node lost drops its keys from both
sets, so they are never granted again.
"""

from __future__ import annotations

import heapq
import threading
from typing import Iterable

from .errors import InvariantViolation


class SlotStore:
    def __init__(self, slots: Iterable[tuple[str, int]]):
        keys: set[tuple[str, int]] = set()
        for node, slot_id in slots:
            key = (node, slot_id)
            if key in keys:
                raise InvariantViolation(f"duplicate slot {key}")
            keys.add(key)
        self._keys = keys  # never change after this
        self._free = sorted(keys)  # the idle keys, a min-heap; sorted is one
        self._busy: set[tuple[str, int]] = set()
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)

    def _claim_locked(self) -> tuple[str, int] | None:
        if not self._free:
            return None
        key = heapq.heappop(self._free)
        self._busy.add(key)
        return key

    def acquire(self, job_name: str | None = None) -> tuple[str, int] | None:
        """Atomically claim the lowest idle (node, slot), or None when none is idle.
        The optional job name is accepted for callers that label a grant; it is not kept."""
        with self._lock:
            return self._claim_locked()

    def idle(self) -> int:
        """The number of idle slots: the size of the heap."""
        with self._lock:
            return len(self._free)

    def acquire_wait(self, job_name: str | None = None) -> tuple[str, int] | None:
        """Block until a slot can be claimed; None once no slot is idle or busy. No engine
        calls it. The optional job name is not kept, as with ``acquire``."""
        with self._idle:
            while True:
                key = self._claim_locked()
                if key is not None:
                    return key
                if not self._busy:
                    return None  # every slot lost; waiting is hopeless
                self._idle.wait()

    def release(self, node: str, slot_id: int) -> None:
        key = (node, slot_id)
        if key not in self._keys:
            raise InvariantViolation(f"unknown slot ({node}, {slot_id})")
        with self._idle:
            if key in self._busy:
                self._busy.remove(key)
                heapq.heappush(self._free, key)
                self._idle.notify_all()

    def mark_lost(self, node: str) -> None:
        """Drop every slot of a node: none of them is granted again."""
        with self._idle:
            self._busy = {key for key in self._busy if key[0] != node}
            self._free = [key for key in self._free if key[0] != node]
            heapq.heapify(self._free)
            self._idle.notify_all()

    def __len__(self) -> int:
        return len(self._keys)
