"""Span tracing from outside the package: wrap functions where their callers look them up.

A module function imported with ``from x import f`` is bound under several
module names; callers resolve whichever binding their own module holds, so a
function is replaced at every binding in the loaded ``evonas`` modules.
Methods are replaced on the class that defines them. Each call records one
span ``(id, parent id, name, start, end, info)``; the parent is the innermost
open span of the same thread. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

from stats import self_time

Info = Callable[[tuple, Any], Any]

#: Span tuple layout.
SID, PARENT, NAME, START, END, INFO = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable, info: Info | None) -> Callable:
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, f"!{type(exc).__name__}"))
                raise
            end = clock()
            stack.pop()
            spans.append((sid, parent, name, start, end, info(args, result) if info else None))
            return result

        return traced

    def patch_function(self, name: str, fn: Callable, info: Info | None = None) -> None:
        """Replace ``fn`` at every ``evonas`` module attribute that holds it."""
        wrapper = self._wrap(name, fn, info)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "evonas" or mod_name.startswith("evonas.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def patch_method(self, name: str, cls: type, attr: str, info: Info | None = None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, info))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self) -> dict[int, float]:
        """Self time of every span: its duration minus the time its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span[PARENT]:
                children.setdefault(span[PARENT], []).append((span[START], span[END]))
        return {
            span[SID]: self_time(span[START], span[END], children.get(span[SID], ()))
            for span in self.spans
        }

    def minus_descendants(self, name: str, descendant: str) -> dict[int, float]:
        """Duration of every ``name`` span minus its outermost ``descendant`` spans.

        Descendants are found through parent links, however deep, and only
        those with no ``descendant`` or ``name`` span between them and it count.
        """
        by_id = {span[SID]: span for span in self.spans}
        out = {span[SID]: span[END] - span[START] for span in self.spans if span[NAME] == name}
        for span in self.spans:
            if span[NAME] != descendant:
                continue
            parent = span[PARENT]
            while parent and by_id[parent][NAME] not in (name, descendant):
                parent = by_id[parent][PARENT]
            if parent and by_id[parent][NAME] == name:
                out[parent] -= span[END] - span[START]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for sid, parent, name, start, end, info in self.spans:
                fh.write(json.dumps([sid, parent, name, start, end, info]) + "\n")
