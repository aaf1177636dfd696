"""In-memory span recorder and the timing shims that feed it.

A span is one call at a layer boundary: name, start, end and the span
that was open when it started.  Spans stay in memory until the traced
pass ends and are then written out in one piece.  The shims wrap public
argmine functions in every module namespace that holds them, because
several modules import the same function by name (``pipeline`` and
``cli`` both import ``predict_theory``).  The traced pass is serial, so
one stack of open spans is enough.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list[Any]] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()  # work counters taken from call results
        self._open: list[int] = []
        self._active: Counter = Counter()  # open spans per name, for outermost-only shims
        self._restore: list[Callable[[], None]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        self._active[name] += 1
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()
            self._active[name] -= 1

    def wrap(self, name: str, fn: Callable, outermost: bool = False,
             count: Callable[[Any], int] | None = None) -> Callable:
        """``fn`` recording one span per call; ``outermost`` skips recursive calls."""

        def shim(*args, **kwargs):
            if outermost and self._active[name]:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                self.counts[name] += count(result)
            return result

        shim.__wrapped__ = fn
        return shim

    def install(self, owner: Any, attr: str, name: str, **options) -> None:
        """Wrap ``owner.attr`` wherever an argmine module holds the same object.

        ``owner`` is a module or a class; a class attribute is expected to
        be a staticmethod and is replaced on the class only.
        """
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            setattr(owner, attr, staticmethod(self.wrap(name, original.__func__, **options)))
            self._restore.append(lambda: setattr(owner, attr, original))
            return
        original = getattr(owner, attr)
        shim = self.wrap(name, original, **options)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "argmine" and not mod_name.startswith("argmine."):
                continue
            if mod.__dict__.get(attr) is original:
                setattr(mod, attr, shim)
                self._restore.append(lambda mod=mod: setattr(mod, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def totals(self) -> tuple[dict[str, float], Counter]:
        """Inclusive seconds and call count per span name."""
        seconds: dict[str, float] = {}
        calls: Counter = Counter()
        for name, start, end, _ in self.spans:
            seconds[name] = seconds.get(name, 0.0) + (end - start)
            calls[name] += 1
        return seconds, calls

    def self_seconds_by_module(self) -> dict[str, float]:
        """Self time per module: each span's duration minus its children's.

        The traced code is serial, so children never overlap and their
        durations can simply be subtracted.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + (end - start) - child_time[i]
        return out

    def write(self, path: str) -> None:
        records = [
            {"id": i, "name": name, "start": start, "end": end, "parent": parent, "run": self.run_id}
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]
        with open(path, "w") as f:
            json.dump(records, f)
