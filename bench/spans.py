"""Span tracing from outside the package, by rebinding its functions.

``Tracer.install`` replaces every binding of each target function in the
loaded ``lmsbound`` modules (the defining module, every module that did
``from .x import f``, the package namespace, and class attributes for
methods) with a wrapper that records one span per call.  ``restore`` puts
the originals back.  Spans stay in memory as
``[name, start, end, parent_index, task_id]`` and are written out once, at
the end of the run.  While the tracer is inactive the wrappers only pass
calls through, so the benchmark's own output checks are never counted.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.task: Optional[int] = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1, self.task]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (a CLI command, a task)."""
        if not self.active:
            yield
            return
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name: str, fn: Callable,
              on_result: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result
        return wrapper

    def install(self, owner: object, attr: str, name: str,
                on_result: Optional[Callable] = None) -> int:
        """Wrap ``owner.attr`` everywhere it is bound; return the binding count."""
        original = getattr(owner, attr)
        wrapper = self._wrap(name, original, on_result)
        bindings = 0
        owners = [owner] + [
            module for key, module in list(sys.modules.items())
            if module is not None and module is not owner
            and (key == "lmsbound" or key.startswith("lmsbound."))]
        for target in owners:
            for key, value in list(vars(target).items()):
                if value is original:
                    self._patches.append((target, key, value))
                    setattr(target, key, wrapper)
                    bindings += 1
        return bindings

    def restore(self) -> None:
        for target, key, value in reversed(self._patches):
            setattr(target, key, value)
        self._patches.clear()

    def totals(self, measure: Callable[[float, float], float], first: int = 0,
               last: Optional[int] = None) -> dict[str, list[float]]:
        """Per span name over spans[first:last]: [calls, seconds, self seconds].

        ``measure(start, end)`` turns a span's interval into seconds.
        """
        seconds = [measure(start, end) for _, start, end, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for index, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += seconds[index]
        out: dict[str, list[float]] = {}
        last = len(self.spans) if last is None else last
        for index in range(first, last):
            entry = out.setdefault(self.spans[index][0], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += seconds[index]
            entry[2] += seconds[index] - child[index]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            f.write("index,name,start,end,parent,task\n")
            for index, (name, start, end, parent, task) in enumerate(self.spans):
                f.write(f"{index},{name},{start:.9f},{end:.9f},{parent},"
                        f"{'' if task is None else task}\n")
