"""Spans around calls into the program, recorded from the benchmark's side.

A :class:`Target` names a function by the module that *looks it up*, not the
module that defines it: replacing ``m2e.runner.m2e_fit`` times the calls the
runner makes, while ``m2e.solver.m2e_fit`` and every other binding stay
untouched. Spans are kept in memory; a span's self time is its duration minus
the durations of the spans opened directly inside it. Calls run on one
thread, so child spans never overlap and the subtraction is exact.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, NamedTuple

# hook(args, kwargs, result), called after the span has closed
Hook = Callable[[tuple, dict, Any], None]


@dataclass(frozen=True)
class Target:
    """Replace ``module.attr`` with a wrapper that records span ``span``."""

    module: str
    attr: str
    span: str
    hook: Hook | None = None


class Span(NamedTuple):
    """One timed call. ``name`` is ``<layer>.<function>``.

    A tuple of plain values: the garbage collector stops tracking it, so
    hundreds of thousands of spans do not slow the program's own collections.
    """

    name: str
    start: float
    end: float
    self_s: float

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; replaces and restores module bindings."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._open: list[list] = []  # [child seconds, start]
        self._patched: list[tuple[object, str, object]] = []

    def _enter(self) -> list:
        frame = [0.0, self.clock()]
        self._open.append(frame)
        return frame

    def _exit(self, name: str, frame: list) -> None:
        end = self.clock()
        self._open.pop()
        children, start = frame
        duration = end - start
        if self._open:
            self._open[-1][0] += duration
        self.spans.append(Span(name, start, end, duration - children))

    @contextmanager
    def span(self, name: str):
        frame = self._enter()
        try:
            yield
        finally:
            self._exit(name, frame)

    def wrap(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        """``fn`` with every call recorded as span ``name``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame)
            if hook is not None:
                hook(args, kwargs, result)
            return result
        return traced

    @contextmanager
    def installed(self, targets: Iterable[Target]):
        """Wrap every target for the duration of the block.

        A target whose module or attribute no longer exists is listed in
        ``absent`` and skipped, so a benchmark outlives the refactor that
        removed the function it used to time.
        """
        try:
            for t in targets:
                try:
                    module = importlib.import_module(t.module)
                    original = getattr(module, t.attr)
                except (ImportError, AttributeError):
                    self.absent.append(f"{t.module}.{t.attr}")
                    continue
                self._patched.append((module, t.attr, original))
                setattr(module, t.attr, self.wrap(t.span, original, t.hook))
            yield self
        finally:
            while self._patched:
                module, attr, original = self._patched.pop()
                setattr(module, attr, original)

    # -- aggregation -------------------------------------------------------

    def total(self, *names: str) -> float:
        """Summed duration of the spans with any of ``names``."""
        return sum(s.duration for s in self.spans if s.name in names)

    def calls(self, *names: str) -> int:
        return sum(1 for s in self.spans if s.name in names)

    def self_time(self, *names: str) -> float:
        return sum(s.self_s for s in self.spans if s.name in names)

    def self_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.layer] += s.self_s
        return dict(out)
