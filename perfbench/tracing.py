"""Span recording for the traced benchmark run.

The tracer wraps, in the benchmark process only, the names that one
``rankdist`` module imports from another
(``rankdist.cli.fit_piecewise_pareto``,
``rankdist.scenarios.top_group_stable``, ``rankdist.calibration.minimize``,
``rankdist.<module>.prefix_sum``, ...), plus the module-level functions the
benchmark itself calls.  Every call through a wrapped name records a span:
name, start, end, parent span and a few facts read off the arguments or the
result (elements summed, optimizer evaluations, projection kind, bytes
written).  ``uninstall`` puts every original back.  Nothing in the package
changes.

Spans opened on the report command's pool threads have no parent on their
own thread; they take the innermost span open on the main thread (the grid
span) as parent, so the CPU time of the grid's cells can be read off its
children.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import pathlib
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    phase: str
    cpu_start: float
    end: float = math.nan
    cpu_end: float = math.nan
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def cpu(self) -> float:
        """CPU time of the span's own thread while the span was open."""
        return self.cpu_end - self.cpu_start


def _elems(args, kwargs, result, info):
    info["elems"] = len(args[0])


def _nfev(args, kwargs, result, info):
    info["nfev"] = int(result.nfev)


def _fit(args, kwargs, result, info):
    info["n"] = int(args[1])
    info["fit_error"] = float(result[1].fit_error)


def _kind(args, kwargs, result, info):
    info["kind"] = result.kind
    info["m"] = result.report.m


def _steps(args, kwargs, result, info):
    config = args[1]
    info["n"] = config.n
    info["steps"] = int(round(config.horizon / config.dt))


def _oracle_steps(args, kwargs, result, info):
    info["steps"] = int(round(kwargs["horizon"] / kwargs["dt"]))


def _file_bytes(args, kwargs, result, info):
    info["bytes"] = os.path.getsize(args[0])


#: (module, attribute, span name, hook reading facts off the call).
BINDINGS = [
    ("rankdist.cli", "fit_piecewise_pareto", "calibration.fit", _fit),
    ("rankdist.cli", "expand_sigma", "calibration.expand_sigma", None),
    ("rankdist.cli", "alpha_from_shares", "stable.invert", None),
    ("rankdist.cli", "apply_trend", "scenarios.adjust", None),
    ("rankdist.cli", "apply_tax", "scenarios.adjust", None),
    ("rankdist.cli", "project", "scenarios.project", _kind),
    ("rankdist.calibration", "fit_piecewise_pareto", "calibration.fit", _fit),
    ("rankdist.calibration", "expand_sigma", "calibration.expand_sigma", None),
    ("rankdist.calibration", "minimize", "calibration.minimize", _nfev),
    ("rankdist.calibration", "alpha_from_shares", "stable.invert", None),
    ("rankdist.calibration", "prefix_sum", "core.prefix_sum.calibration",
     _elems),
    ("rankdist.stable", "alpha_from_shares", "stable.invert", None),
    ("rankdist.stable", "prefix_sum", "core.prefix_sum.stable", _elems),
    ("rankdist.scenarios", "apply_trend", "scenarios.adjust", None),
    ("rankdist.scenarios", "apply_tax", "scenarios.adjust", None),
    ("rankdist.scenarios", "project", "scenarios.project", _kind),
    ("rankdist.scenarios", "check_stability", "stable.check", None),
    ("rankdist.scenarios", "gaps_from_prefix_sums",
     "stable.forward.gaps", None),
    ("rankdist.scenarios", "shares_from_gaps", "stable.forward.shares",
     None),
    ("rankdist.scenarios", "top_group_stable", "stable.top_group", None),
    ("rankdist.scenarios", "group_shares", "core.group_shares", None),
    ("rankdist.scenarios", "prefix_sum", "core.prefix_sum.scenarios", _elems),
    ("rankdist.simulate", "simulate_ranked", "simulate.ranked", _steps),
    ("rankdist.simulate", "simulate_gap_oracle", "simulate.oracle",
     _oracle_steps),
    ("rankdist.simulate", "prefix_sum", "core.prefix_sum.simulate", _elems),
    ("rankdist.fileio", "read_grouped_shares", "fileio.read", None),
    ("rankdist.fileio", "read_volatility_table", "fileio.read", None),
    ("rankdist.fileio", "read_trend", "fileio.read", None),
    ("rankdist.fileio", "read_tax", "fileio.read", None),
    ("rankdist.fileio", "write_alpha_csv", "fileio.write.alpha", None),
    ("rankdist.fileio", "write_fit_csv", "fileio.write.fit", None),
    ("rankdist.fileio", "write_fit_report", "fileio.write.fit_report", None),
    ("rankdist.fileio", "write_grouped_csv", "fileio.write.projection", None),
    ("rankdist.fileio", "write_loglog_csv", "fileio.write.loglog", None),
    ("rankdist.fileio", "write_divergence_json", "fileio.write.divergence",
     None),
    ("rankdist.fileio", "write_path_csv", "fileio.write.path", None),
]


class Tracer:
    """Collects spans from wrapped names; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._local = threading.local()
        self._main_stack = self._stack()
        self._lock = threading.Lock()
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(name=name, start=time.perf_counter(), parent=parent,
                    phase=self.phase, cpu_start=time.thread_time())
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.cpu_end = time.thread_time()
        self._stack().pop()
        return span

    def call(self, name: str, fn: Callable, /, *args, hook=None, **kwargs):
        index = self.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            span = self.close(index)
        if hook is not None:
            hook(args, kwargs, result, span.info)
        return result

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(name, original, *args, hook=hook, **kwargs)

        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        for module_name, attr, name, hook in BINDINGS:
            self.wrap(importlib.import_module(module_name), attr, name, hook)
        # Every rankdist file write ends in Path.write_text: fileio's writers
        # and the report command's summary.txt.
        self.wrap(pathlib.Path, "write_text", "fileio.write_text", _file_bytes)
        cli = importlib.import_module("rankdist.cli")
        tracer = self

        class GridPool(cli.ThreadPoolExecutor):
            """The report grid's pool; its ``with`` block is one span."""

            def __enter__(self):
                self._span = tracer.open("cli.report_grid")
                return super().__enter__()

            def __exit__(self, *exc):
                result = super().__exit__(*exc)
                tracer.close(self._span).info["workers"] = self._max_workers
                return result

        self._patch(cli, "ThreadPoolExecutor", GridPool)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def span_cost_s(self, calls: int = 20000) -> float:
        """Measured cost of one span: a wrapped no-op against a bare one."""
        probe = Tracer()

        def noop():
            return None

        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            probe.call("probe", noop)
        wrapped = time.perf_counter() - start
        return max(wrapped - bare, 0.0) / calls


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
