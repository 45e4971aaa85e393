"""Layer spans recorded from outside the program.

``Tracer`` wraps every public function of each thermoq module once and
installs that one wrapper wherever the original is bound: in its defining
module and under every name another thermoq module imported it as (for
example ``cli.simulate_campaign`` and ``experiments.simulate_campaign`` are
the same wrapper).  A wrapper appends a span ``[name, start, end, parent,
note]`` to an in-memory list; nothing is written until the benchmark ends.

Per-row helpers (``io.hz_token``, ``io.render_float``) are not wrapped: a
span per CSV field would dominate the writer's self time it is meant to
measure.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

MODULES = ("cli", "config", "spectra", "cavity", "decoherence", "tlssim",
           "experiments", "fitting", "spectral", "io")
PER_ROW = {"io.hz_token", "io.render_float"}
LM = "fitting.least_squares"
KNEE_FIT = "spectral.fit_knee_spectrum"


def _note(name: str):
    """What a span keeps of its call beyond timing, or None."""
    if name == LM:
        return lambda args, result: result.n_iterations
    if name.startswith(("io.write_", "io.read_")):
        return lambda args, result: str(args[0])
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._wrappers = {}   # original function -> its single wrapper
        self._installed = []  # (module, attribute, original)
        for short in MODULES:
            module = importlib.import_module(f"thermoq.{short}")
            for attr, obj in vars(module).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and name not in PER_ROW):
                    self._wrappers[obj] = self._wrap(name, obj)

    def _wrap(self, name, func):
        spans, stack, clock, note = self.spans, self._stack, time.perf_counter, \
            _note(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                span[4] = type(exc)
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result
        return wrapper

    def install(self) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("thermoq"):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    setattr(module, attr, self._wrappers[obj])
                    self._installed.append((module, attr, obj))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, obj = self._installed.pop()
            setattr(module, attr, obj)

    def take(self) -> list:
        """Return the spans recorded so far and start a new list."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def summarize(spans: list, wall: float) -> dict:
    """Per-layer figures of one pass of ``wall`` seconds.

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly because the program is single-threaded.
    Each module's self time is reported as its share of the pass, which
    stays a measured number, 0, for a module the workload never calls.
    The io row and byte counts are read from the files named by the io
    spans, so they must still exist when this runs.
    """
    from thermoq.errors import FitError

    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    self_s = defaultdict(float)
    calls = Counter()
    counters = Counter()
    lm_calls = lm_failed = 0
    for i, (name, start, end, parent, note) in enumerate(spans):
        module = name.split(".", 1)[0]
        own = end - start - covered[i]
        self_s[module] += own
        calls[module] += 1
        if name == "cli.build_parser":
            counters["cli.build_parser.self_s"] += own
        elif name == LM:
            lm_calls += 1
            if isinstance(note, int):
                counters[f"{LM}.iterations"] += note
            elif isinstance(note, type) and issubclass(note, FitError):
                lm_failed += 1
            if parent is not None and spans[parent][0] == KNEE_FIT:
                counters[f"{KNEE_FIT}.lm_calls"] += 1
        elif name.startswith(("io.write_", "io.read_")) \
                and isinstance(note, str):
            data = Path(note).read_bytes()
            kind = "written" if name.startswith("io.write_") else "read"
            counters[f"io.rows_{kind}"] += data.count(b"\n") - 1
            counters[f"io.bytes_{kind}"] += len(data)
    figures = {}
    for module in MODULES:
        figures[f"{module}.self_share"] = self_s[module] / wall
        figures[f"{module}.calls"] = calls[module]
    for key in ("cli.build_parser.self_s", f"{LM}.iterations",
                f"{KNEE_FIT}.lm_calls", "io.rows_written", "io.rows_read",
                "io.bytes_written", "io.bytes_read"):
        figures[key] = counters[key]
    figures[f"{LM}.fail_ratio"] = lm_failed / lm_calls if lm_calls else 0.0
    return figures
