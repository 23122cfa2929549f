"""Span tracing of the tritronquee layers from outside the package.

Each traced layer is a public function (or the ``PeriodData.compute``
classmethod).  The package modules bind imported names locally
(``from .oscillator import refine_pole``), so a wrapper replaces every
binding of the original object in every loaded ``tritronquee`` module, not
only the one in the defining module.  Removing the tracer puts the original
objects back; nothing under ``src/`` changes.

Spans are ``(name, start, end, parent)`` rows kept in memory; a layer's self
time is its span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

PACKAGE = "tritronquee"


@dataclass(frozen=True)
class Target:
    """A traced layer: ``module`` inside the package, ``attr`` a name or
    ``Class.method``; ``count`` maps a return value to (counter, amount)."""

    module: str
    attr: str
    count: tuple[str, Callable] | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


def _stokes_points(graph) -> int:
    return sum(len(line.points) for line in graph.lines)


TARGETS = (
    Target("elliptic", "PeriodData.compute"),
    Target("elliptic", "turning_points"),
    Target("stokes", "trace_stokes_lines", ("points", _stokes_points)),
    Target("bsb", "solve_bsb"),
    Target("bsb", "solve_period_targets"),
    Target("oscillator", "refine_pole",
           ("newton_iterations", lambda rec: rec.newton_iterations)),
    Target("oscillator", "dependence_residual"),
    Target("oscillator", "psi_logderivative"),
    Target("oscillator", "u_values"),
    Target("painleve", "seed_asymptotic"),
    Target("painleve", "track", ("poles", lambda out: len(out[1]))),
    Target("complex_ode", "integrate", ("steps", lambda res: res.n_steps)),
    Target("complex_ode", "integrate_along_path"),
    Target("catalog", "compute_entry"),
    Target("catalog", "write_catalog"),
    Target("catalog", "read_catalog"),
)


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _resolve(target: Target):
    """(owner, attribute name, raw attribute) of the target's definition."""
    owner = importlib.import_module(f"{PACKAGE}.{target.module}")
    *path, leaf = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf, vars(owner)[leaf]


def original_bindings(targets=TARGETS) -> dict:
    """Every place that currently binds a target: {(owner, name): object}.

    Used to check that a removed tracer left the package as it found it.
    """
    out = {}
    for target in targets:
        owner, leaf, raw = _resolve(target)
        out[(owner, leaf)] = raw
        if isinstance(owner, type):
            continue
        for mod in _package_modules():
            for key, value in vars(mod).items():
                if value is raw:
                    out[(mod, key)] = value
    return out


class Tracer:
    """Context manager that wraps the targets and records spans and counts."""

    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        self.targets = tuple(targets)
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            tracer.counts[f"{name}.calls"] += 1
            span[1] = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = tracer.clock()
                stack.pop()
            if count is not None:
                tracer.counts[f"{name}.{count[0]}"] += count[1](result)
            return result

        wrapper.__traced__ = True
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for target in self.targets:
            owner, leaf, raw = _resolve(target)
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(target.name, raw.__func__,
                                                 target.count))
                self._saved.append((owner, leaf, raw))
                setattr(owner, leaf, patched)
                continue
            wrapper = self._wrap(target.name, raw, target.count)
            for mod in _package_modules():
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._saved.append((mod, key, raw))
                        setattr(mod, key, wrapper)

    def remove(self) -> None:
        while self._saved:
            owner, key, raw = self._saved.pop()
            setattr(owner, key, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


def is_installed() -> bool:
    """True while any target binding is a tracer wrapper."""
    for (owner, key), _ in original_bindings().items():
        value = vars(owner)[key]
        func = value.__func__ if isinstance(value, classmethod) else value
        if getattr(func, "__traced__", False):
            return True
    return False


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_totals(spans, counts) -> dict[str, float]:
    """Summed self time per span name (``<name>.self_s``) plus the counts."""
    totals: dict[str, float] = dict(counts)
    for span, own in zip(spans, self_times(spans)):
        key = f"{span[0]}.self_s"
        totals[key] = totals.get(key, 0.0) + own
    return totals
