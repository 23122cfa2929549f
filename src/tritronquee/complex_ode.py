"""Adaptive Dormand-Prince 5(4) integration for complex-valued systems.

The integrator advances ``y' = g(t, y)`` for a real parameter ``t``; paths
in the complex plane are handled by the callers through the parametrization
baked into ``g`` (``integrate_along_path`` does this for polylines).  The
method is DP5(4) with the first-same-as-last (FSAL) property and local
extrapolation (Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.5).

The state is either a bare ``complex`` (one unknown) or a tuple of complex
(any number of unknowns); ``g`` returns a value of the same shape.  The
stage arithmetic is generated once per state shape from the one tableau,
unrolled over the components (``_stage_fn``); every component is advanced
with the operations of the scalar formula, so a scalar and a 1-tuple take
identical steps.  The error norm may be restricted to the leading
components (``error_dims``), which lets variational equations ride along
on the steps of the state they differentiate.

An ``on_accept(t, y) -> (y, action)`` callback runs after every accepted
step; it can inspect and adjust the state (branch-drift correction, chart
switching, rescaling) and end the run with ``STOP``.  Returning the same
``y`` object keeps the FSAL stage; any other object is taken as a new state
and ``g`` is evaluated there afresh.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

from .errors import OdeToleranceNotMet, StepUnderflow

CONTINUE = "continue"
STOP = "stop"

# Dormand-Prince 5(4) tableau: the nodes c2..c7, the stage rows a_j, the
# 5th-order weights b and the error weights e (5th minus embedded 4th order)
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = ((1 / 5,),
      (3 / 40, 9 / 40),
      (44 / 45, -56 / 15, 32 / 9),
      (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
      (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
      -1 / 40)


@dataclass
class IntegrationResult:
    """End state of a run; ``z`` is the end point of ``integrate_along_path``."""

    t: float
    y: complex | tuple[complex, ...]
    stopped: bool
    n_steps: int
    z: complex | None = None


def _combination(coefs, names) -> str:
    """Source of sum(c * name) over the nonzero coefficients, left to right."""
    return " + ".join(f"{c!r} * {name}" for c, name in zip(coefs, names) if c)


def _stage_source(arity: int | None, error_dims: int) -> str:
    """Source of one DP5(4) attempt, unrolled over the state components.

    ``arity`` None is a bare complex state, otherwise a tuple of that
    length.  Every component is advanced as ``y + h * (a . k)`` with the
    products summed left to right, the operation order of the scalar
    formula, so each component's value does not depend on the arity.  Only
    the first ``error_dims`` components enter the error norm.
    """
    comps = [""] if arity is None else [f"_{i}" for i in range(arity)]

    def pack(exprs):
        return exprs[0] if arity is None else f"({', '.join(exprs)},)"

    def unpack(stage):
        names = ", ".join(f"k{stage}{c}" for c in comps)
        return names if arity is None else names + ","

    def stages(c, count):
        return [f"k{j}{c}" for j in range(1, count + 1)]

    def node(c):
        return "t + h" if c == 1.0 else f"t + {c!r} * h"

    lines = ["def step(g, t, y, k1, h, rtol, atol):"]
    if arity is not None:
        lines.append(f"    {', '.join(f'y{c}' for c in comps)}, = y")
        lines.append(f"    {unpack(1)} = k1")
    for stage, row in enumerate(_A, start=2):
        args = [f"y{c} + h * ({_combination(row, stages(c, stage - 1))})"
                for c in comps]
        lines.append(f"    {unpack(stage)} = g({node(_C[stage - 2])}, "
                     f"{pack(args)})")
    for c in comps:
        lines.append(f"    n{c} = y{c} + h * ({_combination(_B, stages(c, 6))})")
    lines.append(f"    y_new = {pack([f'n{c}' for c in comps])}")
    lines.append(f"    k7 = g({node(_C[5])}, y_new)")
    if arity is not None:
        lines.append(f"    {unpack(7)} = k7")
    ratios = []
    for c in comps[:error_dims]:
        lines.append(f"    r{c} = abs(h * ({_combination(_E, stages(c, 7))})) "
                     f"/ (atol + rtol * max(abs(y{c}), abs(n{c})))")
        ratios.append(f"r{c}")
    if len(ratios) == 1:
        lines.append(f"    return y_new, k7, {ratios[0]}")
    else:
        # max() drops a NaN that does not come first; the sum keeps it
        lines.append(f"    enorm = max({', '.join(ratios)})")
        lines.append(f"    if isnan({' + '.join(ratios)}):")
        lines.append("        enorm = nan")
        lines.append("    return y_new, k7, enorm")
    return "\n".join(lines) + "\n"


@functools.cache
def _stage_fn(arity: int | None, error_dims: int):
    """The attempt for one state shape, generated on first use.

    ``step(g, t, y, k1, h, rtol, atol) -> (y_new, g at y_new, error norm)``;
    unrolling removes the per-component iteration a generic tuple step
    pays on every stage.
    """
    namespace = {"isnan": math.isnan, "nan": math.nan}
    exec(_stage_source(arity, error_dims), namespace)
    return namespace["step"]


def _max_abs(y) -> float:
    return max(abs(v) for v in y)


def integrate(g, t0: float, t1: float, y0, rtol: float = 1e-12,
              atol: float = 1e-14, on_accept=None,
              max_steps: int = 500_000,
              error_dims: int | None = None) -> IntegrationResult:
    """Integrate y' = g(t, y) from t0 to t1 (t1 > t0).

    ``y0`` is a number (scalar state) or a sequence of numbers (tuple
    state).  ``on_accept(t, y) -> (y, action)`` runs after each accepted
    step; action ``STOP`` ends the integration at that point.

    ``error_dims`` (default: all) is how many leading components of a
    tuple state enter the error norm and the initial step size; the rest
    ride along on the steps those components choose, unchecked, NaN
    included.  With ``error_dims=1`` the first component takes exactly the
    steps and values of a scalar run on its own equation.
    """
    span = t1 - t0
    if span <= 0.0:
        raise ValueError("t1 must exceed t0")
    scalar = isinstance(y0, numbers.Number)
    y = complex(y0) if scalar else tuple(complex(v) for v in y0)
    dims = 1 if scalar else len(y)
    checked = dims if error_dims is None else error_dims
    if not 1 <= checked <= dims:
        raise ValueError(f"error_dims must lie in 1..{dims}")
    step = _stage_fn(None if scalar else dims, checked)
    t = float(t0)
    f = g(t, y)
    if scalar:
        y_size, f_size = abs(y), abs(f)
    else:
        y_size, f_size = _max_abs(y[:checked]), _max_abs(f[:checked])
    h = min(1e-2 * span, 0.1 * (y_size + 1.0) / (f_size + 1e-300))
    h = max(h, 1e-12 * span)
    n = 0
    min_h = 1e-15 * max(1.0, abs(span))
    while t < t1:
        if n >= max_steps:
            raise OdeToleranceNotMet(f"step limit {max_steps} reached at t={t:.6g}")
        h = min(h, t1 - t)
        y_new, f_new, enorm = step(g, t, y, f, h, rtol, atol)
        if not math.isfinite(enorm):
            h *= 0.25
            if h < min_h:
                raise StepUnderflow("non-finite error estimate at minimal step")
            continue
        if enorm > 1.0:
            h *= max(0.2, 0.9 * enorm ** -0.2)
            if h < min_h:
                raise StepUnderflow(f"step underflow at t={t:.6g}")
            continue
        t += h
        y, f = y_new, f_new
        n += 1
        if on_accept is not None:
            y_adj, action = on_accept(t, y)
            if y_adj is not y:
                y = y_adj
                f = g(t, y)
            if action == STOP:
                return IntegrationResult(t, y, True, n)
        h *= min(5.0, max(0.2, 0.9 * enorm ** -0.2 if enorm > 0 else 5.0))
    return IntegrationResult(t, y, False, n)


def integrate_along_path(f, y0, waypoints, rtol: float = 1e-12,
                         atol: float = 1e-14, on_accept=None,
                         max_steps: int = 500_000) -> IntegrationResult:
    """Integrate y' = f(z, y) dz along the polyline through ``waypoints``.

    Each leg is parametrized linearly; ``on_accept`` receives the complex
    position instead of the leg parameter.  Returns the state at the final
    waypoint (or at the stop point), with that point as ``z``.
    """
    scalar = isinstance(y0, numbers.Number)
    y = complex(y0) if scalar else tuple(complex(v) for v in y0)
    steps = 0
    z_end = complex(waypoints[0])
    stopped = False
    for z0, z1 in zip(waypoints[:-1], waypoints[1:]):
        z0 = complex(z0)
        z1 = complex(z1)
        dz = z1 - z0
        if dz == 0:
            continue

        if scalar:
            def g(t, yy, z0=z0, dz=dz):
                return f(z0 + t * dz, yy) * dz
        else:
            def g(t, yy, z0=z0, dz=dz):
                return tuple([v * dz for v in f(z0 + t * dz, yy)])

        hook = None
        if on_accept is not None:
            def hook(t, yy, z0=z0, dz=dz):
                return on_accept(z0 + t * dz, yy)

        res = integrate(g, 0.0, 1.0, y, rtol=rtol, atol=atol, on_accept=hook,
                        max_steps=max_steps)
        y = res.y
        steps += res.n_steps
        z_end = z0 + res.t * dz
        if res.stopped:
            stopped = True
            break
    return IntegrationResult(0.0, y, stopped, steps, z_end)
