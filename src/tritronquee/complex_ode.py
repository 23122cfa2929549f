"""Adaptive Dormand-Prince 5(4) integration for complex-valued systems.

The integrator advances ``y' = g(t, y)`` for a real parameter ``t``; paths
in the complex plane are handled by the callers through the parametrization
baked into ``g`` (``integrate_along_path`` does this for polylines).  The
method is DP5(4) with the first-same-as-last (FSAL) property and local
extrapolation (Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.5).

The state is either a bare ``complex`` (one unknown) or a tuple of complex
(any number of unknowns); ``g`` returns a value of the same shape.  The type
of ``y0`` selects the stage arithmetic: plain complex arithmetic for a
scalar, componentwise tuple arithmetic otherwise.  The step controller is
shared, so a scalar and a 1-tuple take identical steps.

An ``on_accept(t, y) -> (y, action)`` callback runs after every accepted
step; it can inspect and adjust the state (branch-drift correction, chart
switching, rescaling) and end the run with ``STOP``.  Returning the same
``y`` object keeps the FSAL stage; any other object is taken as a new state
and ``g`` is evaluated there afresh.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import OdeToleranceNotMet, StepUnderflow

CONTINUE = "continue"
STOP = "stop"

# Dormand-Prince 5(4) tableau; the zero entries of row 7 and of B are skipped
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)


@dataclass
class IntegrationResult:
    """End state of a run; ``z`` is the end point of ``integrate_along_path``."""

    t: float
    y: complex | tuple[complex, ...]
    stopped: bool
    n_steps: int
    z: complex | None = None


def _step_scalar(g, t, y, k1, h, rtol, atol):
    """One DP5(4) attempt on a bare complex: (y_new, g at y_new, error norm)."""
    k2 = g(t + _C2 * h, y + h * (_A21 * k1))
    k3 = g(t + _C3 * h, y + h * (_A31 * k1 + _A32 * k2))
    k4 = g(t + _C4 * h, y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3))
    k5 = g(t + _C5 * h, y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
    k6 = g(t + h, y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4
                           + _A65 * k5))
    y_new = y + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
    k7 = g(t + h, y_new)
    err = h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
    return y_new, k7, abs(err) / (atol + rtol * max(abs(y), abs(y_new)))


def _step_tuple(g, t, y, k1, h, rtol, atol):
    """The same attempt componentwise on a tuple state.

    ``tuple([...])`` rather than ``tuple(<generator>)``: the list form is
    the faster of the two on short states.
    """
    k2 = g(t + _C2 * h, tuple([v + h * (_A21 * a) for v, a in zip(y, k1)]))
    k3 = g(t + _C3 * h, tuple([v + h * (_A31 * a + _A32 * b)
                               for v, a, b in zip(y, k1, k2)]))
    k4 = g(t + _C4 * h, tuple([v + h * (_A41 * a + _A42 * b + _A43 * c)
                               for v, a, b, c in zip(y, k1, k2, k3)]))
    k5 = g(t + _C5 * h, tuple([v + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
                               for v, a, b, c, d in zip(y, k1, k2, k3, k4)]))
    k6 = g(t + h, tuple([v + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d
                                  + _A65 * e)
                         for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)]))
    y_new = tuple([v + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * f)
                   for v, a, c, d, e, f in zip(y, k1, k3, k4, k5, k6)])
    k7 = g(t + h, y_new)
    ratios = [abs(h * (_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * f + _E7 * k))
              / (atol + rtol * max(abs(v), abs(w)))
              for v, w, a, c, d, e, f, k in zip(y, y_new, k1, k3, k4, k5, k6, k7)]
    enorm = max(ratios)
    if math.isnan(sum(ratios)):  # max() drops a NaN that does not come first
        enorm = math.nan
    return y_new, k7, enorm


def _max_abs(y) -> float:
    return max(abs(v) for v in y)


def integrate(g, t0: float, t1: float, y0, rtol: float = 1e-12,
              atol: float = 1e-14, on_accept=None,
              max_steps: int = 500_000) -> IntegrationResult:
    """Integrate y' = g(t, y) from t0 to t1 (t1 > t0).

    ``y0`` is a number (scalar state) or a sequence of numbers (tuple
    state).  ``on_accept(t, y) -> (y, action)`` runs after each accepted
    step; action ``STOP`` ends the integration at that point.
    """
    span = t1 - t0
    if span <= 0.0:
        raise ValueError("t1 must exceed t0")
    if isinstance(y0, numbers.Number):
        y = complex(y0)
        step, size = _step_scalar, abs
    else:
        y = tuple(complex(v) for v in y0)
        step, size = _step_tuple, _max_abs
    t = float(t0)
    f = g(t, y)
    h = min(1e-2 * span, 0.1 * (size(y) + 1.0) / (size(f) + 1e-300))
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
