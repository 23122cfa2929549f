"""The package's two ODE integrators for complex-valued systems.

Both run each leg as one generated function, compiled by ``_compile``
(as ``painleve``'s Laurent frames are): the right-hand side, the step
control and the state all stay in local variables from the first step to
the last.

- ``integrate``: adaptive embedded Runge-Kutta for any right-hand side.
- ``taylor_leg``: Taylor steps for polynomial right-hand sides, whose
  Taylor coefficients follow exactly from a recurrence (the local-series
  approach of Fornberg & Weideman, J. Comput. Phys. 230, 2011).

``integrate`` advances ``y' = g(t, y)`` for a real parameter ``t``; paths
in the complex plane are handled by the callers through the parametrization
baked into ``g``.  It runs one explicit pair, ``DP54``: Dormand-Prince
5(4), 6 stages per step, with the first-same-as-last (FSAL) property and
local extrapolation (Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.5).
Two callers run it: the Stokes tracer's tangent, a complex square root of
V with its branch choice (the branch reference sits in a list that its
``on_accept`` updates), and the oscillator's inward legs.
``integrate_along_path`` does the same along polylines; no module of the
package calls it, and it stays because the benchmark's tracer resolves it
by name.

The state is either a bare ``complex`` (one unknown) or a tuple of complex
(any number of unknowns).  Each run is one generated function
(``_kernel``), made on first use per state shape and right-hand side and
then cached: the right-hand side is written into every stage and the step
controller around the attempts, so no stage makes a Python call.  The
stages are unrolled over the components, and every component is advanced
with the operations of the scalar formula.  Only the leading component
enters the error norm and the initial step size; the others ride along on
its steps, unchecked, which lets variational equations follow the state
they differentiate.  So the leading component of any tuple takes exactly
the steps and values of a scalar run on its own equation.

The right-hand side is an ``Rhs``: source lines over named parameters.

- The source reads the time ``T``, the state components ``Y0``, ``Y1``,
  ... (``Y0`` alone for a bare complex state) and the parameters by the
  names in ``Rhs.params``; ``integrate`` takes their values as the tuple
  ``args``, in that order.  It sets the derivative components ``F0``,
  ``F1``, ....
- It may read the packed state ``Y`` (the tuple, or the bare complex) and
  set the packed derivative ``F`` in one assignment instead.
- It may use local names of its own and the builtins.  Names that begin
  with an underscore belong to the kernel.
- A callable ``g(t, y)`` is the shorthand for the one-line source
  ``F = g(T, Y)`` with ``g`` as the one parameter (``CALL``), so callables
  run in the same kernel.
- The source runs with Python's operations in the order written.  A source
  that keeps a closure's operations in the closure's order gives the
  closure's values bit for bit; any other order (a polynomial in Horner
  form, a sum taken in another order) changes the rounding.

An ``on_accept(t, y) -> (y, action)`` callback runs after every accepted
step; it can inspect and adjust the state (branch-drift correction, chart
switching, rescaling) and end the run with ``STOP``.  Returning the same
``y`` object keeps the FSAL stage; any other object is taken as a new state
and the right-hand side is evaluated there afresh.

``taylor_leg`` runs a ``TaylorEquation``, an equation given as data, on
one template (``_taylor_source``) that writes the loop, the step control,
the errors and the Horner advance.  Two equations run on it: ``painleve``'s
y'' = 6 y^2 - z (244 steps from 40 to -12, where DOP853 took 2,033 and
DP54 16,247) and the oscillator's outward pair legs, two Riccati equations
s' = V - s^2 with V cubic and the integral of their difference (834 steps
per ``catalog`` pass, where DP54 took 24,946).  Its hook,
``on_accept(t, view) -> action``, cannot replace the state.
"""

from __future__ import annotations

import ast
import functools
import math
import numbers
import re
import textwrap
from dataclasses import dataclass

from .errors import OdeToleranceNotMet, StepUnderflow

CONTINUE = "continue"
STOP = "stop"


@dataclass(frozen=True)
class Tableau:
    """The coefficients of ``integrate``'s one Runge-Kutta pair, ``DP54``:
    s stages, and stage s+1 is FSAL.

    ``nodes`` are c_2..c_{s+1} (the last is 1: stage s+1 is g at the new
    state, reused as the next step's first stage) and ``rows`` the stage
    rows a_2..a_s.  ``weights`` b_1..b_s advance the state; ``error``
    weights over k_1..k_{s+1} give the local error estimate e, and the
    leading component's error is |h e|.  The step controller's power of
    the error norm, -1/5, is written into the kernel as a constant.
    """

    nodes: tuple[float, ...]
    rows: tuple[tuple[float, ...], ...]
    weights: tuple[float, ...]
    error: tuple[float, ...]


# Dormand-Prince 5(4) tableau: the nodes c2..c7, the stage rows a_j, the
# 5th-order weights b and the error weights e (5th minus embedded 4th order)
DP54 = Tableau(
    nodes=(1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0),
    rows=((1 / 5,),
          (3 / 40, 9 / 40),
          (44 / 45, -56 / 15, 32 / 9),
          (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
          (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)),
    weights=(35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    error=(71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
           22 / 525, -1 / 40))

#: The FSAL stage of ``DP54``: the derivative at the new state.
_FSAL = len(DP54.weights) + 1


@dataclass
class IntegrationResult:
    """End state of a run; ``z`` is the end point of ``integrate_along_path``."""

    t: float
    y: complex | tuple[complex, ...]
    stopped: bool
    n_steps: int
    z: complex | None = None


@dataclass(frozen=True)
class Rhs:
    """A right-hand side given as source lines over named parameters.

    The module docstring states what the source may read and must set;
    ``integrate`` takes the parameter values in ``args``, in the order of
    ``params``.  Compared and hashed by value: the kernel cache keys on it.
    """

    params: tuple[str, ...]
    source: str


#: The callable shorthand: ``integrate`` runs a callable ``g`` as this
#: source, with ``g`` as the one parameter.
CALL = Rhs(("g",), "F = g(T, Y)")


def _combination(coefs, names) -> str:
    """Source of sum(c * name) over the nonzero coefficients, left to right."""
    return " + ".join(f"{c!r} * {name}" for c, name in zip(coefs, names) if c)


def _components(arity: int | None) -> list[str]:
    """Name suffixes of the state components: one empty suffix for a bare
    complex, ``_0``.. for a tuple."""
    return [""] if arity is None else [f"_{i}" for i in range(arity)]


def _pack(names, arity: int | None) -> str:
    return names[0] if arity is None else f"({', '.join(names)},)"


def _rhs_writer(rhs: Rhs, arity: int | None):
    """``write(stage, t, inputs)``: the lines of one evaluation of ``rhs``
    at time ``t`` and the state components ``inputs``, storing the
    derivative in the components of ``_k<stage>``."""
    source = textwrap.dedent(rhs.source).strip()
    names = {node.id for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Name)} | set(rhs.params)
    n = 1 if arity is None else arity
    if any(name.startswith("_") for name in names):
        raise ValueError("names beginning with '_' belong to the kernel")
    if "F" not in names and not {f"F{i}" for i in range(n)} <= names:
        raise ValueError(f"the source must set F or F0..F{n - 1}")
    body = source.splitlines()
    comps = _components(arity)

    def write(stage, t, inputs):
        ks = [f"_k{stage}{c}" for c in comps]
        packed = ks[0] if arity is None else ", ".join(ks) + ","
        lines = [f"T = {t}"] if "T" in names else []
        lines += [f"Y{i} = {v}" for i, v in enumerate(inputs)
                  if "Y" in names or f"Y{i}" in names]
        if "Y" in names:
            lines.append(f"Y = {_pack([f'Y{i}' for i in range(n)], arity)}")
        lines += [re.sub(r"\bF(\d*)\b",
                         lambda m: ks[int(m[1])] if m[1] else packed, line)
                  for line in body]
        return lines

    return write


def _attempt_lines(arity: int | None, write) -> list[str]:
    """One attempt of ``DP54`` from ``_t``, ``_y`` and ``_k1`` with step
    ``_h``: the new state ``_n``, its derivative (the FSAL stage) and the
    error norm ``_enorm`` of the leading component.

    Every component is advanced as ``y + h * (a . k)`` with the products
    summed left to right, the operation order of the scalar formula, so
    each component's value does not depend on the arity.
    """
    comps = _components(arity)

    def stages(c, count):
        return [f"_k{j}{c}" for j in range(1, count + 1)]

    def node(c):
        return "_t + _h" if c == 1.0 else f"_t + {c!r} * _h"

    lines = []
    for stage, row in enumerate(DP54.rows, start=2):
        lines += write(stage, node(DP54.nodes[stage - 2]),
                       [f"_y{c} + _h * ({_combination(row, stages(c, stage - 1))})"
                        for c in comps])
    for c in comps:
        lines.append(f"_n{c} = _y{c} + _h * "
                     f"({_combination(DP54.weights, stages(c, _FSAL - 1))})")
    lines += write(_FSAL, node(DP54.nodes[-1]), [f"_n{c}" for c in comps])
    c = comps[0]
    err = _combination(DP54.error, stages(c, _FSAL))
    # max(|y|, |n|) as a conditional expression, NaN included
    return lines + [
        f"_a{c} = abs(_y{c})", f"_b{c} = abs(_n{c})",
        f"_r{c} = abs(_h * ({err})) / "
        f"(_atol + _rtol * (_b{c} if _b{c} > _a{c} else _a{c}))",
        f"_enorm = _r{c}"]


def _block(lines, depth: int) -> str:
    return "\n".join("    " * depth + line for line in lines)


# One whole run.  The slots are filled with blocks of generated lines; the
# controller is the one of Hairer, Norsett & Wanner II.4 with FSAL, and an
# ``on_accept`` that hands back its ``y`` object keeps the last stage.
# Inside the loop max(x, c) is written ``c if c > x else x`` and min(x, c)
# ``c if c < x else x``, the builtins' results, NaN included, without a call.
_LEG_TEMPLATE = """\
def leg(_t, _t1, _y, _rtol, _atol, _on_accept, _max_steps, {params}):
{unpack}
{first}
    _span = _t1 - _t
    _h = min(1e-2 * _span, 0.1 * ({y_size} + 1.0) / ({f_size} + 1e-300))
    _h = max(_h, 1e-12 * _span)
    _count = 0
    _min_h = 1e-15 * max(1.0, abs(_span))
    while _t < _t1:
        if _count >= _max_steps:
            raise _OdeToleranceNotMet(
                f"step limit {{_max_steps}} reached at t={{_t:.6g}}")
        _d = _t1 - _t
        _h = _d if _d < _h else _h
{attempt}
        if not _isfinite(_enorm):
            _h *= 0.25
            if _h < _min_h:
                raise _StepUnderflow("non-finite error estimate at minimal step")
            continue
        if _enorm > 1.0:
            _f = 0.9 * _enorm ** (-0.2)
            _h *= _f if _f > 0.2 else 0.2
            if _h < _min_h:
                raise _StepUnderflow(f"step underflow at t={{_t:.6g}}")
            continue
        _t += _h
{advance}
        _count += 1
        if _on_accept is not None:
{pack}
            _ya, _action = _on_accept(_t, _y)
            if _ya is not _y:
{unpack_hooked}
{refresh}
            if _action == _STOP:
                return _t, {state}, True, _count
        _f = 0.9 * _enorm ** (-0.2) if _enorm > 0 else 5.0
        _f = _f if _f > 0.2 else 0.2
        _h *= _f if _f < 5.0 else 5.0
    return _t, {state}, False, _count
"""


def _kernel_source(arity: int | None, rhs: Rhs) -> str:
    """Source of one whole run: ``leg(_t, _t1, _y, _rtol, _atol,
    _on_accept, _max_steps, *params) -> (t, y, stopped, n_steps)``.

    The right-hand side is written into every stage and the step
    controller around the attempts, so the state stays in locals from the
    first step to the last.
    """
    write = _rhs_writer(rhs, arity)
    comps = _components(arity)
    ys = [f"_y{c}" for c in comps]
    first = write(1, "_t", ys)
    unpack = [] if arity is None else [f"{', '.join(ys)}, = _y"]
    return _LEG_TEMPLATE.format(
        params=", ".join(rhs.params), state=_pack(ys, arity),
        y_size=f"abs(_y{comps[0]})", f_size=f"abs(_k1{comps[0]})",
        unpack=_block(unpack, 1), first=_block(first, 1),
        attempt=_block(_attempt_lines(arity, write), 2),
        advance=_block([f"_y{c} = _n{c}" for c in comps]
                       + [f"_k1{c} = _k{_FSAL}{c}" for c in comps], 2),
        pack=_block([] if arity is None else [f"_y = {_pack(ys, arity)}"],
                    3),
        unpack_hooked=_block([f"{', '.join(ys)}, = _ya" if arity is not None
                              else "_y = _ya"], 4),
        refresh=_block(first, 4))


_NAMESPACE = {"_isfinite": math.isfinite, "_STOP": STOP,
              "_OdeToleranceNotMet": OdeToleranceNotMet,
              "_StepUnderflow": StepUnderflow}


def _compile(source: str, name: str):
    namespace = dict(_NAMESPACE)
    exec(source, namespace)
    return namespace[name]


@functools.cache
def _kernel(arity: int | None, rhs: Rhs):
    """The run for one state shape and right-hand side, generated on first
    use."""
    return _compile(_kernel_source(arity, rhs), "leg")


def integrate(g, t0: float, t1: float, y0, rtol: float = 1e-12,
              atol: float = 1e-14, on_accept=None,
              max_steps: int = 500_000, args: tuple = ()) -> IntegrationResult:
    """Integrate y' = g(t, y) from t0 to t1 (t1 > t0) by ``DP54``.

    ``g`` is an ``Rhs`` whose parameter values are ``args``, or a callable
    ``g(t, y)`` (then ``args`` is unused).  ``y0`` is a number (scalar
    state) or a sequence of numbers (tuple state).  ``on_accept(t, y) ->
    (y, action)`` runs after each accepted step; action ``STOP`` ends the
    integration at that point.

    Only the leading component of a tuple state enters the error norm and
    the initial step size; the rest ride along on the steps it chooses,
    unchecked, NaN included.  The leading component takes exactly the
    steps and values of a scalar run on its own equation.
    """
    span = t1 - t0
    if span <= 0.0:
        raise ValueError("t1 must exceed t0")
    scalar = isinstance(y0, numbers.Number)
    y = complex(y0) if scalar else tuple(complex(v) for v in y0)
    if not isinstance(g, Rhs):
        g, args = CALL, (g,)
    leg = _kernel(None if scalar else len(y), g)
    return IntegrationResult(*leg(float(t0), t1, y, rtol, atol, on_accept,
                                  max_steps, *args))


def integrate_along_path(f, y0, waypoints, rtol: float = 1e-12,
                         atol: float = 1e-14, on_accept=None,
                         max_steps: int = 500_000) -> IntegrationResult:
    """Integrate y' = f(z, y) dz along the polyline through ``waypoints``.

    Each leg is parametrized linearly; ``on_accept`` receives the complex
    position instead of the leg parameter.  Returns the state at the final
    waypoint (or at the stop point), with that point as ``z``.  No module
    of the package calls it; the benchmark's tracer resolves it by name.
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


# ---------------------------------------------------------------------------
# Taylor legs of polynomial equations

#: Order N of the local Taylor polynomial of one step.
TAYLOR_ORDER = 20
#: Per-step error target as a fraction of rtol; ``taylor_leg`` states its use.
TAYLOR_TARGET = 1e-2
#: Steps a Taylor leg takes at most before it raises ``OdeToleranceNotMet``.
TAYLOR_MAX_STEPS = 100_000


@dataclass(frozen=True, eq=False)
class TaylorEquation:
    """A polynomial ODE in z as the data ``taylor_kernel`` writes a leg from.

    - ``state``: the names of the carried values; ``params``: those of the
      constants that the leg takes after ``z0, dz``.
    - ``recurrence``: source lines that set the Taylor coefficients
      ``<c>0`` .. ``<c>N``, N = ``TAYLOR_ORDER``, of each series c about
      the point ``zc`` from the state and the parameters.
    - ``sources``: for each state value, its series and 0 if it is the
      series' value, 1 if its derivative.
    - ``guard``: the series whose terms N-4..N-2 bound the step where its
      last two vanish (``taylor_leg``), or None.
    - ``view``: the expressions of the state that the hook sees.

    Compared and hashed by identity: the kernel cache keys on the module
    constants.
    """

    state: tuple[str, ...]
    params: tuple[str, ...]
    recurrence: tuple[str, ...]
    sources: tuple[tuple[str, int], ...]
    guard: str | None
    view: tuple[str, ...]


def _horner(c: str, n: int, derivative: int) -> str:
    """Expression of the polynomial sum c_k s^k over the locals c0..c<n>,
    or of its derivative in s, by Horner."""
    def term(k):
        return f"{k} * {c}{k}" if derivative else f"{c}{k}"
    expr = term(n)
    for k in range(n - 1, derivative - 1, -1):
        expr = f"({expr}) * s + {term(k)}"
    return expr


def _lower_reach(bounds) -> list[str]:
    """Lines that lower ``reach`` to each bound in turn: a minimum that
    keeps the first of equal values, as min() does."""
    lines = []
    for bound in bounds:
        lines += [f"r = {bound}", "if r < reach:", "    reach = r"]
    return lines


def _step_control(eq: TaylorEquation, n: int) -> list[str]:
    """The lines that bound the step ``reach`` from a step's coefficients
    and set ``rest``, what is left of the leg; ``taylor_leg`` states the
    rules."""
    series = dict.fromkeys(c for c, _ in eq.sources)
    lines = []
    for c in series:
        lines += [f"{c}_tail1 = abs({c}{n - 1}) + 1e-300",
                  f"{c}_tail = abs({c}{n}) + 1e-300"]
    tails = " + ".join(f"{c}_tail1 + {c}_tail" for c in series)
    lines += [f"if not _isfinite({tails}):",
              "    raise _StepUnderflow(",
              "        f\"non-finite Taylor coefficient at t={t:.6g}\")"]
    lines += [f"tol_{v} = tol * (1.0 + abs({v}))" for v in eq.state]
    bounds = []
    for v, (c, d) in zip(eq.state, eq.sources):
        for k, tail in ((n - 1, f"{c}_tail1"), (n, f"{c}_tail")):
            scaled = f"({k} * {tail})" if d else tail
            bounds.append(f"(tol_{v} / {scaled}) ** {1.0 / (k - d)!r}")
    lines += [f"reach = {bounds[0]}"] + _lower_reach(bounds[1:])
    lines.append("rest = (1.0 - t) * adz")
    if eq.guard is None:
        return lines
    c = eq.guard
    lines += [f"slack = 1e4 * tol_{eq.state[eq.sources.index((c, 0))]}",
              "s = rest if rest < reach else reach",
              f"m4, m3, m2 = abs({c}{n - 4}), abs({c}{n - 3}), "
              f"abs({c}{n - 2})",
              f"if (m4 + (m3 + m2 * s) * s) * s ** {n - 4} > slack:"]
    lines += ["    " + line for line in _lower_reach(
        f"(slack / (m{n - k} + 1e-300)) ** {1.0 / k!r}"
        for k in (n - 4, n - 3, n - 2))]
    return lines


# One whole Taylor leg; ``taylor_leg`` states the step control.
_TAYLOR_TEMPLATE = """\
def leg({args}, rtol, on_accept):
    adz = abs(dz)
    tol = {target!r} * rtol
    t = 0.0
    n = 0
    while t < 1.0:
        if n >= {max_steps}:
            raise _OdeToleranceNotMet(
                f"step limit {max_steps} reached at t={{t:.6g}}")
        zc = z0 + t * dz
{coefficients}
{control}
        if reach >= rest:
            h = 1.0 - t
            t = 1.0
        else:
            h = reach / adz
            if h < 1e-15:
                raise _StepUnderflow(f"step underflow at t={{t:.6g}}")
            t += h
        s = h * dz
        {state} = {values}
        n += 1
        if on_accept is not None and on_accept(t, ({view},)) == _STOP:
            return t, ({state},), True, n
    return t, ({state},), False, n
"""


def _taylor_source(eq: TaylorEquation, name: str) -> str:
    """Source of the generated function ``name`` of ``eq`` at order
    ``TAYLOR_ORDER``: ``coefficients(*state, zc, *params) -> (the
    coefficients of each series)``, ``evaluate(coefs, s) -> state`` or
    ``leg(*state, z0, dz, *params, rtol, on_accept) -> (t, state, stopped,
    n_steps)``."""
    n = TAYLOR_ORDER
    state = ", ".join(eq.state)
    values = ", ".join(_horner(c, n, d) for c, d in eq.sources)
    series = dict.fromkeys(c for c, _ in eq.sources)
    coefs = ", ".join(f"{c}{k}" for c in series for k in range(n + 1))
    if name == "coefficients":
        return (f"def coefficients({', '.join(eq.state + ('zc',) + eq.params)}"
                f"):\n{_block(eq.recurrence, 1)}\n    return ({coefs},)\n")
    if name == "evaluate":
        return (f"def evaluate(coefs, s):\n    {coefs}, = coefs\n"
                f"    return {values}\n")
    return _TAYLOR_TEMPLATE.format(
        args=", ".join(eq.state + ("z0", "dz") + eq.params),
        target=TAYLOR_TARGET, max_steps=TAYLOR_MAX_STEPS,
        coefficients=_block(eq.recurrence, 2),
        control=_block(_step_control(eq, n), 2), state=state, values=values,
        view=", ".join(eq.view))


@functools.cache
def taylor_kernel(eq: TaylorEquation, name: str):
    """The generated function ``name`` (``_taylor_source``) of ``eq``,
    compiled on first use."""
    return _compile(_taylor_source(eq, name), name)


def taylor_leg(eq: TaylorEquation, y0, z0: complex, dz: complex,
               rtol: float, on_accept=None, args: tuple = ()
               ) -> IntegrationResult:
    """Carry the state ``y0`` of ``eq`` along z0 -> z0 + dz by Taylor steps.

    Each step expands every series about the current point to order
    N = ``TAYLOR_ORDER`` and takes the largest step h at which the last
    two terms of each state value stay below tol (1 + |value|), with
    tol = ``TAYLOR_TARGET * rtol`` (the step control of Jorba & Zou,
    Exp. Math. 14, 2005): |c_{N-1}| h^(N-1) and |c_N| h^N for the value
    of a series c, (N-1) |c_{N-1}| h^(N-2) and N |c_N| h^(N-1) for its
    derivative.  The 1e-300 added to each |c_k| keeps a tail that vanishes
    from bounding the step.  Where the last two terms of ``eq.guard`` can
    vanish at once, at a fixed point of the equation, its terms
    k = N-4..N-2 bound h as well once they sum to more than 1e4 tol
    (1 + |value|) at h, each at that looser tolerance.

    The leg runs in its parameter t in [0, 1]; ``on_accept(t, view) ->
    action`` sees t and ``eq.view`` after every step and ends the leg with
    ``STOP``.  ``args`` are the values of ``eq.params``.  A non-finite
    coefficient or a step below 1e-15 raises ``StepUnderflow``, the step
    limit ``OdeToleranceNotMet``.  The whole leg is one generated function
    (``taylor_kernel``): the recurrence, the step control and the Horner
    sums are straight-line code over locals.
    """
    t, y, stopped, n = taylor_kernel(eq, "leg")(
        *[complex(v) for v in y0], z0, dz, *args, rtol, on_accept)
    return IntegrationResult(t, y, stopped, n)
