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
V with its branch choice (its stop source makes the FSAL stage's root the
next reference, a kernel local), and the oscillator's inward legs.
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
- ``Rhs.stop``, when given, is a stop source: lines that read ``T`` and
  ``Y0``, ... (or ``Y``) at the accepted state and the parameters, may
  use locals of their own, and set ``STOP``.  The kernel runs it after
  every accepted step, before ``on_accept``; a true ``STOP`` ends the run
  as a hook's ``STOP`` does.  What it assigns persists to the next step,
  and it reads the right-hand side's locals as the FSAL stage left them.
  The oscillator's inward legs carry their chart switch this way, and the
  Stokes tracer its branch reference and the pre-test of its termini.

The kernel writes the tableau's weights as complex constants
(``(0.2+0j) * _k1``) and the step as ``_hc = _h + 0j``.  CPython 3.10 to
3.13 promote a float operand of a complex operation to complex(x, 0.0)
before they compute, so a complex operand gives every value the same
bits; it only skips the float slot, which fails on a complex argument
before the complex one runs: about 45 against 31 ns a product on Python
3.11, and a 3-component step has about 97 such operations.  Python 3.14
computes float-complex operations in mixed mode (a float times a complex
multiplies each part), which differs at signed zeros, infinities and
NaNs; there the complex operands keep the values of 3.13, and
``tests/test_complex_ode.py`` fails on the promotion it relies on.

Both integrators take one hook protocol: ``on_accept(t, y) -> action``
runs after every accepted step, sees the state and ends the run when it
returns ``STOP``.  It cannot replace the state, so every step starts from
the FSAL stage of the last; what must carry from step to step into the
right-hand side belongs in a stop source, which can assign a parameter.

``taylor_leg`` runs a ``TaylorEquation``, an equation given as data, on
one template (``_taylor_source``) that writes the loop, the step control,
the errors and the Horner advance.  Two equations run on it, both second
order with each state value a series' value or derivative: ``painleve``'s
y'' = 6 y^2 - z (244 steps from 40 to -12, 211 in ``track`` and 33 in
the seed's cross-check, where DOP853 took 2,033 and DP54 16,247) and the
oscillator's outward legs, two solutions of psi'' = V psi with V cubic
(936 steps per ``catalog`` pass).  Its hook sees the state, as floats
on a real leg.

A Taylor kernel computes in one of two number types, ``complex`` or
``float``; the one generated text that depends on the type is the
literal that starts a sum, ``ZERO`` in a recurrence (``0j`` or ``0.0``).
``taylor_leg`` runs the float kernel on the real parts when every input
is real: z0, dz, each state value and each parameter has the imaginary
part +0.0, and no part is -0.0.  Any other input runs the complex
kernel.  The bits match because a complex operation on zero imaginary
parts gives the float result as its real part: a product's real part is
xr yr - xi yi = xr yr - (+-0), a sum's xr + yr, ``abs`` gives |xr|, and
a float or int operand is promoted to complex(x, 0.0) (on Python 3.14
multiplied part by part).  Each state value ends in a sum with the
previous value, or with 1 times it, so its imaginary part stays +0.0.
On finite values the two kernels could differ only in the sign of a
component that is exactly zero, so the float kernel keeps the complex
kernel's operations in the same order; a coefficient that is not finite
raises the same error in both.  On random legs and on grids of signed
zeros they differed only where an input had a part -0.0, which is why
such an input runs complex.  Checked on CPython 3.10 to 3.13.
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
    """A right-hand side given as source lines over named parameters, with
    an optional stop source.

    The module docstring states what the sources may read and must set;
    ``integrate`` takes the parameter values in ``args``, in the order of
    ``params``.  Compared and hashed by value: the kernel cache keys on it.
    """

    params: tuple[str, ...]
    source: str
    stop: str | None = None


#: The callable shorthand: ``integrate`` runs a callable ``g`` as this
#: source, with ``g`` as the one parameter.
CALL = Rhs(("g",), "F = g(T, Y)")


def _combination(coefs, names) -> str:
    """Source of sum(c * name) over the nonzero coefficients, left to right,
    each coefficient a complex constant (the module docstring says why)."""
    return " + ".join(f"{complex(c)!r} * {name}"
                      for c, name in zip(coefs, names) if c)


def _components(arity: int | None) -> list[str]:
    """Name suffixes of the state components: one empty suffix for a bare
    complex, ``_0``.. for a tuple."""
    return [""] if arity is None else [f"_{i}" for i in range(arity)]


def _pack(names, arity: int | None) -> str:
    return names[0] if arity is None else f"({', '.join(names)},)"


def _names(source: str, params=()) -> set[str]:
    """The names that ``source`` reads or sets, and ``params``; those that
    begin with an underscore belong to the kernel and are refused."""
    names = {node.id for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Name)} | set(params)
    if any(name.startswith("_") for name in names):
        raise ValueError("names beginning with '_' belong to the kernel")
    return names


def _bind(names: set[str], t: str, inputs, arity: int | None) -> list[str]:
    """Lines that set the time ``T`` and the state ``Y0``.. (and ``Y``) to
    ``t`` and ``inputs``, those of them that ``names`` reads."""
    lines = [f"T = {t}"] if "T" in names else []
    lines += [f"Y{i} = {v}" for i, v in enumerate(inputs)
              if "Y" in names or f"Y{i}" in names]
    if "Y" in names:
        packed = _pack([f"Y{i}" for i in range(len(inputs))], arity)
        lines.append(f"Y = {packed}")
    return lines


def _rhs_writer(rhs: Rhs, arity: int | None):
    """``write(stage, t, inputs)``: the lines of one evaluation of ``rhs``
    at time ``t`` and the state components ``inputs``, storing the
    derivative in the components of ``_k<stage>``."""
    source = textwrap.dedent(rhs.source).strip()
    names = _names(source, rhs.params)
    n = 1 if arity is None else arity
    if "F" not in names and not {f"F{i}" for i in range(n)} <= names:
        raise ValueError(f"the source must set F or F0..F{n - 1}")
    body = source.splitlines()
    comps = _components(arity)

    def write(stage, t, inputs):
        ks = [f"_k{stage}{c}" for c in comps]
        packed = ks[0] if arity is None else ", ".join(ks) + ","
        return _bind(names, t, inputs, arity) + [
            re.sub(r"\bF(\d*)\b",
                   lambda m: ks[int(m[1])] if m[1] else packed, line)
            for line in body]

    return write


def _stop_lines(rhs: Rhs, arity: int | None) -> list[str]:
    """The stop source at the accepted state and the return it takes when
    it sets ``STOP`` true; no lines without one."""
    if rhs.stop is None:
        return []
    source = textwrap.dedent(rhs.stop).strip()
    names = _names(source)
    if "STOP" not in names:
        raise ValueError("the stop source must set STOP")
    ys = [f"_y{c}" for c in _components(arity)]
    return (_bind(names, "_t", ys, arity) + source.splitlines()
            + ["if STOP:", f"    return _t, {_pack(ys, arity)}, True, _count"])


def _attempt_lines(arity: int | None, write) -> list[str]:
    """One attempt of ``DP54`` from ``_t``, ``_y`` and ``_k1`` with step
    ``_h``: the new state ``_n``, its derivative (the FSAL stage) and the
    error norm ``_enorm`` of the leading component.

    Every component is advanced as ``y + h * (a . k)`` with the products
    summed left to right, the operation order of the scalar formula, so
    each component's value does not depend on the arity.  The weights and
    the step ``_hc`` enter as complex operands; the nodes stay floats.
    """
    comps = _components(arity)

    def stages(c, count):
        return [f"_k{j}{c}" for j in range(1, count + 1)]

    def node(c):
        return "_t + _h" if c == 1.0 else f"_t + {c!r} * _h"

    lines = ["_hc = _h + 0j"]
    for stage, row in enumerate(DP54.rows, start=2):
        lines += write(stage, node(DP54.nodes[stage - 2]),
                       [f"_y{c} + _hc * ({_combination(row, stages(c, stage - 1))})"
                        for c in comps])
    for c in comps:
        lines.append(f"_n{c} = _y{c} + _hc * "
                     f"({_combination(DP54.weights, stages(c, _FSAL - 1))})")
    lines += write(_FSAL, node(DP54.nodes[-1]), [f"_n{c}" for c in comps])
    c = comps[0]
    err = _combination(DP54.error, stages(c, _FSAL))
    # max(|y|, |n|) as a conditional expression, NaN included
    return lines + [
        f"_a{c} = abs(_y{c})", f"_b{c} = abs(_n{c})",
        f"_r{c} = abs(_hc * ({err})) / "
        f"(_atol + _rtol * (_b{c} if _b{c} > _a{c} else _a{c}))",
        f"_enorm = _r{c}"]


def _block(lines, depth: int) -> str:
    return "\n".join("    " * depth + line for line in lines)


# One whole run.  The slots are filled with blocks of generated lines; the
# controller is the one of Hairer, Norsett & Wanner II.4 with FSAL.
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
{stop}
        if _on_accept is not None:
{pack}
            if _on_accept(_t, _y) == _STOP:
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
    unpack = [] if arity is None else [f"{', '.join(ys)}, = _y"]
    return _LEG_TEMPLATE.format(
        params=", ".join(rhs.params), state=_pack(ys, arity),
        y_size=f"abs(_y{comps[0]})", f_size=f"abs(_k1{comps[0]})",
        unpack=_block(unpack, 1), first=_block(write(1, "_t", ys), 1),
        attempt=_block(_attempt_lines(arity, write), 2),
        advance=_block([f"_y{c} = _n{c}" for c in comps]
                       + [f"_k1{c} = _k{_FSAL}{c}" for c in comps], 2),
        stop=_block(_stop_lines(rhs, arity), 2),
        pack=_block([] if arity is None else [f"_y = {_pack(ys, arity)}"],
                    3))


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
    action`` runs after each accepted step, after ``g``'s stop source;
    action ``STOP``, or a true ``STOP`` of the stop source, ends the
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

    Each leg is parametrized linearly; ``on_accept(z, y) -> action``
    receives the complex position instead of the leg parameter.  Returns the state at the final
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
      the point ``zc`` from the state and the parameters.  They may read
      ``ZERO``, the zero of the kernel's number type.
    - ``sources``: for each state value, its series and 0 if it is the
      series' value, 1 if its derivative.
    - ``guard``: the series whose terms N-4..N-2 bound the step where its
      last two vanish (``taylor_leg``), or None.

    Compared and hashed by identity: the kernel cache keys on the module
    constants.
    """

    state: tuple[str, ...]
    params: tuple[str, ...]
    recurrence: tuple[str, ...]
    sources: tuple[tuple[str, int], ...]
    guard: str | None


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
        if on_accept is not None and on_accept(t, ({state},)) == _STOP:
            return t, ({state},), True, n
    return t, ({state},), False, n
"""


#: The number types of a Taylor kernel and the literal of each one's zero.
_ZERO = {complex: "0j", float: "0.0"}


def _taylor_source(eq: TaylorEquation, name: str,
                   number: type = complex) -> str:
    """Source of the generated function ``name`` of ``eq`` at order
    ``TAYLOR_ORDER`` in the number type ``number``: ``coefficients(*state,
    zc, *params) -> (the coefficients of each series)``, ``evaluate(coefs,
    s) -> state`` or ``leg(*state, z0, dz, *params, rtol, on_accept) -> (t,
    state, stopped, n_steps)``."""
    zero = _ZERO[number]
    recurrence = [re.sub(r"\bZERO\b", zero, line) for line in eq.recurrence]
    n = TAYLOR_ORDER
    state = ", ".join(eq.state)
    values = ", ".join(_horner(c, n, d) for c, d in eq.sources)
    series = dict.fromkeys(c for c, _ in eq.sources)
    coefs = ", ".join(f"{c}{k}" for c in series for k in range(n + 1))
    if name == "coefficients":
        return (f"def coefficients({', '.join(eq.state + ('zc',) + eq.params)}"
                f"):\n{_block(recurrence, 1)}\n    return ({coefs},)\n")
    if name == "evaluate":
        return (f"def evaluate(coefs, s):\n    {coefs}, = coefs\n"
                f"    return {values}\n")
    return _TAYLOR_TEMPLATE.format(
        args=", ".join(eq.state + ("z0", "dz") + eq.params),
        target=TAYLOR_TARGET, max_steps=TAYLOR_MAX_STEPS,
        coefficients=_block(recurrence, 2),
        control=_block(_step_control(eq, n), 2), state=state, values=values)


@functools.cache
def taylor_kernel(eq: TaylorEquation, name: str, number: type = complex):
    """The generated function ``name`` (``_taylor_source``) of ``eq`` in the
    number type ``number``, ``complex`` or ``float``, compiled on first
    use."""
    return _compile(_taylor_source(eq, name, number), name)


def _real_parts(values: list[complex]) -> list[float] | None:
    """The real parts of ``values`` if each is real, with the imaginary
    part +0.0 and no part -0.0; None otherwise."""
    for v in values:
        if (v.imag or math.copysign(1.0, v.imag) < 0.0
                or not v.real and math.copysign(1.0, v.real) < 0.0):
            return None
    return [v.real for v in values]


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

    The leg runs in its parameter t in [0, 1]; ``on_accept(t, state) ->
    action`` sees t and the state after every step and ends the leg with
    ``STOP``.  ``args`` are the values of ``eq.params``.  A non-finite
    coefficient or a step below 1e-15 raises ``StepUnderflow``, the step
    limit ``OdeToleranceNotMet``.  The whole leg is one generated function
    (``taylor_kernel``): the recurrence, the step control and the Horner
    sums are straight-line code over locals.

    The inputs y0, z0, dz and ``args`` are taken as complex.  When each is
    real (the module docstring states the rule), the leg runs the float
    kernel on the real parts, bit for bit, and ``on_accept`` sees the state
    as the floats the leg carries; otherwise it sees complex values.  The
    result holds complex values either way.
    """
    values = [complex(v) for v in (*y0, z0, dz, *args)]
    real = _real_parts(values)
    if real is None:
        t, y, stopped, n = taylor_kernel(eq, "leg")(*values, rtol, on_accept)
        return IntegrationResult(t, y, stopped, n)
    t, y, stopped, n = taylor_kernel(eq, "leg", float)(*real, rtol, on_accept)
    return IntegrationResult(t, tuple(map(complex, y)), stopped, n)
