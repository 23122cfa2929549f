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
baked into ``g``.  ``integrate_along_path`` does this for polylines; no
module of the package calls it, only the tests' DOP853 references and the
benchmark's tracer.  One code generator runs either of two explicit pairs
with the first-same-as-last (FSAL) property and local extrapolation
(Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.5 and II.10):

- ``DP54``, Dormand-Prince 5(4), the default: 6 stages per step.
- ``DOP853``, Hairer's 8th-order method with the combined 5th/3rd-order
  error estimate: 12 stages per step.

The tableau is a per-call argument.  The Stokes tracer stays on ``DP54``:
at rtol 1e-9 DOP853's steps only halve, while every step would make twice
the evaluations of its tangent, a complex square root of V with its branch
choice, so no evaluation is saved.  The tangent runs in the kernel like
every other right-hand side here, with the branch reference in a list that
its ``on_accept`` updates.  The oscillator's inward legs stay on ``DP54``
too, so its poles keep their values; ``DOP853`` stays for their move
(ROADMAP item 3 has the measurements: about 3x fewer steps per ``catalog``
pass), and as the tests' reference for the Taylor legs.

The state is either a bare ``complex`` (one unknown) or a tuple of complex
(any number of unknowns).  Each run is one generated function
(``_kernel``), made on first use per tableau, state shape, ``error_dims``
and right-hand side and then cached: the right-hand side is written into
every stage and the step controller around the attempts, so no stage makes
a Python call.  The stages are unrolled over the components, and every
component is advanced with the operations of the scalar formula, so a
scalar and a 1-tuple take identical steps.  The error norm may be
restricted to the leading components (``error_dims``), which lets
variational equations ride along on the steps of the state they
differentiate.

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


@dataclass(frozen=True, eq=False)
class Tableau:
    """An explicit Runge-Kutta pair of s stages whose stage s+1 is FSAL.

    ``nodes`` are c_2..c_{s+1} (the last is 1: stage s+1 is g at the new
    state, reused as the next step's first stage) and ``rows`` the stage
    rows a_2..a_s.  ``weights`` b_1..b_s advance the state; ``error``
    weights over k_1..k_{s+1} give the local error estimate e.  With
    ``error3``, the weights of a second (3rd-order) estimate e3, a
    component's error is |h| |e|^2 / sqrt(|e|^2 + 0.01 |e3|^2), Hairer's
    DOP853 estimate; without it, |h e|.  ``exponent`` is the controller's
    power of the error norm.  Compared and hashed by identity: the
    kernel cache keys on the module constants.
    """

    nodes: tuple[float, ...]
    rows: tuple[tuple[float, ...], ...]
    weights: tuple[float, ...]
    error: tuple[float, ...]
    error3: tuple[float, ...] | None
    exponent: float


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
           22 / 525, -1 / 40),
    error3=None,
    exponent=-1 / 5)

# Hairer's DOP853 (the coefficients of his Fortran code dop853.f): the
# nodes c2..c13, the stage rows a_2..a_12, the 8th-order weights b, the
# 5th-order error weights and the 3rd-order ones, b minus bhh1..bhh3 at
# stages 1, 9 and 12
_B8 = (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
       4.45031289275240888144113950566, 1.89151789931450038304281599044,
       -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
       -1.52160949662516078556178806805e-1,
       2.01365400804030348374776537501e-1,
       4.47106157277725905176885569043e-2)
DOP853 = Tableau(
    nodes=(0.526001519587677318785587544488e-01,
           0.789002279381515978178381316732e-01,
           0.118350341907227396726757197510,
           0.281649658092772603273242802490,
           0.333333333333333333333333333333,
           0.25,
           0.307692307692307692307692307692,
           0.651282051282051282051282051282,
           0.6,
           0.857142857142857142857142857142,
           1.0,
           1.0),
    rows=((5.26001519587677318785587544488e-2,),
          (1.97250569845378994544595329183e-2,
           5.91751709536136983633785987549e-2),
          (2.95875854768068491816892993775e-2, 0.0,
           8.87627564304205475450678981324e-2),
          (2.41365134159266685502369798665e-1, 0.0,
           -8.84549479328286085344864962717e-1,
           9.24834003261792003115737966543e-1),
          (3.7037037037037037037037037037e-2, 0.0, 0.0,
           1.70828608729473871279604482173e-1,
           1.25467687566822425016691814123e-1),
          (3.7109375e-2, 0.0, 0.0,
           1.70252211019544039314978060272e-1,
           6.02165389804559606850219397283e-2,
           -1.7578125e-2),
          (3.70920001185047927108779319836e-2, 0.0, 0.0,
           1.70383925712239993810214054705e-1,
           1.07262030446373284651809199168e-1,
           -1.53194377486244017527936158236e-2,
           8.27378916381402288758473766002e-3),
          (6.24110958716075717114429577812e-1, 0.0, 0.0,
           -3.36089262944694129406857109825,
           -8.68219346841726006818189891453e-1,
           2.75920996994467083049415600797e1,
           2.01540675504778934086186788979e1,
           -4.34898841810699588477366255144e1),
          (4.77662536438264365890433908527e-1, 0.0, 0.0,
           -2.48811461997166764192642586468,
           -5.90290826836842996371446475743e-1,
           2.12300514481811942347288949897e1,
           1.52792336328824235832596922938e1,
           -3.32882109689848629194453265587e1,
           -2.03312017085086261358222928593e-2),
          (-9.3714243008598732571704021658e-1, 0.0, 0.0,
           5.18637242884406370830023853209,
           1.09143734899672957818500254654,
           -8.14978701074692612513997267357,
           -1.85200656599969598641566180701e1,
           2.27394870993505042818970056734e1,
           2.49360555267965238987089396762,
           -3.0467644718982195003823669022),
          (2.27331014751653820792359768449, 0.0, 0.0,
           -1.05344954667372501984066689879e1,
           -2.00087205822486249909675718444,
           -1.79589318631187989172765950534e1,
           2.79488845294199600508499808837e1,
           -2.85899827713502369474065508674,
           -8.87285693353062954433549289258,
           1.23605671757943030647266201528e1,
           6.43392746015763530355970484046e-1)),
    weights=_B8,
    error=(0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
           -0.1225156446376204440720569753e+1,
           -0.4957589496572501915214079952,
           0.1664377182454986536961530415e+1,
           -0.3503288487499736816886487290,
           0.3341791187130174790297318841,
           0.8192320648511571246570742613e-1,
           -0.2235530786388629525884427845e-1, 0.0),
    error3=(_B8[0] - 0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0,
            _B8[5], _B8[6], _B8[7],
            _B8[8] - 0.733846688281611857341361741547,
            _B8[9], _B8[10],
            _B8[11] - 0.220588235294117647058823529412e-1, 0.0),
    exponent=-1 / 8)


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


def _attempt_lines(arity: int | None, error_dims: int, tableau: Tableau,
                   write) -> list[str]:
    """One attempt of ``tableau`` from ``_t``, ``_y`` and ``_k1`` with step
    ``_h``: the new state ``_n``, its derivative (the FSAL stage) and the
    error norm ``_enorm``.

    Every component is advanced as ``y + h * (a . k)`` with the products
    summed left to right, the operation order of the scalar formula, so
    each component's value does not depend on the arity.  Only the first
    ``error_dims`` components enter the error norm.
    """
    comps = _components(arity)

    def stages(c, count):
        return [f"_k{j}{c}" for j in range(1, count + 1)]

    def node(c):
        return "_t + _h" if c == 1.0 else f"_t + {c!r} * _h"

    n_stages = len(tableau.weights)
    lines = []
    for stage, row in enumerate(tableau.rows, start=2):
        lines += write(stage, node(tableau.nodes[stage - 2]),
                       [f"_y{c} + _h * ({_combination(row, stages(c, stage - 1))})"
                        for c in comps])
    for c in comps:
        lines.append(f"_n{c} = _y{c} + _h * "
                     f"({_combination(tableau.weights, stages(c, n_stages))})")
    lines += write(n_stages + 1, node(tableau.nodes[-1]),
                   [f"_n{c}" for c in comps])
    ratios = []
    for c in comps[:error_dims]:
        err = _combination(tableau.error, stages(c, len(tableau.error)))
        # max(|y|, |n|) as a conditional expression, NaN included
        lines += [f"_a{c} = abs(_y{c})", f"_b{c} = abs(_n{c})"]
        scale = f"(_atol + _rtol * (_b{c} if _b{c} > _a{c} else _a{c}))"
        if tableau.error3 is None:
            lines.append(f"_r{c} = abs(_h * ({err})) / {scale}")
        else:
            # |e|^2 / sqrt(|e|^2 + 0.01 |e3|^2) as |e| * (|e| / hypot(...)),
            # which neither overflows nor underflows to 0 / 0
            err3 = _combination(tableau.error3,
                                stages(c, len(tableau.error3)))
            lines.append(f"_e{c} = abs({err})")
            lines.append(f"_r{c} = abs(_h) * _e{c} * (_e{c} / _hypot(_e{c}, "
                         f"0.1 * abs({err3}))) / {scale} if _e{c} else 0.0")
        ratios.append(f"_r{c}")
    if len(ratios) == 1:
        lines.append(f"_enorm = {ratios[0]}")
    else:
        # max() drops a NaN that does not come first; the sum keeps it
        lines.append(f"_enorm = max({', '.join(ratios)})")
        lines.append(f"if _isnan({' + '.join(ratios)}):")
        lines.append("    _enorm = _nan")
    return lines


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
            _f = 0.9 * _enorm ** {expo}
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
        _f = 0.9 * _enorm ** {expo} if _enorm > 0 else 5.0
        _f = _f if _f > 0.2 else 0.2
        _h *= _f if _f < 5.0 else 5.0
    return _t, {state}, False, _count
"""


def _kernel_source(arity: int | None, error_dims: int, tableau: Tableau,
                   rhs: Rhs) -> str:
    """Source of one whole run: ``leg(_t, _t1, _y, _rtol, _atol,
    _on_accept, _max_steps, *params) -> (t, y, stopped, n_steps)``.

    The right-hand side is written into every stage and the step
    controller around the attempts, so the state stays in locals from the
    first step to the last.
    """
    write = _rhs_writer(rhs, arity)
    comps = _components(arity)
    ys = [f"_y{c}" for c in comps]
    fsal = len(tableau.weights) + 1
    first = write(1, "_t", ys)

    def size(prefix):
        terms = [f"abs({prefix}{c})" for c in comps[:error_dims]]
        return terms[0] if len(terms) == 1 else f"max({', '.join(terms)})"

    unpack = [] if arity is None else [f"{', '.join(ys)}, = _y"]
    return _LEG_TEMPLATE.format(
        params=", ".join(rhs.params), state=_pack(ys, arity),
        expo=f"({tableau.exponent!r})", y_size=size("_y"),
        f_size=size("_k1"), unpack=_block(unpack, 1),
        first=_block(first, 1),
        attempt=_block(_attempt_lines(arity, error_dims, tableau, write), 2),
        advance=_block([f"_y{c} = _n{c}" for c in comps]
                       + [f"_k1{c} = _k{fsal}{c}" for c in comps], 2),
        pack=_block([] if arity is None else [f"_y = {_pack(ys, arity)}"],
                    3),
        unpack_hooked=_block([f"{', '.join(ys)}, = _ya" if arity is not None
                              else "_y = _ya"], 4),
        refresh=_block(first, 4))


_NAMESPACE = {"_isnan": math.isnan, "_nan": math.nan, "_hypot": math.hypot,
              "_isfinite": math.isfinite, "_STOP": STOP,
              "_OdeToleranceNotMet": OdeToleranceNotMet,
              "_StepUnderflow": StepUnderflow}


def _compile(source: str, name: str):
    namespace = dict(_NAMESPACE)
    exec(source, namespace)
    return namespace[name]


@functools.cache
def _kernel(arity: int | None, error_dims: int, tableau: Tableau, rhs: Rhs):
    """The run for one tableau, state shape and right-hand side, generated
    on first use."""
    return _compile(_kernel_source(arity, error_dims, tableau, rhs), "leg")


@functools.cache
def _stage_fn(arity: int | None, error_dims: int, tableau: Tableau = DP54,
              rhs: Rhs = CALL):
    """One attempt of the kernel on its own, from the same stage lines:
    ``attempt(t, y, k1, h, rtol, atol, *params) -> (y_new, derivative at
    y_new, error norm)``.  The tests check it against hand-written steps.
    """
    comps = _components(arity)
    unpack = [] if arity is None else [
        f"{', '.join(f'_y{c}' for c in comps)}, = _y",
        f"{', '.join(f'_k1{c}' for c in comps)}, = _k1"]
    fsal = len(tableau.weights) + 1
    body = unpack + _attempt_lines(arity, error_dims, tableau,
                                   _rhs_writer(rhs, arity)) + [
        f"return {_pack([f'_n{c}' for c in comps], arity)}, "
        f"{_pack([f'_k{fsal}{c}' for c in comps], arity)}, _enorm"]
    return _compile(f"def attempt(_t, _y, _k1, _h, _rtol, _atol, "
                    f"{', '.join(rhs.params)}):\n{_block(body, 1)}\n",
                    "attempt")


def integrate(g, t0: float, t1: float, y0, rtol: float = 1e-12,
              atol: float = 1e-14, on_accept=None,
              max_steps: int = 500_000,
              error_dims: int | None = None,
              tableau: Tableau = DP54, args: tuple = ()) -> IntegrationResult:
    """Integrate y' = g(t, y) from t0 to t1 (t1 > t0).

    ``g`` is an ``Rhs`` whose parameter values are ``args``, or a callable
    ``g(t, y)`` (then ``args`` is unused).  ``y0`` is a number (scalar
    state) or a sequence of numbers (tuple state).  ``on_accept(t, y) ->
    (y, action)`` runs after each accepted step; action ``STOP`` ends the
    integration at that point.

    ``error_dims`` (default: all) is how many leading components of a
    tuple state enter the error norm and the initial step size; the rest
    ride along on the steps those components choose, unchecked, NaN
    included.  With ``error_dims=1`` the first component takes exactly the
    steps and values of a scalar run on its own equation.

    ``tableau`` is the Runge-Kutta pair, ``DP54`` or ``DOP853``.
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
    if not isinstance(g, Rhs):
        g, args = CALL, (g,)
    leg = _kernel(None if scalar else dims, checked, tableau, g)
    return IntegrationResult(*leg(float(t0), t1, y, rtol, atol, on_accept,
                                  max_steps, *args))


def integrate_along_path(f, y0, waypoints, rtol: float = 1e-12,
                         atol: float = 1e-14, on_accept=None,
                         max_steps: int = 500_000,
                         tableau: Tableau = DP54) -> IntegrationResult:
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
                        max_steps=max_steps, tableau=tableau)
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
