"""Adaptive embedded Runge-Kutta integration for complex-valued systems.

The integrator advances ``y' = g(t, y)`` for a real parameter ``t``; paths
in the complex plane are handled by the callers through the parametrization
baked into ``g`` (``integrate_along_path`` does this for polylines).  One
stage-code generator and one step controller run either of two explicit
pairs with the first-same-as-last (FSAL) property and local extrapolation
(Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.5 and II.10):

- ``DP54``, Dormand-Prince 5(4), the default: 6 stages per step.
- ``DOP853``, Hairer's 8th-order method with the combined 5th/3rd-order
  error estimate: 12 stages per step.

The tableau is a per-call argument.  ``painleve`` runs on ``DOP853``: at
its rtol 1e-12..1e-13 over spans of tens of units, 8th order takes about
8x fewer steps (2,033 against 16,247 from 40 to -12), and twice the
evaluations per step still leave a 3-4x gain.  The Stokes tracer stays on
``DP54``: at rtol 1e-9 its steps only halve, while every step would make
twice the evaluations of its costly ``branch_sqrt`` right-hand side, so
no time is saved.  The oscillator stays on ``DP54`` too, so its poles keep
their values (ROADMAP item 3 has the measurements).

The state is either a bare ``complex`` (one unknown) or a tuple of complex
(any number of unknowns); ``g`` returns a value of the same shape.  The
stage arithmetic is generated once per tableau and state shape
(``_stage_fn``), unrolled over the components; every component is advanced
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
    stage-code cache keys on the module constants.
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


def _combination(coefs, names) -> str:
    """Source of sum(c * name) over the nonzero coefficients, left to right."""
    return " + ".join(f"{c!r} * {name}" for c, name in zip(coefs, names) if c)


def _stage_source(arity: int | None, error_dims: int,
                  tableau: Tableau = DP54) -> str:
    """Source of one attempt of ``tableau``, unrolled over the components.

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

    n_stages = len(tableau.weights)
    fsal = f"k{n_stages + 1}"
    lines = ["def step(g, t, y, k1, h, rtol, atol):"]
    if arity is not None:
        lines.append(f"    {', '.join(f'y{c}' for c in comps)}, = y")
        lines.append(f"    {unpack(1)} = k1")
    for stage, row in enumerate(tableau.rows, start=2):
        args = [f"y{c} + h * ({_combination(row, stages(c, stage - 1))})"
                for c in comps]
        lines.append(f"    {unpack(stage)} = "
                     f"g({node(tableau.nodes[stage - 2])}, {pack(args)})")
    for c in comps:
        lines.append(f"    n{c} = y{c} + h * "
                     f"({_combination(tableau.weights, stages(c, n_stages))})")
    lines.append(f"    y_new = {pack([f'n{c}' for c in comps])}")
    lines.append(f"    {fsal} = g({node(tableau.nodes[-1])}, y_new)")
    if arity is not None:
        lines.append(f"    {unpack(n_stages + 1)} = {fsal}")
    ratios = []
    for c in comps[:error_dims]:
        err = _combination(tableau.error, stages(c, len(tableau.error)))
        scale = f"(atol + rtol * max(abs(y{c}), abs(n{c})))"
        if tableau.error3 is None:
            lines.append(f"    r{c} = abs(h * ({err})) / {scale}")
        else:
            # |e|^2 / sqrt(|e|^2 + 0.01 |e3|^2) as |e| * (|e| / hypot(...)),
            # which neither overflows nor underflows to 0 / 0
            err3 = _combination(tableau.error3,
                                stages(c, len(tableau.error3)))
            lines.append(f"    e{c} = abs({err})")
            lines.append(f"    r{c} = abs(h) * e{c} * (e{c} / hypot(e{c}, "
                         f"0.1 * abs({err3}))) / {scale} if e{c} else 0.0")
        ratios.append(f"r{c}")
    if len(ratios) == 1:
        lines.append(f"    return y_new, {fsal}, {ratios[0]}")
    else:
        # max() drops a NaN that does not come first; the sum keeps it
        lines.append(f"    enorm = max({', '.join(ratios)})")
        lines.append(f"    if isnan({' + '.join(ratios)}):")
        lines.append("        enorm = nan")
        lines.append(f"    return y_new, {fsal}, enorm")
    return "\n".join(lines) + "\n"


@functools.cache
def _stage_fn(arity: int | None, error_dims: int, tableau: Tableau = DP54):
    """The attempt for one tableau and state shape, generated on first use.

    ``step(g, t, y, k1, h, rtol, atol) -> (y_new, g at y_new, error norm)``;
    unrolling removes the per-component iteration a generic tuple step
    pays on every stage.
    """
    namespace = {"isnan": math.isnan, "nan": math.nan, "hypot": math.hypot}
    exec(_stage_source(arity, error_dims, tableau), namespace)
    return namespace["step"]


def _max_abs(y) -> float:
    return max(abs(v) for v in y)


def integrate(g, t0: float, t1: float, y0, rtol: float = 1e-12,
              atol: float = 1e-14, on_accept=None,
              max_steps: int = 500_000,
              error_dims: int | None = None,
              tableau: Tableau = DP54) -> IntegrationResult:
    """Integrate y' = g(t, y) from t0 to t1 (t1 > t0).

    ``y0`` is a number (scalar state) or a sequence of numbers (tuple
    state).  ``on_accept(t, y) -> (y, action)`` runs after each accepted
    step; action ``STOP`` ends the integration at that point.

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
    step = _stage_fn(None if scalar else dims, checked, tableau)
    expo = tableau.exponent
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
            h *= max(0.2, 0.9 * enorm ** expo)
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
        h *= min(5.0, max(0.2, 0.9 * enorm ** expo if enorm > 0 else 5.0))
    return IntegrationResult(t, y, False, n)


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
