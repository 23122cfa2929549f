"""Independent oracle implementations used by the tests.

Everything here deliberately avoids the code paths it is used to check:
roots come from Durand-Kerner instead of Cardano's formula, periods from
a dense trapezoid on a circular contour instead of the segment quadrature,
branch values from stepwise continuation, and log-derivatives from the
linear (psi, psi') system with rescaling instead of the Riccati flow.
``cycle_integral`` and ``quadrature_period_data`` are frozen copies of the
node-doubled Gauss-Legendre quadrature that the closed-form periods
replaced, with its node builder, and ``mp_period_data`` is the same six
integrals by tanh-sinh quadrature at 30 digits.  ``numpy_turning_points``
is the frozen ``np.roots`` solve that Cardano's formula replaced.
``closure_integrate`` is a frozen copy of the integrator that called its
right-hand side as a Python function at every stage, with a generated
attempt per pair, state shape and number of error-checked components, and
``closure_along_path`` runs it along a polyline.  Its pairs are ``DP54``,
Dormand-Prince 5(4) from the frozen coefficients below, and ``DOP853``,
Hairer's 8(5,3) pair with its combined 5th/3rd-order error estimate, built
from scipy's coefficient tables.  ``s_chart``, ``r_chart``, ``pair_leg``
and ``pi_leg`` are the closures the oscillator and the Painleve legs ran
on it; on DOP853, ``pi_leg`` and ``pair_leg`` are the references for the
Taylor legs that replaced them.
``closure_trace_stokes_lines`` is a frozen copy of the Stokes tracer
whose tangent was a closure over ``branch_sqrt``, run on
``closure_integrate``, and ``homotopy_solve`` a frozen copy of route 1's
homotopy that solved every intermediate target to the Newton tolerance.
``taylor_coefficients``, ``taylor_eval`` and ``taylor_leg`` are frozen
copies of route 3's Taylor recurrence, Horner sum and leg as loops, and
``laurent_series`` and ``laurent_frame`` of the Laurent-frame sums, which
``painleve`` now generates as straight-line code with every operation in
the same order.  ``pair_taylor_leg`` is the outward pair leg of
``oscillator`` as a loop, with every operation of the generated one, and
``pair_outward`` and ``pair_outward_linear`` are DOP853 references for its
value ratios, on the closure ``pair_leg`` and on the linear system.
``pi_real_poles`` is route 3 redone at 34 digits in mpmath, with its own
asymptotic seed, Taylor steps and Laurent fits.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf
from scipy.integrate._ivp import dop853_coefficients as _dop

from tritronquee import complex_ode, painleve, stokes
from tritronquee.bsb import (PRIMITIVE_11_SEED, TOL_NEWTON, QuantumPair,
                             _homotopy_targets, solve_period_targets)
from tritronquee.elliptic import (_SIGMA_CHI2, _SIGMA_CHIM2, CycleId,
                                  ParamPoint, PeriodData, Potential,
                                  TurningPoints, branch_sqrt,
                                  turning_points)
from tritronquee.errors import (DegenerateTurningPoints, OdeToleranceNotMet,
                               QuadratureNotConverged, StepUnderflow,
                               TraceStalled)
from tritronquee.oscillator import RaySpec, _adiabatic_handoff, _path_to


@dataclass(frozen=True)
class Pair:
    """An explicit Runge-Kutta pair with an FSAL last stage, as
    ``complex_ode.Tableau`` lays it out, plus ``error3``, the weights of
    DOP853's 3rd-order estimate (or None), and ``exponent``, the step
    controller's power of the error norm."""

    nodes: tuple[float, ...]
    rows: tuple[tuple[float, ...], ...]
    weights: tuple[float, ...]
    error: tuple[float, ...]
    error3: tuple[float, ...] | None
    exponent: float


# Dormand-Prince 5(4) tableau of the frozen attempts below
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)

DP54 = Pair(
    nodes=(_C2, _C3, _C4, _C5, 1.0, 1.0),
    rows=((_A21,), (_A31, _A32), (_A41, _A42, _A43),
          (_A51, _A52, _A53, _A54), (_A61, _A62, _A63, _A64, _A65)),
    weights=(_B1, 0.0, _B3, _B4, _B5, _B6),
    error=(_E1, 0.0, _E3, _E4, _E5, _E6, _E7),
    error3=None,
    exponent=-1 / 5)

# Hairer's DOP853: the coefficients of his dop853.f as scipy carries them
DOP853 = Pair(
    nodes=tuple(_dop.C[1:_dop.N_STAGES + 1].tolist()),
    rows=tuple(tuple(_dop.A[i, :i].tolist()) for i in range(1, _dop.N_STAGES)),
    weights=tuple(_dop.B.tolist()),
    error=tuple(_dop.E5.tolist()),
    error3=tuple(_dop.E3.tolist()),
    exponent=-1 / 8)


def _combination(coefs, names) -> str:
    """Source of sum(c * name) over the nonzero coefficients, left to right."""
    return " + ".join(f"{c!r} * {name}" for c, name in zip(coefs, names) if c)


def _frozen_stage_source(arity: int | None, error_dims: int,
                         tableau: Pair = DP54) -> str:
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
def _frozen_stage_fn(arity: int | None, error_dims: int,
                     tableau: Pair = DP54):
    """``step(g, t, y, k1, h, rtol, atol) -> (y_new, g at y_new, error
    norm)`` for one tableau and state shape."""
    namespace = {"isnan": math.isnan, "nan": math.nan, "hypot": math.hypot}
    exec(_frozen_stage_source(arity, error_dims, tableau), namespace)
    return namespace["step"]


def _max_abs(y) -> float:
    return max(abs(v) for v in y)


def closure_integrate(g, t0: float, t1: float, y0, rtol: float = 1e-12,
                      atol: float = 1e-14, on_accept=None,
                      max_steps: int = 500_000,
                      error_dims: int | None = None,
                      tableau: Pair = DP54):
    """``complex_ode.integrate`` as it was with a callable ``g``: the step
    controller in Python around one generated attempt per step, which calls
    ``g`` at every stage."""
    span = t1 - t0
    if span <= 0.0:
        raise ValueError("t1 must exceed t0")
    scalar = isinstance(y0, numbers.Number)
    y = complex(y0) if scalar else tuple(complex(v) for v in y0)
    dims = 1 if scalar else len(y)
    checked = dims if error_dims is None else error_dims
    if not 1 <= checked <= dims:
        raise ValueError(f"error_dims must lie in 1..{dims}")
    step = _frozen_stage_fn(None if scalar else dims, checked, tableau)
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
            if action == complex_ode.STOP:
                return complex_ode.IntegrationResult(t, y, True, n)
        h *= min(5.0, max(0.2, 0.9 * enorm ** expo if enorm > 0 else 5.0))
    return complex_ode.IntegrationResult(t, y, False, n)


def closure_along_path(f, y0, waypoints, rtol: float, atol: float,
                       on_accept, tableau: Pair = DP54):
    """``complex_ode.integrate_along_path`` on ``closure_integrate`` for a
    tuple state: y' = f(z, y) dz along the polyline through ``waypoints``,
    each leg parametrized linearly, with ``on_accept`` seeing the complex
    position.  Returns the state at the last waypoint or the stop point."""
    y = tuple(complex(v) for v in y0)
    for z0, z1 in zip(waypoints[:-1], waypoints[1:]):
        z0 = complex(z0)
        dz = complex(z1) - z0
        if dz == 0:
            continue

        def g(t, yy, z0=z0, dz=dz):
            return tuple([v * dz for v in f(z0 + t * dz, yy)])

        def hook(t, yy, z0=z0, dz=dz):
            return on_accept(z0 + t * dz, yy)

        res = closure_integrate(g, 0.0, 1.0, y, rtol=rtol, atol=atol,
                                on_accept=hook, tableau=tableau)
        y = res.y
        if res.stopped:
            break
    return y


def potential_fn(pot: Potential):
    """V as a closure over the folded coefficients 2a and 28b."""
    c2a = 2.0 * pot.a
    c28b = 28.0 * pot.b

    def v(z):
        return 4.0 * z * z * z - c2a * z - c28b

    return v


def s_chart(pot: Potential, z0: complex, dz: complex):
    """(s, ds/da, ds/db) on the leg z0 + t dz, with dz folded in."""
    v = potential_fn(pot)
    m2dz = -2.0 * dz

    def f(t, y):
        z = z0 + t * dz
        s, s_a, s_b = y
        return ((v(z) - s * s) * dz, (z + s * s_a) * m2dz,
                (14.0 + s * s_b) * m2dz)

    return f


def r_chart(pot: Potential, z0: complex, dz: complex):
    """(r, dr/da, dr/db) of the inverse chart r = 1/s on the same leg."""
    v = potential_fn(pot)

    def f(t, y):
        z = z0 + t * dz
        r, r_a, r_b = y
        vz = v(z)
        r2dz = (r + r) * dz
        return ((1.0 - vz * r * r) * dz, (z * r - vz * r_a) * r2dz,
                (14.0 * r - vz * r_b) * r2dz)

    return f


def pair_leg(pot: Potential, z0: complex, dz: complex):
    """(s_A, s_B, int (s_A - s_B) dlam) on an outward leg, with dz folded
    in: the right-hand side of ``pair_outward``."""
    v = potential_fn(pot)

    def f(t, y, z0=z0, dz=dz):
        vz = v(z0 + t * dz)
        s_a, s_b, _ = y
        return ((vz - s_a * s_a) * dz, (vz - s_b * s_b) * dz,
                (s_a - s_b) * dz)

    return f


def pi_leg(z0: complex, dz: complex):
    """(y, y') of y'' = 6 y^2 - z on the leg z0 + t dz."""
    def rhs(t, y):
        return (y[1] * dz, (6.0 * y[0] * y[0] - (z0 + t * dz)) * dz)

    return rhs


def numpy_turning_points(pot: Potential) -> TurningPoints:
    """Frozen copy of ``turning_points`` on ``np.roots``: the companion
    matrix's eigenvalues, two numpy Newton passes, the same degeneracy
    check and the same canonical order."""
    a, b = pot.a, pot.b
    roots = np.roots([4.0, 0.0, -2.0 * a, -28.0 * b]).astype(complex)
    for _ in range(2):
        v = 4.0 * roots ** 3 - 2.0 * a * roots - 28.0 * b
        dv = 12.0 * roots ** 2 - 2.0 * a
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            step = v / dv
        roots = np.where(np.isfinite(step), roots - step, roots)
    r = [complex(z) for z in roots]
    scale = 1.0 + max(abs(z) for z in r)
    sep = min(abs(r[0] - r[1]), abs(r[0] - r[2]), abs(r[1] - r[2]))
    if sep < 1e-6 * scale:
        raise DegenerateTurningPoints(
            f"turning points separated by {sep:.3e} at scale {scale:.3e}")
    dists = [max(abs(r[i] - r[j]) for j in range(3) if j != i)
             for i in range(3)]
    lo = min(dists)
    candidates = [i for i in range(3) if dists[i] <= lo * (1.0 + 1e-9)]
    inner_idx = min(candidates, key=lambda i: (r[i].real, r[i].imag))
    outers = [r[j] for j in range(3) if j != inner_idx]
    outers.sort(key=lambda z: (-z.imag, z.real))
    return TurningPoints(roots=(r[inner_idx], outers[0], outers[1]))


@functools.cache
def gauss_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of order n, mapped to [0, pi]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) * (math.pi / 2.0), w * (math.pi / 2.0)


def third_root_factor(tp: TurningPoints, which: int,
                      theta: np.ndarray) -> np.ndarray:
    """sqrt(c - r_other) * sqrt(1 + rho cos(theta)) along segment
    ``which``, on principal roots."""
    r0, rout, rv = tp.roots[0], tp.roots[which], tp.roots[3 - which]
    c = (r0 + rout) / 2.0
    rho = (rout - r0) / 2.0 / (c - rv)
    if abs(rho.imag) < 1e-14 and abs(rho.real) >= 1.0 - 1e-12:
        raise QuadratureNotConverged(
            "third turning point lies on the cut line; cycle degenerates")
    return np.sqrt(c - rv) * np.sqrt(1.0 + rho * np.cos(theta))


def cycle_integral(pot: Potential, cycle: CycleId, kind: str) -> complex:
    """One period integral ("chi", "da" or "db") by the node-doubled
    Gauss-Legendre quadrature the closed forms replaced: n = 32 .. 4096,
    stopping when n agrees with n/2 to 1e-10."""
    tp = turning_points(pot)
    which = 1 if cycle is CycleId.C_MINUS1 else 2
    sigma = _SIGMA_CHI2 if cycle is CycleId.C_MINUS1 else _SIGMA_CHIM2
    r0 = tp.roots[0]
    rout = tp.roots[which]
    c = (r0 + rout) / 2.0
    h = (rout - r0) / 2.0

    def evaluate(n: int) -> complex:
        theta, wts = gauss_nodes(n)
        w = third_root_factor(tp, which, theta)
        if kind == "chi":
            integrand = np.sin(theta) ** 2 * w
            return 4j * sigma * h * h * complex(np.sum(wts * integrand))
        lam = c + h * np.cos(theta)
        if kind == "da":
            return 1j * sigma * complex(np.sum(wts * lam / w))
        return 14j * sigma * complex(np.sum(wts / w))

    prev = evaluate(32)
    for n in (64, 128, 256, 512, 1024, 2048, 4096):
        cur = evaluate(n)
        if abs(cur - prev) <= 1e-10 * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise QuadratureNotConverged(
        f"period quadrature for {cycle} ({kind}) did not converge")


def quadrature_period_data(pot: Potential) -> PeriodData:
    """``PeriodData`` from six node-doubled quadratures."""
    c2, cm2 = CycleId.C_MINUS1, CycleId.C_PLUS1
    return PeriodData(*(cycle_integral(pot, cycle, kind)
                        for cycle, kind in ((c2, "chi"), (cm2, "chi"),
                                            (c2, "da"), (c2, "db"),
                                            (cm2, "da"), (cm2, "db"))))


def mp_period_data(pot: Potential, refine: bool = True) -> PeriodData:
    """``PeriodData`` from tanh-sinh quadrature at 30 digits.

    The turning points are ``turning_points``' roots, in its order.  With
    ``refine`` each is first refined by mpmath Newton on V at 30 digits;
    without it the float roots are taken as exact, which measures the
    period formulas alone: near a collision the roots' own rounding moves
    the periods far more than any formula does.  The integrands are those
    of ``cycle_integral``, on the same principal roots and cycle signs.
    """
    with mp.workdps(30):
        a, b = mp.mpc(pot.a), mp.mpc(pot.b)

        def v(x):
            return 4 * x ** 3 - 2 * a * x - 28 * b

        roots = [mp.findroot(v, mp.mpc(r)) if refine else mp.mpc(r)
                 for r in turning_points(pot).roots]
        out = []
        for which, sigma in ((1, _SIGMA_CHI2), (2, _SIGMA_CHIM2)):
            c = (roots[0] + roots[which]) / 2
            h = (roots[which] - roots[0]) / 2
            base = c - roots[3 - which]
            rho = h / base
            root = mp.sqrt(base)

            @functools.cache  # the three integrals share their nodes
            def cw(t):
                cos = mp.cos(t)
                return cos, mp.sqrt(1 + rho * cos)

            i2 = mp.quad(lambda t: (1 - cw(t)[0] ** 2) * cw(t)[1], [0, mp.pi])
            i0 = mp.quad(lambda t: 1 / cw(t)[1], [0, mp.pi])
            i1 = mp.quad(lambda t: cw(t)[0] / cw(t)[1], [0, mp.pi])
            out.append((complex(4j * sigma * h * h * root * i2),
                        complex(1j * sigma * (c * i0 + h * i1) / root),
                        complex(14j * sigma * i0 / root)))
        (chi2, da2, db2), (chim2, dam2, dbm2) = out
    return PeriodData(chi2, chim2, da2, db2, dam2, dbm2)


def durand_kerner_roots(pot: Potential, n_iter: int = 200) -> list[complex]:
    """Roots of 4 x^3 - 2a x - 28b by simultaneous iteration."""
    a, b = pot.a, pot.b
    scale = 1.0 + max(abs(a) ** 0.5, abs(b) ** (1.0 / 3.0))

    def p(x):
        return 4.0 * x ** 3 - 2.0 * a * x - 28.0 * b

    z = [scale * (0.4 + 0.9j) ** i for i in range(3)]
    for _ in range(n_iter):
        moved = 0.0
        for i in range(3):
            denom = 4.0
            for j in range(3):
                if j != i:
                    denom *= z[i] - z[j]
            step = p(z[i]) / denom
            z[i] -= step
            moved = max(moved, abs(step))
        if moved < 1e-15 * scale:
            break
    return z


def continued_sqrt(pot: Potential, points, w0: complex) -> complex:
    """Track sqrt(V) stepwise along a point sequence starting from w0."""
    w = complex(w0)
    for z in points[1:]:
        cand = cmath.sqrt(pot(z))
        if abs(cand - w) > abs(cand + w):
            cand = -cand
        w = cand
    return w


def continued_sqrt_path(pot: Potential, z0: complex, z1: complex,
                        w0: complex, n: int = 2000) -> complex:
    pts = [z0 + (z1 - z0) * i / n for i in range(n + 1)]
    return continued_sqrt(pot, pts, w0)


def contour_period_trapezoid(pot: Potential, center: complex, radius: float,
                             w_start: complex, n: int = 4096) -> complex:
    """Counterclockwise contour integral of sqrt(V) by dense trapezoid.

    The branch is continued stepwise around the circle; with two branch
    points enclosed it closes up, and the periodic trapezoid rule is
    spectrally accurate.
    """
    phis = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    zs = center + radius * np.exp(1j * phis)
    w = complex(w_start)
    total = 0.0j
    values = []
    for z in zs:
        cand = cmath.sqrt(pot(complex(z)))
        if abs(cand - w) > abs(cand + w):
            cand = -cand
        w = cand
        values.append(w)
    # closure check: continuing one more step must return to the start
    cand = cmath.sqrt(pot(complex(zs[0])))
    if abs(cand - values[0]) > abs(cand + values[0]):
        cand = -cand
    assert abs(cand - values[0]) < 1e-6 * max(1.0, abs(values[0])), \
        "branch did not close around the contour"
    dz = 1j * radius * np.exp(1j * phis) * (2.0 * math.pi / n)
    for wv, d in zip(values, dz):
        total += wv * d
    return total


def linear_logderivative(pot: Potential, tp: TurningPoints, ray: RaySpec,
                         lam_match: complex, rtol: float = 1e-12) -> complex:
    """s(lam_match) from the linear (psi, psi') system with rescaling."""
    waypoints = _path_to(tp, ray.start_point, complex(lam_match))
    (s0, _, _), remaining = _adiabatic_handoff(pot, ray, waypoints)

    def f(z, y):
        return (y[1], pot(z) * y[0])

    def on_accept(z, y):
        m = max(abs(y[0]), abs(y[1]))
        if m > 1e100:
            return (y[0] / m, y[1] / m), complex_ode.CONTINUE
        return y, complex_ode.CONTINUE

    y = closure_along_path(f, (1.0, s0), remaining, rtol=rtol, atol=1e-30,
                           on_accept=on_accept)
    return y[1] / y[0]


def polyline_action_drift(pot: Potential, points) -> tuple[float, float]:
    """(|Re int sqrt(V) dlam|, int |sqrt(V)| |dlam|) along a polyline.

    Re-integrates the action with 8x-subdivided composite Simpson panels and
    stepwise branch continuation, independently of the tracer's own
    accumulator.  Simpson keeps the quadrature error negligible near the
    square-root behaviour at the turning-point endpoints.
    """
    w = cmath.sqrt(pot(points[0]))
    total = 0.0j
    weight = 0.0

    def branch(z, ref):
        c = cmath.sqrt(pot(z))
        return -c if abs(c - ref) > abs(c + ref) else c

    for z0, z1 in zip(points[:-1], points[1:]):
        for i in range(8):
            za = z0 + (z1 - z0) * (i / 8.0)
            zm = z0 + (z1 - z0) * ((i + 0.5) / 8.0)
            zb = z0 + (z1 - z0) * ((i + 1) / 8.0)
            wa = branch(za, w)
            wm = branch(zm, wa)
            wb = branch(zb, wm)
            w = wb
            h = zb - za
            total += (wa + 4.0 * wm + wb) * h / 6.0
            weight += (abs(wa) + 4.0 * abs(wm) + abs(wb)) * abs(h) / 6.0
    return abs(total.real), weight


def hermite_quintic_residual(records) -> float:
    """Max midpoint residual |y'' - (6y^2 - z)| over recorded steps.

    Builds the two-sided quintic Hermite interpolant of y from
    (y, y', y'' = 6y^2 - z) at consecutive nodes and tests the equation at
    the midpoint, normalized by 1 + |6y^2 - z|.
    """
    worst = 0.0
    for (z0, y0, yp0), (z1, y1, yp1) in zip(records[:-1], records[1:]):
        h = z1 - z0
        if h == 0:
            continue
        ypp0 = 6.0 * y0 * y0 - z0
        ypp1 = 6.0 * y1 * y1 - z1
        # quintic on t in [0,1]: y(t) with derivatives scaled by h
        d0, d1 = yp0 * h, yp1 * h
        s0, s1 = ypp0 * h * h, ypp1 * h * h
        c0 = y0
        c1 = d0
        c2 = 0.5 * s0
        # remaining three coefficients from conditions at t=1
        A = np.array([[1.0, 1.0, 1.0],
                      [3.0, 4.0, 5.0],
                      [6.0, 12.0, 20.0]])
        rhs = np.array([y1 - (c0 + c1 + c2),
                        d1 - (c1 + 2.0 * c2),
                        s1 - 2.0 * c2])
        c3, c4, c5 = np.linalg.solve(A, rhs)
        t = 0.5
        y_mid = c0 + c1 * t + c2 * t ** 2 + c3 * t ** 3 + c4 * t ** 4 + c5 * t ** 5
        ypp_mid = (2.0 * c2 + 6.0 * c3 * t + 12.0 * c4 * t ** 2
                   + 20.0 * c5 * t ** 3) / (h * h)
        z_mid = z0 + 0.5 * h
        rhs_mid = 6.0 * y_mid * y_mid - z_mid
        worst = max(worst, abs(ypp_mid - rhs_mid) / (1.0 + abs(rhs_mid)))
    return worst


def _closure_trace_single(pot: Potential, tp: TurningPoints, origin: int,
                          angle: float, escape_radius: float,
                          tol_merge: float, rtol: float) -> stokes.StokesLine:
    root = tp.roots[origin]
    start = root + tol_merge * cmath.exp(1j * angle)
    others = [(j, tp.roots[j]) for j in range(3) if j != origin]

    w0 = cmath.sqrt(pot(start))
    tau0 = 1j * w0.conjugate() / abs(w0)
    if (tau0 * cmath.exp(-1j * angle)).real < 0:
        w0 = -w0
    state = {"w": w0, "lam": start, "action": 0.0j, "abs_action": 0.0,
             "left_origin": False, "terminus": (stokes.STALLED, None)}
    points = [start]

    def g(t, lam):
        w = branch_sqrt(pot, lam, state["w"])
        return 1j * w.conjugate() / abs(w)

    def on_accept(t, lam):
        dlam = lam - state["lam"]
        wm = branch_sqrt(pot, state["lam"] + 0.5 * dlam, state["w"])
        w = branch_sqrt(pot, lam, state["w"])
        state["action"] += (state["w"] + 4.0 * wm + w) * dlam / 6.0
        state["abs_action"] += (abs(state["w"]) + 4.0 * abs(wm)
                                + abs(w)) * abs(dlam) / 6.0
        drift = state["action"].real
        if abs(drift) > 1e-14 * max(1.0, state["abs_action"]) and abs(w) > 0:
            lam = lam - drift * w.conjugate() / (abs(w) ** 2)
            w = branch_sqrt(pot, lam, state["w"])
            state["action"] = 1j * state["action"].imag
        state["w"] = w
        state["lam"] = lam
        points.append(lam)
        if abs(lam) >= escape_radius:
            state["terminus"] = (stokes.ASYMPTOTIC,
                                 stokes._gap_index(cmath.phase(lam)))
            return lam, complex_ode.STOP
        dist_origin = abs(lam - root)
        if not state["left_origin"] and dist_origin > 3.0 * tol_merge:
            state["left_origin"] = True
        if state["left_origin"] and dist_origin < tol_merge:
            state["terminus"] = (stokes.TURNING_POINT, origin)
            return lam, complex_ode.STOP
        for j, other in others:
            if abs(lam - other) < tol_merge:
                state["terminus"] = (stokes.TURNING_POINT, j)
                return lam, complex_ode.STOP
        return lam, complex_ode.CONTINUE

    try:
        closure_integrate(g, 0.0, 40.0 * escape_radius, start, rtol=rtol,
                          atol=rtol * 1e-2, on_accept=on_accept,
                          max_steps=400_000)
    except StepUnderflow:
        raise TraceStalled(f"stokes trace from turning point {origin} "
                           f"stalled near {state['lam']}")
    except OdeToleranceNotMet:
        pass

    kind, index = state["terminus"]
    return stokes.StokesLine(origin=origin,
                             points=np.asarray(points, dtype=complex),
                             terminus_kind=kind, terminus_index=index,
                             action_drift=abs(state["action"].real),
                             action_scale=state["abs_action"])


def closure_trace_stokes_lines(pot: Potential) -> stokes.StokesGraph:
    """``stokes.trace_stokes_lines`` at its default tolerances, with the
    tangent as a closure called at every stage."""
    tp = turning_points(pot)
    escape_radius = stokes.ESCAPE_FACTOR * tp.scale
    tol_merge = stokes.MERGE_FACTOR * escape_radius
    lines = [_closure_trace_single(pot, tp, i, angle, escape_radius,
                                   tol_merge, stokes.TRACE_RTOL)
             for i in range(3)
             for angle in stokes._local_directions(pot, tp.roots[i])]
    return stokes.StokesGraph(turning_points=tp, lines=tuple(lines))


def homotopy_solve(quantum: QuantumPair,
                   tol_newton: float = TOL_NEWTON) -> tuple[ParamPoint, float]:
    """Route 1 from the (1,1) seed with every homotopy target solved to
    ``tol_newton``: (point, residual) at the last target."""
    point = PRIMITIVE_11_SEED
    for t2, tm2 in _homotopy_targets(quantum):
        point, res = solve_period_targets(t2, tm2, point, tol_newton)
    return point, res


# ---------------------------------------------------------------------------
# route 3's loops, frozen: the Taylor recurrence, its Horner evaluation and
# the leg around them, and the Laurent-frame sums, as they ran before
# ``painleve`` generated them as straight-line code

#: 6 / ((k+1)(k+2)) for k = 0..N-2: a_{k+2} is the k-th convolution times it
_TAYLOR_SCALE = tuple(6.0 / ((k + 1) * (k + 2))
                      for k in range(complex_ode.TAYLOR_ORDER - 1))
#: the index pairs (i, k-i), i < k-i, of the symmetric half of each convolution
_TAYLOR_PAIRS = tuple(tuple((i, k - i) for i in range((k + 1) // 2))
                      for k in range(complex_ode.TAYLOR_ORDER - 1))


def taylor_coefficients(y: complex, yp: complex, zc: complex) -> list:
    """Coefficients a_0..a_N of the solution through (y, y') at zc."""
    a = [y, yp, 3.0 * y * y - 0.5 * zc, 2.0 * y * yp - 1.0 / 6.0]
    for k in range(2, complex_ode.TAYLOR_ORDER - 1):
        conv = 0j
        for i, j in _TAYLOR_PAIRS[k]:
            conv += a[i] * a[j]
        conv += conv
        if k % 2 == 0:
            conv += a[k // 2] * a[k // 2]
        a.append(conv * _TAYLOR_SCALE[k])
    return a


def taylor_eval(a: list, s: complex) -> tuple[complex, complex]:
    """(y, y') of the polynomial sum a_k s^k, by Horner."""
    n = complex_ode.TAYLOR_ORDER
    y, yp = a[n], n * a[n]
    for k in range(n - 1, 0, -1):
        y = y * s + a[k]
        yp = yp * s + k * a[k]
    return y * s + a[0], yp


def taylor_leg(y0, z0: complex, z1: complex, rtol: float, on_accept=None):
    """``painleve._pi_leg`` as a loop over ``taylor_coefficients`` and
    ``taylor_eval``."""
    dz = z1 - z0
    adz = abs(dz)
    y, yp = complex(y0[0]), complex(y0[1])
    t = 0.0
    n = 0
    N = complex_ode.TAYLOR_ORDER
    while t < 1.0:
        if n >= complex_ode.TAYLOR_MAX_STEPS:
            raise OdeToleranceNotMet(
                f"step limit {complex_ode.TAYLOR_MAX_STEPS} reached at "
                f"t={t:.6g}")
        a = taylor_coefficients(y, yp, z0 + t * dz)
        tail1 = abs(a[N - 1]) + 1e-300
        tail = abs(a[N]) + 1e-300
        if not math.isfinite(tail1 + tail):
            raise StepUnderflow(f"non-finite Taylor coefficient at t={t:.6g}")
        tol = complex_ode.TAYLOR_TARGET * rtol
        tol_y = tol * (1.0 + abs(y))
        tol_yp = tol * (1.0 + abs(yp))
        reach = min((tol_y / tail1) ** (1.0 / (N - 1)),
                    (tol_y / tail) ** (1.0 / N),
                    (tol_yp / ((N - 1) * tail1)) ** (1.0 / (N - 2)),
                    (tol_yp / (N * tail)) ** (1.0 / (N - 1)))
        slack = 1e4 * tol_y
        s = min(reach, (1.0 - t) * adz)
        if ((abs(a[N - 4]) + (abs(a[N - 3]) + abs(a[N - 2]) * s) * s)
                * s ** (N - 4) > slack):
            for k in range(N - 4, N - 1):
                reach = min(reach, (slack / (abs(a[k]) + 1e-300)) ** (1.0 / k))
        if reach >= (1.0 - t) * adz:
            h, t = 1.0 - t, 1.0
        else:
            h = reach / adz
            if h < 1e-15:
                raise StepUnderflow(f"step underflow at t={t:.6g}")
            t += h
        y, yp = taylor_eval(a, h * dz)
        n += 1
        if on_accept is not None and on_accept(t, (y, yp)) == complex_ode.STOP:
            return (complex_ode.IntegrationResult(t, (y, yp), True, n),
                    z0 + t * dz)
    return complex_ode.IntegrationResult(t, (y, yp), False, n), z0 + t * dz


def laurent_series(table: painleve.LaurentTable, a: complex,
                   b: complex) -> list:
    """The coefficients and their a- and b-derivatives at (a, b)."""
    pa, pb = [1.0], [1.0]
    for _ in range(table._degree):
        pa.append(pa[-1] * a)
        pb.append(pb[-1] * b)
    out = [[0j] * table.n for _ in range(3)]
    for s, j, v, i, k in table._terms:
        out[s][j] += v * pa[i] * pb[k]
    return out


def laurent_frame(table: painleve.LaurentTable, a: complex, b: complex,
                  z: complex):
    """``LaurentTable.eval_frame`` as loops over ``laurent_series``."""
    t = z - a
    sums = []
    for c in laurent_series(table, a, b):
        s = ds = 0j
        for j in range(table.n - 1, -1, -1):
            s = s * t + c[j]
            ds = ds * t + (j - 2) * c[j]
        sums.append((s / (t * t), ds / (t * t * t)))
    (y, yp), (y_a, yp_a), (y_b, yp_b) = sums
    ypp = 6.0 * y * y - z
    return y, yp, y_a - yp, y_b, yp_a - ypp, yp_b


def bits(values):
    """The bit patterns of complex numbers: equal only when every value
    is, signed zeros and NaNs included."""
    return [(v.real.hex(), v.imag.hex()) for v in values]


# ---------------------------------------------------------------------------
# route 2's outward pair legs: the Taylor leg as loops, and a DOP853
# reference for the value ratios


def pair_taylor_coefficients(p0: complex, d0: complex, j0: complex,
                             zc: complex, c2a: complex, c28b: complex):
    """Coefficients (p, d, j) of s_A, d = s_A - s_B and J about zc, as
    ``oscillator._pair_coefficient_lines`` states them."""
    n = complex_ode.TAYLOR_ORDER
    v = (4.0 * zc * zc * zc - c2a * zc - c28b, 12.0 * zc * zc - c2a,
         12.0 * zc, 4.0)
    p = [p0, v[0] - p0 * p0]
    g = [p0 + p0 - d0]
    d = [d0, -(d0 * g[0])]
    j = [j0, d0]
    for k in range(1, n):
        c = p[0] * p[k]
        for i in range(1, (k + 1) // 2):
            c += p[i] * p[k - i]
        conv = c + c
        if k % 2 == 0:
            conv += p[k // 2] * p[k // 2]
        scale = 1.0 / (k + 1)
        p.append((v[k] - conv) * scale if k <= 3 else conv * -scale)
        g.append(p[k] + p[k] - d[k])
        c = d[0] * g[k]
        for i in range(1, k + 1):
            c += d[i] * g[k - i]
        d.append(c * -scale)
        j.append(d[k] * scale)
    return p, d, j


def _horner(c: list, s: complex) -> complex:
    value = c[-1]
    for coefficient in reversed(c[:-1]):
        value = value * s + coefficient
    return value


def pair_taylor_leg(y0, pot: Potential, z0: complex, dz: complex,
                    rtol: float, on_accept):
    """``oscillator._pair_leg`` as a loop over ``pair_taylor_coefficients``."""
    n = complex_ode.TAYLOR_ORDER
    c2a, c28b = 2.0 * pot.a, 28.0 * pot.b
    p0, d0, j0 = y0
    adz = abs(dz)
    tol = complex_ode.TAYLOR_TARGET * rtol
    t = 0.0
    steps = 0
    while t < 1.0:
        if steps >= complex_ode.TAYLOR_MAX_STEPS:
            raise OdeToleranceNotMet(
                f"step limit {complex_ode.TAYLOR_MAX_STEPS} reached at "
                f"t={t:.6g}")
        series = pair_taylor_coefficients(p0, d0, j0, z0 + t * dz, c2a, c28b)
        tails = [(abs(c[n - 1]) + 1e-300, abs(c[n]) + 1e-300) for c in series]
        if not math.isfinite(sum(x for pair in tails for x in pair)):
            raise StepUnderflow(f"non-finite Taylor coefficient at t={t:.6g}")
        errs = [tol * (1.0 + abs(c[0])) for c in series]
        reach = min(r for e, (tail1, tail) in zip(errs, tails)
                    for r in ((e / tail1) ** (1.0 / (n - 1)),
                              (e / tail) ** (1.0 / n)))
        rest = (1.0 - t) * adz
        if reach >= rest:
            h, t = 1.0 - t, 1.0
        else:
            h = reach / adz
            if h < 1e-15:
                raise StepUnderflow(f"step underflow at t={t:.6g}")
            t += h
        p0, d0, j0 = (_horner(c, h * dz) for c in series)
        steps += 1
        if on_accept(t, (p0, p0 - d0, j0)) == complex_ode.STOP:
            return complex_ode.IntegrationResult(t, (p0, d0, j0), True, steps)
    return complex_ode.IntegrationResult(t, (p0, d0, j0), False, steps)


def pair_outward(pot: Potential, tp: TurningPoints, sA0: complex,
                 sB0: complex, z_from: complex, z_to: complex, rtol: float):
    """``oscillator._integrate_pair_outward`` on DOP853 at rtol 1e-14: J
    on the closure ``pair_leg`` along the same path, up to where s_A and
    s_B are one float.  It bends the path around no pole: a carrier that
    grows past 1e3 raises ``OdeToleranceNotMet``."""
    value = (complex(sA0), complex(sB0), 0j)
    waypoints = _path_to(tp, z_from, z_to)

    def on_accept(t, y):
        if abs(y[0]) > 1e3 or abs(y[1]) > 1e3:
            raise OdeToleranceNotMet("a carrier passes near a pole")
        return y, complex_ode.STOP if y[0] == y[1] else complex_ode.CONTINUE

    for z0, z1 in zip(waypoints[:-1], waypoints[1:]):
        if z1 == z0:
            continue
        res = closure_integrate(pair_leg(pot, z0, z1 - z0), 0.0, 1.0,
                                value, rtol=1e-14, atol=1e-16,
                                on_accept=on_accept, tableau=DOP853)
        value = res.y
        if res.stopped:
            break
    return value[2]


def pair_outward_linear(pot: Potential, tp: TurningPoints, sA0: complex,
                        sB0: complex, z_from: complex, z_to: complex,
                        rtol: float):
    """``pair_outward`` from the linear system: J is log(psi_A / psi_B) at
    the end of the same path, with psi_A and psi_B the solutions of
    psi'' = V psi with psi = 1 and psi' = s_A, s_B at z_from, by DOP853 at
    rtol 1e-14 until their log-derivatives are one float.  psi has no
    poles, so this reference needs no dodge where ``pair_outward`` does."""
    def f(z, y):
        v = pot(z)
        return (y[1], v * y[0], y[3], v * y[2])

    def on_accept(z, y):
        if y[1] / y[0] == y[3] / y[2]:
            return y, complex_ode.STOP
        m = max(abs(y[0]), abs(y[2]))
        if m > 1e100:
            return tuple(c / m for c in y), complex_ode.CONTINUE
        return y, complex_ode.CONTINUE

    y = closure_along_path(f, (1.0, sA0, 1.0, sB0),
                           _path_to(tp, z_from, z_to), rtol=1e-14,
                           atol=1e-300, on_accept=on_accept, tableau=DOP853)
    return cmath.log(y[0] / y[2])


# ---------------------------------------------------------------------------
# route 3 at 34 digits


def _pi_asymptotic_mp(z):
    """(y, y') of the tritronquee asymptotic series at the mpf z, summed
    until a term drops below the working precision."""
    s6 = mp.sqrt(6)
    c = [mpf(1)]
    y = yp = mpf(0)
    for j in range(200):
        if j:
            mu = (25 * (j - 1) ** 2 - 1) / mpf(4)
            inner = mp.fsum(c[p] * c[j - p] for p in range(1, j))
            c.append((-mu * c[j - 1] / s6 - inner) / 2)
        power = (1 - 5 * mpf(j)) / 2
        term = -c[j] * z ** power / s6
        y += term
        yp += power * term / z
        if abs(term) < mp.eps * abs(y) * 1e-3:
            return y, yp
    raise AssertionError("asymptotic series did not converge")


def _pi_laurent_mp(a, b, z, terms: int):
    """(y, y') at z of the Laurent series about the pole (a, b), from the
    recurrence c_j [(j-2)(j-3) - 12] = 6 sum_{p=1}^{j-1} c_p c_{j-p}."""
    c = [mpf(1), 0, 0, 0, a / 10, mpf(1) / 6, b]
    for j in range(7, terms):
        conv = mp.fsum(c[p] * c[j - p] for p in range(1, j))
        c.append(6 * conv / ((j - 2) * (j - 3) - 12))
    t = z - a
    return (mp.fsum(c[j] * t ** (j - 2) for j in range(terms)),
            mp.fsum((j - 2) * c[j] * t ** (j - 3) for j in range(terms)))


def pi_real_poles(n_poles: int, z0: float = 40.0, dps: int = 34,
                  order: int = 40, fit_distance: float = 0.35,
                  laurent_terms: int = 60) -> list[tuple[float, float]]:
    """The first ``n_poles`` real poles (a, b) of the tritronquee solution
    left of z0, by Taylor steps of ``order`` terms at ``dps`` digits along
    the real axis, seeded from the asymptotic series at z0.  The leg stops
    ``fit_distance`` short of each pole, fits (a, b) to (y, y') there with
    ``laurent_terms`` Laurent terms and ``mpmath.findroot``, and goes on from
    the mirror point on the far side.  Its values change by less than 1e-32
    with dps 50, order 60, a fit distance of 0.25 and 90 Laurent terms, or
    with z0 = 60."""
    poles = []
    with mp.workdps(dps):
        z = mpf(z0)
        y, yp = _pi_asymptotic_mp(z)
        tol = mp.eps / 100
        while len(poles) < n_poles:
            # (k+1)(k+2) a_{k+2} = 6 sum_{i+j=k} a_i a_j - [k=0] z - [k=1]
            a = [y, yp, 3 * y * y - z / 2]
            for k in range(1, order - 1):
                conv = mp.fsum(a[i] * a[k - i] for i in range(k + 1))
                a.append((6 * conv - (k == 1)) / ((k + 1) * (k + 2)))
            h = min((tol * (1 + abs(y)) / abs(a[k])) ** (mpf(1) / k)
                    for k in (order - 2, order - 1))
            h = min(h, (tol * (1 + abs(yp)) / ((order - 1) * abs(a[-1])))
                    ** (mpf(1) / (order - 2)))
            y = mp.polyval(a[::-1], -h)
            yp = mp.polyval([k * a[k] for k in range(order - 1, 0, -1)], -h)
            z -= h
            a_est = z + 2 * y / yp
            if abs(y) > 4 and a_est < z and z - a_est < fit_distance:
                def mismatch(pa, pb, z=z, y=y, yp=yp):
                    ly, lyp = _pi_laurent_mp(pa, pb, z, laurent_terms)
                    return ly - y, lyp - yp

                pa, pb = mp.findroot(mismatch, (a_est, mpf(0)))
                poles.append((pa, pb))
                z = 2 * pa - z
                y, yp = _pi_laurent_mp(pa, pb, z, laurent_terms)
        return [(float(pa), float(pb)) for pa, pb in poles]
