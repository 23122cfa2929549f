"""Recessive solutions of the cubic oscillator along the five rays.

The second-order equation ``psi'' = V psi`` is integrated in logarithmic-
derivative form ``s' + s^2 = V`` inward from a large radius on the ray
``arg lam = 2 pi k / 5``, where the recessive solution is fixed by its WKB
expansion.  Far from the turning points the flow contracts onto the WKB
log-derivative at the rate ``2|sqrt(V)|``, which makes the Riccati equation
violently stiff there while slaving the solution to the expansion; the far
stretch is therefore advanced adiabatically on the three-term WKB manifold
and the explicit integration takes over once the WKB parameter
``|V'| / |V|^(3/2)`` exceeds the hand-off threshold.  Zeros of ``psi``
(poles of ``s``) are passed in the inverse chart ``1/s``.

Linear dependence of two recessive solutions is tested by matching their
log-derivatives at one regular point, which eliminates all normalization
constants.  The zeros of that dependence map in the (a, b) plane are the
poles of the tritronquee solution; Newton refinement from quantization
seeds, on the damped Newton that route 1's period system runs on
(``elliptic.newton_2x2``), produces certified pole records.  The inward
legs carry the derivatives of the log-derivative in a and b (the
variational equations), so one ``dependence_residual`` pass gives the
residual together with its exact Jacobian.
They run on ``complex_ode``'s DP5(4), and each chart carries the test
that ends it, the hysteresis of the chart switch, as its stop source, so
a step makes no Python call.  At real (a, b), where the turning
points are real or an exact conjugate pair and the match point is real, a
pass integrates two legs and takes the other two as their mirror images;
there the Newton steps are real, and the q = 1 poles stay on the axis.

The asymptotic-value ratios (``u_values``, the WKB gap of a pole record)
come from outward legs that carry two dominant solutions of
``psi'' = V psi`` from the match point until their log-derivatives are one
float, and read off their ratio there; of the inward legs of rays 0 and
+-2 they start from only s is read, so they run on value-only charts.
``psi`` is entire, so nothing on these legs is singular, and V is a cubic,
so the Taylor coefficients of ``psi`` follow from a four-term recurrence:
the legs step with the solutions' own Taylor series of order 20,
``complex_ode.taylor_leg`` on the equation ``_PSI_PAIR``, the generator
that route 3's legs run on too (936 steps per ``catalog`` pass).  At the
q = 1 primitive they lie 4.6e-15 from a DOP853 reference at rtol 1e-14,
and 4.3e-9 at its k = 4 descendant.  No pole depends on these legs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from . import complex_ode
from .bsb import BsbSolution, tilde_U
from .elliptic import (ParamPoint, Potential, TurningPoints, branch_sqrt,
                       cond_2x2, facing_sqrt, newton_2x2, newton_step,
                       turning_points)
from .errors import (DependentBasis, NewtonDiverged, OdeToleranceNotMet,
                     OutsideDisc, PathNearTurningPoint)

TOL_ODE = 1e-12
ATOL_ODE = 1e-13
TOL_WKB = 1e-10
TOL_DEP = 1e-9
#: a pole is converged where |J^-1 G|_inf <= TOL_STEP (1 + |a|); at q = 1
#: that holds for k <= 4, and from k = 5 G's noise hides the root
TOL_STEP = 1e-9
DISC_ALPHA = 1.0
DISC_EPS = 1.0

_POLE_FACTOR = 50.0
_EPS_HANDOFF = 0.02
_PATH_MARGIN = 0.35
_MATCH_MARGIN = 0.5
_ARC_STEP = math.pi / 12
_PHASE1_SAMPLES = 64


@dataclass(frozen=True)
class RaySpec:
    """Ray index k in Z5 and the WKB start radius on that ray."""

    k: int
    start_radius: float

    @property
    def angle(self) -> float:
        return 2.0 * math.pi * self.k / 5.0

    @property
    def start_point(self) -> complex:
        return self.start_radius * cmath.exp(1j * self.angle)


@dataclass(frozen=True)
class LogDerivativeSample:
    """psi'/psi of the ray-k recessive solution at ``lam``, with its
    derivatives in a and b at that fixed point."""

    lam: complex
    s: complex
    k: int
    ds_da: complex
    ds_db: complex


@dataclass(frozen=True)
class PoleRecord:
    """One certified pole with the residuals of every verification route.

    ``jacobian_cond`` is cond(J) of the dependence Jacobian at the pole and
    ``newton_step`` the infinity norm of J^-1 G there, the a-posteriori
    distance in (a, b) to the root.
    """

    q: Fraction
    k: int
    seed: ParamPoint
    pole: ParamPoint
    dep_residual: float
    wkb_gap: tuple[float, float]
    newton_iterations: int
    jacobian_cond: float
    newton_step: float


# ---------------------------------------------------------------------------
# WKB data


def _wkb_logderivative(pot: Potential, z: complex, w: complex) -> complex:
    """Three-term WKB expansion of psi'/psi on the branch w = sqrt(V)."""
    v = pot(z)
    vp = pot.deriv(z)
    vpp = pot.deriv2(z)
    return (-w - vp / (4.0 * v)
            - vpp / (8.0 * v * w) + 5.0 * vp * vp / (32.0 * v * v * w))


def _wkb_jet(pot: Potential, z: complex, w: complex):
    """(s, ds/da, ds/db) of the three-term WKB expansion at the fixed point z.

    Differentiates ``_wkb_logderivative`` with dV/da = -2z, dV'/da = -2,
    dV/db = -28, dV'/db = 0, V'' independent of (a, b) and dw = dV / (2w).
    Beside a turning point V^2 w^2 can underflow: a division by zero
    there, or a jet that is not finite, raises ``PathNearTurningPoint``.
    """
    v = pot(z)
    vp = pot.deriv(z)
    vpp = pot.deriv2(z)

    def d(dv, dvp):
        dw = dv / (2.0 * w)
        return (-dw - (dvp * v - vp * dv) / (4.0 * v * v)
                + vpp * (dv * w + v * dw) / (8.0 * v * v * w * w)
                + 5.0 * vp * (2.0 * dvp * v * w - vp * (2.0 * dv * w + v * dw))
                / (32.0 * v * v * v * w * w))

    try:
        jet = (_wkb_logderivative(pot, z, w), d(-2.0 * z, -2.0),
               d(-28.0, 0.0))
    except ZeroDivisionError:
        jet = None
    if jet is None or not all(map(cmath.isfinite, jet)):
        raise PathNearTurningPoint(f"WKB hand-off at {z}: the jet is not "
                                   f"finite")
    return jet


def _eps_wkb(pot: Potential, z: complex) -> float:
    v = pot(z)
    return abs(pot.deriv(z)) / abs(v) ** 1.5 if v != 0 else math.inf


def ray_spec(pot: Potential, k: int) -> RaySpec:
    """Start radius grown until both WKB smallness bounds hold."""
    if k not in (-2, -1, 0, 1, 2):
        raise ValueError("ray index must lie in {-2,...,2}")
    radius = max(10.0, 5.0 * (1.0 + abs(pot.a) ** 0.5 + abs(pot.b) ** (1.0 / 3.0)))
    direction = cmath.exp(1j * (2.0 * math.pi * k / 5.0))
    for _ in range(60):
        z = radius * direction
        w = facing_sqrt(pot, z, direction)
        correction = abs(_wkb_logderivative(pot, z, w)
                         - (-w - pot.deriv(z) / (4.0 * pot(z))))
        if _eps_wkb(pot, z) < TOL_WKB and correction < TOL_WKB:
            return RaySpec(k=k, start_radius=radius)
        radius *= 2.0
    raise OdeToleranceNotMet("WKB start radius grew without meeting the bound")


# ---------------------------------------------------------------------------
# path construction


def match_point(tp: TurningPoints) -> complex:
    """Centroid of the turning points, displaced outside the safety discs."""
    margin = _MATCH_MARGIN * tp.min_separation
    z = tp.centroid
    for _ in range(12):
        dists = [(abs(z - r), r) for r in tp.roots]
        d, nearest = min(dists, key=lambda p: p[0])
        if d >= margin:
            return z
        if d < 1e-12:
            z = nearest + margin * 1.05
            continue
        z = nearest + (z - nearest) * (margin * 1.05 / d)
    return z


def _segment_circle_hits(z0: complex, z1: complex, c: complex, r: float):
    d = z1 - z0
    L2 = (d * d.conjugate()).real
    if L2 == 0.0:
        return None
    f = z0 - c
    bq = 2.0 * (f * d.conjugate()).real
    cq = (f * f.conjugate()).real - r * r
    disc = bq * bq - 4.0 * L2 * cq
    if disc <= 0.0:
        return None
    sq = math.sqrt(disc)
    t_in = (-bq - sq) / (2.0 * L2)
    t_out = (-bq + sq) / (2.0 * L2)
    if t_out <= 0.0 or t_in >= 1.0:
        return None
    return max(t_in, 0.0), min(t_out, 1.0)


def _deform_segment(z0, z1, obstacles, depth=0) -> list[complex]:
    """Straight segment bent around obstacle discs by circular arcs."""
    if depth > 6:
        raise PathNearTurningPoint("path deformation did not settle")
    best = None
    for c, r in obstacles:
        hit = _segment_circle_hits(z0, z1, c, 1.02 * r)
        if hit is None:
            continue
        if best is None or hit[0] < best[1][0]:
            best = ((c, r), hit)
    if best is None:
        return [z0, z1]
    (c, r), (t_in, t_out) = best
    rr = 1.02 * r
    d = z1 - z0
    p_in = z0 + t_in * d if t_in > 0.0 else z0
    p_out = z0 + t_out * d if t_out < 1.0 else z1
    # project entry/exit onto the inflated circle; atan2, where cmath.phase
    # raises OverflowError on an underflowing angle
    d_in, d_out = p_in - c, p_out - c
    a_in = math.atan2(d_in.imag, d_in.real)
    a_out = math.atan2(d_out.imag, d_out.real)
    delta = (a_out - a_in) % (2.0 * math.pi)
    if delta > math.pi:
        delta -= 2.0 * math.pi
    n_arc = max(2, int(math.ceil(abs(delta) / _ARC_STEP)))
    arc = [c + rr * cmath.exp(1j * (a_in + delta * i / n_arc))
           for i in range(n_arc + 1)]
    rest = [ob for ob in obstacles if ob[0] != c]
    out: list[complex] = []
    pieces = [[z0, arc[0]]] if abs(z0 - arc[0]) > 0 else []
    pieces += [[arc[i], arc[i + 1]] for i in range(len(arc) - 1)]
    pieces += [[arc[-1], z1]] if abs(arc[-1] - z1) > 0 else []
    for seg0, seg1 in pieces:
        sub = _deform_segment(seg0, seg1, rest, depth + 1)
        if out:
            out.extend(sub[1:])
        else:
            out.extend(sub)
    return out


def _path_to(tp: TurningPoints, z0: complex, z1: complex) -> list[complex]:
    margin = _PATH_MARGIN * tp.min_separation
    obstacles = [(r, margin) for r in tp.roots]
    return _deform_segment(z0, z1, obstacles)


# ---------------------------------------------------------------------------
# Riccati integration with chart switching


#: The parameters of every oscillator leg (``_leg_args``).  The right-hand
#: sides run in the leg parameter t in [0, 1] on z = z0 + t dz, with dz
#: folded in, and evaluate V = 4 z^3 - 2a z - 28b with the operations of
#: ``Potential.__call__`` over c2a = 2a and c28b = 28b, so V has its values.
#: Their float constants are written as complex ones, which CPython 3.10 to
#: 3.13 promote them to anyway (``complex_ode`` says why this is faster).
_LEG_PARAMS = ("z0", "dz", "m2dz", "c2a", "c28b")
_V = "(4+0j) * Z * Z * Z - c2a * Z - c28b"

# The charts' stop sources, the hysteresis of the chart switch: the s chart
# stops where |s| > P (1 + |V|^(1/2)), the r = 1/s chart where
# |r| (1 + |V|^(1/2)) > 2 / P, with P = _POLE_FACTOR.  Most steps of the s
# chart end at |s| <= P, before z and V are formed.
_S_STOP = f"""
    A = abs(Y0)
    STOP = A > {_POLE_FACTOR!r}
    if STOP:
        Z = z0 + T * dz
        STOP = A > {_POLE_FACTOR!r} * (1.0 + abs({_V}) ** 0.5)
"""
_R_STOP = f"""
    Z = z0 + T * dz
    STOP = abs(Y0) * (1.0 + abs({_V}) ** 0.5) > {2.0 / _POLE_FACTOR!r}
"""

# s' = V - s^2, then (ds/da)' = -2z - 2s ds/da and (ds/db)' = -28 - 2s ds/db
_S_VALUE = f"""
    Z = z0 + T * dz
    F0 = ({_V} - Y0 * Y0) * dz
"""
_S_VARIATIONS = """
    F1 = (Z + Y0 * Y1) * m2dz
    F2 = ((14+0j) + Y0 * Y2) * m2dz
"""

# the inverse chart r = 1/s: r' = 1 - V r^2, then
# (dr/da)' = 2z r^2 - 2V r dr/da and (dr/db)' = 28 r^2 - 2V r dr/db
_R_VALUE = f"""
    Z = z0 + T * dz
    V = {_V}
    F0 = ((1+0j) - V * Y0 * Y0) * dz
"""
_R_VARIATIONS = """
    R = (Y0 + Y0) * dz
    F1 = (Z * Y0 - V * Y1) * R
    F2 = ((14+0j) * Y0 - V * Y2) * R
"""

#: The (s, r) charts of the state (x, dx/da, dx/db), and of x alone: the
#: value-only charts give x the steps and values of the first.
_S_CHART = complex_ode.Rhs(_LEG_PARAMS, _S_VALUE + _S_VARIATIONS, _S_STOP)
_R_CHART = complex_ode.Rhs(_LEG_PARAMS, _R_VALUE + _R_VARIATIONS, _R_STOP)
_S_VALUE_CHART = complex_ode.Rhs(_LEG_PARAMS, _S_VALUE, _S_STOP)
_R_VALUE_CHART = complex_ode.Rhs(_LEG_PARAMS, _R_VALUE, _R_STOP)


def _leg_args(pot: Potential, z0: complex, dz: complex) -> tuple:
    """Values of ``_LEG_PARAMS`` for the segment z0 -> z0 + dz."""
    return (z0, dz, -2.0 * dz, 2.0 * pot.a, 28.0 * pot.b)


def _adiabatic_handoff(pot: Potential, ray: RaySpec,
                       waypoints: list[complex]):
    """Advance on the WKB manifold until the hand-off threshold.

    Returns ((s, ds/da, ds/db) at the hand-off point, remaining waypoints
    starting there).
    The contraction rate 2|sqrt(V)| exceeds every drift scale out here, so
    the log-derivative equals the three-term WKB value up to corrections far
    below round-off once propagated inward.
    """
    w = facing_sqrt(pot, waypoints[0], cmath.exp(1j * ray.angle))
    for idx in range(len(waypoints) - 1):
        z0, z1 = waypoints[idx], waypoints[idx + 1]
        if _eps_wkb(pot, z0) > _EPS_HANDOFF:
            w = branch_sqrt(pot, z0, w)
            return _wkb_jet(pot, z0, w), waypoints[idx:]
        prev = z0
        for j in range(1, _PHASE1_SAMPLES + 1):
            z = z0 + (z1 - z0) * (j / _PHASE1_SAMPLES)
            if _eps_wkb(pot, z) > _EPS_HANDOFF:
                lo, hi = prev, z
                for _ in range(40):
                    mid = 0.5 * (lo + hi)
                    if _eps_wkb(pot, mid) > _EPS_HANDOFF:
                        hi = mid
                    else:
                        lo = mid
                w = branch_sqrt(pot, lo, w)
                return (_wkb_jet(pot, lo, w),
                        [lo, z1] + list(waypoints[idx + 2:]))
            w = branch_sqrt(pot, z, w)
            prev = z
    z_end = waypoints[-1]
    w = branch_sqrt(pot, z_end, w)
    return _wkb_jet(pot, z_end, w), [z_end]


def _invert(y):
    """Chart switch x -> 1/x of x, or of (x, dx/da, dx/db):
    d(1/x) = -dx / x^2."""
    if isinstance(y, complex):
        return 1.0 / y
    inv = 1.0 / y[0]
    inv2 = inv * inv
    return (inv, -y[1] * inv2, -y[2] * inv2)


def _integrate_s_inward(pot: Potential, ray: RaySpec, waypoints: list[complex],
                        rtol: float, value_only: bool = False):
    """Follow the recessive log-derivative from the ray start to the path end.

    Adiabatic WKB phase far out, then explicit Riccati integration with
    inverse-chart excursions across poles of s (with hysteresis).  The
    state is (s, ds/da, ds/db): the variational equations ride along on the
    steps that the error control of s alone chooses, so s takes exactly the
    steps of a scalar run, which ``value_only`` runs instead.  Each chart
    carries its hysteresis test as its stop source, so a leg that stops
    has reached a chart switch.  Returns the state at the path end.
    """
    charts = ((_S_VALUE_CHART, _R_VALUE_CHART) if value_only
              else (_S_CHART, _R_CHART))
    value, remaining = _adiabatic_handoff(pot, ray, waypoints)
    if value_only:
        value = value[0]
    inverse = False
    idx = 0
    z_cur = remaining[0]
    guard = 0
    while idx < len(remaining) - 1:
        guard += 1
        if guard > 600:
            raise OdeToleranceNotMet("chart switching did not settle")
        z0, z1 = z_cur, remaining[idx + 1]
        dz = z1 - z0
        if dz == 0:
            idx += 1
            continue
        res = complex_ode.integrate(charts[inverse], 0.0, 1.0, value,
                                    rtol=rtol, atol=ATOL_ODE,
                                    args=_leg_args(pot, z0, dz))
        value = res.y
        if res.stopped:
            value = _invert(value)
            inverse = not inverse
            z_cur = z0 + res.t * dz
        else:
            idx += 1
            z_cur = z1
    return _invert(value) if inverse else value


def psi_logderivative(pot: Potential, ray: RaySpec, lam_match: complex,
                      rtol: float = TOL_ODE, tp: TurningPoints | None = None,
                      *, _value_only: bool = False) -> LogDerivativeSample:
    """Log-derivative of the recessive solution on ray k, continued to
    ``lam_match`` along a turning-point-avoiding path, with its derivatives
    in a and b at that point.  ``tp`` is ``turning_points(pot)``, solved
    here unless the caller already holds it.  ``_value_only``, for
    ``u_values``, carries s alone: the same s, and NaN derivatives."""
    if tp is None:
        tp = turning_points(pot)
    if min(abs(lam_match - r) for r in tp.roots) < 0.3 * _PATH_MARGIN * tp.min_separation:
        raise PathNearTurningPoint(
            f"match point {lam_match} too close to a turning point")
    waypoints = _path_to(tp, ray.start_point, complex(lam_match))
    if _value_only:
        s = _integrate_s_inward(pot, ray, waypoints, rtol, value_only=True)
        ds_da = ds_db = complex(math.nan, math.nan)
    else:
        s, ds_da, ds_db = _integrate_s_inward(pot, ray, waypoints, rtol)
    return LogDerivativeSample(lam=complex(lam_match), s=s, k=ray.k,
                               ds_da=ds_da, ds_db=ds_db)


def dependence_residual(pot: Potential, lam_match: complex | None = None,
                        rtol: float = TOL_ODE):
    """Dependence residual G and its Jacobian J = dG/d(a, b), in one pass.

    G = (s_-1 - s_2, s_1 - s_-2) at the match point (the centroid rule of
    ``match_point`` unless ``lam_match`` is given), zero exactly at a pole;
    J = ((dG_0/da, dG_0/db), (dG_1/da, dG_1/db)) comes from the
    variational equations carried along each inward leg.  J is the
    derivative at that fixed match point.  When the match point follows
    (a, b), the full derivative adds G_lam * dlam with G_lam = (s_2^2 -
    s_-1^2, s_-2^2 - s_1^2); that term vanishes with G, so Newton on J
    stays quadratic near a pole.

    When a, b and the match point are all real, V is real on the real axis
    and the recessive solution on ray -k is the mirror image of the one on
    ray k, s_-k(lam) = conj(s_k(conj lam)).  Only rays -1 and 2 are
    integrated then; rays 1 and -2 are their conjugates, with ds/da and
    ds/db conjugated too, so G_1 = conj(G_0) exactly and the Newton step
    J^-1 G is real.  Every other input integrates all four rays.
    """
    tp = turning_points(pot)
    lam = match_point(tp) if lam_match is None else complex(lam_match)
    mirror = pot.a.imag == 0.0 and pot.b.imag == 0.0 and lam.imag == 0.0
    s = {k: psi_logderivative(pot, ray_spec(pot, k), lam, rtol, tp=tp)
         for k in ((-1, 2) if mirror else (-1, 2, 1, -2))}
    if mirror:
        for k in (-1, 2):
            x = s[k]
            s[-k] = LogDerivativeSample(lam, x.s.conjugate(), -k,
                                        x.ds_da.conjugate(),
                                        x.ds_db.conjugate())
    G = (s[-1].s - s[2].s, s[1].s - s[-2].s)
    J = ((s[-1].ds_da - s[2].ds_da, s[-1].ds_db - s[2].ds_db),
         (s[1].ds_da - s[-2].ds_da, s[1].ds_db - s[-2].ds_db))
    return G, J


# ---------------------------------------------------------------------------
# asymptotic value ratios


def _psi_coefficient_lines(n: int) -> tuple[str, ...]:
    """Lines that set p0..p<n> and q0..q<n>, the Taylor coefficients about
    zc of psi_A and psi_B through their values and derivatives.  They
    follow exactly from psi'' = V psi:

        (k+1)(k+2) c_{k+2} = v0 c_k + v1 c_{k-1} + v2 c_{k-2} + 4 c_{k-3},

    with v0, v1, v2, 4 the coefficients of V about zc, set first from
    c2a = 2a and c28b = 28b, the terms of negative index left out and the
    sum taken left to right.
    """
    lines = ["v0 = 4.0 * zc * zc * zc - c2a * zc - c28b",
             "v1 = 12.0 * zc * zc - c2a", "v2 = 12.0 * zc"]
    factors = ("v0", "v1", "v2", "4.0")
    for c, value, slope in (("p", "pA", "dpA"), ("q", "pB", "dpB")):
        lines += [f"{c}0 = {value}", f"{c}1 = {slope}"]
        for k in range(n - 1):
            terms = " + ".join(f"{factor} * {c}{k - j}"
                               for j, factor in enumerate(factors[:k + 1]))
            lines.append(f"{c}{k + 2} = ({terms}) * "
                         f"{1.0 / ((k + 1) * (k + 2))!r}")
    return tuple(lines)


#: psi'' = V psi for two solutions psi_A and psi_B, the series p and q,
#: each the value and derivative of the state (pA, dpA, pB, dpB).  It needs
#: no guard: the last two terms of a series vanish together only where
#: (value, derivative) lies on one line through 0, fixed by zc, a and b,
#: and two independent solutions never both do, so one bounds every step.
_PSI_PAIR = complex_ode.TaylorEquation(
    state=("pA", "dpA", "pB", "dpB"), params=("c2a", "c28b"),
    recurrence=_psi_coefficient_lines(complex_ode.TAYLOR_ORDER),
    sources=(("p", 0), ("p", 1), ("q", 0), ("q", 1)), guard=None)

#: |psi_B| past which an outward leg stops to divide its state by psi_B.
_RESCALE = 1e100


def _coalesced_or_large(t, y):
    """The outward legs' hook: stop where the carriers' log-derivatives
    are one float, or where |psi_B| passes ``_RESCALE``."""
    if y[1] / y[0] == y[3] / y[2] or abs(y[2]) > _RESCALE:
        return complex_ode.STOP
    return complex_ode.CONTINUE


def _integrate_pair_outward(pot: Potential, tp: TurningPoints, sA0: complex,
                            sB0: complex, z_from: complex, z_to: complex,
                            rtol: float) -> complex:
    """psi_A / psi_B far out toward z_to, for the solutions of psi'' = V psi
    with psi = 1 and psi' = sA0, sB0 at z_from.

    Both carriers are dominant on the way out, so their ratio tends to the
    ratio of their asymptotic values; once their log-derivatives are one
    float it is final up to rounding, and the leg ends there.  ``z_to``
    bounds how far the leg may run.  psi is entire, so nothing on the path
    is singular: each waypoint segment is one ``complex_ode.taylor_leg`` on
    ``_PSI_PAIR``, and the state is divided by psi_B after each segment and
    whenever |psi_B| passes ``_RESCALE``, which keeps it in range and
    leaves the ratio alone.
    """
    args = (2.0 * pot.a, 28.0 * pot.b)
    y = (1.0, complex(sA0), 1.0, complex(sB0))
    waypoints = _path_to(tp, z_from, z_to)
    for z0, z1 in zip(waypoints[:-1], waypoints[1:]):
        while z0 != z1:
            res = complex_ode.taylor_leg(_PSI_PAIR, y, z0, z1 - z0, rtol,
                                         _coalesced_or_large, args)
            pa, dpa, pb, dpb = res.y
            if dpa / pa == dpb / pb:
                return pa / pb
            y = (pa / pb, dpa / pb, 1.0, dpb / pb)
            z0 = z0 + res.t * (z1 - z0) if res.stopped else z1
    return y[0]


def u_values(pot: Potential, eval_radius: float | None = None,
             rtol: float = TOL_ODE) -> tuple[complex, complex]:
    """Monodromy ratios (u_2, u_-2) from asymptotic-value ratios.

    Each asymptotic value is the ratio of two recessive solutions far out on
    the evaluation ray, read off outward legs that start at the match point
    (all normalization constants cancel in the double ratio).  The ratio is
    read where the two log-derivatives coalesce to one float;
    ``eval_radius`` (default ``6 * scale``) is the farthest a leg may run
    before that.

    The outward legs start from the inward legs of rays 0 and +-2, on the
    value-only charts since only their s is read; at real (a, b) ray -2 is
    ray 2's mirror image, as in ``dependence_residual``.
    """
    tp = turning_points(pot)
    lam = match_point(tp)
    radius = 6.0 * tp.scale if eval_radius is None else float(eval_radius)
    mirror = pot.a.imag == 0.0 and pot.b.imag == 0.0 and lam.imag == 0.0
    s = {k: psi_logderivative(pot, ray_spec(pot, k), lam, rtol, tp=tp,
                              _value_only=True).s
         for k in ((0, 2) if mirror else (0, 2, -2))}
    if mirror:
        s[-2] = s[2].conjugate()
    if abs(s[0] - s[2]) < 1e-10 or abs(s[0] - s[-2]) < 1e-10:
        raise DependentBasis(
            "psi_0 and psi_(+-2) are numerically linearly dependent")

    def ratio(carriers: tuple[int, int], k_ray: int) -> complex:
        return _integrate_pair_outward(
            pot, tp, s[carriers[0]], s[carriers[1]], lam,
            radius * cmath.exp(2j * math.pi * k_ray / 5.0), rtol)

    return (ratio((0, -2), 2) / ratio((0, -2), -1),
            ratio((0, 2), -2) / ratio((0, 2), 1))


# ---------------------------------------------------------------------------
# pole refinement


def refine_pole(seed: BsbSolution,
                radius_policy: tuple[float, float] = (DISC_ALPHA, DISC_EPS),
                tol_dep: float = TOL_DEP, rtol: float = TOL_ODE,
                compute_gap: bool = True,
                start: tuple[complex, complex] | None = None) -> PoleRecord:
    """Newton on the dependence residual from ``start`` (a, b) or the seed.

    Each trial point costs one ``dependence_residual`` pass, which returns
    the residual G with its exact Jacobian J.  The iteration is
    ``elliptic.newton_2x2``, the damped Newton of route 1's period system:
    a step is halved while its trial raises a ``NumericalError``, is not
    finite or does not lower |G_0| + |G_1|, and once that falls below
    ``tol_dep`` one polish step is kept if it lowers it further.  A
    singular J, a non-finite step or an exhausted line search raises
    ``NewtonDiverged``.  From a real start every step is real
    (``dependence_residual``'s mirror), so the pole stays exactly on the
    real axis.  The refined point must stay within ``k^(-alpha) eps`` of
    the seed in the a coordinate (the disc policy); the refined b is the
    quartic Laurent coefficient of the tritronquee expansion at the pole.
    The record carries cond(J) (``elliptic.cond_2x2``) and |J^-1 G|_inf at
    the pole as its Newton certificate, and one above ``TOL_STEP``
    (1 + |a|) raises ``NewtonDiverged``.  The disc and the WKB gaps, from
    ``u_values`` at the seed, are measured from the seed whatever the
    start.
    """
    alpha, eps = radius_policy
    if not 0.2 < alpha < 1.2:
        raise ValueError("disc exponent alpha must lie in (1/5, 6/5)")

    def system(x):
        return dependence_residual(Potential(x[0], x[1]), rtol=rtol)

    x = (seed.point.a, seed.point.b) if start is None else start
    G, J = system(x)
    (a, b), G, J, res, iterations = newton_2x2(system, x, G, J, tol_dep,
                                               "dependence")
    certificate = max(map(abs, newton_step(J, G, "dependence")))
    if certificate > TOL_STEP * (1.0 + abs(a)):
        raise NewtonDiverged(f"pole refinement stopped a Newton step of "
                             f"{certificate:.3e} from the root")

    disc_radius = eps * float(max(seed.k, 1)) ** (-alpha)
    if abs(a - seed.point.a) > disc_radius:
        raise OutsideDisc(
            f"refined pole left the disc: |da| = {abs(a - seed.point.a):.3e} "
            f"> {disc_radius:.3e}")

    gap = (math.nan, math.nan)
    if compute_gap:
        u2, um2 = u_values(Potential(seed.point.a, seed.point.b), rtol=rtol)
        tu2, tum2 = tilde_U(seed.point)
        gap = (abs(u2 - (tu2 + 1.0)), abs(um2 - (tum2 + 1.0)))
    return PoleRecord(q=seed.q, k=seed.k, seed=seed.point,
                      pole=ParamPoint(a, b), dep_residual=res, wkb_gap=gap,
                      newton_iterations=iterations,
                      jacobian_cond=cond_2x2(J), newton_step=certificate)
