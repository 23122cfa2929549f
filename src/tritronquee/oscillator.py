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
(poles of ``s``) are passed in the inverse chart ``1/s``; on accumulating
legs the path is bent around them instead.

Linear dependence of two recessive solutions is tested by matching their
log-derivatives at one regular point, which eliminates all normalization
constants.  The zeros of that dependence map in the (a, b) plane are the
poles of the tritronquee solution; Newton refinement from quantization
seeds produces certified pole records.  The inward legs carry the
derivatives of the log-derivative in a and b (the variational equations),
so one pass gives the dependence residual together with its exact Jacobian.
They run on ``complex_ode``'s DP5(4).  At real (a, b), where the turning
points are real or an exact conjugate pair and the match point is real, a
pass integrates two legs and takes the other two as their mirror images;
there the Newton steps are real, and the q = 1 poles stay on the axis.

The asymptotic-value ratios (``u_values``, the WKB gap of a pole record)
come from outward legs that carry two dominant log-derivatives and the
integral of their difference until the two are one float.  Their
right-hand side is a polynomial, so they step with the solutions' own
Taylor series of order 20: ``complex_ode.taylor_leg`` on the equation
``_PAIR``, the generator that route 3's legs run on too.  That takes 834
steps per ``catalog`` pass where DP5(4) took 24,946, and lands closer to a
DOP853 reference at rtol 1e-14 (9e-15 against 3.8e-13 at the q = 1
primitive, 3.0e-9 against 5.8e-8 at its k = 4 descendant).  No pole
depends on these legs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from . import complex_ode
from .bsb import BsbSolution, tilde_U
from .elliptic import (ParamPoint, Potential, TurningPoints, branch_sqrt,
                       cond_2x2, facing_sqrt, solve_2x2, turning_points)
from .errors import (DependentBasis, NewtonDiverged, OdeToleranceNotMet,
                     OutsideDisc, PathNearTurningPoint)

TOL_ODE = 1e-12
TOL_WKB = 1e-10
TOL_DEP = 1e-9
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

    return _wkb_logderivative(pot, z, w), d(-2.0 * z, -2.0), d(-28.0, 0.0)


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
_LEG_PARAMS = ("z0", "dz", "m2dz", "c2a", "c28b")

# (s, ds/da, ds/db): s' = V - s^2, (ds/da)' = -2z - 2s ds/da,
# (ds/db)' = -28 - 2s ds/db
_S_CHART = complex_ode.Rhs(_LEG_PARAMS, """
    Z = z0 + T * dz
    F0 = (4.0 * Z * Z * Z - c2a * Z - c28b - Y0 * Y0) * dz
    F1 = (Z + Y0 * Y1) * m2dz
    F2 = (14.0 + Y0 * Y2) * m2dz
""")

# the inverse chart r = 1/s: r' = 1 - V r^2, (dr/da)' = 2z r^2 - 2V r dr/da,
# (dr/db)' = 28 r^2 - 2V r dr/db
_R_CHART = complex_ode.Rhs(_LEG_PARAMS, """
    Z = z0 + T * dz
    V = 4.0 * Z * Z * Z - c2a * Z - c28b
    R = (Y0 + Y0) * dz
    F0 = (1.0 - V * Y0 * Y0) * dz
    F1 = (Z * Y0 - V * Y1) * R
    F2 = (14.0 * Y0 - V * Y2) * R
""")

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
    """Chart switch x -> 1/x of (x, dx/da, dx/db): d(1/x) = -dx / x^2."""
    inv = 1.0 / y[0]
    inv2 = inv * inv
    return (inv, -y[1] * inv2, -y[2] * inv2)


def _integrate_s_inward(pot: Potential, ray: RaySpec, waypoints: list[complex],
                        rtol: float, atol: float):
    """Follow the recessive log-derivative from the ray start to the path end.

    Adiabatic WKB phase far out, then explicit Riccati integration with
    inverse-chart excursions across poles of s (with hysteresis).  The
    state is (s, ds/da, ds/db): the variational equations ride along on the
    steps that the error control of s alone chooses, so s takes exactly the
    steps of a scalar run.  Returns the state at the path end.
    """
    value, remaining = _adiabatic_handoff(pot, ray, waypoints)
    chart = "s"
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
        switch = {"to": None}

        if chart == "s":
            rhs = _S_CHART

            def on_accept(t, y):
                s_abs = abs(y[0])
                # the bound is at least _POLE_FACTOR: most steps stop here
                if s_abs <= _POLE_FACTOR:
                    return y, complex_ode.CONTINUE
                z = z0 + t * dz
                if s_abs > _POLE_FACTOR * (1.0 + abs(pot(z)) ** 0.5):
                    switch["to"] = "r"
                    return y, complex_ode.STOP
                return y, complex_ode.CONTINUE
        else:  # inverse chart r = 1/s
            rhs = _R_CHART

            def on_accept(t, y):
                z = z0 + t * dz
                if abs(y[0]) * (1.0 + abs(pot(z)) ** 0.5) > 2.0 / _POLE_FACTOR:
                    switch["to"] = "s"
                    return y, complex_ode.STOP
                return y, complex_ode.CONTINUE

        res = complex_ode.integrate(rhs, 0.0, 1.0, value, rtol=rtol,
                                    atol=atol, on_accept=on_accept,
                                    args=_leg_args(pot, z0, dz))
        value = res.y
        z_cur = z0 + res.t * dz
        if not res.stopped:
            idx += 1
            z_cur = z1
            continue
        if switch["to"] is not None:
            value = _invert(value)
            chart = switch["to"]
    if chart == "r":
        value = _invert(value)
    return value


def psi_logderivative(pot: Potential, ray: RaySpec, lam_match: complex,
                      rtol: float = TOL_ODE, atol: float = 1e-13,
                      tp: TurningPoints | None = None) -> LogDerivativeSample:
    """Log-derivative of the recessive solution on ray k, continued to
    ``lam_match`` along a turning-point-avoiding path, with its derivatives
    in a and b at that point.  ``tp`` is ``turning_points(pot)``, solved
    here unless the caller already holds it."""
    if tp is None:
        tp = turning_points(pot)
    if min(abs(lam_match - r) for r in tp.roots) < 0.3 * _PATH_MARGIN * tp.min_separation:
        raise PathNearTurningPoint(
            f"match point {lam_match} too close to a turning point")
    waypoints = _path_to(tp, ray.start_point, complex(lam_match))
    s, ds_da, ds_db = _integrate_s_inward(pot, ray, waypoints, rtol, atol)
    return LogDerivativeSample(lam=complex(lam_match), s=s, k=ray.k,
                               ds_da=ds_da, ds_db=ds_db)


def dependence_system(pot: Potential, lam_match: complex | None = None,
                      rtol: float = TOL_ODE, samples: dict | None = None):
    """Dependence residual G and its Jacobian J = dG/d(a, b), in one pass.

    G = (s_-1 - s_2, s_1 - s_-2) at the match point (the centroid rule of
    ``match_point`` unless ``lam_match`` is given); J = ((dG_0/da,
    dG_0/db), (dG_1/da, dG_1/db)) comes from the variational equations
    carried along each inward leg.  J is the derivative at that fixed match
    point.  When the match point follows (a, b), the full derivative adds
    G_lam * dlam with G_lam = (s_2^2 - s_-1^2, s_-2^2 - s_1^2); that term
    vanishes with G, so Newton on J stays quadratic near a pole.

    When a, b and the match point are all real, V is real on the real axis
    and the recessive solution on ray -k is the mirror image of the one on
    ray k, s_-k(lam) = conj(s_k(conj lam)).  Only rays -1 and 2 are
    integrated then; rays 1 and -2 are their conjugates, with ds/da and
    ds/db conjugated too, so G_1 = conj(G_0) exactly and the Newton step
    J^-1 G is real.  Every other input integrates all four rays.

    ``samples``, when given, is a dict that receives the four inward legs
    (``LogDerivativeSample`` by ray index), so that ``u_values`` at the
    same point can take over the legs of rays 2 and -2.
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
    if samples is not None:
        samples.update(s)
    G = (s[-1].s - s[2].s, s[1].s - s[-2].s)
    J = ((s[-1].ds_da - s[2].ds_da, s[-1].ds_db - s[2].ds_db),
         (s[1].ds_da - s[-2].ds_da, s[1].ds_db - s[-2].ds_db))
    return G, J


def dependence_residual(pot: Potential, lam_match: complex | None = None,
                        rtol: float = TOL_ODE) -> tuple[complex, complex]:
    """(s_-1 - s_2, s_1 - s_-2) at the match point.

    Both components vanish exactly when the two linear-dependence conditions
    characterizing a tritronquee pole hold.  This is the G of
    ``dependence_system``.
    """
    return dependence_system(pot, lam_match, rtol)[0]


# ---------------------------------------------------------------------------
# asymptotic value ratios


def _pair_coefficient_lines(n: int) -> tuple[str, ...]:
    """Lines that set p1..p<n>, d1..d<n> and j1..j<n>, the Taylor
    coefficients about zc of s_A, d = s_A - s_B and J through p0, d0 and
    j0.  They follow exactly from s' = V - s^2, d' = -d (s_A + s_B) and
    J' = d:

        (k+1) p_{k+1} = V_k - sum_{i+j=k} p_i p_j,
        (k+1) d_{k+1} = -sum_{i+j=k} d_i g_j,   g_j = 2 p_j - d_j,
        (k+1) j_{k+1} = d_k,

    with V_k the coefficients v0, v1, v2, 4 of V about zc, set first from
    c2a = 2a and c28b = 28b, and 0 beyond.  The convolution of p with
    itself is summed over its symmetric half, left to right, doubled, and
    its middle square added for even k; that of d with g, the coefficients
    of s_A + s_B, in full, left to right.
    """
    lines = ["v0 = 4.0 * zc * zc * zc - c2a * zc - c28b",
             "v1 = 12.0 * zc * zc - c2a", "v2 = 12.0 * zc",
             "p1 = v0 - p0 * p0", "g0 = p0 + p0 - d0",
             "d1 = -(d0 * g0)", "j1 = d0"]
    for k in range(1, n):
        half = " + ".join(f"p{i} * p{k - i}" for i in range((k + 1) // 2))
        conv = "c + c" + (f" + p{k // 2} * p{k // 2}" if k % 2 == 0 else "")
        scale = 1.0 / (k + 1)
        if k < 3:
            p_next = f"(v{k} - ({conv})) * {scale!r}"
        elif k == 3:
            p_next = f"(4.0 - ({conv})) * {scale!r}"
        else:
            p_next = f"({conv}) * {-scale!r}"
        full = " + ".join(f"d{i} * g{k - i}" for i in range(k + 1))
        lines += [f"c = {half}", f"p{k + 1} = {p_next}",
                  f"g{k} = p{k} + p{k} - d{k}",
                  f"d{k + 1} = ({full}) * {-scale!r}",
                  f"j{k + 1} = d{k} * {scale!r}"]
    return tuple(lines)


#: The outward pair leg's equation: s_A, d = s_A - s_B and J as the values
#: of the series p, d and j, seen by the hook as (s_A, s_B, J).  The tails
#: of d and j vanish once s_A = s_B; the generator's floor under each tail
#: keeps them from bounding the step.  It needs no guard: its one symmetric
#: solution, s = 0 at lam = 0 with a = b = 0, keeps p_19.
_PAIR = complex_ode.TaylorEquation(
    state=("p0", "d0", "j0"), params=("c2a", "c28b"),
    recurrence=_pair_coefficient_lines(complex_ode.TAYLOR_ORDER),
    sources=(("p", 0), ("d", 0), ("j", 0)), guard=None,
    view=("p0", "p0 - d0", "j0"))


def _pair_leg(y0, pot: Potential, z0: complex, dz: complex, rtol: float,
              on_accept) -> complex_ode.IntegrationResult:
    """Carry (s_A, d, J) along the segment z0 -> z0 + dz by Taylor steps
    (``complex_ode.taylor_leg``); ``on_accept(t, (s_A, s_B, J))`` sees
    the leg parameter t after every step.

    s_A and s_B solve s' = V - s^2; the leg carries s_A, their difference
    d = s_A - s_B, which obeys d' = -d (s_A + s_B), and J with J' = d.
    Carrying d keeps its relative accuracy as it contracts, so s_B, the
    float s_A - d, meets s_A exactly once d drops below half an ulp of s_A.
    """
    return complex_ode.taylor_leg(_PAIR, y0, z0, dz, rtol, on_accept,
                                  (2.0 * pot.a, 28.0 * pot.b))


def _integrate_pair_outward(pot: Potential, tp: TurningPoints, sA0: complex,
                            sB0: complex, z_from: complex, z_to: complex,
                            rtol: float) -> complex:
    """Accumulate J = int (s_A - s_B) dlam from z_from toward z_to.

    Both carried log-derivatives are dominant on the way out, and the flow
    contracts them onto one trajectory: once s_B is the same float as s_A,
    J' = s_A - s_B is below the rounding of J and J is final, so the leg
    ends there.  ``z_to`` bounds how far the leg may run.  Poles of either
    log-derivative on the way are dodged by bending the path around the
    estimated zero of psi; the exponential of J is insensitive to the dodge
    side.
    """
    waypoints = _path_to(tp, z_from, z_to)
    value = (complex(sA0), complex(sA0) - complex(sB0), 0.0 + 0.0j)
    obstacles: list[tuple[complex, float]] = []
    for _ in range(8):
        detour = {"z": None}
        stopped = False
        z_stop = waypoints[-1]
        for z0, z1 in zip(waypoints[:-1], waypoints[1:]):
            dz = z1 - z0
            if dz == 0:
                continue

            def on_accept(t, y, z0=z0, dz=dz):
                if y[0] == y[1]:
                    return complex_ode.STOP
                # the bound is at least _POLE_FACTOR: most steps stop here
                if abs(y[0]) <= _POLE_FACTOR and abs(y[1]) <= _POLE_FACTOR:
                    return complex_ode.CONTINUE
                z = z0 + t * dz
                bound = _POLE_FACTOR * (1.0 + abs(pot(z)) ** 0.5)
                for comp in (y[0], y[1]):
                    if abs(comp) > bound:
                        detour["z"] = z - 1.0 / comp
                        return complex_ode.STOP
                return complex_ode.CONTINUE

            res = _pair_leg(value, pot, z0, dz, rtol, on_accept)
            value = res.y
            if value[0] - value[1] == value[0]:
                return value[2]
            if res.stopped:
                stopped = True
                z_stop = z0 + res.t * dz
                break
        if not stopped:
            return value[2]
        pole = detour["z"]
        radius = max(3.0 * abs(z_stop - pole), 0.01 * tp.scale)
        obstacles.append((pole, radius))
        margin = _PATH_MARGIN * tp.min_separation
        all_obs = [(r, margin) for r in tp.roots] + obstacles
        waypoints = _deform_segment(complex(z_stop), complex(z_to), all_obs)
    raise OdeToleranceNotMet("too many pole dodges on an accumulating leg")


def u_values(pot: Potential, eval_radius: float | None = None,
             rtol: float = TOL_ODE,
             samples: dict | None = None) -> tuple[complex, complex]:
    """Monodromy ratios (u_2, u_-2) from asymptotic-value ratios.

    Each asymptotic value is the ratio of two recessive solutions far out on
    the evaluation ray, assembled from the integral of the log-derivative
    difference along connecting paths (all normalization constants cancel
    in the double ratio).  The ratio is read where the two log-derivatives
    coalesce to one float; ``eval_radius`` (default ``6 * scale``) is the
    farthest a leg may run before that.

    ``samples`` may hold the inward legs of rays 2 and -2 from a
    ``dependence_system`` pass at this potential with the same ``rtol``;
    only the ray-0 leg is integrated then.
    """
    tp = turning_points(pot)
    lam = match_point(tp)
    radius = 6.0 * tp.scale if eval_radius is None else float(eval_radius)
    s = {k: psi_logderivative(pot, ray_spec(pot, k), lam, rtol, tp=tp).s
         for k in (0, 2, -2) if samples is None or k == 0}
    if samples is not None:
        if samples[2].lam != lam or samples[-2].lam != lam:
            raise ValueError("samples were taken at another match point")
        s[2], s[-2] = samples[2].s, samples[-2].s
    if abs(s[0] - s[2]) < 1e-10 or abs(s[0] - s[-2]) < 1e-10:
        raise DependentBasis(
            "psi_0 and psi_(+-2) are numerically linearly dependent")

    def eval_point(k: int) -> complex:
        return radius * cmath.exp(2j * math.pi * k / 5.0)

    def ln_ratio(carriers: tuple[int, int], k_ray: int) -> complex:
        return _integrate_pair_outward(pot, tp, s[carriers[0]], s[carriers[1]],
                                       lam, eval_point(k_ray), rtol)

    ln_u2 = ln_ratio((0, -2), 2) - ln_ratio((0, -2), -1)
    ln_um2 = ln_ratio((0, 2), -2) - ln_ratio((0, 2), 1)
    return cmath.exp(ln_u2), cmath.exp(ln_um2)


# ---------------------------------------------------------------------------
# pole refinement


def _newton_step(J, G):
    """The Newton step J^-1 G by ``solve_2x2``; ``NewtonDiverged`` if J is
    singular or the step is not finite."""
    try:
        step = solve_2x2(J, G)
    except ZeroDivisionError as exc:
        raise NewtonDiverged("singular dependence Jacobian") from exc
    if not all(map(cmath.isfinite, step)):
        raise NewtonDiverged(f"non-finite dependence Newton step {step}")
    return step


def refine_pole(seed: BsbSolution,
                radius_policy: tuple[float, float] = (DISC_ALPHA, DISC_EPS),
                tol_dep: float = TOL_DEP, rtol: float = TOL_ODE,
                compute_gap: bool = True) -> PoleRecord:
    """Newton on the dependence residual starting from a quantization seed.

    Each trial point costs one ``dependence_system`` pass, which returns
    the residual G with its exact Jacobian J.  The step J^-1 G is the 2x2
    solve ``elliptic.solve_2x2`` (Cramer's rule); the full step is accepted
    when it lowers |G_0| + |G_1|, otherwise it is halved.  A non-finite G
    or J (the Jacobian is outside the integrator's error test), a singular
    J or a non-finite step raises ``NewtonDiverged``.  From a real seed
    every step is real (``dependence_system``'s mirror), so the pole stays
    exactly on the real axis.  The refined point must stay within
    ``k^(-alpha) eps`` of the seed in the a coordinate (the disc policy);
    the refined b is the quartic Laurent coefficient of the tritronquee
    expansion at the pole.  The record carries cond(J)
    (``elliptic.cond_2x2``) and |J^-1 G|_inf at the pole as its Newton
    certificate.  The WKB gaps come from ``u_values`` at the seed, which
    takes over the rays 2 and -2 legs of the seed's own pass.
    """
    alpha, eps = radius_policy
    if not 0.2 < alpha < 1.2:
        raise ValueError("disc exponent alpha must lie in (1/5, 6/5)")
    a = complex(seed.point.a)
    b = complex(seed.point.b)

    def system(av, bv, samples=None):
        G, J = dependence_system(Potential(av, bv), rtol=rtol,
                                 samples=samples)
        if not all(map(cmath.isfinite, (*G, *J[0], *J[1]))):
            raise NewtonDiverged(
                f"non-finite dependence system at a={av}, b={bv}")
        return G, J

    # the seed's legs, reused by u_values at the same point
    seed_samples: dict[int, LogDerivativeSample] = {}
    G, J = system(a, b, seed_samples)
    res = float(abs(G[0]) + abs(G[1]))
    iterations = 0
    polished = False
    for _ in range(25):
        if res < tol_dep and polished:
            break
        if res < tol_dep:
            # one quadratic polish pass so the position, not just the
            # residual, is converged (perturbed seeds must land on the
            # same point well inside the residual ball)
            polished = True
        iterations += 1
        step = _newton_step(J, G)
        factor = 1.0
        improved = False
        # once polished, the residual is at its noise floor, where a halved
        # step is no more likely to lower it than the full one
        for _ in range(1 if polished else 20):
            a_try = a - factor * step[0]
            b_try = b - factor * step[1]
            G_try, J_try = system(a_try, b_try)
            res_try = float(abs(G_try[0]) + abs(G_try[1]))
            if res_try < res:
                a, b, G, J, res = a_try, b_try, G_try, J_try, res_try
                improved = True
                break
            factor *= 0.5
        if not improved:
            if polished:
                break  # at the numerical noise floor
            raise NewtonDiverged(
                f"pole refinement line search exhausted at residual {res:.3e}")
    if res >= tol_dep:
        raise NewtonDiverged(
            f"pole refinement did not reach {tol_dep:.1e} (residual {res:.3e})")

    disc_radius = eps * float(max(seed.k, 1)) ** (-alpha)
    if abs(a - seed.point.a) > disc_radius:
        raise OutsideDisc(
            f"refined pole left the disc: |da| = {abs(a - seed.point.a):.3e} "
            f"> {disc_radius:.3e}")

    gap = (math.nan, math.nan)
    if compute_gap:
        u2, um2 = u_values(Potential(seed.point.a, seed.point.b), rtol=rtol,
                           samples=seed_samples)
        tu2, tum2 = tilde_U(seed.point)
        gap = (abs(u2 - (tu2 + 1.0)), abs(um2 - (tum2 + 1.0)))
    return PoleRecord(q=seed.q, k=seed.k, seed=seed.point,
                      pole=ParamPoint(a, b), dep_residual=res, wkb_gap=gap,
                      newton_iterations=iterations,
                      jacobian_cond=cond_2x2(J),
                      newton_step=max(map(abs, _newton_step(J, G))))
