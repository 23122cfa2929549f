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
seeds produces certified pole records.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import complex_ode
from .bsb import BsbSolution, tilde_U
from .elliptic import (ParamPoint, Potential, TurningPoints, branch_sqrt,
                       turning_points)
from .errors import (DependentBasis, NewtonDiverged, OdeToleranceNotMet,
                     OutsideDisc, PathNearTurningPoint)

TOL_ODE = 1e-12
TOL_WKB = 1e-10
TOL_DEP = 1e-9
JACOBIAN_H = 1e-6

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
    lam: complex
    s: complex
    k: int


@dataclass(frozen=True)
class PoleRecord:
    """One certified pole with the residuals of every verification route."""

    q: Fraction
    k: int
    seed: ParamPoint
    pole: ParamPoint
    dep_residual: float
    wkb_gap: tuple[float, float]
    newton_iterations: int
    painleve_check: tuple[complex, complex] | None = None


# ---------------------------------------------------------------------------
# WKB data


def _recessive_sqrtV(pot: Potential, z: complex, angle: float) -> complex:
    """Branch of sqrt(V) whose action grows outward along the ray."""
    w = cmath.sqrt(pot(z))
    if (w * cmath.exp(1j * angle)).real < 0.0:
        w = -w
    return w


def _wkb_logderivative(pot: Potential, z: complex, w: complex) -> complex:
    """Three-term WKB expansion of psi'/psi on the branch w = sqrt(V)."""
    v = pot(z)
    vp = pot.deriv(z)
    vpp = pot.deriv2(z)
    return (-w - vp / (4.0 * v)
            - vpp / (8.0 * v * w) + 5.0 * vp * vp / (32.0 * v * v * w))


def _eps_wkb(pot: Potential, z: complex) -> float:
    v = pot(z)
    return abs(pot.deriv(z)) / abs(v) ** 1.5 if v != 0 else math.inf


def ray_spec(pot: Potential, k: int, tol_wkb: float = TOL_WKB) -> RaySpec:
    """Start radius grown until both WKB smallness bounds hold."""
    if k not in (-2, -1, 0, 1, 2):
        raise ValueError("ray index must lie in {-2,...,2}")
    radius = max(10.0, 5.0 * (1.0 + abs(pot.a) ** 0.5 + abs(pot.b) ** (1.0 / 3.0)))
    angle = 2.0 * math.pi * k / 5.0
    for _ in range(60):
        z = radius * cmath.exp(1j * angle)
        w = _recessive_sqrtV(pot, z, angle)
        correction = abs(_wkb_logderivative(pot, z, w)
                         - (-w - pot.deriv(z) / (4.0 * pot(z))))
        if _eps_wkb(pot, z) < tol_wkb and correction < tol_wkb:
            return RaySpec(k=k, start_radius=radius)
        radius *= 2.0
    raise OdeToleranceNotMet("WKB start radius grew without meeting the bound")


# ---------------------------------------------------------------------------
# path construction


def match_point(tp: TurningPoints, margin_factor: float = _MATCH_MARGIN) -> complex:
    """Centroid of the turning points, displaced outside the safety discs."""
    margin = margin_factor * tp.min_separation
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
    # project entry/exit onto the inflated circle
    a_in = cmath.phase(p_in - c)
    a_out = cmath.phase(p_out - c)
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


def _potential_fn(pot: Potential):
    """V as a closure over the folded coefficients 2a and 28b.

    The operations and their order are those of ``Potential.__call__``, so
    the values are identical; the ODE right-hand sides evaluate V at every
    stage and skip the attribute lookups and the two products this way.
    """
    c2a = 2.0 * pot.a
    c28b = 28.0 * pot.b

    def v(z):
        return 4.0 * z * z * z - c2a * z - c28b

    return v


def _adiabatic_handoff(pot: Potential, ray: RaySpec,
                       waypoints: list[complex]):
    """Advance on the WKB manifold until the hand-off threshold.

    Returns (s at the hand-off point, remaining waypoints starting there).
    The contraction rate 2|sqrt(V)| exceeds every drift scale out here, so
    the log-derivative equals the three-term WKB value up to corrections far
    below round-off once propagated inward.
    """
    w = _recessive_sqrtV(pot, waypoints[0], ray.angle)
    for idx in range(len(waypoints) - 1):
        z0, z1 = waypoints[idx], waypoints[idx + 1]
        if _eps_wkb(pot, z0) > _EPS_HANDOFF:
            w = branch_sqrt(pot, z0, w)
            return _wkb_logderivative(pot, z0, w), waypoints[idx:]
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
                return (_wkb_logderivative(pot, lo, w),
                        [lo, z1] + list(waypoints[idx + 2:]))
            w = branch_sqrt(pot, z, w)
            prev = z
    z_end = waypoints[-1]
    w = branch_sqrt(pot, z_end, w)
    return _wkb_logderivative(pot, z_end, w), [z_end]


def _integrate_s_inward(pot: Potential, ray: RaySpec, waypoints: list[complex],
                        rtol: float, atol: float) -> complex:
    """Follow the recessive log-derivative from the ray start to the path end.

    Adiabatic WKB phase far out, then explicit Riccati integration with
    inverse-chart excursions across poles of s (with hysteresis).
    """
    value, remaining = _adiabatic_handoff(pot, ray, waypoints)
    v = _potential_fn(pot)
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
            def f(t, s):
                z = z0 + t * dz
                return (v(z) - s * s) * dz

            def on_accept(t, s):
                z = z0 + t * dz
                if abs(s) > _POLE_FACTOR * (1.0 + abs(v(z)) ** 0.5):
                    switch["to"] = "r"
                    return s, complex_ode.STOP
                return s, complex_ode.CONTINUE
        else:  # inverse chart r = 1/s
            def f(t, r):
                z = z0 + t * dz
                return (1.0 - v(z) * r * r) * dz

            def on_accept(t, r):
                z = z0 + t * dz
                if abs(r) * (1.0 + abs(v(z)) ** 0.5) > 2.0 / _POLE_FACTOR:
                    switch["to"] = "s"
                    return r, complex_ode.STOP
                return r, complex_ode.CONTINUE

        res = complex_ode.integrate(f, 0.0, 1.0, value, rtol=rtol, atol=atol,
                                    on_accept=on_accept)
        value = res.y
        z_cur = z0 + res.t * dz
        if not res.stopped:
            idx += 1
            z_cur = z1
            continue
        if switch["to"] is not None:
            value = 1.0 / value
            chart = switch["to"]
    if chart == "r":
        value = 1.0 / value
    return value


def psi_logderivative(pot: Potential, ray: RaySpec, lam_match: complex,
                      rtol: float = TOL_ODE, atol: float = 1e-13) -> LogDerivativeSample:
    """Log-derivative of the recessive solution on ray k, continued to
    ``lam_match`` along a turning-point-avoiding path."""
    tp = turning_points(pot)
    if min(abs(lam_match - r) for r in tp.roots) < 0.3 * _PATH_MARGIN * tp.min_separation:
        raise PathNearTurningPoint(
            f"match point {lam_match} too close to a turning point")
    waypoints = _path_to(tp, ray.start_point, complex(lam_match))
    s = _integrate_s_inward(pot, ray, waypoints, rtol, atol)
    return LogDerivativeSample(lam=complex(lam_match), s=s, k=ray.k)


def dependence_residual(pot: Potential, lam_match: complex | None = None,
                        rtol: float = TOL_ODE,
                        tol_wkb: float = TOL_WKB) -> tuple[complex, complex]:
    """(s_-1 - s_2, s_1 - s_-2) at the match point.

    Both components vanish exactly when the two linear-dependence conditions
    characterizing a tritronquee pole hold.
    """
    tp = turning_points(pot)
    lam = match_point(tp) if lam_match is None else complex(lam_match)
    s = {k: psi_logderivative(pot, ray_spec(pot, k, tol_wkb), lam, rtol).s
         for k in (-1, 2, 1, -2)}
    return (s[-1] - s[2], s[1] - s[-2])


# ---------------------------------------------------------------------------
# asymptotic value ratios


def _integrate_pair_outward(pot: Potential, tp: TurningPoints, sA0: complex,
                            sB0: complex, z_from: complex, z_to: complex,
                            rtol: float, atol: float) -> complex:
    """Accumulate J = int (s_A - s_B) dlam from z_from toward z_to.

    Both carried log-derivatives are dominant on the way out, and the flow
    contracts them onto one trajectory: once they are the same float, every
    stage gives them identical values, J' = s_A - s_B is exactly 0 and J is
    final, so the leg ends there.  ``z_to`` bounds how far the leg may run.
    Poles of either log-derivative on the way are dodged by bending the
    path around the estimated zero of psi; the exponential of J is
    insensitive to the dodge side.
    """
    v = _potential_fn(pot)
    waypoints = _path_to(tp, z_from, z_to)
    value = (complex(sA0), complex(sB0), 0.0 + 0.0j)
    obstacles: list[tuple[complex, float]] = []
    for _ in range(8):
        detour = {"z": None}
        stopped = False
        z_stop = waypoints[-1]
        for z0, z1 in zip(waypoints[:-1], waypoints[1:]):
            dz = z1 - z0
            if dz == 0:
                continue

            def f(t, y, z0=z0, dz=dz):
                vz = v(z0 + t * dz)
                s_a, s_b, _ = y
                return ((vz - s_a * s_a) * dz, (vz - s_b * s_b) * dz,
                        (s_a - s_b) * dz)

            def on_accept(t, y, z0=z0, dz=dz):
                if y[0] == y[1]:
                    return y, complex_ode.STOP
                z = z0 + t * dz
                bound = _POLE_FACTOR * (1.0 + abs(v(z)) ** 0.5)
                for comp in (y[0], y[1]):
                    if abs(comp) > bound:
                        detour["z"] = z - 1.0 / comp
                        return y, complex_ode.STOP
                return y, complex_ode.CONTINUE

            res = complex_ode.integrate(f, 0.0, 1.0, value, rtol=rtol,
                                        atol=atol, on_accept=on_accept)
            value = res.y
            if value[0] == value[1]:
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
             rtol: float = TOL_ODE, tol_wkb: float = TOL_WKB,
             dependence_tol: float = 1e-10) -> tuple[complex, complex]:
    """Monodromy ratios (u_2, u_-2) from asymptotic-value ratios.

    Each asymptotic value is the ratio of two recessive solutions far out on
    the evaluation ray, assembled from the integral of the log-derivative
    difference along connecting paths (all normalization constants cancel
    in the double ratio).  The ratio is read where the two log-derivatives
    coalesce to one float; ``eval_radius`` (default ``6 * scale``) is the
    farthest a leg may run before that.
    """
    tp = turning_points(pot)
    lam = match_point(tp)
    radius = 6.0 * tp.scale if eval_radius is None else float(eval_radius)
    atol = 1e-13
    s = {k: psi_logderivative(pot, ray_spec(pot, k, tol_wkb), lam, rtol).s
         for k in (0, 2, -2)}
    if abs(s[0] - s[2]) < dependence_tol or abs(s[0] - s[-2]) < dependence_tol:
        raise DependentBasis(
            "psi_0 and psi_(+-2) are numerically linearly dependent")

    def eval_point(k: int) -> complex:
        return radius * cmath.exp(2j * math.pi * k / 5.0)

    def ln_ratio(carriers: tuple[int, int], k_ray: int) -> complex:
        return _integrate_pair_outward(pot, tp, s[carriers[0]], s[carriers[1]],
                                       lam, eval_point(k_ray), rtol, atol)

    ln_u2 = ln_ratio((0, -2), 2) - ln_ratio((0, -2), -1)
    ln_um2 = ln_ratio((0, 2), -2) - ln_ratio((0, 2), 1)
    return cmath.exp(ln_u2), cmath.exp(ln_um2)


# ---------------------------------------------------------------------------
# pole refinement


def refine_pole(seed: BsbSolution, radius_policy: tuple[float, float] = (1.0, 1.0),
                tol_dep: float = TOL_DEP, rtol: float = TOL_ODE,
                max_iter: int = 25, compute_gap: bool = True) -> PoleRecord:
    """Newton on the dependence residual starting from a quantization seed.

    The refined point must stay within ``k^(-alpha) eps`` of the seed in the
    a coordinate (the disc policy); the refined b is the quartic Laurent
    coefficient of the tritronquee expansion at the pole.
    """
    alpha, eps = radius_policy
    if not 0.2 < alpha < 1.2:
        raise ValueError("disc exponent alpha must lie in (1/5, 6/5)")
    a = complex(seed.point.a)
    b = complex(seed.point.b)

    def residual(av, bv):
        return np.array(dependence_residual(Potential(av, bv), rtol=rtol))

    G = residual(a, b)
    res = float(abs(G[0]) + abs(G[1]))
    iterations = 0
    polished = False
    for _ in range(max_iter):
        if res < tol_dep and polished:
            break
        if res < tol_dep:
            # one quadratic polish pass so the position, not just the
            # residual, is converged (perturbed seeds must land on the
            # same point well inside the residual ball)
            polished = True
        iterations += 1
        ha = JACOBIAN_H * (1.0 + abs(a))
        hb = JACOBIAN_H * (1.0 + abs(b))
        col_a = (residual(a + ha, b) - residual(a - ha, b)) / (2.0 * ha)
        col_b = (residual(a, b + hb) - residual(a, b - hb)) / (2.0 * hb)
        J = np.column_stack([col_a, col_b])
        try:
            step = np.linalg.solve(J, G)
        except np.linalg.LinAlgError as exc:
            raise NewtonDiverged(f"singular dependence Jacobian: {exc}")
        factor = 1.0
        improved = False
        for _ in range(20):
            a_try = a - factor * step[0]
            b_try = b - factor * step[1]
            G_try = residual(a_try, b_try)
            res_try = float(abs(G_try[0]) + abs(G_try[1]))
            if res_try < res:
                a, b, G, res = a_try, b_try, G_try, res_try
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
        u2, um2 = u_values(Potential(seed.point.a, seed.point.b), rtol=rtol)
        tu2, tum2 = tilde_U(seed.point)
        gap = (abs(u2 - (tu2 + 1.0)), abs(um2 - (tum2 + 1.0)))
    return PoleRecord(q=seed.q, k=seed.k, seed=seed.point,
                      pole=ParamPoint(a, b), dep_residual=res, wkb_gap=gap,
                      newton_iterations=iterations)
