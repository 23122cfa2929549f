"""Cubic potential, turning points and elliptic cycle periods.

The potential is ``V(lam) = 4*lam**3 - 2*a*lam - 28*b``.  Its three zeros
(turning points) are the finite branch points of ``sqrt(V)``; the two cycle
periods are contour integrals of ``sqrt(V)`` around the pairs (inner, outer)
of turning points, evaluated as doubled line integrals over the joining
segments.  The substitution ``lam(theta) = mid + halfspan*cos(theta)``
absorbs the square-root endpoint behaviour, so a Gauss-Legendre rule in
``theta`` converges geometrically; node doubling provides the error estimate.

Branch convention: cuts lie along the two segments joining the inner turning
point to each outer one, plus a closure ray from the inner point to infinity
(three finite branch points force a third cut; the ray is aimed away from
both outer points and never meets the positive real semi-axis).  The overall
sign is anchored by ``Re sqrt(V) -> +oo`` along the positive real semi-axis.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateTurningPoints, OnBranchCut, QuadratureNotConverged

TOL_QUAD = 1e-10
TOL_CUT = 1e-9
DEGENERACY_REL = 1e-6

#: Jacobian of the period map, fixed by the Legendre relation.
LEGENDRE_CONSTANT = -28j * math.pi

# Orientation constants of the two cycles.  They are pinned operationally:
# both periods must equal +i*pi at the real reference solution of the
# quantization system (near a = -2.34, b = -0.064).
_SIGMA_CHI2 = -1.0
_SIGMA_CHIM2 = -1.0


@dataclass(frozen=True)
class ParamPoint:
    """A point (a, b) of the two-complex-dimensional parameter plane."""

    a: complex
    b: complex

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))

    def scaled(self, x: float) -> "ParamPoint":
        """Rescaled point (x^2 a, x^3 b); x > 0 preserves the graph type."""
        return ParamPoint(x * x * self.a, x * x * x * self.b)


@dataclass(frozen=True)
class Potential:
    """The cubic potential V(lam) = 4 lam^3 - 2 a lam - 28 b."""

    a: complex
    b: complex

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))

    @classmethod
    def from_point(cls, point: ParamPoint) -> "Potential":
        return cls(point.a, point.b)

    @property
    def point(self) -> ParamPoint:
        return ParamPoint(self.a, self.b)

    def __call__(self, lam: complex) -> complex:
        return 4.0 * lam * lam * lam - 2.0 * self.a * lam - 28.0 * self.b

    def deriv(self, lam: complex) -> complex:
        return 12.0 * lam * lam - 2.0 * self.a

    def deriv2(self, lam: complex) -> complex:
        return 24.0 * lam


@dataclass(frozen=True)
class TurningPoints:
    """Zeros of the potential in canonical order.

    ``roots[0]`` is the inner point (the vertex both cycles share: the root
    whose largest distance to the others is smallest), ``roots[1]`` the outer
    point of the chi_2 cycle, ``roots[2]`` the outer point of the chi_-2
    cycle.  Outer points are ordered by descending imaginary part (then
    ascending real part), so for configurations symmetric under conjugation
    the chi_2 cycle is the upper one.
    """

    roots: tuple[complex, complex, complex]
    discriminant: complex

    @property
    def inner(self) -> complex:
        return self.roots[0]

    @property
    def scale(self) -> float:
        return 1.0 + max(abs(r) for r in self.roots)

    @property
    def min_separation(self) -> float:
        r = self.roots
        return min(abs(r[0] - r[1]), abs(r[0] - r[2]), abs(r[1] - r[2]))

    @property
    def centroid(self) -> complex:
        return (self.roots[0] + self.roots[1] + self.roots[2]) / 3.0


class CycleId(Enum):
    """Cycle labels: C_MINUS1 carries chi_2, C_PLUS1 carries chi_-2."""

    C_MINUS1 = "c-1"
    C_PLUS1 = "c1"

    @property
    def chi_subscript(self) -> int:
        return 2 if self is CycleId.C_MINUS1 else -2


def turning_points(pot: Potential,
                   degeneracy_rel: float = DEGENERACY_REL) -> TurningPoints:
    """Roots of V in canonical order, with the monic-cubic discriminant.

    Raises DegenerateTurningPoints when two roots are closer than
    ``degeneracy_rel * (1 + max |root|)``: period quadrature loses accuracy
    well before exact collision.
    """
    a, b = pot.a, pot.b
    # monic depressed cubic lam^3 + p lam + q
    p = -a / 2.0
    q = -7.0 * b
    disc = -4.0 * p ** 3 - 27.0 * q ** 2
    roots = np.roots([4.0, 0.0, -2.0 * a, -28.0 * b]).astype(complex)
    # two Newton polish passes tighten |V(root)| to round-off
    for _ in range(2):
        v = 4.0 * roots ** 3 - 2.0 * a * roots - 28.0 * b
        dv = 12.0 * roots ** 2 - 2.0 * a
        step = np.where(np.abs(dv) > 0, v / np.where(dv == 0, 1, dv), 0.0)
        roots = roots - step
    r = [complex(z) for z in roots]
    scale = 1.0 + max(abs(z) for z in r)
    sep = min(abs(r[0] - r[1]), abs(r[0] - r[2]), abs(r[1] - r[2]))
    if sep < degeneracy_rel * scale:
        raise DegenerateTurningPoints(
            f"turning points separated by {sep:.3e} at scale {scale:.3e}")

    # inner point: smallest maximal distance to the other two
    def max_dist(i):
        return max(abs(r[i] - r[j]) for j in range(3) if j != i)

    dists = [max_dist(i) for i in range(3)]
    lo = min(dists)
    candidates = [i for i in range(3) if dists[i] <= lo * (1.0 + 1e-9)]
    inner_idx = min(candidates, key=lambda i: (r[i].real, r[i].imag))
    outers = [r[j] for j in range(3) if j != inner_idx]
    outers.sort(key=lambda z: (-z.imag, z.real))
    return TurningPoints(roots=(r[inner_idx], outers[0], outers[1]),
                         discriminant=complex(disc))


# ---------------------------------------------------------------------------
# branch structure of sqrt(V)


def branch_sqrt(pot: Potential, lam: complex, near: complex) -> complex:
    """The value of sqrt(V(lam)) closer to ``near``.

    Stepwise continuation of sqrt(V) along a path: with ``near`` the value at
    the previous point, the sign choice follows one branch as long as the
    steps stay short compared with the distance to the turning points.
    """
    w = cmath.sqrt(pot(lam))
    if abs(w - near) > abs(w + near):
        w = -w
    return w


def _dist_point_segment(z: complex, p: complex, q: complex) -> float:
    d = q - p
    L2 = (d * d.conjugate()).real
    if L2 == 0.0:
        return abs(z - p)
    t = ((z - p) * d.conjugate()).real / L2
    t = min(1.0, max(0.0, t))
    return abs(z - (p + t * d))


def _dist_point_ray(z: complex, origin: complex, direction: complex) -> float:
    t = ((z - origin) * direction.conjugate()).real
    if t <= 0.0:
        return abs(z - origin)
    return abs(z - (origin + t * direction))


def _ray_hits_positive_axis(origin: complex, direction: complex) -> bool:
    if abs(direction.imag) < 1e-15:
        return abs(origin.imag) < 1e-15 and (direction.real > 0 or origin.real > 0)
    t = -origin.imag / direction.imag
    if t < 0.0:
        return False
    return (origin + t * direction).real > 0.0


@dataclass(frozen=True)
class _Branch:
    tp: TurningPoints
    ray_dir: complex
    sign: float


def _closure_ray_direction(tp: TurningPoints) -> complex:
    r0, r1, r2 = tp.roots
    scale = tp.scale
    if abs(r0) > 1e-12 * scale:
        base = r0 / abs(r0)  # prolongation of the segment [0, inner]
    else:
        base = 1j * (r1 - r2) / abs(r1 - r2)
    d1 = (r1 - r0) / abs(r1 - r0)
    d2 = (r2 - r0) / abs(r2 - r0)

    def angular_gap(u: complex, v: complex) -> float:
        return abs(math.atan2((u * v.conjugate()).imag, (u * v.conjugate()).real))

    for k in range(12):
        cand = base * complex(math.cos(k * math.pi / 6), math.sin(k * math.pi / 6))
        if _ray_hits_positive_axis(r0, cand):
            continue
        if angular_gap(cand, d1) > 0.35 and angular_gap(cand, d2) > 0.35:
            return cand
    return base


def _branch(pot: Potential, tp: TurningPoints) -> _Branch:
    ray_dir = _closure_ray_direction(tp)
    b = _Branch(tp=tp, ray_dir=ray_dir, sign=1.0)
    anchor = 10.0 * tp.scale
    val = _sqrt_V_raw(pot, b, complex(anchor, 0.0))
    if val.real < 0.0:
        b = _Branch(tp=tp, ray_dir=ray_dir, sign=-1.0)
    return b


def _sqrt_V_raw(pot: Potential, br: _Branch, lam: complex) -> complex:
    r0, r1, r2 = br.tp.roots
    # pair factors with cuts exactly on the joining segments
    c1, h1 = (r0 + r1) / 2.0, (r1 - r0) / 2.0
    c2, h2 = (r0 + r2) / 2.0, (r2 - r0) / 2.0
    u1 = lam - c1
    u2 = lam - c2
    p1 = u1 * np.sqrt(1.0 - (h1 / u1) ** 2)
    p2 = u2 * np.sqrt(1.0 - (h2 / u2) ** 2)
    # lone factor at the inner point, cut along the closure ray
    phi = math.atan2(br.ray_dir.imag, br.ray_dir.real)
    rot = complex(math.cos(phi + math.pi), math.sin(phi + math.pi))
    q0 = np.sqrt((lam - r0) * rot.conjugate()) * complex(
        math.cos((phi + math.pi) / 2.0), math.sin((phi + math.pi) / 2.0))
    return br.sign * 2.0 * complex(p1) * complex(p2) * complex(q0) / (lam - r0)


def _cut_distance(br: _Branch, lam: complex) -> float:
    r0, r1, r2 = br.tp.roots
    return min(_dist_point_segment(lam, r0, r1),
               _dist_point_segment(lam, r0, r2),
               _dist_point_ray(lam, r0, br.ray_dir))


def sqrt_V(pot: Potential, tp: TurningPoints, lam: complex,
           tol_cut: float = TOL_CUT) -> complex:
    """Branch of sqrt(V) on the cut plane.

    Continuous off the cut system; normalized so that the value has positive
    real part far out on the positive real semi-axis.  Raises OnBranchCut for
    points within ``tol_cut * scale`` of a cut.
    """
    br = _branch(pot, tp)
    if _cut_distance(br, complex(lam)) < tol_cut * tp.scale:
        raise OnBranchCut(f"lambda = {lam} lies on a branch cut")
    return _sqrt_V_raw(pot, br, complex(lam))


# ---------------------------------------------------------------------------
# cycle periods


_leggauss_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    cached = _leggauss_cache.get(n)
    if cached is None:
        x, w = np.polynomial.legendre.leggauss(n)
        theta = (x + 1.0) * (math.pi / 2.0)
        cached = (theta, w * (math.pi / 2.0))
        _leggauss_cache[n] = cached
    return cached


def _third_root_factor(tp: TurningPoints, which: int, theta: np.ndarray) -> np.ndarray:
    """w(theta) = sqrt(lam(theta) - r_other) along segment ``which``.

    The principal-square-root form is valid whenever the rescaled segment
    1 + rho*cos(theta) stays off the negative real axis, which can only fail
    when the third root sits on the carrier line of the cut.
    """
    r0 = tp.roots[0]
    rout = tp.roots[which]
    rv = tp.roots[3 - which]
    c = (r0 + rout) / 2.0
    h = (rout - r0) / 2.0
    base = c - rv
    rho = h / base
    if abs(rho.imag) < 1e-14 and abs(rho.real) >= 1.0 - 1e-12:
        raise QuadratureNotConverged(
            "third turning point lies on the cut line; cycle degenerates")
    vals = 1.0 + rho * np.cos(theta)
    return np.sqrt(base) * np.sqrt(vals)


def _cycle_integral(pot: Potential, cycle: CycleId, kind: str,
                    tol_quad: float = TOL_QUAD) -> complex:
    tp = turning_points(pot)
    which = 1 if cycle is CycleId.C_MINUS1 else 2
    sigma = _SIGMA_CHI2 if cycle is CycleId.C_MINUS1 else _SIGMA_CHIM2
    r0 = tp.roots[0]
    rout = tp.roots[which]
    c = (r0 + rout) / 2.0
    h = (rout - r0) / 2.0

    def evaluate(n: int) -> complex:
        theta, wts = _gauss_nodes(n)
        w = _third_root_factor(tp, which, theta)
        if kind == "chi":
            integrand = np.sin(theta) ** 2 * w
            return 4j * sigma * h * h * complex(np.sum(wts * integrand))
        lam = c + h * np.cos(theta)
        if kind == "da":
            return 1j * sigma * complex(np.sum(wts * lam / w))
        if kind == "db":
            return 14j * sigma * complex(np.sum(wts / w))
        raise ValueError(kind)

    prev = evaluate(32)
    for n in (64, 128, 256, 512, 1024, 2048, 4096):
        cur = evaluate(n)
        if abs(cur - prev) <= tol_quad * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise QuadratureNotConverged(
        f"period quadrature for {cycle} ({kind}) did not converge")


def period(pot: Potential, cycle: CycleId, tol_quad: float = TOL_QUAD) -> complex:
    """Cycle period: contour integral of sqrt(V) around the cycle's pair.

    Computed as twice the line integral between the two encircled turning
    points, with node-doubled Gauss-Legendre quadrature.
    """
    return _cycle_integral(pot, cycle, "chi", tol_quad)


def period_derivatives(pot: Potential, cycle: CycleId,
                       tol_quad: float = TOL_QUAD) -> tuple[complex, complex]:
    """(d chi/d a, d chi/d b) over the same cycle and branch as ``period``.

    d chi/d a integrates -lam dlam/mu, d chi/d b integrates -14 dlam/mu on the
    elliptic curve mu^2 = V.
    """
    da = _cycle_integral(pot, cycle, "da", tol_quad)
    db = _cycle_integral(pot, cycle, "db", tol_quad)
    return da, db


@dataclass(frozen=True)
class PeriodData:
    """Both cycle periods and their four parameter derivatives."""

    chi2: complex
    chi_m2: complex
    dchi2_da: complex
    dchi2_db: complex
    dchim2_da: complex
    dchim2_db: complex

    @classmethod
    def compute(cls, pot: Potential, tol_quad: float = TOL_QUAD) -> "PeriodData":
        chi2 = period(pot, CycleId.C_MINUS1, tol_quad)
        chi_m2 = period(pot, CycleId.C_PLUS1, tol_quad)
        d2a, d2b = period_derivatives(pot, CycleId.C_MINUS1, tol_quad)
        dm2a, dm2b = period_derivatives(pot, CycleId.C_PLUS1, tol_quad)
        return cls(chi2, chi_m2, d2a, d2b, dm2a, dm2b)

    @property
    def jacobian_det(self) -> complex:
        return (self.dchi2_da * self.dchim2_db
                - self.dchim2_da * self.dchi2_db)


def legendre_residual(pd: PeriodData) -> float:
    """|det(period derivative matrix) - (-28 pi i)|."""
    return abs(pd.jacobian_det - LEGENDRE_CONSTANT)
