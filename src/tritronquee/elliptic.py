"""Cubic potential, turning points and elliptic cycle periods.

The potential is ``V(lam) = 4*lam**3 - 2*a*lam - 28*b``.  Its three zeros
(turning points) are the finite branch points of ``sqrt(V)``; the two cycle
periods are contour integrals of ``sqrt(V)`` around the pairs (inner, outer)
of turning points, evaluated as doubled line integrals over the joining
segments.  The substitution ``lam(theta) = mid + halfspan*cos(theta)``
absorbs the square-root endpoint behaviour, so a Gauss-Legendre rule in
``theta`` converges geometrically; node doubling provides the error estimate.
One doubling sweep per cycle shares the nodes and the third-root factor among
chi, d chi/d a and d chi/d b, and each integral stops at its own converged n.

Branch rules: no global branch of sqrt(V) is fixed; three rules pick a
sign.  ``branch_sqrt`` continues sqrt(V) along a path from the value at the
previous point (the Stokes tracer and the oscillator's WKB phase).
``facing_sqrt`` starts such a path with Re(sqrt(V) * direction) >= 0: on
the oscillator ray along e^(i phi) the action then grows outward, and a
Stokes line leaving along e^(i phi) takes direction -i e^(i phi), so
that its tangent i conj(sqrt(V)) points along the line.  The quadrature
writes sqrt(V) on ``lam = c + h cos(theta)`` as 2i h sin(theta) times the
third-root factor sqrt(c - r_other) * sqrt(1 + rho cos(theta)), with
principal roots and a sign per cycle pinned at the real (1,1) solution.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateTurningPoints, QuadratureNotConverged

TOL_QUAD = 1e-10
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


def turning_points(pot: Potential) -> TurningPoints:
    """Roots of V in canonical order.

    Raises DegenerateTurningPoints when two roots are closer than
    ``DEGENERACY_REL * (1 + max |root|)``: period quadrature loses accuracy
    well before exact collision.  A coefficient that is not finite raises
    ``ValueError``.
    """
    a, b = pot.a, pot.b
    for name, value in (("a", a), ("b", b)):
        if not cmath.isfinite(value):
            raise ValueError(f"coefficient {name} = {value} is not finite")
    roots = np.roots([4.0, 0.0, -2.0 * a, -28.0 * b]).astype(complex)
    # two Newton polish passes tighten |V(root)| to round-off; a step that
    # is not finite (V' zero, or subnormal so that 0 / V' is nan) is skipped
    for _ in range(2):
        v = 4.0 * roots ** 3 - 2.0 * a * roots - 28.0 * b
        dv = 12.0 * roots ** 2 - 2.0 * a
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            step = v / dv
        roots = np.where(np.isfinite(step), roots - step, roots)
    r = [complex(z) for z in roots]
    scale = 1.0 + max(abs(z) for z in r)
    sep = min(abs(r[0] - r[1]), abs(r[0] - r[2]), abs(r[1] - r[2]))
    if sep < DEGENERACY_REL * scale:
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
    return TurningPoints(roots=(r[inner_idx], outers[0], outers[1]))


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


def facing_sqrt(pot: Potential, lam: complex, direction: complex) -> complex:
    """The value of sqrt(V(lam)) with Re(sqrt(V) * direction) >= 0."""
    w = cmath.sqrt(pot(lam))
    if (w * direction).real < 0.0:
        w = -w
    return w


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


def _cycle_sweep(tp: TurningPoints, cycle: CycleId, tol_quad: float = TOL_QUAD,
                 kinds: tuple[str, ...] = ("chi", "da", "db")) -> dict[str, complex]:
    """The integrals ``kinds`` over one cycle by kind; each stops at the
    first n that agrees with n/2, and is left out if none does."""
    which = 1 if cycle is CycleId.C_MINUS1 else 2
    sigma = _SIGMA_CHI2 if cycle is CycleId.C_MINUS1 else _SIGMA_CHIM2
    r0, rout = tp.roots[0], tp.roots[which]
    c = (r0 + rout) / 2.0
    h = (rout - r0) / 2.0
    prev, done = {}, {}
    for n in (32, 64, 128, 256, 512, 1024, 2048, 4096):
        theta, wts = _gauss_nodes(n)
        w = _third_root_factor(tp, which, theta)
        for kind in [k for k in kinds if k not in done]:
            if kind == "chi":
                integrand = np.sin(theta) ** 2 * w
                cur = 4j * sigma * h * h * complex(np.sum(wts * integrand))
            elif kind == "da":
                cur = 1j * sigma * complex(np.sum(wts * (c + h * np.cos(theta)) / w))
            else:
                cur = 14j * sigma * complex(np.sum(wts / w))
            if n > 32 and abs(cur - prev[kind]) <= tol_quad * max(1.0, abs(cur)):
                done[kind] = cur
            prev[kind] = cur
        if len(done) == len(kinds):
            break
    return done


def _take(done: dict[str, complex], cycle: CycleId, kind: str) -> complex:
    if kind not in done:
        raise QuadratureNotConverged(
            f"period quadrature for {cycle} ({kind}) did not converge")
    return done[kind]


def period(pot: Potential, cycle: CycleId, tol_quad: float = TOL_QUAD) -> complex:
    """Cycle period: contour integral of sqrt(V) around the cycle's pair.

    Computed as twice the line integral between the two encircled turning
    points, with node-doubled Gauss-Legendre quadrature.
    """
    done = _cycle_sweep(turning_points(pot), cycle, tol_quad, ("chi",))
    return _take(done, cycle, "chi")


def period_derivatives(pot: Potential, cycle: CycleId,
                       tol_quad: float = TOL_QUAD) -> tuple[complex, complex]:
    """(d chi/d a, d chi/d b) over the same cycle and branch as ``period``.

    d chi/d a integrates -lam dlam/mu, d chi/d b integrates -14 dlam/mu on the
    elliptic curve mu^2 = V.
    """
    done = _cycle_sweep(turning_points(pot), cycle, tol_quad, ("da", "db"))
    return _take(done, cycle, "da"), _take(done, cycle, "db")


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
        """One turning-point solve and one sweep per cycle; errors surface
        in the order chi2, chi_m2, then the derivatives."""
        tp = turning_points(pot)
        c2, cm2 = CycleId.C_MINUS1, CycleId.C_PLUS1
        done2 = _cycle_sweep(tp, c2, tol_quad)
        chi2 = _take(done2, c2, "chi")
        donem2 = _cycle_sweep(tp, cm2, tol_quad)
        return cls(chi2, _take(donem2, cm2, "chi"),
                   _take(done2, c2, "da"), _take(done2, c2, "db"),
                   _take(donem2, cm2, "da"), _take(donem2, cm2, "db"))

    @property
    def jacobian_det(self) -> complex:
        return (self.dchi2_da * self.dchim2_db
                - self.dchim2_da * self.dchi2_db)


def legendre_residual(pd: PeriodData) -> float:
    """|det(period derivative matrix) - (-28 pi i)|."""
    return abs(pd.jacobian_det - LEGENDRE_CONSTANT)
