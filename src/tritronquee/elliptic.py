"""Cubic potential, turning points and elliptic cycle periods.

The potential is ``V(lam) = 4*lam**3 - 2*a*lam - 28*b``.  Its three zeros
(turning points), from Cardano's formula, are the finite branch points of
``sqrt(V)``.  The two cycle periods are contour integrals of ``sqrt(V)``
around the pairs (inner, outer) of turning points, twice the line
integrals over the joining segments.  Each of chi, d chi/d a and d chi/d b
is a closed form in Carlson's symmetric integrals R_F and R_D at
(0, 1 + rho, 1 - rho) (DLMF 19.23, 19.36), which one duplication loop
computes.  chi's form divides by rho, so below |rho| = 0.2 chi is summed
from its even series, and 1 +- rho are differences of roots, since 1 - rho
cancels when the third root nears the inner one.  Largest relative error
of the six periods on 20 draws of turning points r, r + eps, -2r - eps,
against a 30-digit quadrature on the same float roots ("plain" takes
1 +- rho from rho and has no series):

    eps      plain closed form   as computed   node-doubled Gauss-Legendre
    1e-2     2.1e-13             1.6e-15       7.9e-14
    1e-4     1.1e-11             1.1e-15       2.3e-12
    3.2e-6   3.0e-10             1.0e-15       9.2e-12

Branch rules: no global branch of sqrt(V) is fixed; three rules pick a
sign.  ``branch_sqrt`` continues sqrt(V) along a path from the value at the
previous point (the Stokes tracer and the oscillator's WKB phase).
``facing_sqrt`` starts such a path with Re(sqrt(V) * direction) >= 0: on
the oscillator ray along e^(i phi) the action then grows outward, and a
Stokes line leaving along e^(i phi) takes direction -i e^(i phi), so
that its tangent i conj(sqrt(V)) points along the line.  The periods
write sqrt(V) on ``lam = c + h cos(theta)`` as 2i h sin(theta) times the
third-root factor sqrt(c - r_other) * sqrt(1 + rho cos(theta)), with
principal roots and a sign per cycle pinned at the real (1,1) solution.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .errors import DegenerateTurningPoints, QuadratureNotConverged

DEGENERACY_REL = 1e-6
_OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)
_CBRT7 = 7.0 ** (1.0 / 3.0)

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

    Cardano's formula on lam^3 - (a/2) lam - 7b, scaled to coefficients of
    modulus at most 1, takes the cube root of the larger of
    -q/2 +- sqrt(Delta).  Raises DegenerateTurningPoints when two roots are
    closer than ``DEGENERACY_REL * (1 + max |root|)``: rounding moves a
    root of a pair at separation d by about 1e-16 scale^2 / d, and the
    periods with it.  A coefficient that is not finite raises ``ValueError``.

    For real a and b the roots are three real numbers, or one real number
    and an exact conjugate pair, the lower root the conjugate of the upper
    one: the centroid is then real, and so is ``oscillator.match_point``.
    """
    a, b = pot.a, pot.b
    for name, value in (("a", a), ("b", b)):
        if not cmath.isfinite(value):
            raise ValueError(f"coefficient {name} = {value} is not finite")
    s = max(math.sqrt(abs(a) / 2.0), _CBRT7 * abs(b) ** (1.0 / 3.0))
    if s == 0.0:
        raise DegenerateTurningPoints("triple turning point at 0")
    p, q = -a / s / s / 2.0, -7.0 * (b / s / s / s)
    half, sq = -q / 2.0, cmath.sqrt(q * q / 4.0 + p * p * p / 27.0)
    if (half.conjugate() * sq).real < 0.0:
        sq = -sq
    u = (half + sq) ** (1.0 / 3.0)
    v = -p / (3.0 * u)
    m = [u + v, _OMEGA * u + _OMEGA.conjugate() * v,
         _OMEGA.conjugate() * u + _OMEGA * v]
    # the smallest root cancels in u + v, so it comes from the product of
    # the roots, -q, instead
    k = min(range(3), key=lambda i: abs(m[i]))
    m[k] = -q / (m[k - 1] * m[k - 2])
    r = [s * z for z in m]
    # up to two Newton polish passes tighten |V(root)| to round-off; a
    # step stops them unless it lowers |V|: at a double root V' is
    # rounding, and V / V' sends the root anywhere
    a2, b28 = 2.0 * a, 28.0 * b
    for i, z in enumerate(r):
        v = 4.0 * z * z * z - a2 * z - b28
        for _ in range(2):
            dv = 12.0 * z * z - a2
            if dv == 0.0:
                break
            z_new = z - v / dv
            v_new = 4.0 * z_new * z_new * z_new - a2 * z_new - b28
            if not abs(v_new) < abs(v):
                break
            z, v = z_new, v_new
        r[i] = z
    scale = 1.0 + max(map(abs, r))
    if a.imag == 0.0 and b.imag == 0.0:
        # a real V has one real root and two more that are real or a
        # conjugate pair, and a pair this close to the axis is degenerate:
        # smaller imaginary parts are rounding, and the canonical order must
        # not read them.  A pair is made exact, lower = conj(upper).
        i, j, k = sorted(range(3), key=lambda n: abs(r[n].imag))
        r[i] = complex(r[i].real, 0.0)
        if abs(r[k].imag) < DEGENERACY_REL * scale:
            r[j], r[k] = complex(r[j].real, 0.0), complex(r[k].real, 0.0)
        elif r[k].imag > 0.0:
            r[j] = r[k].conjugate()
        else:
            r[k] = r[j].conjugate()
    d01, d02, d12 = abs(r[0] - r[1]), abs(r[0] - r[2]), abs(r[1] - r[2])
    sep = min(d01, d02, d12)
    if sep < DEGENERACY_REL * scale:
        raise DegenerateTurningPoints(
            f"turning points separated by {sep:.3e} at scale {scale:.3e}")
    # inner point: smallest maximal distance to the other two
    dists = (max(d01, d02), max(d01, d12), max(d02, d12))
    lo = min(dists)
    inner_idx = min((i for i in range(3) if dists[i] <= lo * (1.0 + 1e-9)),
                    key=lambda i: (r[i].real, r[i].imag))
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


# Carlson's stopping rule: (3r)^(-1/6) for R_F, (r/4)^(-1/6) for R_D, r = 2^-53
_STOP_F = (3.0 * 2.0 ** -53) ** (-1.0 / 6.0)
_STOP_D = (2.0 ** -55) ** (-1.0 / 6.0)

# Below |rho| = _SERIES_RHO, I_2 = (pi/2) sum_j t_j rho^(2j): its closed
# form loses about 2e-16 / |rho| (relative), 10 terms 5e-19 at the switch.
_SERIES_RHO = 0.2
_I2_SERIES = tuple(math.prod((16 * i * i - 1) / (16 * (i + 1) * (i + 2))
                             for i in range(j)) for j in range(10))


def _carlson_fd(y: complex, z: complex) -> tuple[complex, complex]:
    """(R_F(0, y, z), R_D(0, y, z)), Carlson's symmetric elliptic integrals.

    One duplication loop serves both (DLMF 19.36.1-2; B. C. Carlson,
    Numer. Algorithms 10, 1995), on principal square roots: y and z must
    lie off the negative real axis.
    """
    x = 0j
    af, ad = (y + z) / 3.0, (y + 3.0 * z) / 5.0
    xf, yf, xd, yd = af, af - y, ad, ad - y
    stop_f = _STOP_F * max(abs(af), abs(af - y), abs(af - z))
    stop_d = _STOP_D * max(abs(ad), abs(ad - y), abs(ad - z))
    f, tail = 1.0, 0j
    while f * stop_f >= abs(af) or f * stop_d >= abs(ad):
        sx, sy, sz = cmath.sqrt(x), cmath.sqrt(y), cmath.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        tail += f / (sz * (z + lam))
        f *= 0.25
        x, y, z = (x + lam) * 0.25, (y + lam) * 0.25, (z + lam) * 0.25
        af, ad = (af + lam) * 0.25, (ad + lam) * 0.25
    X, Y = xf * f / af, yf * f / af
    Z = -(X + Y)
    e2, e3 = X * Y - Z * Z, X * Y * Z
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0
          - 3.0 * e2 * e3 / 44.0) / cmath.sqrt(af)
    X, Y = xd * f / ad, yd * f / ad
    Z = -(X + Y) / 3.0
    xy, zz = X * Y, Z * Z
    e2, e3 = xy - 6.0 * zz, (3.0 * xy - 8.0 * zz) * Z
    e4, e5 = 3.0 * (xy - zz) * zz, xy * zz * Z
    rd = f * (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0
              - 3.0 * e4 / 22.0 - 9.0 * e2 * e3 / 52.0
              + 3.0 * e5 / 26.0) / (ad * cmath.sqrt(ad)) + 3.0 * tail
    return rf, rd


def _cycle_sweep(tp: TurningPoints,
                 cycle: CycleId) -> tuple[complex, complex, complex]:
    """(chi, d chi/d a, d chi/d b) of one cycle.  With F and D at
    (0, 1 + rho, 1 - rho), the integrals over theta in [0, pi] are

        int 1 / sqrt(1 + rho cos)          = 2F,
        int cos / sqrt(1 + rho cos)        = -2F + (4/3)(1 - rho) D,
        int sin^2 sqrt(1 + rho cos) = I_2  = 4(1 - rho)
                    [(2/3)(1 + 3 rho^2) D - (1 - 3 rho) F] / (15 rho).
    """
    which = 1 if cycle is CycleId.C_MINUS1 else 2
    sigma = _SIGMA_CHI2 if cycle is CycleId.C_MINUS1 else _SIGMA_CHIM2
    r0, rout, rv = tp.roots[0], tp.roots[which], tp.roots[3 - which]
    c = (r0 + rout) / 2.0
    h = (rout - r0) / 2.0
    base = c - rv
    rho = h / base
    # the principal roots of 1 + rho cos(theta) are continuous on [0, pi]
    # unless the third root sits on the carrier line of the cut
    if abs(rho.imag) < 1e-14 and abs(rho.real) >= 1.0 - 1e-12:
        raise QuadratureNotConverged(
            "third turning point lies on the cut line; cycle degenerates")
    # 1 + rho and 1 - rho from the roots: 1.0 - rho would cancel when the
    # third root nears the inner one
    y, z = (rout - rv) / base, (r0 - rv) / base
    F, D = _carlson_fd(y, z)
    if abs(rho) < _SERIES_RHO:
        rho2, i2 = rho * rho, 0j
        for t in reversed(_I2_SERIES):
            i2 = i2 * rho2 + t
        i2 *= math.pi / 2.0
    else:
        i2 = (4.0 * z * ((2.0 / 3.0) * (1.0 + 3.0 * rho * rho) * D
                         - (1.0 - 3.0 * rho) * F) / (15.0 * rho))
    root = cmath.sqrt(base)
    chi = 4j * sigma * h * h * root * i2
    cos_integral = -2.0 * F + (4.0 / 3.0) * z * D
    da = 1j * sigma * (2.0 * c * F + h * cos_integral) / root
    db = 28j * sigma * F / root
    return chi, da, db


def period(pot: Potential, cycle: CycleId) -> complex:
    """Cycle period: contour integral of sqrt(V) around the cycle's pair,
    twice the line integral between the two encircled turning points."""
    return _cycle_sweep(turning_points(pot), cycle)[0]


def period_derivatives(pot: Potential,
                       cycle: CycleId) -> tuple[complex, complex]:
    """(d chi/d a, d chi/d b) over the same cycle and branch as ``period``.

    d chi/d a integrates -lam dlam/mu, d chi/d b integrates -14 dlam/mu on the
    elliptic curve mu^2 = V.
    """
    return _cycle_sweep(turning_points(pot), cycle)[1:]


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
    def compute(cls, pot: Potential) -> "PeriodData":
        """One turning-point solve and one closed-form sweep per cycle."""
        tp = turning_points(pot)
        chi2, da2, db2 = _cycle_sweep(tp, CycleId.C_MINUS1)
        chim2, dam2, dbm2 = _cycle_sweep(tp, CycleId.C_PLUS1)
        return cls(chi2, chim2, da2, db2, dam2, dbm2)

    @property
    def jacobian_det(self) -> complex:
        return (self.dchi2_da * self.dchim2_db
                - self.dchim2_da * self.dchi2_db)


def legendre_residual(pd: PeriodData) -> float:
    """|det(period derivative matrix) - (-28 pi i)|."""
    return abs(pd.jacobian_det - LEGENDRE_CONSTANT)


# ---------------------------------------------------------------------------
# 2x2 linear algebra of the two Newton iterations (bsb and oscillator)


def solve_2x2(J, F) -> tuple[complex, complex]:
    """x with J x = F, by Cramer's rule; ``ZeroDivisionError`` if det J = 0.

    For n = 2 Cramer's rule is forward stable, |x - x^| <= c u cond(J) |x|,
    though not backward stable (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, sec. 1.10.1).  A NaN in J or F gives a NaN x.  det J
    must neither overflow nor underflow: entries within about 1e+-150.
    """
    (a, b), (c, d) = J
    f0, f1 = F
    det = a * d - b * c
    return (f0 * d - b * f1) / det, (a * f1 - c * f0) / det


def cond_2x2(J) -> float:
    """2-norm condition number sigma_max / sigma_min of J; inf if singular.

    With |det J| = s1 s2, cond = s1^2 / |det J|, and s1^2 is the larger
    eigenvalue of J J^H = ((p, r), (r*, q)): (p + q + hypot(p - q, 2|r|)) / 2.
    The form |J|_F^4 - 4 |det J|^2 of the same discriminant cancels as
    s1 -> s2 and is 1.7e-8 off at cond = 1.  cond is scale-free, so J is
    first scaled by the power of 2 that brings its largest entry near 1:
    exact, so no bit changes, and det J cannot underflow or overflow.
    """
    (a, b), (c, d) = J
    s = math.ldexp(1.0, -math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1])
    a, b, c, d = a * s, b * s, c * s, d * s
    det = abs(a * d - b * c)
    if det == 0.0:
        return math.inf
    p = abs(a) ** 2 + abs(b) ** 2
    q = abs(c) ** 2 + abs(d) ** 2
    r = abs(a * c.conjugate() + b * d.conjugate())
    return 0.5 * (p + q + math.hypot(p - q, 2.0 * r)) / det
