"""Direct integration of y'' = 6 y^2 - z for the tritronquee solution.

Seeding uses the asymptotic series y = -sqrt(z/6) (1 + sum c_j z^(-5j/2))
whose coefficients follow from substituting the ansatz into the equation.
Tracking steps along polyline paths with the solution's own Taylor
series: the right-hand side is a quadratic polynomial, so the coefficients
about any point follow exactly from an O(N^2) recurrence, and one step of
order 20 spans about a ninth of the distance to the nearest pole (the
local-series approach of Fornberg & Weideman, J. Comput. Phys. 230, 2011).
From 40 to -12, through four poles, that is 244 steps (211 in ``track``
and 33 in the seed's cross-check) where the 8th-order DOP853 Runge-Kutta
pair took 2,033.  Movable double poles are
detected from the blow-up of y, fitted in the local Laurent frame

    y = (z-a)^(-2) + (a/10)(z-a)^2 + (1/6)(z-a)^3 + b (z-a)^4 + ...

(the quartic coefficient b is the second free parameter), passed through by
evaluating the series on the far side, and recorded.

Both inner loops run as straight-line code, generated as source and
compiled by ``complex_ode._compile``, the one compile path of the package.
A Taylor leg is ``complex_ode.taylor_leg`` on ``_PI``, this equation
given as data, the generator the oscillator's outward legs run on
too: each step computes a_0..a_20 by the recurrence, 98 products and 17
scalings, then the step control and the Horner sums of y and y', all
over local variables.  On the real axis, where the state, z0 and dz are
real, the leg runs in float arithmetic, bit for bit: a step costs about
4.6 us there and 11 us in complex arithmetic on a 2-vCPU Xeon under
Python 3.11.  ``track`` hands the next leg a pole's exit state with
imaginary parts +0.0, so every leg of a real track runs in floats.  A
``LaurentTable`` compiles its own ``eval_frame`` body, since its order
is a config key, and stays complex.  Every operation runs in the order
of the loops these replaced, which the tests keep as frozen references, so
every pole, b, fit residual and dense point is the same bit for bit.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from . import complex_ode
from .elliptic import newton_step
from .errors import NewtonDiverged, PoleFitFailed, SeedNotConverged

TOL_SEED = 1e-10
TOL_MATCH = 1e-8
TOL_FIT = 1e-6
BLOWUP_THRESHOLD = 1e4
FIT_RADIUS = 0.25
LAURENT_ORDER = 16
Z_SEED_MIN = 40.0
#: the cross-check leg from 2 z0 completes at |z0| = 1e4 (0.7 s) and misses
#: its tolerance from 2e4 on, after about 1.5 s
Z_SEED_MAX = 1e4
SEED_MARGIN = math.pi / 10


def _effective_fit_radius(fit_radius: float, a_est: complex) -> float:
    """Fit radius shrunk with |a|: the local pole lattice tightens like
    |a|^(-1/2) and the Laurent coefficients grow with |a|."""
    return fit_radius * min(1.0, math.sqrt(3.0 / (1.0 + abs(a_est))))

_SECTOR_HALF_WIDTH = 4.0 * math.pi / 5.0

# polynomial-in-(a,b) helpers: {(i, j): coeff} means coeff * a^i * b^j

def _poly_add(p, q):
    out = dict(p)
    for key, val in q.items():
        out[key] = out.get(key, Fraction(0)) + val
        if out[key] == 0:
            del out[key]
    return out


def _poly_mul(p, q):
    out: dict = {}
    for (i1, j1), v1 in p.items():
        for (i2, j2), v2 in q.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, Fraction(0)) + v1 * v2
    return {k: v for k, v in out.items() if v != 0}


def _poly_scale(p, c):
    return {k: v * c for k, v in p.items() if v * c != 0}


def _poly_diff(p, var: int):
    out = {}
    for (i, j), v in p.items():
        if var == 0 and i > 0:
            out[(i - 1, j)] = v * i
        elif var == 1 and j > 0:
            out[(i, j - 1)] = v * j
    return out


@dataclass(frozen=True)
class LaurentTable:
    """Coefficients of the movable-pole expansion as polynomials in (a, b).

    ``coeffs[j]`` multiplies (z-a)^(j-2); the table covers powers -2..order.
    """

    order: int
    coeffs: tuple

    @property
    def n(self) -> int:
        return len(self.coeffs)

    @functools.cached_property
    def _terms(self):
        """Every term of the coefficients (series 0) and of their a- and
        b-derivatives (series 1 and 2) as (series, j, value, i, k): the term
        value a^i b^k of the coefficient of (z-a)^(j-2), converted from the
        exact fractions once instead of in every Laurent-fit iteration."""
        series = (self.coeffs, [_poly_diff(p, 0) for p in self.coeffs],
                  [_poly_diff(p, 1) for p in self.coeffs])
        return tuple((s, j, complex(v), i, k)
                     for s, polys in enumerate(series)
                     for j, p in enumerate(polys)
                     for (i, k), v in p.items())

    @functools.cached_property
    def _degree(self) -> int:
        return max(max(i, k) for _, _, _, i, k in self._terms)

    @functools.cached_property
    def eval_frame(self):
        """``eval_frame(a, b, z)``, (Y, Y', dY/da, dY/db, dY'/da, dY'/db) at
        z for the pole (a, b) as straight-line code: the sums of the
        coefficients and their a- and b-derivatives in table order, then the
        series sum_j c_j t^(j-2), t = z - a, and its t-derivative by Horner."""
        pa = ["1.0"] + [f"pa{i}" for i in range(1, self._degree + 1)]
        pb = ["1.0"] + [f"pb{k}" for k in range(1, self._degree + 1)]
        lines = [f"{pa[i]} = {pa[i - 1]} * a" for i in range(1, len(pa))]
        lines += [f"{pb[k]} = {pb[k - 1]} * b" for k in range(1, len(pb))]
        sums = {(s, j): ["0j"] for s in range(3) for j in range(self.n)}
        for s, j, v, i, k in self._terms:
            sums[s, j].append(f"{v!r} * {pa[i]} * {pb[k]}")
        lines += [f"c{s}_{j} = {' + '.join(terms)}"
                  for (s, j), terms in sums.items()]
        lines += ["t = z - a", "t2 = t * t", "t3 = t2 * t"]
        for s in range(3):
            y = dy = "0j"
            for j in range(self.n - 1, -1, -1):
                y = f"({y}) * t + c{s}_{j}"
                dy = f"({dy}) * t + ({j - 2}) * c{s}_{j}"
            lines += [f"y{s} = ({y}) / t2", f"dy{s} = ({dy}) / t3"]
        lines.append("return (y0, dy0, y1 - dy0, y2, "
                     "dy1 - (6.0 * y0 * y0 - z), dy2)")
        return complex_ode._compile(
            f"def frame(a, b, z):\n{complex_ode._block(lines, 1)}\n", "frame")


@functools.cache
def laurent_coefficients(order: int = LAURENT_ORDER) -> LaurentTable:
    """Recurrence table of the Laurent expansion about a movable pole.

    Built once per order with exact fractions and shared by every caller.

    The leading term is (z-a)^(-2); the resonance sits at the quartic power,
    where the free coefficient b enters.  For j >= 7 (power j-2):

        c_j [(j-2)(j-3) - 12] = 6 sum_{p+q=j, p,q>=1} c_p c_q
        (with -a and -1 sources at the quadratic and cubic powers).
    """
    if order < 4:
        raise ValueError("order must be at least 4 (the resonance power)")
    one = Fraction(1)
    coeffs = [dict() for _ in range(order + 3)]
    coeffs[0] = {(0, 0): one}
    coeffs[4] = {(1, 0): Fraction(1, 10)}
    coeffs[5] = {(0, 0): Fraction(1, 6)}
    coeffs[6] = {(0, 1): one}
    for j in range(7, order + 3):
        conv: dict = {}
        for p in range(1, j):
            conv = _poly_add(conv, _poly_mul(coeffs[p], coeffs[j - p]))
        denom = (j - 2) * (j - 3) - 12
        coeffs[j] = _poly_scale(conv, Fraction(6, denom))
    # the cached table is shared by every caller, so its polynomials are read-only
    return LaurentTable(order=order,
                        coeffs=tuple(MappingProxyType(p) for p in coeffs))


# ---------------------------------------------------------------------------
# asymptotic seeding


def tritronquee_series_coefficients(n_terms: int = 40) -> tuple[float, ...]:
    """Coefficients c_j of y = -sqrt(z/6) sum c_j z^(-5j/2), c_0 = 1.

    Derived by series substitution: with mu_j = (25 j^2 - 1)/4,

        2 c_j = -mu_{j-1} c_{j-1} / sqrt(6) - sum_{p+q=j, p,q>=1} c_p c_q.
    """
    c = [1.0]
    s6 = math.sqrt(6.0)
    for j in range(1, n_terms):
        mu = (25.0 * (j - 1) ** 2 - 1.0) / 4.0
        inner = sum(c[p] * c[j - p] for p in range(1, j))
        c.append(0.5 * (-mu * c[j - 1] / s6 - inner))
    return tuple(c[:n_terms])


_SERIES = tritronquee_series_coefficients()


def _asymptotic_state(z: complex, tol_seed: float = TOL_SEED):
    """(y, y') from the truncated asymptotic series at z."""
    lead = -cmath.sqrt(z / 6.0)
    y = 0.0 + 0.0j
    yp = 0.0 + 0.0j
    prev = math.inf
    for j, cj in enumerate(_SERIES):
        expo = (1.0 - 5.0 * j) / 2.0
        term = -(1.0 / math.sqrt(6.0)) * cj * z ** expo
        if abs(term) > prev:
            break
        y += term
        yp += expo * term / z
        prev = abs(term)
        if abs(term) < tol_seed * abs(lead):
            break
    return y, yp


@dataclass
class TritronqueeState:
    z: complex
    y: complex
    yp: complex
    chart: str = "regular"
    laurent_center: complex | None = None


@dataclass(frozen=True)
class PainlevePole:
    a: complex
    b: complex
    #: |a1 - a2| and |b1 - b2| of the two Laurent fits
    fit_residual_a: float
    fit_residual_b: float

    @property
    def fit_residual(self) -> float:
        return self.fit_residual_a + self.fit_residual_b


# ---------------------------------------------------------------------------
# Taylor stepping

#: Points of a step's polynomial that ``track(record_to=...)`` records.
DENSE_POINTS = 16


def _coefficient_lines(n: int) -> tuple[str, ...]:
    """Lines that set a0..a<n>, the Taylor coefficients of the solution
    through (y, yp) at zc.  They follow exactly from y'' = 6 y^2 - z:

        (k+1)(k+2) a_{k+2} = 6 sum_{i+j=k} a_i a_j - [k=0] zc - [k=1],

    with the convolution summed from ``ZERO`` (the kernel's zero, 0j or
    0.0) over its symmetric half, left to right, doubled, and its middle
    square added for even k.
    """
    lines = ["a0 = y", "a1 = yp", "a2 = 3.0 * y * y - 0.5 * zc",
             "a3 = 2.0 * y * yp - 1.0 / 6.0"]
    for k in range(2, n - 1):
        half = " + ".join(f"a{i} * a{k - i}" for i in range((k + 1) // 2))
        conv = "c + c" + (f" + a{k // 2} * a{k // 2}" if k % 2 == 0 else "")
        lines += [f"c = ZERO + {half}",
                  f"a{k + 2} = ({conv}) * {6.0 / ((k + 1) * (k + 2))!r}"]
    return tuple(lines)


#: y'' = 6 y^2 - z as one series a, whose value is y and derivative y'.
#: About z = 0 the solution with y = y' = 0 there, fixed by
#: y(z) -> w^2 y(w z), w^5 = 1, has only the powers 3, 8, 13, ..., so
#: a_19 = a_20 = 0 and a's earlier terms guard the step (``taylor_leg``);
#: no generic step comes near that guard (46 tol at most from 40 to -40).
_PI = complex_ode.TaylorEquation(
    state=("y", "yp"), params=(),
    recurrence=_coefficient_lines(complex_ode.TAYLOR_ORDER),
    sources=(("a", 0), ("a", 1)), guard="a")
#: ``coefficients(y, yp, zc)``, ``evaluate(a, s)`` or the ``leg`` of ``_PI``
_taylor_kernel = functools.partial(complex_ode.taylor_kernel, _PI)


def _pi_leg(y0, z0: complex, z1: complex, rtol: float, on_accept=None):
    """Integrate y'' = 6 y^2 - z along the segment z0 -> z1 by Taylor steps
    (``complex_ode.taylor_leg``); ``on_accept(t, (y, y'))`` sees the leg
    parameter t after every step.  Returns the result and the complex end
    point."""
    dz = z1 - z0
    res = complex_ode.taylor_leg(_PI, y0, z0, dz, rtol, on_accept)
    return res, z0 + res.t * dz


def _dense_points(zc: complex, state, z: complex, end_state) -> list:
    """``DENSE_POINTS`` points (z, y, y') evenly spaced along the Taylor step
    from zc, where the solution is ``state``, to z, where it is
    ``end_state``; the last point is (z, *end_state)."""
    a = _taylor_kernel("coefficients")(*state, zc)
    evaluate = _taylor_kernel("evaluate")
    s = z - zc
    points = []
    for i in range(1, DENSE_POINTS):
        si = s * (i / DENSE_POINTS)
        points.append((zc + si, *evaluate(a, si)))
    points.append((z, *end_state))
    return points


def seed_asymptotic(z0: complex, tol_seed: float = TOL_SEED,
                    tol_match: float = TOL_MATCH,
                    margin: float = SEED_MARGIN) -> TritronqueeState:
    """Certified asymptotic-series state at z0.

    Requires z0 and 2 z0 finite and Z_SEED_MIN <= |z0| <= Z_SEED_MAX inside
    the sector |arg z| < 4 pi/5 - margin, and raises ``ValueError``
    otherwise.  The
    state is cross-checked by integrating the series state at 2 z0
    inward to z0 and comparing.
    """
    z0 = complex(z0)
    if not (cmath.isfinite(z0) and cmath.isfinite(2.0 * z0)):
        raise ValueError(f"seed point z0 = {z0}: z0 and 2 z0 must be finite")
    if abs(z0) < Z_SEED_MIN:
        raise ValueError(f"|z0| = {abs(z0):.3g} below the seeding radius")
    if abs(z0) > Z_SEED_MAX:
        raise ValueError(f"|z0| = {abs(z0):.3g} above the largest seeding "
                         f"radius {Z_SEED_MAX:.3g}")
    # atan2 where cmath.phase raises OverflowError on an underflowing angle
    if abs(math.atan2(z0.imag, z0.real)) > _SECTOR_HALF_WIDTH - margin:
        raise ValueError("z0 outside the tritronquee sector")
    y0, yp0 = _asymptotic_state(z0, tol_seed)
    y1, yp1 = _asymptotic_state(2.0 * z0, tol_seed)
    res, _ = _pi_leg((y1, yp1), 2.0 * z0, z0, rtol=1e-12)
    mismatch = max(abs(res.y[0] - y0), abs(res.y[1] - yp0))
    if mismatch > tol_match:
        raise SeedNotConverged(
            f"two-radius seeding disagreement {mismatch:.3e} at z0 = {z0}")
    return TritronqueeState(z=z0, y=y0, yp=yp0)


# ---------------------------------------------------------------------------
# tracking with Laurent pole passes


def _fit_pole(table: LaurentTable, z: complex, y: complex, yp: complex,
              a0: complex) -> tuple[complex, complex]:
    """Newton solve of series(z; a, b) = (y, y') from (a, b) = (a0, 0),
    on ``elliptic.newton_step``'s steps.

    Converged at a relative residual below 1e-13, or below 1e-10 once a
    step no longer halves it: quadratic convergence has then stalled at the
    round-off floor, which grows with |a| along the real pole ladder.  The
    step from the converged iterate is still taken: b enters the series at
    (z-a)^4, so a residual of 1e-13 at the fit distance d leaves b wrong by
    up to 1e-13 / d^6, and the state continued past the pole carries that
    error to the next one.
    """
    a, b = complex(a0), 0j
    r_prev = math.inf
    for _ in range(40):
        Y, Yp, da, db, dpa, dpb = table.eval_frame(a, b, z)
        f0, f1 = Y - y, Yp - yp
        r = abs(f0) / (1.0 + abs(y)) + abs(f1) / (1.0 + abs(yp))
        step = newton_step(((da, db), (dpa, dpb)), (f0, f1), "Laurent-fit")
        a -= step[0]
        b -= step[1]
        if r < 1e-13 or (r < 1e-10 and r > 0.5 * r_prev):
            return a, b
        r_prev = r
    raise NewtonDiverged("Laurent fit did not converge")


def track(state: TritronqueeState, waypoints, fit_radius: float = FIT_RADIUS,
          blowup_threshold: float = BLOWUP_THRESHOLD,
          laurent_order: int = LAURENT_ORDER, tol_fit: float = TOL_FIT,
          rtol: float = 1e-13, record_to: list | None = None
          ) -> tuple[TritronqueeState, list[PainlevePole]]:
    """Integrate along the polyline, passing through movable poles.

    The integration runs by Taylor steps (``_pi_leg``).  When the trajectory
    enters the fit radius of a pole (estimated from y/y'), the pole data
    (a, b) are fitted twice, at radii 1.0 and 0.8 times the entry distance,
    each fit starting from its own blow-up estimate; the disagreement is
    recorded as the fit residual, and the state is continued from the
    mirror point on the far side.

    ``record_to`` receives ``(z, y, y')`` at ``DENSE_POINTS`` evenly spaced
    points of every step, the last being its end, read off the step's
    Taylor polynomial: the steps alone are too far apart for an
    interpolant to check (25 from 40 to 5), the dense trail has 400 points.
    A waypoint that is not finite raises ``ValueError``.
    """
    table = laurent_coefficients(laurent_order)
    z_cur = complex(state.z)
    y_cur = (complex(state.y), complex(state.yp))
    poles: list[PainlevePole] = []
    pts = [complex(w) for w in waypoints]
    for w in pts:
        if not cmath.isfinite(w):
            raise ValueError(f"waypoint {w} is not finite")
    if abs(pts[0] - z_cur) > 1e-9 * (1.0 + abs(z_cur)):
        raise ValueError("path must start at the current state")
    last_pole: complex | None = None
    idx = 0
    # pole passes since the last completed leg; a stuck pass must raise
    passes = 0
    while idx < len(pts) - 1:
        z0, z1 = z_cur, pts[idx + 1]
        dz = z1 - z0
        if dz == 0:
            idx += 1
            continue
        # the start of the step that the next on_accept ends
        step_start = [z0, y_cur]

        def on_accept(t, y, z0=z0, dz=dz):
            z = z0 + t * dz
            if record_to is not None:
                # a leg on the real axis carries floats; the trail keeps
                # complex values
                y_c = (complex(y[0]), complex(y[1]))
                record_to.extend(_dense_points(*step_start, z, y_c))
                step_start[:] = z, y_c
            ay = abs(y[0])
            if ay < 8.0 or abs(y[1]) == 0.0:
                return complex_ode.CONTINUE
            dist = abs(2.0 * y[0] / y[1])
            a_est = z + 2.0 * y[0] / y[1]
            radius = _effective_fit_radius(fit_radius, a_est)
            if last_pole is not None and abs(z - last_pole) < 1.3 * radius:
                return complex_ode.CONTINUE
            if dist <= radius or ay >= blowup_threshold:
                return complex_ode.STOP
            return complex_ode.CONTINUE

        res, z_a = _pi_leg(y_cur, z0, z1, rtol, on_accept)
        if not res.stopped:
            z_cur = z1
            y_cur = res.y
            idx += 1
            passes = 0
            continue
        passes += 1
        if passes > 200:
            raise NewtonDiverged("pole passing did not settle")

        # first fit at the entry distance
        y_a, yp_a = res.y
        a1, b1 = _fit_pole(table, z_a, y_a, yp_a, z_a + 2.0 * y_a / yp_a)
        # second fit at 0.8 of the entry distance, from re-integrated data
        # and its own start, so that the two fits are independent
        z_b = a1 + 0.8 * (z_a - a1)
        res_b, _ = _pi_leg(res.y, z_a, z_b, rtol)
        y_b, yp_b = res_b.y
        a2, b2 = _fit_pole(table, z_b, y_b, yp_b, z_b + 2.0 * y_b / yp_b)
        pole = PainlevePole(a2, b2, abs(a1 - a2), abs(b1 - b2))
        if pole.fit_residual > tol_fit:
            raise PoleFitFailed(f"two-radius Laurent fits disagree by "
                                f"{pole.fit_residual:.3e} near {a1}")
        poles.append(pole)
        last_pole = a2

        # exit on the far side, mirror of the certification point
        z_exit = a2 - (z_b - a2)
        yF, ypF, *_ = table.eval_frame(a2, b2, z_exit)
        z_cur = z_exit
        # on the real axis the frame leaves imaginary parts -0.0; with
        # +0.0 the next leg runs in real arithmetic (``taylor_leg``)
        y_cur = tuple(complex(v.real, v.imag + 0.0) for v in (yF, ypF))
        # if the exit overshoots the current leg, move to the next one
        t_exit = ((z_exit - z0) / dz).real
        if t_exit >= 1.0:
            idx += 1
            passes = 0

    final = TritronqueeState(z=z_cur, y=complex(y_cur[0]),
                             yp=complex(y_cur[1]))
    if last_pole is not None and abs(z_cur - last_pole) < fit_radius:
        final.chart = "laurent"
        final.laurent_center = last_pole
    return final, poles
