"""Stokes lines of the quadratic differential V(lam) dlam^2 and their graph.

From every simple turning point three lines leave along directions that keep
the action integral of sqrt(V) purely imaginary.  Lines either escape to
infinity (they asymptote to the bisectors between the five recessive
directions ``2 pi k / 5``) or hit another turning point (a saddle
connection).  The resulting embedded graph is summarized by a canonical
label; the label of the configuration that controls the pole region is
reported as "320".

Every line starts on the exact Stokes line at rho = min(0.2 scale, d/4)
from its turning point r, d the distance to the nearest other one: the
local action series

    S(eps) = sqrt(V'(r)) eps^(3/2) sum_k g_k eps^k / (k + 3/2),

with g_k the coefficients of sqrt(V(r + eps) / (V'(r) eps)), converges for
|eps| < d, and a Newton solve in the angle phi of eps = rho e^(i phi) puts
the start on Re S = 0.  From the start, a line follows the tangent
i conj(w) / |w|, w = sqrt(V), in arc length: w dlam = i |w| ds is
imaginary, so Re of the action stays constant up to the integrator's
tolerance, with no projection.  No hook runs: the tangent's stop source
takes w at the new point as the next branch reference, and tests the
termini below only past EARLY_FACTOR scale or inside a start circle.

A line ends at turning point p, its own or another, on the step that
crosses into p's start circle at a point on one of p's Stokes lines by p's
action series, |Re S_p| <= ACTION_TOL |S_p|, within pi/6 of p's local
direction; elsewhere it crosses the circle and goes on.  A saddle
connection is traced once: the line of its end point that leaves along the
arrival direction is the traced line's points, reversed.

An escaping line ends in gap j on the first step past EARLY_FACTOR scale
= 2 scale whose point lies within pi/10 of j's bisector (2j+1) pi/5 with
the tangent pointing outward; ESCAPE_FACTOR scale = 10 scale stays as a
backstop.  Beyond the roots the action is

    S = (4/5) lam^(5/2) (1 - (5a/4) lam^(-2) + O(lam^(-3))) + const,

with |a| = |sum r_i^2| <= 3 max|r|^2, and a line is a level curve of
Re S along which Im S grows: it turns towards a bisector, where
(4/5) lam^(5/2) is imaginary, by an angle that falls like (scale/|lam|)^2.
That bound alone does not put every line within pi/10 at 2 scale, so the
radius rests on a measured margin: on 695 potentials (the 19 pool
primitives with k = 0..4 and 600 draws with a in [-6, 6]^2, b in
[-2, 2]^2) the 5,875 escaping lines crossed 2 scale at most 7.41 degrees
from the bisector of the gap they reach at 10 scale, against the rule's
18, and no line that ends at a turning point reached 2 scale.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import complex_ode
from .elliptic import Potential, TurningPoints, turning_points
from .errors import OdeToleranceNotMet, StepUnderflow, TraceStalled, UnresolvedTopology

#: the backstop: a line that reaches ESCAPE_FACTOR scale ends in the gap
#: its point lies in
ESCAPE_FACTOR = 10.0
#: a line ends at EARLY_FACTOR scale or beyond on a step whose point lies
#: within pi/10 of a gap's bisector with the tangent pointing outward
EARLY_FACTOR = 2.0
#: saddle connections end within 5.9e-9 (95 pool potentials), every other
#: crossing of a start circle lies at 5.1e-4 or more (1,200 random ones)
ACTION_TOL = 1e-6
#: the one rule that reads the trace's accuracy is ACTION_TOL's test of
#: Re S at an arrival: a hundredth of it leaves that test its margin
TRACE_RTOL = ACTION_TOL / 100
#: a line starts at min(START_FACTOR scale, d / 4) from its turning point
START_FACTOR = 0.2
#: terms of the action series: at |eps| = d / 4 the terms past these move
#: S by at most 3e-16 of |S| (300 random potentials)
SERIES_TERMS = 24
START_MAX_ITER = 8
START_ANGLE_TOL = 1e-12

ASYMPTOTIC = "asymptotic"
TURNING_POINT = "turning_point"
STALLED = "stalled"


@dataclass(frozen=True)
class StokesLine:
    """One traced Stokes line.

    ``points`` are the start point, up to 0.2 scale from the origin turning
    point, and then every accepted step, the last of an escaping line
    usually the first past 2 scale; the line of a saddle connection's end
    point holds the traced line's points, reversed.  ``terminus_index``
    is a gap index k in Z5 for asymptotic termini (the line escapes between
    the recessive directions 2 pi k/5 and 2 pi (k+1)/5, i.e. along the
    bisector (2k+1) pi/5), or the index of the reached turning point for
    saddle connections.
    """

    origin: int
    points: tuple[complex, ...]
    terminus_kind: str
    terminus_index: int | None


@dataclass(frozen=True)
class StokesGraph:
    turning_points: TurningPoints
    lines: tuple[StokesLine, ...]


def _local_directions(pot: Potential, root: complex) -> list[float]:
    # not cmath.phase, which raises OverflowError where the angle underflows
    vp = pot.deriv(root)
    arg_vp = math.atan2(vp.imag, vp.real)
    return [((2 * j + 1) * math.pi - arg_vp) / 3.0 for j in range(3)]


def _gap_index(angle: float) -> int:
    j = int(math.floor((angle % (2.0 * math.pi)) / (2.0 * math.pi / 5.0))) % 5
    return j if j <= 2 else j - 5


#: The unit tangent i conj(w) / |w| of a Stokes line in arc length, with
#: w the value of sqrt(V(lam)) closer to ``ref``: V in
#: ``Potential.__call__``'s operation order over c2a = 2a and c28b = 28b,
#: and ``elliptic.branch_sqrt``'s sign rule.  The stop source makes the
#: FSAL stage's w, sqrt(V) at the accepted point, the next ``ref``, and
#: calls ``terminus`` only past ``early`` or inside a start circle.
_TANGENT = complex_ode.Rhs(
    ("c2a", "c28b", "ref", "sqrt", "points", "ends", "circles", "early",
     "escape", "terminus", "r0", "rho0", "r1", "rho1", "r2", "rho2"), """
    w = sqrt(4.0 * Y0 * Y0 * Y0 - c2a * Y0 - c28b)
    if abs(w - ref) > abs(w + ref):
        w = -w
    F = 1j * w.conjugate() / abs(w)
""", """
    ref = w
    points.append(Y0)
    STOP = False
    if (abs(Y0) >= early or abs(Y0 - r0) < rho0 or abs(Y0 - r1) < rho1
            or abs(Y0 - r2) < rho2):
        end = terminus(Y0, points[-2], ref, circles, early, escape)
        if end is not None:
            ends.append(end)
            STOP = True
""")


def _escaping_gap(lam: complex, w: complex, radius: float) -> int | None:
    """The gap j of ``lam`` when |lam| >= ``radius``, ``lam`` lies within
    pi/10 of j's bisector (2j+1) pi/5 and the tangent i conj(w) points
    outward, else None."""
    # Re(conj(lam) i conj(w)) = Im(lam w)
    if abs(lam) < radius or (lam * w).imag <= 0.0:
        return None
    angle = math.atan2(lam.imag, lam.real)
    j = _gap_index(angle)
    bisector = (2 * j + 1) * math.pi / 5.0
    turn = (angle - bisector + math.pi) % (2.0 * math.pi) - math.pi
    return j if abs(turn) <= math.pi / 10.0 else None


def _action_series(sqrt_vp: complex, coeffs: list, rho: float,
                   phi: float) -> tuple[complex, complex]:
    """(S, eps dS/deps) at eps = rho e^(i phi) from the local series.

    eps^(3/2) is rho^(3/2) e^(3 i phi / 2), continuous in phi: no branch
    cut.  Re S is stationary in phi where Im(eps dS/deps) = 0, since
    dS/dphi = i eps dS/deps.
    """
    eps = rho * cmath.exp(1j * phi)
    s = w = 0j
    for c, g in reversed(coeffs):
        s = s * eps + c
        w = w * eps + g
    lead = sqrt_vp * rho ** 1.5 * cmath.exp(1.5j * phi)
    return lead * s, lead * w


def _series(pot: Potential, root: complex) -> tuple[complex, list]:
    """(sqrt(V'(root)), coeffs): the action series' factor and the pairs
    (g_k / (k + 3/2), g_k), g_k the coefficients of sqrt(V(root + eps) /
    (V'(root) eps))."""
    vp = pot.deriv(root)
    # sqrt(1 + alpha eps + beta eps^2) = sqrt(V(root + eps) / (V' eps)):
    # h g' = h' g / 2 gives a three-term recurrence for its coefficients
    alpha, beta = 12.0 * root / vp, 4.0 / vp
    g = [1.0, 0.5 * alpha]
    for n in range(1, SERIES_TERMS - 1):
        g.append((alpha * (0.5 - n) * g[n] + beta * (2 - n) * g[n - 1])
                 / (n + 1))
    return cmath.sqrt(vp), [(c / (k + 1.5), c) for k, c in enumerate(g)]


def _series_start(series: tuple, root: complex, rho: float,
                  angle: float) -> tuple[complex, complex]:
    """(start, sqrt(V) there) on the Stokes line that leaves ``root`` along
    ``angle``, at distance ``rho``: a Newton solve of Re S(rho e^(i phi))
    = 0 from phi = angle, S from ``series``.  The sign of sqrt(V) makes
    Im S grow outward."""
    phi = angle
    for _ in range(START_MAX_ITER):
        s, w = _action_series(*series, rho, phi)
        if w.imag == 0.0:
            break
        step = s.real / w.imag
        phi += step
        if abs(step) <= START_ANGLE_TOL and abs(phi - angle) < math.pi / 6.0:
            eps = rho * cmath.exp(1j * phi)
            return root + eps, (w if s.imag > 0.0 else -w) / eps
    raise TraceStalled(f"series start of the stokes line from {root} along "
                       f"{angle:.6g} did not converge")


def _leaving_line(directions: list[float], offset: complex) -> int | None:
    """Index of the line, of the three that leave a turning point along
    ``directions``, whose direction lies within pi/6 of ``offset``'s."""
    angle = math.atan2(offset.imag, offset.real)
    for k, theta in enumerate(directions):
        turn = (angle - theta + math.pi) % (2.0 * math.pi) - math.pi
        if abs(turn) < math.pi / 6.0:
            return k
    return None


def _terminus(lam: complex, prev: complex, w: complex, circles: list,
              early_radius: float, escape_radius: float):
    """(kind, index) where a line reaches ``lam`` from ``prev``, sqrt(V) =
    ``w`` at ``lam``, and ends there by the rules of the module docstring,
    circles[p] = (root, rho, directions, series); None where it goes on."""
    if abs(lam) >= escape_radius:
        # atan2, where cmath.phase raises on an underflowing angle
        return ASYMPTOTIC, _gap_index(math.atan2(lam.imag, lam.real))
    gap = _escaping_gap(lam, w, early_radius)
    if gap is not None:
        return ASYMPTOTIC, gap
    for p, (root, rho, directions, series) in enumerate(circles):
        eps = lam - root
        if not abs(eps) < rho <= abs(prev - root):
            continue
        # |Re S| is the same on either branch of eps^(3/2)
        s, _ = _action_series(*series, abs(eps),
                              math.atan2(eps.imag, eps.real))
        if (abs(s.real) <= ACTION_TOL * abs(s)
                and _leaving_line(directions, eps) is not None):
            return TURNING_POINT, p
    return None


def _trace_single(pot: Potential, circles: list, origin: int,
                  start: complex, w_start: complex, early_radius: float,
                  escape_radius: float, rtol: float,
                  atol: float) -> StokesLine:
    """The line from ``start`` on, to its ``_terminus``; the branch
    reference starts as ``w_start``, since the sign rule depends on its
    phase only."""
    points = [start]
    ends = []
    disks = [x for root, rho, _, _ in circles for x in (root, rho)]
    max_arc = 40.0 * escape_radius
    try:
        complex_ode.integrate(_TANGENT, 0.0, max_arc, start, rtol=rtol,
                              atol=atol, max_steps=400_000,
                              args=(2.0 * pot.a, 28.0 * pot.b, w_start,
                                    cmath.sqrt, points, ends, circles,
                                    early_radius, escape_radius, _terminus,
                                    *disks))
    except StepUnderflow:
        raise TraceStalled(
            f"stokes trace from turning point {origin} stalled near {points[-1]}")
    except OdeToleranceNotMet:
        pass  # recorded as a stalled terminus below

    kind, index = ends[0] if ends else (STALLED, None)
    return StokesLine(origin=origin, points=tuple(points),
                      terminus_kind=kind, terminus_index=index)


def trace_stokes_lines(pot: Potential, rtol: float = TRACE_RTOL) -> StokesGraph:
    """The three Stokes lines from every turning point, each saddle
    connection traced once."""
    tp = turning_points(pot)
    escape_radius = ESCAPE_FACTOR * tp.scale
    # the error test is relative wherever |lam| >= 1e-2 min(1, max |root|):
    # a fixed absolute floor swamps the start circles of tiny roots
    atol = 1e-2 * rtol * min(1.0, max(map(abs, tp.roots)))
    # the tangent evaluates V in floats, where 4 lam^3 dominates out there
    if not math.isfinite(4.0 * escape_radius * escape_radius * escape_radius):
        raise TraceStalled(f"V overflows at the escape radius {escape_radius:.3g}")
    circles = [(root,
                min(START_FACTOR * tp.scale,
                    0.25 * min(abs(root - r) for r in tp.roots if r != root)),
                _local_directions(pot, root), _series(pot, root))
               for root in tp.roots]
    lines: list[StokesLine | None] = [None] * 9
    for i, (root, rho, directions, series) in enumerate(circles):
        for j, angle in enumerate(directions):
            if lines[3 * i + j] is not None:
                continue
            start, w_start = _series_start(series, root, rho, angle)
            line = _trace_single(pot, circles, i, start, w_start,
                                 EARLY_FACTOR * tp.scale, escape_radius,
                                 rtol, atol)
            lines[3 * i + j] = line
            p = line.terminus_index
            if line.terminus_kind != TURNING_POINT or p == i:
                continue
            # the line of p that leaves along the arrival direction is this
            # one reversed, traced or not
            end_root, _, end_directions, _ = circles[p]
            k = _leaving_line(end_directions, line.points[-1] - end_root)
            lines[3 * p + k] = StokesLine(p, line.points[::-1],
                                          TURNING_POINT, i)
    return StokesGraph(turning_points=tp, lines=tuple(lines))


# ---------------------------------------------------------------------------
# classification

#: Canonical signature of the graph that controls the pole region: the inner
#: point connects to both outer points and sends its free line into one gap;
#: each outer point keeps the remaining two adjacent gaps.
_SIGNATURE_320 = "g0,tA,tB;g3,g4,tI;g1,g2,tI"


def _transform_gap(j: int, rotation: int, reflect: bool) -> int:
    if reflect:
        j = (-1 - j) % 5
    return (j - rotation) % 5


def canonical_label(g: StokesGraph) -> str:
    """Rotation/reflection-invariant label of the incidence structure."""
    termini: dict[int, list] = {0: [], 1: [], 2: []}
    for line in g.lines:
        if line.terminus_kind == STALLED:
            raise UnresolvedTopology(
                f"line from turning point {line.origin} ended by step limit")
        if line.terminus_kind == ASYMPTOTIC:
            termini[line.origin].append(("gap", line.terminus_index % 5))
        else:
            termini[line.origin].append(("tp", line.terminus_index))

    candidates = []
    for reflect in (False, True):
        # the roles of turning points 0, 1, 2: a reflection swaps A and B
        roles = "IBA" if reflect else "IAB"
        for rotation in range(5):
            sigs = {}
            for vertex in range(3):
                tokens = [f"g{_transform_gap(value, rotation, reflect)}"
                          if kind == "gap" else f"t{roles[value]}"
                          for kind, value in termini[vertex]]
                sigs[roles[vertex]] = ",".join(sorted(tokens))
            candidates.append(";".join(sigs[r] for r in "IAB"))
    return min(candidates)


def classify_graph(g: StokesGraph) -> str:
    """Return "320" for the pole-region incidence structure, else the
    canonical label itself."""
    label = canonical_label(g)
    return "320" if label == _SIGNATURE_320 else label


def polylines(g: StokesGraph) -> list[list[list[float]]]:
    """Polylines as [re, im] pair lists, ready for JSON export."""
    return [[[z.real, z.imag] for z in line.points] for line in g.lines]
