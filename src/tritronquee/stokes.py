"""Stokes lines of the quadratic differential V(lam) dlam^2 and their graph.

From every simple turning point three lines leave along directions that keep
the action integral of sqrt(V) purely imaginary.  Lines either escape to
infinity (they asymptote to the bisectors between the five recessive
directions ``2 pi k / 5``) or hit another turning point (a saddle
connection).  The resulting embedded graph is summarized by a canonical
label; the label of the configuration that controls the pole region is
reported as "320".

A line follows the tangent i conj(w) / |w|, w = sqrt(V), in arc length:
w dlam = i |w| ds is imaginary, so Re of the action stays constant up to
the integrator's tolerance, with no projection.  The hook after each step
only reads: the tangent's FSAL stage left w at the new point, the next
branch reference.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import complex_ode
from .elliptic import Potential, TurningPoints, turning_points
from .errors import OdeToleranceNotMet, StepUnderflow, TraceStalled, UnresolvedTopology

ESCAPE_FACTOR = 10.0
MERGE_FACTOR = 1e-4
TRACE_RTOL = 1e-9

ASYMPTOTIC = "asymptotic"
TURNING_POINT = "turning_point"
STALLED = "stalled"


@dataclass(frozen=True)
class StokesLine:
    """One traced Stokes line.

    ``points`` are the start point near the origin turning point and then
    every accepted step.  ``terminus_index`` is a gap index k in Z5 for asymptotic termini (the
    line escapes between the recessive directions 2 pi k/5 and
    2 pi (k+1)/5, i.e. along the bisector (2k+1) pi/5), or the index of the
    reached turning point for saddle connections.
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
#: w the value of sqrt(V(lam)) closer to near[0]: V in
#: ``Potential.__call__``'s operation order over c2a = 2a and c28b = 28b,
#: and ``elliptic.branch_sqrt``'s sign rule.  Each stage stores its w in
#: near[1]; the last stage before an accepted step's hook is the FSAL stage
#: at the new point, so there near[1] is sqrt(V) at that point.
_TANGENT = complex_ode.Rhs(("c2a", "c28b", "near", "sqrt"), """
    w = sqrt(4.0 * Y0 * Y0 * Y0 - c2a * Y0 - c28b)
    ref = near[0]
    if abs(w - ref) > abs(w + ref):
        w = -w
    near[1] = w
    F = 1j * w.conjugate() / abs(w)
""")


def _trace_single(pot: Potential, tp: TurningPoints, origin: int, angle: float,
                  escape_radius: float, tol_merge: float,
                  rtol: float) -> StokesLine:
    root = tp.roots[origin]
    start = root + tol_merge * cmath.exp(1j * angle)
    others = [(j, tp.roots[j]) for j in range(3) if j != origin]

    # near[0], the branch reference, starts as i e^(-i angle): the sign
    # rule depends on its phase only, and picks the root whose tangent
    # points along e^(i angle), ``elliptic.facing_sqrt``'s.
    near = [1j * cmath.exp(-1j * angle), None]
    points = [start]
    terminus = (STALLED, None)
    left_origin = False

    def on_accept(t, lam):
        nonlocal terminus, left_origin
        near[0] = near[1]
        points.append(lam)
        if abs(lam) >= escape_radius:
            # atan2, where cmath.phase raises on an underflowing angle
            terminus = (ASYMPTOTIC, _gap_index(math.atan2(lam.imag, lam.real)))
            return complex_ode.STOP
        dist_origin = abs(lam - root)
        if not left_origin and dist_origin > 3.0 * tol_merge:
            left_origin = True
        if left_origin and dist_origin < tol_merge:
            terminus = (TURNING_POINT, origin)
            return complex_ode.STOP
        for j, other in others:
            if abs(lam - other) < tol_merge:
                terminus = (TURNING_POINT, j)
                return complex_ode.STOP
        return complex_ode.CONTINUE

    max_arc = 40.0 * escape_radius
    try:
        complex_ode.integrate(_TANGENT, 0.0, max_arc, start, rtol=rtol,
                              atol=rtol * 1e-2, on_accept=on_accept,
                              max_steps=400_000,
                              args=(2.0 * pot.a, 28.0 * pot.b, near,
                                    cmath.sqrt))
    except StepUnderflow:
        raise TraceStalled(
            f"stokes trace from turning point {origin} stalled near {points[-1]}")
    except OdeToleranceNotMet:
        pass  # recorded as a stalled terminus below

    kind, index = terminus
    return StokesLine(origin=origin, points=tuple(points),
                      terminus_kind=kind, terminus_index=index)


def trace_stokes_lines(pot: Potential, rtol: float = TRACE_RTOL) -> StokesGraph:
    """Trace the three Stokes lines from every turning point."""
    tp = turning_points(pot)
    escape_radius = ESCAPE_FACTOR * tp.scale
    tol_merge = MERGE_FACTOR * escape_radius
    lines = []
    for i in range(3):
        for angle in _local_directions(pot, tp.roots[i]):
            lines.append(_trace_single(pot, tp, i, angle, escape_radius,
                                       tol_merge, rtol))
    return StokesGraph(turning_points=tp, lines=tuple(lines))


# ---------------------------------------------------------------------------
# classification

#: Canonical signature of the graph that controls the pole region: the inner
#: point connects to both outer points and sends its free line into one gap;
#: each outer point keeps the remaining two adjacent gaps.
_SIGNATURE_320 = "g0,tA,tB;g3,g4,tI;g1,g2,tI"


def _vertex_role(idx: int) -> str:
    return ("I", "A", "B")[idx]


def _transform_gap(j: int, rotation: int, reflect: bool) -> int:
    if reflect:
        j = (-1 - j) % 5
    return (j - rotation) % 5


def _transform_role(role: str, reflect: bool) -> str:
    if reflect and role in ("A", "B"):
        return "B" if role == "A" else "A"
    return role


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
        for rotation in range(5):
            sigs = {}
            for vertex in range(3):
                tokens = []
                for kind, value in termini[vertex]:
                    if kind == "gap":
                        tokens.append(f"g{_transform_gap(value, rotation, reflect)}")
                    else:
                        tokens.append(f"t{_transform_role(_vertex_role(value), reflect)}")
                sigs[_vertex_role(vertex)] = ",".join(sorted(tokens))
            order = ["I", "A", "B"]
            if reflect:
                order = ["I", "B", "A"]
            candidates.append(";".join(sigs[r] for r in order))
    return min(candidates)


def classify_graph(g: StokesGraph) -> str:
    """Return "320" for the pole-region incidence structure, else the
    canonical label itself."""
    label = canonical_label(g)
    return "320" if label == _SIGNATURE_320 else label


def polylines(g: StokesGraph) -> list[list[list[float]]]:
    """Polylines as [re, im] pair lists, ready for JSON export."""
    return [[[z.real, z.imag] for z in line.points] for line in g.lines]
