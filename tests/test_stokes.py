import cmath
import hashlib
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpmath import mp
from mpmath.calculus.quadrature import GaussLegendre

from tritronquee import complex_ode, elliptic, stokes
from tritronquee.bsb import descendant, solve_period_targets
from tritronquee.elliptic import PeriodData, Potential, turning_points
from tritronquee.errors import (DegenerateTurningPoints, NumericalError,
                                TraceStalled)
from tritronquee.stokes import (ASYMPTOTIC, TURNING_POINT, classify_graph,
                                polylines, trace_stokes_lines)

from oracles import (closure_trace_stokes_lines, polyline_action_drift,
                     scaled_point)

#: labels recorded from the oracle runs of the tracer
LABEL_10_0 = "g0,g2,tA;g3,g4,tI;g0,g1,g2"
LABEL_SYMMETRIC = "g0,g1,g2;g0,g2,g4;g2,g3,g4"


@pytest.fixture(scope="module")
def pool_potentials(coprime_primitives):
    """The 19 pool primitives and their k = 1, 2, 4 descendants."""
    return [Potential(seed.point.a, seed.point.b)
            for sol in coprime_primitives.values()
            for seed in (descendant(sol, k) for k in (0, 1, 2, 4))]


def _termini(graph):
    return [(ln.origin, ln.terminus_kind, ln.terminus_index)
            for ln in graph.lines]


def _coalescing(b, branch, rel):
    """a with a^3 = 2646 b^2 (1 + rel)^3, where two turning points meet
    at rel = 0."""
    cube_root = (2646.0 * b * b) ** (1.0 / 3.0)
    return cube_root * cmath.exp(2j * math.pi * branch / 3.0) * (1.0 + rel), b


def _start_radius(tp, i):
    """rho_i = min(START_FACTOR scale, d_i / 4): where the lines of turning
    point i start, and the circle inside which lines end at i."""
    root = tp.roots[i]
    return min(stokes.START_FACTOR * tp.scale,
               0.25 * min(abs(root - r) for r in tp.roots if r != root))


def _assert_two_sided(graph, reused=False):
    """Every saddle connection i -> p has its partner p -> i; with
    ``reused``, one whose points are the same polyline reversed."""
    for ln in graph.lines:
        p = ln.terminus_index
        if ln.terminus_kind != TURNING_POINT or p == ln.origin:
            continue
        partners = [other for other in graph.lines
                    if other.origin == p
                    and other.terminus_kind == TURNING_POINT
                    and other.terminus_index == ln.origin]
        assert partners, (f"{ln.origin} -> {p} has no partner: "
                          f"{classify_graph(graph)}")
        assert not reused or any(other.points == ln.points[::-1]
                                 for other in partners)


#: three real turning points whose segment from I to B is a Stokes line;
#: tracing it from both ends once let B's line step over I's merge disc
ONE_SIDED_AT_BOTH_ENDS = [(35.91858665905268, 4.070353249139318),
                          (0.9916657035896067, 0.018672444728221736)]


@pytest.mark.parametrize("a, b", ONE_SIDED_AT_BOTH_ENDS)
def test_real_saddle_connection_is_two_sided(a, b):
    graph = trace_stokes_lines(Potential(a, b))
    _assert_two_sided(graph, reused=True)
    assert classify_graph(graph) == LABEL_10_0


def test_saddle_connections_are_traced_once(pool_potentials):
    """Each saddle connection is one traced polyline, stored reversed at its
    other end."""
    for pot in pool_potentials:
        _assert_two_sided(trace_stokes_lines(pot), reused=True)


def _series_start_action(pot, root, start, nodes):
    """S(root -> start) by 30-digit Gauss-Legendre on the chord, written as
    int_0^1 sqrt(V'(r) eps) u sqrt(h(u^2 eps)) 2 u eps du with
    V(r + x) = V'(r) x h(x).  The substitution x = u^2 eps removes the
    square root at the turning point.  The other roots lie at |u| >= 2, so
    the integrand is analytic inside the Bernstein ellipse of [0, 1] through
    u = 2, and 24 nodes leave an error near 2.6^-48; the principal
    sqrt(h) is continuous on the chord, where h's two factors stay within
    1/4 of 1."""
    with mp.workdps(30):
        r = mp.mpc(root)
        eps = mp.mpc(start) - r
        vp = 12 * r * r - 2 * mp.mpc(pot.a)
        total = 0
        for u, weight in nodes:
            x = u * u * eps
            h = 1 + (12 * r / vp) * x + (4 / vp) * x * x
            total += weight * u * u * mp.sqrt(h)
        return complex(2 * eps * mp.sqrt(vp * eps) * total)


def test_series_starts_lie_on_their_lines(pool_potentials):
    """Every line that is traced starts on Re S = 0, with S the action from
    its turning point, to 1e-12 of |S|."""
    with mp.workdps(30):
        nodes = GaussLegendre(mp).get_nodes(0, 1, 4, mp.prec)
    checked = 0
    for pot in pool_potentials:
        graph = trace_stokes_lines(pot)
        tp = graph.turning_points
        for ln in graph.lines:
            root = tp.roots[ln.origin]
            start = ln.points[0]
            rho = _start_radius(tp, ln.origin)
            if abs(abs(start - root) - rho) > 1e-12 * rho:
                continue  # the reversed end of a saddle connection
            s = _series_start_action(pot, root, start, nodes)
            assert abs(s.real) <= 1e-12 * max(1.0, abs(s))
            checked += 1
    # seven traced lines per "320" graph
    assert checked == 7 * len(pool_potentials)


def test_saddle_connections_end_inside_the_start_circle(pool_potentials):
    """A saddle connection i -> p ends on the step that crosses into p's
    start circle: between rho_p / 2 and rho_p from p, and its reversed
    partner at p starts there."""
    ends = 0
    for pot in pool_potentials:
        graph = trace_stokes_lines(pot)
        tp = graph.turning_points
        for ln in graph.lines:
            p = ln.terminus_index
            if ln.terminus_kind != TURNING_POINT or p == ln.origin:
                continue
            rho = _start_radius(tp, p)
            dist = abs(ln.points[-1] - tp.roots[p])
            assert 0.5 * rho <= dist <= (1.0 + 1e-12) * rho
            ends += 1
    # two saddle connections per "320" graph, stored at both ends
    assert ends == 4 * len(pool_potentials)


def test_anchor_traces_each_saddle_connection_once(anchor, monkeypatch):
    """The two saddle connections of a "320" graph are integrated from one
    end: 7 integrations for 9 lines."""
    calls = []
    integrate = complex_ode.integrate

    def counting(*args, **kwargs):
        calls.append(1)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(complex_ode, "integrate", counting)
    graph = trace_stokes_lines(Potential(anchor.point.a, anchor.point.b))
    assert classify_graph(graph) == "320"
    assert len(calls) == 7


def test_coalescing_roots_start_on_their_series():
    """Where d / 4 is far below 0.1 scale, the lines of the close pair
    still start on their action series at rho = d / 4, and every saddle
    connection is stored at both ends."""
    pot = Potential(*_coalescing(1.0, 1, 1e-5))
    graph = trace_stokes_lines(pot)
    tp = graph.turning_points
    assert tp.min_separation < 4e-3 * tp.scale
    with mp.workdps(30):
        nodes = GaussLegendre(mp).get_nodes(0, 1, 4, mp.prec)
    for ln in graph.lines:
        root = tp.roots[ln.origin]
        rho = _start_radius(tp, ln.origin)
        if abs(abs(ln.points[0] - root) - rho) <= 1e-12 * rho:
            s = _series_start_action(pot, root, ln.points[0], nodes)
            assert abs(s.real) <= 1e-12 * max(1.0, abs(s))
        else:
            # the far end of a saddle connection, traced from its start
            assert ln.terminus_kind == TURNING_POINT
    _assert_two_sided(graph, reused=True)


def _chord_action(tp, i, j):
    """S from turning point i to j along their chord, by 30-digit
    quadrature.  On lam = c + h cos(theta),

        sqrt(V) dlam = -2i h^2 sqrt(c - r) sin^2(theta)
                       sqrt(1 + rho cos(theta)) dtheta,

    up to sign, with r the third root and rho = h / (c - r); for a close
    pair |rho| < 1, so the principal sqrt(1 + rho cos(theta)) is continuous
    and the integrand analytic on [0, pi]."""
    k = 3 - i - j
    with mp.workdps(30):
        ri, rj, r = (mp.mpc(tp.roots[n]) for n in (i, j, k))
        c, h = (ri + rj) / 2, (rj - ri) / 2
        rho = h / (c - r)
        integral = mp.quad(lambda t: mp.sin(t) ** 2
                           * mp.sqrt(1 + rho * mp.cos(t)), [0, mp.pi])
        return complex(-2j * h * h * mp.sqrt(c - r) * integral)


#: ``_coalescing`` draws (b, branch, rel).  The frozen tracer, whose lines
#: start at the merge distance and end on entering a merge disc where two
#: roots lie within 4 merge distances, joined the close pair of the first
#: four, where |Re S| / |S| is 0.89, 0.34, 0.13 and 0.15.  The last two
#: are real: S between the close pair is real at b = 1, and imaginary at
#: b = -1, where the segment joining the pair is a saddle connection.
_CLOSE_PAIRS = [(-3.9952771024931364 - 0.23383413171085365j, 1,
                 3.9091204088852177e-07),
                (0.3859445343375896 + 3.8773282872447155j, 0,
                 1.001100306072133e-05),
                (-0.4407103695625114 + 0.865183268255314j, 1,
                 7.890493287049028e-06),
                (2.8736791329964166 - 1.403264851742152j, 2,
                 1.3657752020599379e-08),
                (1.0, 0, 1e-5),
                (-1.0, 0, 1e-5)]


#: a generic potential whose close pair, 4.1e-3 apart, has
#: |Re S| / |S| = 5.6e-4 on its chord: near a saddle connection, not on one
NEAR_SADDLE_CONNECTION = Potential(
    5.18771707360357 + 15.941948575565197j,
    -0.41151731047611584 + 1.2694098066033943j)


@pytest.mark.parametrize("pot", [
    Potential(24.29079773839398 - 15.99024831665592j,
              1.9583286676844347 - 2.336694395427404j),
    *(Potential(*_coalescing(*draw)) for draw in _CLOSE_PAIRS),
    NEAR_SADDLE_CONNECTION])
def test_close_pair_joined_only_by_a_saddle_connection(pot):
    """A saddle connection between the close pair lies on Re S = 0, S the
    action between the two roots: the graph joins the pair only where a
    30-digit quadrature gives |Re S| <= 1e-6 |S|, and does join it where
    Re S vanishes.  The first potential is a generic one whose pair the
    frozen tracer joined at |Re S| / |S| = 0.75."""
    graph = trace_stokes_lines(pot)
    classify_graph(graph)
    tp = graph.turning_points
    i, j = min(((0, 1), (0, 2), (1, 2)),
               key=lambda ij: abs(tp.roots[ij[0]] - tp.roots[ij[1]]))
    joined = any(ln.terminus_kind == TURNING_POINT
                 and {ln.origin, ln.terminus_index} == {i, j}
                 for ln in graph.lines)
    s = _chord_action(tp, i, j)
    assert not joined or abs(s.real) <= 1e-6 * abs(s)
    assert joined or abs(s.real) > 1e-20 * abs(s)


def test_near_saddle_connection_is_not_joined():
    """A line that comes close to the other root of the pair crosses its
    start circle off that root's Stokes lines and escapes: the end is
    decided by the action, not by the distance."""
    graph = trace_stokes_lines(NEAR_SADDLE_CONNECTION)
    tp = graph.turning_points
    s = _chord_action(tp, 0, 2)
    assert abs(tp.roots[0] - tp.roots[2]) < 1e-3 * tp.scale
    assert 1e-4 < abs(s.real) / abs(s) < 1e-3
    assert all(ln.terminus_kind == ASYMPTOTIC for ln in graph.lines)


def test_label_invariant_under_rescaling_at_a_zero():
    """At a = 0, b -> x^3 b is the rescaling lam -> x lam: one label for
    every |b|, also where the roots are far smaller than 1e-3 scale
    (scale = 1 + max |r|), and below the 1e-6 that once made them
    degenerate."""
    labels = {classify_graph(trace_stokes_lines(Potential(0.0, b)))
              for b in (1e-30j, 1e-20j, 1e-12j, 1e-6j, 1e-3j)}
    assert len(labels) == 1


def _root_one_radian_away():
    """A series whose Newton solve converges 1 rad from the first angle it
    is asked at: onto another line's start, not the requested one."""
    first = []

    def series(sqrt_vp, g, rho, phi):
        first.append(phi)
        return complex(phi - first[0] - 1.0), -1j

    return series


def _constant(s, w):
    """A factory of a series that returns (S, eps dS/deps) = (s, w) at
    every angle."""
    return lambda: lambda *args: (s, w)


@pytest.mark.parametrize("make_series", [
    _constant(1.0 + 1.0j, 2.0 + 0.0j),       # d Re S / d phi = 0
    _constant(1.0 + 1.0j, 1e-3j),            # steps of 1000 rad
    _constant(complex(math.nan, 0.0), 1j),
    _root_one_radian_away,
])
def test_series_start_failure_is_a_stalled_trace(anchor, monkeypatch,
                                                 make_series):
    monkeypatch.setattr(stokes, "_action_series", make_series())
    with pytest.raises(TraceStalled):
        trace_stokes_lines(Potential(anchor.point.a, anchor.point.b))


def test_termini_match_the_frozen_tracer(pool_potentials):
    """Without the frozen tracer's drift projection every line still ends
    where that tracer's does: same kind, same gap or turning point."""
    for pot in pool_potentials:
        got = _termini(trace_stokes_lines(pot))
        assert len(got) == 9
        assert got == _termini(closure_trace_stokes_lines(pot))


def _outward(lam):
    """A w whose tangent i conj(w) / |w| points straight out at lam."""
    return 1j / lam


@pytest.mark.parametrize("j", range(5))
def test_escaping_gap_on_a_bisector(j):
    """On gap j's bisector past the radius, a line that heads out ends in
    gap j; one that heads in, or lies inside the radius, goes on."""
    lam = 2.5 * cmath.exp(1j * (2 * j + 1) * math.pi / 5.0)
    assert stokes._escaping_gap(lam, _outward(lam), 2.0) % 5 == j
    assert stokes._escaping_gap(lam, -_outward(lam), 2.0) is None
    assert stokes._escaping_gap(lam, _outward(lam), 3.0) is None
    # a tangent along the circle points neither out nor in
    assert stokes._escaping_gap(lam, lam.conjugate(), 2.0) is None


@pytest.mark.parametrize("j", range(5))
def test_escaping_gap_off_every_bisector(j):
    """A point past the radius more than pi/10 from every bisector is not
    ended, however its tangent points; within pi/10 it is."""
    bisector = (2 * j + 1) * math.pi / 5.0
    for turn in (0.101 * math.pi, -0.101 * math.pi, math.pi / 5.0):
        lam = 3.0 * cmath.exp(1j * (bisector + turn))
        assert stokes._escaping_gap(lam, _outward(lam), 2.0) is None
    for turn in (0.099 * math.pi, -0.099 * math.pi):
        lam = 3.0 * cmath.exp(1j * (bisector + turn))
        assert stokes._escaping_gap(lam, _outward(lam), 2.0) % 5 == j


def test_trace_evaluates_sqrt_v_only_in_its_kernel(anchor, monkeypatch):
    """The stop source takes sqrt(V) at each new point from the FSAL stage
    of the generated tangent: a trace evaluates V nowhere else."""
    def forbidden(*args):
        raise AssertionError("sqrt(V) evaluated outside the kernel")

    monkeypatch.setattr(elliptic, "branch_sqrt", forbidden)
    monkeypatch.setattr(Potential, "__call__", forbidden)
    pot = Potential(anchor.point.a, anchor.point.b)
    assert classify_graph(trace_stokes_lines(pot)) == "320"


def test_terminus_rules_run_only_where_a_line_can_end(anchor, monkeypatch):
    """Each tangent run carries its stop test in the kernel, with no hook,
    and the terminus rules run only on the steps that pass its pre-test,
    past the early radius or inside a start circle: fewer than a fifth of
    the accepted steps of a "320" graph."""
    integrate, terminus = complex_ode.integrate, stokes._terminus
    signature = inspect.signature(integrate)
    steps, ends = [], []

    def spy_integrate(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        assert bound.arguments["g"] is stokes._TANGENT
        assert bound.arguments["on_accept"] is None
        res = integrate(*args, **kwargs)
        steps.append(res.n_steps)
        return res

    def spy_terminus(*args):
        ends.append(args)
        return terminus(*args)

    monkeypatch.setattr(complex_ode, "integrate", spy_integrate)
    monkeypatch.setattr(stokes, "_terminus", spy_terminus)
    graph = trace_stokes_lines(Potential(anchor.point.a, anchor.point.b))
    assert classify_graph(graph) == "320"
    assert len(steps) == 7
    assert 5 * len(ends) < sum(steps)


#: sha256 of ``_fingerprint`` for the (1, 1) and (4, 5) points of the
#: straight-line homotopy, from the tracer whose hook ran after every step,
#: at rtol 1e-9 and START_FACTOR 0.1 (CPython 3.11, glibc 2.36)
GRAPH_FINGERPRINTS = [
    ((-2.3475919931566716+0j), (-0.06399774265973303+0j),
     "b7358ad22ad3853d5c477ee00b763506049703f07af6352b4786c8f9fb702361"),
    ((-12.383902701795549-1.0132306419878134j),
     (-0.7771452488534297+0.0859007308668312j),
     "7a15d754ce406c0ed0410867cb30797e2171f0323b79a25d7b4cbe7bfdfa51a8"),
]


def _fingerprint(graph):
    """Every line's origin and terminus and the bits of its points."""
    rows = [(ln.origin, ln.terminus_kind, ln.terminus_index,
             [(z.real.hex(), z.imag.hex()) for z in ln.points])
            for ln in graph.lines]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.mark.parametrize("a, b, digest", GRAPH_FINGERPRINTS)
def test_graph_bits_match_the_hook_tracer(a, b, digest, monkeypatch):
    monkeypatch.setattr(stokes, "START_FACTOR", 0.1)
    graph = trace_stokes_lines(Potential(a, b), rtol=1e-9)
    assert _fingerprint(graph) == digest


def test_trace_tolerance_leaves_the_arrival_test_its_margin(
        coprime_primitives):
    """On the 19 pool primitives with k = 0..4 the labels at TRACE_RTOL are
    those at rtol 1e-10, and every saddle connection arrives with |Re S_p|
    at most ACTION_TOL / 50 of |S_p|, S_p the action from the turning
    point it reaches: a fiftieth of the terminus rule's tolerance."""
    arrivals = 0
    for sol in coprime_primitives.values():
        for k in range(5):
            point = descendant(sol, k).point
            pot = Potential(point.a, point.b)
            graph = trace_stokes_lines(pot)
            assert (classify_graph(graph)
                    == classify_graph(trace_stokes_lines(pot, rtol=1e-10)))
            roots = graph.turning_points.roots
            for ln in graph.lines:
                p = ln.terminus_index
                if ln.terminus_kind != TURNING_POINT or p == ln.origin:
                    continue
                eps = ln.points[-1] - roots[p]
                s, _ = stokes._action_series(
                    *stokes._series(pot, roots[p]), abs(eps),
                    math.atan2(eps.imag, eps.real))
                assert abs(s.real) <= stokes.ACTION_TOL / 50 * abs(s)
                arrivals += 1
    # two saddle connections per "320" graph, stored at both ends
    assert arrivals == 4 * 95


def test_overflowing_potential_is_a_stalled_trace():
    """Where V overflows in floats at the escape radius, the trace fails up
    front and says so, not as a stall or a failed series start."""
    assert classify_graph(trace_stokes_lines(Potential(1e200, 0.0))) == LABEL_10_0
    for a in (1e220, 1e250):
        with pytest.raises(TraceStalled, match="overflows"):
            trace_stokes_lines(Potential(a, 0.0))


def test_degenerate_raises():
    with pytest.raises(DegenerateTurningPoints):
        trace_stokes_lines(Potential(0.0, 0.0))


def test_three_lines_per_turning_point(anchor):
    g = trace_stokes_lines(Potential(anchor.point.a, anchor.point.b))
    for i in range(3):
        assert sum(1 for ln in g.lines if ln.origin == i) == 3


def test_reference_point_is_320(anchor):
    g = trace_stokes_lines(Potential(anchor.point.a, anchor.point.b))
    assert classify_graph(g) == "320"
    # all five asymptotic gaps are used exactly once
    gaps = sorted(ln.terminus_index % 5 for ln in g.lines
                  if ln.terminus_kind == ASYMPTOTIC)
    assert gaps == [0, 1, 2, 3, 4]
    # the inner point connects to both outer points
    internal = [(ln.origin, ln.terminus_index) for ln in g.lines
                if ln.terminus_kind == TURNING_POINT]
    assert (0, 1) in internal and (0, 2) in internal
    assert (1, 0) in internal and (2, 0) in internal


def test_asymptotic_termini_near_gap_bisectors(pool_potentials):
    """On the pool every escaping line ends by its direction: past
    EARLY_FACTOR scale, inside the escape radius, within pi/10 of its
    gap's bisector."""
    for pot in pool_potentials:
        g = trace_stokes_lines(pot)
        scale = g.turning_points.scale
        for ln in g.lines:
            if ln.terminus_kind != ASYMPTOTIC:
                continue
            end = ln.points[-1]
            assert (stokes.EARLY_FACTOR * scale <= abs(end)
                    < stokes.ESCAPE_FACTOR * scale)
            bisector = (2 * ln.terminus_index + 1) * math.pi / 5.0
            diff = abs((cmath.phase(end) - bisector + math.pi)
                       % (2 * math.pi) - math.pi)
            assert diff <= math.pi / 10.0


def test_incremental_action_oracle(pool_potentials):
    """The tangent i conj(w) / |w| keeps Re int sqrt(V) dlam constant up to
    the integrator's tolerance, with no projection back onto the level
    set: measured independently along each polyline."""
    for pot in pool_potentials:
        for ln in trace_stokes_lines(pot).lines:
            drift, weight = polyline_action_drift(pot, ln.points)
            assert drift < 1e-8 * max(1.0, weight)


def test_symmetric_point_graph():
    """At (0, 1/7) all nine lines escape; the graph is symmetric under
    conjugation (gap j -> -1-j mod 5 maps the signature multiset to itself).
    """
    pot = Potential(0.0, 1.0 / 7.0)
    g = trace_stokes_lines(pot)
    assert classify_graph(g) == LABEL_SYMMETRIC
    assert all(ln.terminus_kind == ASYMPTOTIC for ln in g.lines)
    # turning points form one orbit of the rotation by 2 pi / 3
    tp = turning_points(pot)
    rotated = {complex(r * cmath.exp(2j * math.pi / 3)) for r in tp.roots}
    for r in rotated:
        assert min(abs(r - s) for s in tp.roots) < 1e-9
    sigs = []
    for i in range(3):
        sigs.append(frozenset(ln.terminus_index % 5 for ln in g.lines
                              if ln.origin == i))
    reflected = [frozenset((-1 - j) % 5 for j in sig) for sig in sigs]
    assert sorted(map(sorted, reflected)) == sorted(map(sorted, sigs))


def test_label_scaling_invariance(anchor):
    rng = np.random.default_rng(5)
    base_points = [anchor.point]
    for _ in range(49):
        s, t = rng.uniform(2.2, 4.8, 2)
        point, _ = solve_period_targets([(1j * s, 1j * t)], anchor.point)
        base_points.append(point)
    for point in base_points:
        label = classify_graph(trace_stokes_lines(Potential(point.a, point.b)))
        assert label == "320"
        # at x = 1e-10 the roots lie near 1e-10
        for x in (0.5, 2.0, 3.0, 1e-10):
            scaled = scaled_point(point, x)
            g = trace_stokes_lines(Potential(scaled.a, scaled.b))
            assert classify_graph(g) == label


def test_non_320_labels():
    assert classify_graph(trace_stokes_lines(Potential(10.0, 0.0))) == LABEL_10_0
    off = classify_graph(trace_stokes_lines(Potential(-2.24759199, -0.064)))
    assert off != "320"


def test_label_stable_under_step_refinement(anchor):
    pot = Potential(anchor.point.a, anchor.point.b)
    a = classify_graph(trace_stokes_lines(pot, rtol=1e-9))
    b = classify_graph(trace_stokes_lines(pot, rtol=3e-11))
    assert a == b == "320"
    pot2 = Potential(10.0, 0.0)
    assert (classify_graph(trace_stokes_lines(pot2, rtol=1e-9))
            == classify_graph(trace_stokes_lines(pot2, rtol=3e-11)))


def _count_crossings(pA, pB, exclude_near, radius):
    """Transversal chord intersections between two polylines, skipping
    segments whose endpoints lie near the given exclusion centers."""
    a1, a2 = pA[:-1], pA[1:]
    b1, b2 = pB[:-1], pB[1:]

    def keep(p, q):
        mask = np.ones(len(p), dtype=bool)
        for c in exclude_near:
            mask &= (np.abs(p - c) > radius) & (np.abs(q - c) > radius)
        return mask
    ka = keep(a1, a2)
    kb = keep(b1, b2)
    a1, a2 = a1[ka], a2[ka]
    b1, b2 = b1[kb], b2[kb]
    if len(a1) == 0 or len(b1) == 0:
        return 0
    d1 = (a2 - a1)[:, None]
    d2 = (b2 - b1)[None, :]
    dp = b1[None, :] - a1[:, None]
    denom = d1.real * d2.imag - d1.imag * d2.real
    denom = np.where(np.abs(denom) < 1e-14, np.nan, denom)
    t = (dp.real * d2.imag - dp.imag * d2.real) / denom
    u = (dp.real * d1.imag - dp.imag * d1.real) / denom
    hits = (t > 1e-9) & (t < 1 - 1e-9) & (u > 1e-9) & (u < 1 - 1e-9)
    return int(np.count_nonzero(hits))


def test_graph_is_embedded(anchor):
    g = trace_stokes_lines(Potential(anchor.point.a, anchor.point.b))
    # chords within 3e-3 scale of a turning point are not compared
    near_root = 3e-3 * g.turning_points.scale
    roots = list(g.turning_points.roots)
    for i in range(len(g.lines)):
        for j in range(i + 1, len(g.lines)):
            li, lj = g.lines[i], g.lines[j]
            # a saddle connection is one edge, stored at both ends as the
            # same polyline reversed: not a crossing
            if (li.terminus_kind == TURNING_POINT
                    and lj.terminus_kind == TURNING_POINT
                    and li.terminus_index == lj.origin
                    and lj.terminus_index == li.origin):
                continue
            n = _count_crossings(np.asarray(li.points), np.asarray(lj.points),
                                 roots, near_root)
            assert n == 0, f"lines {i} and {j} cross {n} times"


def test_stalled_line_unresolvable(anchor):
    from tritronquee.errors import UnresolvedTopology
    from tritronquee.stokes import STALLED, StokesGraph, StokesLine
    g = trace_stokes_lines(Potential(anchor.point.a, anchor.point.b))
    bad = StokesLine(origin=0, points=g.lines[0].points,
                     terminus_kind=STALLED, terminus_index=None)
    broken = StokesGraph(turning_points=g.turning_points,
                         lines=g.lines[:-1] + (bad,))
    with pytest.raises(UnresolvedTopology):
        classify_graph(broken)


def test_polylines_export(anchor):
    g = trace_stokes_lines(Potential(anchor.point.a, anchor.point.b))
    data = polylines(g)
    assert len(data) == 9
    for line, ln in zip(data, g.lines):
        assert len(line) == len(ln.points)
        assert all(len(pair) == 2 for pair in line)


# ---------------------------------------------------------------------------
# failures over the parameter plane


def _box(half_width):
    side = st.floats(-half_width, half_width)
    return st.builds(complex, side, side)


_PLANE = {
    "coalescing": st.builds(_coalescing, _box(5.0), st.integers(0, 2),
                            st.just(0.0) | st.floats(1e-16, 1e-1)),
    # three real roots: the third lies on the carrier line of each cut
    "third_root_on_cut": st.tuples(st.floats(1e-2, 50.0),
                                   st.just(0.0) | st.floats(-1e-3, 1e-3)),
    "large_a": st.tuples(
        st.builds(lambda r, phi: r * cmath.exp(1j * phi),
                  st.floats(1e2, 1e5), st.floats(-math.pi, math.pi)),
        _box(100.0)),
    # mostly graphs that are not of type "320"
    "generic": st.tuples(_box(10.0), _box(2.0)),
}


@pytest.mark.parametrize("region", sorted(_PLANE))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_parameter_plane_raises_only_numerical_errors(region, data):
    pot = Potential(*data.draw(_PLANE[region]))
    for run in (lambda: turning_points(pot),
                lambda: PeriodData.compute(pot),
                lambda: classify_graph(trace_stokes_lines(pot))):
        try:
            run()
        except NumericalError:
            pass
    # a graph that classifies has every saddle connection at both ends
    try:
        graph = trace_stokes_lines(pot)
        classify_graph(graph)
    except NumericalError:
        return
    _assert_two_sided(graph)


def _outcome(pot):
    try:
        return _termini(trace_stokes_lines(pot))
    except NumericalError as exc:
        return type(exc).__name__


@pytest.mark.parametrize("region", sorted(_PLANE))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_early_end_keeps_every_terminus(region, data):
    """Ending escaping lines at EARLY_FACTOR scale gives the termini of
    lines run to the escape radius: the rule off is EARLY_FACTOR set to
    ESCAPE_FACTOR, where the escape test decides first."""
    pot = Potential(*data.draw(_PLANE[region]))
    early = _outcome(pot)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stokes, "EARLY_FACTOR", stokes.ESCAPE_FACTOR)
        assert _outcome(pot) == early


@pytest.mark.parametrize("a", [math.nan, math.inf])
def test_non_finite_parameters_are_value_errors(a):
    # a ValueError that names the coefficient: the CLI exits 2 on it
    with np.errstate(invalid="ignore"), pytest.raises(ValueError,
                                                      match="not finite"):
        turning_points(Potential(a, 0.0))


def test_subnormal_coefficient_classifies():
    # V' at the real root is 43.9 - 1e-323j, whose phase underflows
    graph = trace_stokes_lines(Potential(5e-324j, 1.0))
    assert classify_graph(graph) == LABEL_SYMMETRIC
