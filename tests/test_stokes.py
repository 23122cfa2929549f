import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tritronquee import elliptic
from tritronquee.bsb import descendant, solve_period_targets
from tritronquee.elliptic import PeriodData, Potential, turning_points
from tritronquee.errors import DegenerateTurningPoints, NumericalError
from tritronquee.stokes import (ASYMPTOTIC, TURNING_POINT, classify_graph,
                                polylines, trace_stokes_lines)

from oracles import closure_trace_stokes_lines, polyline_action_drift

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


def test_termini_match_the_frozen_tracer(pool_potentials):
    """Without the frozen tracer's drift projection every line still ends
    where that tracer's does: same kind, same gap or turning point."""
    for pot in pool_potentials:
        got = _termini(trace_stokes_lines(pot))
        assert len(got) == 9
        assert got == _termini(closure_trace_stokes_lines(pot))


def test_trace_evaluates_sqrt_v_only_in_its_kernel(anchor, monkeypatch):
    """The hook takes sqrt(V) at each new point from the FSAL stage of the
    generated tangent: a trace evaluates V nowhere else."""
    def forbidden(*args):
        raise AssertionError("sqrt(V) evaluated outside the kernel")

    monkeypatch.setattr(elliptic, "branch_sqrt", forbidden)
    monkeypatch.setattr(Potential, "__call__", forbidden)
    pot = Potential(anchor.point.a, anchor.point.b)
    assert classify_graph(trace_stokes_lines(pot)) == "320"


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


def test_asymptotic_termini_near_gap_bisectors(anchor):
    g = trace_stokes_lines(Potential(anchor.point.a, anchor.point.b))
    for ln in g.lines:
        if ln.terminus_kind != ASYMPTOTIC:
            continue
        ang = cmath.phase(ln.points[-1])
        bisector = (2 * ln.terminus_index + 1) * math.pi / 5.0
        diff = abs((ang - bisector + math.pi) % (2 * math.pi) - math.pi)
        assert diff < math.pi / 5.0


def test_incremental_action_oracle(pool_potentials):
    """The tangent i conj(w) / |w| keeps Re int sqrt(V) dlam constant up to
    the integrator's tolerance, with no projection back onto the level
    set: measured independently along each polyline."""
    for pot in pool_potentials:
        for ln in trace_stokes_lines(pot).lines:
            drift, weight = polyline_action_drift(pot, ln.points)
            assert drift < 1e-6 * max(1.0, weight)


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
        point, _ = solve_period_targets(1j * s, 1j * t, anchor.point)
        base_points.append(point)
    for point in base_points:
        label = classify_graph(trace_stokes_lines(Potential(point.a, point.b)))
        assert label == "320"
        for x in (0.5, 2.0, 3.0):
            scaled = point.scaled(x)
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
    tol_merge = 1e-4 * 10.0 * g.turning_points.scale
    roots = list(g.turning_points.roots)
    for i in range(len(g.lines)):
        for j in range(i + 1, len(g.lines)):
            li, lj = g.lines[i], g.lines[j]
            # a saddle connection traced from both endpoints is one edge
            # drawn twice, not a crossing
            if (li.terminus_kind == TURNING_POINT
                    and lj.terminus_kind == TURNING_POINT
                    and li.terminus_index == lj.origin
                    and lj.terminus_index == li.origin):
                continue
            n = _count_crossings(np.asarray(li.points), np.asarray(lj.points),
                                 roots, 3.0 * tol_merge)
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


def _coalescing(b, branch, rel):
    """a with a^3 = 2646 b^2 (1 + rel)^3, where two turning points meet
    at rel = 0."""
    cube_root = (2646.0 * b * b) ** (1.0 / 3.0)
    return cube_root * cmath.exp(2j * math.pi * branch / 3.0) * (1.0 + rel), b


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
