import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tritronquee import elliptic
from tritronquee.bsb import solve_period_targets
from tritronquee.elliptic import (LEGENDRE_CONSTANT, TOL_QUAD, CycleId,
                                  ParamPoint, PeriodData, Potential,
                                  branch_sqrt, legendre_residual, period,
                                  period_derivatives, turning_points)
from tritronquee.errors import DegenerateTurningPoints, NumericalError

from oracles import (contour_period_trapezoid, continued_sqrt,
                     continued_sqrt_path, cycle_integral,
                     durand_kerner_roots, period_data_per_integral)

REF = Potential(-2.34, -0.064)


def random_320_point(rng, anchor_point) -> ParamPoint:
    s, t = rng.uniform(2.2, 4.8, 2)
    point, _ = solve_period_targets(1j * s, 1j * t, anchor_point)
    return point.scaled(rng.uniform(0.7, 1.4))


class TestTurningPoints:
    def test_triple_root_degenerate(self):
        with pytest.raises(DegenerateTurningPoints):
            turning_points(Potential(0.0, 0.0))

    def test_subnormal_coefficient_degenerate(self):
        """0 / V' at a subnormal V' is nan; the polish must not spread it."""
        with pytest.raises(DegenerateTurningPoints):
            turning_points(Potential(-3.5614436e-317, 0.0))

    def test_cube_roots_of_unity(self):
        tp = turning_points(Potential(0.0, 1.0 / 7.0))
        expected = sorted([1.0 + 0j, cmath.exp(2j * math.pi / 3),
                           cmath.exp(-2j * math.pi / 3)],
                          key=lambda z: (z.real, z.imag))
        got = sorted(tp.roots, key=lambda z: (z.real, z.imag))
        for g, e in zip(got, expected):
            assert abs(g - e) < 1e-12

    def test_roots_against_durand_kerner(self):
        tp = turning_points(REF)
        oracle = durand_kerner_roots(REF)
        for r in tp.roots:
            assert abs(REF(r)) < 1e-10
            assert min(abs(r - o) for o in oracle) < 1e-9

    def test_vieta_residuals_random(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 1000:
            a = complex(*rng.uniform(-10, 10, 2))
            b = complex(*rng.uniform(-10, 10, 2))
            pot = Potential(a, b)
            try:
                tp = turning_points(pot)
            except DegenerateTurningPoints:
                continue
            checked += 1
            r = tp.roots
            scale = max(1.0, abs(a) ** 1.5, abs(b))
            assert abs(r[0] + r[1] + r[2]) < 1e-12 * (1 + tp.scale)
            assert abs(r[0] * r[1] * r[2] - 7.0 * b) < 1e-9 * scale
            assert abs(r[0] * r[1] + r[0] * r[2] + r[1] * r[2]
                       + a / 2.0) < 1e-9 * scale
            for root in r:
                assert abs(pot(root)) < 1e-12 * scale * (1 + tp.scale) ** 2

    def test_inner_is_first_and_deterministic(self):
        tp1 = turning_points(REF)
        tp2 = turning_points(REF)
        assert tp1.roots == tp2.roots
        # inner point has the smallest maximal distance to the others
        dists = [max(abs(r - s) for s in tp1.roots if s != r)
                 for r in tp1.roots]
        assert dists[0] == min(dists)


def _positive_sqrt(pot: Potential, lam: complex) -> complex:
    """sqrt(V(lam)) with nonnegative real part: a start value for the
    continuation checks, which hold for either sign."""
    w = cmath.sqrt(pot(lam))
    return -w if w.real < 0 else w


class TestSqrtV:
    def test_continuation_closes_around_two_turning_points(self):
        tp = turning_points(REF)
        # loop tightly around the pair (inner, upper): contains 2 branch pts
        center = (tp.roots[0] + tp.roots[1]) / 2.0
        radius = 0.62 * abs(tp.roots[0] - tp.roots[1]) + 0.12
        assert abs(tp.roots[2] - center) > radius + 0.1
        start = center + radius
        w0 = _positive_sqrt(REF, start)
        pts = [center + radius * cmath.exp(2j * math.pi * i / 3000)
               for i in range(3001)]
        w_end = continued_sqrt(REF, pts, w0)
        assert abs(w_end - w0) < 1e-8 * abs(w0)

    def test_continuation_flips_around_one_turning_point(self):
        tp = turning_points(REF)
        center = tp.roots[1]
        radius = 0.4 * tp.min_separation
        start = center + radius
        w0 = continued_sqrt_path(REF, 10.0 * tp.scale,
                                 start, _positive_sqrt(REF, 10.0 * tp.scale))
        pts = [center + radius * cmath.exp(2j * math.pi * i / 3000)
               for i in range(3001)]
        w_end = continued_sqrt(REF, pts, w0)
        assert abs(w_end + w0) < 1e-8 * abs(w0)

    def test_branch_sqrt_follows_stepwise_oracle(self):
        tp = turning_points(REF)
        radius = 0.4 * tp.min_separation
        pts = [tp.roots[1] + radius * cmath.exp(2j * math.pi * i / 600)
               for i in range(601)]
        w0 = cmath.sqrt(REF(pts[0]))
        w = w0
        for z in pts[1:]:
            w = branch_sqrt(REF, z, w)
        assert w == continued_sqrt(REF, pts, w0)
        assert abs(w + w0) < 1e-8 * abs(w0)


class TestPeriods:
    def test_reference_point_quantization(self):
        # two-decimal inputs reproduce i*pi to the accuracy they allow
        chi2 = period(REF, CycleId.C_MINUS1)
        assert abs(chi2 - 1j * math.pi) < 0.05

    def test_conjugation_symmetry(self, anchor):
        pot = Potential(anchor.point.a, anchor.point.b)
        chi2 = period(pot, CycleId.C_MINUS1)
        chim2 = period(pot, CycleId.C_PLUS1)
        assert abs(chi2 - (-chim2.conjugate())) < 1e-9

    def test_against_contour_trapezoid_oracle(self, anchor):
        pot = Potential(anchor.point.a, anchor.point.b)
        tp = turning_points(pot)
        for which, cycle in ((1, CycleId.C_MINUS1), (2, CycleId.C_PLUS1)):
            r0, rout = tp.roots[0], tp.roots[which]
            center = (r0 + rout) / 2.0
            radius = 0.6 * abs(rout - r0) + 0.1 * tp.min_separation
            start = center + radius
            w_start = cmath.sqrt(pot(start))
            oracle = contour_period_trapezoid(pot, center, radius, w_start)
            chi = period(pot, cycle)
            assert min(abs(chi - oracle), abs(chi + oracle)) < 1e-8 * abs(chi)

    def test_quadrature_self_convergence(self, anchor):
        pot = Potential(anchor.point.a, anchor.point.b)
        loose = period(pot, CycleId.C_MINUS1, tol_quad=1e-10)
        tight = period(pot, CycleId.C_MINUS1, tol_quad=1e-13)
        assert abs(loose - tight) < 1e-10 * max(1.0, abs(tight))


class TestPeriodDerivatives:
    def test_finite_difference_consistency(self):
        h = 1e-5
        for cycle in CycleId:
            da, db = period_derivatives(REF, cycle)
            fa = (period(Potential(REF.a + h, REF.b), cycle)
                  - period(Potential(REF.a - h, REF.b), cycle)) / (2 * h)
            fb = (period(Potential(REF.a, REF.b + h), cycle)
                  - period(Potential(REF.a, REF.b - h), cycle)) / (2 * h)
            assert abs(fa - da) < 1e-6 * abs(da)
            assert abs(fb - db) < 1e-6 * abs(db)

    def test_legendre_identity_at_reference(self):
        pd = PeriodData.compute(REF)
        assert legendre_residual(pd) < 1e-8

    def test_derivative_scaling_law(self):
        x = 2.0
        da0, _ = period_derivatives(REF, CycleId.C_MINUS1)
        scaled = Potential(x * x * REF.a, x ** 3 * REF.b)
        da1, _ = period_derivatives(scaled, CycleId.C_MINUS1)
        assert abs(da1 - math.sqrt(x) * da0) < 1e-8 * abs(da1)


def _outcome(fn):
    try:
        return fn()
    except NumericalError as exc:
        return type(exc), str(exc)


_coord = st.floats(-6.0, 6.0, allow_nan=False, allow_infinity=False)


@st.composite
def _potentials(draw):
    """Generic (a, b), or turning points r, r + eps, -2r - eps whose close
    pair makes the quadrature slow or keeps it from converging."""
    r = complex(draw(_coord), draw(_coord)) / 3.0
    if draw(st.booleans()):
        return Potential(complex(draw(_coord), draw(_coord)),
                         complex(draw(_coord), draw(_coord)) / 4.0)
    eps = 10.0 ** draw(st.floats(-5.5, -1.0)) * complex(
        draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    roots = (r, r + eps, -2.0 * r - eps)
    e2 = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
    return Potential(-2.0 * e2, roots[0] * roots[1] * roots[2] / 7.0)


class TestSharedSweep:
    @settings(max_examples=80, deadline=None)
    @given(_potentials(), st.sampled_from([TOL_QUAD, 1e-13, 1e-14]))
    def test_matches_per_integral_quadrature(self, pot, tol_quad):
        """Each integral stops at its own n: values and errors are those
        of separate sweeps, bit for bit, through all three entry points."""
        shared = _outcome(lambda: PeriodData.compute(pot, tol_quad))
        assert shared == _outcome(lambda: period_data_per_integral(pot,
                                                                   tol_quad))
        for cycle in CycleId:
            assert (_outcome(lambda: period(pot, cycle, tol_quad))
                    == _outcome(lambda: cycle_integral(pot, cycle, "chi",
                                                       tol_quad)))
            assert (_outcome(lambda: period_derivatives(pot, cycle, tol_quad))
                    == _outcome(lambda: tuple(
                        cycle_integral(pot, cycle, kind, tol_quad)
                        for kind in ("da", "db"))))

    def test_one_turning_point_solve(self, monkeypatch):
        calls = []

        def counted(pot, *args):
            calls.append(pot)
            return turning_points(pot, *args)

        monkeypatch.setattr(elliptic, "turning_points", counted)
        PeriodData.compute(REF)
        assert len(calls) == 1


class TestLegendreResidual:
    def test_exact_instance(self):
        pd = PeriodData(chi2=0.0, chi_m2=0.0, dchi2_da=1.0, dchi2_db=0.0,
                        dchim2_da=0.0, dchim2_db=LEGENDRE_CONSTANT)
        assert legendre_residual(pd) == 0.0

    def test_full_pipeline_at_reference(self, anchor):
        pd = PeriodData.compute(Potential(anchor.point.a, anchor.point.b))
        assert legendre_residual(pd) < 1e-8

    def test_random_320_points(self, anchor):
        rng = np.random.default_rng(3)
        for _ in range(5):
            point = random_320_point(rng, anchor.point)
            pd = PeriodData.compute(Potential(point.a, point.b))
            assert legendre_residual(pd) < 1e-8


class TestScalingLaw:
    def test_chi_scaling_random_x(self, anchor):
        rng = np.random.default_rng(11)
        pot = Potential(anchor.point.a, anchor.point.b)
        chi0 = {c: period(pot, c) for c in CycleId}
        for _ in range(4):
            x = rng.uniform(0.5, 4.0)
            scaled = Potential(x * x * pot.a, x ** 3 * pot.b)
            for cycle in CycleId:
                target = x ** 2.5 * chi0[cycle]
                assert abs(period(scaled, cycle) - target) < 1e-8 * abs(target)
