import cmath
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.special import elliprd, elliprf

from tritronquee import elliptic
from tritronquee.bsb import descendant, solve_period_targets
from tritronquee.elliptic import (DEGENERACY_REL, LEGENDRE_CONSTANT, CycleId,
                                  ParamPoint, PeriodData, Potential,
                                  TurningPoints, branch_sqrt, cond_2x2,
                                  legendre_residual, solve_2x2,
                                  turning_points)
from tritronquee.errors import (DegenerateTurningPoints, NumericalError,
                                QuadratureNotConverged)
from tritronquee.oscillator import match_point

from oracles import (contour_period_trapezoid, continued_sqrt,
                     continued_sqrt_path, cycle_period, durand_kerner_roots,
                     mp_period_data, numpy_turning_points,
                     quadrature_period_data, scaled_point)

REF = Potential(-2.34, -0.064)

_coord = st.floats(-6.0, 6.0, allow_nan=False, allow_infinity=False)


@st.composite
def _generic_potentials(draw):
    return Potential(complex(draw(_coord), draw(_coord)),
                     complex(draw(_coord), draw(_coord)) / 4.0)


@st.composite
def _close_pairs(draw):
    """Turning points r, r + eps, -2r - eps, with |eps| from 1e-1 down to
    about 10^-5.5: near a collision, where the periods are hardest."""
    r = complex(draw(_coord), draw(_coord)) / 3.0
    eps = 10.0 ** draw(st.floats(-5.5, -1.0)) * complex(
        draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    roots = (r, r + eps, -2.0 * r - eps)
    e2 = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
    return Potential(-2.0 * e2, roots[0] * roots[1] * roots[2] / 7.0)


_potentials = st.one_of(_generic_potentials(), _close_pairs())


def random_320_point(rng, anchor_point) -> ParamPoint:
    s, t = rng.uniform(2.2, 4.8, 2)
    point, _ = solve_period_targets([(1j * s, 1j * t)], anchor_point)
    return scaled_point(point, rng.uniform(0.7, 1.4))


class TestTurningPoints:
    def test_triple_root_degenerate(self):
        with pytest.raises(DegenerateTurningPoints):
            turning_points(Potential(0.0, 0.0))

    def test_subnormal_coefficient_polish_stays_finite(self):
        """0 / V' at a subnormal V' is nan; the polish must not spread it.
        The roots 0 and +-i sqrt(|a| / 2) are distinct on the scale of
        max |root|, so they are not degenerate."""
        a = -3.5614436e-317
        r = turning_points(Potential(a, 0.0)).roots
        pair = math.sqrt(-a / 2.0)
        assert r[0] == 0.0
        for z, im in zip(r[1:], (pair, -pair)):
            assert abs(z - 1j * im) <= 1e-15 * pair

    def test_degeneracy_is_scale_free(self):
        """b -> x^3 b at a = 0 scales the roots by x: the same triple at
        any size is distinct, and the double root of (a, b) = (6 x^2, 2 x^3 / 7)
        is degenerate at any size."""
        for b in (1e-3j, 1e-12j, 1e-20j, 1e-60j):
            tp = turning_points(Potential(0.0, b))
            assert tp.min_separation > 1.7 * max(map(abs, tp.roots))
        for x in (1.0, 1e-8, 1e-40):
            with pytest.raises(DegenerateTurningPoints):
                turning_points(Potential(6.0 * x * x, 2.0 * x ** 3 / 7.0))

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

    @settings(max_examples=300, deadline=None)
    @given(_potentials)
    @example(Potential(1e200, 1e290))
    @example(Potential(1e-200, 1e-290))
    def test_roots_solve_v(self, pot):
        """Vieta's relations hold, and |V(root)| is at round-off, for
        coefficients from 1e-290 to 1e290."""
        try:
            r = turning_points(pot).roots
        except DegenerateTurningPoints:
            return
        scale = max(abs(z) for z in r)
        sep = min(abs(r[i] - r[j]) for i, j in ((0, 1), (0, 2), (1, 2)))
        # rounding moves a root by about 1e-16 scale^2 / sep
        rel = 1e-15 * (1.0 + scale / sep)
        a, b = pot.a, pot.b
        assert abs(r[0] + r[1] + r[2]) <= rel * scale
        assert (abs(r[0] * r[1] + r[0] * r[2] + r[1] * r[2] + a / 2.0)
                <= rel * scale ** 2)
        assert abs(r[0] * r[1] * r[2] - 7.0 * b) <= rel * scale ** 3
        for z in r:
            terms = 4.0 * abs(z) ** 3 + 2.0 * abs(a * z) + 28.0 * abs(b)
            # plus the spacing of subnormal numbers
            assert abs(pot(z)) <= 1e-15 * terms + 1e-320

    @settings(max_examples=300, deadline=None)
    @given(_potentials)
    @example(Potential(15.115314727655097 - 0j, -1.1424333475899184 + 0j))
    def test_matches_numpy_roots(self, pot):
        """The roots of the frozen ``np.roots`` solve, in its canonical
        order: where that order is decided by a margin above rounding, the
        two agree root by root; near a collision, both raise or neither."""
        try:
            ref = numpy_turning_points(pot).roots
        except DegenerateTurningPoints:
            ref = None
        try:
            got = turning_points(pot).roots
        except DegenerateTurningPoints:
            got = None
        if got is None or ref is None:
            # a pair at the threshold may fall either side of it
            rr = durand_kerner_roots(pot)
            size = max(abs(z) for z in rr)
            sep = min(abs(rr[i] - rr[j]) for i, j in ((0, 1), (0, 2), (1, 2)))
            assert (got is None and ref is None
                    or abs(sep / (DEGENERACY_REL * size) - 1.0) < 1e-3)
            return
        scale = 1.0 + max(abs(z) for z in ref)
        sep = min(abs(ref[i] - ref[j]) for i, j in ((0, 1), (0, 2), (1, 2)))
        # a root of a pair at separation sep is resolved to ~1e-16 scale^2/sep
        tol = 1e-14 * scale * (1.0 + scale / sep)
        assert all(min(abs(z - w) for w in ref) <= tol for z in got)
        dists = sorted(max(abs(z - w) for w in ref) for z in ref)
        tie_inner = dists[1] <= dists[0] * (1.0 + 1e-9) + 2.0 * tol
        tie_outer = abs(ref[1].imag - ref[2].imag) <= 2.0 * tol
        if not (tie_inner or tie_outer):
            assert all(abs(z - w) <= tol for z, w in zip(got, ref))

    def test_real_roots_ordered_by_real_part(self):
        """A real V's real roots carry no imaginary rounding, so its outer
        points are ordered by their real parts, as ``np.roots`` does."""
        pot = Potential(5.929543436194409, 0.21160672148930537)
        r = turning_points(pot).roots
        assert all(z.imag == 0.0 for z in r)
        assert r[1].real < r[2].real

    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(-20.0, 20.0), b=st.floats(-20.0, 20.0))
    @example(a=1.577, b=1.305)
    def test_real_coefficients_give_an_exact_pair(self, a, b):
        """A real V has three real roots, or one real root and an exact
        conjugate pair, so the centroid and the match point are real.  At
        (1.577, 1.305) all three roots tie for the inner point."""
        try:
            tp = turning_points(Potential(a, b))
        except DegenerateTurningPoints:
            return
        off = sorted((z for z in tp.roots if z.imag != 0.0),
                     key=lambda z: z.imag)
        assert len(off) in (0, 2)
        if off:
            assert off[0] == off[1].conjugate()
        assert tp.centroid.imag == 0.0
        assert match_point(tp).imag == 0.0

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
        chi2 = cycle_period(REF, CycleId.C_MINUS1)[0]
        assert abs(chi2 - 1j * math.pi) < 0.05

    def test_conjugation_symmetry(self, anchor):
        pot = Potential(anchor.point.a, anchor.point.b)
        chi2 = cycle_period(pot, CycleId.C_MINUS1)[0]
        chim2 = cycle_period(pot, CycleId.C_PLUS1)[0]
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
            chi = cycle_period(pot, cycle)[0]
            assert min(abs(chi - oracle), abs(chi + oracle)) < 1e-8 * abs(chi)

    def test_overflow_is_a_named_error(self):
        """chi grows like a^(5/4): at a = 1e240 the periods are finite
        (8.06e299), at 1e250 chi overflows, which is a named error, not an
        infinite or NaN period."""
        pd = PeriodData.compute(Potential(1e240, 0.0))
        assert all(cmath.isfinite(getattr(pd, f.name)) for f in fields(pd))
        with pytest.raises(QuadratureNotConverged, match="overflows"):
            PeriodData.compute(Potential(1e250, 0.0))

    def test_series_meets_closed_form(self, monkeypatch):
        """Around |rho| = 0.2, where chi switches from the closed form to
        its even series, both give the same chi."""
        for k in range(12):
            rho = 0.2 * cmath.exp(2j * math.pi * k / 12) * (1 + 0.01 * k)
            tp = TurningPoints(roots=(1.0 - 3.0 * rho, 1.0 + 3.0 * rho,
                                      -2.0 + 0j))
            chis = []
            for switch in (0.0, 1.0):
                monkeypatch.setattr(elliptic, "_SERIES_RHO", switch)
                chis.append(elliptic._cycle_sweep(tp, CycleId.C_MINUS1)[0])
            assert abs(chis[0] - chis[1]) <= 2e-15 * abs(chis[1])


class TestPeriodDerivatives:
    def test_finite_difference_consistency(self):
        h = 1e-5
        for cycle in CycleId:
            _, da, db = cycle_period(REF, cycle)
            fa = (cycle_period(Potential(REF.a + h, REF.b), cycle)[0]
                  - cycle_period(Potential(REF.a - h, REF.b), cycle)[0]) / (2 * h)
            fb = (cycle_period(Potential(REF.a, REF.b + h), cycle)[0]
                  - cycle_period(Potential(REF.a, REF.b - h), cycle)[0]) / (2 * h)
            assert abs(fa - da) < 1e-6 * abs(da)
            assert abs(fb - db) < 1e-6 * abs(db)

    def test_legendre_identity_at_reference(self):
        pd = PeriodData.compute(REF)
        assert legendre_residual(pd) < 1e-8

    def test_derivative_scaling_law(self):
        x = 2.0
        _, da0, _ = cycle_period(REF, CycleId.C_MINUS1)
        scaled = Potential(x * x * REF.a, x ** 3 * REF.b)
        _, da1, _ = cycle_period(scaled, CycleId.C_MINUS1)
        assert abs(da1 - math.sqrt(x) * da0) < 1e-8 * abs(da1)


_FIELDS = [f.name for f in fields(PeriodData)]


def _rel_errors(pd: PeriodData, ref: PeriodData) -> list[float]:
    """|pd - ref| / |ref| per field; where ref underflowed to 0, an exact 0
    has error 0 and any other value an infinite one."""
    errors = []
    for f in _FIELDS:
        value, exact = getattr(pd, f), getattr(ref, f)
        if exact == 0:
            errors.append(0.0 if value == 0 else math.inf)
        else:
            errors.append(abs(value - exact) / abs(exact))
    return errors


def _legendre_either_orientation(pd: PeriodData) -> float:
    """The Legendre residual up to the orientation of the cycle pair: the
    canonical order gives -28 pi i on the "320" region, but the sign flips
    where the outer points' order does (at a = 1, b = i/4, for one)."""
    return min(abs(pd.jacobian_det - LEGENDRE_CONSTANT),
               abs(pd.jacobian_det + LEGENDRE_CONSTANT))


class TestClosedForms:
    def test_pool_points_against_mpmath(self, coprime_primitives):
        """The 19 coprime pairs with n, m <= 5 and their descendants up to
        k = 4 agree with a 30-digit quadrature, roots refined to 30 digits,
        and satisfy the Legendre relation."""
        for sol in coprime_primitives.values():
            for k in range(5):
                point = (descendant(sol, k) if k else sol).point
                pot = Potential(point.a, point.b)
                pd = PeriodData.compute(pot)
                assert max(_rel_errors(pd, mp_period_data(pot))) <= 1e-13
                assert legendre_residual(pd) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(_generic_potentials())
    def test_generic_points_against_mpmath(self, pot):
        try:
            pd = PeriodData.compute(pot)
        except NumericalError:
            return
        # a cycle's sign is that of the principal sqrt(c - r_other), which
        # rounding decides where c - r_other is on the negative real axis
        # (at a = 0, b > 0, chi2 is -33.48 and +33.48 at a = 1e-15 i)
        roots = turning_points(pot).roots
        for which in (1, 2):
            base = (roots[0] + roots[which]) / 2.0 - roots[3 - which]
            if base.real < 0.0 and abs(base.imag) <= 1e-12 * abs(base):
                return
        assert max(_rel_errors(pd, mp_period_data(pot))) <= 1e-13
        assert _legendre_either_orientation(pd) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(_close_pairs())
    # roots of modulus 1e-142, where chi (about 1e-355) underflows to 0
    @example(Potential(-1.542231913604567e-284, -0j))
    # chi about 8.7e-316, in the subnormal range: rounded there twice, it was
    # 4e-9 off (relative) while the quadrature was exact
    @example(Potential(-1.40121970142525e-252, -0j))
    def test_close_pairs_no_worse_than_quadrature(self, pot):
        """Near a collision, against a 30-digit quadrature on the same float
        roots, each value is no worse than the node-doubled quadrature's, or
        at round-off."""
        try:
            pd = PeriodData.compute(pot)
        except NumericalError:
            return
        ref = mp_period_data(pot, refine=False)
        try:
            quad = _rel_errors(quadrature_period_data(pot), ref)
        except NumericalError:
            quad = [math.inf] * len(_FIELDS)
        for err, err_quad in zip(_rel_errors(pd, ref), quad):
            assert err <= max(err_quad, 1e-14)
        # the derivatives grow like log(1/eps), and the determinant is a
        # difference of their products
        products = (abs(pd.dchi2_da * pd.dchim2_db)
                    + abs(pd.dchim2_da * pd.dchi2_db))
        assert _legendre_either_orientation(pd) <= 1e-14 * products

    @settings(max_examples=200, deadline=None)
    @given(st.complex_numbers(max_magnitude=50.0, allow_nan=False,
                              allow_infinity=False))
    def test_carlson_against_scipy(self, rho):
        """R_F(0, 1 + rho, 1 - rho) and R_D(0, 1 + rho, 1 - rho) off the
        cut, where rho is real with |rho| >= 1."""
        if abs(rho.imag) < 1e-12 and abs(rho.real) >= 1.0 - 1e-12:
            return
        F, D = elliptic._carlson_fd(1.0 + rho, 1.0 - rho)
        F_ref = complex(elliprf(0.0, 1.0 + rho, 1.0 - rho))
        D_ref = complex(elliprd(0.0, 1.0 + rho, 1.0 - rho))
        assert abs(F - F_ref) <= 4e-15 * abs(F_ref)
        assert abs(D - D_ref) <= 4e-15 * abs(D_ref)


class TestSharedSweep:
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
        chi0 = {c: cycle_period(pot, c)[0] for c in CycleId}
        for _ in range(4):
            x = rng.uniform(0.5, 4.0)
            scaled = Potential(x * x * pot.a, x ** 3 * pot.b)
            for cycle in CycleId:
                target = x ** 2.5 * chi0[cycle]
                chi = cycle_period(scaled, cycle)[0]
                assert abs(chi - target) < 1e-8 * abs(target)


_EPS = np.finfo(float).eps
_angle = st.floats(0.0, 2.0 * math.pi)


def _unitary(theta, alpha, beta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s * cmath.exp(1j * alpha)],
                     [s * cmath.exp(1j * beta),
                      c * cmath.exp(1j * (alpha + beta))]])


@st.composite
def _conditioned_2x2(draw):
    """s U diag(1, 1/kappa) V with s in [1e-12, 1e3], kappa in [1, 1e10]."""
    scale = 10.0 ** draw(st.floats(-12.0, 3.0))
    kappa = 10.0 ** draw(st.floats(0.0, 10.0))
    u = _unitary(draw(_angle), draw(_angle), draw(_angle))
    v = _unitary(draw(_angle), draw(_angle), draw(_angle))
    return scale * u @ np.diag([1.0, 1.0 / kappa]) @ v


@st.composite
def _generic_2x2(draw):
    """Independent entries of modulus <= 1, times a scale in [1e-12, 1e3]."""
    scale = 10.0 ** draw(st.floats(-12.0, 3.0))
    entries = [draw(st.complex_numbers(max_magnitude=1.0)) for _ in range(4)]
    return scale * np.array(entries).reshape(2, 2)


def _as_tuples(J):
    return tuple(tuple(complex(v) for v in row) for row in J)


_rhs = st.builds(lambda f0, f1, e: np.array([f0, f1]) * 10.0 ** e,
                 st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0),
                 st.complex_numbers(max_magnitude=1.0),
                 st.floats(-6.0, 6.0))


class TestTwoByTwo:
    """Cramer's rule against LAPACK.  For n = 2 it is forward stable but
    not backward stable (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 1.10.1): its residual is bounded by
    u |J| |J^-1| |F|, not by u (|J| |x| + |F|).  On 200,000 draws of the
    conditioned family the second ratio reached 88 u, where LAPACK's
    stayed near 1 u, so the residual is checked against the first bound."""

    @settings(max_examples=200, deadline=None)
    @given(J=st.one_of(_conditioned_2x2(), _generic_2x2()), F=_rhs)
    # entries whose det underflows: cond is 1 and x is finite
    @example(J=np.diag([2e-181, 2e-181]).astype(complex),
             F=np.array([0.5 + 0.25j, -1.0]))
    def test_solve_matches_lapack(self, J, F):
        cond = np.linalg.cond(J, np.inf)
        assume(np.isfinite(cond) and cond <= 1e10)
        x = np.array(solve_2x2(_as_tuples(J), tuple(complex(f) for f in F)))
        ref = np.linalg.solve(J, F)
        assert np.abs(x - ref).max() <= 10 * _EPS * cond * np.abs(ref).max()
        bound = np.abs(J) @ np.abs(np.linalg.inv(J)) @ np.abs(F)
        assert np.abs(J @ x - F).max() <= 10 * _EPS * bound.max()

    @settings(max_examples=200, deadline=None)
    @given(J=st.one_of(_conditioned_2x2(), _generic_2x2()))
    # entries whose det underflows: cond is 1, not inf
    @example(J=np.diag([2e-181, 2e-181]).astype(complex))
    def test_cond_matches_lapack(self, J):
        ref = np.linalg.cond(J)
        assume(np.isfinite(ref) and ref <= 1e10)
        assert abs(cond_2x2(_as_tuples(J)) - ref) <= 1e-12 * ref * ref

    def test_singular(self):
        J = ((1.0 + 0j, 2.0 + 0j), (0.5 + 0j, 1.0 + 0j))
        with pytest.raises(ZeroDivisionError):
            solve_2x2(J, (1.0, 1.0))
        assert cond_2x2(J) == math.inf

    def test_nan_propagates(self):
        x = solve_2x2(((1.0, complex(math.nan)), (0.0, 1.0)), (1.0, 1.0))
        assert not any(map(cmath.isfinite, x))

    def test_one_newton_under_src(self):
        """Every 2x2 solve under src/ goes through ``elliptic``, and the one
        damped Newton that the period and dependence systems share is the
        only line search."""
        src = Path(__file__).resolve().parent.parent / "src"
        files = {path.name: path.read_text() for path in src.rglob("*.py")}
        assert {name for name, text in files.items()
                if "solve_2x2(" in text} == {"elliptic.py"}
        assert sum(text.count("line search exhausted")
                   for text in files.values()) == 1
