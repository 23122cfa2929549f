import pytest
from hypothesis import given, strategies as st

from tritronquee import complex_ode
from tritronquee.elliptic import Potential, turning_points
from tritronquee.errors import OutsideDisc, PathNearTurningPoint
from tritronquee.oscillator import (RaySpec, dependence_residual, match_point,
                                    psi_logderivative, ray_spec, refine_pole,
                                    u_values, _potential_fn,
                                    _recessive_sqrtV, _wkb_logderivative)

from oracles import linear_logderivative

#: regression anchors recorded from the full pipeline at (a, b) = (0, 1)
DEP_AT_0_1 = (0.001914234466980552 - 10.583025565415248j,
              0.0019142344669816965 + 10.583025565415248j)

#: first real pole, recorded from the direct-integration oracle
FIRST_POLE_A = -2.3841687695685
FIRST_POLE_B = -0.0621357388


def _pot(point):
    return Potential(point.a, point.b)


_complex = st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                              allow_infinity=False)


@given(_complex, _complex, _complex)
def test_potential_fn_is_bit_identical(a, b, z):
    pot = Potential(a, b)
    assert _potential_fn(pot)(z) == pot(z)


class TestRaySpec:
    def test_bounds_hold_at_start(self, anchor):
        pot = _pot(anchor.point)
        for k in (-2, -1, 0, 1, 2):
            rs = ray_spec(pot, k)
            z = rs.start_point
            v = pot(z)
            assert abs(pot.deriv(z)) / abs(v) ** 1.5 < 1e-10
            w = _recessive_sqrtV(pot, z, rs.angle)
            two_term = -w - pot.deriv(z) / (4.0 * v)
            assert abs(_wkb_logderivative(pot, z, w) - two_term) < 1e-10

    def test_invalid_ray_index(self, anchor):
        with pytest.raises(ValueError):
            ray_spec(_pot(anchor.point), 3)


class TestLogDerivative:
    def test_initialization_is_wkb(self, anchor):
        """At the start point the value agrees with -(sqrt(V) + V'/(4V)) up
        to a correction below the WKB tolerance."""
        pot = _pot(anchor.point)
        rs = ray_spec(pot, 2)
        z = rs.start_point
        w = _recessive_sqrtV(pot, z, rs.angle)
        s_init = _wkb_logderivative(pot, z, w)
        assert abs(s_init - (-w - pot.deriv(z) / (4.0 * pot(z)))) < 1e-10

    def test_start_radius_doubling_stability(self, anchor):
        pot = _pot(anchor.point)
        tp = turning_points(pot)
        lam = match_point(tp)
        rs = ray_spec(pot, 2)
        s1 = psi_logderivative(pot, rs, lam).s
        s2 = psi_logderivative(pot, RaySpec(2, 2.0 * rs.start_radius), lam).s
        assert abs(s2 - s1) < 1e-8 * abs(s1)

    def test_riccati_matches_linear_ode_oracle(self, anchor):
        pot = _pot(anchor.point)
        tp = turning_points(pot)
        lam = match_point(tp)
        for k in (2, -1):
            rs = ray_spec(pot, k)
            s_ric = psi_logderivative(pot, rs, lam).s
            s_lin = linear_logderivative(pot, tp, rs, lam)
            assert abs(s_ric - s_lin) < 1e-8 * abs(s_ric)

    def test_blow_through_psi_zeros(self):
        """On the real axis of (10, 0) the recessive solution oscillates, so
        the log-derivative passes through poles; the inverse chart carries
        the flow across and the linear oracle confirms the value."""
        pot = Potential(10.0, 0.0)
        tp = turning_points(pot)
        lam = 1.1
        rs = ray_spec(pot, 0)
        s_ric = psi_logderivative(pot, rs, lam).s
        s_lin = linear_logderivative(pot, tp, rs, lam)
        assert abs(s_ric - s_lin) < 1e-8 * max(1.0, abs(s_ric))

    def test_match_point_near_turning_point_rejected(self, anchor):
        pot = _pot(anchor.point)
        tp = turning_points(pot)
        with pytest.raises(PathNearTurningPoint):
            psi_logderivative(pot, ray_spec(pot, 0), tp.roots[0])


class TestDependenceResidual:
    def test_conjugation_symmetry_real_slice(self, anchor):
        r = dependence_residual(_pot(anchor.point))
        assert abs(r[1] - r[0].conjugate()) < 1e-9

    def test_regression_anchor_at_generic_point(self):
        r = dependence_residual(Potential(0.0, 1.0))
        assert abs(r[0]) > 1.0 and abs(r[1]) > 1.0
        assert abs(r[0] - DEP_AT_0_1[0]) < 1e-6
        assert abs(r[1] - DEP_AT_0_1[1]) < 1e-6

    def test_small_but_nonzero_near_solution(self, anchor):
        r = dependence_residual(_pot(anchor.point))
        norm = abs(r[0]) + abs(r[1])
        assert 1e-4 < norm < 1.0


class TestRefinePole:
    def test_first_pole_against_painleve_oracle(self, pole_table):
        rec = pole_table["records"][0]
        assert abs(rec.pole.a - FIRST_POLE_A) < 1e-6
        assert abs(rec.pole.b - FIRST_POLE_B) < 1e-6
        assert rec.dep_residual < 1e-9

    def test_errors_shrink_along_sequence(self, pole_table):
        records = pole_table["records"]
        errors = [abs(r.pole.a - r.seed.a) for r in records]
        assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))

    def test_disc_violation_raises(self, q1_sequence):
        with pytest.raises(OutsideDisc):
            refine_pole(q1_sequence[1], radius_policy=(1.0, 1e-6),
                        compute_gap=False)

    def test_invalid_alpha_rejected(self, q1_sequence):
        with pytest.raises(ValueError):
            refine_pole(q1_sequence[1], radius_policy=(1.3, 1.0),
                        compute_gap=False)


class TestProportionality:
    def test_log_derivatives_agree_everywhere_at_pole(self, pole_table):
        """Two dependent solutions match at every regular point: checked at
        three match points for the refined (1, 0) pole."""
        pole = pole_table["records"][0].pole
        pot = Potential(pole.a, pole.b)
        tp = turning_points(pot)
        base = match_point(tp)
        offsets = (0.0, 0.35, 0.35j)
        for off in offsets:
            lam = base + off
            s_m1 = psi_logderivative(pot, ray_spec(pot, -1), lam).s
            s_p2 = psi_logderivative(pot, ray_spec(pot, 2), lam).s
            assert abs(s_m1 - s_p2) < 1e-8 * max(1.0, abs(s_m1))


class TestUValues:
    def test_unity_at_refined_pole(self, pole_table):
        pole = pole_table["records"][0].pole
        u2, um2 = u_values(Potential(pole.a, pole.b))
        assert abs(u2 - 1.0) < 1e-8
        assert abs(um2 - 1.0) < 1e-8

    def test_cross_ratio_oracle(self, anchor):
        """The asymptotic-value ratios collapse to a cross ratio of the four
        log-derivatives at one point (Wronskian identity); both routes must
        agree."""
        pot = _pot(anchor.point)
        tp = turning_points(pot)
        lam = match_point(tp)
        s = {k: psi_logderivative(pot, ray_spec(pot, k), lam).s
             for k in (0, 1, 2, -1, -2)}
        u2_x = ((s[2] - s[0]) * (s[-1] - s[-2])
                / ((s[2] - s[-2]) * (s[-1] - s[0])))
        um2_x = ((s[-2] - s[0]) * (s[1] - s[2])
                 / ((s[-2] - s[2]) * (s[1] - s[0])))
        u2, um2 = u_values(pot)
        assert abs(u2 - u2_x) < 1e-8 * abs(u2)
        assert abs(um2 - um2_x) < 1e-8 * abs(um2)

    def test_evaluation_radius_stability(self, anchor):
        pot = _pot(anchor.point)
        tp = turning_points(pot)
        u_a = u_values(pot)
        u_b = u_values(pot, eval_radius=12.0 * tp.scale)
        assert abs(u_b[0] - u_a[0]) < 1e-6 * abs(u_a[0])
        assert abs(u_b[1] - u_a[1]) < 1e-6 * abs(u_a[1])

    def test_gap_decreases_along_descendants(self, pole_table):
        gaps = [r.wkb_gap for r in pole_table["records"][:4]]
        for i in range(len(gaps) - 1):
            assert gaps[i + 1][0] < gaps[i][0]
            assert gaps[i + 1][1] < gaps[i][1]

    def test_outward_legs_end_at_coalescence(self, anchor, monkeypatch):
        """The carriers of each outward leg become one float long before the
        evaluation radius; J is final there, so the legs stop.  Running on
        to the radius takes 22,337 steps in all."""
        integrate = complex_ode.integrate
        steps = []

        def counting(*args, **kwargs):
            res = integrate(*args, **kwargs)
            steps.append(res.n_steps)
            return res

        monkeypatch.setattr(complex_ode, "integrate", counting)
        u_values(_pot(anchor.point))
        assert sum(steps) <= 10_000
