import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tritronquee import complex_ode, oscillator
from tritronquee.bsb import QuantumPair, descendant, solve_bsb
from tritronquee.elliptic import Potential, facing_sqrt, turning_points
from tritronquee.errors import (NewtonDiverged, OdeToleranceNotMet,
                                OutsideDisc, PathNearTurningPoint,
                                StepUnderflow)
from tritronquee.oscillator import (RaySpec, dependence_residual,
                                    dependence_system, match_point,
                                    psi_logderivative, ray_spec, refine_pole,
                                    u_values, _wkb_logderivative)

import oracles
from oracles import bits, linear_logderivative

#: regression anchors recorded from the full pipeline at (a, b) = (0, 1)
DEP_AT_0_1 = (0.001914234466980552 - 10.583025565415248j,
              0.0019142344669816965 + 10.583025565415248j)

#: first real pole, recorded from the direct-integration oracle
FIRST_POLE_A = -2.3841687695685
FIRST_POLE_B = -0.0621357388


def _pot(point):
    return Potential(point.a, point.b)


def _complex(magnitude):
    return st.complex_numbers(max_magnitude=magnitude, allow_nan=False,
                              allow_infinity=False)


def _stopping_hook(stop_at, refresh_every):
    """Stops once |y_0| exceeds ``stop_at``; every ``refresh_every``-th
    accepted step hands back an equal new tuple, which makes the integrator
    evaluate the right-hand side afresh instead of reusing its last stage."""
    accepted = [0]

    def on_accept(t, y):
        accepted[0] += 1
        if abs(y[0]) > stop_at:
            return y, complex_ode.STOP
        if accepted[0] % refresh_every == 0:
            return tuple([*y]), complex_ode.CONTINUE
        return y, complex_ode.CONTINUE

    return on_accept


def _outcome(run):
    try:
        res = run()
    except (OdeToleranceNotMet, StepUnderflow) as exc:
        return type(exc), str(exc)
    return res.t, res.y, res.n_steps, res.stopped


@pytest.mark.parametrize("leg", ["s-chart", "r-chart"])
@settings(max_examples=40, deadline=None)
@given(a=_complex(3.0), b=_complex(1.0), z0=_complex(2.0), dz=_complex(1.5),
       state=st.tuples(_complex(2.0), _complex(2.0), _complex(2.0)),
       stop_at=st.floats(2.0, 100.0), refresh_every=st.integers(2, 9))
def test_inlined_legs_match_the_closure_path(leg, a, b, z0, dz, state,
                                             stop_at, refresh_every):
    """Each right-hand side written into the generated kernel takes the
    steps and values of the closure it replaced on the old integrator
    (frozen in ``oracles``), bit for bit, including its failures."""
    pot = Potential(a, b)
    rtol = 1e-10

    def new_path():
        hook = _stopping_hook(stop_at, refresh_every)
        rhs = {"s-chart": oscillator._S_CHART,
               "r-chart": oscillator._R_CHART}[leg]
        return complex_ode.integrate(
            rhs, 0.0, 1.0, state, rtol=rtol, atol=1e-13, on_accept=hook,
            max_steps=3000, args=oscillator._leg_args(pot, z0, dz))

    def closure_path():
        hook = _stopping_hook(stop_at, refresh_every)
        closure = {"s-chart": oracles.s_chart, "r-chart": oracles.r_chart}[leg]
        return oracles.closure_integrate(
            closure(pot, z0, dz), 0.0, 1.0, state, rtol=rtol, atol=1e-13,
            on_accept=hook, max_steps=3000, error_dims=1)

    assert _outcome(new_path) == _outcome(closure_path)


def _pair_outcome(leg, state, pot, z0, dz, stop_at):
    """What a pair leg does: every (t, state) its hook sees, then its end
    (t, state, stopped, steps) or its error."""
    seen = []

    def on_accept(t, y):
        seen.append((t, bits(y)))
        if abs(y[0]) > stop_at or y[0] == y[1]:
            return complex_ode.STOP
        return complex_ode.CONTINUE

    try:
        res = leg(state, pot, z0, dz, 1e-12, on_accept)
    except (OdeToleranceNotMet, StepUnderflow) as exc:
        return seen, type(exc), str(exc)
    return seen, res.t, bits(res.y), res.stopped, res.n_steps


@settings(max_examples=60, deadline=None)
@given(a=_complex(3.0), b=_complex(1.0), z0=_complex(2.0), dz=_complex(3.0),
       state=st.tuples(_complex(3.0), _complex(3.0), _complex(3.0)),
       stop_at=st.floats(2.0, 1e3))
# a = b = 0 at z = 0 with s = 0: s(w lam) w = s(lam) for w^5 = 1 makes
# every coefficient but p_4, p_9, ... vanish, p_20 among them
@example(a=0j, b=0j, z0=0j, dz=1 + 0j, state=(0j, 0j, 0j), stop_at=1e3)
# s = -2/(1 - 2 lam) near 0: the real path runs into the pole
@example(a=0j, b=0j, z0=0j, dz=1 + 0j, state=(-2 + 0j, 0.5 + 0j, 0j),
         stop_at=math.inf)
# s^2 overflows
@example(a=0j, b=0j, z0=0j, dz=1 + 0j, state=(1e200 + 0j, 0j, 0j),
         stop_at=math.inf)
def test_generated_pair_leg_matches_loop(a, b, z0, dz, state, stop_at):
    """The generated outward pair leg takes the steps of the loop in
    ``oracles``: its hook sees the same states, and it ends with the same
    state, stop and step count, or the same error."""
    args = (state, Potential(a, b), z0, dz)
    assert (_pair_outcome(oscillator._pair_leg, *args, stop_at)
            == _pair_outcome(oracles.pair_taylor_leg, *args, stop_at))


def test_deform_segment_with_an_underflowing_angle():
    """The path bends around the disc even where the angle of an entry
    point underflows (cmath.phase raises OverflowError there)."""
    path = oscillator._deform_segment(complex(50, 1e-323),
                                      complex(-50, 1e-323),
                                      [(0j, 40 / 1.02)])
    assert path[0] == complex(50, 1e-323) and path[-1] == complex(-50, 1e-323)
    assert min(abs(z) for z in path) >= 40 * (1 - 1e-12)


class TestRaySpec:
    def test_bounds_hold_at_start(self, anchor):
        pot = _pot(anchor.point)
        for k in (-2, -1, 0, 1, 2):
            rs = ray_spec(pot, k)
            z = rs.start_point
            v = pot(z)
            assert abs(pot.deriv(z)) / abs(v) ** 1.5 < 1e-10
            w = facing_sqrt(pot, z, cmath.exp(1j * rs.angle))
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
        w = facing_sqrt(pot, z, cmath.exp(1j * rs.angle))
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

    def test_mirrored_legs_match_integrated_ones(self, q1_sequence):
        """At the real q = 1 seeds the legs of rays 1 and -2 are the mirror
        images of rays -1 and 2: they agree with the legs integrated on
        those rays, and G_1 is the exact conjugate of G_0."""
        for seed in q1_sequence:
            pot = _pot(seed.point)
            samples = {}
            G, _ = dependence_system(pot, samples=samples)
            assert G[1] == G[0].conjugate()
            tp = turning_points(pot)
            lam = match_point(tp)
            for k in (1, -2):
                leg = psi_logderivative(pot, ray_spec(pot, k), lam, tp=tp)
                for name in ("s", "ds_da", "ds_db"):
                    want = getattr(leg, name)
                    got = getattr(samples[k], name)
                    assert abs(got - want) <= 1e-12 * (1.0 + abs(want))

    def test_one_turning_point_solve_per_pass(self, anchor, monkeypatch):
        """The four inward legs take the pass's turning points instead of
        solving the cubic again; ``u_values`` hands its own to the ray-0
        leg."""
        calls = []

        def counted(pot, *args):
            calls.append(pot)
            return turning_points(pot, *args)

        monkeypatch.setattr(oscillator, "turning_points", counted)
        pot = _pot(anchor.point)
        samples = {}
        dependence_system(pot, samples=samples)
        u_values(pot, samples=samples)
        assert len(calls) == 2


@pytest.mark.parametrize("where", ["seed", "generic"])
def test_jacobian_matches_central_differences(anchor, where):
    """J of the variational equations against central differences of the
    residual at the same fixed match point."""
    a, b = ((anchor.point.a, anchor.point.b) if where == "seed"
            else (-1.0 + 0.7j, 0.3 - 0.2j))
    lam = match_point(turning_points(Potential(a, b)))
    G, J = dependence_system(Potential(a, b), lam_match=lam)
    assert G == dependence_residual(Potential(a, b), lam_match=lam)

    def residual(av, bv):
        return np.array(dependence_residual(Potential(av, bv), lam_match=lam))

    ha, hb = 1e-5 * (1.0 + abs(a)), 1e-5 * (1.0 + abs(b))
    fd = np.column_stack([(residual(a + ha, b) - residual(a - ha, b)) / (2 * ha),
                          (residual(a, b + hb) - residual(a, b - hb)) / (2 * hb)])
    assert np.abs(np.array(J) - fd).max() <= 1e-6 * np.abs(fd).max()


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

    def test_gap_leaves_the_pole_alone(self, pole_table, q1_sequence):
        """The WKB gap is computed after the Newton loop: without it the
        record is the same in every other field."""
        rec = refine_pole(q1_sequence[2], compute_gap=False)
        assert math.isnan(rec.wkb_gap[0]) and math.isnan(rec.wkb_gap[1])
        with_gap = pole_table["records"][2]
        assert replace(rec, wkb_gap=with_gap.wkb_gap) == with_gap

    def test_newton_certificate(self, pole_table):
        """|J^-1 G| at each returned q = 1 pole bounds its distance to the
        root; it grows with k as the residual's scale shrinks."""
        for rec in pole_table["records"]:
            assert rec.newton_step <= 1e-8
            assert 1.0 <= rec.jacobian_cond < 1e3

    def test_non_finite_jacobian_is_newton_diverged(self, anchor, monkeypatch):
        def nan_jacobian(pot, lam_match=None, rtol=None, samples=None):
            return (0.1 + 0.0j, 0.1 + 0.0j), ((1.0, math.nan), (0.0, 1.0))

        monkeypatch.setattr(oscillator, "dependence_system", nan_jacobian)
        with pytest.raises(NewtonDiverged):
            refine_pole(anchor, compute_gap=False)

    def test_singular_jacobian_is_newton_diverged(self, anchor, monkeypatch,
                                                   capsys):
        from tritronquee.cli import main

        def singular(pot, lam_match=None, rtol=None, samples=None):
            return (0.1 + 0.0j, 0.1 + 0.0j), ((1.0, 2.0), (0.5, 1.0))

        monkeypatch.setattr(oscillator, "dependence_system", singular)
        with pytest.raises(NewtonDiverged, match="singular dependence"):
            refine_pole(anchor, compute_gap=False)
        assert main(["refine", "--n", "1", "--m", "1"]) == 3
        assert "NewtonDiverged" in capsys.readouterr().err

    def test_one_trial_once_polished(self, anchor, monkeypatch):
        """At the noise floor a polish step that does not lower the
        residual ends the refinement: halving it would cost a full
        dependence pass per halving, 20 of them, for noise."""
        pole = anchor.point.a + 1e-3, anchor.point.b + 1e-4
        calls = []

        def noisy_linear(pot, lam_match=None, rtol=None, samples=None):
            # exact on the seed and the first step, then 1e-13 of noise
            noise = 1e-13 if len(calls) >= 2 else 0.0
            calls.append(pot)
            return ((pot.a - pole[0] + noise, pot.b - pole[1] + noise),
                    ((1.0, 0.0), (0.0, 1.0)))

        monkeypatch.setattr(oscillator, "dependence_system", noisy_linear)
        rec = refine_pole(anchor, compute_gap=False)
        # the seed, the Newton step to the pole, one polish trial
        assert len(calls) == 3
        assert abs(rec.pole.a - pole[0]) < 1e-15
        assert abs(rec.pole.b - pole[1]) < 1e-15
        assert rec.dep_residual < 1e-15

    def test_one_pass_per_trial_point(self, anchor, monkeypatch):
        """The Jacobian comes with the residual: central differences made
        84 recessive-solution integrations here."""
        calls = []
        psi = oscillator.psi_logderivative

        def counting(*args, **kwargs):
            calls.append(1)
            return psi(*args, **kwargs)

        monkeypatch.setattr(oscillator, "psi_logderivative", counting)
        refine_pole(anchor, compute_gap=False)
        assert len(calls) <= 28

    @staticmethod
    def _legs_and_passes(seed, monkeypatch):
        passes, legs = [], []
        system = oscillator.dependence_system
        psi = oscillator.psi_logderivative

        def counting_system(*args, **kwargs):
            passes.append(1)
            return system(*args, **kwargs)

        def counting_psi(*args, **kwargs):
            legs.append(1)
            return psi(*args, **kwargs)

        monkeypatch.setattr(oscillator, "dependence_system", counting_system)
        monkeypatch.setattr(oscillator, "psi_logderivative", counting_psi)
        refine_pole(seed)
        return len(legs), len(passes)

    def test_gap_reuses_the_seed_legs(self, anchor, monkeypatch):
        """``u_values`` at the seed takes over the rays 2 and -2 legs of the
        seed's dependence pass and integrates only ray 0.  The anchor and
        its Newton iterates are exactly real, so each pass integrates two
        legs and mirrors the other two."""
        legs, passes = self._legs_and_passes(anchor, monkeypatch)
        assert legs == 2 * passes + 1

    def test_off_the_axis_every_leg_is_integrated(self, coprime_primitives,
                                                  monkeypatch):
        """A non-real seed has no mirror: four legs a pass, plus ray 0."""
        seed = coprime_primitives[QuantumPair(1, 2)]
        legs, passes = self._legs_and_passes(seed, monkeypatch)
        assert legs == 4 * passes + 1


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

    def test_reused_samples_give_identical_values(self, anchor):
        pot = _pot(anchor.point)
        samples = {}
        dependence_system(pot, samples=samples)
        assert sorted(samples) == [-2, -1, 1, 2]
        assert u_values(pot, samples=samples) == u_values(pot)

    def test_samples_from_another_match_point_rejected(self, anchor):
        pot = _pot(anchor.point)
        samples = {}
        dependence_system(pot, lam_match=match_point(turning_points(pot))
                          + 0.1, samples=samples)
        with pytest.raises(ValueError):
            u_values(pot, samples=samples)

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
        evaluation radius; J is final there, so the legs stop after 94
        Taylor steps in all.  Running on to the radius takes 486 and gives
        the same values bit for bit."""
        leg = oscillator._pair_leg
        steps = []

        def counting(y0, pot, z0, dz, rtol, on_accept):
            res = leg(y0, pot, z0, dz, rtol, on_accept)
            steps.append(res.n_steps)
            return res

        def running_on(y0, pot, z0, dz, rtol, on_accept):
            def hook(t, y):
                if y[0] == y[1]:
                    return complex_ode.CONTINUE
                return on_accept(t, y)
            return counting(y0, pot, z0, dz, rtol, hook)

        monkeypatch.setattr(oscillator, "_pair_leg", counting)
        u = u_values(_pot(anchor.point))
        assert 0 < sum(steps) <= 150
        steps.clear()
        monkeypatch.setattr(oscillator, "_pair_leg", running_on)
        assert u_values(_pot(anchor.point)) == u
        assert sum(steps) > 300

    @pytest.mark.parametrize("k, bound", [(0, 5e-14), (2, 2e-11), (4, 1e-8)])
    def test_against_dop853_reference(self, q1_sequence, k, bound,
                                      monkeypatch):
        """The Taylor pair legs against DOP853 at rtol 1e-14 from the same
        inward legs; the DP5(4) legs they replaced were 3.8e-13, 1.6e-10
        and 5.8e-8 off at k = 0, 2 and 4."""
        pot = _pot(q1_sequence[k].point)
        samples = {}
        dependence_system(pot, samples=samples)
        u = u_values(pot, samples=samples)
        monkeypatch.setattr(oscillator, "_integrate_pair_outward",
                            oracles.pair_outward)
        ref = u_values(pot, samples=samples)
        assert max(abs(x - r) for x, r in zip(u, ref)) <= bound

    def test_pole_dodge(self, monkeypatch):
        """At the (2, 1), k = 2 seed one outward leg stops short of a pole
        of a carrier and bends around it; the values agree with the linear
        reference, which needs no dodge, to 1e-10 (DP5(4): 2.1e-10)."""
        seed = descendant(solve_bsb(QuantumPair(2, 1), verify_graph=False), 2)
        pot = _pot(seed.point)
        leg = oscillator._pair_leg
        dodges = []

        def watching(*args):
            res = leg(*args)
            if res.stopped and res.y[0] - res.y[1] != res.y[0]:
                dodges.append(res.t)
            return res

        samples = {}
        dependence_system(pot, samples=samples)
        monkeypatch.setattr(oscillator, "_pair_leg", watching)
        u = u_values(pot, samples=samples)
        assert len(dodges) == 1
        monkeypatch.setattr(oscillator, "_integrate_pair_outward",
                            oracles.pair_outward_linear)
        ref = u_values(pot, samples=samples)
        assert max(abs(x - r) for x, r in zip(u, ref)) <= 1e-10
