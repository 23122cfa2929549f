import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tritronquee import complex_ode, oscillator
from tritronquee.bsb import QuantumPair, descendant, solve_bsb
from tritronquee.elliptic import Potential, facing_sqrt, turning_points
from tritronquee.errors import (NewtonDiverged, NumericalError,
                                OdeToleranceNotMet, OutsideDisc,
                                PathNearTurningPoint, StepUnderflow)
from tritronquee.oscillator import (RaySpec, dependence_residual,
                                    match_point, psi_logderivative, ray_spec,
                                    refine_pole, u_values, _wkb_logderivative)

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


def _stopping_hook(stop_at):
    """Stops once |y_0| exceeds ``stop_at``."""
    def on_accept(t, y):
        return complex_ode.STOP if abs(y[0]) > stop_at else complex_ode.CONTINUE

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
       stop_at=st.floats(2.0, 100.0))
# at V near 0 the state creeps through the switch thresholds, |s| = 50 on
# the s chart and |r| = 0.04 on the r chart, over many steps, so a
# threshold that is off moves the stop
@example(a=0j, b=0j, z0=0j, dz=0.001 + 0j, state=(-49 + 0j, 0j, 0j),
         stop_at=100.0)
@example(a=0j, b=0j, z0=0j, dz=0.01 + 0j, state=(0.039 + 0j, 0j, 0j),
         stop_at=100.0)
def test_inlined_legs_match_the_closure_path(leg, a, b, z0, dz, state,
                                             stop_at):
    """Each right-hand side written into the generated kernel, with its
    stop source, takes the steps and values of the closure it replaced on
    the old integrator with the chart loop's hook (both frozen in
    ``oracles``, whose hook hands back the state with the action), bit
    for bit, including its failures.  Both also run the test's own hook;
    the stop source runs before it."""
    stop = _stopping_hook(stop_at)
    pot = Potential(a, b)
    rtol = 1e-10

    def new_path():
        rhs = {"s-chart": oscillator._S_CHART,
               "r-chart": oscillator._R_CHART}[leg]
        return complex_ode.integrate(
            rhs, 0.0, 1.0, state, rtol=rtol, atol=1e-13, on_accept=stop,
            max_steps=3000, args=oscillator._leg_args(pot, z0, dz))

    def closure_path():
        closure, hook = {
            "s-chart": (oracles.s_chart, oracles.s_chart_hook),
            "r-chart": (oracles.r_chart, oracles.r_chart_hook)}[leg]
        switch = hook(pot, z0, dz)

        def on_accept(t, y):
            if switch(t, y) == complex_ode.STOP:
                return y, complex_ode.STOP
            return y, stop(t, y)

        return oracles.closure_integrate(
            closure(pot, z0, dz), 0.0, 1.0, state, rtol=rtol, atol=1e-13,
            on_accept=on_accept, max_steps=3000, error_dims=1)

    assert _outcome(new_path) == _outcome(closure_path)


def _inward_outcome(pot, k, lam, value_only=False):
    """The bits of (s, ds/da, ds/db) of ``psi_logderivative``, of s alone
    for its value-only leg, or its error."""
    try:
        x = psi_logderivative(pot, ray_spec(pot, k), lam,
                              _value_only=value_only)
    except (NumericalError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return bits([x.s] if value_only else [x.s, x.ds_da, x.ds_db])


@settings(max_examples=30, deadline=None)
@given(a=_complex(12.0), b=_complex(1.0), k=st.integers(-2, 2),
       lam=_complex(3.0))
# zeros of psi_0 on the real axis of (10, 0), as in
# TestLogDerivative::test_blow_through_psi_zeros: the leg to 0.7 ends in the
# r chart, the one to 1.7 passes into it and back
@example(a=10 + 0j, b=0j, k=0, lam=0.7 + 0j)
@example(a=10 + 0j, b=0j, k=0, lam=1.7 + 0j)
# turning points of modulus 1e-36: no sample of the straight path passes
# the hand-off threshold, so the WKB jet is taken at lam = 0 beside the
# roots, where 8 V^2 w^2 underflows to 0, before any chart runs
@example(a=0j, b=2.4236067487187673e-110j, k=0, lam=0j)
def test_compiled_chart_switch_matches_the_chart_loop(a, b, k, lam):
    """An inward leg whose charts switch by their stop sources gives the
    chart loop with the hooks (frozen in ``oracles``) bit for bit, errors
    included (numerical ones and the hand-off's arithmetic ones), and the
    value-only leg gives its s."""
    pot = Potential(a, b)
    compiled = _inward_outcome(pot, k, lam)
    value_only = _inward_outcome(pot, k, lam, value_only=True)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oscillator, "_integrate_s_inward",
                      oracles.chart_loop_inward)
        frozen = _inward_outcome(pot, k, lam)
    assert compiled == frozen
    assert value_only == (compiled[:1] if isinstance(compiled, list)
                          else compiled)


def _psi_pair_outcome(leg, state, pot, z0, dz, stop_at):
    """What an outward leg does: every (t, state) its hook sees, then its
    end (t, state, stopped, steps) or its error."""
    seen = []

    def on_accept(t, y):
        seen.append((t, bits(y)))
        if abs(y[0]) + abs(y[2]) > stop_at:
            return complex_ode.STOP
        return complex_ode.CONTINUE

    try:
        res = leg(state, pot, z0, dz, 1e-12, on_accept)
    except (OdeToleranceNotMet, StepUnderflow) as exc:
        return seen, type(exc), str(exc)
    return seen, res.t, bits(res.y), res.stopped, res.n_steps


def _generated_psi_pair_leg(state, pot, z0, dz, rtol, on_accept):
    return complex_ode.taylor_leg(oscillator._PSI_PAIR, state, z0, dz, rtol,
                                  on_accept, (2.0 * pot.a, 28.0 * pot.b))


@settings(max_examples=60, deadline=None)
@given(a=_complex(3.0), b=_complex(1.0), z0=_complex(2.0), dz=_complex(3.0),
       state=st.tuples(*[_complex(3.0)] * 4), stop_at=st.floats(2.0, 1e6))
# a = b = 0 at z = 0: psi_A = 1 + ... has only the powers 0, 5, ..., 20
# and psi_B = lam + ... only 1, 6, 11, 16, so psi_A alone bounds the step
@example(a=0j, b=0j, z0=0j, dz=1 + 0j, state=(1 + 0j, 0j, 0j, 1 + 0j),
         stop_at=1e6)
# the coefficients overflow
@example(a=0j, b=0j, z0=10 + 0j, dz=1 + 0j,
         state=(1e300 + 0j, 0j, 1 + 0j, 0j), stop_at=math.inf)
def test_generated_psi_pair_matches_loops(a, b, z0, dz, state, stop_at):
    """The outward legs' generated recurrence equals the frozen loop bit for
    bit, and their generated leg takes its steps: its hook sees the same
    states, and it ends with the same state, stop and step count, or the
    same error."""
    pot = Potential(a, b)
    coefficients = complex_ode.taylor_kernel(oscillator._PSI_PAIR,
                                             "coefficients")
    assert (bits(coefficients(*state, z0, 2.0 * pot.a, 28.0 * pot.b))
            == bits(oracles.psi_pair_coefficients(*state, z0, 2.0 * pot.a,
                                                  28.0 * pot.b)))
    args = (state, pot, z0, dz, stop_at)
    assert (_psi_pair_outcome(_generated_psi_pair_leg, *args)
            == _psi_pair_outcome(oracles.psi_pair_leg, *args))


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


@pytest.mark.parametrize("pot, z", [
    # the end-of-path hand-off at lam = 0 beside roots of modulus 1e-36,
    # where 8 V^2 w^2 underflows to 0
    (Potential(0j, 2.4236067487187673e-110j), None),
    # V^2 overflows
    (Potential(0j, 0j), 1e150 + 0j)])
def test_wkb_jet_that_is_not_finite_is_named(pot, z):
    """A WKB jet that divides by zero or is not finite raises
    ``PathNearTurningPoint``, not ``ZeroDivisionError``."""
    with pytest.raises(PathNearTurningPoint, match="jet is not finite"):
        if z is None:
            psi_logderivative(pot, ray_spec(pot, 0), 0j)
        else:
            oscillator._wkb_jet(pot, z, 1.0 + 0j)


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

    def test_blow_through_psi_zeros(self, monkeypatch):
        """On the real axis of (10, 0) the recessive solution oscillates, so
        the log-derivative passes through poles.  The leg to 1.7 runs
        from the edge of the disc about sqrt(5) through a zero of psi, and
        the inverse chart carries the flow across (two chart switches);
        the leg to 0.7 ends near a zero, in the inverse chart (one).  The
        linear oracle confirms both values."""
        stops = []
        integrate = complex_ode.integrate

        def counting(*args, **kwargs):
            res = integrate(*args, **kwargs)
            stops.append(res.stopped)
            return res

        monkeypatch.setattr(complex_ode, "integrate", counting)
        pot = Potential(10.0, 0.0)
        tp = turning_points(pot)
        rs = ray_spec(pot, 0)
        for lam, switches in ((1.7, 2), (0.7, 1)):
            stops.clear()
            s_ric = psi_logderivative(pot, rs, lam).s
            assert sum(stops) == switches
            s_lin = linear_logderivative(pot, tp, rs, lam)
            assert abs(s_ric - s_lin) < 1e-8 * max(1.0, abs(s_ric))

    def test_match_point_near_turning_point_rejected(self, anchor):
        pot = _pot(anchor.point)
        tp = turning_points(pot)
        with pytest.raises(PathNearTurningPoint):
            psi_logderivative(pot, ray_spec(pot, 0), tp.roots[0])


class TestDependenceResidual:
    def test_conjugation_symmetry_real_slice(self, anchor):
        r, _ = dependence_residual(_pot(anchor.point))
        assert abs(r[1] - r[0].conjugate()) < 1e-9

    def test_regression_anchor_at_generic_point(self):
        r, _ = dependence_residual(Potential(0.0, 1.0))
        assert abs(r[0]) > 1.0 and abs(r[1]) > 1.0
        assert abs(r[0] - DEP_AT_0_1[0]) < 1e-6
        assert abs(r[1] - DEP_AT_0_1[1]) < 1e-6

    def test_small_but_nonzero_near_solution(self, anchor):
        r, _ = dependence_residual(_pot(anchor.point))
        norm = abs(r[0]) + abs(r[1])
        assert 1e-4 < norm < 1.0

    def test_mirrored_legs_match_integrated_ones(self, q1_sequence):
        """At the real q = 1 seeds a pass takes the legs of rays 1 and -2 as
        the mirror images of rays -1 and 2: G and J are those of the
        integrated rays -1 and 2 and their conjugates, G_1 is the exact
        conjugate of G_0, and the mirror images agree with the legs
        integrated on rays 1 and -2."""
        for seed in q1_sequence:
            pot = _pot(seed.point)
            G, J = dependence_residual(pot)
            assert G[1] == G[0].conjugate()
            tp = turning_points(pot)
            lam = match_point(tp)
            leg = {k: psi_logderivative(pot, ray_spec(pot, k), lam, tp=tp)
                   for k in (-1, 2, 1, -2)}
            mirror = {k: [getattr(leg[-k], name).conjugate()
                          for name in ("s", "ds_da", "ds_db")]
                      for k in (1, -2)}
            assert G == (leg[-1].s - leg[2].s, mirror[1][0] - mirror[-2][0])
            assert J == ((leg[-1].ds_da - leg[2].ds_da,
                          leg[-1].ds_db - leg[2].ds_db),
                         (mirror[1][1] - mirror[-2][1],
                          mirror[1][2] - mirror[-2][2]))
            for k in (1, -2):
                for name, got in zip(("s", "ds_da", "ds_db"), mirror[k]):
                    want = getattr(leg[k], name)
                    assert abs(got - want) <= 1e-12 * (1.0 + abs(want))

    def test_one_turning_point_solve_per_pass(self, anchor, monkeypatch):
        """The four inward legs take the pass's turning points instead of
        solving the cubic again; ``u_values`` hands its own to its inward
        legs."""
        calls = []

        def counted(pot, *args):
            calls.append(pot)
            return turning_points(pot, *args)

        monkeypatch.setattr(oscillator, "turning_points", counted)
        pot = _pot(anchor.point)
        dependence_residual(pot)
        u_values(pot)
        assert len(calls) == 2


@pytest.mark.parametrize("where", ["seed", "generic"])
def test_jacobian_matches_central_differences(anchor, where):
    """J of the variational equations against central differences of the
    residual at the same fixed match point."""
    a, b = ((anchor.point.a, anchor.point.b) if where == "seed"
            else (-1.0 + 0.7j, 0.3 - 0.2j))
    lam = match_point(turning_points(Potential(a, b)))
    _, J = dependence_residual(Potential(a, b), lam_match=lam)

    def residual(av, bv):
        G, _ = dependence_residual(Potential(av, bv), lam_match=lam)
        return np.array(G)

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

    def test_large_k_is_converged_or_named(self, anchor):
        """At q = 1 the Jacobian shrinks like e^(-2.9 k) while G's noise
        does not: from k = 6 the seed's residual is already at the noise
        floor, and at k = 5, where Newton ends about 5e-8 from route
        3, the certificate is 1.03e-9 (1 + |a|), just above the gate.
        Every entry is within 1e-8 of route 3, or a named error, never the
        unmoved seed returned as a pole."""
        from tritronquee.painleve import seed_asymptotic, track

        _, route3 = track(seed_asymptotic(40.0), [40.0, -42.0])
        for k in range(5, 17):
            seed = descendant(anchor, k)
            try:
                rec = refine_pole(seed, compute_gap=False)
            except NumericalError:
                continue
            assert min(abs(rec.pole.a - p.a) for p in route3) < 1e-8, k

    def test_non_finite_jacobian_is_newton_diverged(self, anchor, monkeypatch):
        def nan_jacobian(pot, lam_match=None, rtol=None):
            return (0.1 + 0.0j, 0.1 + 0.0j), ((1.0, math.nan), (0.0, 1.0))

        monkeypatch.setattr(oscillator, "dependence_residual", nan_jacobian)
        with pytest.raises(NewtonDiverged):
            refine_pole(anchor, compute_gap=False)

    def test_singular_jacobian_is_newton_diverged(self, anchor, monkeypatch,
                                                   capsys):
        from tritronquee.cli import main

        def singular(pot, lam_match=None, rtol=None):
            return (0.1 + 0.0j, 0.1 + 0.0j), ((1.0, 2.0), (0.5, 1.0))

        monkeypatch.setattr(oscillator, "dependence_residual", singular)
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

        def noisy_linear(pot, lam_match=None, rtol=None):
            # exact on the seed and the first step, then 1e-13 of noise
            noise = 1e-13 if len(calls) >= 2 else 0.0
            calls.append(pot)
            return ((pot.a - pole[0] + noise, pot.b - pole[1] + noise),
                    ((1.0, 0.0), (0.0, 1.0)))

        monkeypatch.setattr(oscillator, "dependence_residual", noisy_linear)
        rec = refine_pole(anchor, compute_gap=False)
        # the seed, the Newton step to the pole, one polish trial
        assert len(calls) == 3
        assert abs(rec.pole.a - pole[0]) < 1e-15
        assert abs(rec.pole.b - pole[1]) < 1e-15
        assert rec.dep_residual < 1e-15

    def test_failed_trial_is_halved(self, anchor, pole_table, monkeypatch):
        """A trial point whose pass raises a ``NumericalError`` is a failed
        trial, like one that does not lower the residual: the step is
        halved, and the refinement goes on to the same pole."""
        points = []
        system = oscillator.dependence_residual

        def blocked_first_trial(pot, *args, **kwargs):
            points.append((pot.a, pot.b))
            if len(points) == 2:
                raise PathNearTurningPoint("blocked trial")
            return system(pot, *args, **kwargs)

        monkeypatch.setattr(oscillator, "dependence_residual",
                            blocked_first_trial)
        rec = refine_pole(anchor, compute_gap=False)
        seed, full, half = points[:3]
        for i in range(2):
            assert abs(half[i] - (seed[i] + full[i]) / 2) <= 1e-15 * abs(seed[i])
        assert abs(rec.pole.a - pole_table["records"][0].pole.a) < 1e-12
        assert rec.dep_residual < oscillator.TOL_DEP

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
        system = oscillator.dependence_residual
        psi = oscillator.psi_logderivative

        def counting_system(*args, **kwargs):
            passes.append(1)
            return system(*args, **kwargs)

        def counting_psi(*args, **kwargs):
            legs.append(1)
            return psi(*args, **kwargs)

        monkeypatch.setattr(oscillator, "dependence_residual", counting_system)
        monkeypatch.setattr(oscillator, "psi_logderivative", counting_psi)
        refine_pole(seed)
        return len(legs), len(passes)

    def test_gap_mirrors_ray_two_on_the_axis(self, anchor, monkeypatch):
        """The anchor and its Newton iterates are exactly real, so each pass
        integrates two legs and mirrors the other two, and ``u_values`` at
        the seed integrates rays 0 and 2 and mirrors ray -2."""
        legs, passes = self._legs_and_passes(anchor, monkeypatch)
        assert legs == 2 * passes + 2

    def test_off_the_axis_every_leg_is_integrated(self, coprime_primitives,
                                                  monkeypatch):
        """A non-real seed has no mirror: four legs a pass, plus rays 0, 2
        and -2 for the gap."""
        seed = coprime_primitives[QuantumPair(1, 2)]
        legs, passes = self._legs_and_passes(seed, monkeypatch)
        assert legs == 4 * passes + 3


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
        pot = Potential(pole.a, pole.b)
        u2, um2 = u_values(pot)
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
        """The carriers' log-derivatives become one float long before the
        evaluation radius, where psi_A / psi_B is final up to rounding, so
        the legs stop after 150 Taylor steps in all.  Running on to the
        radius takes 1,592 and moves u by 4.2e-15: past coalescence the
        ratio still carries a subdominant part below an ulp."""
        leg = complex_ode.taylor_leg
        steps = []

        def counting(*args):
            res = leg(*args)
            if args[0] is oscillator._PSI_PAIR:
                steps.append(res.n_steps)
            return res

        def rescale_only(t, y):
            if abs(y[2]) > oscillator._RESCALE:
                return complex_ode.STOP
            return complex_ode.CONTINUE

        pot = _pot(anchor.point)
        monkeypatch.setattr(complex_ode, "taylor_leg", counting)
        u = u_values(pot)
        assert 0 < sum(steps) <= 200
        steps.clear()
        monkeypatch.setattr(oscillator, "_coalesced_or_large", rescale_only)
        u_on = u_values(pot)
        assert max(abs(x - y) for x, y in zip(u, u_on)) <= 5e-15
        assert sum(steps) > 1000

    def test_value_only_ray_0_leg(self, q1_sequence, coprime_primitives,
                                  monkeypatch):
        """At the q = 1 seeds k = 0..4 and the (2, 1) seeds k = 0..2 the
        ray-0 leg on the value-only charts gives the s of the
        3-component leg bit for bit, and ``u_values`` the values it gives
        on 3-component legs."""
        primitive = coprime_primitives[QuantumPair(2, 1)]
        seeds = list(q1_sequence) + [descendant(primitive, k) if k
                                     else primitive for k in range(3)]
        psi = oscillator.psi_logderivative

        def three_components(*args, _value_only=False, **kwargs):
            return psi(*args, **kwargs)

        for seed in seeds:
            pot = _pot(seed.point)
            tp = turning_points(pot)
            lam = match_point(tp)
            ray = ray_spec(pot, 0)
            leg = psi(pot, ray, lam, tp=tp, _value_only=True)
            assert bits([leg.s]) == bits([psi(pot, ray, lam, tp=tp).s])
            assert cmath.isnan(leg.ds_da) and cmath.isnan(leg.ds_db)
            u = u_values(pot)
            with monkeypatch.context() as patch:
                patch.setattr(oscillator, "psi_logderivative",
                              three_components)
                assert u_values(pot) == u

    @pytest.mark.parametrize("k, bound", [(0, 5e-14), (2, 2e-11), (4, 1e-8)])
    def test_against_dop853_reference(self, q1_sequence, k, bound,
                                      monkeypatch):
        """The Taylor pair legs against DOP853 at rtol 1e-14 from the same
        inward legs; the DP5(4) legs they replaced were 3.8e-13, 1.6e-10
        and 5.8e-8 off at k = 0, 2 and 4."""
        pot = _pot(q1_sequence[k].point)
        u = u_values(pot)
        monkeypatch.setattr(oscillator, "_integrate_pair_outward",
                            oracles.pair_outward)
        ref = u_values(pot)
        assert max(abs(x - r) for x, r in zip(u, ref)) <= bound

    def test_legs_pass_a_zero_of_psi(self, monkeypatch):
        """At the (2, 1), k = 2 seed a carrier of one outward leg passes
        near a zero of psi, a pole of its log-derivative, where a Riccati
        leg had to bend around it.  psi is entire: every leg runs through
        to coalescence, stopping nowhere else but to rescale, and the
        values agree with the linear DOP853 reference to 1e-10 (3.4e-12
        measured; the Riccati leg with its detour: 1.1e-11)."""
        seed = descendant(solve_bsb(QuantumPair(2, 1), verify_graph=False), 2)
        pot = _pot(seed.point)
        leg = complex_ode.taylor_leg
        ends = []

        def watching(*args):
            res = leg(*args)
            if args[0] is not oscillator._PSI_PAIR:
                return res
            pa, dpa, pb, dpb = res.y
            if res.stopped and abs(pb) <= oscillator._RESCALE:
                ends.append(dpa / pa == dpb / pb)
            return res

        monkeypatch.setattr(complex_ode, "taylor_leg", watching)
        u = u_values(pot)
        assert ends == [True] * 4
        monkeypatch.undo()
        monkeypatch.setattr(oscillator, "_integrate_pair_outward",
                            oracles.pair_outward_linear)
        ref = u_values(pot)
        assert max(abs(x - r) for x, r in zip(u, ref)) <= 1e-10
