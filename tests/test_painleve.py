import cmath
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tritronquee import complex_ode, painleve
from tritronquee.errors import NewtonDiverged, NumericalError, PoleFitFailed
from tritronquee.painleve import (TOL_FIT, laurent_coefficients,
                                  seed_asymptotic, track,
                                  tritronquee_series_coefficients)

import oracles
from oracles import bits, hermite_quintic_residual

#: first real pole and its quartic coefficient (this module is the oracle;
#: the values are cross-validated by chart-parameter halving below)
FIRST_POLE_A = -2.3841687695685
FIRST_POLE_B = -0.0621357388
#: fifth real pole (k = 4), where route 2's reference is least certain
FIFTH_POLE_A = -13.6179947029


#: Relative agreement of a Taylor leg at rtol 1e-13 with DOP853 at rtol
#: 1e-14, set from the step error target before the test was first run.
LEG_AGREEMENT = 1e-9


def _series_eval(table, a, b, z):
    c = oracles.laurent_series(table, a, b)[0]
    t = z - a
    y = sum(cj * t ** (j - 2) for j, cj in enumerate(c))
    yp = sum(cj * (j - 2) * t ** (j - 3) for j, cj in enumerate(c))
    ypp = sum(cj * (j - 2) * (j - 3) * t ** (j - 4) for j, cj in enumerate(c))
    return y, yp, ypp


class TestLaurentCoefficients:
    def test_leading_coefficient_is_one(self):
        table = laurent_coefficients(8)
        assert table.coeffs[0] == {(0, 0): Fraction(1)}
        assert table.coeffs[1] == {}

    def test_resonance_at_quartic_order(self):
        """The free coefficient enters exactly at the quartic power: below
        it nothing depends on b, and the b-derivative there is one."""
        table = laurent_coefficients(8)
        for j in range(6):
            assert all(jb == 0 for (_, jb) in table.coeffs[j])
        assert table.coeffs[6] == {(0, 1): Fraction(1)}
        # the linear system degenerates exactly at the resonance power
        assert (6 - 2) * (6 - 3) - 12 == 0

    def test_known_higher_coefficients(self):
        table = laurent_coefficients(10)
        assert table.coeffs[8] == {(2, 0): Fraction(1, 300)}
        assert table.coeffs[10] == {(1, 1): Fraction(3, 110),
                                    (0, 0): Fraction(1, 264)}

    def test_table_built_once_per_order(self):
        assert laurent_coefficients(8) is laurent_coefficients(8)
        assert laurent_coefficients(8) is not laurent_coefficients(10)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            laurent_coefficients(3)

    @pytest.mark.parametrize("a, b, t", [(-2.4, -0.06, 0.2),
                                         (-13.6 + 0.5j, 0.3 - 0.1j, -0.1j),
                                         (-38.5, 1.7, -0.08 + 0.05j)])
    def test_eval_frame_matches_term_sums(self, a, b, t):
        """Y and Y' equal the term sums of the exact table, and the a- and
        b-derivatives their central differences, up to the differences'
        round-off, about 1e-16 |Y| / h."""
        table = laurent_coefficients(16)
        z = a + t

        def sums(a, b):
            c = [sum(complex(v) * a ** i * b ** k for (i, k), v in p.items())
                 for p in table.coeffs]
            return (sum(cj * (z - a) ** (j - 2) for j, cj in enumerate(c)),
                    sum(cj * (j - 2) * (z - a) ** (j - 3)
                        for j, cj in enumerate(c)))

        y, yp, y_a, y_b, yp_a, yp_b = table.eval_frame(a, b, z)
        assert max(abs(u - v) / abs(v)
                   for u, v in zip((y, yp), sums(a, b))) < 1e-13
        h = 1e-6
        for da, db, got in ((h, 0, (y_a, yp_a)), (0, h, (y_b, yp_b))):
            hi, lo = sums(a + da, b + db), sums(a - da, b - db)
            for g, u, v in zip(got, hi, lo):
                assert abs(g - (u - v) / (2 * h)) < 1e-7 * (1 + abs(u))

    def test_truncated_series_residual_order(self):
        """Substituting the order-8 table into the equation leaves a
        residual O((z-a)^7): halving the distance divides it by ~2^7."""
        table = laurent_coefficients(8)
        a, b = -2.1 + 0.3j, -0.05 - 0.02j
        res = []
        for t in (0.2, 0.1):
            z = a + t
            y, yp, ypp = _series_eval(table, a, b, z)
            res.append(abs(ypp - 6.0 * y * y + z))
        ratio = res[0] / res[1]
        assert 60.0 < ratio < 260.0


class TestAsymptoticSeries:
    def test_first_correction_coefficient(self):
        c = tritronquee_series_coefficients(4)
        assert c[0] == 1.0
        assert abs(c[1] - 1.0 / (8.0 * math.sqrt(6.0))) < 1e-15

    def test_leading_value(self):
        st = seed_asymptotic(40.0)
        lead = -math.sqrt(40.0 / 6.0)
        assert abs(st.y - lead) < 1e-3 * abs(lead)
        # correction is O(|z|^{-5/2}) relative
        assert abs(st.y - lead) > 1e-7 * abs(lead)

    def test_state_holds_python_complex(self):
        st = seed_asymptotic(40.0)
        assert type(st.y) is complex and type(st.yp) is complex

    def test_two_radius_certification(self):
        # seed_asymptotic raises unless the 2*z0 -> z0 integration matches
        st = seed_asymptotic(40.0)
        st2 = seed_asymptotic(80.0)
        assert st.chart == "regular" and st2.chart == "regular"

    def test_rejects_small_radius_and_bad_sector(self):
        with pytest.raises(ValueError):
            seed_asymptotic(5.0)
        with pytest.raises(ValueError):
            seed_asymptotic(40.0 * cmath.exp(1j * 0.9 * math.pi))

    @pytest.mark.parametrize("z0", [2e4, 1e6, 1e150])
    def test_rejects_radius_above_the_cross_check_reach(self, z0):
        # the leg from 2 z0 would run for seconds and then fail
        t0 = time.monotonic()
        with pytest.raises(ValueError, match="above the largest seeding"):
            seed_asymptotic(z0)
        assert time.monotonic() - t0 < 0.1


class TestTrack:
    def test_first_real_pole(self):
        st = seed_asymptotic(40.0)
        _, poles = track(st, [40.0, -3.5])
        assert len(poles) == 1
        assert abs(poles[0].a - FIRST_POLE_A) < 1e-6
        assert abs(poles[0].b - FIRST_POLE_B) < 1e-6
        assert abs(poles[0].a.imag) < 1e-10

    def test_real_poles_against_mpmath_oracle(self):
        """The first three real poles lie within 1e-12 of a 34-digit Taylor
        integration with Laurent fits (measured: 4.3e-14 at most), and
        their b within 1e-10 (1.6e-11)."""
        _, poles = track(seed_asymptotic(40.0), [40.0, -9.0])
        ref = oracles.pi_real_poles(3)
        assert len(poles) == 3
        for pole, (a, b) in zip(poles, ref):
            assert abs(pole.a - a) <= 1e-12
            assert abs(pole.b - b) <= 1e-10

    def test_chart_parameter_invariance(self):
        st = seed_asymptotic(40.0)
        _, p_ref = track(st, [40.0, -3.5])
        _, p_half_radius = track(st, [40.0, -3.5], fit_radius=0.125)
        _, p_half_blowup = track(st, [40.0, -3.5], blowup_threshold=5e3)
        assert abs(p_half_radius[0].a - p_ref[0].a) < 1e-8
        assert abs(p_half_blowup[0].a - p_ref[0].a) < 1e-8

    def test_real_pole_ladder(self):
        st = seed_asymptotic(40.0)
        _, poles = track(st, [40.0, -12.0])
        assert len(poles) == 4
        assert all(abs(p.a.imag) < 1e-9 for p in poles)
        assert all(p.fit_residual < 1e-6 for p in poles)
        gaps = np.diff([p.a.real for p in poles])
        assert all(g < 0 for g in gaps)

    def test_fit_residual_compares_two_fits(self):
        """The second Laurent fit starts from its own blow-up estimate, so
        the two fits are independent and their disagreement is not 0.  It
        is the sum of the fits' disagreements on a and on b."""
        st = seed_asymptotic(40.0)
        _, poles = track(st, [40.0, -12.0])
        assert len(poles) == 4
        assert all(0.0 < p.fit_residual < TOL_FIT for p in poles)
        for p in poles:
            assert p.fit_residual == p.fit_residual_a + p.fit_residual_b
            assert p.fit_residual_b > 0.0

    def test_reach_past_eight_real_poles(self):
        st = seed_asymptotic(40.0)
        _, poles = track(st, [40.0, -22.0])
        assert len(poles) == 8
        assert all(abs(p.a.imag) < 1e-9 for p in poles)
        assert all(np.diff([p.a.real for p in poles]) < 0)
        assert abs(poles[4].a - FIFTH_POLE_A) < 1e-9

    def test_reach_past_sixteen_real_poles(self):
        """The Laurent fit stops at its round-off floor, which grows with
        |a|, instead of at a fixed 1e-13."""
        st = seed_asymptotic(40.0)
        _, poles = track(st, [40.0, -40.0])
        assert len(poles) == 17
        assert all(abs(p.a.imag) < 1e-9 for p in poles)
        assert all(np.diff([p.a.real for p in poles]) < 0)
        assert all(0.0 < p.fit_residual < TOL_FIT for p in poles)

    def test_dense_ode_residual(self):
        st = seed_asymptotic(40.0)
        records = []
        track(st, [40.0, 5.0], record_to=records)
        assert len(records) > 100
        assert hermite_quintic_residual(records) < 1e-10

    def test_laurent_round_trip(self):
        st = seed_asymptotic(40.0)
        final, poles = track(st, [40.0, -3.5])
        assert len(poles) == 1
        back, back_poles = track(final, [final.z, 40.0])
        assert len(back_poles) == 1
        assert abs(back.y - st.y) < 1e-8
        assert abs(back.yp - st.yp) < 1e-8

    def test_path_independence(self):
        st = seed_asymptotic(40.0)
        _, pA = track(st, [40.0, -3.5])
        _, pB = track(st, [40.0, 6.0, 5.5 + 0.5j, -0.5 + 0.5j, -1.0, -3.5])
        assert abs(pA[0].a - pB[0].a) < 1e-8

    def test_conjugate_path_gives_conjugate_poles(self):
        st = seed_asymptotic(40.0)
        path = [40.0, 6.0, 5.5 + 0.5j, -0.5 + 0.5j, -1.0, -3.5]
        _, p_up = track(st, path)
        _, p_dn = track(st, [z.conjugate() if isinstance(z, complex) else z
                             for z in path])
        assert len(p_up) == len(p_dn) == 1
        assert abs(p_up[0].a - p_dn[0].a.conjugate()) < 1e-10
        assert abs(p_up[0].b - p_dn[0].b.conjugate()) < 1e-10

    def test_path_must_start_at_state(self):
        st = seed_asymptotic(40.0)
        with pytest.raises(ValueError):
            track(st, [30.0, -3.5])

    def test_fit_disagreement_raises(self):
        # a coarse integration makes the two-radius fits genuinely disagree
        st = seed_asymptotic(40.0)
        with pytest.raises(PoleFitFailed):
            track(st, [40.0, -3.5], tol_fit=1e-14, rtol=1e-7)

    def test_final_state_inside_pole_region_is_laurent(self):
        st = seed_asymptotic(40.0)
        final, poles = track(st, [40.0, FIRST_POLE_A + 0.05])
        assert len(poles) == 1
        assert final.chart == "laurent"
        assert abs(final.laurent_center - poles[0].a) < 1e-9


def _complex(magnitude):
    return st.complex_numbers(max_magnitude=magnitude, allow_nan=False,
                              allow_infinity=False)


def _stop_above(level):
    def on_accept(t, y):
        if abs(y[0]) > level:
            return complex_ode.STOP
        return complex_ode.CONTINUE

    return on_accept


@settings(max_examples=60, deadline=None)
@given(z0=_complex(2.0), dz=_complex(1.5),
       state=st.tuples(_complex(2.0), _complex(2.0)),
       stop_at=st.floats(2.0, 100.0))
# the fixed point of y(z) -> w^2 y(w z): a_19 = a_20 = 0 at every step
@example(z0=0j, dz=1 + 0j, state=(0j, 0j), stop_at=2.0)
def test_taylor_leg_matches_dop853(z0, dz, state, stop_at):
    """A Taylor leg agrees with the DOP853 leg it replaced, run at rtol
    1e-14 on the frozen closure path.  Where the reference stops because
    |y| passed ``stop_at`` (a pole is near) or raises, the Taylor leg stops
    too or raises a ``NumericalError``.  Its steps are longer, so it stops
    at a quarter of that level: |y| ~ (z-a)^-2 then still lands inside
    the disc the reference entered."""
    stop = _stop_above(stop_at)
    try:
        ref = oracles.closure_integrate(
            oracles.pi_leg(z0, (z0 + dz) - z0), 0.0, 1.0, state, rtol=1e-14,
            atol=1e-14, on_accept=lambda t, y: (y, stop(t, y)),
            max_steps=20_000, tableau=oracles.DOP853)
    except NumericalError:
        ref = None
    if ref is None or ref.stopped:
        try:
            res, _ = painleve._pi_leg(state, z0, z0 + dz, 1e-13,
                                      _stop_above(stop_at / 4.0))
        except NumericalError:
            return
        assert res.stopped
        return
    res, z_end = painleve._pi_leg(state, z0, z0 + dz, 1e-13)
    assert not res.stopped and res.t == 1.0 and z_end == z0 + dz
    for got, want in zip(res.y, ref.y):
        assert abs(got - want) <= LEG_AGREEMENT * (1.0 + abs(want))


def test_route_three_work_count(monkeypatch):
    """Seeding at 40 and tracking to -12 through four poles takes at most
    400 Taylor steps over all legs (DOP853 took 2,033)."""
    steps = []
    leg = painleve._pi_leg

    def counted(*args, **kwargs):
        res = leg(*args, **kwargs)
        steps.append(res[0].n_steps)
        return res

    monkeypatch.setattr(painleve, "_pi_leg", counted)
    _, poles = track(seed_asymptotic(40.0), [40.0, -12.0])
    assert len(poles) == 4
    assert sum(steps) <= 400


def test_real_track_runs_float_legs(monkeypatch):
    """On the real axis every Taylor leg, the seed's cross-check and the
    nine of ``track`` to -12, runs the float kernel, also after each pole,
    whose Laurent frame leaves imaginary parts -0.0."""
    numbers = []
    kernel = complex_ode.taylor_kernel

    def spy(eq, name, number=complex):
        numbers.append(number)
        return kernel(eq, name, number)

    monkeypatch.setattr(complex_ode, "taylor_kernel", spy)
    _, poles = track(seed_asymptotic(40.0), [40.0, -12.0])
    assert len(poles) == 4
    assert numbers == [float] * 10


def test_track_many_waypoints():
    """249 legs that pass no pole: the guard bounds pole passes per leg,
    not the number of legs."""
    waypoints = [40.0 - 0.1 * i for i in range(250)]
    final, poles = track(seed_asymptotic(40.0), waypoints)
    assert poles == []
    assert final.z == waypoints[-1]
    direct, _ = track(seed_asymptotic(40.0), [40.0, waypoints[-1]])
    assert abs(final.y - direct.y) <= 1e-9 * abs(direct.y)
    assert abs(final.yp - direct.yp) <= 1e-9 * abs(direct.yp)


def test_track_stuck_pole_pass_raises(monkeypatch):
    """Pole passes whose exit lands behind their entry never advance the
    path; the guard still ends them."""
    state = seed_asymptotic(40.0)

    def stop_at_start(y, z0, z1, rtol, on_accept=None):
        return complex_ode.IntegrationResult(0.0, y, True, 0), z0

    # a pole 1e-7 behind each fit point: the two fits agree to 2e-8, and
    # each exit lands 2.2e-7 behind its entry
    monkeypatch.setattr(painleve, "_pi_leg", stop_at_start)
    monkeypatch.setattr(painleve, "_fit_pole",
                        lambda table, z, y, yp, a0: (z + 1e-7, 0j))
    with pytest.raises(NewtonDiverged, match="did not settle"):
        track(state, [40.0, -12.0])


@settings(max_examples=300, deadline=None)
@given(y=_complex(20.0), yp=_complex(60.0), zc=_complex(50.0),
       s=_complex(0.5))
# the fixed point of y(z) -> w^2 y(w z): a_19 = a_20 = 0
@example(y=0j, yp=0j, zc=0j, s=0.3 + 0j)
def test_generated_taylor_kernels_match_loops(y, yp, zc, s):
    """The generated recurrence and Horner sums equal the frozen loops."""
    a = painleve._taylor_kernel("coefficients")(y, yp, zc)
    ref = oracles.taylor_coefficients(y, yp, zc)
    assert bits(a) == bits(ref)
    got = painleve._taylor_kernel("evaluate")(a, s)
    assert bits(got) == bits(oracles.taylor_eval(ref, s))


def _leg_outcome(leg, *args):
    try:
        res, z_end = leg(*args)
    except NumericalError as exc:
        return type(exc), str(exc)
    return res.t, bits(res.y), res.stopped, res.n_steps, bits([z_end])


@settings(max_examples=60, deadline=None)
@given(z0=_complex(2.0), dz=_complex(1.5),
       state=st.tuples(_complex(2.0), _complex(2.0)),
       stop_at=st.floats(2.0, 100.0))
# the fixed point again: a_19 = a_20 = 0 at every step
@example(z0=0j, dz=1 + 0j, state=(0j, 0j), stop_at=2.0)
def test_generated_leg_matches_loop(z0, dz, state, stop_at):
    """The generated leg takes the steps of the frozen loop: the same end
    point, state, step count and stop, or the same error."""
    args = (state, z0, z0 + dz, 1e-13, _stop_above(stop_at))
    assert (_leg_outcome(painleve._pi_leg, *args)
            == _leg_outcome(oracles.taylor_leg, *args))


@settings(max_examples=200, deadline=None)
@given(order=st.sampled_from([8, 16]), a=_complex(40.0), b=_complex(5.0),
       t=st.complex_numbers(min_magnitude=1e-3, max_magnitude=1.0,
                            allow_nan=False, allow_infinity=False))
def test_generated_frame_matches_loops(order, a, b, t):
    """The generated Laurent frame equals the frozen loop sums."""
    table = laurent_coefficients(order)
    assert (bits(table.eval_frame(a, b, a + t))
            == bits(oracles.laurent_frame(table, a, b, a + t)))
