"""Acceptance criteria, one test per criterion, each printing a PASS line.

Heavy artifacts (the pole table for q = 1, k = 0..4) are computed once in a
session fixture; its wall time is charged to the criteria that consume it.
"""

import math
import time
from dataclasses import replace

import numpy as np

from tritronquee.bsb import (QuantumPair, descendant, solve_bsb,
                             solve_period_targets)
from tritronquee.catalog import (entry_from_json, entry_to_json,
                                 read_catalog, write_catalog)
from tritronquee.elliptic import (CycleId, ParamPoint, PeriodData, Potential,
                                  legendre_residual, turning_points)
from tritronquee.oscillator import (match_point, psi_logderivative, ray_spec,
                                    refine_pole)
from tritronquee.painleve import seed_asymptotic, track
from tritronquee.stokes import classify_graph, trace_stokes_lines

from oracles import cycle_period, linear_logderivative, scaled_point


def _ok(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_bsb_anchor():
    t0 = time.monotonic()
    sol = solve_bsb(QuantumPair(1, 1))
    elapsed = time.monotonic() - t0
    assert abs(sol.point.a - (-2.34)) < 0.01
    assert abs(sol.point.b - (-0.064)) < 0.005
    assert elapsed < 10.0
    _ok(1, f"B-S-B anchor a={sol.point.a.real:.6f} b={sol.point.b.real:.6f} "
           f"in {elapsed:.2f}s")


def test_criterion_02_legendre_identity(anchor):
    t0 = time.monotonic()
    pd = PeriodData.compute(Potential(anchor.point.a, anchor.point.b))
    worst = legendre_residual(pd)
    assert worst < 1e-8
    rng = np.random.default_rng(2024)
    for _ in range(20):
        s, t = rng.uniform(2.2, 4.8, 2)
        point, _ = solve_period_targets([(1j * s, 1j * t)], anchor.point)
        point = scaled_point(point, rng.uniform(0.7, 1.4))
        res = legendre_residual(PeriodData.compute(Potential(point.a, point.b)))
        worst = max(worst, res)
        assert res < 1e-8
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _ok(2, f"Legendre residual <= {worst:.2e} at the (1,1) solution and "
           f"20 random '320' points in {elapsed:.1f}s")


def test_criterion_03_scaling_law(anchor):
    pot = Potential(anchor.point.a, anchor.point.b)
    chi = {c: cycle_period(pot, c)[0] for c in CycleId}
    worst = 0.0
    for x in (0.5, 2.0, 3.0):
        scaled = Potential(x * x * pot.a, x ** 3 * pot.b)
        for cycle in CycleId:
            target = x ** 2.5 * chi[cycle]
            rel = abs(cycle_period(scaled, cycle)[0] - target) / abs(target)
            worst = max(worst, rel)
            assert rel < 1e-8
    _ok(3, f"chi scaling law holds for x in (0.5, 2, 3), worst rel err {worst:.2e}")


def test_criterion_04_descendant_equivalence(anchor):
    sol33 = solve_bsb(QuantumPair(3, 3))
    d2 = descendant(anchor, 2)
    rel_a = abs(sol33.point.a - d2.point.a) / abs(d2.point.a)
    rel_b = abs(sol33.point.b - d2.point.b) / abs(d2.point.b)
    assert rel_a < 1e-8
    assert rel_b < 1e-8
    _ok(4, f"solve(3,3) vs descendant(k=2): rel err a {rel_a:.2e}, b {rel_b:.2e}")


def test_criterion_05_pole_cross_validation(pole_table):
    t0 = time.monotonic()
    rec = pole_table["records"][0]
    state = seed_asymptotic(40.0)
    _, poles = track(state, [40.0, rec.pole.a.real - 1.0])
    elapsed = time.monotonic() - t0 + pole_table["elapsed"] / 5.0
    assert poles, "no pole found by direct integration"
    direct = min(poles, key=lambda p: abs(p.a - rec.pole.a))
    da = abs(direct.a - rec.pole.a)
    db = abs(direct.b - rec.pole.b)
    assert da < 1e-4
    assert db < 1e-4
    assert elapsed < 300.0
    _ok(5, f"(q,k)=(1,0) pole agreement: |da|={da:.2e} |db|={db:.2e} "
           f"in {elapsed:.1f}s")


def test_criterion_06_main_theorem_decay(pole_table):
    t0 = time.monotonic()
    records = pole_table["records"]
    errors = [abs(r.pole.a - r.seed.a) for r in records]
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:])), \
        f"errors not strictly decreasing: {errors}"
    x = np.log([2 * k + 1 for k in range(len(errors))])
    y = np.log(errors)
    exponent = float(np.polyfit(x, y, 1)[0])
    elapsed = time.monotonic() - t0 + pole_table["elapsed"]
    assert -1.5 < exponent < -0.9
    assert elapsed < 1800.0
    _ok(6, f"errors {['%.3e' % e for e in errors]} decay with fitted "
           f"exponent {exponent:.4f} (target -1.2) in {elapsed:.1f}s")


def test_criterion_07_disc_containment(pole_table, q1_sequence):
    rng = np.random.default_rng(7)
    records = pole_table["records"]
    checked = 0
    for k in range(1, 5):
        disc = 1.0 / k  # (alpha, eps) = (1, 1)
        assert abs(records[k].pole.a - records[k].seed.a) < disc
        for _ in range(10):
            rho = rng.uniform(0.05, 0.6) * disc
            phi = rng.uniform(0.0, 2.0 * math.pi)
            da = rho * complex(math.cos(phi), math.sin(phi))
            db = 0.02 * abs(q1_sequence[k].point.b) * complex(
                *rng.uniform(-1, 1, 2))
            seed = replace(q1_sequence[k], point=ParamPoint(
                q1_sequence[k].point.a + da, q1_sequence[k].point.b + db))
            rec = refine_pole(seed, compute_gap=False)
            assert abs(rec.pole.a - records[k].pole.a) < 1e-8
            assert abs(rec.pole.b - records[k].pole.b) < 1e-8
            checked += 1
    _ok(7, f"{checked} perturbed seeds inside the discs all converged to "
           f"the same poles (to 1e-8)")


def test_criterion_08_stokes_classification(anchor, q1_sequence):
    points = [sol.point for sol in q1_sequence]
    points.append(solve_bsb(QuantumPair(3, 3)).point)
    for x in (0.5, 2.0, 3.0):
        points.append(scaled_point(anchor.point, x))
    for point in points:
        label = classify_graph(trace_stokes_lines(Potential(point.a, point.b)))
        assert label == "320", f"{point} classified {label!r}"
    other = classify_graph(trace_stokes_lines(Potential(10.0, 0.0)))
    assert other != "320"
    _ok(8, f"all {len(points)} quantization points and scalings classify "
           f"as '320'; (10,0) gives {other!r}")


def test_criterion_09_wkb_gap_contraction(pole_table):
    gaps = [r.wkb_gap for r in pole_table["records"]]
    r2 = gaps[0][0] / gaps[3][0]
    rm2 = gaps[0][1] / gaps[3][1]
    assert r2 >= 2.0
    assert rm2 >= 2.0
    _ok(9, f"|u - u~| contraction k=0 -> k=3: factors {r2:.2f}, {rm2:.2f}")


def test_criterion_10_property_suites(anchor, tmp_path):
    t0 = time.monotonic()

    # Vieta residuals on random potentials
    rng = np.random.default_rng(10)
    checked = 0
    while checked < 1000:
        a = complex(*rng.uniform(-10, 10, 2))
        b = complex(*rng.uniform(-10, 10, 2))
        pot = Potential(a, b)
        try:
            tp = turning_points(pot)
        except Exception:
            continue
        checked += 1
        r = tp.roots
        scale = max(1.0, abs(a) ** 1.5, abs(b))
        assert abs(r[0] + r[1] + r[2]) < 1e-10 * (1 + tp.scale)
        assert abs(r[0] * r[1] * r[2] - 7.0 * b) < 1e-9 * scale
        assert abs(r[0] * r[1] + r[0] * r[2] + r[1] * r[2] + a / 2) < 1e-9 * scale

    # finite-difference vs analytic period derivatives
    pot = Potential(anchor.point.a, anchor.point.b)
    h = 1e-5
    for cycle in CycleId:
        _, da, db = cycle_period(pot, cycle)
        fa = (cycle_period(Potential(pot.a + h, pot.b), cycle)[0]
              - cycle_period(Potential(pot.a - h, pot.b), cycle)[0]) / (2 * h)
        fb = (cycle_period(Potential(pot.a, pot.b + h), cycle)[0]
              - cycle_period(Potential(pot.a, pot.b - h), cycle)[0]) / (2 * h)
        assert abs(fa - da) < 1e-6 * abs(da)
        assert abs(fb - db) < 1e-6 * abs(db)

    # Riccati vs linear-ODE equivalence
    tp = turning_points(pot)
    lam = match_point(tp)
    rs = ray_spec(pot, 2)
    s_ric = psi_logderivative(pot, rs, lam).s
    s_lin = linear_logderivative(pot, tp, rs, lam)
    assert abs(s_ric - s_lin) < 1e-8 * abs(s_ric)

    # Laurent round trip
    state = seed_asymptotic(40.0)
    final, poles = track(state, [40.0, -3.5])
    back, _ = track(final, [final.z, 40.0])
    assert len(poles) == 1
    assert abs(back.y - state.y) < 1e-8
    assert abs(back.yp - state.yp) < 1e-8

    # catalog round trip, bit-exact
    from test_catalog import _synthetic_doc
    doc = _synthetic_doc()
    path = tmp_path / "roundtrip.json"
    write_catalog(doc, str(path))
    loaded = read_catalog(str(path))
    assert loaded == doc
    for raw in loaded["entries"]:
        assert entry_to_json(entry_from_json(raw)) == raw

    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    _ok(10, f"Vieta, derivative, Riccati/linear, Laurent round-trip and "
            f"catalog round-trip suites green in {elapsed:.1f}s")
