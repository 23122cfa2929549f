import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from tritronquee.bsb import (PRIMITIVE_11_SEED, TOL_NEWTON, QuantumPair,
                             descendant, solve_bsb, solve_period_targets,
                             tilde_U)
from tritronquee.elliptic import ParamPoint, PeriodData, Potential
from tritronquee.stokes import classify_graph, trace_stokes_lines

import oracles


class TestQuantumPair:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            QuantumPair(0, 1)
        with pytest.raises(ValueError):
            QuantumPair(1, -3)

    def test_primitivity(self):
        assert QuantumPair(1, 1).is_primitive
        assert QuantumPair(3, 1).is_primitive   # (5, 1)
        assert QuantumPair(2, 3).is_primitive   # (3, 5)
        assert not QuantumPair(2, 2).is_primitive  # (3, 3)
        assert not QuantumPair(5, 2).is_primitive  # (9, 3)

    def test_q_value(self):
        assert QuantumPair(3, 1).q == Fraction(5, 1)
        assert QuantumPair(1, 2).q == Fraction(1, 3)


class TestSolveBsb:
    def test_reference_solution(self, anchor):
        assert abs(anchor.point.a - (-2.34)) < 0.01
        assert abs(anchor.point.b - (-0.064)) < 0.005
        assert anchor.residual < 1e-10

    def test_residual_contract(self, anchor):
        pd = PeriodData.compute(Potential(anchor.point.a, anchor.point.b))
        assert abs(pd.chi2 - 1j * math.pi) < 1e-10
        assert abs(pd.chi_m2 - 1j * math.pi) < 1e-10

    def test_direct_solve_matches_descendant(self, anchor):
        sol33 = solve_bsb(QuantumPair(3, 3))
        d2 = descendant(anchor, 2)
        assert abs(sol33.point.a - d2.point.a) < 1e-8 * abs(d2.point.a)
        assert abs(sol33.point.b - d2.point.b) < 1e-8 * abs(d2.point.b)

    def test_explicit_seed(self, anchor):
        sol = solve_bsb(QuantumPair(1, 1), seed=ParamPoint(-2.2, -0.05))
        assert abs(sol.point.a - anchor.point.a) < 1e-8

    def test_scaled_quantum_numbers_match_descendant(self, anchor):
        # (2n-1, 2m-1) multiplied by (2k+1) reaches the k-th descendant:
        # (2,2) <-> k=1 and (4,4) <-> k=3 for the (1,1) primitive
        for quantum, k in ((QuantumPair(2, 2), 1), (QuantumPair(4, 4), 3)):
            sol = solve_bsb(quantum)
            dk = descendant(anchor, k)
            assert abs(sol.point.a - dk.point.a) < 1e-8 * abs(dk.point.a)
            assert abs(sol.point.b - dk.point.b) < 1e-8 * abs(dk.point.b)

    def test_empirical_uniqueness(self, anchor):
        rng = np.random.default_rng(17)
        targets = []
        for _ in range(20):
            da = complex(*rng.uniform(-0.35, 0.35, 2))
            db = complex(*rng.uniform(-0.35, 0.35, 2))
            seed = ParamPoint(anchor.point.a + da, anchor.point.b + db)
            point, _ = solve_period_targets([(1j * math.pi, 1j * math.pi)], seed)
            targets.append(point)
        for point in targets:
            assert abs(point.a - anchor.point.a) < 1e-8
            assert abs(point.b - anchor.point.b) < 1e-8


class TestContinuation:
    """Route 1's homotopy to the targets divided by M: one Newton step per
    intermediate target, then the rescale by M and Newton at the true
    targets."""

    def test_matches_solving_every_target(self, coprime_primitives):
        assert len(coprime_primitives) == 19
        for quantum, sol in coprime_primitives.items():
            point, _ = oracles.homotopy_solve(quantum)
            assert abs(sol.point.a - point.a) < 1e-12, quantum
            assert abs(sol.point.b - point.b) < 1e-12, quantum
            assert sol.residual < TOL_NEWTON

    def test_short_homotopy_follows_the_straight_line(self):
        """Every coprime (n, m) with n, m <= 12, M = max(2n-1, 2m-1) up to
        23: the rescaled point of the normalised homotopy is the point of
        the frozen straight line from the anchor, the exact mirror of its
        swap, converged, and "320" (``solve_bsb`` checks the graph)."""
        pairs = [QuantumPair(n, m) for n in range(1, 13)
                 for m in range(1, 13)]
        solved = {q: solve_bsb(q) for q in pairs if q.is_primitive}
        assert len(solved) == 117
        for quantum, sol in solved.items():
            point, _ = oracles.homotopy_solve(quantum)
            assert abs(sol.point.a - point.a) < 1e-12 * abs(point.a), quantum
            assert abs(sol.point.b - point.b) < 1e-12 * abs(point.b), quantum
            mirror = solved[QuantumPair(quantum.m, quantum.n)]
            assert sol.point.a == mirror.point.a.conjugate(), quantum
            assert sol.point.b == mirror.point.b.conjugate(), quantum
            assert sol.residual < TOL_NEWTON, quantum

    @staticmethod
    def _period_evaluations(monkeypatch, quantum):
        calls = []
        compute = PeriodData.compute

        def counted(*args, **kwargs):
            calls.append(args)
            return compute(*args, **kwargs)

        monkeypatch.setattr(PeriodData, "compute", counted)
        solve_bsb(quantum, verify_graph=False)
        return len(calls)

    def test_one_period_evaluation_per_intermediate_target(self, monkeypatch):
        # M = 9 puts the one normalised target i pi (7/9, 1) within 0.6 pi
        # of the anchor: 3 Newton steps and the polish there, the seed's
        # periods being computed once at import, then the rescaled point's
        # residual, already below the tolerance, and the polish at
        # i pi (7, 9)
        assert self._period_evaluations(monkeypatch, QuantumPair(4, 5)) == 6

    def test_single_target_work_unchanged(self, monkeypatch):
        # 2 Newton steps and the polish; the seed's periods are computed
        # once at import
        assert self._period_evaluations(monkeypatch, QuantumPair(1, 1)) == 3

    def test_swapped_pairs_are_exact_mirrors(self, coprime_primitives):
        """Swapping n and m conjugates the targets, and a real V's turning
        points are an exact conjugate pair, so (m, n) is the exact mirror
        image of (n, m); (1, 1) is exactly real."""
        for quantum, sol in coprime_primitives.items():
            mirror = coprime_primitives[QuantumPair(quantum.m, quantum.n)]
            assert sol.point.a == mirror.point.a.conjugate(), quantum
            assert sol.point.b == mirror.point.b.conjugate(), quantum

    def test_descendant_residuals_below_tolerance(self, coprime_primitives):
        # a descendant's residual is (2k+1) times its primitive's, so the
        # primitive's polish step must leave room for 2k+1 = 33
        for sol in coprime_primitives.values():
            for k in range(1, 17):
                assert descendant(sol, k).residual < TOL_NEWTON, (sol, k)


class TestDescendant:
    def test_k0_identity(self, anchor):
        assert descendant(anchor, 0) is anchor

    def test_rejects_non_primitive_input(self, anchor):
        d1 = descendant(anchor, 1)
        with pytest.raises(ValueError):
            descendant(d1, 1)
        with pytest.raises(ValueError):
            descendant(anchor, -1)

    def test_k1_period_is_3_i_pi(self, anchor):
        d1 = descendant(anchor, 1)
        chi2 = PeriodData.compute(Potential(d1.point.a, d1.point.b)).chi2
        assert abs(chi2 - 3j * math.pi) < 1e-10
        assert d1.residual < 1e-10


class TestQSequence:
    def test_scaling_ratios(self, anchor, q1_sequence):
        a0 = abs(q1_sequence[0].point.a)
        for k in (1, 2, 3):
            ratio = abs(q1_sequence[k].point.a) / a0
            assert abs(ratio - (2 * k + 1) ** 0.8) < 1e-10

    def test_non_primitive_rejected(self, anchor):
        # (3, 3) are not coprime: the rescaling would not reach new poles
        with pytest.raises(ValueError):
            descendant(replace(anchor, quantum=QuantumPair(2, 2)), 1)

    def test_q3_sequence(self):
        primitive = solve_bsb(QuantumPair(3, 1))
        d1 = descendant(primitive, 1)
        assert classify_graph(
            trace_stokes_lines(Potential(d1.point.a, d1.point.b))) == "320"
        for sol in (primitive, d1):
            assert sol.residual < 1e-10


class TestTildeU:
    def test_zero_at_solution(self, anchor):
        tu = tilde_U(anchor.point)
        assert abs(tu[0]) < 1e-9
        assert abs(tu[1]) < 1e-9

    def test_off_solution_matches_periods(self, anchor):
        point = ParamPoint(anchor.point.a + 0.1, anchor.point.b)
        tu = tilde_U(point)
        pd = PeriodData.compute(Potential(point.a, point.b))
        assert abs(tu[0] - (-np.exp(pd.chi2) - 1.0)) < 1e-12
        assert abs(tu[1] - (-np.exp(pd.chi_m2) - 1.0)) < 1e-12
        assert abs(tu[0]) > 1e-3 and abs(tu[1]) > 1e-3

    def test_jacobian_nonsingular_at_solution(self, anchor):
        pd = PeriodData.compute(Potential(anchor.point.a, anchor.point.b))
        u2 = -np.exp(pd.chi2)
        um2 = -np.exp(pd.chi_m2)
        jac = np.array([[u2 * pd.dchi2_da, u2 * pd.dchi2_db],
                        [um2 * pd.dchim2_da, um2 * pd.dchim2_db]])
        det = np.linalg.det(jac)
        expected = 28.0 * math.pi * abs(u2 * um2)
        assert abs(abs(det) - expected) < 1e-8 * expected
        assert abs(det) > 1.0


def test_builtin_seed_close_to_solution(anchor):
    assert abs(PRIMITIVE_11_SEED.a - anchor.point.a) < 0.01
    assert abs(PRIMITIVE_11_SEED.b - anchor.point.b) < 0.005


def test_newton_diverges_on_exhausted_budget(anchor, monkeypatch):
    from tritronquee import elliptic
    from tritronquee.errors import NewtonDiverged
    monkeypatch.setattr(elliptic, "NEWTON_MAX_ITER", 1)
    seed = ParamPoint(anchor.point.a + 0.3, anchor.point.b + 0.1)
    with pytest.raises(NewtonDiverged, match="in 1 steps"):
        solve_period_targets([(1j * math.pi, 1j * math.pi)], seed)


def _assert_first_step_diverges(monkeypatch, capsys, jacobian, cause):
    """A bad Jacobian stops Newton at the first step, before any line
    search, with a ``NewtonDiverged`` that names the cause; the CLI exits
    with the numerical-failure code."""
    from tritronquee import bsb
    from tritronquee.cli import main
    from tritronquee.errors import NewtonDiverged

    calls = []

    def bad(point, target2, targetm2):
        calls.append(point)
        return (1.0 + 0j, 1.0 + 0j), jacobian

    monkeypatch.setattr(bsb, "_period_residual", bad)
    with pytest.raises(NewtonDiverged, match=cause):
        solve_period_targets([(1j * math.pi, 1j * math.pi)], PRIMITIVE_11_SEED)
    assert len(calls) == 1
    assert main(["bsb", "--n", "1", "--m", "1"]) == 3
    assert "NewtonDiverged" in capsys.readouterr().err


def test_singular_jacobian_is_newton_diverged(monkeypatch, capsys):
    _assert_first_step_diverges(monkeypatch, capsys, ((0j, 0j), (0j, 0j)),
                                "singular period Jacobian")


def test_non_finite_jacobian_is_newton_diverged(monkeypatch, capsys):
    _assert_first_step_diverges(
        monkeypatch, capsys, ((1 + 0j, complex(math.nan)), (0j, 1 + 0j)),
        "non-finite period Newton step")
