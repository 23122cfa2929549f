"""Solver for the quantization system on the cycle periods.

The system asks for points (a, b) with ``chi_2 = i pi (2n-1)`` and
``chi_-2 = i pi (2m-1)``.  Newton iteration uses the analytic Jacobian from
the period derivatives; it is ``elliptic``'s damped Newton, which route 2's
dependence system runs on too: steps by Cramer's rule
(``elliptic.solve_2x2``), halved until they lower the residual, and one
polish step at the tolerance.  New quantum numbers are reached by a
homotopy in the right-hand side from the real (1,1) solution to the
targets divided by M = max(2n-1, 2m-1), within pi of the anchor's, with
targets at most 0.6 pi apart, followed by Euler-Newton continuation
(Allgower & Georg, Numerical Continuation Methods, 1990): one damped step
per intermediate target (``elliptic.damped_step``), which is both the
predictor for the new target and the corrector for the last one, and a
Newton solve to the tolerance at the final target only
(``elliptic.newton_2x2``).  The periods scale exactly, chi(x^2 a, x^3 b)
= x^(5/2) chi(a, b), so the point rescaled by x^(5/2) = M is polished at
the true targets, and solutions with coprime odd integers generate whole
q-sequences.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .elliptic import (ParamPoint, PeriodData, Potential, damped_step,
                       newton_2x2)
from .errors import NotType320
from .stokes import classify_graph, trace_stokes_lines

TOL_NEWTON = 1e-10

#: Seed for the real primitive solution with n = m = 1.
PRIMITIVE_11_SEED = ParamPoint(-2.34, -0.064)
#: its periods, which every unseeded solve starts from
_SEED_PERIODS = PeriodData.compute(Potential(PRIMITIVE_11_SEED.a,
                                             PRIMITIVE_11_SEED.b))


@dataclass(frozen=True)
class QuantumPair:
    """Quantization integers; primitive when 2n-1 and 2m-1 are coprime."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("quantum numbers must be positive integers")

    @property
    def odd_n(self) -> int:
        return 2 * self.n - 1

    @property
    def odd_m(self) -> int:
        return 2 * self.m - 1

    @property
    def is_primitive(self) -> bool:
        return math.gcd(self.odd_n, self.odd_m) == 1

    @property
    def q(self) -> Fraction:
        return Fraction(self.odd_n, self.odd_m)


@dataclass(frozen=True)
class BsbSolution:
    """A solved quantization point, primitive (k = 0) or descendant."""

    point: ParamPoint
    quantum: QuantumPair
    residual: float
    q: Fraction
    k: int


def _period_residual(point: ParamPoint, target2: complex, targetm2: complex):
    pd = (_SEED_PERIODS if point is PRIMITIVE_11_SEED
          else PeriodData.compute(Potential(point.a, point.b)))
    F = (pd.chi2 - target2, pd.chi_m2 - targetm2)
    J = ((pd.dchi2_da, pd.dchi2_db),
         (pd.dchim2_da, pd.dchim2_db))
    return F, J


def _period_system(target2: complex, targetm2: complex):
    """x -> (F, J), the period residual at the targets, for ``newton_2x2``."""
    return lambda x: _period_residual(ParamPoint(x[0], x[1]), target2,
                                      targetm2)


def _homotopy_targets(quantum: QuantumPair):
    """Straight-line homotopy of the right-hand side from the (1,1) anchor
    to i pi (2n-1, 2m-1) / M, M = max(2n-1, 2m-1): at most 2 targets."""
    scale = max(quantum.odd_n, quantum.odd_m)
    d2 = quantum.odd_n / scale * math.pi - math.pi
    dm2 = quantum.odd_m / scale * math.pi - math.pi
    n_steps = max(1, int(math.ceil(max(-d2, -dm2) / (0.6 * math.pi))))
    for i in range(1, n_steps + 1):
        t = i / n_steps
        yield 1j * (math.pi + d2 * t), 1j * (math.pi + dm2 * t)


def _rescaled(point: ParamPoint, factor: float) -> ParamPoint:
    """(factor^(4/5) a, factor^(6/5) b): periods times ``factor``."""
    return ParamPoint(factor ** 0.8 * point.a, factor ** 1.2 * point.b)


def solve_period_targets(targets, seed: ParamPoint,
                         tol_newton: float = TOL_NEWTON) -> tuple[ParamPoint, float]:
    """Damped Newton on the period residual from ``seed`` along the
    right-hand sides ``targets``: one step towards each in turn, then
    ``elliptic.newton_2x2`` at the last.  At a new target F is shifted by
    the change of the target, so the step x - J^-1 (F - dt) predicts the
    move along the path and corrects what the last step left."""
    x = (seed.a, seed.b)
    F, J = _period_residual(seed, *targets[0])
    for previous, target in zip(targets, targets[1:]):
        x, F, J, _ = damped_step(_period_system(*previous), x, F, J,
                                 abs(F[0]) + abs(F[1]), "period")
        F = (F[0] - (target[0] - previous[0]),
             F[1] - (target[1] - previous[1]))
    x, _, _, res, _ = newton_2x2(_period_system(*targets[-1]), x, F, J,
                                 tol_newton, "period")
    return ParamPoint(x[0], x[1]), res


def solve_bsb(quantum: QuantumPair, seed: ParamPoint | None = None,
              tol_newton: float = TOL_NEWTON, verify_graph: bool = True) -> BsbSolution:
    """Solve the quantization system for the given quantum numbers.

    Without an explicit seed, the (1,1) case starts from the known real
    point and other cases continue from it along the homotopy to
    i pi (2n-1, 2m-1) / M (``solve_period_targets``), and ``descendant``'s
    rescale by M carries that point to the true targets, where Newton
    runs with its polish step.  Solutions move by exact rescaling along
    the ray between the two, so this reaches the branch of the straight
    line from (i pi, i pi) unless the Jacobian is singular inside the
    triangle the two routes span.  An explicit seed has the final target
    alone.  The converged point is checked to carry a "320" graph.
    """
    if seed is None:
        seed = PRIMITIVE_11_SEED
        scale = max(quantum.odd_n, quantum.odd_m)
        if scale > 1:
            point, _ = solve_period_targets(list(_homotopy_targets(quantum)),
                                            seed, tol_newton)
            seed = _rescaled(point, float(scale))
    targets = [(1j * math.pi * quantum.odd_n, 1j * math.pi * quantum.odd_m)]
    point, res = solve_period_targets(targets, seed, tol_newton)
    if verify_graph:
        label = classify_graph(trace_stokes_lines(Potential(point.a, point.b)))
        if label != "320":
            raise NotType320(f"converged point {point} classifies as {label!r}")
    return BsbSolution(point=point, quantum=quantum, residual=res,
                       q=quantum.q, k=0)


def descendant(primitive: BsbSolution, k: int) -> BsbSolution:
    """The k-th rescaled solution ((2k+1)^(4/5) a, (2k+1)^(6/5) b).

    The residual is re-evaluated against the scaled right-hand sides
    i pi (2n-1)(2k+1), i pi (2m-1)(2k+1).  The periods scale by (2k+1)
    under the rescaling, chi(x^2 a, x^3 b) = x^(5/2) chi(a, b) with
    x^(5/2) = 2k+1, so the residual is (2k+1) times the primitive's.  The
    primitive's polish step leaves it at round-off, which keeps the
    descendants of the 19 pairs with n, m <= 5 below ``TOL_NEWTON`` up to
    k = 16.
    """
    if primitive.k != 0:
        raise ValueError("descendant() expects a primitive solution")
    if not primitive.quantum.is_primitive:
        raise ValueError("quantum numbers are not coprime odd integers")
    if k < 0:
        raise ValueError("k must be a nonnegative integer")
    if k == 0:
        return primitive
    point = _rescaled(primitive.point, float(2 * k + 1))
    pd = PeriodData.compute(Potential(point.a, point.b))
    target2 = 1j * math.pi * primitive.quantum.odd_n * (2 * k + 1)
    targetm2 = 1j * math.pi * primitive.quantum.odd_m * (2 * k + 1)
    res = abs(pd.chi2 - target2) + abs(pd.chi_m2 - targetm2)
    return BsbSolution(point=point, quantum=primitive.quantum,
                       residual=float(res), q=primitive.q, k=k)


def tilde_U(point: ParamPoint) -> tuple[complex, complex]:
    """(u~2 - 1, u~-2 - 1) with u~(+-2) = -exp(chi_(+-2)).

    Vanishes exactly at solutions of the quantization system.
    """
    pd = PeriodData.compute(Potential(point.a, point.b))
    return (-cmath.exp(pd.chi2) - 1.0, -cmath.exp(pd.chi_m2) - 1.0)
