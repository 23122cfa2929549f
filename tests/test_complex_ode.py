import cmath
import math
from pathlib import Path

import pytest

from tritronquee import complex_ode
from tritronquee.errors import OdeToleranceNotMet, StepUnderflow

SRC = Path(__file__).resolve().parent.parent / "src"
LAMBDAS = (-1.0 + 2.0j, 0.5 - 3.0j, -0.2 + 0.1j)


def _riccati(t, y):
    return 1.5j - y * y + t * y


class TestExactSolution:
    def test_scalar_exponential(self):
        lam = LAMBDAS[0]
        res = complex_ode.integrate(lambda t, y: lam * y, 0.0, 2.0, 1.0 + 0.5j,
                                    rtol=1e-10, atol=1e-14)
        exact = (1.0 + 0.5j) * cmath.exp(2.0 * lam)
        assert isinstance(res.y, complex)
        assert not res.stopped and res.t == 2.0
        assert abs(res.y - exact) < 1e-8 * abs(exact)

    def test_tuple_exponential(self):
        y0 = (1.0, 2.0j, -1.0 + 1.0j)
        res = complex_ode.integrate(
            lambda t, y: tuple(lam * v for lam, v in zip(LAMBDAS, y)),
            0.0, 2.0, y0, rtol=1e-10, atol=1e-14)
        assert isinstance(res.y, tuple) and len(res.y) == 3
        for lam, v0, v in zip(LAMBDAS, y0, res.y):
            exact = v0 * cmath.exp(2.0 * lam)
            assert abs(v - exact) < 1e-8 * abs(exact)

    def test_along_path_reports_end_point(self):
        lam = LAMBDAS[1]
        path = [0.0, 1.0 + 1.0j, 2.0j]
        res = complex_ode.integrate_along_path(lambda z, y: lam * y, 1.0, path,
                                               rtol=1e-11)
        assert res.z == 2.0j
        assert abs(res.y - cmath.exp(2.0j * lam)) < 1e-8 * abs(cmath.exp(2.0j * lam))


def test_scalar_and_one_tuple_take_identical_steps():
    seen_scalar, seen_tuple = [], []

    def hook_scalar(t, y):
        seen_scalar.append((t, y))
        return y, complex_ode.CONTINUE

    def hook_tuple(t, y):
        seen_tuple.append((t, y[0]))
        return y, complex_ode.CONTINUE

    scalar = complex_ode.integrate(_riccati, 0.0, 3.0, 0.3 - 0.2j,
                                   on_accept=hook_scalar)
    single = complex_ode.integrate(lambda t, y: (_riccati(t, y[0]),), 0.0, 3.0,
                                   (0.3 - 0.2j,), on_accept=hook_tuple)
    assert scalar.t == single.t
    assert scalar.y == single.y[0]
    assert scalar.n_steps == single.n_steps > 10
    assert seen_scalar == seen_tuple


def test_returning_the_same_state_keeps_fsal():
    def run(adjust):
        calls = [0]

        def g(t, y):
            calls[0] += 1
            return (-y[0],)

        res = complex_ode.integrate(g, 0.0, 1.0, (1.0,),
                                    on_accept=lambda t, y: (adjust(y),
                                                            complex_ode.CONTINUE))
        return calls[0], res.n_steps

    same_calls, steps = run(lambda y: y)
    fresh_calls, fresh_steps = run(lambda y: (y[0],))
    assert steps == fresh_steps
    assert fresh_calls == same_calls + steps


def test_stop_ends_the_run():
    res = complex_ode.integrate(
        _riccati, 0.0, 3.0, 0.3 - 0.2j,
        on_accept=lambda t, y: (y, complex_ode.STOP if t > 0.5 else
                                complex_ode.CONTINUE))
    assert res.stopped
    assert 0.5 < res.t < 3.0


@pytest.mark.parametrize("t1", [0.0, -1.0])
def test_empty_span_rejected(t1):
    with pytest.raises(ValueError):
        complex_ode.integrate(_riccati, 0.0, t1, 1.0)


def test_step_limit():
    with pytest.raises(OdeToleranceNotMet):
        complex_ode.integrate(lambda t, y: 50j * y, 0.0, 10.0, 1.0,
                              max_steps=20)


def test_nan_in_last_component_underflows():
    # the NaN reaches only the error estimate of the last component; it must
    # reject the step rather than be dropped by the maximum over components
    def g(t, y):
        return (1j * y[0], -y[1], math.nan if t > 0.5 else y[2])

    with pytest.raises(StepUnderflow):
        complex_ode.integrate(g, 0.0, 1.0, (1.0, 1.0, 1.0))


def test_single_dormand_prince_tableau():
    """The DP5(4) coefficients are defined in one place under src/."""
    hits = [path for path in SRC.rglob("*.py")
            for line in path.read_text().splitlines() if "19372 / 6561" in line]
    assert len(hits) == 1, hits
    assert hits[0].name == "complex_ode.py"
