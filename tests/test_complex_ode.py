import ast
import cmath
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tritronquee import complex_ode
from tritronquee.errors import OdeToleranceNotMet, StepUnderflow

import oracles

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


def test_order_conditions():
    """DP5(4): sum b c^(q-1) = 1/q for q <= 5, each node is its row sum,
    and the error estimate is a difference of consistent weights."""
    tab = complex_ode.DP54
    c = (0.0,) + tab.nodes[:-1]
    for q in range(1, 6):
        moment = sum(b * ci ** (q - 1) for b, ci in zip(tab.weights, c))
        assert abs(moment - 1.0 / q) < 1e-14, q
    for ci, row in zip(c[1:], tab.rows):
        assert abs(sum(row) - ci) < 1e-14
    assert tab.nodes[-1] == 1.0
    assert abs(sum(tab.error)) < 1e-14


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


def test_unchecked_sensitivities_ride_on_the_scalar_steps():
    """(s, ds/dc, ds/dp) for s' = c - s^2 + p t s: the first component
    takes exactly the steps and values of the scalar run, and the
    sensitivities agree with the frozen integrator checking all three."""
    def augmented(t, y):
        s, s_c, s_p = y
        return (_riccati(t, s), 1.0 - 2.0 * s * s_c + t * s_c,
                t * s - 2.0 * s * s_p + t * s_p)

    scalar = complex_ode.integrate(_riccati, 0.0, 3.0, 0.3 - 0.2j)
    riding = complex_ode.integrate(augmented, 0.0, 3.0, (0.3 - 0.2j, 0.0, 0.0))
    checked = oracles.closure_integrate(augmented, 0.0, 3.0,
                                        (0.3 - 0.2j, 0.0, 0.0))
    assert riding.y[0] == scalar.y
    assert riding.n_steps == scalar.n_steps < checked.n_steps
    assert abs(riding.y[1] - checked.y[1]) < 1e-8 * abs(checked.y[1])


@pytest.mark.parametrize("source, y0", [
    ("F0 = c - Y0 * Y0 + T * Y0", 0.3 - 0.2j),
    ("F = c - Y * Y + T * Y", 0.3 - 0.2j),
    ("F0 = c - Y0 * Y0 + T * Y0\nF1 = -Y1", (0.3 - 0.2j, 1.0)),
    ("F = (c - Y[0] * Y[0] + T * Y[0], -Y[1])", (0.3 - 0.2j, 1.0))],
    ids=["scalar", "scalar-packed", "tuple", "tuple-packed"])
def test_source_takes_the_steps_of_its_callable(source, y0):
    """A right-hand side given as source, by components or packed, runs
    the operations of the equivalent callable and so its exact steps."""
    def g(t, y):
        if isinstance(y, complex):
            return _riccati(t, y)
        return (_riccati(t, y[0]), -y[1])

    rhs = complex_ode.Rhs(("c",), source)
    by_source = complex_ode.integrate(rhs, 0.0, 3.0, y0, args=(1.5j,))
    by_callable = complex_ode.integrate(g, 0.0, 3.0, y0)
    assert by_source == by_callable
    assert by_source.n_steps > 10


@pytest.mark.parametrize("source", ["F0 = Y0 * _c", "G0 = Y0"],
                         ids=["kernel name", "no derivative"])
def test_malformed_source_rejected(source):
    with pytest.raises(ValueError):
        complex_ode.integrate(complex_ode.Rhs((), source), 0.0, 1.0, 1.0)


_component = st.complex_numbers(max_magnitude=4.0, allow_nan=False,
                                allow_infinity=False)


def _run_outcome(run):
    """A run's end (t, state bits, stopped, steps), or its error."""
    try:
        res = run()
    except (OdeToleranceNotMet, StepUnderflow) as exc:
        return type(exc), str(exc)
    y = [res.y] if isinstance(res.y, complex) else res.y
    return res.t, oracles.bits(y), res.stopped, res.n_steps


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.lists(_component, min_size=8, max_size=8),
       st.floats(0.1, 3.0))
def test_generated_run_matches_the_frozen_closure_run(arity, values, span):
    """Arity 0 is a bare complex.  A whole generated run, its error norm on
    the leading component alone, takes the steps and values of the frozen
    closure integrator with ``error_dims=1``, bit for bit, including its
    failures."""
    coef = values[4:]

    def g_scalar(tt, y):
        return coef[0] - y * y + tt * y

    def g_tuple(tt, y):
        return tuple([c - v * v + tt * y[i - 1]
                      for i, (c, v) in enumerate(zip(coef, y))])

    if arity == 0:
        y, g = values[0], g_scalar
    else:
        y, g = tuple(values[:arity]), g_tuple
    generated = _run_outcome(lambda: complex_ode.integrate(
        g, 0.0, span, y, rtol=1e-10, max_steps=2000))
    frozen = _run_outcome(lambda: oracles.closure_integrate(
        g, 0.0, span, y, rtol=1e-10, max_steps=2000, error_dims=1))
    assert generated == frozen


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


def test_nan_in_a_trailing_component_rides_along():
    """Only the leading component enters the error norm: a NaN in a
    trailing component rides to ``res.y`` on the steps of the leading one,
    neither rejected nor dropped."""
    def g(t, y):
        return (1j * y[0], -y[1], math.nan if t > 0.5 else y[2])

    res = complex_ode.integrate(g, 0.0, 1.0, (1.0, 1.0, 1.0))
    scalar = complex_ode.integrate(lambda t, y: 1j * y, 0.0, 1.0, 1.0)
    assert res.t == 1.0 and not res.stopped
    assert res.y[0] == scalar.y and res.n_steps == scalar.n_steps
    assert cmath.isnan(res.y[2])


def test_single_dormand_prince_tableau():
    """The DP5(4) coefficients are defined in one place under src/, and no
    DOP853 coefficient is left there."""
    hits = {literal: [path.name for path in SRC.rglob("*.py")
                      for line in path.read_text().splitlines()
                      if literal in line]
            for literal in ("19372 / 6561",
                            "-4.34898841810699588477366255144e1")}
    assert hits == {"19372 / 6561": ["complex_ode.py"],
                    "-4.34898841810699588477366255144e1": []}


def test_single_taylor_integrator():
    """The Taylor step control is written in one file under src/, and the
    oscillator takes its Taylor legs from it, not from painleve."""
    for literal in ('"non-finite Taylor coefficient', "1e-300"):
        files = {path.name for path in SRC.rglob("*.py")
                 if literal in path.read_text()}
        assert files == {"complex_ode.py"}, (literal, files)
    tree = ast.parse((SRC / "tritronquee" / "oscillator.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module or ""} | {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
    assert not any("painleve" in name for name in imported), imported
