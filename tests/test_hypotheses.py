import numpy as np
import pytest

from morreyheat import fields as F
from morreyheat import hypotheses as H
from morreyheat.params import make_params

P5 = make_params(5, 3.0)


def all_flags(rep):
    return [rep.gradient_integrability.satisfied, rep.gradient_decay.satisfied,
            rep.kernel_limit.satisfied, rep.energy_integrability.satisfied,
            rep.pointwise_decay.satisfied]


def test_gaussian_satisfies_everything():
    g = F.make_grid(5, 40.0, 2000)
    rep = H.check_hypotheses(F.gaussian(g, 1.0, 2.0), F.gaussian_gradient(g, 1.0, 2.0), P5)
    assert all_flags(rep) == [True] * 5
    assert rep.kernel_limit.evidence["trend_slope"] < -0.05


def test_zero_data_trivially_satisfied():
    g = F.make_grid(5, 40.0, 2000)
    z = F.zero_field(g)
    rep = H.check_hypotheses(z, z, P5)
    assert all_flags(rep) == [True] * 5
    assert rep.pointwise_decay.evidence.get("zero_data")


def test_borderline_tail_fails_pointwise_decay():
    g = F.make_grid(5, 40.0, 2000)
    r = g.nodes
    k = 2.0 / (P5.p - 1.0)
    f = F.make_field(g, (1.0 + r**2) ** (-k / 2.0))
    grad = F.make_field(g, np.abs(-k * r * (1.0 + r**2) ** (-k / 2.0 - 1.0)))
    rep = H.check_hypotheses(f, grad, P5)
    assert rep.pointwise_decay.satisfied is False
    # the fitted exponent matches the borderline target (O, not o)
    assert rep.pointwise_decay.evidence["u_tail_exponent"] == pytest.approx(k, abs=0.05)


def _power_tail_gradient(grid, amplitude, exponent, core_radius):
    """|d/dr| of F.power_tail(grid, amplitude, exponent, core_radius)."""
    r = grid.nodes
    base = 1.0 + (r / core_radius) ** 2
    vals = np.abs(amplitude * (-exponent) * (r / core_radius**2) * base ** (-exponent / 2.0 - 1.0))
    return F.make_field(grid, vals, F.FREE)


def test_fast_power_tail_satisfies():
    g = F.make_grid(5, 40.0, 2000)
    rep = H.check_hypotheses(F.power_tail(g, 0.05, 2.0, 1.0),
                             _power_tail_gradient(g, 0.05, 2.0, 1.0), P5)
    assert rep.pointwise_decay.satisfied is True
    assert rep.kernel_limit.satisfied is True


def test_inconsistent_gradient_rejected():
    g = F.make_grid(5, 40.0, 2000)
    f = F.gaussian(g, 1.0, 2.0)
    wrong = F.gaussian_gradient(g, 3.0, 2.0)   # off by a factor 3
    with pytest.raises(ValueError):
        H.check_hypotheses(f, wrong, P5)


def test_tail_exponent_fit():
    g = F.make_grid(5, 40.0, 2000)
    f = F.make_field(g, (1.0 + g.nodes**2) ** (-1.25))   # tail ~ r^-2.5
    fit = H.tail_exponent(f)
    assert fit.resolved
    assert fit.exponent == pytest.approx(2.5, abs=0.1)


def test_tail_exponent_unresolved_below_floor():
    g = F.make_grid(5, 40.0, 100)
    vals = np.zeros(g.m + 1)
    vals[:3] = 1.0     # nothing alive beyond a couple of nodes
    fit = H.tail_exponent(F.make_field(g, vals))
    assert not fit.resolved
