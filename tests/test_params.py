import dataclasses
import math

import pytest

from morreyheat.morrey import critical_spec
from morreyheat.params import make_params


def test_fields_are_p_and_beta():
    # the dimension is the grid's alone: params hold no n and no value derived from one
    assert [f.name for f in dataclasses.fields(make_params(3.0))] == ["p", "beta"]


def test_p3_derived_quantities():
    p = make_params(3)
    assert p.p == 3.0 and p.beta == 0.5
    assert critical_spec(p).lam == 2.0    # mu = 4/(p-1), the critical Morrey weight for q = 2


def test_identities_hold_on_a_sweep():
    for pexp in (1.5, 2.0, 3.0, 7.0):
        mp = make_params(pexp)
        assert mp.beta * (mp.p - 1) == pytest.approx(1.0, rel=1e-15)
        assert critical_spec(mp).lam == pytest.approx(4 * mp.beta, rel=1e-15)


@pytest.mark.parametrize("p", [1.0, 0.5, math.nan])
def test_rejects_bad_arguments(p):
    with pytest.raises(ValueError):
        make_params(p)
