import math
import warnings

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from morreyheat import fields as F
from morreyheat import morrey as M
from morreyheat.params import make_params

P5 = make_params(3.0)


def grid5(r_max=16.0, m=800):
    return F.make_grid(5, r_max, m)


def test_grid_invariants():
    g = grid5()
    assert g.nodes[0] == 0.0
    assert np.allclose(np.diff(g.nodes), g.h)
    with pytest.raises(ValueError):
        F.make_grid(5, 10.0, 8)


def test_grids_fields_and_lattices_compare_by_identity():
    # their numpy fields admit no value equality: each is equal to itself alone, and hashable
    made = []
    for _ in range(2):
        g = F.make_grid(5, 10.0, 64)
        made.append((g, F.gaussian(g, 1.0, 2.0), M.MorreyLattice.default(g)))
    for x, twin in zip(*made):
        assert x == x and not x != x
        assert x != twin and not x == twin
        assert hash(x) == hash(x)
        assert len({x, twin}) == 2


def test_field_validation():
    g = grid5()
    with pytest.raises(ValueError):
        F.make_field(g, np.ones(3))
    with pytest.raises(ValueError):
        F.make_field(g, np.full(g.m + 1, np.nan))
    with pytest.raises(ValueError):
        F.make_field(g, np.ones(g.m + 1), F.DIRICHLET)  # nonzero at r_max


@pytest.mark.parametrize("name, args, message", [
    ("gaussian", {"amplitude": 1.0, "width": 0.0}, "width must be > 0"),
    ("gaussian", {"amplitude": 1.0, "width": -2.0}, "width must be > 0"),
    ("gaussian", {"amplitude": 1.0, "width": math.nan}, "width must be > 0"),
    ("power_tail", {"amplitude": 1.0, "exponent": 1.5, "core_radius": 0.0},
     "core_radius must be > 0"),
    ("power_tail", {"amplitude": 1.0, "exponent": 1.5, "core_radius": -1.0},
     "core_radius must be > 0"),
])
def test_profile_scale_must_be_positive(name, args, message):
    # rejected before the division by it, so numpy warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=message):
            F.build_profile(name, grid5(), P5, args)


def test_sup_norm_cases():
    g = grid5()
    assert F.sup_norm(F.zero_field(g)) == 0.0
    assert F.sup_norm(F.indicator(g, 1.0)) == 1.0
    gau = F.gaussian(g, 1.0, 2.0)
    assert F.sup_norm(gau) == 1.0
    assert np.argmax(np.abs(gau.values)) == 0


def test_weighted_sup_norm():
    g = grid5()
    assert F.weighted_sup_norm(F.zero_field(g), 2.0) == 0.0
    ind = F.indicator(g, 1.0)
    assert F.weighted_sup_norm(ind, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert F.weighted_sup_norm(ind, 0.0) == F.sup_norm(ind)
    # scale-invariant profile: r^k |U_*| == L everywhere beyond the cap
    ss = F.singular_steady_state(grid5(40.0, 4000), P5)
    k = 2.0 / (P5.p - 1.0)
    assert F.weighted_sup_norm(ss, k) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_weighted_equals_plain_at_zero_weight():
    g = grid5()
    f = F.power_tail(g, 0.7, 1.5, 2.0)
    assert F.weighted_sup_norm(f, 0.0) == F.sup_norm(f)


_PCHIP_DATA = {
    "gaussian": lambda r: np.exp(-(r / 2.0) ** 2),
    "random": lambda r: np.random.default_rng(5).normal(size=r.size),
    "step": lambda r: (r <= 3.0).astype(float),
    "zero": np.zeros_like,
    # flat runs give exactly-zero secant slopes on both sides of interior nodes
    "plateau": lambda r: np.select([r <= 2.0, r <= 5.0], [2.0, 0.5], 0.0),
    # secant slopes that flip sign at both ends, where the end slope is limited to 3 m_0
    "zigzag": lambda r: (-1.0) ** np.arange(r.size) * (np.arange(r.size) % 5) ** 2,
}


@pytest.mark.parametrize("name", sorted(_PCHIP_DATA))
def test_pchip_matches_scipy(name):
    x = grid5(r_max=8.0, m=160).nodes
    y = _PCHIP_DATA[name](x)
    xi = np.concatenate([np.linspace(-1.0, 9.0, 2001), x, [x[-1], x[-1] * (1 + 1e-15), -1e-300]])
    want = PchipInterpolator(x, y, extrapolate=False)(xi)
    want = np.where(np.isnan(want), 0.0, want)
    got = F.pchip(x, y, xi)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # on the nodes the data, r_max included (read off the last interval's cubic), and 0 outside
    on_nodes = np.append(got[2001:2001 + x.size], got[-3])
    assert np.max(np.abs(on_nodes - np.append(y, y[-1]))) <= 1e-14 * np.max(np.abs(y))
    assert got[-2] == 0.0 == got[-1]
    assert np.all(got[(xi < 0.0) | (xi > x[-1])] == 0.0)


def test_rescale_identity_and_rejection():
    g = grid5()
    f = F.gaussian(g, 1.0, 2.0)
    assert F.rescale_field(f, 1.0, P5) is f
    with pytest.raises(ValueError):
        F.rescale_field(f, 0.0, P5)
    with pytest.raises(ValueError):
        F.rescale_field(f, -2.0, P5)


def test_rescale_fixes_singular_steady_state():
    g = F.make_grid(5, 40.0, 4000)
    ss = F.singular_steady_state(g, P5)
    r2 = F.rescale_field(ss, 2.0, P5)
    # exact scale invariance away from the regularized origin and the grid end
    sel = (g.nodes > 1.0) & (g.nodes < 19.0)
    rel = np.abs(r2.values[sel] - ss.values[sel]) / ss.values[sel]
    assert rel.max() < 1e-6


def test_rescale_morrey_invariance_two_resolutions():
    spec = M.critical_spec(P5)
    for m in (1000, 2000):
        g = F.make_grid(5, 40.0, m)
        f = F.gaussian(g, 1.0, 2.0)
        lat = M.MorreyLattice.default(g)
        base = M.morrey_norm(f, spec, lat)
        for lam in (0.5, 2.0):
            val = M.morrey_norm(F.rescale_field(f, lam, P5), spec, lat)
            assert val == pytest.approx(base, rel=0.01)


def test_rescale_composition():
    g = F.make_grid(5, 40.0, 2000)
    f = F.gaussian(g, 1.0, 2.0)
    two_step = F.rescale_field(F.rescale_field(f, 1.3, P5), 1.7, P5)
    one_step = F.rescale_field(f, 1.3 * 1.7, P5)
    rel = np.max(np.abs(two_step.values - one_step.values)) / F.sup_norm(one_step)
    assert rel < 1e-4


def test_rescale_moves_argmax():
    g = F.make_grid(5, 40.0, 2000)
    bump = F.make_field(g, np.exp(-((g.nodes - 5.0)) ** 2))
    for lam in (0.5, 2.0):
        resc = F.rescale_field(bump, lam, P5)
        r_max_pos = g.nodes[np.argmax(np.abs(resc.values))]
        assert abs(r_max_pos - 5.0 / lam) <= g.h + 1e-12


def test_named_profiles_build():
    g = grid5()
    for name, args in [("gaussian", {"amplitude": 1.0, "width": 2.0}),
                       ("plateau", {"amplitude": 1.0, "radius": 3.0, "ramp": 1.0}),
                       ("power_tail", {"amplitude": 1.0, "exponent": 2.0, "core_radius": 1.0}),
                       ("indicator", {"radius": 1.0}),
                       ("singular_steady_state", {}),
                       ("zero", {})]:
        f = F.build_profile(name, g, P5, args)
        assert np.all(np.isfinite(f.values))
    with pytest.raises(ValueError):
        F.build_profile("nope", g, P5, {})


def test_gradient_profiles_match_finite_differences():
    g = F.make_grid(5, 16.0, 1600)
    f = F.gaussian(g, 0.7, 2.0)
    an = F.gaussian_gradient(g, 0.7, 2.0)
    fd = np.abs(np.gradient(f.values, g.h))
    assert np.max(np.abs(fd[1:-1] - an.values[1:-1])) < 2e-4


_G = F.make_grid(5, 10.0, 32)


@pytest.mark.parametrize("call, message", [
    (lambda: F.make_grid(2, 10.0, 32), "dimension n must be >= 3"),
    (lambda: F.make_grid(5, 0.0, 32), "r_max must be positive"),
    (lambda: F.make_field(_G, np.zeros(33), "neumann"), "unknown boundary tag 'neumann'"),
    (lambda: F.weighted_sup_norm(F.gaussian(_G, 1.0, 2.0), -1.0), "k must be >= 0"),
    # at n = 3, p = 3 the profile height L^(p-1) = 1 (3 - 2 - 1) is 0
    (lambda: F.singular_steady_state(F.make_grid(3, 10.0, 32), make_params(3.0)),
     "no positive singular"),
])
def test_argument_guards_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("n", [2, 0, 4.5, 3.5, math.nan])
def test_make_grid_rejects_bad_dimension(n):
    # the grid is the one place n is stated, so its guard is the only one: a non-integer n
    # is rejected, not rounded down
    with pytest.raises(ValueError, match="dimension n must be >= 3 and an integer"):
        F.make_grid(n, 10.0, 64)
