import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betainc, gamma, ive

from morreyheat import counters
from morreyheat import fields as F
from morreyheat import morrey as M
from morreyheat import quadrature as Q


def test_constants():
    assert Q.ball_volume(3) == pytest.approx(4 * math.pi / 3, rel=1e-14)
    assert Q.sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-14)
    assert Q.sphere_area(5) == pytest.approx(5 * Q.ball_volume(5), rel=1e-14)


# --- cap fraction ----------------------------------------------------------


def test_cap_fraction_concentric():
    assert Q.cap_fraction_array(4, 0.0, 0.5, 1.0) == 1.0
    assert Q.cap_fraction_array(4, 0.0, 2.0, 1.0) == 0.0


def test_cap_fraction_hemisphere():
    # s^2 + a^2 = R^2 puts the cap boundary at the equator
    assert Q.cap_fraction_array(3, 3.0, 4.0, 5.0) == pytest.approx(0.5, abs=1e-12)
    assert Q.cap_fraction_array(7, 3.0, 4.0, 5.0) == pytest.approx(0.5, abs=1e-12)


def test_cap_fraction_unit_triangle_3d():
    assert Q.cap_fraction_array(3, 1.0, 1.0, 1.0) == pytest.approx(0.25, abs=1e-12)


def test_cap_fraction_against_regularized_beta():
    rng = np.random.default_rng(7)
    for n in (3, 4, 5, 8):
        al = (n - 1) / 2.0
        for _ in range(100):
            a, s, r = rng.uniform(0.05, 3.0, 3)
            got = Q.cap_fraction_array(n, a, s, r)
            if a + s <= r:
                expect = 1.0
            elif abs(a - s) >= r:
                expect = 0.0
            else:
                c = np.clip((s * s + a * a - r * r) / (2 * a * s), -1.0, 1.0)
                expect = betainc(al, al, (1 - c) / 2)
            assert got == pytest.approx(expect, abs=1e-12)


def test_cap_fraction_monte_carlo():
    rng = np.random.default_rng(11)
    n, a, s, r = 5, 1.2, 0.9, 1.0
    pts = rng.normal(size=(200_000, n))
    pts *= s / np.linalg.norm(pts, axis=1, keepdims=True)
    pts[:, 0] -= a
    frac = float(np.mean(np.linalg.norm(pts, axis=1) <= r))
    assert Q.cap_fraction_array(n, a, s, r) == pytest.approx(frac, abs=5e-3)


def test_cap_fraction_monotone_and_continuous():
    g = np.linspace(0.05, 3.0, 40)
    for a in (0.0, 0.7, 1.5):
        vals_r = [Q.cap_fraction_array(4, a, 1.0, r) for r in g]
        assert all(b >= a_ - 1e-12 for a_, b in zip(vals_r, vals_r[1:]))
    vals_a = Q.cap_fraction_array(4, g, 1.0, 1.0)
    assert all(b <= a_ + 1e-12 for a_, b in zip(vals_a, vals_a[1:]))


# --- ball integrals --------------------------------------------------------


def one_ball(f, q, a, r_ball):
    """integral over B(a e_1, R) of |f|^q: the one-ball call of ball_integrals."""
    return float(Q.ball_integrals(f.grid, np.abs(f.values) ** q,
                                  Q.ball_rules(f.grid, [a], [r_ball]))[0, 0])


def test_ball_integral_volume_oracle():
    g = F.make_grid(3, 8.0, 1600)
    ind = F.indicator(g, 1.0)
    got = one_ball(ind, 1.0, 0.0, 1.0)
    assert got == pytest.approx(Q.ball_volume(3), rel=1e-12)


def test_ball_integral_plateau_small_ball():
    g = F.make_grid(5, 8.0, 800)
    f = F.plateau(g, 2.0, 3.0, 1.0)
    got = one_ball(f, 1.0, 0.0, 0.5)
    assert got == pytest.approx(2.0 * Q.ball_volume(5) * 0.5**5, rel=1e-10)


def test_ball_integral_disjoint():
    g = F.make_grid(3, 8.0, 400)
    assert one_ball(F.indicator(g, 1.0), 1.0, 2.0, 0.5) == 0.0


def test_ball_integral_monte_carlo_offcenter():
    g = F.make_grid(3, 8.0, 1600)
    f = F.gaussian(g, 1.0, 1.5)
    a, r = 1.0, 1.2
    rng = np.random.default_rng(3)
    pts = rng.uniform(-r, r, size=(400_000, 3))
    inside = np.linalg.norm(pts, axis=1) <= r
    pts = pts[inside]
    pts[:, 0] += a
    vals = np.exp(-((np.linalg.norm(pts, axis=1) / 1.5) ** 2)) ** 2
    mc = vals.mean() * Q.ball_volume(3) * r**3
    assert one_ball(f, 2.0, a, r) == pytest.approx(mc, rel=5e-3)


def test_ball_integral_matches_density_form():
    g = F.make_grid(5, 8.0, 800)
    f = F.gaussian(g, 1.3, 2.0)
    fsq = F.make_field(g, f.values**2)
    for a, r in [(0.0, 1.0), (1.0, 0.7), (2.0, 2.0)]:
        assert one_ball(f, 2.0, a, r) == one_ball(fsq, 1.0, a, r)


def test_ball_integral_monotone_in_radius():
    g = F.make_grid(5, 8.0, 800)
    f = F.gaussian(g, 1.0, 2.0)
    radii = np.geomspace(0.05, 6.0, 30)
    vals = Q.ball_integrals(g, np.abs(f.values) ** 2, Q.ball_rules(g, [0.8], radii))[0]
    assert all(b >= a * (1 - 1e-4) for a, b in zip(vals, vals[1:]))


# --- angular kernel and gaussian convolution --------------------------------


_ANGULAR_DIMS = (3, 4, 5, 6, 8, 11)


def _angular_bessel(n, z):
    """Lam(z) by Poisson's integral for I_nu (DLMF 10.32.2), nu = (n-2)/2, for z > 0."""
    nu = (n - 2) / 2.0
    return math.sqrt(math.pi) * gamma((n - 1) / 2) * (2.0 / z) ** nu * ive(nu, z)


def _angular_knots():
    return np.linspace(0.0, math.log1p(Q._ANGULAR_Z_MAX), Q._ANGULAR_KNOTS)


def _angular_theta_quad(n, z):
    """Lam(z) by adaptive quadrature of the theta-integral itself, with th = phi / sqrt(z)
    for z > 1 so the integrand stays of order one, over the range where
    exp(-z (1 - cos th)) = exp(-2 z sin^2(th/2)) is not below exp(-800)."""
    scale = math.sqrt(max(z, 1.0))

    def integrand(phi):
        th = phi / scale
        return math.exp(-2.0 * z * math.sin(0.5 * th) ** 2) * (scale * math.sin(th)) ** (n - 2)
    top = min(math.pi, 40.0 / math.sqrt(z)) * scale if z > 0 else math.pi
    val = quad(integrand, 0.0, top, epsabs=0.0, epsrel=1e-13, limit=500)[0]
    return val / scale ** (n - 1)


def test_angular_kernel_matches_scaled_bessel():
    # on the table, then past its end at z = 1e8, where the quadrature applies directly;
    # ive itself returns nan from about z = 1e10, where only the theta-quadrature checks
    z = np.array([0.0, 1e-6, 0.5, 3.0, 40.0, 1e3, 1e5, 9.9e7, 1.5e8, 5e8, 1e9])
    dense = np.geomspace(1e-6, 2e8, 20001)
    for n in _ANGULAR_DIMS:
        expect = np.full_like(z, math.sqrt(math.pi) * gamma((n - 1) / 2) / gamma(n / 2))
        expect[1:] = _angular_bessel(n, z[1:])
        for zi, ei in zip(z, expect):
            assert _angular_theta_quad(n, zi) == pytest.approx(ei, rel=1e-9), (n, zi)
        got = Q.angular_kernel_scaled(n, z)
        assert np.max(np.abs(got / expect - 1)) < 1e-8
        assert Q.angular_kernel_scaled(n, z[-1]) == got[-1]   # scalar z beyond the table
        assert Q.angular_kernel_scaled(n, 1e11) == pytest.approx(_angular_theta_quad(n, 1e11),
                                                                 rel=1e-9)
        # the table read over its whole range, between knots too
        dense_rel = Q.angular_kernel_scaled(n, dense) / _angular_bessel(n, dense) - 1
        assert np.max(np.abs(dense_rel)) < 1e-8


@pytest.mark.parametrize("n", _ANGULAR_DIMS)
def test_angular_kernel_at_knots(n):
    # at the knots the table holds the quadrature itself, to 1e-11 of the Bessel form
    z = np.expm1(_angular_knots()[1:])
    assert np.max(np.abs(Q.angular_kernel_scaled(n, z) / _angular_bessel(n, z) - 1)) < 1e-11


@pytest.mark.parametrize("n", _ANGULAR_DIMS)
def test_angular_kernel_at_origin_is_cap_total(n):
    # Lam(0) is the full-sphere normaliser integral_0^pi sin^{n-2}
    assert Q.angular_kernel_scaled(n, 0.0) == pytest.approx(Q._cap_total(n), rel=1e-13)


@pytest.mark.parametrize("n", _ANGULAR_DIMS)
def test_angular_table_slopes_match_centred_difference(n):
    # the Hermite slope d log Lam / du at each knot, from the -Lam' quadrature, against a
    # centred difference of the log Bessel form in u = log1p(z)
    u = _angular_knots()[1:-1]
    du, coef = Q._angular_table(n)
    slope = coef[2, 1:-1] / du
    step = 1e-4
    diff = (np.log(_angular_bessel(n, np.expm1(u + step)))
            - np.log(_angular_bessel(n, np.expm1(u - step)))) / (2.0 * step)
    assert np.max(np.abs(slope - diff)) < 1e-7


def _one_shot_angular_moments(n, z):
    """The Gauss-Legendre rule over every z in one (len(z), 96) pass."""
    s, wts = np.polynomial.legendre.leggauss(Q._ANGULAR_RULE_POINTS)
    s = 0.5 * (s + 1.0)
    wts = 0.5 * wts
    z = z[:, None]
    v_max = np.sqrt(Q._EXP_CUTOFF / np.maximum(z, Q._EXP_CUTOFF))
    v = v_max * s
    x_lo = v * v
    lo = Q._angular_integrand(n, v) * (v_max * wts) * np.exp(-z * x_lo)
    x_hi = 2.0 - s * s
    hi = (Q._angular_integrand(n, s) * wts) * np.exp(-z * x_hi)
    return lo.sum(axis=-1) + hi.sum(axis=-1), (lo * x_lo).sum(axis=-1) + (hi * x_hi).sum(axis=-1)


@pytest.mark.parametrize("n", (3, 4, 5, 8))
def test_angular_table_equals_one_shot_rule(n, monkeypatch):
    # the rule applied in chunks gives the one-shot rule's moments and table, bit for bit,
    # at the knots and past the table
    for z in (np.expm1(_angular_knots()), np.geomspace(1.01e8, 1e12, 1100)):
        for got, want in zip(Q._angular_moments(n, z), _one_shot_angular_moments(n, z)):
            assert got.tobytes() == want.tobytes()
    du, coef = Q._angular_table(n)
    monkeypatch.setattr(Q, "_angular_moments", _one_shot_angular_moments)
    want_du, want = Q._angular_table.__wrapped__(n)
    assert du == want_du and coef.tobytes() == want.tobytes()


def test_angular_table_build_peak_memory():
    # the rule's temporaries are (_ANGULAR_CHUNK, 96), not (4097, 96)
    tracemalloc.start()
    try:
        Q._angular_table.__wrapped__(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5e6


def test_gauss_convolve_is_independent_of_call_history():
    g = F.make_grid(5, 20.0, 400)
    f = F.gaussian(g, 1.0, 2.0)
    before = Q.gauss_convolve(f, 0.5, 3.0)
    fine = F.make_grid(5, 16.0, 1600)
    Q.heat_kernel_matrix(fine, 1e-4, fine.nodes)
    assert Q.gauss_convolve(f, 0.5, 3.0) == before


def test_gauss_convolve_unit_mass():
    g = F.make_grid(5, 16.0, 800)
    one = F.make_field(g, np.ones(g.m + 1))
    for t, a in [(0.5, 0.0), (1.0, 2.0), (2.0, 4.0)]:
        assert Q.gauss_convolve(one, t, a) == pytest.approx(1.0, abs=1e-7)


def test_gauss_convolve_semigroup_oracle():
    n = 5
    g = F.make_grid(n, 16.0, 1600)
    g1 = F.gaussian(g, (4 * math.pi) ** (-n / 2), 2.0)   # the heat kernel at t=1
    for a in np.linspace(0.0, 4.0, 9):
        got = Q.gauss_convolve(g1, 1.0, float(a))
        expect = (8 * math.pi) ** (-n / 2) * math.exp(-a * a / 8.0)
        assert got == pytest.approx(expect, rel=1e-6)


def test_gauss_convolve_flat_kernel_asymptote():
    n, t = 5, 100.0
    g = F.make_grid(n, 16.0, 800)
    ind = F.indicator(g, 1.0)
    got = t ** (n / 2) * Q.gauss_convolve(ind, t, 0.0)
    # discrete mass of the sampled profile under the same trapezoid rule
    w = _column_weights(g)
    mass = Q.sphere_area(n) * float(np.sum(w * ind.values))
    assert got == pytest.approx((4 * math.pi) ** (-n / 2) * mass, rel=2e-3)


def test_gauss_convolve_linear_in_f():
    g = F.make_grid(5, 16.0, 400)
    f1 = F.gaussian(g, 1.0, 2.0)
    f2 = F.indicator(g, 2.0)
    combo = F.make_field(g, 2.0 * f1.values - 0.5 * f2.values)
    got = Q.gauss_convolve(combo, 0.7, 1.0)
    expect = 2.0 * Q.gauss_convolve(f1, 0.7, 1.0) - 0.5 * Q.gauss_convolve(f2, 0.7, 1.0)
    assert got == pytest.approx(expect, rel=1e-12)


def test_gauss_convolve_maximum_principle():
    g = F.make_grid(5, 16.0, 800)
    f = F.indicator(g, 1.0)
    for t in (0.01, 0.5, 10.0, 100.0):
        for a in (0.0, 0.5, 1.0, 4.0):
            v = Q.gauss_convolve(f, t, a)
            assert 0.0 <= v <= F.sup_norm(f)


def test_heat_apply_semigroup_composition():
    g = F.make_grid(5, 16.0, 800)
    f = F.gaussian(g, 1.0, 2.0)
    via = Q.heat_apply(Q.heat_apply(f, 0.5), 0.7)
    direct = Q.heat_apply(f, 1.2)
    rel = np.max(np.abs(via.values - direct.values)) / F.sup_norm(direct)
    assert rel < 1e-6


def test_heat_matrix_agrees_with_scalar_path():
    g = F.make_grid(5, 12.0, 600)
    f = F.gaussian(g, 0.8, 1.5)
    t = 0.8
    mat = Q.heat_kernel_matrix(g, t, g.nodes) @ f.values
    for idx in (0, 100, 300, 599):
        assert mat[idx] == pytest.approx(Q.gauss_convolve(f, t, float(g.nodes[idx])),
                                         rel=1e-7, abs=1e-13)
    with pytest.raises(ValueError):
        Q.gauss_convolve(f, t, -1.0)
    with pytest.raises(ValueError):
        Q.heat_kernel_matrix(g, t, [1.0, math.nan])


def _dense_factor(grid, t, centers=None, cut=True):
    """The pre-weight factor c_t Lam exp(-x) at every entry, as one N x N expression; with
    cut=False the Gaussian factors past Q._EXP_CUTOFF are kept."""
    n = grid.n
    a = grid.nodes if centers is None else np.asarray(centers, dtype=float)
    s = grid.nodes
    c_t = (4.0 * math.pi * t) ** (-n / 2.0) * Q.sphere_area(n - 1)
    lam = Q.angular_kernel_scaled(n, np.outer(a, s) / (2.0 * t))
    x = (s[None, :] - a[:, None]) ** 2 / (4.0 * t)
    gauss = np.exp(-x)
    if cut:
        gauss[x > Q._EXP_CUTOFF] = 0.0
    return c_t * lam * gauss


def _column_weights(grid):
    """The trapezoid rule's weights on the grid times s^(n-1), formed directly."""
    w = np.full(grid.m + 1, grid.h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w * grid.nodes ** (grid.n - 1)


def _dense_heat_kernel_matrix(grid, t, centers=None, cut=True):
    """The kernel formula evaluated at every entry: the factor times the column weights, its
    rows divided by their masses above 1."""
    base = _column_weights(grid)
    mat = _dense_factor(grid, t, centers, cut) * base[None, :]
    mass = mat.sum(axis=1)
    over = mass > 1.0
    if np.any(over):
        mat[over] /= mass[over, None]
    return mat


def _diagonal_bytes(grid, t):
    """The bytes of the upper diagonals of the dense factor, up to its last nonzero one."""
    rows, cols = np.nonzero(np.triu(_dense_factor(grid, t)))
    return (int((cols - rows).max()) + 1) * (grid.m + 1) * 8


def _assert_kernel_equals_dense_formula(kernel, grid, t, v):
    """Every stored diagonal is bitwise the dense factor's, zero past the last column, and
    every later one is 0.0; the masses and a product agree with the dense formula's within
    the rounding of a sum over the row; the bytes are the dense factor's diagonal count."""
    factor = _dense_factor(grid, t)
    size = grid.m + 1
    assert kernel.diagonals.shape[1] == size
    for d, diagonal in enumerate(kernel.diagonals):
        want = np.zeros(size)
        want[:size - d] = np.diagonal(factor, d)
        assert diagonal.tobytes() == want.tobytes(), (t, d)
    assert kernel.diagonals[-1].any()
    assert not np.triu(factor, len(kernel.diagonals)).any()
    assert kernel.nbytes == _diagonal_bytes(grid, t)
    eps = np.finfo(float).eps
    base = _column_weights(grid)
    mass = (factor * base[None, :]).sum(axis=1)
    assert np.all(np.abs(kernel.mass - mass) <= size * eps * mass), t
    mat = _dense_heat_kernel_matrix(grid, t)
    got = kernel @ v
    assert got.shape == (size,)
    assert np.all(np.abs(got - mat @ v) <= size * eps * (np.abs(mat) @ np.abs(v))), t


@pytest.mark.parametrize("nodes,r_max", [(200, 10.0), (800, 40.0), (1600, 16.0)])
@pytest.mark.parametrize("n", [3, 5, 8])
def test_heat_kernel_matrix_equals_dense_formula(n, nodes, r_max):
    # the banded build skips only entries whose Gaussian factor is cut to 0.0
    g = F.make_grid(n, r_max, nodes)
    lattice = M.MorreyLattice.default(g).centers
    for t in np.geomspace(2.0 * g.h**2, 100.0, 5):
        t = float(t)
        beyond = r_max + math.sqrt(4.0 * t * Q._EXP_CUTOFF) + 1.0
        for centers in (g.nodes, lattice, lattice[::-1], [beyond], []):
            got = Q.heat_kernel_matrix(g, t, centers)
            want = _dense_heat_kernel_matrix(g, t, centers)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (t, centers)
        assert not Q.heat_kernel_matrix(g, t, [beyond]).any()
        assert Q.heat_kernel_matrix(g, t, []).shape == (0, nodes + 1)


@pytest.mark.parametrize("nodes,r_max", [(200, 10.0), (800, 40.0), (1600, 16.0)])
@pytest.mark.parametrize("n", [3, 4, 5, 8, 11])
def test_kernel_tail_cut_is_below_rounding(n, nodes, r_max):
    # the Gaussian factors past Q._EXP_CUTOFF weigh at most 1e-18 of their row's mass, and
    # products with the cut matrix agree with the uncut formula's within rounding
    g = F.make_grid(n, r_max, nodes)
    rng = np.random.default_rng(n * nodes)
    for t in np.geomspace(2.0 * g.h**2, 100.0, 5):
        t = float(t)
        uncut = _dense_heat_kernel_matrix(g, t, cut=False)
        past = (g.nodes[None, :] - g.nodes[:, None]) ** 2 / (4.0 * t) > Q._EXP_CUTOFF
        assert np.all(np.where(past, uncut, 0.0).sum(axis=1) <= 1e-18 * uncut.sum(axis=1)), t
        mat = Q.heat_kernel_matrix(g, t, g.nodes)
        v = rng.standard_normal((g.m + 1, 4))
        bound = (g.m + 1) * np.finfo(float).eps * (np.abs(uncut) @ np.abs(v))
        assert np.all(np.abs(mat @ v - uncut @ v) <= bound), t


@st.composite
def _kernel_cases(draw):
    """A grid with n in {3, 4, 5, 8} and 101-401 nodes, and t log-uniform in [2 h^2, 50]."""
    g = F.make_grid(draw(st.sampled_from([3, 4, 5, 8])), draw(st.floats(5.0, 40.0)),
                    draw(st.integers(100, 400)))
    t_min = 2.0 * g.h**2
    return g, t_min * (50.0 / t_min) ** draw(st.floats(0.0, 1.0))


@settings(max_examples=10, deadline=None)
@given(_kernel_cases())
def test_heat_kernel_matrix_is_a_pure_function_of_grid_and_t(case):
    # the Picard propagator store shares one matrix among intervals of equal width
    g, t = case
    assert (Q.heat_kernel_matrix(g, t, g.nodes).tobytes()
            == Q.heat_kernel_matrix(g, t, g.nodes).tobytes())


@settings(max_examples=10, deadline=None)
@given(_kernel_cases())
def test_heat_kernel_matrix_at_the_nodes_equals_dense_formula(case):
    # rows at the grid's own nodes, the dense operator of heat_apply, are bitwise the formula's
    g, t = case
    assert (Q.heat_kernel_matrix(g, t, g.nodes).tobytes()
            == _dense_heat_kernel_matrix(g, t).tobytes())


@settings(max_examples=10, deadline=None)
@given(_kernel_cases())
def test_heat_kernel_matrix_is_sub_stochastic(case):
    g, t = case
    mat = Q.heat_kernel_matrix(g, t, g.nodes)
    assert np.all(mat >= 0.0)
    assert np.all(mat.sum(axis=1) <= 1.0 + 1e-12)


@settings(max_examples=10, deadline=None)
@given(_kernel_cases())
def test_banded_kernel_reassembles_the_matrix(case):
    # the symmetric band kernel keeps the dense factor's upper diagonals bitwise, and its
    # masses and products agree with the dense formula within rounding
    g, t = case
    _assert_kernel_equals_dense_formula(Q.SymmetricBandKernel(g, t), g, t,
                                        np.random.default_rng(g.m).standard_normal(g.m + 1))


@settings(max_examples=10, deadline=None)
@given(_kernel_cases(), st.integers(0, 2**32 - 1))
def test_banded_kernel_product_matches_dense(case, seed):
    g, t = case
    mat = Q.heat_kernel_matrix(g, t, g.nodes)
    v = np.random.default_rng(seed).standard_normal(g.m + 1)
    got = Q.SymmetricBandKernel(g, t) @ v
    assert got.shape == (g.m + 1,)
    bound = (g.m + 1) * np.finfo(float).eps * (np.abs(mat) @ np.abs(v))
    assert np.all(np.abs(got - mat @ v) <= bound)


@pytest.mark.parametrize("nodes,t", [(100, 1000.0), (150, 0.3), (150, 1000.0), (200, 0.05)])
def test_banded_kernel_at_full_reach_and_partial_blocks(nodes, t):
    # node counts past a multiple of the 64-row block leave a last partial block, whose
    # columns past the last node are cut; at t = 1000 the reach spans the grid, and the
    # kernel keeps every diagonal
    g = F.make_grid(5, 10.0, nodes)
    kernel = Q.SymmetricBandKernel(g, t)
    _assert_kernel_equals_dense_formula(kernel, g, t,
                                        np.random.default_rng(nodes).standard_normal(g.m + 1))
    if t == 1000.0:
        assert kernel.diagonals.shape == (g.m + 1, g.m + 1)
    else:
        assert len(kernel.diagonals) < g.m + 1


def test_rejected_centers_count_no_kernel_build():
    g = F.make_grid(5, 10.0, 64)
    with counters.collect() as work:
        Q.heat_kernel_matrix(g, 1.0, [0.0, 1.0])
        assert work == {"quadrature.kernel_builds": 1}
        with pytest.raises(ValueError, match="center offsets a must be finite and >= 0"):
            Q.heat_kernel_matrix(g, 1.0, [1.0, -0.5])
        assert work == {"quadrature.kernel_builds": 1}


@settings(max_examples=10, deadline=None)
@given(_kernel_cases())
def test_banded_kernel_stores_only_the_bands(case):
    # the kernel keeps the diagonals up to the dense factor's last nonzero one, under one
    # dense matrix while the reach is shorter than the grid
    g, t = case
    kernel = Q.SymmetricBandKernel(g, t)
    dense = (g.m + 1) ** 2 * 8
    assert kernel.nbytes == _diagonal_bytes(g, t) <= dense
    if math.sqrt(4.0 * t * Q._EXP_CUTOFF) < g.r_max:
        assert kernel.nbytes < dense


@settings(max_examples=10, deadline=None)
@given(_kernel_cases())
def test_kernel_weights_are_one_read_only_array_per_grid(case):
    # every kernel on a grid shares one column-weight array, bitwise the direct formula's,
    # that no caller can write
    g, t = case
    w = Q.kernel_weights(g)
    assert w.tobytes() == _column_weights(g).tobytes()
    assert not w.flags.writeable
    assert Q.kernel_weights(F.make_grid(g.n, g.r_max, g.m)) is w
    assert Q.SymmetricBandKernel(g, t).weights is w


@settings(max_examples=10, deadline=None)
@given(_kernel_cases(), st.integers(0, 2**32 - 1))
def test_banded_kernel_product_is_independent_of_alignment(case, seed):
    # a product reads its operands through strided views; it is bitwise the same whatever
    # the addresses of the vector and of the stored diagonals
    g, t = case
    kernel = Q.SymmetricBandKernel(g, t)
    v = np.random.default_rng(seed).standard_normal(g.m + 1)
    want = (kernel @ v).tobytes()
    for shift in (1, 3):
        moved = np.empty(g.m + 1 + shift)[shift:]
        moved[:] = v
        assert (kernel @ moved).tobytes() == want
        diagonals = np.empty(kernel.diagonals.size + shift)[shift:]
        diagonals[:] = kernel.diagonals.reshape(-1)
        kernel.diagonals = diagonals.reshape(kernel.diagonals.shape)
        assert (kernel @ v).tobytes() == want


@pytest.mark.parametrize("nodes,r_max", [(200, 10.0), (800, 40.0), (1600, 16.0)])
@pytest.mark.parametrize("n", [3, 5, 8])
def test_streamed_heat_apply_matches_dense_formula(n, nodes, r_max):
    # heat_apply never forms the matrix: it adds each block's rows and, transposed, the rows
    # below it, then divides by the masses above 1; it agrees with the dense formula's product
    # within the rounding of a sum over the row
    g = F.make_grid(n, r_max, nodes)
    rng = np.random.default_rng(n + nodes)
    for t in np.geomspace(2.0 * g.h**2, 100.0, 5):
        t = float(t)
        mat = _dense_heat_kernel_matrix(g, t)
        v = rng.standard_normal(g.m + 1)
        got = Q.heat_apply(F.make_field(g, v), t)
        assert got.boundary == F.FREE
        bound = (g.m + 1) * np.finfo(float).eps * (np.abs(mat) @ np.abs(v))
        assert np.all(np.abs(got.values - mat @ v) <= bound), t


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_consumers_hold_no_dense_matrix():
    # a 1601-node heat_apply, up to the widest reach (every row reaches every column), and an
    # 801-node Picard propagator build each allocate under a quarter of one N x N matrix
    from morreyheat import duhamel as D
    g = F.make_grid(5, 16.0, 1600)
    f = F.gaussian(g, 1.0, 2.0)
    Q.heat_apply(f, 1.0)   # the angular table is built outside the traced calls
    for t in (0.01, 1.0, 100.0):
        assert _traced_peak(lambda: Q.heat_apply(f, t)) < (g.m + 1) ** 2 * 8 / 4, t
    g = F.make_grid(5, 40.0, 800)
    for dt in (0.0053, 0.0098, 0.0234):   # the fine_grid Picard widths: least, median, largest
        assert _traced_peak(lambda: D._update_store({}, g, [dt])) < (g.m + 1) ** 2 * 8 / 4, dt


def test_volume_weights_total():
    g = F.make_grid(5, 8.0, 400)
    assert Q.volume_weights(g).sum() == pytest.approx(8.0**5 / 5.0, rel=1e-12)


def test_origin_ball_weights_clip_exactly():
    g = F.make_grid(5, 8.0, 400)
    # integral of s^4 over [0, R] for piecewise-linear density 1
    for r in (0.013, 0.5, 1.0, 3.21):
        w = Q.origin_ball_weights(g, r)
        assert w.sum() == pytest.approx(r**5 / 5.0, rel=1e-12)
    # balls reaching past r_max clip there
    assert np.array_equal(Q.origin_ball_weights(g, 20.0), Q.volume_weights(g))


@pytest.mark.parametrize("nodes", [200, 400, 1600])
def test_volume_weights_are_origin_ball_weights_at_r_max(nodes):
    g = F.make_grid(5, 40.0, nodes)
    assert np.array_equal(Q.volume_weights(g), Q.origin_ball_weights(g, g.r_max))


def test_cap_fraction_array_broadcasts_centers():
    s = np.linspace(0.0, 3.0, 31)
    centers = np.array([0.0, 0.4, 1.0, 2.5])
    table = Q.cap_fraction_array(5, centers[:, None], s, 1.2)
    for a, row in zip(centers, table):
        assert np.array_equal(row, Q.cap_fraction_array(5, float(a), s, 1.2))


def test_fine_ball_integral_center_array_matches_one_center():
    g = F.make_grid(5, 8.0, 400)
    dens = F.gaussian(g, 1.0, 2.0).values**2
    centers = np.array([0.0, 0.05, 1.0, 7.9, 30.0])   # the last ball misses the grid
    dens = Q.ball_density(g, dens)
    got = Q.fine_ball_integral(g, dens, Q.small_ball_plan(g, centers, 0.3))
    one = [float(Q.fine_ball_integral(g, dens, Q.small_ball_plan(g, float(a), 0.3)))
           for a in centers]
    assert np.array_equal(got, one)
    assert got[-1] == 0.0


@pytest.mark.parametrize("nodes", [200, 400, 1600])
def test_subgrid_equals_linspace_bitwise(nodes):
    # fine_ball_integral builds each row's subgrid in place, in its second work buffer, with
    # linspace's own arithmetic; this guards against numpy changing that formula
    grid = F.make_grid(5, 40.0, nodes)
    for lattice in (M.MorreyLattice.default(grid), M.MorreyLattice.default(grid).refine()):
        for r in lattice.radii[lattice.radii <= Q.SMALL_BALL_FACTOR * grid.h]:
            plan = Q.small_ball_plan(grid, lattice.centers, float(r))
            work = Q.small_ball_work(len(plan.lo))
            work[1][:] = np.nan
            Q.fine_ball_integral(grid, Q.ball_density(grid, np.ones(grid.m + 1)), plan, work)
            want = np.linspace(plan.lo, plan.hi, Q.FINE_BALL_NODES, axis=-1)
            assert work[1].tobytes() == want.tobytes()


# --- small-ball plan against the per-point rule it replaced ---------------------


def _reference_density_interpolant(nodes, g):
    """The per-point interpolant: a searchsorted and five logs per subgrid point."""
    def interp(s):
        s = np.asarray(s, dtype=float)
        idx = np.clip(np.searchsorted(nodes, s, side="right") - 1, 0, len(nodes) - 2)
        s0, s1 = nodes[idx], nodes[idx + 1]
        g0, g1 = g[idx], g[idx + 1]
        w = (s - s0) / (s1 - s0)
        out = g0 * (1.0 - w) + g1 * w
        geo = (g0 > 0) & (g1 > 0) & (s0 > 0)
        if np.any(geo):
            lw = (np.log(s[geo]) - np.log(s0[geo])) / (np.log(s1[geo]) - np.log(s0[geo]))
            out[geo] = np.exp(np.log(g0[geo]) * (1.0 - lw) + np.log(g1[geo]) * lw)
        out[s > nodes[-1]] = 0.0
        return out

    return interp


def _reference_fine_ball_integral(g_interp, n, r_max, a, r_ball, trapezoid=False):
    """Per-radius small-ball rule with its geometry rebuilt on every call: the plan's weights
    and row sum, or with trapezoid=True the form before them, area trapezoid(g s^(n-1) cap, s)."""
    a = np.asarray(a, dtype=float)
    lo = np.maximum(0.0, a - r_ball)
    hi = np.minimum(a + r_ball, r_max)
    out = np.zeros(a.shape)
    live = hi > lo
    if np.any(live):
        s = np.linspace(lo[live], hi[live], Q.FINE_BALL_NODES, axis=-1)
        cap = Q.cap_fraction_array(n, a[live][..., None], s, r_ball)
        if trapezoid:
            vals = g_interp(s) * s ** (n - 1) * cap
            out[live] = Q.sphere_area(n) * np.trapezoid(vals, s, axis=-1)
        else:
            half = np.diff(s, axis=-1) / 2.0
            weight = np.pad(half, [(0, 0), (0, 1)]) + np.pad(half, [(0, 0), (1, 0)])
            weight = Q.sphere_area(n) * weight * s ** (n - 1) * cap
            out[live] = np.einsum("ij,ij->i", g_interp(s), weight)
    return out


_SMALL_BALL_FIELDS = {
    # exact zeros beyond r = 3, so the geometric mask switches off there
    "compact": lambda r: np.clip(1.0 - (r / 3.0) ** 2, 0.0, None) ** 3,
    "sign_changing": lambda r: np.cos(2.0 * r) * np.exp(-r * r / 8.0),
    # exact zeros at isolated interior nodes: linear on both intervals next to each
    "isolated_zeros": lambda r: np.where(np.arange(r.size) % 9 == 4, 0.0, np.exp(-r * r / 16.0)),
    "zero": np.zeros_like,
    # linear on the last interval only, besides the one touching r = 0
    "positive_but_last": lambda r: np.where(r < r[-1], np.exp(-r / 8.0), 0.0),
}


@pytest.mark.parametrize("nodes", [200, 400, 1600])
def test_small_ball_cells_equal_per_point_rule(nodes):
    grid = F.make_grid(5, 40.0, nodes)
    lam = 2.0
    for lattice in (M.MorreyLattice.default(grid), M.MorreyLattice.default(grid).refine()):
        radii = np.asarray(lattice.radii)
        small = np.nonzero(radii <= Q.SMALL_BALL_FACTOR * grid.h)[0]
        assert small.size
        for shape in _SMALL_BALL_FIELDS.values():
            f = F.make_field(grid, shape(grid.nodes))
            for q in (1.0, 2.0, 4.0 / 3.0):
                g = np.abs(f.values) ** q
                interp = _reference_density_interpolant(grid.nodes, g)
                # the large radii's cells
                integrals = Q.ball_integrals(grid, g, lattice.rules)
                for ri in small:
                    integrals[:, ri] = _reference_fine_ball_integral(
                        interp, 5, grid.r_max, lattice.centers, float(radii[ri]))
                want = integrals * radii[None, :] ** (lam - 5)
                got = M.morrey_evaluate(f, M.MorreySpec(q, lam), lattice).cells
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("nodes", [200, 400, 1600])
def test_small_ball_cells_within_rounding_of_trapezoid_form(nodes):
    # the plan's weights regroup area trapezoid(g s^(n-1) cap, s), the rule's form before
    # them, into one sum of g against a weight per point: the cells move in the last digits
    grid = F.make_grid(5, 40.0, nodes)
    lam = 2.0
    for lattice in (M.MorreyLattice.default(grid), M.MorreyLattice.default(grid).refine()):
        radii = np.asarray(lattice.radii)
        small = np.nonzero(radii <= Q.SMALL_BALL_FACTOR * grid.h)[0]
        for shape in _SMALL_BALL_FIELDS.values():
            f = F.make_field(grid, shape(grid.nodes))
            for q in (1.0, 2.0, 4.0 / 3.0):
                interp = _reference_density_interpolant(grid.nodes, np.abs(f.values) ** q)
                want = np.column_stack([_reference_fine_ball_integral(
                    interp, 5, grid.r_max, lattice.centers, float(radii[ri]), trapezoid=True)
                    for ri in small]) * radii[small] ** (lam - 5)
                got = M.morrey_evaluate(f, M.MorreySpec(q, lam), lattice).cells[:, small]
                big = np.abs(want) >= 1e-300
                assert np.all(np.abs(got - want)[big] <= 4e-15 * np.abs(want[big]))


def _dense_ball_weights(grid, lattice, ri):
    """The (centers x nodes) weights of lattice radius ri, by the per-column cap-fraction build."""
    centers, r_ball = np.asarray(lattice.centers), float(lattice.radii[ri])
    area = Q.sphere_area(grid.n)
    col = area * Q.volume_weights(grid) * Q.cap_fraction_array(grid.n, centers[:, None],
                                                               grid.nodes, r_ball)
    col[centers == 0.0] = area * Q.origin_ball_weights(grid, r_ball)
    return col


@pytest.mark.parametrize("nodes", [200, 401])
def test_cell_table_fills_only_large_radii(nodes):
    # the compact geometry holds the radii without a small-ball plan alone; each radius,
    # reassembled per center as [whole-sphere weights | partial band | zeros], is the
    # per-column cap-fraction build, bit for bit; the plans cover the other radii
    grid = F.make_grid(5, 40.0, nodes)
    base = Q.sphere_area(5) * Q.volume_weights(grid)
    for lattice in (M.MorreyLattice.default(grid), M.MorreyLattice.default(grid).refine()):
        rules = lattice.rules
        plans = [ri for ri, rule in enumerate(rules) if isinstance(rule, Q.SmallBallPlan)]
        cells = {ri: rule for ri, rule in enumerate(rules) if ri not in plans}
        radii = np.asarray(lattice.radii)
        small = np.flatnonzero(radii <= Q.SMALL_BALL_FACTOR * grid.h)
        assert len(rules) == radii.size
        assert small.size and sorted(plans) == list(small)
        assert sorted(cells) == list(np.setdiff1d(np.arange(radii.size), small))
        for ri, (inside, owner, cols, vals) in cells.items():
            assert inside.dtype == cols.dtype == (np.uint8 if nodes < 255 else np.uint16)
            rebuilt = np.zeros((len(lattice.centers), grid.m + 1))
            for c, start in enumerate(inside):
                rebuilt[c, :start] = base[:start]
                band = cols[owner == c]
                assert np.array_equal(band, np.arange(start, start + band.size))
                rebuilt[c, band] = vals[owner == c]
            assert rebuilt.tobytes() == _dense_ball_weights(grid, lattice, ri).tobytes()


@pytest.mark.parametrize("nodes", [200, 401, 1600])
def test_large_cells_within_rounding_of_dense_product(nodes):
    # prefix sum plus band against the dense product W g: the two sums differ by no more
    # than (m+1) eps (|W| g) (each is within (m+1) u of the exact sum)
    grid = F.make_grid(5, 40.0, nodes)
    eps = np.finfo(float).eps
    for lattice in (M.MorreyLattice.default(grid), M.MorreyLattice.default(grid).refine()):
        rules = lattice.rules
        large = [ri for ri, rule in enumerate(rules) if not isinstance(rule, Q.SmallBallPlan)]
        for shape in _SMALL_BALL_FIELDS.values():
            g = np.abs(shape(grid.nodes)) ** 1.5
            got = Q.ball_integrals(grid, g, rules)
            for ri in large:
                w = _dense_ball_weights(grid, lattice, ri)
                bound = (grid.m + 1) * eps * (np.abs(w) @ g)
                assert np.all(np.abs(got[:, ri] - w @ g) <= bound)


def test_heat_flow_rejects_times_below_the_grid_floor():
    # below h^2/4 the kernel's rows lose mass: at t = h^2/100 the unit Gaussian's flow read
    # 6.5e-8 at the origin, where it is about 1, and smoothing_profile reported it; every
    # kernel on the grid shares the guard
    g = F.make_grid(5, 10.0, 64)
    f = F.gaussian(g, 1.0, 2.0)
    floor = Q.heat_time_floor(10.0, 64)
    assert floor == g.h ** 2 / 4
    for flow in (lambda t: Q.heat_apply(f, t),
                 lambda t: M.smoothing_profile(f, 2.0, math.inf, 2.0, [t]),
                 lambda t: Q.heat_kernel_matrix(g, t, [0.0, 1.0]),
                 lambda t: Q.gauss_convolve(f, t, 1.0),
                 lambda t: Q.SymmetricBandKernel(g, t)):
        with pytest.raises(ValueError, match="below the grid's heat_time_floor h\\^2/4"):
            flow(g.h ** 2 / 100)
        flow(floor)
    assert Q.heat_apply(f, floor).values[0] > 0.98


_G = F.make_grid(5, 10.0, 32)


@pytest.mark.parametrize("call, message", [
    (lambda: Q.heat_kernel_matrix(_G, 0.0, [0.0]), "t must be positive"),
])
def test_argument_guards_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()
