import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morreyheat import fields as F
from morreyheat import morrey as M
from morreyheat import quadrature as Q
from morreyheat.params import make_params

P5 = make_params(5, 3.0)
P3 = make_params(3, 7.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        M.MorreySpec(0.5, 1.0)
    with pytest.raises(ValueError):
        M.MorreySpec(2.0, -1.0)
    with pytest.raises(ValueError):
        g = F.make_grid(3, 4.0, 100)
        M.morrey_norm(F.indicator(g, 1.0), M.MorreySpec(2.0, 4.0))  # lam > n


def test_critical_pairing():
    spec = M.critical_spec(P5)
    assert spec.q == 2.0 and spec.lam == pytest.approx(P5.mu)


def test_zero_field_norm():
    g = F.make_grid(5, 8.0, 400)
    assert M.morrey_norm(F.zero_field(g), M.MorreySpec(2.0, 2.0)) == 0.0


def test_indicator_oracle_n3():
    g = F.make_grid(3, 8.0, 1600)
    ev = M.morrey_evaluate(F.indicator(g, 1.0), M.MorreySpec(2.0, 1.0))
    assert ev.norm == pytest.approx(math.sqrt(Q.ball_volume(3)), rel=0.03)
    assert ev.center == 0.0
    assert abs(ev.radius - 1.0) < 0.1


def test_capped_power_profile_oracle():
    # unit-amplitude r^(-2/(p-1)) capped at the first node; closed form at a = 0
    g = F.make_grid(5, 40.0, 4000)
    k = 2.0 / (P5.p - 1.0)
    vals = np.maximum(g.nodes, g.nodes[1]) ** (-k)
    f = F.make_field(g, vals)
    spec = M.critical_spec(P5)
    ev = M.morrey_evaluate(f, spec)
    oracle = math.sqrt(5 * Q.ball_volume(5) / (5 - spec.lam))
    assert ev.norm == pytest.approx(oracle, rel=0.03)
    assert ev.center <= 2 * g.h  # the sup sits at (numerically: next to) the center


def test_lattice_refinement_monotone():
    g = F.make_grid(5, 8.0, 800)
    f = F.indicator(g, 1.0)
    spec = M.MorreySpec(2.0, 1.0)
    lat = M.MorreyLattice.default(g)
    vals = []
    for _ in range(3):
        vals.append(M.morrey_norm(f, spec, lat))
        lat = lat.refine()
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


@settings(max_examples=20, deadline=None)
@given(st.floats(0.01, 2.0), st.floats(0.5, 6.0), st.floats(0.0, 3.0), st.floats(1.0, 4.0),
       st.floats(0.0, 4.5))
def test_refined_cells_restrict_to_the_default_evaluation(amplitude, width, freq, q, lam):
    # every cell is a function of (grid, a, R, f) alone: the refined lattice's cells at the
    # default lattice's points are the default evaluation's, bit for bit, so the norm
    # cannot fall under refinement
    g = F.make_grid(5, 40.0, 401)
    f = F.make_field(g, amplitude * np.cos(freq * g.nodes) * np.exp(-(g.nodes / width) ** 2))
    spec = M.MorreySpec(q, lam)
    coarse = M.MorreyLattice.default(g)
    fine = coarse.refine()
    ev_coarse, ev_fine = M.morrey_evaluate(f, spec, coarse), M.morrey_evaluate(f, spec, fine)
    keep = np.ix_(np.isin(fine.centers, coarse.centers), np.isin(fine.radii, coarse.radii))
    assert ev_fine.cells[keep].tobytes() == ev_coarse.cells.tobytes()
    assert M.sub_cells(ev_fine, fine, coarse).tobytes() == ev_coarse.cells.tobytes()
    assert ev_fine.norm >= ev_coarse.norm


def test_sub_cells_rejects_a_lattice_it_does_not_contain():
    g = F.make_grid(5, 8.0, 200)
    lat = M.MorreyLattice.default(g)
    ev = M.morrey_evaluate(F.indicator(g, 1.0), M.MorreySpec(2.0, 1.0), lat)
    with pytest.raises(ValueError):
        M.sub_cells(ev, lat, lat.refine())


def test_refine_is_superset():
    g = F.make_grid(5, 8.0, 400)
    lat = M.MorreyLattice.default(g)
    ref = lat.refine()
    assert set(np.round(lat.centers, 12)) <= set(np.round(ref.centers, 12))
    assert set(np.round(lat.radii, 12)) <= set(np.round(ref.radii, 12))


def test_power_identity_exact():
    g = F.make_grid(5, 16.0, 800)
    f = F.gaussian(g, 1.3, 2.0)
    fsq = F.make_field(g, f.values**2)
    for lam in (1.0, 2.0, 4.0):
        left = M.morrey_norm(fsq, M.MorreySpec(1.0, lam))
        right = M.morrey_norm(f, M.MorreySpec(2.0, lam)) ** 2
        assert abs(left - right) <= 1e-12 * max(left, 1.0)


def test_holder_product_inequality():
    g = F.make_grid(5, 16.0, 800)
    f = F.gaussian(g, 1.0, 2.0)
    h = F.power_tail(g, 0.8, 1.4, 1.5)
    fg = F.make_field(g, f.values * h.values)
    r, p = 6.0, 3.0
    lat = M.MorreyLattice.default(g)
    for lam in (1.0, 2.0):
        left = M.morrey_norm(fg, M.MorreySpec(r / p, lam), lat)
        right = (M.morrey_norm(f, M.MorreySpec(r / (p - 1), lam), lat)
                 * M.morrey_norm(h, M.MorreySpec(r, lam), lat))
        assert left <= right * (1 + 1e-9)


def test_lebesgue_embedding():
    # compact support: Morrey norm at the critical pairing bounded by the L^{q_c} norm
    ratios = []
    for width in (1.0, 2.0, 4.0):
        g = F.make_grid(5, 16.0 + 4 * width, int((16 + 4 * width) / 0.02))
        f = F.gaussian(g, 1.0, width)
        spec = M.critical_spec(P5)
        ratios.append(M.morrey_norm(f, spec) / M.lq_norm(f, P5.q_c))
    assert max(ratios) < 10.0
    assert max(ratios) / min(ratios) < 2.0   # a stable fitted constant


def test_weighted_sup_embedding_chain():
    # ||f||_{M^{q,2q/(p-1)}} <= ||r^{-2/(p-1)}||_{M} * weighted_sup(f)
    g = F.make_grid(5, 40.0, 4000)
    k = 2.0 / (P5.p - 1.0)
    spec = M.critical_spec(P5)
    profile = F.make_field(g, np.maximum(g.nodes, g.nodes[1]) ** (-k))
    profile_norm = M.morrey_norm(profile, spec)
    for f in (F.gaussian(g, 1.0, 2.0), F.power_tail(g, 0.7, 1.5, 2.0)):
        lhs = M.morrey_norm(f, spec)
        rhs = profile_norm * F.weighted_sup_norm(f, k)
        assert lhs <= rhs * (1 + 1e-9)


def test_lam_n_is_lebesgue():
    g = F.make_grid(5, 16.0, 800)
    f = F.gaussian(g, 1.0, 2.0)
    assert M.morrey_norm(f, M.MorreySpec(2.0, 5.0)) == pytest.approx(
        M.lq_norm(f, 2.0), rel=1e-12)


def test_smoothing_profile_linf_case():
    g = F.make_grid(5, 12.0, 600)
    f = F.gaussian(g, 1.0, 2.0)
    pts = M.smoothing_profile(f, 2.0, 2.0, 0.0, np.geomspace(0.1, 10.0, 5))
    # lam = 0 reduces to the plain sup-norm contraction of the heat flow
    for pt in pts:
        assert pt.ratio <= 1.0 + 1e-9


def test_smoothing_profile_l1_to_linf():
    g = F.make_grid(5, 16.0, 800)
    f = F.indicator(g, 1.0)
    pts = M.smoothing_profile(f, 1.0, math.inf, 5.0, np.geomspace(1e-2, 1e2, 10))
    assert all(math.isfinite(pt.ratio) for pt in pts)
    assert max(pt.ratio for pt in pts) <= (4 * math.pi) ** (-2.5) * 1.05


def test_smoothing_contraction_flags():
    g = F.make_grid(5, 16.0, 800)
    f = F.gaussian(g, 1.0, 2.0)
    pts = M.smoothing_profile(f, 2.0, 4.0, 2.0, np.geomspace(1e-2, 1e2, 8))
    assert all(pt.contraction_ok for pt in pts)


def test_cells_table_shape():
    g = F.make_grid(5, 8.0, 400)
    lat = M.MorreyLattice.default(g, n_centers=8, n_radii=10)
    ev = M.morrey_evaluate(F.gaussian(g, 1.0, 2.0), M.MorreySpec(2.0, 2.0), lat)
    assert ev.cells.shape == (9, 10)
    assert ev.norm ** 2 == pytest.approx(ev.cells.max(), rel=1e-12)


def test_small_scale_diagnostic_reports():
    g = F.make_grid(5, 16.0, 800)
    ev = M.morrey_evaluate(F.indicator(g, 1.0), M.MorreySpec(2.0, 2.0))
    d = M.small_scale_diagnostic(ev.cells)
    assert set(d) == {"small_r_value", "max_value", "small_r_fraction"}
    assert 0.0 <= d["small_r_fraction"] <= 1.0
    # the indicator's Morrey mass lives at scale ~1, not at small radii
    assert d["small_r_fraction"] < 0.5


def test_small_ball_cells_match_ball_integral():
    # the per-radius small-ball path of morrey_evaluate against the one-ball path
    g = F.make_grid(5, 40.0, 200)
    f = F.gaussian(g, 1.0, 2.0, F.DIRICHLET)
    spec = M.critical_spec(P5)
    lat = M.MorreyLattice.default(g)
    ev = M.morrey_evaluate(f, spec, lat)
    small = np.nonzero(lat.radii <= Q.SMALL_BALL_FACTOR * g.h)[0]
    assert small.size == 28
    for ri in small:
        r_ball = float(lat.radii[ri])
        for ci, a in enumerate(lat.centers):
            expect = Q.ball_integral(f, spec.q, float(a), r_ball) * r_ball ** (spec.lam - 5)
            assert ev.cells[ci, ri] == pytest.approx(expect, rel=1e-13, abs=0.0)


@pytest.mark.filterwarnings("ignore::morreyheat.quadrature.TruncationWarning")
def test_large_cells_equal_ball_integral_bitwise():
    # one large-ball rule: every lattice cell above SMALL_BALL_FACTOR h, the concentric ones
    # included, is bitwise the one-ball integral times the lattice's own R^(lambda - n)
    g = F.make_grid(5, 40.0, 400)
    f = F.gaussian(g, 0.05, 2.0)
    spec = M.critical_spec(P5)
    lat = M.MorreyLattice.default(g)
    ev = M.morrey_evaluate(f, spec, lat)
    scale = np.asarray(lat.radii) ** (spec.lam - 5)
    large = np.flatnonzero(lat.radii > Q.SMALL_BALL_FACTOR * g.h)
    assert large.size and lat.centers[0] == 0.0
    for ri in large:
        for ci, a in enumerate(lat.centers):
            got = Q.ball_integral(f, spec.q, float(a), float(lat.radii[ri])) * scale[ri]
            assert got == ev.cells[ci, ri], (a, lat.radii[ri])
