import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morreyheat import counters
from morreyheat import fields as F
from morreyheat import morrey as M
from morreyheat import quadrature as Q
from morreyheat.params import make_params

P5 = make_params(3.0)
P3 = make_params(7.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        M.MorreySpec(0.5, 1.0)
    with pytest.raises(ValueError):
        M.MorreySpec(2.0, -1.0)
    # a NaN compares false both ways: the guards state what must hold, so it fails them
    with pytest.raises(ValueError):
        M.MorreySpec(math.nan, 1.0)
    with pytest.raises(ValueError):
        M.MorreySpec(2.0, math.nan)
    with pytest.raises(ValueError):
        g = F.make_grid(3, 4.0, 100)
        M.morrey_norm(F.indicator(g, 1.0), M.MorreySpec(2.0, 4.0))  # lam > n


def test_critical_pairing():
    spec = M.critical_spec(P5)
    assert spec.q == 2.0 and spec.lam == pytest.approx(4.0 / (P5.p - 1.0))


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


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["gaussian", "compact"]), st.floats(0.05, 2.0), st.floats(0.5, 6.0),
       st.floats(1.0, 3.0), st.floats(1.0, 2.0), st.floats(0.0, 5.0))
def test_power_identity_on_every_cell(shape, amplitude, width, m, q, lam):
    # the cells of (|f|^m, M^{q/m, lambda}) are those of (f, M^{q, lambda}), on the small-ball
    # radii and the large ones alike, within test_power_identity_exact's tolerance; compact
    # fields vanish past their width, where the small-ball rule turns linear
    g = F.make_grid(5, 16.0, 200)
    r = g.nodes
    if shape == "gaussian":
        values = amplitude * np.exp(-(r / width) ** 2)
    else:
        values = amplitude * np.clip(1.0 - (r / width) ** 2, 0.0, None) ** 3
    f = F.make_field(g, values)
    lattice = M.MorreyLattice.default(g)
    left = M.morrey_evaluate(F.make_field(g, np.abs(values) ** m), M.MorreySpec(q, lam),
                             lattice).cells
    right = M.morrey_evaluate(f, M.MorreySpec(q * m, lam), lattice).cells
    small = lattice.radii <= Q.SMALL_BALL_FACTOR * g.h
    assert small.any() and not small.all()
    assert np.all(np.abs(left - right) <= 1e-12 * np.maximum(left, 1.0))


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
    # compact support: Morrey norm at the critical pairing bounded by the L^{q_c} norm,
    # q_c = n(p-1)/2
    ratios = []
    for width in (1.0, 2.0, 4.0):
        g = F.make_grid(5, 16.0 + 4 * width, int((16 + 4 * width) / 0.02))
        f = F.gaussian(g, 1.0, width)
        spec = M.critical_spec(P5)
        ratios.append(M.morrey_norm(f, spec) / M.lq_norm(f, g.n * (P5.p - 1.0) / 2.0))
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


@pytest.mark.parametrize("nodes, n_small", [(200, 28), (400, 25)])
def test_cells_equal_ball_integral_bitwise(nodes, n_small):
    # one rule choice: every lattice cell, small- and large-ball radii and the concentric
    # balls alike, is bitwise the one-ball integral times the lattice's own R^(lambda - n),
    # at lambda = n (the L^q case) as at the critical lambda
    g = F.make_grid(5, 40.0, nodes)
    f = F.gaussian(g, 1.0, 2.0)
    spec = M.critical_spec(P5)
    density = np.abs(f.values) ** spec.q

    def one_ball(a, r_ball):
        return Q.ball_integrals(g, density, Q.ball_rules(g, [a], [r_ball]))[0, 0]

    lat = M.MorreyLattice.default(g)
    evs = {lam: M.morrey_evaluate(f, M.MorreySpec(spec.q, lam), lat) for lam in (spec.lam, 5.0)}
    scales = {lam: np.asarray(lat.radii) ** (lam - 5) for lam in evs}
    small = lat.radii <= Q.SMALL_BALL_FACTOR * g.h
    assert np.count_nonzero(small) == n_small and not small.all() and lat.centers[0] == 0.0
    for ri, r_ball in enumerate(lat.radii):
        for ci, a in enumerate(lat.centers):
            integral = one_ball(float(a), float(r_ball))
            for lam, ev in evs.items():
                assert integral * scales[lam][ri] == ev.cells[ci, ri], (lam, a, r_ball)
    # at lambda = n the Gaussian's small balls hold a vanishing share of its L^q mass
    assert M.small_scale_diagnostic(evs[5.0].cells)["small_r_fraction"] < 1.0
    # a radius exactly at SMALL_BALL_FACTOR h takes the small-ball rule, the next float up
    # the large-ball rule, each bitwise its lattice cell; a ball that misses the grid is 0.0
    edge = Q.SMALL_BALL_FACTOR * g.h
    for r_ball, rule in ((edge, Q.SmallBallPlan), (np.nextafter(edge, np.inf), tuple)):
        assert type(Q.ball_rules(g, [1.0], [r_ball])[0]) is rule
        edge_lat = M.MorreyLattice(g, centers=lat.centers, radii=np.array([r_ball]))
        one = [one_ball(float(a), float(r_ball)) for a in lat.centers]
        want = np.array(one)[:, None] * edge_lat.radii ** (spec.lam - 5)
        assert want.tobytes() == M.morrey_evaluate(f, spec, edge_lat).cells.tobytes()
        assert one_ball(g.r_max + 2.0 * r_ball, r_ball) == 0.0


def test_lattice_builds_its_rules_once():
    # a lattice evaluated k times builds its ball rules at the first evaluation alone, and
    # every evaluation reads the same rules
    g = F.make_grid(5, 20.0, 100)
    f = F.gaussian(g, 1.0, 2.0)
    lat = M.MorreyLattice.default(g)
    lams = (0.0, 1.0, 2.0, 2.0, 5.0)
    with counters.collect() as work:
        evs = [M.morrey_evaluate(f, M.MorreySpec(2.0, lam), lat) for lam in lams]
        rules = lat.rules
    work.pop("morrey.evaluate_s")
    assert work == {"morrey.evaluations": len(lams), "morrey.table_builds": 1,
                    "morrey.table_mb": sum(x.nbytes for rule in rules for x in rule) / 2**20}
    assert lat.rules is rules and evs[2].cells.tobytes() == evs[3].cells.tobytes()
    # another lattice of the same points builds its own rules, to the same cells
    twin = M.MorreyLattice(g, lat.centers, lat.radii)
    with counters.collect() as work:
        cells = M.morrey_evaluate(f, M.MorreySpec(2.0, 2.0), twin).cells
    assert work["morrey.table_builds"] == 1 and twin.rules is not rules
    assert cells.tobytes() == evs[2].cells.tobytes()


def test_evaluate_rejects_a_lattice_of_another_grid():
    g = F.make_grid(5, 20.0, 100)
    f = F.gaussian(g, 1.0, 2.0)
    spec = M.MorreySpec(2.0, 2.0)
    lat = M.MorreyLattice.default(g)
    # a second make_grid call of the same grid: another object with equal nodes
    again = F.make_grid(5, 20.0, 100)
    assert again is not g
    got = M.morrey_evaluate(f, spec, M.MorreyLattice(again, lat.centers, lat.radii)).cells
    assert got.tobytes() == M.morrey_evaluate(f, spec, lat).cells.tobytes()
    for other in (F.make_grid(5, 20.0, 101), F.make_grid(5, 21.0, 100),
                  F.make_grid(3, 20.0, 100)):
        with pytest.raises(ValueError, match="lattice was built on another grid"):
            M.morrey_evaluate(f, spec, M.MorreyLattice(other, lat.centers, lat.radii))


_G = F.make_grid(5, 10.0, 32)


@pytest.mark.parametrize("call, message", [
    (lambda: M.MorreyLattice(_G, centers=np.array([]), radii=np.array([1.0])), "nonempty"),
    (lambda: M.MorreyLattice(_G, centers=np.array([-1.0]), radii=np.array([1.0])),
     "need centers >= 0 and radii > 0"),
    (lambda: M.MorreyLattice(_G, centers=np.array([0.0]), radii=np.array([0.0])),
     "need centers >= 0 and radii > 0"),
    (lambda: M.smoothing_profile(F.gaussian(_G, 1.0, 2.0), 3.0, 2.0, 2.0, [1.0]),
     "need 1 <= from_q <= to_q"),
])
def test_argument_guards_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()
