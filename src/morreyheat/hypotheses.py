"""Numeric checkers for the decay/integrability classes of admissible initial data.

Each condition is judged on the sampled grid: integrability through least-squares
tail-exponent fits (a decay strictly faster than the target, by at least the
o-margin 0.1, counts as "little-o"), and kernel-weighted limits through a
fitted trend slope on a logarithmic time grid.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import counters
from .fields import RadialField, make_field, radial_derivative
from .morrey import MorreyLattice, lq_norm
from .params import ModelParams
from .similarity import functional_A

O_MARGIN = 0.1            # fitted exponent must beat the target by this much
TREND_SLOPE = -0.05       # log-log slope that certifies a vanishing limit
TAIL_FLOOR = 1e-12
TAIL_FRACTION = 0.25
MIN_TAIL_POINTS = 8
GRADIENT_MISMATCH_TOL = 0.05   # grad_f against centered differences of f, relative


@dataclass(frozen=True)
class TailFit:
    exponent: float | None     # decay exponent gamma in |f| ~ r^(-gamma)
    n_points: int
    resolved: bool


def tail_exponent(f: RadialField) -> TailFit:
    """Least-squares fit of log|f| against log r over the outer TAIL_FRACTION of the
    nodes whose magnitude still exceeds TAIL_FLOOR."""
    r = f.grid.nodes
    vals = np.abs(f.values)
    alive = np.nonzero(vals > TAIL_FLOOR)[0]
    if alive.size == 0:
        return TailFit(None, 0, False)
    last = alive[-1]
    start = max(1, int(math.ceil(last * (1.0 - TAIL_FRACTION))))
    window = np.arange(start, last + 1)
    window = window[vals[window] > TAIL_FLOOR]
    if window.size < MIN_TAIL_POINTS:
        return TailFit(None, int(window.size), False)
    slope = np.polyfit(np.log(r[window]), np.log(vals[window]), 1)[0]
    return TailFit(float(-slope), int(window.size), True)


@dataclass(frozen=True)
class ConditionCheck:
    satisfied: bool | None      # None when undecidable at this resolution
    evidence: dict


@dataclass(frozen=True)
class HypothesisReport:
    gradient_integrability: ConditionCheck   # grad u0 in L^q, q in [2, n(p-1)/(p+1))
    gradient_decay: ConditionCheck           # |grad u0| = o(r^(-2/(p-1)-1))
    kernel_limit: ConditionCheck             # weighted kernel quantities -> 0
    energy_integrability: ConditionCheck     # |u0|^(p+1) + |grad u0|^2 in L^m
    pointwise_decay: ConditionCheck          # |u0| + r|grad u0| = o(r^(-2/(p-1)))


def _zero_check() -> ConditionCheck:
    return ConditionCheck(True, {"zero_data": True})


def _beats(fit: TailFit, target: float) -> bool | None:
    """|f| = o(r^-target): fitted tail exponent beats target by O_MARGIN (None: unresolved)."""
    return fit.exponent >= target + O_MARGIN if fit.resolved else None


def _integrability(f: RadialField, fit: TailFit, lo: float, hi: float,
                   interval_key: str) -> ConditionCheck:
    """f in L^s for some s in [lo, hi): norms at three exponents of the interval as
    evidence, and a fitted tail exponent beating n / (0.999 hi) by O_MARGIN."""
    if hi <= lo:
        return ConditionCheck(False, {interval_key: (lo, hi)})
    norms = {f"L{s:.3f}": lq_norm(f, s) for s in (lo, math.sqrt(lo * hi), 0.999 * hi)}
    if not fit.resolved:
        return ConditionCheck(None, {"norms": norms, "tail_points": fit.n_points})
    need = f.grid.n / (0.999 * hi)
    return ConditionCheck(fit.exponent > need + O_MARGIN,
                          {"norms": norms, "tail_exponent": fit.exponent,
                           "required_exponent": need})


@counters.timed("hypotheses.check_s")
def check_hypotheses(f: RadialField, grad_f: RadialField, params: ModelParams) -> HypothesisReport:
    """Evaluate the admissibility conditions on sampled data.

    grad_f must be the sampled |du0/dr|, consistent with f's centered
    differences to within GRADIENT_MISMATCH_TOL relative to the gradient scale.
    """
    grid = f.grid
    n, p = grid.n, params.p
    k_crit = 2.0 / (p - 1.0)

    g_vals = np.abs(grad_f.values)
    fd = np.abs(radial_derivative(f).values)
    scale = max(float(g_vals.max()), 1e-300)
    # 95th percentile so isolated kinks in the data do not trip the guard
    mismatch = float(np.percentile(np.abs(fd[1:-1] - g_vals[1:-1]), 95)) / scale
    if g_vals.max() > 0 and mismatch > GRADIENT_MISMATCH_TOL:
        raise ValueError(
            f"grad_f disagrees with centered differences of f ({mismatch:.3g} relative)")

    zero_f = float(np.abs(f.values).max()) == 0.0
    zero_g = float(g_vals.max()) == 0.0
    if zero_f and zero_g:
        return HypothesisReport(*(_zero_check() for _ in range(5)))

    fit_g = tail_exponent(grad_f)
    fit_f = tail_exponent(f)
    rg = make_field(grid, grid.nodes * g_vals)
    fit_rg = tail_exponent(rg)

    # gradient integrability: grad u0 in L^q for some q in [2, n(p-1)/(p+1))
    if zero_g:
        c21 = _zero_check()
    else:
        c21 = _integrability(grad_f, fit_g, 2.0, n * (p - 1.0) / (p + 1.0),
                             "admissible_q_interval")

    # gradient decay: |grad u0| = o(r^(-2/(p-1)-1))
    target_g = k_crit + 1.0
    if zero_g:
        c22 = _zero_check()
    elif not fit_g.resolved:
        c22 = ConditionCheck(None, {"tail_points": fit_g.n_points})
    else:
        c22 = ConditionCheck(_beats(fit_g, target_g),
                             {"tail_exponent": fit_g.exponent, "target": target_g})

    # kernel-weighted limit on a logarithmic horizon: sup over centers of functional_A
    t_grid = np.geomspace(1.0, 1e4, 5)
    centers = MorreyLattice.default(grid, n_centers=8).centers
    qs_t = np.array([np.max(functional_A(f, grad_f, float(t), centers, params))
                     for t in t_grid])
    if np.all(qs_t < 1e-290):
        c24 = ConditionCheck(True, {"kernel_values": qs_t.tolist()})
    else:
        slope = float(np.polyfit(np.log(t_grid), np.log(np.maximum(qs_t, 1e-300)), 1)[0])
        c24 = ConditionCheck(slope < TREND_SLOPE,
                             {"kernel_values": qs_t.tolist(), "trend_slope": slope})

    # energy integrability: |u0|^(p+1) + |grad u0|^2 in L^m, m in [1, n(p-1)/(2(p+1)))
    combo = make_field(grid, np.abs(f.values) ** (p + 1.0) + g_vals**2)
    c25 = _integrability(combo, tail_exponent(combo), 1.0,
                         n * (p - 1.0) / (2.0 * (p + 1.0)), "admissible_m_interval")

    # pointwise decay: |u0| + r |grad u0| = o(r^(-2/(p-1)))
    checks, evid = [], {"target": k_crit}
    for zero, fit, key in ((zero_f, fit_f, "u_tail_exponent"),
                           (zero_g, fit_rg, "r_grad_tail_exponent")):
        if not zero:
            checks.append(_beats(fit, k_crit))
            if fit.resolved:
                evid[key] = fit.exponent
    c26 = ConditionCheck(None if None in checks else all(checks), evid)

    return HypothesisReport(gradient_integrability=c21, gradient_decay=c22,
                            kernel_limit=c24, energy_integrability=c25,
                            pointwise_decay=c26)
