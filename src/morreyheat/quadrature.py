"""Geometric quadrature kernels for radial functions in R^n.

Reduces integrals over off-center balls and against off-center Gaussian heat
kernels to one-dimensional radial quadrature on the field's own grid.  Fields
are extended by zero beyond r_max in every kernel.  Each formula has one home:
`_kernel_entries` is the single Gaussian-kernel formula (behind `heat_apply`,
`SymmetricBandKernel` and `heat_kernel_matrix`), `kernel_weights` their one
column-weight array per grid, `origin_ball_weights` the single volume-weight
formula, `large_ball_cells` the single large-ball rule, and `fine_ball_integral`
the single small-ball rule, applied to a `small_ball_plan` that holds the rule's
data-free geometry and whole weight.  `ball_rules` alone chooses between the two per
radius, and `ball_integrals` applies its rules to a density, for one ball
(`ball_rules(grid, [a], [R])`) as for the Morrey lattice, which keeps its grid's rules.
"""

import functools
import math
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from . import counters
from .fields import FREE, RadialField, RadialGrid, make_field, make_grid


def sphere_area(n: int) -> float:
    """|S^{n-1}| = 2 pi^{n/2} / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def ball_volume(n: int) -> float:
    """omega_n = pi^{n/2} / Gamma(n/2 + 1)."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def _sin_power_integral(k: int, theta):
    """integral_0^theta sin^k for k >= 1, by the exact reduction
    I_k = (-sin^{k-1} cos + (k-1) I_{k-2})/k from I_0 = theta and I_1 = 1 - cos."""
    theta = np.asarray(theta, dtype=float)
    prev, cur = theta, 1.0 - np.cos(theta)
    if k == 1:
        return cur
    s, c = np.sin(theta), np.cos(theta)
    for m in range(2, k + 1):
        prev, cur = cur, (-(s ** (m - 1)) * c + (m - 1) * prev) / m
    return cur


@functools.lru_cache(maxsize=None)
def _cap_total(n: int) -> float:
    """integral_0^pi sin^{n-2}, the full-sphere normaliser of the cap measure."""
    return float(_sin_power_integral(n - 2, np.array([math.pi]))[0])


def cap_fraction_array(n: int, a, s, r_ball: float) -> np.ndarray:
    """Fraction of the sphere {|x| = s} inside the ball B(a e_1, r_ball); a broadcasts against s."""
    a, s = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(s, dtype=float))
    out = np.zeros(s.shape)
    inside = a + s <= r_ball
    out[inside] = 1.0
    partial = ~inside & (np.abs(a - s) < r_ball) & (s > 0) & (a > 0)
    if np.any(partial):
        ap, sp = a[partial], s[partial]
        c = np.clip((sp * sp + ap * ap - r_ball * r_ball) / (2.0 * ap * sp), -1.0, 1.0)
        out[partial] = _sin_power_integral(n - 2, np.arccos(c)) / _cap_total(n)
    # s == 0: the degenerate sphere is the origin, inside iff a < r_ball
    at0 = s == 0.0
    out[at0] = a[at0] < r_ball
    return out


@functools.lru_cache(maxsize=16)
def _grid_arrays(n: int, m: int, r_max: float) -> dict:
    """The read-only arrays of a grid, made once: the heat kernels' column weights, the volume
    weights, and the small-ball rule's log r (-inf at r = 0), its differences and the spacings."""
    grid = make_grid(n, r_max, m)
    kernel = grid.h * grid.nodes ** (n - 1)
    kernel[[0, -1]] *= 0.5
    with np.errstate(divide="ignore"):
        log_r = np.log(grid.nodes)
    arrays = {"kernel": kernel, "volume": origin_ball_weights(grid, r_max), "log_r": log_r,
              "dlog_r": np.diff(log_r), "dr": np.diff(grid.nodes)}
    for x in arrays.values():
        x.setflags(write=False)
    return arrays


def kernel_weights(grid: RadialGrid) -> np.ndarray:
    """The heat kernels' column weights, the trapezoid rule's (h, halved at both ends) times
    s^(n-1): one read-only array per grid."""
    return _grid_arrays(grid.n, grid.m, grid.r_max)["kernel"]


def origin_ball_weights(grid: RadialGrid, r_ball: float) -> np.ndarray:
    """Nodal weights W with sum_j W_j g_j = integral_0^R s^(n-1) g(s) ds for piecewise-linear g.

    The geometric factor s^(n-1) is integrated exactly against each hat
    function on every interval, clipped at s = R.  Cells only one node wide
    (where plain trapezoid overshoots the vanishing volume element near the
    origin) are handled correctly, and the discontinuous radial cutoff of a
    ball centered at the origin is clipped exactly instead of sampled at nodes
    (which would leak up to half an interval of density past the ball).
    """
    n = grid.n
    h = grid.h
    a = grid.nodes[:-1]
    b = grid.nodes[1:]
    hi = np.clip(r_ball, a, b)
    pow_n = (hi**n - a**n) / n
    pow_n1 = (hi ** (n + 1) - a ** (n + 1)) / (n + 1)
    w = np.zeros(grid.m + 1)
    w[:-1] += (b * pow_n - pow_n1) / h   # integral s^(n-1) (b-s)/h over [a, hi]
    w[1:] += (pow_n1 - a * pow_n) / h    # integral s^(n-1) (s-a)/h over [a, hi]
    return w


def volume_weights(grid: RadialGrid) -> np.ndarray:
    """Nodal weights for integral_0^r_max s^(n-1) g(s) ds: origin_ball_weights at R = r_max."""
    return _grid_arrays(grid.n, grid.m, grid.r_max)["volume"]


# Balls this many grid spacings wide or narrower are integrated on a locally
# refined subgrid of FINE_BALL_NODES points; the node-sampled density is too
# coarse inside them.
SMALL_BALL_FACTOR = 32
FINE_BALL_NODES = 257
_SUBGRID_STEPS = np.arange(FINE_BALL_NODES, dtype=float)   # j in each row's s_j


class SmallBallPlan(NamedTuple):
    """Data-free part of fine_ball_integral for one radius: per live center (hi > lo) its
    subgrid span, inside [0, r_max], and per subgrid point its grid interval and weight, the
    sphere area times its trapezoid weight times s^(n-1) times its cap fraction."""

    live: np.ndarray     # bool, shaped like the centers
    lo: np.ndarray
    hi: np.ndarray
    idx: np.ndarray      # (live, FINE_BALL_NODES), the index dtype: np.min_scalar_type(m + 1)
    weight: np.ndarray   # float64 (live, FINE_BALL_NODES)


def small_ball_plan(grid: RadialGrid, a, r_ball: float) -> SmallBallPlan:
    """Plan for the balls B(a e_1, R): a FINE_BALL_NODES-point subgrid per center's radial range."""
    a = np.asarray(a, dtype=float)
    lo = np.maximum(0.0, a - r_ball)
    hi = np.minimum(a + r_ball, grid.r_max)
    live = hi > lo
    lo, hi = lo[live], hi[live]
    s = np.linspace(lo, hi, FINE_BALL_NODES, axis=-1)
    idx = np.clip(np.searchsorted(grid.nodes, s, side="right") - 1, 0, grid.m - 1)
    half = np.diff(s, axis=-1) / 2.0
    trapezoid = np.pad(half, [(0, 0), (0, 1)]) + np.pad(half, [(0, 0), (1, 0)])
    cap = cap_fraction_array(grid.n, a[live][..., None], s, r_ball)
    weight = sphere_area(grid.n) * trapezoid * s ** (grid.n - 1) * cap
    return SmallBallPlan(live, lo, hi, idx.astype(np.min_scalar_type(grid.m + 1)), weight)


def small_ball_work(rows: int) -> list:
    """Work buffers for fine_ball_integral on plans of up to `rows` live centers: interval
    indices, the subgrid and three float arrays, each (rows, FINE_BALL_NODES)."""
    return [np.empty((rows, FINE_BALL_NODES), dtype) for dtype in (np.intp, *[float] * 4)]


def ball_density(grid: RadialGrid, g: np.ndarray) -> tuple:
    """fine_ball_integral's data of a density g, formed once per density: g, log g, and per
    interval whether the rule is linear there (no positive pair (g_i, g_{i+1}), or r_i = 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return g, np.log(g), ~((g[:-1] > 0) & (g[1:] > 0) & (grid.nodes[:-1] > 0))


def fine_ball_integral(grid: RadialGrid, density: tuple, plan: SmallBallPlan,
                       work=None) -> np.ndarray:
    """Ball integrals of a ball_density over a plan's balls, shaped like its centers.

    The density is interpolated geometrically (log-log) on intervals whose
    endpoints are both positive, so power-law segments are reproduced
    exactly, and linearly otherwise (including the first interval, whose left
    endpoint is r = 0).  Always pass the density |f|^q, never the field, so
    that the power identity between (|f|^m, r/m) and (f, r) stays exact at
    lattice level.  The per-point intermediates go into `work` (small_ball_work,
    reusable across calls), allocated here when it is None; each ball's integral is
    then the interpolated density's sum against its row of plan.weight.
    """
    out = np.zeros(plan.live.shape)
    rows = plan.idx.shape[0]
    i0, s, lw, tmp, dens = (buf[:rows] for buf in (work or small_ball_work(rows)))
    np.copyto(i0, plan.idx)
    # each row's np.linspace(lo, hi, FINE_BALL_NODES) by its own arithmetic, j ((hi - lo)/256) + lo
    step = np.divide(np.subtract(plan.hi, plan.lo), FINE_BALL_NODES - 1)
    np.add(np.multiply(_SUBGRID_STEPS, step[:, None], s), plan.lo[:, None], s)
    s[:, -1] = plan.hi
    # per-node logs and per-interval spacings, gathered by each point's interval
    arrays = _grid_arrays(grid.n, grid.m, grid.r_max)
    log_nodes, dlog_nodes, dnodes = arrays["log_r"], arrays["dlog_r"], arrays["dr"]
    g, log_g, linear = density
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(s, lw)
        np.subtract(lw, log_nodes.take(i0, out=tmp, mode="clip"), lw)
        np.divide(lw, dlog_nodes.take(i0, out=tmp, mode="clip"), lw)
        np.subtract(1.0, lw, tmp)
        np.multiply(log_g.take(i0, out=dens, mode="clip"), tmp, dens)
        np.add(dens, np.multiply(log_g[1:].take(i0, out=tmp, mode="clip"), lw, tmp), dens)
        np.exp(dens, dens)
    # the linear rule, only at the points whose interval lacks a positive pair
    pts = np.flatnonzero(linear.take(i0))
    k = i0.take(pts)
    w = (s.take(pts) - grid.nodes.take(k)) / dnodes.take(k)
    dens.put(pts, g.take(k) * (1.0 - w) + g[1:].take(k) * w)
    out[plan.live] = np.einsum("ij,ij->i", dens, plan.weight)
    return out


def large_ball_cells(grid: RadialGrid, centers: np.ndarray, r_ball: float):
    """The weights W[c, j] of the balls B(a_c e_1, R), R above SMALL_BALL_FACTOR h, kept as
    (inside, owner, cols, vals): center c's nodes j < inside[c] lie wholly in its ball (W is the
    whole-sphere weight); its band is the k with owner[k] = c, at nodes cols[k] with weights
    vals[k]; all other W are 0.  Concentric balls clip s = R exactly, others sample the cap
    fraction at nodes.  inside and cols take the plans' index dtype, owner the narrowest."""
    base = sphere_area(grid.n) * volume_weights(grid)
    col = base * cap_fraction_array(grid.n, centers[:, None], grid.nodes, r_ball)
    col[centers == 0.0] = sphere_area(grid.n) * origin_ball_weights(grid, r_ball)
    partial, nonzero = col != base, col != 0.0
    inside = np.where(partial.any(axis=1), partial.argmax(axis=1), grid.m + 1)
    end = np.where(nonzero.any(axis=1), grid.m + 1 - nonzero[:, ::-1].argmax(axis=1), 0)
    lengths = np.maximum(end - inside, 0)
    owner = np.repeat(np.arange(len(centers)), lengths)
    cols = np.arange(owner.size) + np.repeat(inside - (np.cumsum(lengths) - lengths), lengths)
    dtype = np.min_scalar_type(grid.m + 1)
    return (inside.astype(dtype), owner.astype(np.min_scalar_type(len(centers))),
            cols.astype(dtype), col[owner, cols])


def ball_rules(grid: RadialGrid, centers, radii) -> list:
    """Per radius R, the rule of the balls B(a e_1, R) at the centers: a small_ball_plan up to
    SMALL_BALL_FACTOR h, large_ball_cells above it."""
    centers = np.asarray(centers, dtype=float)
    return [small_ball_plan(grid, centers, float(r)) if r <= SMALL_BALL_FACTOR * grid.h
            else large_ball_cells(grid, centers, float(r)) for r in radii]


def ball_integrals(grid: RadialGrid, g: np.ndarray, rules: list) -> np.ndarray:
    """The integrals of the density g over the balls of ball_rules, per (center, radius).  The
    density's data, the prefix sums and the work buffers are formed once; a large ball is its
    prefix sum over the nodes wholly inside plus its band, summed alone in order (bincount), so
    each integral is a function of its own ball alone."""
    sums = np.concatenate(([0.0], np.cumsum(sphere_area(grid.n) * volume_weights(grid) * g)))
    density = ball_density(grid, g)
    plans = [rule for rule in rules if isinstance(rule, SmallBallPlan)]
    work = small_ball_work(max((plan.idx.shape[0] for plan in plans), default=0))
    columns = []
    for rule in rules:
        if isinstance(rule, SmallBallPlan):
            columns.append(fine_ball_integral(grid, density, rule, work))
        else:
            inside, owner, cols, vals = rule
            columns.append(sums.take(inside) + np.bincount(owner, vals * g.take(cols), len(inside)))
    return np.column_stack(columns)


# ---------------------------------------------------------------------------
# Gaussian heat kernel against radial fields.
#
# (G_t * f)(a e_1) = c_t * integral f(s) s^{n-1} exp(-(s-a)^2/4t) Lam(as/2t) ds
# with c_t = (4 pi t)^{-n/2} |S^{n-2}| and the exponentially scaled angular
# kernel Lam(z) = integral_0^pi exp(-z (1 - cos th)) sin^{n-2} th dth, which is
# bounded and overflow-free for all z >= 0: Poisson's integral for I_nu (DLMF
# 10.32.2) gives Lam(z) = sqrt(pi) Gamma((n-1)/2) (2/z)^nu e^{-z} I_nu(z) with
# nu = (n-2)/2, and Lam(0) = _cap_total(n).  With
# x = 1 - cos th, Lam(z) = integral_0^2 exp(-z x) (x (2 - x))^{(n-3)/2} dx and
# -Lam'(z) is the same integral times x.  Both are computed by a Gauss-Legendre
# rule in x = v^2 on [0, 1], truncated where z x > 60, and in x = 2 - w^2 on
# [1, 2]; either substitution leaves the smooth integrand
# 2 v^{n-2} (2 - v^2)^{(n-3)/2}.  log Lam is tabulated once per dimension on
# 4097 knots uniform in u = log1p(z) on [0, 1e8], with its exact slopes
# d log Lam / du, and read as a cubic Hermite; beyond the table the rule is
# applied directly.
#
# Every Gaussian factor exp(-x), x = (s-a)^2/4t, with x > _EXP_CUTOFF = 60 is
# exactly 0.0.  Since |y - a e_1| >= |s - a| for |y| = s, the cut drops at
# most Gamma(n/2, 60)/Gamma(n/2) of a row's mass (8e-26 at n = 3, 2e-20 at
# n = 11), far below the rounding of any sum over the row.  The one kernel
# formula, _kernel_entries, evaluates Lam and exp only where the cut keeps them, so
# every entry is a pure function of (grid, t, a_i, s_j) whatever its consumer's layout,
# and each pass first checks t against heat_time_floor (_kernel_pass).  For node rows
# the factor S_ij = (c_t Lam(a_i s_j/2t)) exp(-x) is bitwise symmetric (a_i s_j = s_j a_i
# and (x-y)^2 = (y-x)^2 exactly in IEEE arithmetic): heat_apply streams blocks of rows
# from their diagonal on, whose part right of the diagonal square stands, transposed,
# for the rows below it, and SymmetricBandKernel evaluates only the upper diagonals of
# S, up to the last nonzero one, and applies them and their transposes by strided sums.
# heat_kernel_matrix fills dense rows at explicit centers in one evaluation.
# ---------------------------------------------------------------------------

_EXP_CUTOFF = 60.0   # exp(-60) ~ 9e-27: every exp(-x) with x past it is taken as 0.0
_ANGULAR_Z_MAX = 1e8
_ANGULAR_KNOTS = 4097
_ANGULAR_RULE_POINTS = 96
_ANGULAR_CHUNK = 512         # z values per pass of the rule: (512, 96) temporaries
_LOOKUP_CHUNK = 2**14        # z values per pass of the table lookup


def _angular_integrand(n: int, s: np.ndarray) -> np.ndarray:
    """2 s^{n-2} (2 - s^2)^{(n-3)/2}: (x (2 - x))^{(n-3)/2} dx/ds for x = s^2 and x = 2 - s^2."""
    return 2.0 * s ** (n - 2) * (2.0 - s * s) ** ((n - 3) / 2.0)


def _angular_moments(n: int, z: np.ndarray):
    """(Lam(z), -Lam'(z)) for a 1-D array z >= 0, by the Gauss-Legendre rule, applied
    _ANGULAR_CHUNK values at a time (each value's sums are the same in any chunk)."""
    s, wts = np.polynomial.legendre.leggauss(_ANGULAR_RULE_POINTS)
    s = 0.5 * (s + 1.0)   # nodes and weights on [0, 1]
    wts = 0.5 * wts
    # x = 2 - w^2 on [1, 2], with w = s
    x_hi = 2.0 - s * s
    hi_wts = _angular_integrand(n, s) * wts
    lam, dlam = np.empty(len(z)), np.empty(len(z))
    for i in range(0, len(z), _ANGULAR_CHUNK):
        j = i + _ANGULAR_CHUNK
        zc = z[i:j, None]
        # x = v^2 on [0, 1], with v = v_max s and v_max^2 = min(1, 60/z)
        v_max = np.sqrt(_EXP_CUTOFF / np.maximum(zc, _EXP_CUTOFF))
        v = v_max * s
        x_lo = v * v
        lo = _angular_integrand(n, v) * (v_max * wts) * np.exp(-zc * x_lo)
        hi = hi_wts * np.exp(-zc * x_hi)
        lam[i:j] = lo.sum(axis=-1) + hi.sum(axis=-1)
        dlam[i:j] = (lo * x_lo).sum(axis=-1) + (hi * x_hi).sum(axis=-1)
    return lam, dlam


@functools.lru_cache(maxsize=None)
def _angular_table(n: int) -> tuple[float, np.ndarray]:
    """Knot spacing du and the (4, knots) Horner coefficients, highest power first, of the
    cubic Hermite of log Lam in t = u/du - k on interval k; the last column, read at t = 0
    only, is the constant log Lam(1e8)."""
    u = np.linspace(0.0, math.log1p(_ANGULAR_Z_MAX), _ANGULAR_KNOTS)
    du = float(u[1])
    z = np.expm1(u)
    lam, dlam = _angular_moments(n, z)
    y = np.log(lam)
    m = -dlam / lam * (1.0 + z) * du   # d log Lam / dt
    dy = np.diff(y)
    coef = np.stack([m[:-1] + m[1:] - 2.0 * dy, 3.0 * dy - 2.0 * m[:-1] - m[1:], m[:-1], y[:-1]])
    coef = np.column_stack([coef, [0.0, 0.0, 0.0, y[-1]]])
    coef.setflags(write=False)
    return du, coef


def angular_kernel_scaled(n: int, z) -> np.ndarray:
    """The scaled angular kernel Lam(z), z >= 0, from the per-dimension table and,
    beyond it, the quadrature (relative error ~3e-12 against the Bessel form)."""
    z = np.asarray(z, dtype=float)
    flat = z.reshape(-1)
    du, coef = _angular_table(n)
    out = np.empty(flat.shape)
    for i in range(0, len(flat), _LOOKUP_CHUNK):   # chunks bound the lookup's temporaries
        x = np.log1p(flat[i:i + _LOOKUP_CHUNK])
        x /= du
        np.minimum(x, coef.shape[1] - 1, out=x)   # past the table: its last knot, replaced below
        k = x.astype(np.intp)
        x -= k
        chunk = coef[0].take(k, out=out[i:i + _LOOKUP_CHUNK])
        for row in coef[1:]:
            chunk *= x
            chunk += row.take(k)
        np.exp(chunk, out=chunk)
    far = flat > _ANGULAR_Z_MAX
    if np.any(far):
        out[far] = _angular_moments(n, flat[far])[0]
    return out.reshape(z.shape)


_KERNEL_BLOCK_ROWS = 64


def _kernel_pass(grid: RadialGrid, t: float) -> float:
    """The entry step of every heat-kernel pass: checks t >= heat_time_floor, counts one
    quadrature.kernel_builds and returns the reach sqrt(4 t 60), past which all entries are cut."""
    if not t > 0:
        raise ValueError("t must be positive")
    if not t >= heat_time_floor(grid.r_max, grid.m):
        raise ValueError(f"t = {t!r} is below the grid's heat_time_floor h^2/4")
    counters.add("quadrature.kernel_builds")
    return math.sqrt(4.0 * t * _EXP_CUTOFF)


def _kernel_entries(grid: RadialGrid, t: float, a, s) -> tuple:
    """(inside, values): the factor c_t Lam(a s/2t) exp(-(s-a)^2/4t) at the broadcast offsets a
    and nodes s, evaluated only where it is not cut (inside), in that mask's order."""
    x = (s - a) ** 2 / (4.0 * t)
    inside = x <= _EXP_CUTOFF
    x = np.negative(x[inside])
    c_t = (4.0 * math.pi * t) ** (-grid.n / 2.0) * sphere_area(grid.n - 1)
    values = c_t * angular_kernel_scaled(grid.n, (a * s)[inside] / (2 * t))
    values *= np.exp(x, out=x)
    return inside, values


def heat_kernel_matrix(grid: RadialGrid, t: float, centers) -> np.ndarray:
    """Dense H with (H f)(i) ~= (G_t * f)(centers[i] e_1) and row masses clipped at 1 (so H is
    sub-stochastic), for applying one kernel to many fields at a few centers."""
    a = np.asarray(centers, dtype=float)
    if not np.all(np.isfinite(a) & (a >= 0)):
        raise ValueError("center offsets a must be finite and >= 0")
    _kernel_pass(grid, t)
    mat = np.zeros((len(a), grid.m + 1))
    inside, values = _kernel_entries(grid, t, a[:, None], grid.nodes)
    mat[inside] = values
    mat *= kernel_weights(grid)   # as ((c_t Lam) E) w
    mass = mat.sum(axis=1)   # every row is complete: bitwise the all-entries formula's sums
    return np.divide(mat, mass[:, None], out=mat, where=(mass > 1.0)[:, None])


class SymmetricBandKernel:
    """The node-row heat-kernel matrix diag(1/mass where mass > 1) S diag(w), kept as the upper
    diagonals of the symmetric factor S, diagonals[d, i] = S[i, i + d] (0.0 past the last
    column) up to the last nonzero one, and the row masses S w."""

    def __init__(self, grid: RadialGrid, t: float):
        size = grid.m + 1
        count = min(int(_kernel_pass(grid, t) / grid.h) + 2, size)   # past these, all entries cut
        # entry [d, r] of the block at row i is S[i + r, i + r + d]; a column past the last
        # node reads as +inf, which the cut drops
        cols = np.concatenate((grid.nodes, np.full(count, np.inf)))
        diagonals = np.zeros((count, size))
        for i in range(0, size, _KERNEL_BLOCK_ROWS):
            rows = grid.nodes[i:i + _KERNEL_BLOCK_ROWS]
            inside, values = _kernel_entries(grid, t, rows,
                                             sliding_window_view(cols[i:], len(rows))[:count])
            diagonals[:, i:i + len(rows)][inside] = values
        last = int(np.flatnonzero(diagonals.any(axis=1))[-1]) + 1
        self.diagonals = diagonals[:last].copy() if last < count else diagonals
        self.weights = kernel_weights(grid)
        self.mass = self._product(self.weights)
        self.nbytes = self.diagonals.nbytes

    def _product(self, w: np.ndarray) -> np.ndarray:
        """S w: each diagonal d against w shifted ahead by d and, for d >= 1, transposed against
        w shifted back by d, summed over d in order (einsum), w read zero-padded."""
        diagonals = self.diagonals
        k, size = diagonals.shape[0] - 1, diagonals.shape[1]
        padded = np.zeros(size + 2 * k)
        padded[k:k + size] = w
        ahead = as_strided(padded[k:], (k + 1, size), (8, 8))       # [d, i]: w[i + d]
        behind = as_strided(padded[k - 1:], (k, size), (-8, 8))     # [d - 1, i]: w[i - d]
        # [d - 1, i]: S[i - d, i] = diagonals[d, i - d]; where i < d this reads an entry of
        # diagonal d - 1, finite, against behind's zero padding
        below = as_strided(diagonals.reshape(-1)[size - 1:], (k, size), ((size - 1) * 8, 8))
        return np.einsum("di,di->i", diagonals, ahead) + np.einsum("di,di->i", below, behind)

    def __matmul__(self, v):
        out = self._product(self.weights * v)
        return np.divide(out, self.mass, out=out, where=self.mass > 1.0)


def gauss_convolve(f: RadialField, t: float, a: float) -> float:
    """(G_t * f)(a e_1) with f extended by zero beyond r_max; t > 0, a >= 0: the one-row
    heat_kernel_matrix (for several centers, apply heat_kernel_matrix(grid, t, centers) once)."""
    return float((heat_kernel_matrix(f.grid, t, [a]) @ f.values)[0])


def heat_time_floor(r_max: float, nodes: int) -> float:
    """h^2/4, h = r_max/nodes, below which the heat kernel's rows on the grid lose mass."""
    return (r_max / nodes) ** 2 / 4


@counters.timed("quadrature.heat_apply_s")
def heat_apply(f: RadialField, t: float) -> RadialField:
    """The heat flow of the zero extension of f, sampled back onto f's grid, streamed block by
    block, t >= heat_time_floor.  The result lives on the whole space: the free boundary tag."""
    grid, s = f.grid, f.grid.nodes
    reach = _kernel_pass(grid, t)
    base = kernel_weights(grid)   # superconvergent here
    cols = np.column_stack([base * f.values, base])
    acc = np.zeros_like(cols)   # per row: the weighted sum and the mass
    for i in range(0, len(s), _KERNEL_BLOCK_ROWS):
        # rows i:j from their diagonal to the last column within reach (+1); the part right
        # of the diagonal square stands, transposed, for the rows j:hi below them
        j = min(i + _KERNEL_BLOCK_ROWS, len(s))
        hi = int(min(np.searchsorted(s, s[j - 1] + reach, side="right") + 1, len(s)))
        factor = np.zeros((j - i, hi - i))
        inside, values = _kernel_entries(grid, t, s[i:j, None], s[i:hi])
        factor[inside] = values
        acc[i:j] += factor @ cols[i:hi]
        acc[j:hi] += factor[:, j - i:].T @ cols[i:j]
    num, mass = acc.T
    return make_field(grid, np.divide(num, mass, out=num.copy(), where=mass > 1.0), FREE)
