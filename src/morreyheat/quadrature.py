"""Geometric quadrature kernels for radial functions in R^n.

Reduces integrals over off-center balls and against off-center Gaussian heat
kernels to one-dimensional radial quadrature on the field's own grid.  Fields
are extended by zero beyond r_max in every kernel.  Each formula has one home:
`_kernel_factors` is the single Gaussian-kernel evaluator (behind `heat_apply`,
`SymmetricBandKernel` and `heat_kernel_matrix`), `origin_ball_weights` the single
volume-weight formula, `large_ball_cells` the single large-ball rule, and
`fine_ball_integral` the single small-ball rule, applied to a `small_ball_plan`
that holds the rule's data-free geometry (kept by callers that evaluate many
densities on one grid and lattice).
"""

import functools
import math
import warnings
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import counters
from .fields import FREE, RadialField, RadialGrid, make_field, make_grid


class TruncationWarning(UserWarning):
    """A kernel reached past r_max while the field tail is still nonzero there."""


def sphere_area(n: int) -> float:
    """|S^{n-1}| = 2 pi^{n/2} / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def ball_volume(n: int) -> float:
    """omega_n = pi^{n/2} / Gamma(n/2 + 1)."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def _sin_power_integral(k: int, theta):
    """integral_0^theta sin^k, by the exact reduction I_k = (-sin^{k-1} cos + (k-1) I_{k-2})/k."""
    theta = np.asarray(theta, dtype=float)
    i_even = theta.copy()           # I_0
    i_odd = 1.0 - np.cos(theta)     # I_1
    if k == 0:
        return i_even
    if k == 1:
        return i_odd
    s, c = np.sin(theta), np.cos(theta)
    prev, cur = i_even, i_odd
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


def cap_fraction(n: int, a: float, s: float, r_ball: float) -> float:
    """Scalar form of cap_fraction_array."""
    if a < 0 or s <= 0 or r_ball <= 0:
        raise ValueError("need a >= 0, s > 0, R > 0")
    return float(cap_fraction_array(n, a, np.array([s]), r_ball)[0])


def trapezoid_weights(grid: RadialGrid) -> np.ndarray:
    w = np.full(grid.m + 1, grid.h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


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
    return _volume_weights(grid.n, grid.m, grid.r_max)


@functools.lru_cache(maxsize=16)
def _volume_weights(n: int, m: int, r_max: float) -> np.ndarray:
    w = origin_ball_weights(make_grid(n, r_max, m), r_max)
    w.setflags(write=False)
    return w


# Balls this many grid spacings wide or narrower are integrated on a locally
# refined subgrid of FINE_BALL_NODES points; the node-sampled density is too
# coarse inside them.
SMALL_BALL_FACTOR = 32
FINE_BALL_NODES = 257


class SmallBallPlan(NamedTuple):
    """Data-free part of fine_ball_integral for one radius: per live center (hi > lo) its
    subgrid span, inside [0, r_max], and per subgrid point its grid interval and cap fraction."""

    live: np.ndarray     # bool, shaped like the centers
    lo: np.ndarray
    hi: np.ndarray
    idx: np.ndarray      # (live, FINE_BALL_NODES), the index dtype: np.min_scalar_type(m + 1)
    cap: np.ndarray      # float64 (live, FINE_BALL_NODES)


def small_ball_plan(grid: RadialGrid, a, r_ball: float) -> SmallBallPlan:
    """Plan for the balls B(a e_1, R): a FINE_BALL_NODES-point subgrid per center's radial range."""
    a = np.asarray(a, dtype=float)
    lo = np.maximum(0.0, a - r_ball)
    hi = np.minimum(a + r_ball, grid.r_max)
    live = hi > lo
    lo, hi = lo[live], hi[live]
    s = np.linspace(lo, hi, FINE_BALL_NODES, axis=-1)
    idx = np.clip(np.searchsorted(grid.nodes, s, side="right") - 1, 0, grid.m - 1)
    cap = cap_fraction_array(grid.n, a[live][..., None], s, r_ball)
    return SmallBallPlan(live, lo, hi, idx.astype(np.min_scalar_type(grid.m + 1)), cap)


def small_ball_work(rows: int) -> list:
    """Work buffers for fine_ball_integral on plans of up to `rows` live centers: interval
    indices and three float arrays, each (rows, FINE_BALL_NODES)."""
    return [np.empty((rows, FINE_BALL_NODES), np.intp), *np.empty((3, rows, FINE_BALL_NODES))]


def fine_ball_integral(grid: RadialGrid, g: np.ndarray, plan: SmallBallPlan,
                       work=None) -> np.ndarray:
    """Ball integrals of the density g (node samples) over a plan's balls, shaped like its centers.

    The density is interpolated geometrically (log-log) on intervals whose
    endpoints are both positive, so power-law segments are reproduced
    exactly, and linearly otherwise (including the first interval, whose left
    endpoint is r = 0).  Always pass the density |f|^q, never the field, so
    that the power identity between (|f|^m, r/m) and (f, r) stays exact at
    lattice level.  The per-point intermediates go into `work` (small_ball_work,
    reusable across calls), allocated here when it is None.
    """
    out = np.zeros(plan.live.shape)
    rows = plan.idx.shape[0]
    i0, lw, tmp, dens = (buf[:rows] for buf in (work or small_ball_work(rows)))
    np.copyto(i0, plan.idx)
    # per-node logs and per-interval spacings, gathered by each point's interval
    nodes = grid.nodes
    with np.errstate(divide="ignore", invalid="ignore"):
        log_g, log_nodes = np.log(g), np.log(nodes)
        s = np.linspace(plan.lo, plan.hi, FINE_BALL_NODES, axis=-1)
        np.log(s, out=lw)
        lw -= log_nodes.take(i0, out=tmp, mode="clip")
        lw /= np.diff(log_nodes).take(i0, out=tmp, mode="clip")
        np.subtract(1.0, lw, out=tmp)
        np.multiply(log_g.take(i0, out=dens, mode="clip"), tmp, out=dens)
        dens += np.multiply(log_g[1:].take(i0, out=tmp, mode="clip"), lw, out=tmp)
        np.exp(dens, out=dens)
    # the linear rule, only at the points whose interval lacks a positive pair
    positive = (g[:-1] > 0) & (g[1:] > 0) & (nodes[:-1] > 0)
    pts = np.flatnonzero(~positive.take(i0))
    k = i0.take(pts)
    w = (s.take(pts) - nodes.take(k)) / np.diff(nodes).take(k)
    dens.put(pts, g.take(k) * (1.0 - w) + g[1:].take(k) * w)
    np.positive(s, out=tmp)
    tmp **= grid.n - 1   # as s ** (n - 1) computes it
    dens *= tmp
    dens *= plan.cap
    # np.trapezoid(dens, s, axis=-1), (diff(s) * (y[1:] + y[:-1]) / 2).sum(-1), in the buffers
    y = np.add(dens[:, 1:], dens[:, :-1], out=lw[:, 1:])
    y *= np.subtract(s[:, 1:], s[:, :-1], out=tmp[:, 1:])
    y /= 2.0
    out[plan.live] = sphere_area(grid.n) * y.sum(axis=-1)
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


def large_ball_integrals(grid: RadialGrid, g: np.ndarray, radius_cells):
    """Per large_ball_cells in radius_cells, the integrals of g over its balls: the prefix sum
    over the nodes wholly inside plus the band, summed alone in order (bincount), so each is a
    function of its own ball alone."""
    sums = np.concatenate(([0.0], np.cumsum(sphere_area(grid.n) * volume_weights(grid) * g)))
    for inside, owner, cols, vals in radius_cells:
        yield sums.take(inside) + np.bincount(owner, vals * g.take(cols), len(inside))


def ball_integral(f: RadialField, q: float, a: float, r_ball: float) -> float:
    """integral over B(a e_1, R) of |f(|x|)|^q dx by the small- or large-ball rule; above
    SMALL_BALL_FACTOR h bitwise the Morrey lattice's ball integral at (a, R)."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if a < 0 or r_ball <= 0:
        raise ValueError("need a >= 0, R > 0")
    grid = f.grid
    if a + r_ball > grid.r_max and f.values[-1] != 0.0:
        warnings.warn(
            f"ball B({a:g}, {r_ball:g}) exceeds r_max={grid.r_max:g} with nonzero tail",
            TruncationWarning, stacklevel=2)
    g = np.abs(f.values) ** q
    if r_ball <= SMALL_BALL_FACTOR * grid.h:
        return float(fine_ball_integral(grid, g, small_ball_plan(grid, a, r_ball)))
    cells = large_ball_cells(grid, np.array([a]), r_ball)
    return float(next(large_ball_integrals(grid, g, [cells]))[0])


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
# n = 11), far below the rounding of any sum over the row.  The one block
# evaluator, _kernel_factors, evaluates Lam and exp only inside each row's reach,
# so every entry is a pure function of (grid, t, a_i, s_j) whatever the block.
# For node rows the factor S_ij = (c_t Lam(a_i s_j/2t)) exp(-x) is bitwise
# symmetric (a_i s_j = s_j a_i and (x-y)^2 = (y-x)^2 exactly in IEEE arithmetic):
# each block is evaluated from its diagonal on, and its part right of the
# diagonal square stands, transposed, for the rows below it.  heat_apply streams
# the blocks; heat_kernel_matrix fills dense rows from them; SymmetricBandKernel
# keeps only the upper diagonals of S, up to the last nonzero one, and applies
# them and their transposes by strided sums.
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


def _kernel_factors(grid: RadialGrid, t: float, centers=None):
    """Per _KERNEL_BLOCK_ROWS rows i:j, (i, j, lo, hi, S): S over the columns lo:hi within reach
    of a row (+1 each side), from column i on for node rows; counts quadrature.kernel_builds."""
    if not t > 0:
        raise ValueError("t must be positive")
    a = grid.nodes if centers is None else np.asarray(centers, dtype=float)
    if not np.all(np.isfinite(a) & (a >= 0)):
        raise ValueError("center offsets a must be finite and >= 0")
    s = grid.nodes
    c_t = (4.0 * math.pi * t) ** (-grid.n / 2.0) * sphere_area(grid.n - 1)
    reach = math.sqrt(4.0 * t * _EXP_CUTOFF)
    counters.add("quadrature.kernel_builds")
    for i in range(0, len(a), _KERNEL_BLOCK_ROWS):
        a_blk = a[i:i + _KERNEL_BLOCK_ROWS]
        lo = int(max(np.searchsorted(s, a_blk.min() - reach) - 1, 0))
        hi = int(min(np.searchsorted(s, a_blk.max() + reach, side="right") + 1, len(s)))
        first = i if centers is None else lo
        x = (s[first:hi] - a_blk[:, None]) ** 2 / (4.0 * t)
        inside = x <= _EXP_CUTOFF
        x = np.negative(x[inside])
        lam = c_t * angular_kernel_scaled(grid.n, (a_blk[:, None] * s[first:hi])[inside] / (2 * t))
        lam *= np.exp(x, out=x)
        factor = np.zeros((len(a_blk), hi - lo))
        factor[:, first - lo:][inside] = lam
        del x, lam, inside   # no block's temporaries outlive it
        yield i, i + len(a_blk), lo, hi, factor


def heat_kernel_matrix(grid: RadialGrid, t: float, centers=None) -> np.ndarray:
    """Dense H with (H f)(i) ~= (G_t * f)(centers[i] e_1), rows defaulting to every node and
    row masses clipped at 1 (so H is sub-stochastic), for applying one kernel to many fields."""
    mat = np.zeros((grid.m + 1 if centers is None else len(centers), grid.m + 1))
    for i, j, lo, hi, factor in _kernel_factors(grid, t, centers):
        first = i if centers is None else lo
        mat[i:j, first:hi] = factor[:, first - lo:]
        if centers is None:   # the part right of the diagonal square, mirrored below it
            mat[j:hi, i:j] = factor[:, j - lo:].T
    mat *= trapezoid_weights(grid) * grid.nodes ** (grid.n - 1)   # as ((c_t Lam) E) w
    mass = mat.sum(axis=1)   # every row is complete: bitwise the all-entries formula's sums
    return np.divide(mat, mass[:, None], out=mat, where=(mass > 1.0)[:, None])


def kernel_bytes_bound(grid: RadialGrid, t: float) -> int:
    """An upper bound on SymmetricBandKernel(grid, t).nbytes from the reach alone, known before
    the build: every diagonal past it lies a whole node beyond its rows' reach."""
    s = grid.nodes
    past = np.searchsorted(s, s + math.sqrt(4.0 * t * _EXP_CUTOFF), side="right")
    return (int(min((past - np.arange(len(s))).max(), grid.m)) + 1) * len(s) * 8


class SymmetricBandKernel:
    """The node-row heat-kernel matrix diag(1/mass where mass > 1) S diag(w), kept as the upper
    diagonals of the symmetric factor S, diagonals[d, i] = S[i, i + d] (0.0 past the last
    column) up to the last nonzero one, and the row masses S w."""

    def __init__(self, grid: RadialGrid, t: float):
        size = grid.m + 1
        diagonals = np.zeros((kernel_bytes_bound(grid, t) // (8 * size), size))
        for i, j, lo, hi, factor in _kernel_factors(grid, t):
            # rows i:j from their diagonals on, zero-padded so that every row holds
            # len(diagonals) entries, read off along the diagonals by a stride one past a row
            upper = np.zeros((j - i, max(hi - i, j - i + len(diagonals) - 1)))
            upper[:, :hi - i] = factor[:, i - lo:]
            diagonals[:, i:j] = as_strided(upper, (len(diagonals), j - i),
                                           (8, (upper.shape[1] + 1) * 8))
        last = int(np.flatnonzero(diagonals.any(axis=1))[-1]) + 1
        self.diagonals = diagonals[:last].copy() if last < len(diagonals) else diagonals
        self.weights = trapezoid_weights(grid) * grid.nodes ** (grid.n - 1)
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


def heat_apply(f: RadialField, t: float) -> RadialField:
    """The heat flow of the zero extension of f, sampled back onto f's grid, streamed block
    by block.  The result lives on the whole space, so it carries the free boundary tag."""
    base = trapezoid_weights(f.grid) * f.grid.nodes ** (f.grid.n - 1)   # superconvergent here
    cols = np.column_stack([base * f.values, base])
    acc = np.zeros_like(cols)   # per row: the weighted sum and the mass
    for i, j, lo, hi, factor in _kernel_factors(f.grid, t):
        acc[i:j] += factor[:, i - lo:] @ cols[i:hi]
        acc[j:hi] += factor[:, j - lo:].T @ cols[i:j]
    num, mass = acc.T
    return make_field(f.grid, np.divide(num, mass, out=num.copy(), where=mass > 1.0), FREE)
