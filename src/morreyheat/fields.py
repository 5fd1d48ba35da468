"""Radial grids, sampled radial fields, sup-type norms and the critical rescaling."""

from dataclasses import dataclass

import numpy as np

from .params import ModelParams

# Boundary tags.  DIRICHLET pins u(R_max) = 0 (ball problem); FREE marks a
# truncated whole-space field, extended by zero beyond R_max, with only the
# even-at-origin symmetry built in.
DIRICHLET = "dirichlet_at_Rmax"
FREE = "even_at_origin_only"
_BOUNDARY_TAGS = (DIRICHLET, FREE)


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid r_0 = 0 < r_1 < ... < r_M = r_max."""

    n: int
    nodes: np.ndarray
    h: float

    @property
    def m(self) -> int:
        return len(self.nodes) - 1

    @property
    def r_max(self) -> float:
        return float(self.nodes[-1])


def make_grid(n: int, r_max: float, m: int) -> RadialGrid:
    """Uniform grid with m intervals on [0, r_max]; m >= 16."""
    if n < 3:
        raise ValueError("dimension n must be >= 3")
    if m < 16:
        raise ValueError(f"grid needs at least 16 intervals, got {m}")
    if not r_max > 0:
        raise ValueError("r_max must be positive")
    nodes = np.linspace(0.0, float(r_max), m + 1)
    nodes.setflags(write=False)
    return RadialGrid(n=int(n), nodes=nodes, h=float(nodes[1] - nodes[0]))


@dataclass(frozen=True)
class RadialField:
    """Samples u_i = u(r_i) of a radially symmetric function, plus boundary tag."""

    grid: RadialGrid
    values: np.ndarray
    boundary: str = FREE


def make_field(grid: RadialGrid, values, boundary: str = FREE) -> RadialField:
    values = np.asarray(values, dtype=float)
    if values.shape != grid.nodes.shape:
        raise ValueError(f"expected {grid.nodes.shape[0]} samples, got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("field samples must be finite")
    if boundary not in _BOUNDARY_TAGS:
        raise ValueError(f"unknown boundary tag {boundary!r}")
    if boundary == DIRICHLET and values[-1] != 0.0:
        raise ValueError("dirichlet_at_Rmax requires u(r_max) = 0")
    out = values.copy()
    out.setflags(write=False)
    return RadialField(grid=grid, values=out, boundary=boundary)


def _tagged(grid: RadialGrid, vals: np.ndarray, boundary: str) -> RadialField:
    """Samples as a field with the boundary tag, pinning u(r_max) = 0 (in vals) for Dirichlet."""
    if boundary == DIRICHLET:
        vals[-1] = 0.0
    return make_field(grid, vals, boundary)


def zero_field(grid: RadialGrid, boundary: str = FREE) -> RadialField:
    return make_field(grid, np.zeros(grid.m + 1), boundary)


def sup_norm(f: RadialField) -> float:
    """max_i |u_i|."""
    return float(np.max(np.abs(f.values)))


def weighted_sup_norm(f: RadialField, k: float) -> float:
    """max_i r_i^k |u_i|, the radial form of ess sup |x|^k |f|; k >= 0."""
    if k < 0:
        raise ValueError("weight exponent k must be >= 0")
    return float(np.max(f.grid.nodes**k * np.abs(f.values)))   # r^0 = 1, 0^0 included


def radial_derivative(f: RadialField) -> RadialField:
    """Centered-difference du/dr; zero at the origin by even symmetry."""
    d = np.gradient(f.values, f.grid.h)
    d[0] = 0.0
    return _tagged(f.grid, d, f.boundary)   # a Dirichlet tag drops the one-sided end value


def _pchip_edge_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point end slope, limited to keep the end interval monotone."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def pchip(x: np.ndarray, y: np.ndarray, xi) -> np.ndarray:
    """Monotone piecewise-cubic Hermite interpolant of (x, y) at xi, 0.0 outside [x_0, x_N].

    Fritsch-Carlson (SIAM J. Numer. Anal. 17, 1980) with the slope rules of
    scipy's PchipInterpolator: a node between secant slopes of equal sign gets
    their weighted harmonic mean, any other interior node slope 0, and each
    end the limited three-point estimate.  x is strictly increasing, with at
    least three nodes.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.zeros(len(x))
    same = np.sign(m[:-1]) * np.sign(m[1:]) > 0.0
    w1 = (2.0 * h[1:] + h[:-1])[same]
    w2 = (h[1:] + 2.0 * h[:-1])[same]
    # slopes near the smallest double overflow w/m to inf, whose reciprocal is the limit 0
    with np.errstate(over="ignore"):
        d[1:-1][same] = 1.0 / ((w1 / m[:-1][same] + w2 / m[1:][same]) / (w1 + w2))
    d[0] = _pchip_edge_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_edge_slope(h[-1], h[-2], m[-1], m[-2])
    # each interval's cubic in s = xi - x_k, summed from the constant term up, as scipy's PPoly does
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    quad, cubic = (m - d[:-1]) / h - t, t / h
    xi = np.asarray(xi, dtype=float)
    k = np.clip(np.searchsorted(x, xi, side="right") - 1, 0, len(h) - 1)
    s = xi - x.take(k)
    s2 = s * s
    out = y.take(k) + d.take(k) * s + quad.take(k) * s2 + cubic.take(k) * (s2 * s)
    out[(xi < x[0]) | (xi > x[-1])] = 0.0
    return out


def rescale_field(f: RadialField, lam: float, params: ModelParams) -> RadialField:
    """Critical rescaling u_lam(r) = lam^(2/(p-1)) u(lam r) resampled onto f's grid.

    Values needed beyond r_max are taken as zero (zero-extension convention).
    Monotone cubic interpolation (`pchip`) keeps the resampling overshoot-free.
    """
    if not lam > 0:
        raise ValueError("scaling factor must be positive")
    amp = lam ** (2.0 / (params.p - 1.0))
    if lam == 1.0:
        return f
    return _tagged(f.grid, pchip(f.grid.nodes, f.values, f.grid.nodes * lam) * amp, f.boundary)


# ---------------------------------------------------------------------------
# Named analytic initial-data families.
# ---------------------------------------------------------------------------


def gaussian(grid: RadialGrid, amplitude: float, width: float, boundary: str = FREE) -> RadialField:
    """amplitude * exp(-(r/width)^2)."""
    vals = amplitude * np.exp(-((grid.nodes / width) ** 2))
    return _tagged(grid, vals, boundary)


def gaussian_gradient(grid: RadialGrid, amplitude: float, width: float) -> RadialField:
    """|d/dr| of the gaussian profile, analytic."""
    r = grid.nodes
    vals = np.abs(-2.0 * amplitude * r / width**2 * np.exp(-((r / width) ** 2)))
    return make_field(grid, vals, FREE)


def plateau(grid: RadialGrid, amplitude: float, radius: float, ramp: float,
            boundary: str = FREE) -> RadialField:
    """Flat core of height `amplitude` up to `radius`, cosine ramp to 0 over `ramp`."""
    r = grid.nodes
    vals = np.zeros_like(r)
    vals[r <= radius] = amplitude
    on_ramp = (r > radius) & (r < radius + ramp)
    vals[on_ramp] = amplitude * 0.5 * (1.0 + np.cos(np.pi * (r[on_ramp] - radius) / ramp))
    return _tagged(grid, vals, boundary)


def power_tail(grid: RadialGrid, amplitude: float, exponent: float, core_radius: float,
               boundary: str = FREE) -> RadialField:
    """amplitude * (1 + (r/core_radius)^2)^(-exponent/2); tail ~ r^(-exponent)."""
    vals = amplitude * (1.0 + (grid.nodes / core_radius) ** 2) ** (-exponent / 2.0)
    return _tagged(grid, vals, boundary)


def indicator(grid: RadialGrid, radius: float, boundary: str = FREE) -> RadialField:
    vals = (grid.nodes <= radius).astype(float)
    return _tagged(grid, vals, boundary)


def singular_steady_state(grid: RadialGrid, params: ModelParams, boundary: str = FREE) -> RadialField:
    """L r^(-2/(p-1)), capped at the first node value to regularize the origin, with L the
    exact scale-invariant profile height: L^(p-1) = (2/(p-1)) (n - 2 - 2/(p-1))."""
    k = 2.0 / (params.p - 1.0)
    val = k * (params.n - 2.0 - k)
    if val <= 0:
        raise ValueError("no positive singular steady state for these (n, p)")
    big_l = val ** (1.0 / (params.p - 1.0))
    r = np.maximum(grid.nodes, grid.nodes[1])
    return _tagged(grid, big_l * r ** (-k), boundary)


PROFILES = {
    "gaussian": gaussian,
    "plateau": plateau,
    "power_tail": power_tail,
    "indicator": indicator,
    "singular_steady_state": singular_steady_state,
    "zero": zero_field,
}


def build_profile(name: str, grid: RadialGrid, params: ModelParams, args: dict,
                  boundary: str = FREE) -> RadialField:
    """Construct a named initial-data profile from keyword args (config entry point)."""
    if name not in PROFILES:
        raise ValueError(f"unknown profile {name!r}; known: {sorted(PROFILES)}")
    if name == "singular_steady_state":
        return PROFILES[name](grid, params, boundary=boundary, **args)
    return PROFILES[name](grid, boundary=boundary, **args)
