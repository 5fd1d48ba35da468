"""Configuration-driven experiment runner with reproducible CSV/JSON artifacts.

Every experiment kind reads one JSON config, whose blocks `run_experiment`
merges over `default_config(kind)`, the only place the defaults are stated.  A
bad config is a ConfigError naming its path (exit 2).  A run writes every table
as CSV and every document as JSON, plus a manifest recording the merged config's
hash, wall time, package versions, and the pass/fail of each invariant checked.
A failed pipeline still writes a manifest, with `status: "failed"` and the
error chain (exit 3).  The exit code is 0 only if every asserted invariant
passed; exploratory (report-only) quantities never affect it.
"""

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, counters, duhamel, evolution, hypotheses, morrey, similarity, threshold
from .fields import DIRICHLET, build_profile, make_field, make_grid, radial_derivative
from .io import write_csv, write_json
from .params import make_params


class ConfigError(ValueError):
    """Invalid experiment config; the message names the offending field path."""


class PipelineError(RuntimeError):
    """An experiment pipeline failed; wraps the module-level error."""


EXPERIMENT_KINDS = ("solve", "morrey", "smoothing", "energy", "picard",
                    "threshold", "dependence", "hypotheses")


def default_config(kind: str) -> dict:
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"experiment.kind: unknown kind {kind!r}")
    cfg = {
        "params": {"n": 5, "p": 3.0},
        "grid": {"r_max": 40.0, "nodes": 400},
        # safety 2.4 is below evolution.max_safety(n) for every n >= 3 (dt*rho = 2.03 at n = 5)
        "solver": {"t_end": 20.0, "dt_init": 0.1, "dt_min": 1e-14, "safety": 2.4,
                   "blowup_threshold": 1e8, "checkpoints": 20},
        "initial_data": {"profile": "gaussian", "args": {"amplitude": 0.05, "width": 2.0},
                         "boundary": DIRICHLET},
        "experiment": {"kind": kind},
        "output_dir": "out",
    }
    extras = {
        "morrey": {"q": 2.0, "lam": 2.0, "refinements": 1},
        "smoothing": {"from_q": 2.0, "to_q": "inf", "lam": 2.0,
                      "t_lo": 0.01, "t_hi": 100.0, "t_count": 20},
        "energy": {"T_values": [2.0, 5.0, 10.0], "ds": 0.01, "t_lo_fraction": 0.5, "t_margin": 0.1},
        "picard": {"t_end": 1.0, "iterations": 8, "sample_times": [0.1, 0.5, 1.0],
                   "compare_classical": True},
        "threshold": {"rel_tol": 1e-3, "lambda_init": 1.0, "deltas": [0.1, 0.01, 0.001]},
        "dependence": {"T0": 5.0, "sizes": [1e-2, 1e-3, 1e-4], "q": 2.0,
                       "stability_tol": 0.25},
        "hypotheses": {},
    }
    cfg["experiment"].update(extras.get(kind, {}))
    if kind == "solve":
        # decay_slope and sup_t_beta_norm are read off the sampled series and move by 1e-5 at 2.4
        cfg["solver"]["safety"] = 0.8
    if kind == "threshold":
        cfg["initial_data"]["args"] = {"amplitude": 1.0, "width": 2.0}
        cfg["solver"]["t_end"] = 200.0
        cfg["grid"] = {"r_max": 40.0, "nodes": 200}
    return cfg


def _get(cfg: dict, path: str, typ=None, ok=None, need=""):
    """The value at path, of type typ ([float]: a list of floats), within ok's domain `need`."""
    node = cfg
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(path)
        node = node[key]
    value = node if typ is None else _typed(path, node, typ)
    if ok is not None and not ok(value):
        raise ConfigError(f"{path}: need {need}, got {value!r}")
    return value


def _typed(path: str, value, typ):
    if isinstance(typ, list):
        return [_typed(f"{path}[{i}]", v, typ[0]) for i, v in enumerate(_typed(path, value, list))]
    # bool is a subclass of int, so `true` would otherwise pass as the number 1
    if isinstance(value, bool) and bool not in (typ if isinstance(typ, tuple) else (typ,)):
        raise ConfigError(f"{path}: expected {typ}, got bool")
    if not isinstance(value, typ):
        if typ is float and isinstance(value, int):
            return float(value)
        raise ConfigError(f"{path}: expected {typ}, got {type(value).__name__}")
    return value


def _object(path: str, value) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {type(value).__name__}")
    return value


_BLOCKS = ("params", "grid", "solver", "experiment", "initial_data")


def _merged(cfg) -> dict:
    """`cfg` with each block merged over its kind's defaults; a key they lack is a ConfigError."""
    _object("config", cfg)
    blocks = {block: _object(block, cfg.get(block, {})) for block in _BLOCKS}
    base = default_config(_get(blocks, "experiment.kind", str))
    unknown = [key for key in cfg if key not in base] + [
        f"{block}.{key}" for block in _BLOCKS for key in blocks[block] if key not in base[block]]
    if unknown:
        raise ConfigError(f"{unknown[0]}: unknown key")
    merged = dict(cfg, output_dir=cfg.get("output_dir", base["output_dir"]))
    for block in _BLOCKS:
        merged[block] = {**base[block], **blocks[block]}
    return merged


def _solver_config(cfg: dict, n: int, t_end=None, checkpoint_times=None) -> evolution.SolverConfig:
    """The solver block as a SolverConfig for dimension n; a safety beyond RK4's
    stability bound evolution.max_safety(n) is a ConfigError."""
    if t_end is None:
        t_end = _get(cfg, "solver.t_end", float, lambda v: 0 < v < math.inf, "0 < t_end < inf")
    if checkpoint_times is None:
        cps = _get(cfg, "solver.checkpoints", (int, list),
                   lambda v: not isinstance(v, int) or v >= 1, "at least 1")
        checkpoint_times = (evolution.log_checkpoints(t_end, cps) if isinstance(cps, int)
                            else _get(cfg, "solver.checkpoints", [float]))
    settings = {key: _get(cfg, f"solver.{key}", float)
                for key in ("dt_init", "dt_min", "safety", "blowup_threshold")}
    if settings["safety"] > evolution.max_safety(n):
        raise ConfigError(f"solver.safety: {settings['safety']} exceeds RK4's stability bound "
                          f"{evolution.max_safety(n):.6g} for n = {n}")
    try:
        return evolution.SolverConfig(t_end=float(t_end), checkpoint_times=tuple(checkpoint_times),
                                      **settings)
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from exc


@dataclass
class ArtifactBundle:
    kind: str
    out_dir: Path
    tables: dict = field(default_factory=dict)      # filename stem -> (header, rows)
    documents: dict = field(default_factory=dict)   # filename stem -> json-able dict
    checks: list = field(default_factory=list)      # {"name", "passed", "value"}
    manifest: dict = field(default_factory=dict)

    def check(self, name: str, passed: bool, value) -> None:
        self.checks.append({"name": name, "passed": bool(passed),
                            "value": None if value is None else float(value)})

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def write_data(self) -> list:
        """Write every table as CSV and every document as JSON; return the file names."""
        names = []
        for stem, (header, rows) in sorted(self.tables.items()):
            write_csv(self.out_dir / f"{stem}.csv", header, rows)
            names.append(f"{stem}.csv")
        for stem, doc in sorted(self.documents.items()):
            write_json(self.out_dir / f"{stem}.json", doc)
            names.append(f"{stem}.json")
        return names


def _build_inputs(cfg: dict):
    n = _get(cfg, "params.n", int)
    p = _get(cfg, "params.p", (int, float))
    try:
        params = make_params(n, float(p))
    except ValueError as exc:
        raise ConfigError(f"params: {exc}") from exc
    try:
        grid = make_grid(params.n, _get(cfg, "grid.r_max", (int, float)),
                         _get(cfg, "grid.nodes", int))
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    prof = _get(cfg, "initial_data.profile", str)
    args = _get(cfg, "initial_data.args", dict)
    boundary = _get(cfg, "initial_data.boundary", str)
    try:
        u0 = build_profile(prof, grid, params, dict(args), boundary)
    except TypeError as exc:
        raise ConfigError(f"initial_data.args: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"initial_data.profile: {exc}") from exc
    return params, grid, u0


# ---------------------------------------------------------------------------
# Experiment pipelines.
# ---------------------------------------------------------------------------


def _run_solve(cfg, bundle):
    params, grid, u0 = _build_inputs(cfg)
    traj = evolution.solve(u0, params, _solver_config(cfg, params.n))
    bundle.tables["series"] = ("t,sup_norm,weighted_sup,dt",
                               [tuple(row) for row in traj.series])
    for i, (t, f) in enumerate(traj.checkpoints):
        bundle.tables[f"checkpoint_{i:03d}"] = ("r,u", list(zip(grid.nodes, f.values)))
    doc = {"status": traj.status.kind, "t_final": traj.status.t_final,
           "T_est": traj.status.T_est, "fit_quality": traj.status.fit_quality,
           "reason": traj.status.reason, "checkpoint_times": [t for t, _ in traj.checkpoints]}
    bundle.check("series_finite", bool(np.all(np.isfinite(traj.series))),
                 float(traj.series[-1, 1]))
    if traj.status.kind == "reached_horizon":
        diag = evolution.decay_diagnostics(traj, params)
        doc["decay_slope"] = diag.slope
        doc["sup_t_beta_norm"] = diag.sup_t_beta_norm
        doc["tail_monotone"] = diag.tail_monotone
        # the weighted-decay signature is only checkable once the weighted
        # norm has peaked before the final decade of the run
        if diag.defined and diag.peak_time < traj.status.t_final / 10.0:
            bundle.check("tail_monotone", diag.tail_monotone, diag.sup_t_beta_norm)
    if np.all(u0.values >= 0):
        floor = -1e-10 * max(float(np.max(u0.values)), 1e-300)
        worst = min((float(f.values.min()) for _, f in traj.checkpoints), default=0.0)
        bundle.check("positivity", worst >= floor, worst)
    bundle.documents["diagnostics"] = doc
    bundle.tables["plot_decay"] = ("series,x,y", [("sup_norm", t, s) for t, s in
                                                  zip(traj.times, traj.sup_norms)])


def _run_morrey(cfg, bundle):
    params, grid, u0 = _build_inputs(cfg)
    spec = morrey.MorreySpec(
        q=_get(cfg, "experiment.q", (int, float), lambda v: 1 <= v < math.inf, "1 <= q < inf"),
        lam=_get(cfg, "experiment.lam", (int, float), lambda v: 0 <= v <= params.n,
                 f"0 <= lam <= n = {params.n}"))
    refinements = _get(cfg, "experiment.refinements", int, lambda v: v >= 0, "refinements >= 0")
    lattices = [morrey.MorreyLattice.default(grid)]
    for _ in range(refinements):
        lattices.append(lattices[-1].refine())
    # only the finest lattice is evaluated; each coarser level is its sub-lattice
    ev = morrey.morrey_evaluate(u0, spec, lattices[-1])
    levels = [morrey.sub_cells(ev, lattices[-1], lattice) for lattice in lattices]
    for level, (lattice, cells) in enumerate(zip(lattices, levels)):
        rows = [(a, r, cells[i, j])
                for i, a in enumerate(lattice.centers)
                for j, r in enumerate(lattice.radii)]
        bundle.tables[f"cells_level{level}"] = ("a,R,value", rows)
    norms = [float(cells.max()) ** (1.0 / spec.q) for cells in levels]
    doc = {"norms_by_level": norms, "argmax_center": ev.center, "argmax_radius": ev.radius,
           "q": spec.q, "lam": spec.lam, "small_scale": morrey.small_scale_diagnostic(levels[0])}
    bundle.documents["morrey"] = doc
    monotone = all(norms[i + 1] >= norms[i] * (1 - 1e-12) for i in range(len(norms) - 1))
    bundle.check("refinement_monotone", monotone, norms[-1])


def _run_smoothing(cfg, bundle):
    params, grid, u0 = _build_inputs(cfg)
    to_q = _get(cfg, "experiment.to_q", (int, float, str))
    if isinstance(to_q, str) and to_q != "inf":
        raise ConfigError(f'experiment.to_q: expected a number or "inf", got {to_q!r}')
    t_lo = _get(cfg, "experiment.t_lo", float, lambda v: 0 < v < math.inf, "0 < t_lo < inf")
    t_hi = _get(cfg, "experiment.t_hi", float, lambda v: t_lo <= v < math.inf, "t_lo <= t_hi < inf")
    t_count = _get(cfg, "experiment.t_count", int, lambda v: v >= 1, "t_count >= 1")
    t_grid = np.geomspace(t_lo, t_hi, t_count)
    points = morrey.smoothing_profile(u0, _get(cfg, "experiment.from_q", float), float(to_q),
                                      _get(cfg, "experiment.lam", float), t_grid)
    rows = [(pt.t, pt.norm_to, pt.ratio, pt.norm_from_after, pt.contraction_ok)
            for pt in points]
    bundle.tables["smoothing"] = ("t,norm_to,ratio,norm_from_after,contraction_ok", rows)
    bundle.check("contraction", all(pt.contraction_ok for pt in points),
                 max(pt.norm_from_after for pt in points))
    bundle.check("ratio_bounded", all(math.isfinite(pt.ratio) for pt in points),
                 max(pt.ratio for pt in points))
    bundle.tables["plot_smoothing"] = ("series,x,y", [("ratio", pt.t, pt.ratio) for pt in points])


def _run_energy(cfg, bundle):
    params, grid, u0 = _build_inputs(cfg)
    t_values = _get(cfg, "experiment.T_values", [float])
    ds = _get(cfg, "experiment.ds", float)
    frac = _get(cfg, "experiment.t_lo_fraction", float)
    t_margin = _get(cfg, "experiment.t_margin", float)
    horizon = _get(cfg, "solver.t_end", float, lambda v: 0 < v < math.inf, "0 < t_end < inf")
    grids = {}
    for T in t_values:
        # start each window at a fixed fraction of T so the s-compression of
        # the t-dynamics stays bounded and dm/ds is resolved at this ds
        t_lo = frac * T
        t_hi = min(horizon, T - t_margin)
        if t_hi <= t_lo:
            raise ConfigError(f"experiment.T_values: window empty for T={T}")
        grids[T] = np.arange(-math.log(T - t_lo), -math.log(T - t_hi), ds)
    # the windows' checkpoints at exactly these floats; the solve ends at the last, not at horizon
    times = sorted({t for T, s_grid in grids.items()
                    for t in similarity.checkpoint_times_for_s_grid(T, s_grid).tolist()})
    traj = evolution.solve(u0, params, _solver_config(cfg, params.n, t_end=times[-1],
                                                      checkpoint_times=times))
    if traj.status.kind != "reached_horizon":
        raise PipelineError(f"energy run did not reach the horizon: {traj.status}")
    rows_plot = []
    for T in t_values:
        series = similarity.energy_series(traj, T, params, grids[T])
        # endpoint rows have no centered dm/ds; their residual stays nan
        rows = list(zip(series.s, series.E, series.m, series.identity_residual))
        bundle.tables[f"energy_T{T:g}"] = ("s,E,m,residual_4_16", rows)
        rel = series.identity_relative[1:-1]
        bundle.check(f"energy_monotone_T{T:g}", series.monotone_ok,
                     series.monotone_violation)
        bundle.check(f"energy_nonneg_T{T:g}", series.min_energy >= -1e-6,
                     series.min_energy)
        bundle.check(f"energy_identity_T{T:g}", float(np.max(rel)) < 1e-3,
                     float(np.max(rel)))
        rows_plot.extend(("E_T%g" % T, s, e) for s, e in zip(series.s, series.E))
    bundle.tables["plot_energy"] = ("series,x,y", rows_plot)


def _run_picard(cfg, bundle):
    params, grid, u0 = _build_inputs(cfg)
    t_end = _get(cfg, "experiment.t_end", float, lambda v: 0 < v < math.inf, "0 < t_end < inf")
    iterations = _get(cfg, "experiment.iterations", int, lambda v: v >= 2, "iterations >= 2")
    sample_times = _get(cfg, "experiment.sample_times", [float], lambda v: v and all(
        0 < t <= t_end for t in v), "a nonempty list in (0, t_end]")
    run = duhamel.picard_solve(u0, params, t_end, iterations, sample_times)
    rows = [(t, br, bi, d) for (t, br, bi), d in
            zip(run.budget, run.last_sample_diffs)]
    bundle.tables["budget"] = ("t,budget_r,budget_inf,cauchy_diff", rows)
    bundle.documents["picard"] = {
        "converged": run.converged, "diverged": run.diverged,
        "iterations": run.iterations, "nodes_used": run.nodes_used,
        "node_stability": run.node_stability, "convergence_ratio": run.convergence_ratio,
        "aux_r": run.aux_r, "beta_aux": run.beta_aux,
        "cauchy_diffs": list(run.cauchy_diffs)}
    bundle.check("picard_converged", run.converged and not run.diverged,
                 run.cauchy_diffs[-1] if run.cauchy_diffs else None)
    if _get(cfg, "experiment.compare_classical", bool):
        u0d = build_profile(_get(cfg, "initial_data.profile", str), grid, params,
                            dict(_get(cfg, "initial_data.args", dict)), DIRICHLET)
        traj = evolution.solve(u0d, params, _solver_config(
            cfg, params.n, t_end=t_end, checkpoint_times=tuple(run.sample_times)))
        worst = 0.0
        for (t, f), (_, fc) in zip(zip(run.sample_times, run.fields), traj.checkpoints):
            denom = float(np.max(np.abs(fc.values)))
            if denom > 0:
                worst = max(worst, float(np.max(np.abs(f.values - fc.values))) / denom)
        bundle.check("mild_classical_agreement", worst < 0.01, worst)
    bundle.tables["plot_budget"] = ("series,x,y",
                                    [("budget_inf", t, bi) for t, _, bi in run.budget])


def _run_threshold(cfg, bundle):
    params, grid, phi = _build_inputs(cfg)
    cfg_solver = _solver_config(cfg, params.n)
    deltas = _get(cfg, "experiment.deltas", [float])
    started = time.perf_counter()
    result = threshold.bisect_lambda(phi, params, cfg_solver,
                                     rel_tol=_get(cfg, "experiment.rel_tol", float),
                                     lambda_init=_get(cfg, "experiment.lambda_init", float))
    counters.add("threshold.bisect_s", time.perf_counter() - started)
    doc = {"lambda_lo": result.lambda_lo, "lambda_hi": result.lambda_hi,
           "rel_width": result.rel_width, "stalled": result.stalled,
           "epsilon_star": result.epsilon_star, "C0_measured": result.C0_measured,
           "trials": result.trials,
           "morrey_series_lo": [[t, v] for t, v in result.morrey_series_lo],
           "morrey_series_hi": [[t, v] for t, v in result.morrey_series_hi]}
    bundle.documents["threshold"] = doc
    bundle.tables["morrey_series_lo"] = ("t,value", result.morrey_series_lo)
    bundle.tables["morrey_series_hi"] = ("t,value", result.morrey_series_hi)
    bundle.check("bracket_consistent", result.monotone_consistent, result.rel_width)
    bundle.check("bracket_tight", not result.stalled, result.rel_width)
    late = [(t, v) for t, v in result.morrey_series_lo if t >= 1.0]
    if len(late) >= 2:
        bundle.check("morrey_decreases_below_threshold", late[-1][1] < late[0][1],
                     late[-1][1] / late[0][1])
    if deltas and result.rel_width > 1e-2:
        doc["probes_skipped"] = "bracket wider than 1e-2"
        deltas = None
    started = time.perf_counter()
    probes = threshold.borderline_probe(result, params, cfg_solver, deltas) if deltas else []
    counters.add("threshold.probes_s", time.perf_counter() - started)
    if deltas:
        doc["probes"] = [{"delta": p_.delta, "lambda": p_.lam, "verdict": p_.verdict,
                          "T_est": p_.T_est, "t0": p_.t0,
                          "morrey_start": p_.morrey_start, "morrey_end": p_.morrey_end}
                         for p_ in probes]
        bundle.check("subthreshold_probes_decay",
                     all(p_.verdict == "decaying" for p_ in probes if p_.delta > 0),
                     None)
    bundle.tables["plot_morrey_threshold"] = ("series,x,y", (
        [("morrey_lo", t, v) for t, v in result.morrey_series_lo]
        + [("morrey_hi", t, v) for t, v in result.morrey_series_hi]))


def _run_dependence(cfg, bundle):
    params, grid, u0 = _build_inputs(cfg)
    t0_horizon = _get(cfg, "experiment.T0", float, lambda v: 0 < v < math.inf, "0 < T0 < inf")
    cfg_solver = _solver_config(cfg, params.n, t_end=t0_horizon,
                                checkpoint_times=evolution.log_checkpoints(t0_horizon, 16))
    sizes = _get(cfg, "experiment.sizes", [float])
    spec = morrey.critical_spec(params, q=_get(cfg, "experiment.q", float))
    v0s = [make_field(grid, u0.values * (1.0 + size), u0.boundary) for size in sizes]
    results = duhamel.continuous_dependence(u0, v0s, cfg_solver, params, spec)
    rows = []
    max_ratios = []
    for size, res in zip(sizes, results):
        rows.extend((size, t, r) for t, r in zip(res.times, res.ratios))
        max_ratios.append(res.max_ratio)
        bundle.check(f"run_completes_size{size:g}", not res.failed_before_T0,
                     res.max_ratio)
    bundle.tables["dependence"] = ("size,t,ratio", rows)
    spread = (max(max_ratios) - min(max_ratios)) / max(max_ratios)
    tol = _get(cfg, "experiment.stability_tol", float)
    bundle.check("lipschitz_stability", spread < tol, spread)
    bundle.documents["dependence"] = {"sizes": sizes, "max_ratios": max_ratios,
                                      "spread": spread}
    bundle.tables["plot_dependence"] = ("series,x,y",
                                        [(f"size_{size:g}", t, r) for size, t, r in rows])


def _run_hypotheses(cfg, bundle):
    params, grid, u0 = _build_inputs(cfg)
    grad = radial_derivative(u0)
    # {condition: {"satisfied", "evidence"}} for each of the report's five conditions
    bundle.documents["hypotheses"] = asdict(hypotheses.check_hypotheses(u0, grad, params))
    # report-only: admissibility is data-dependent, not an invariant


_PIPELINES = {
    "solve": _run_solve, "morrey": _run_morrey, "smoothing": _run_smoothing,
    "energy": _run_energy, "picard": _run_picard, "threshold": _run_threshold,
    "dependence": _run_dependence, "hypotheses": _run_hypotheses,
}


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _versions() -> dict:
    return {"python": "%d.%d.%d" % sys.version_info[:3], "numpy": np.__version__,
            "morreyheat": __version__}


def _error_chain(exc: BaseException) -> list:
    """`Type: message` of an exception and each exception it was raised from, outermost first."""
    chain = []
    while exc is not None:
        chain.append(f"{type(exc).__name__}: {exc}")
        exc = exc.__cause__ or exc.__context__
    return chain


def run_experiment(cfg: dict, out_dir=None) -> ArtifactBundle:
    """Merge the config over its kind's defaults, dispatch the pipeline, write all artifacts.

    The manifest is written last; it records the hash of the merged config,
    in `checks` every invariant the pipeline asserted, with the measured
    value, and in `profile` the work counters the layers reported while the
    pipeline ran (see `counters`).  If the pipeline fails, a manifest with
    `status: "failed"`, the error chain and the counters so far is written
    before the PipelineError propagates.
    """
    cfg = _merged(cfg)
    kind = cfg["experiment"]["kind"]
    out = Path(out_dir if out_dir is not None else _get(cfg, "output_dir", str))
    bundle = ArtifactBundle(kind=kind, out_dir=out)
    started = time.perf_counter()
    try:
        with counters.collect() as profile:
            _PIPELINES[kind](cfg, bundle)
    except ConfigError:
        raise
    except Exception as exc:
        error = PipelineError(f"{kind} pipeline failed: {exc}")
        error.__cause__ = exc
        bundle.manifest = _manifest(kind, "failed", cfg, time.perf_counter() - started, profile,
                                    error=_error_chain(error))
        write_json(out / "manifest.json", bundle.manifest)
        raise error from exc
    wall = time.perf_counter() - started
    bundle.manifest = _manifest(kind, "ok", cfg, wall, profile, checks=bundle.checks,
                                artifacts=sorted(bundle.write_data()))
    write_json(out / "manifest.json", bundle.manifest)
    return bundle


def _manifest(kind: str, status: str, cfg: dict, wall: float, profile: dict, **extra) -> dict:
    return {"kind": kind, "status": status, "config_hash": config_hash(cfg),
            "wall_time_s": wall, "versions": _versions(), "profile": profile, **extra}


# ---------------------------------------------------------------------------
# Command line.
# ---------------------------------------------------------------------------

# (command-line option, its type, config block, key) of the quick overrides
_OVERRIDES = (("n", int, "params", "n"), ("p", float, "params", "p"),
              ("rmax", float, "grid", "r_max"), ("nodes", int, "grid", "nodes"),
              ("tend", float, "solver", "t_end"))


def _cli_config(args) -> dict:
    """The config file (or an empty config) of a subcommand, with its overrides applied."""
    cfg = {}
    if args.config is not None:
        with open(args.config) as fh:
            cfg = _object("config", json.load(fh))
    kind = _object("experiment", cfg.setdefault("experiment", {})).setdefault("kind", args.kind)
    if kind != args.kind:
        raise ConfigError(f"experiment.kind: config kind {kind!r} != subcommand {args.kind!r}")
    for option, _, block, key in _OVERRIDES:
        value = getattr(args, option)
        if value is not None:
            _object(block, cfg.setdefault(block, {}))[key] = value
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="morreyheat",
        description="Radial semilinear-heat laboratory: solver, Morrey norms, "
                    "energy and threshold experiments")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in EXPERIMENT_KINDS:
        sp = sub.add_parser(kind, help=f"run the {kind} experiment")
        sp.add_argument("--config", type=Path, help="JSON config path")
        sp.add_argument("--out", type=Path, help="output directory")
        for option, typ, _, _ in _OVERRIDES:
            sp.add_argument(f"--{option}", type=typ)
    args = parser.parse_args(argv)

    try:
        bundle = run_experiment(_cli_config(args), out_dir=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 3
    for check in bundle.checks:
        mark = "PASS" if check["passed"] else "FAIL"
        val = "" if check["value"] is None else f" ({check['value']:.6g})"
        print(f"[{mark}] {check['name']}{val}")
    print(f"artifacts in {bundle.out_dir}")
    return 0 if bundle.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
