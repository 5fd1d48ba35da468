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
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, counters, duhamel, evolution, hypotheses, morrey, similarity, threshold
from .fields import DIRICHLET, build_profile, make_field, make_grid, radial_derivative
from .io import write_csv, write_json
from .params import make_params
from .quadrature import heat_time_floor


class ConfigError(ValueError):
    """Invalid experiment config; the message names the offending field path."""


class PipelineError(RuntimeError):
    """An experiment pipeline failed; wraps the module-level error."""


def default_config(kind: str, n: int = 5) -> dict:
    """The options one kind reads, with defaults for dimension n (threshold's safety reads n)."""
    if kind not in _PIPELINES:
        raise ConfigError(f"experiment.kind: unknown kind {kind!r}")
    cfg = {
        "params": {"n": n, "p": 3.0},
        "grid": {"r_max": 40.0, "nodes": 400},
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
        "picard": {"iterations": 8, "sample_times": [0.1, 0.5, 1.0]},
        "threshold": {"rel_tol": 1e-3, "lambda_init": 1.0, "deltas": [0.1, 0.01, 0.001]},
        "dependence": {"sizes": [1e-2, 1e-3, 1e-4], "q": 2.0},
    }
    cfg["experiment"].update(extras.get(kind, {}))
    # the kinds that solve, each with its horizon (dependence's T0) and the checkpoints it reads;
    # solve's decay_slope and sup_t_beta_norm are read off the sampled series and move by 1e-5
    # at 2.4, so it steps at 0.8
    own = {"solve": {"t_end": 20.0, "checkpoints": 20, "safety": 0.8}, "energy": {"t_end": 20.0},
           "picard": {"t_end": 1.0}, "threshold": {"t_end": 200.0, "checkpoints": 20},
           "dependence": {"t_end": 5.0}}
    if kind in own:
        # 2.4 is below evolution.max_safety(n) for every n >= 3; solve and threshold set their own
        cfg["solver"] = {"safety": 2.4, **own[kind]}
    if kind == "threshold":
        # its verdicts read no step-sampled value, so it steps at the stated fraction of RK4's
        # bound for its own n: 2.507, 2.967 and 3.287 at n = 3, 5 and 8 (dt*rho = 2.51)
        cfg["solver"]["safety"] = evolution.STABLE_FRACTION * evolution.max_safety(n)
        cfg["initial_data"]["args"] = {"amplitude": 1.0, "width": 2.0}
        cfg["grid"] = {"r_max": 40.0, "nodes": 200}
    return cfg


def _has_type(value, default) -> bool:
    """Whether value has the type of default; a float also takes an int, a list holds numbers."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_has_type(v, 0.0) for v in value)
    # bool is a subclass of int, so `true` would otherwise pass as the number 1
    if isinstance(value, bool) != isinstance(default, bool):
        return False
    return isinstance(value, (int, float) if isinstance(default, float) else type(default))


# the two options whose default's type is not their only one: (test, what they take)
_OWN_TYPES = {"solver.checkpoints": (lambda v: _has_type(v, 0) or _has_type(v, [0.0]),
                                     "an integer or a list of numbers"),
              "experiment.to_q": (lambda v: v == "inf" or _has_type(v, 0.0), 'a number or "inf"')}


# Each option's domain: path -> (test, need), checked in this order for every kind whose
# defaults state the path, so a test may read the options of the rows above it.  A value v
# fails if test(v, merged config) is false: "<path>: need <need>, got <v>" ({key}: the
# option's key) or "<path>: <need(v, cfg)>".  SolverConfig checks the rest of its block.
_POSITIVE = (lambda v, c: 0 < v < math.inf, "0 < {key} < inf")
_DOMAINS = {
    "params.n": (lambda v, c: v >= 3, "n >= 3"),    # the rows below read n
    "params.p": (lambda v, c: v > 1, "p > 1"),
    "grid.r_max": _POSITIVE,
    "grid.nodes": (lambda v, c: v >= 16, "nodes >= 16"),
    "solver.t_end": _POSITIVE,
    "solver.checkpoints": (lambda v, c: isinstance(v, list) or v >= 1, "at least 1"),
    # within RK4's bound, with a diffusive cap (h = r_max/nodes) not below the blowup signal DT_MIN
    "solver.safety": (lambda v, c: (v <= evolution.RK4_REAL_LIMIT  # max_safety(3), least for any n
                                    or v <= evolution.max_safety(c["params"]["n"])) and
                      evolution.diffusive_cap(v, c["grid"]["r_max"] / c["grid"]["nodes"],
                                              c["params"]["n"]) >= evolution.DT_MIN, lambda v, c: (
        f"{v!r} exceeds RK4's stability bound {evolution.max_safety(c['params']['n']):.6g} "
        f"for n = {c['params']['n']}" if v > evolution.max_safety(c["params"]["n"]) else
        f"{v!r} puts the step cap safety*h^2/(2n) below evolution.DT_MIN = {evolution.DT_MIN:g}")),
    "experiment.q": (lambda v, c: 1 <= v < math.inf, "1 <= q < inf"),
    "experiment.lam": (lambda v, c: 0 <= v <= c["params"]["n"], "0 <= lam <= n"),
    "experiment.refinements": (lambda v, c: v >= 0, "refinements >= 0"),
    "experiment.from_q": (lambda v, c: 1 <= v <= float(c["experiment"]["to_q"]),
                          "1 <= from_q <= to_q"),
    "experiment.t_lo": (lambda v, c: heat_time_floor(c["grid"]["r_max"], c["grid"]["nodes"])
                        <= v < math.inf, "h^2/4 <= t_lo < inf, h = r_max/nodes"),
    "experiment.t_hi": (lambda v, c: c["experiment"]["t_lo"] <= v < math.inf, "t_lo <= t_hi < inf"),
    "experiment.t_count": (lambda v, c: v >= 1, "t_count >= 1"),
    "experiment.T_values": (lambda v, c: v and all(0 < T < math.inf for T in v),
                            "a nonempty list in (0, inf)"),
    "experiment.ds": _POSITIVE,
    "experiment.t_lo_fraction": (lambda v, c: 0 < v < 1, "0 < t_lo_fraction < 1"),
    "experiment.t_margin": _POSITIVE,
    "experiment.iterations": (lambda v, c: v >= 2, "iterations >= 2"),
    "experiment.sample_times": (
        lambda v, c: v and len(set(v)) == len(v) and all(0 < t <= c["solver"]["t_end"] for t in v),
        "a nonempty list of distinct times in (0, t_end]"),
    "experiment.rel_tol": _POSITIVE,
    "experiment.lambda_init": _POSITIVE,
    "experiment.deltas": (lambda v, c: all(-math.inf < d < 1 for d in v),
                          "a list of finite numbers below 1"),
    "experiment.sizes": (lambda v, c: v and all(map(math.isfinite, v)),
                         "a nonempty list of finite numbers"),
}


def _object(path: str, value) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {type(value).__name__}")
    return value


_BLOCKS = ("params", "grid", "solver", "experiment", "initial_data")


def _merged(cfg) -> dict:
    """What `cfg`'s kind states, each block merged over its defaults for its own n.  A key they
    lack, a value without its default's type, or one outside its _DOMAINS row is a ConfigError."""
    _object("config", cfg)
    blocks = {block: _object(block, cfg.get(block, {})) for block in _BLOCKS}
    kind = blocks["experiment"].get("kind")
    base = default_config(kind)
    # (path, value, default) of every option the config gives
    given = [(key, cfg[key], base.get(key)) for key in cfg if key not in _BLOCKS] + [
        (f"{block}.{key}", value, base.get(block, {}).get(key))
        for block in _BLOCKS for key, value in blocks[block].items()]
    for path, value, default in given:
        if default is None:
            raise ConfigError(f"{path}: unknown key")
        test, name = _OWN_TYPES.get(path) or (lambda v: _has_type(v, default),
                                              f"the type of its default {default!r}")
        if not test(value):
            raise ConfigError(f"{path}: expected {name}, got {value!r}")
    n = blocks["params"].get("n", base["params"]["n"])
    if _DOMAINS["params.n"][0](n, None):   # an n outside its domain fails below
        base = default_config(kind, n)
    merged = {key: {**value, **blocks[key]} if key in _BLOCKS else cfg.get(key, value)
              for key, value in base.items()}
    for path, (test, need) in _DOMAINS.items():
        block, key = path.split(".")
        value = merged.get(block, {}).get(key)
        if key in base.get(block, ()) and not test(value, merged):
            raise ConfigError(f"{path}: {need(value, merged)}" if callable(need) else
                              f"{path}: need {need.format(key=key)}, got {value!r}")
    return merged


def _solver_config(cfg: dict, t_end=None, checkpoint_times=None) -> evolution.SolverConfig:
    """The solver block as a SolverConfig, to t_end with checkpoint_times where given."""
    solver = cfg["solver"]
    if t_end is None:
        t_end = solver["t_end"]
    if checkpoint_times is None:
        cps = solver["checkpoints"]
        checkpoint_times = evolution.log_checkpoints(t_end, cps) if isinstance(cps, int) else cps
    try:
        return evolution.SolverConfig(safety=solver["safety"], t_end=float(t_end),
                                      checkpoint_times=tuple(map(float, checkpoint_times)))
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
    params = make_params(float(cfg["params"]["p"]))
    grid = make_grid(cfg["params"]["n"], cfg["grid"]["r_max"], cfg["grid"]["nodes"])
    data = cfg["initial_data"]
    try:
        u0 = build_profile(data["profile"], grid, params, dict(data["args"]), data["boundary"])
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
    traj = evolution.solve(u0, params, _solver_config(cfg))
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


def _run_morrey(cfg, bundle):
    params, grid, u0 = _build_inputs(cfg)
    spec = morrey.MorreySpec(q=cfg["experiment"]["q"], lam=cfg["experiment"]["lam"])
    lattices = [morrey.MorreyLattice.default(grid)]
    for _ in range(cfg["experiment"]["refinements"]):
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
    ex = cfg["experiment"]
    t_grid = np.geomspace(ex["t_lo"], ex["t_hi"], ex["t_count"])
    points = morrey.smoothing_profile(u0, ex["from_q"], float(ex["to_q"]), ex["lam"], t_grid)
    rows = [(pt.t, pt.norm_to, pt.ratio, pt.norm_from_after, pt.contraction_ok)
            for pt in points]
    bundle.tables["smoothing"] = ("t,norm_to,ratio,norm_from_after,contraction_ok", rows)
    bundle.check("contraction", all(pt.contraction_ok for pt in points),
                 max(pt.norm_from_after for pt in points))
    bundle.check("ratio_bounded", all(math.isfinite(pt.ratio) for pt in points),
                 max(pt.ratio for pt in points))


def _run_energy(cfg, bundle):
    params, grid, u0 = _build_inputs(cfg)
    ex = cfg["experiment"]
    grids = {}
    for T in ex["T_values"]:
        # start each window at a fixed fraction of T so the s-compression of
        # the t-dynamics stays bounded and dm/ds is resolved at this ds
        t_lo = ex["t_lo_fraction"] * T
        t_hi = min(cfg["solver"]["t_end"], T - ex["t_margin"])
        if t_hi <= t_lo:
            raise ConfigError(f"experiment.T_values: window empty for T={T}")
        grids[T] = np.arange(-math.log(T - t_lo), -math.log(T - t_hi), ex["ds"])
        if grids[T].size < 3:
            raise ConfigError(f"experiment.ds: {ex['ds']!r} leaves fewer than 3 s-points "
                              f"in the window for T={T}")
    # the windows' checkpoints at exactly these floats; the solve ends at the last, not at horizon
    times = sorted({t for T, s_grid in grids.items()
                    for t in similarity.checkpoint_times_for_s_grid(T, s_grid).tolist()})
    traj = evolution.solve(u0, params, _solver_config(cfg, times[-1], times))
    if traj.status.kind != "reached_horizon":
        raise PipelineError(f"energy run did not reach the horizon: {traj.status}")
    for T in ex["T_values"]:
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


def _run_picard(cfg, bundle):
    params, grid, u0 = _build_inputs(cfg)
    ex = cfg["experiment"]
    t_end = cfg["solver"]["t_end"]
    run = duhamel.picard_solve(u0, params, t_end, ex["iterations"], ex["sample_times"])
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
    data = cfg["initial_data"]
    u0d = build_profile(data["profile"], grid, params, dict(data["args"]), DIRICHLET)
    traj = evolution.solve(u0d, params, _solver_config(cfg, t_end, run.sample_times))
    worst = 0.0
    for (t, f), (_, fc) in zip(zip(run.sample_times, run.fields), traj.checkpoints):
        denom = float(np.max(np.abs(fc.values)))
        if denom > 0:
            worst = max(worst, float(np.max(np.abs(f.values - fc.values))) / denom)
    # a classical run that stops before the last sample time compares nothing there
    complete = len(traj.checkpoints) == len(run.sample_times)
    bundle.check("mild_classical_agreement", complete and worst < 0.01, worst)


def _run_threshold(cfg, bundle):
    params, grid, phi = _build_inputs(cfg)
    cfg_solver = _solver_config(cfg)
    ex = cfg["experiment"]
    result = threshold.bisect_lambda(phi, params, cfg_solver, rel_tol=ex["rel_tol"],
                                     lambda_init=ex["lambda_init"])
    doc = {"lambda_lo": result.lambda_lo, "lambda_hi": result.lambda_hi,
           "rel_width": result.rel_width, "stalled": result.stalled,
           "epsilon_star": result.epsilon_star, "C0_measured": result.C0_measured,
           "trials": result.trials}
    bundle.documents["threshold"] = doc
    bundle.tables["morrey_series_lo"] = ("t,value", result.morrey_series_lo)
    bundle.tables["morrey_series_hi"] = ("t,value", result.morrey_series_hi)
    bundle.check("bracket_consistent", result.monotone_consistent, result.rel_width)
    bundle.check("bracket_tight", not result.stalled, result.rel_width)
    late = [(t, v) for t, v in result.morrey_series_lo if t >= 1.0]
    if len(late) >= 2:
        bundle.check("morrey_decreases_below_threshold", late[-1][1] < late[0][1],
                     late[-1][1] / late[0][1])
    if ex["deltas"] and result.rel_width > threshold.PROBE_MAX_WIDTH:
        doc["probes_skipped"] = f"bracket wider than {threshold.PROBE_MAX_WIDTH:g}"
    elif ex["deltas"]:
        probes = threshold.borderline_probe(result, params, cfg_solver, ex["deltas"])
        doc["probes"] = [{"delta": p_.delta, "lambda": p_.lam, "verdict": p_.verdict,
                          "T_est": p_.T_est, "t0": p_.t0,
                          "morrey_start": p_.morrey_start, "morrey_end": p_.morrey_end}
                         for p_ in probes]
        bundle.check("subthreshold_probes_decay",
                     all(p_.verdict == "decaying" for p_ in probes if p_.delta > 0),
                     None)


def _run_dependence(cfg, bundle):
    params, grid, u0 = _build_inputs(cfg)
    ex = cfg["experiment"]
    cfg_solver = _solver_config(cfg, None, evolution.log_checkpoints(cfg["solver"]["t_end"], 16))
    sizes = ex["sizes"]
    spec = morrey.critical_spec(params, q=ex["q"])
    v0s = [make_field(grid, u0.values * (1.0 + size), u0.boundary) for size in sizes]
    results = duhamel.continuous_dependence(u0, v0s, cfg_solver, params, spec)
    rows = []
    max_ratios = [res.max_ratio for res in results]
    for size, res in zip(sizes, results):
        rows.extend((size, t, r) for t, r in zip(res.times, res.ratios))
        bundle.check(f"run_completes_size{size:g}", not res.failed_before_T0,
                     res.max_ratio)
    bundle.tables["dependence"] = ("size,t,ratio", rows)
    spread = (max(max_ratios) - min(max_ratios)) / max(max_ratios)
    bundle.check("lipschitz_stability", spread < 0.25, spread)
    bundle.documents["dependence"] = {"sizes": sizes, "max_ratios": max_ratios,
                                      "spread": spread}


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
EXPERIMENT_KINDS = tuple(_PIPELINES)


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _error_chain(exc: BaseException) -> list:
    """`Type: message` of an exception and each exception it was raised from, outermost first."""
    chain = []
    while exc is not None:
        chain.append(f"{type(exc).__name__}: {exc}")
        exc = exc.__cause__ or exc.__context__
    return chain


def run_experiment(cfg: dict, out_dir=None) -> ArtifactBundle:
    """Merge the config over its kind's defaults, dispatch the pipeline, write all artifacts.

    The manifest is written last; it records the hash of the merged config, in `checks`
    every invariant the pipeline asserted, with the measured value, and in `profile` the
    work counters and stage times the layers reported while the pipeline ran (`wall_time_s`)
    and the data were written (`io.write_s`); see `counters`.  If the pipeline fails, a
    manifest with `status: "failed"`, the error chain and the profile so far is written
    before the PipelineError propagates.
    """
    cfg = _merged(cfg)
    kind = cfg["experiment"]["kind"]
    out = Path(out_dir if out_dir is not None else cfg["output_dir"])
    bundle = ArtifactBundle(kind=kind, out_dir=out)
    with counters.collect() as profile:
        try:
            with counters.timed("wall_time_s"):
                _PIPELINES[kind](cfg, bundle)
        except ConfigError:
            raise
        except Exception as exc:
            error = PipelineError(f"{kind} pipeline failed: {exc}")
            error.__cause__ = exc
            _write_manifest(bundle, "failed", cfg, profile, error=_error_chain(error))
            raise error from exc
        with counters.timed("io.write_s"):
            artifacts = sorted(bundle.write_data())
    _write_manifest(bundle, "ok", cfg, profile, checks=bundle.checks, artifacts=artifacts)
    return bundle


def _write_manifest(bundle, status: str, cfg: dict, profile: dict, **extra) -> None:
    versions = {"python": "%d.%d.%d" % sys.version_info[:3], "numpy": np.__version__,
                "morreyheat": __version__}
    bundle.manifest = {"kind": bundle.kind, "status": status, "config_hash": config_hash(cfg),
                       "wall_time_s": profile.pop("wall_time_s"), "versions": versions,
                       "profile": profile, **extra}
    write_json(bundle.out_dir / "manifest.json", bundle.manifest)


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
