import json
import math
import os
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

from morreyheat import cli, counters, duhamel, evolution, morrey
from morreyheat.fields import make_field, make_grid
from morreyheat.morrey import MorreyLattice, critical_spec, morrey_norm
from morreyheat.quadrature import SMALL_BALL_FACTOR, small_ball_plan, sphere_area, volume_weights
from test_quadrature import _dense_cell_weights, _diagonal_bytes


def read(path):
    return Path(path).read_bytes()


def test_default_configs_validate():
    for kind in cli.EXPERIMENT_KINDS:
        cfg = cli.default_config(kind)
        assert cfg["experiment"]["kind"] == kind


def test_partial_config_same_through_library_and_cli(tmp_path, fresh_tables):
    # compare_classical is left to the picard defaults, whichever way the config runs
    cfg = cli.default_config("picard")
    del cfg["experiment"]["compare_classical"]
    cfg["grid"] = {"r_max": 16.0, "nodes": 160}
    cfg["experiment"].update({"t_end": 0.5, "sample_times": [0.25, 0.5]})
    path = tmp_path / "picard.json"
    path.write_text(json.dumps(cfg))
    lib = cli.run_experiment(cfg, out_dir=tmp_path / "lib")
    morrey._TABLE_CACHE.clear()   # each run builds its table, as a fresh CLI process does
    assert cli.main(["picard", "--config", str(path), "--out", str(tmp_path / "cli")]) == 0
    manifests = []
    for out in ("lib", "cli"):
        manifest = json.loads((tmp_path / out / "manifest.json").read_text())
        manifest.pop("wall_time_s")
        manifests.append(manifest)
    assert manifests[0] == manifests[1]
    assert [c["name"] for c in lib.checks] == ["picard_converged", "mild_classical_agreement"]
    for name in lib.manifest["artifacts"]:
        assert read(tmp_path / "lib" / name) == read(tmp_path / "cli" / name), name


@pytest.mark.parametrize("config, named", [({"grid": 5}, "grid"), ([1, 2], "config")])
def test_config_not_an_object_exits_2(config, named, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {named}: expected an object" in capsys.readouterr().err


@pytest.mark.parametrize("kind, path, value, message", [
    ("solve", "solver.dt_min", 1.0, "solver: need dt_min < dt_init"),
    ("solve", "solver.series_stride", 0, "solver: series_stride must be >= 1"),
    ("solve", "solver.series_stride", -3, "solver: series_stride must be >= 1"),
    ("solve", "solver.checkpoints", 0, "solver.checkpoints: need at least 1"),
    ("solve", "solver.checkpoints", -2, "solver.checkpoints: need at least 1"),
    ("solve", "solver.safety", 0.0, "solver: safety must be > 0"),
    ("solve", "solver.safety", -1.0, "solver: safety must be > 0"),
    ("solve", "solver.safety", evolution.max_safety(5) * 1.01,
     "solver.safety: %r exceeds RK4's stability bound" % (evolution.max_safety(5) * 1.01)),
    ("dependence", "solver.safety", evolution.max_safety(5) * 1.01,
     "solver.safety: %r exceeds RK4's stability bound" % (evolution.max_safety(5) * 1.01)),
    ("smoothing", "experiment.to_q", True, "experiment.to_q: expected"),
    ("smoothing", "experiment.to_q", "banana", 'experiment.to_q: expected a number or "inf"'),
])
def test_bad_config_value_exits_2(kind, path, value, message, tmp_path, capsys):
    block, key = path.split(".")
    cfg = {"experiment": {"kind": kind}, "grid": {"r_max": 10.0, "nodes": 64},
           "solver": {"t_end": 0.5}}
    cfg[block][key] = value
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(cfg))
    assert cli.main([kind, "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("t_lo", 0.0), ("t_lo", -1.0), ("t_lo", math.nan), ("t_lo", math.inf),
    ("t_hi", math.inf), ("t_hi", math.nan), ("t_hi", 0.005),
    ("t_count", 0), ("t_count", -3),
])
def test_smoothing_times_outside_their_domain_exit_2(key, value, tmp_path, capsys):
    # the smoothing times are finite and positive with t_lo <= t_hi, and t_count >= 1
    cfg = {"experiment": {"kind": "smoothing", key: value}, "grid": {"r_max": 10.0, "nodes": 64}}
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(cfg))
    assert cli.main(["smoothing", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: experiment.{key}: need " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [
    ("refinements", -1), ("q", 0.5), ("q", math.nan), ("q", math.inf),
    ("lam", -1.0), ("lam", 5.5), ("lam", math.nan),
])
def test_morrey_options_outside_their_domain_exit_2(key, value, tmp_path, capsys):
    # refinements >= 0, 1 <= q < inf and 0 <= lam <= n, checked before any evaluation
    cfg = {"experiment": {"kind": "morrey", key: value}, "grid": {"r_max": 10.0, "nodes": 64}}
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(cfg))
    assert cli.main(["morrey", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: experiment.{key}: need " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [
    ("iterations", 0), ("iterations", 1), ("t_end", -1.0), ("t_end", math.nan),
    ("sample_times", []), ("sample_times", [0.1, 2.0]),
])
def test_picard_options_outside_their_domain_exit_2(key, value, tmp_path, capsys):
    # iterations >= 2, 0 < t_end < inf and a nonempty sample_times inside (0, t_end],
    # checked before the run
    cfg = {"experiment": {"kind": "picard", "t_end": 1.0, key: value},
           "grid": {"r_max": 10.0, "nodes": 64}}
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(cfg))
    assert cli.main(["picard", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: experiment.{key}: need " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unknown_kind_rejected():
    cfg = cli.default_config("solve")
    cfg["experiment"]["kind"] = "banana"
    with pytest.raises(cli.ConfigError):
        cli.run_experiment(cfg, out_dir="/tmp/unused")


def test_bad_profile_args_name_the_block():
    cfg = cli.default_config("solve")
    cfg["initial_data"]["args"] = {"amplitude": 1.0, "wobble": 3}
    with pytest.raises(cli.ConfigError) as err:
        cli.run_experiment(cfg, out_dir="/tmp/unused")
    assert "initial_data" in str(err.value)


@pytest.mark.parametrize("path", ["grid.nodes", "solver.t_end", "params.p",
                                  "solver.dt_init", "solver.dt_min", "solver.safety",
                                  "solver.blowup_threshold", "solver.series_stride",
                                  "solver.checkpoints"])
def test_bool_rejected_where_number_required(path, tmp_path):
    cfg = cli.default_config("solve")
    block, key = path.split(".")
    cfg[block][key] = True
    with pytest.raises(cli.ConfigError) as err:
        cli.run_experiment(cfg, out_dir=tmp_path)
    assert path in str(err.value)


@pytest.mark.parametrize("kind, path, value", [
    ("solve", "solver.checkpoints", [True, 2.0]),
    ("picard", "experiment.sample_times", [True]),
    ("energy", "experiment.T_values", ["0.8"]),
    ("dependence", "experiment.sizes", [1e-2, False]),
    ("threshold", "experiment.deltas", [0.1, "0.01"]),
])
def test_list_elements_must_be_numbers(kind, path, value, tmp_path):
    cfg = cli.default_config(kind)
    cfg["grid"] = {"r_max": 10.0, "nodes": 64}
    cfg["solver"]["t_end"] = 0.5
    block, key = path.split(".")
    cfg[block][key] = value
    with pytest.raises(cli.ConfigError) as err:
        cli.run_experiment(cfg, out_dir=tmp_path)
    assert path in str(err.value)


def small_solve_config(tmp_path, profile="zero", args=None):
    cfg = cli.default_config("solve")
    cfg["grid"] = {"r_max": 10.0, "nodes": 64}
    cfg["solver"]["t_end"] = 0.5
    cfg["solver"]["checkpoints"] = 4
    cfg["initial_data"] = {"profile": profile, "args": args or {},
                           "boundary": "dirichlet_at_Rmax"}
    cfg["output_dir"] = str(tmp_path / "out")
    return cfg


def test_solve_zero_data_bundle(tmp_path):
    bundle = cli.run_experiment(small_solve_config(tmp_path))
    assert bundle.all_passed
    out = bundle.out_dir
    assert (out / "series.csv").exists()
    assert (out / "manifest.json").exists()
    header = (out / "series.csv").read_text().splitlines()[0]
    assert header == "t,sup_norm,weighted_sup,dt"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["kind"] == "solve"
    assert all(c["passed"] for c in manifest["checks"])
    names = [c["name"] for c in manifest["checks"]]
    assert len(names) == len(set(names))     # each invariant appears exactly once


def test_checkpoint_files_written(tmp_path):
    cfg = small_solve_config(tmp_path, "gaussian", {"amplitude": 0.05, "width": 2.0})
    bundle = cli.run_experiment(cfg)
    cps = sorted(p.name for p in bundle.out_dir.glob("checkpoint_*.csv"))
    assert cps and cps[0] == "checkpoint_000.csv"
    assert (bundle.out_dir / "checkpoint_000.csv").read_text().splitlines()[0] == "r,u"


def test_reproducibility_bit_identical(tmp_path):
    cfg = small_solve_config(tmp_path, "gaussian", {"amplitude": 0.05, "width": 2.0})
    b1 = cli.run_experiment(cfg, out_dir=tmp_path / "a")
    b2 = cli.run_experiment(cfg, out_dir=tmp_path / "b")
    for name in b1.manifest["artifacts"]:
        if name == "manifest.json":
            continue
        assert read(tmp_path / "a" / name) == read(tmp_path / "b" / name), name
    m1 = json.loads((tmp_path / "a" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "b" / "manifest.json").read_text())
    m1.pop("wall_time_s"), m2.pop("wall_time_s")
    assert m1 == m2


def test_plot_data_emitted(tmp_path):
    cfg = small_solve_config(tmp_path, "gaussian", {"amplitude": 0.05, "width": 2.0})
    bundle = cli.run_experiment(cfg)
    plot = bundle.out_dir / "plot_decay.csv"
    assert plot.exists()
    lines = plot.read_text().splitlines()
    assert lines[0] == "series,x,y"
    ys = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(ys, ys[1:]))  # decay curve


def test_empty_plot_series_header_only(tmp_path):
    bundle = cli.ArtifactBundle(kind="solve", out_dir=tmp_path)
    bundle.tables["plot_empty"] = ("series,x,y", [])
    assert bundle.write_data() == ["plot_empty.csv"]
    assert (tmp_path / "plot_empty.csv").read_text() == "series,x,y\n"


def test_morrey_kind_end_to_end(tmp_path):
    cfg = cli.default_config("morrey")
    cfg["grid"] = {"r_max": 8.0, "nodes": 200}
    cfg["initial_data"] = {"profile": "indicator", "args": {"radius": 1.0},
                           "boundary": "even_at_origin_only"}
    bundle = cli.run_experiment(cfg, out_dir=tmp_path / "m")
    assert bundle.all_passed
    cells = (tmp_path / "m" / "cells_level0.csv").read_text().splitlines()
    assert cells[0] == "a,R,value"


_WORK_KEYS = ("evolution.steps", "evolution.cap.diffusive", "evolution.cap.nonlinear",
              "evolution.cap.landing", "evolution.min_dt")


@pytest.fixture
def fresh_tables(monkeypatch):
    """An empty Morrey table cache, so a run's table builds do not depend on earlier tests."""
    monkeypatch.setattr(morrey, "_TABLE_CACHE", OrderedDict())


def _table_counters(grid) -> dict:
    """The table counters of one build for the default lattice: per radius above
    SMALL_BALL_FACTOR h, per center the count of leading whole-sphere weights (one node
    index each), and per entry of a center's partial band its weight (8 bytes), node
    index and center index; a small-ball plan for each of the other radii."""
    lattice = MorreyLattice.default(grid)
    small = lattice.radii <= SMALL_BALL_FACTOR * grid.h
    index_bytes = 1 if grid.m + 1 < 2**8 else 2
    owner_bytes = 1 if lattice.centers.size < 2**8 else 2
    base = sphere_area(grid.n) * volume_weights(grid)
    table = 0
    for ri in np.flatnonzero(~small):
        table += lattice.centers.size * index_bytes
        for row in _dense_cell_weights(grid, lattice, ri):
            partial, nonzero = np.flatnonzero(row != base), np.flatnonzero(row)
            band = nonzero[-1] + 1 - partial[0] if partial.size and nonzero.size else 0
            table += max(band, 0) * (8 + index_bytes + owner_bytes)
    plans = sum(x.nbytes for r in lattice.radii[small]
                for x in small_ball_plan(grid, lattice.centers, float(r)))
    return {"morrey.table_builds": 1, "morrey.table_mb": (table + plans) / 2**20}


def test_solve_and_dependence_record_rk4_work(tmp_path, fresh_tables):
    # solve: one series row per step after the initial one, at series_stride 1
    cli.run_experiment(small_solve_config(tmp_path, "gaussian", {"amplitude": 0.1, "width": 2.0}),
                       out_dir=tmp_path / "s")
    profile = json.loads((tmp_path / "s" / "manifest.json").read_text())["profile"]
    rows = (tmp_path / "s" / "series.csv").read_text().splitlines()
    assert set(profile) == set(_WORK_KEYS)
    assert profile["evolution.steps"] == len(rows) - 2
    assert profile["evolution.steps"] == sum(profile[key] for key in _WORK_KEYS[1:4])
    # dependence: the solve of u0 and one per perturbed datum, each to T0 at the diffusive
    # and landing caps alone, so three solves of equal length
    cfg = cli.default_config("dependence")
    cfg["grid"] = {"r_max": 20.0, "nodes": 100}
    cfg["experiment"].update(T0=1.0, sizes=[1e-2, 1e-3])
    cli.run_experiment(cfg, out_dir=tmp_path / "d")
    profile = json.loads((tmp_path / "d" / "manifest.json").read_text())["profile"]
    assert set(profile) == set(_WORK_KEYS) | {"morrey.evaluations", "morrey.table_builds",
                                              "morrey.table_mb"}
    table = _table_counters(cli._build_inputs(cli._merged(cfg))[1])
    assert {key: profile[key] for key in table} == table
    # per size, its initial distance and the difference at each of the 16 checkpoints
    assert profile["morrey.evaluations"] == 2 * (1 + 16)
    assert profile["evolution.cap.nonlinear"] == 0 and profile["evolution.steps"] % 3 == 0
    assert profile["evolution.steps"] >= 3 / evolution.diffusive_cap(2.4, 0.2, 5)


def test_picard_kind_end_to_end(tmp_path, fresh_tables):
    cfg = cli.default_config("picard")
    cfg["grid"] = {"r_max": 16.0, "nodes": 160}
    cfg["initial_data"] = {"profile": "gaussian", "args": {"amplitude": 0.1, "width": 2.0},
                           "boundary": "even_at_origin_only"}
    cfg["experiment"]["sample_times"] = [0.25, 0.5]
    cfg["experiment"]["t_end"] = 0.5
    bundle = cli.run_experiment(cfg, out_dir=tmp_path / "p")
    assert bundle.all_passed
    budget = (tmp_path / "p" / "budget.csv").read_text().splitlines()
    assert budget[0] == "t,budget_r,budget_inf,cauchy_diff"
    # one banded kernel per distinct resolved width, at each node count run; the
    # widths the previous node count already had are carried over, not rebuilt.
    # Each sweep of a node count, its linear one included, applies the RK4
    # substeps of every interval narrower than the floor once.
    nodes_used = json.loads((tmp_path / "p" / "picard.json").read_text())["nodes_used"]
    params, grid, u0 = cli._build_inputs(cli._merged(cfg))
    floor = 2.0 * grid.h ** 2
    cap = evolution.diffusive_cap(0.8, grid.h, 5)
    per_count = builds = band_bytes = substeps = 0
    previous = set()
    nodes = 64
    while nodes <= nodes_used:
        widths = np.diff(duhamel._graded_times(0.5, nodes, extra=[0.25, 0.5], dt_floor=floor))
        distinct = {float(dt) for dt in widths if dt >= floor}
        per_count += len(distinct)
        builds += len(distinct - previous)
        band_bytes += sum(_diagonal_bytes(grid, dt) for dt in distinct - previous)
        sweeps = 1 + duhamel._run_picard(u0, params, 0.5, 8, np.array([0.25, 0.5]), nodes,
                                         1e-8)[7]
        substeps += sweeps * sum(max(1, math.ceil(dt / cap)) for dt in widths if dt < floor)
        previous = distinct
        nodes *= 2
    manifest = json.loads((tmp_path / "p" / "manifest.json").read_text())
    profile = manifest["profile"]
    work = {key: profile.pop(key) for key in _WORK_KEYS}
    assert profile == {"duhamel.picard.kernel_builds": builds,
                       "quadrature.kernel_builds": builds,   # the kind builds no other kernel
                       "duhamel.picard.kernel_reuses": per_count - builds,
                       "duhamel.picard.kernel_mb": band_bytes / 2**20,
                       "duhamel.picard.substeps": substeps,
                       "morrey.evaluations": 2,   # the budget's norm at each sample time
                       **_table_counters(grid)}
    assert substeps > 0 and 0 < band_bytes < builds * (grid.m + 1) ** 2 * 8
    # the classical comparison's one solve, to t_end at the default safety
    h = make_grid(5, 16.0, 160).h
    assert work["evolution.steps"] == sum(work[key] for key in _WORK_KEYS[1:4]) > 0
    assert work["evolution.steps"] >= 0.5 / evolution.diffusive_cap(2.4, h, 5)
    assert 0 < builds < per_count
    assert "kernel_builds" not in json.loads((tmp_path / "p" / "picard.json").read_text())


def test_energy_kind_header(tmp_path):
    cfg = cli.default_config("energy")
    cfg["grid"] = {"r_max": 20.0, "nodes": 200}
    cfg["solver"]["t_end"] = 2.0
    cfg["initial_data"]["args"] = {"amplitude": 0.1, "width": 2.0}
    cfg["experiment"]["T_values"] = [2.0]
    bundle = cli.run_experiment(cfg, out_dir=tmp_path / "e")
    assert bundle.all_passed
    head = (tmp_path / "e" / "energy_T2.csv").read_text().splitlines()[0]
    assert head == "s,E,m,residual_4_16"


def test_main_exit_codes(tmp_path):
    rc = cli.main(["solve", "--out", str(tmp_path / "cli"), "--nodes", "64",
                   "--rmax", "10", "--tend", "0.5"])
    assert rc == 0
    # a config file merged over the per-kind defaults still runs
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"params": {"n": 5}, "experiment": {"kind": "solve"}}))
    assert cli.main(["solve", "--config", str(partial), "--out", str(tmp_path / "x"),
                     "--nodes", "64", "--rmax", "10", "--tend", "0.5"]) == 0
    # a bad parameter value is a config error (exit 2), named by block
    assert cli.main(["solve", "--out", str(tmp_path / "y"), "--nodes", "64",
                     "--rmax", "10", "--tend", "0.5", "--p", "0.5"]) == 2
    manifest = json.loads((tmp_path / "cli" / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert set(manifest["versions"]) == {"python", "numpy", "morreyheat"}


def test_failed_pipeline_writes_manifest(tmp_path):
    # data this large blows up long before the energy window, which the pipeline needs
    cfg = {"experiment": {"kind": "energy", "T_values": [2.0]},
           "grid": {"r_max": 10.0, "nodes": 64}, "solver": {"t_end": 2.0},
           "initial_data": {"profile": "gaussian", "args": {"amplitude": 20.0, "width": 2.0}}}
    path = tmp_path / "energy.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "failed"
    assert cli.main(["energy", "--config", str(path), "--out", str(out)]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["kind"] == "energy"
    merged = cli.default_config("energy")
    for block in ("params", "grid", "solver", "experiment", "initial_data"):
        merged[block].update(cfg.get(block, {}))
    assert manifest["config_hash"] == cli.config_hash(merged)
    assert manifest["error"][0].startswith("PipelineError: energy pipeline failed:")
    assert "did not reach the horizon" in manifest["error"][-1]
    assert set(manifest["versions"]) == {"python", "numpy", "morreyheat"}
    assert "checks" not in manifest


def test_failed_manifest_keeps_the_counters(tmp_path, monkeypatch):
    # a pipeline that fails late still records the work it reported before failing
    def fails(cfg, bundle):
        counters.add("threshold.trials", 15)
        counters.least("evolution.min_dt", 0.25)
        raise RuntimeError("failed after the trials")

    monkeypatch.setitem(cli._PIPELINES, "threshold", fails)
    with pytest.raises(cli.PipelineError, match="failed after the trials"):
        cli.run_experiment({"experiment": {"kind": "threshold"}}, out_dir=tmp_path / "t")
    manifest = json.loads((tmp_path / "t" / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["profile"] == {"threshold.trials": 15, "evolution.min_dt": 0.25}
    assert counters._active is None


def test_threshold_json_schema(tmp_path, threshold_run):
    # serialize an already-computed result through the pipeline writer path
    from morreyheat.io import write_json
    res = threshold_run["result"]
    doc = {"lambda_lo": res.lambda_lo, "lambda_hi": res.lambda_hi,
           "rel_width": res.rel_width, "trials": res.trials,
           "morrey_series_lo": [[t, v] for t, v in res.morrey_series_lo],
           "morrey_series_hi": [[t, v] for t, v in res.morrey_series_hi]}
    write_json(tmp_path / "threshold.json", doc)
    loaded = json.loads((tmp_path / "threshold.json").read_text())
    assert set(loaded) >= {"lambda_lo", "lambda_hi", "rel_width", "trials",
                           "morrey_series_lo", "morrey_series_hi"}
    assert loaded["lambda_lo"] < loaded["lambda_hi"]
    for trial in loaded["trials"]:
        assert {"lambda", "verdict", "T_est", "horizon"} <= set(trial)


def test_smoothing_kind_end_to_end(tmp_path):
    cfg = cli.default_config("smoothing")
    cfg["grid"] = {"r_max": 12.0, "nodes": 240}
    cfg["initial_data"] = {"profile": "gaussian", "args": {"amplitude": 1.0, "width": 2.0},
                           "boundary": "even_at_origin_only"}
    cfg["experiment"].update({"t_lo": 0.1, "t_hi": 10.0, "t_count": 5})
    bundle = cli.run_experiment(cfg, out_dir=tmp_path / "s")
    assert bundle.all_passed
    head = (tmp_path / "s" / "smoothing.csv").read_text().splitlines()[0]
    assert head == "t,norm_to,ratio,norm_from_after,contraction_ok"


def test_dependence_kind_end_to_end(tmp_path):
    cfg = cli.default_config("dependence")
    cfg["grid"] = {"r_max": 20.0, "nodes": 160}
    cfg["experiment"].update({"T0": 2.0, "sizes": [1e-2, 1e-3]})
    cfg["initial_data"]["args"] = {"amplitude": 0.2, "width": 2.0}
    bundle = cli.run_experiment(cfg, out_dir=tmp_path / "d")
    assert bundle.all_passed
    head = (tmp_path / "d" / "dependence.csv").read_text().splitlines()[0]
    assert head == "size,t,ratio"


def test_threshold_kind_end_to_end(tmp_path):
    cfg = cli.default_config("threshold")
    cfg["grid"] = {"r_max": 40.0, "nodes": 100}
    cfg["solver"]["t_end"] = 40.0
    cfg["solver"]["checkpoints"] = 8
    cfg["experiment"].update({"rel_tol": 0.05, "deltas": [0.1]})
    bundle = cli.run_experiment(cfg, out_dir=tmp_path / "t")
    assert bundle.all_passed
    doc = json.loads((tmp_path / "t" / "threshold.json").read_text())
    assert doc["lambda_lo"] < doc["lambda_hi"]
    # epsilon_star is the critical Morrey norm of the lower end's datum and
    # C0_measured the sup of t^beta ||u(t)||_inf over its run, divided by it
    params, grid, phi = cli._build_inputs(cfg)
    u0 = make_field(grid, doc["lambda_lo"] * phi.values, phi.boundary)
    eps = morrey_norm(u0, critical_spec(params), MorreyLattice.default(grid))
    assert doc["epsilon_star"] == eps > 0
    run = evolution.solve(u0, params, cli._solver_config(cfg, params.n))
    assert doc["C0_measured"] == evolution.decay_diagnostics(run, params).sup_t_beta_norm / eps
    assert doc["C0_measured"] > 0
    assert (tmp_path / "t" / "morrey_series_lo.csv").read_text().splitlines()[0] == "t,value"


def small_threshold_config(safety=None):
    cfg = cli.default_config("threshold")
    cfg["grid"] = {"r_max": 40.0, "nodes": 100}
    cfg["solver"]["t_end"] = 20.0
    if safety is not None:
        cfg["solver"]["safety"] = safety
    cfg["experiment"].update({"rel_tol": 0.005, "deltas": [0.1, -0.1]})
    return cfg


def test_threshold_manifest_counts_solver_work(tmp_path, fresh_tables):
    cfg = small_threshold_config()
    cli.run_experiment(cfg, out_dir=tmp_path / "t")
    doc = json.loads((tmp_path / "t" / "threshold.json").read_text())
    manifest = json.loads((tmp_path / "t" / "manifest.json").read_text())
    profile = manifest["profile"]
    # the stage wall times: present, nonnegative and inside the run's wall time
    stage_s = [profile.pop("threshold.bisect_s"), profile.pop("threshold.probes_s")]
    assert min(stage_s) >= 0.0 and sum(stage_s) <= manifest["wall_time_s"]
    params, grid, phi = cli._build_inputs(cfg)
    lams = [t["lambda"] for t in doc["trials"]] + [p["lambda"] for p in doc["probes"]]
    dts = []
    with counters.collect() as work:
        for lam in lams:
            run = evolution.solve(make_field(grid, lam * phi.values, phi.boundary), params,
                                  cli._solver_config(cfg, params.n))
            assert run.steps == len(run.series) - 1   # series_stride 1: one row per step
            dts.extend(run.series[1:, 3])
    caps = [work[f"evolution.cap.{cap}"] for cap in ("diffusive", "nonlinear", "landing")]
    assert min(caps) > 0 and work["evolution.steps"] == sum(caps)
    assert work["evolution.min_dt"] == min(dts)
    assert profile == {**work,
                       "threshold.solves": len(lams),
                       "threshold.trials": len(doc["trials"]),
                       # epsilon_star, both bracket series, and two per decaying probe
                       "morrey.evaluations": 1 + len(doc["morrey_series_lo"])
                       + len(doc["morrey_series_hi"])
                       + sum(2 for p in doc["probes"] if p["morrey_start"] is not None),
                       **_table_counters(grid)}
    assert len(doc["probes"]) == 2


def test_threshold_verdicts_same_at_default_and_diffusive_safety(tmp_path):
    # the threshold default's larger RK4 step changes no trial, bracket or probe
    docs, steps = [], []
    for name, safety in (("default", None), ("safety08", 0.8)):
        cli.run_experiment(small_threshold_config(safety), out_dir=tmp_path / name)
        docs.append(json.loads((tmp_path / name / "threshold.json").read_text()))
        steps.append(json.loads((tmp_path / name / "manifest.json").read_text())
                     ["profile"]["evolution.steps"])
    default, reference = docs
    assert [(t["lambda"], t["verdict"]) for t in default["trials"]] == \
        [(t["lambda"], t["verdict"]) for t in reference["trials"]]
    assert (default["lambda_lo"], default["lambda_hi"]) == \
        (reference["lambda_lo"], reference["lambda_hi"])
    assert [p["verdict"] for p in default["probes"]] == \
        [p["verdict"] for p in reference["probes"]]
    assert steps[0] < 0.5 * steps[1]


def test_default_safety_per_kind():
    # every kind but solve takes RK4's stability headroom; solve's decay readings come off
    # the sampled series, whose rows the step count sets, so its default stays 0.8
    safety = {kind: cli.default_config(kind)["solver"]["safety"] for kind in cli.EXPERIMENT_KINDS}
    assert safety == {kind: 0.8 if kind == "solve" else 2.4 for kind in cli.EXPERIMENT_KINDS}
    assert max(safety.values()) <= min(evolution.max_safety(n) for n in range(3, 12))


def test_energy_solve_ends_at_last_window(tmp_path):
    # the windows of T = 2, 5, 10 end at t = 9.9, so the solve stops there at either horizon
    steps = []
    for t_end in (12.0, 20.0):
        cfg = cli.default_config("energy")
        cfg["grid"] = {"r_max": 20.0, "nodes": 100}
        cfg["solver"]["t_end"] = t_end
        cli.run_experiment(cfg, out_dir=tmp_path / f"t{t_end:g}")
        manifest = json.loads((tmp_path / f"t{t_end:g}" / "manifest.json").read_text())
        steps.append(manifest["profile"]["evolution.steps"])
    assert steps[0] == steps[1] > 0
    names = sorted(path.name for path in (tmp_path / "t12").glob("energy_T*.csv"))
    assert names == ["energy_T10.csv", "energy_T2.csv", "energy_T5.csv"]
    for name in names:
        assert read(tmp_path / "t12" / name) == read(tmp_path / "t20" / name), name


# one small config per kind: grid, solver and initial-data blocks, and experiment options
_SMALL_RUNS = {
    "solve": ({"r_max": 10.0, "nodes": 64}, {"t_end": 0.5, "checkpoints": 4}, None, {}),
    "energy": ({"r_max": 20.0, "nodes": 200}, {"t_end": 2.0},
               {"amplitude": 0.1, "width": 2.0}, {"T_values": [2.0]}),
    "morrey": ({"r_max": 8.0, "nodes": 100}, {}, None, {}),
    "smoothing": ({"r_max": 12.0, "nodes": 120}, {}, None,
                  {"t_lo": 0.1, "t_hi": 10.0, "t_count": 3}),
    "picard": ({"r_max": 16.0, "nodes": 80}, {}, None,
               {"t_end": 0.5, "sample_times": [0.25, 0.5], "compare_classical": False}),
    "threshold": ({"r_max": 40.0, "nodes": 100}, {"t_end": 10.0}, None,
                  {"rel_tol": 0.005, "deltas": [0.1]}),
    "dependence": ({"r_max": 20.0, "nodes": 100}, {}, {"amplitude": 0.2, "width": 2.0},
                   {"T0": 2.0, "sizes": [1e-2]}),
    "hypotheses": ({"r_max": 20.0, "nodes": 100}, {}, None, {}),
}


def _small_configs() -> dict:
    """kind -> the full config of its _SMALL_RUNS entry."""
    runs = {}
    for kind, (grid, solver, args, experiment) in _SMALL_RUNS.items():
        cfg = cli.default_config(kind)
        cfg["grid"] = grid
        cfg["solver"].update(solver)
        if args is not None:
            cfg["initial_data"]["args"] = args
        cfg["experiment"].update(experiment)
        runs[kind] = cfg
    assert sorted(runs) == sorted(cli.EXPERIMENT_KINDS)
    return runs


def _run_python(script: str) -> str:
    """Run a script in a fresh interpreter that imports this morreyheat; return its stdout."""
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_no_kind_loads_scipy(tmp_path):
    # numpy is the only runtime dependency: importing the CLI and running every kind leave scipy
    # unloaded (scipy is the test suite's oracle only)
    runs = _small_configs()
    _run_python(f"""
import json, sys
from morreyheat import cli
assert "scipy" not in sys.modules, "imported by morreyheat.cli"
for kind, cfg in json.loads({json.dumps(runs)!r}).items():
    cli.run_experiment(cfg, out_dir={str(tmp_path)!r} + "/" + kind)
    assert "scipy" not in sys.modules, "imported by the " + kind + " run"
""")
    for kind in runs:
        manifest = json.loads((tmp_path / kind / "manifest.json").read_text())
        assert manifest["status"] == "ok", kind
        assert set(manifest["versions"]) == {"python", "numpy", "morreyheat"}


TRACE_CHILD = Path(__file__).resolve().parent.parent / "bench" / "trace_child.py"


def test_manifest_counters_equal_traced_counts(tmp_path):
    # every kind's manifest counts the work the benchmark's tracer sees, from the run itself:
    # RK4 steps, Morrey evaluations, heat-kernel builds and the Picard ones among them, and no
    # count of work not done
    script = f"""
import importlib.util, json, sys
sys.dont_write_bytecode = True   # leave bench/ untouched
spec = importlib.util.spec_from_file_location("trace_child", {str(TRACE_CHILD)!r})
trace_child = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trace_child)
from morreyheat import cli
tracer = trace_child.Tracer()
trace_child.install(tracer)
traced = {{}}
for kind, cfg in json.loads({json.dumps(_small_configs())!r}).items():
    counts, spans = dict(tracer.counters), len(tracer.spans)
    cli.run_experiment(cfg, out_dir={str(tmp_path)!r} + "/" + kind)
    traced[kind] = {{
        "steps": tracer.counters["steps"] - counts.get("steps", 0),
        "morrey_evaluate": sum(s[2] == "morrey_evaluate" for s in tracer.spans[spans:]),
        "heat_kernel_matrix": sum(s[2] == "heat_kernel_matrix" for s in tracer.spans[spans:]),
        "heat_apply": sum(s[2] == "heat_apply" for s in tracer.spans[spans:])}}
print(json.dumps(traced))
"""
    traced = json.loads(_run_python(script).splitlines()[-1])
    assert sorted(traced) == sorted(cli.EXPERIMENT_KINDS)
    builds = {}
    for kind, want in traced.items():
        profile = json.loads((tmp_path / kind / "manifest.json").read_text())["profile"]
        for key, traced_key in (("evolution.steps", "steps"),
                                ("morrey.evaluations", "morrey_evaluate")):
            assert profile.get(key) == (want[traced_key] or None), (kind, key)
        # every pass of the block evaluator: a dense matrix, a streamed apply or a Picard band
        builds[kind] = (want["heat_kernel_matrix"], want["heat_apply"],
                        profile.get("duhamel.picard.kernel_builds", 0))
        assert profile.get("quadrature.kernel_builds", 0) == sum(builds[kind]), kind
    assert all(traced[kind]["steps"] for kind in ("solve", "energy", "threshold", "dependence"))
    assert all(traced[kind]["morrey_evaluate"] for kind in ("morrey", "smoothing", "picard"))
    # smoothing streams its kernels, picard bands them, hypotheses builds dense rows
    assert builds["smoothing"][1] > 0 and builds["picard"][2] > 0 and builds["hypotheses"][0] > 0


def test_counters_do_not_leak_between_runs(tmp_path, fresh_tables):
    # a second identical run starts from empty counters (and, like the first, from an
    # empty Morrey table cache, whose hits would skip its table build)
    cfg = _small_configs()["threshold"]
    profiles = []
    for name in ("a", "b"):
        morrey._TABLE_CACHE.clear()
        bundle = cli.run_experiment(cfg, out_dir=tmp_path / name)
        profiles.append({key: value for key, value in bundle.manifest["profile"].items()
                         if not key.endswith("_s")})
    assert profiles[0] == profiles[1] and profiles[0]["threshold.trials"] > 0
    # a failed pipeline leaves no collector behind
    cfg = json.loads(json.dumps(cfg))
    cfg["initial_data"].update(profile="zero", args={})
    with pytest.raises(cli.PipelineError, match="ray profile is trivial"):
        cli.run_experiment(cfg, out_dir=tmp_path / "zero")
    assert counters._active is None
    # a library solve outside a run records nothing, in the last run's profile or anywhere
    profile = bundle.manifest["profile"]
    before = dict(profile)
    params, grid, u0 = cli._build_inputs(cfg)
    evolution.solve(make_field(grid, 0.1 * np.exp(-grid.nodes**2), u0.boundary), params,
                    evolution.SolverConfig(t_end=0.5))
    assert profile == before and counters._active is None


def test_hypotheses_kind_end_to_end(tmp_path):
    cfg = cli.default_config("hypotheses")
    cfg["grid"] = {"r_max": 20.0, "nodes": 400}
    bundle = cli.run_experiment(cfg, out_dir=tmp_path / "h")
    doc = json.loads((tmp_path / "h" / "hypotheses.json").read_text())
    assert set(doc) == {"gradient_integrability", "gradient_decay", "kernel_limit",
                        "energy_integrability", "pointwise_decay"}
    assert bundle.all_passed   # report-only kind: no failing checks
