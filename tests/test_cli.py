import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from morreyheat import cli, counters, duhamel, evolution, threshold
from morreyheat.fields import make_field, make_grid
from morreyheat.morrey import MorreyLattice, critical_spec, morrey_norm
from morreyheat.quadrature import SMALL_BALL_FACTOR, small_ball_plan, sphere_area, volume_weights
from conftest import pop_wall_times
from test_quadrature import _dense_ball_weights, _diagonal_bytes
from test_threshold import stalling_classify


def read(path):
    return Path(path).read_bytes()


def test_default_configs_validate():
    for kind in cli.EXPERIMENT_KINDS:
        cfg = cli.default_config(kind)
        assert cfg["experiment"]["kind"] == kind


def test_partial_config_same_through_library_and_cli(tmp_path):
    cfg = cli.default_config("picard")
    cfg["grid"] = {"r_max": 16.0, "nodes": 160}
    cfg["solver"]["t_end"] = 0.5
    cfg["experiment"]["sample_times"] = [0.25, 0.5]
    path = tmp_path / "picard.json"
    path.write_text(json.dumps(cfg))
    lib = cli.run_experiment(cfg, out_dir=tmp_path / "lib")
    assert cli.main(["picard", "--config", str(path), "--out", str(tmp_path / "cli")]) == 0
    manifests = []
    for out in ("lib", "cli"):
        manifest = json.loads((tmp_path / out / "manifest.json").read_text())
        assert _pop_wall_times(manifest) == {"evolution.solve_s", "morrey.evaluate_s",
                                             "duhamel.picard_s", "io.write_s"}
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


_CHECKPOINT_DOMAIN = "solver: checkpoint times must increase strictly within (0, t_end]"


@pytest.mark.parametrize("kind, path, value, message", [
    # a removed option at a value that would read this decaying run as "blowup at t = 0"
    ("solve", "solver.dt_min", 0.05, "solver.dt_min: unknown key"),
    # 0 < t_end < inf, and checkpoint times strictly increasing within (0, t_end]
    ("solve", "solver.t_end", 0.0, "solver.t_end: need 0 < t_end < inf"),
    ("solve", "solver.t_end", -1.0, "solver.t_end: need 0 < t_end < inf"),
    ("solve", "solver.t_end", math.nan, "solver.t_end: need 0 < t_end < inf"),
    ("solve", "solver.t_end", 1e400, "solver.t_end: need 0 < t_end < inf"),
    ("threshold", "solver.t_end", 0.0, "solver.t_end: need 0 < t_end < inf"),
    ("energy", "solver.t_end", 0.0, "solver.t_end: need 0 < t_end < inf"),
    ("energy", "solver.t_end", math.nan, "solver.t_end: need 0 < t_end < inf"),
    ("solve", "solver.checkpoints", [0.0, 0.25], _CHECKPOINT_DOMAIN),
    ("solve", "solver.checkpoints", [0.25, 5.0], _CHECKPOINT_DOMAIN),
    ("solve", "solver.checkpoints", [math.nan], _CHECKPOINT_DOMAIN),
    ("solve", "solver.checkpoints", [0.3, 0.2], _CHECKPOINT_DOMAIN),
    ("dependence", "solver.t_end", 0.0, "solver.t_end: need 0 < t_end < inf"),
    ("dependence", "solver.t_end", -1.0, "solver.t_end: need 0 < t_end < inf"),
    ("dependence", "solver.t_end", math.inf, "solver.t_end: need 0 < t_end < inf"),
    ("solve", "solver.checkpoints", 0, "solver.checkpoints: need at least 1"),
    ("solve", "solver.checkpoints", -2, "solver.checkpoints: need at least 1"),
    ("solve", "solver.safety", 0.0, "solver.safety: 0.0 puts the step cap"),
    ("solve", "solver.safety", -1.0, "solver.safety: -1.0 puts the step cap"),
    ("solve", "solver.safety", evolution.max_safety(5) * 1.01,
     "solver.safety: %r exceeds RK4's stability bound" % (evolution.max_safety(5) * 1.01)),
    ("dependence", "solver.safety", evolution.max_safety(5) * 1.01,
     "solver.safety: %r exceeds RK4's stability bound" % (evolution.max_safety(5) * 1.01)),
    ("smoothing", "experiment.to_q", True, "experiment.to_q: expected"),
    ("smoothing", "experiment.to_q", "banana", 'experiment.to_q: expected a number or "inf"'),
    # options that had no stated domain, each failing inside the run or under another name
    ("energy", "experiment.ds", 0.0, "experiment.ds: need 0 < ds < inf"),
    ("energy", "experiment.ds", -0.01, "experiment.ds: need 0 < ds < inf"),
    ("energy", "experiment.T_values", [], "experiment.T_values: need a nonempty list in (0, inf)"),
    ("energy", "experiment.t_margin", -1.0, "experiment.t_margin: need 0 < t_margin < inf"),
    ("energy", "experiment.t_lo_fraction", 0.0,
     "experiment.t_lo_fraction: need 0 < t_lo_fraction < 1"),
    ("smoothing", "experiment.from_q", 0.5, "experiment.from_q: need 1 <= from_q <= to_q"),
    ("smoothing", "experiment.to_q", 1.5, "experiment.from_q: need 1 <= from_q <= to_q"),
    ("smoothing", "experiment.lam", 6.0, "experiment.lam: need 0 <= lam <= n, got 6.0"),
    ("dependence", "experiment.q", 0.5, "experiment.q: need 1 <= q < inf"),
    ("dependence", "experiment.sizes", [], "experiment.sizes: need a nonempty list"),
    ("threshold", "experiment.lambda_init", -1.0,
     "experiment.lambda_init: need 0 < lambda_init < inf"),
    ("threshold", "experiment.rel_tol", 0.0, "experiment.rel_tol: need 0 < rel_tol < inf"),
    ("solve", "grid.r_max", math.inf, "grid.r_max: need 0 < r_max < inf"),
    # values that ran, to a late failure under another name
    ("picard", "experiment.sample_times", [0.5, 0.5, 1.0],
     "experiment.sample_times: need a nonempty list of distinct times in (0, t_end]"),
    # options that are now constants of the method: unknown keys, whatever the value
    ("solve", "solver.dt_min", -1.0, "solver.dt_min: unknown key"),
    ("solve", "solver.blowup_threshold", 1e400, "solver.blowup_threshold: unknown key"),
    ("dependence", "experiment.stability_tol", -1.0, "experiment.stability_tol: unknown key"),
    ("threshold", "experiment.deltas", [0.1, 1.0],
     "experiment.deltas: need a list of finite numbers below 1"),
    ("threshold", "experiment.deltas", [math.nan],
     "experiment.deltas: need a list of finite numbers below 1"),
    # values that reach a check inside the run: a profile ValueError, an empty energy window
    ("solve", "initial_data.args", {"amplitude": 1.0, "width": 0.0},
     "initial_data.profile: width must be > 0, got 0.0"),
    ("energy", "experiment.T_values", [0.05], "experiment.T_values: window empty for T=0.05"),
    # a removed option at a value that would ask for 5e12 steps, and a safety whose diffusive
    # cap, 2.4e-15 at h = 10/64, is below DT_MIN, where the first step would declare blowup
    ("solve", "solver.dt_init", 1e-13, "solver.dt_init: unknown key"),
    ("solve", "solver.safety", 1e-12, "solver.safety: 1e-12 puts the step cap"),
])
def test_bad_config_value_exits_2(kind, path, value, message, tmp_path, capsys):
    block, key = path.split(".")
    cfg = {"experiment": {"kind": kind}, "grid": {"r_max": 10.0, "nodes": 64}}
    if "solver" in cli.default_config(kind):
        cfg["solver"] = {"t_end": 0.5}
    cfg.setdefault(block, {})[key] = value
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(cfg))
    # a value is rejected before it is computed with: no numpy RuntimeWarning precedes the error
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main([kind, "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


def test_energy_window_short_of_3_points_exits_2(tmp_path, capsys, monkeypatch):
    # ds 5.0 leaves one s-point in the T = 2 window (s from 0 to log 10): rejected before the solve
    monkeypatch.setattr(evolution, "solve", None)
    cfg = {"experiment": {"kind": "energy", "ds": 5.0}, "grid": {"r_max": 10.0, "nodes": 64}}
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(cfg))
    assert cli.main(["energy", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert ("config error: experiment.ds: 5.0 leaves fewer than 3 s-points in the window "
            "for T=2.0") in capsys.readouterr().err


def test_config_kind_other_than_the_subcommand_exits_2(tmp_path, capsys):
    config = tmp_path / "morrey.json"
    config.write_text(json.dumps({"experiment": {"kind": "morrey"}}))
    assert cli.main(["smoothing", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert ("config error: experiment.kind: config kind 'morrey' != subcommand 'smoothing'"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [
    ("t_lo", 0.0), ("t_lo", -1.0), ("t_lo", math.nan), ("t_lo", math.inf),
    ("t_lo", 1e-300), ("t_lo", 1e-124), ("t_lo", 1e-3),
    ("t_hi", math.inf), ("t_hi", math.nan), ("t_hi", 0.005),
    ("t_count", 0), ("t_count", -3),
])
def test_smoothing_times_outside_their_domain_exit_2(key, value, tmp_path, capsys):
    # the smoothing times are finite with h^2/4 <= t_lo <= t_hi (h = 10/64 here, so
    # h^2/4 = 0.0061: below it the heat kernel's rows lose their mass), and t_count >= 1
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
    # iterations >= 2, 0 < solver.t_end < inf (the horizon) and a nonempty sample_times inside
    # (0, t_end], checked before the run
    cfg = {"experiment": {"kind": "picard"}, "solver": {"t_end": 1.0},
           "grid": {"r_max": 10.0, "nodes": 64}}
    block = "solver" if key == "t_end" else "experiment"
    cfg[block][key] = value
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(cfg))
    assert cli.main(["picard", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {block}.{key}: need " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_every_domain_row_is_a_stated_option():
    # a row whose path no kind's defaults state would never be checked
    stated = {f"{block}.{key}" for kind in cli.EXPERIMENT_KINDS
              for block, keys in cli.default_config(kind).items() if isinstance(keys, dict)
              for key in keys}
    assert set(cli._DOMAINS) <= stated
    assert set(cli._OWN_TYPES) <= stated


class _ReadLog(dict):
    """A merged config, or one of its blocks, that adds the path of every key read to `read`.
    Only reads by key count: json.dumps, which hashes the config, iterates the items."""

    def __init__(self, values, read, block=None):
        super().__init__(values)
        self.read, self.block = read, block

    def __getitem__(self, key):
        value = super().__getitem__(key)
        if self.block is not None:
            self.read.add(f"{self.block}.{key}")
        elif isinstance(value, dict):
            return _ReadLog(value, self.read, key)
        else:
            self.read.add(key)
        return value

    def get(self, key, default=None):
        return self[key] if key in self else default


def test_every_stated_option_is_read(tmp_path, monkeypatch):
    # the converse of the test above: each kind's run reads every option its defaults state, so
    # no stated value changes nothing
    merge = cli._merged
    for kind, cfg in _small_configs().items():
        cfg["output_dir"] = str(tmp_path / kind)
        read = set()
        monkeypatch.setattr(cli, "_merged", lambda c: _ReadLog(merge(c), read))
        cli.run_experiment(cfg)
        merged = merge(cfg)
        stated = {f"{block}.{key}" for block, keys in merged.items() if isinstance(keys, dict)
                  for key in keys} | {key for key, value in merged.items()
                                      if not isinstance(value, dict)}
        assert read == stated, kind


@pytest.mark.parametrize("kind, path, value", [
    *((kind, f"solver.{key}", value)
      for kind in ("solve", "energy", "picard", "threshold", "dependence")
      for key, value in (("dt_init", 0.1), ("dt_min", 1e-14), ("blowup_threshold", 1e8))),
    ("picard", "experiment.compare_classical", True),
    ("dependence", "experiment.stability_tol", 0.25),
])
def test_removed_option_is_an_unknown_key(kind, path, value, tmp_path, capsys):
    # each value that no caller varied is a constant now, so a config that still gives it, even
    # at its old default, fails and names it rather than have it silently ignored
    cfg = _small_configs()[kind]
    block, key = path.split(".")
    cfg[block][key] = value
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    assert cli.main([kind, "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {path}: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_method_constants_keep_the_old_defaults(tmp_path, monkeypatch):
    # the removed options' defaults, now the method's constants: the step bounds and the blowup
    # threshold of every solve, and dependence's bound on the spread of its max ratios
    assert (evolution.DT_MAX, evolution.DT_MIN, evolution.BLOWUP_THRESHOLD) == (0.1, 1e-14, 1e8)
    for low, passed in ((0.7500001, True), (0.75, False)):
        # max ratios 1 and `low` spread by 1 - low
        monkeypatch.setattr(duhamel, "continuous_dependence", lambda *args: [
            duhamel.DependenceResult(np.array([1.0]), np.array([r]), r, False, False)
            for r in (1.0, low)])
        cfg = _small_configs()["dependence"]
        cfg["experiment"]["sizes"] = [1e-2, 1e-3]
        checks = {c["name"]: c for c in cli.run_experiment(cfg, out_dir=tmp_path).checks}
        assert checks["lipschitz_stability"]["passed"] is passed
        assert checks["lipschitz_stability"]["value"] == pytest.approx(1.0 - low)


def test_safety_floor_is_the_one_solve_applies():
    # the config reads h as r_max/nodes, the grid's h exactly, so the least safety it accepts is
    # the least that solve runs at, and no accepted safety fails inside the run (exit 3)
    grid = make_grid(5, 10.0, 64)
    floor = evolution.DT_MIN / evolution.diffusive_cap(1.0, grid.h, 5)
    while evolution.diffusive_cap(floor, grid.h, 5) < evolution.DT_MIN:
        floor = np.nextafter(floor, np.inf)
    cfg = {"experiment": {"kind": "solve"}, "grid": {"r_max": 10.0, "nodes": 64}}
    assert cli._merged({**cfg, "solver": {"safety": floor}})["solver"]["safety"] == floor
    with pytest.raises(cli.ConfigError, match=r"solver.safety: .* below evolution.DT_MIN = 1e-14"):
        cli._merged({**cfg, "solver": {"safety": np.nextafter(floor, 0.0)}})


def test_an_empty_block_the_kind_lacks_is_left_out():
    # a kind that does not solve states no solver block, and its merged config holds none
    cfg = {"experiment": {"kind": "morrey"}}
    merged = cli._merged(cfg)
    assert "solver" not in merged and cli._merged({**cfg, "solver": {}}) == merged


@pytest.mark.parametrize("kind, path", [
    ("morrey", "solver.t_end"), ("smoothing", "solver.t_end"), ("hypotheses", "solver.t_end"),
    ("energy", "solver.checkpoints"), ("picard", "solver.checkpoints"),
    ("dependence", "solver.checkpoints"),
])
def test_an_option_the_kind_does_not_read_exits_2(kind, path, tmp_path, capsys):
    # --tend is solver.t_end, stated only by the kinds that solve; energy and picard record at
    # their own windows and sample times, and dependence compares at 16 fixed times, so they
    # state no checkpoints
    args = [kind, "--out", str(tmp_path / "o"), "--nodes", "64", "--rmax", "10"]
    if path == "solver.t_end":
        args += ["--tend", "1"]
    else:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"experiment": {"kind": kind}, "solver": {"checkpoints": 3}}))
        args += ["--config", str(config)]
    assert cli.main(args) == 2
    assert f"config error: {path}: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_tend_is_the_picard_and_dependence_horizon(tmp_path, monkeypatch, capsys):
    # --tend sets picard's horizon, up to its last budget time, and dependence's T0, its last
    # compared time
    horizons = []
    picard_solve = duhamel.picard_solve

    def recorded(u0, params, t_end, *rest):
        horizons.append(t_end)
        return picard_solve(u0, params, t_end, *rest)

    monkeypatch.setattr(duhamel, "picard_solve", recorded)
    grid = ["--nodes", "100", "--rmax", "10"]
    config = tmp_path / "picard.json"
    config.write_text(json.dumps({"experiment": {"kind": "picard", "sample_times": [0.25, 0.5]}}))
    assert cli.main(["picard", "--config", str(config), "--out", str(tmp_path / "p"), *grid,
                     "--tend", "0.5"]) == 0
    budget = (tmp_path / "p" / "budget.csv").read_text().splitlines()[1:]
    assert horizons == [0.5] and [float(row.split(",")[0]) for row in budget] == [0.25, 0.5]
    # the default sample times reach past that horizon
    assert cli.main(["picard", "--out", str(tmp_path / "q"), *grid, "--tend", "0.5"]) == 2
    assert "config error: experiment.sample_times: need " in capsys.readouterr().err
    assert cli.main(["dependence", "--out", str(tmp_path / "d"), *grid, "--tend", "2"]) == 0
    rows = [line.split(",") for line in
            (tmp_path / "d" / "dependence.csv").read_text().splitlines()[1:]]
    for size in cli.default_config("dependence")["experiment"]["sizes"]:
        times = [float(t) for s, t, _ in rows if float(s) == size]
        assert times == list(evolution.log_checkpoints(2.0, 16)) and times[-1] == 2.0


def test_energy_counts_the_windows_read_past_r_max(tmp_path):
    # at r_max 10 every similarity window with T - t > 1, i.e. s < 0, maps y <= 10 past r = 10,
    # where to_similarity extends the field flat: the manifest counts those rows
    assert cli.main(["energy", "--nodes", "100", "--rmax", "10", "--out", str(tmp_path)]) == 0
    below = sum(float(line.split(",")[0]) < 0 for path in tmp_path.glob("energy_T*.csv")
                for line in path.read_text().splitlines()[1:])
    profile = json.loads((tmp_path / "manifest.json").read_text())["profile"]
    assert profile["similarity.truncated_windows"] == below == 253


def test_merged_config_keeps_the_given_values():
    # an int where a float default stands passes as given: nothing converted is written back,
    # so the merged config and its hash are those of the config as written
    cfg = {"experiment": {"kind": "solve"}, "grid": {"r_max": 10, "nodes": 64},
           "solver": {"t_end": 1, "checkpoints": [1]}}
    merged = cli._merged(cfg)
    assert merged["grid"]["r_max"] == 10 and type(merged["grid"]["r_max"]) is int
    assert merged["solver"]["checkpoints"] == [1] and type(merged["solver"]["t_end"]) is int
    expected = cli.default_config("solve")
    for block, keys in cfg.items():
        expected[block].update(keys)
    assert merged == expected and cli.config_hash(merged) == cli.config_hash(expected)


@pytest.mark.parametrize("blocks, path", [
    ({"solver": {"series_stride": 1}}, "solver.series_stride"),
    ({"experiment": {"q": 2.0}}, "experiment.q"),
    ({"initial_data": {"amplitude": 0.1}}, "initial_data.amplitude"),
    ({"grids": {"nodes": 64}}, "grids"),
])
def test_unknown_config_key_exits_2(blocks, path, tmp_path, capsys):
    # a key that no default states is rejected, not silently ignored
    cfg = {"experiment": {"kind": "solve"}, "grid": {"r_max": 10.0, "nodes": 64},
           "solver": {"t_end": 0.5}}
    for block, keys in blocks.items():
        cfg.setdefault(block, {}).update(keys)
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(cfg))
    assert cli.main(["solve", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {path}: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_checkpoints_recorded_at_their_requested_times():
    # the default solve config: each checkpoint is recorded at exactly its requested time,
    # and the run ends at exactly t_end
    cfg = cli._merged(cli.default_config("solve"))
    params, _, u0 = cli._build_inputs(cfg)
    solver = cli._solver_config(cfg)
    traj = evolution.solve(u0, params, solver)
    assert [t for t, _ in traj.checkpoints] == list(solver.checkpoint_times)
    assert traj.series[-1, 0] == traj.status.t_final == solver.t_end


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


@pytest.mark.parametrize("path", ["grid.nodes", "solver.t_end", "params.p", "solver.safety",
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
    assert _pop_wall_times(m1) == _pop_wall_times(m2) == {"evolution.solve_s", "io.write_s"}
    m1.pop("wall_time_s"), m2.pop("wall_time_s")
    assert m1 == m2


def _solve_checks(tmp_path, t_end):
    cfg = cli.default_config("solve")
    cfg["grid"] = {"r_max": 10.0, "nodes": 64}
    cfg["solver"]["t_end"] = t_end
    bundle = cli.run_experiment(cfg, out_dir=tmp_path / f"t{t_end:g}")
    return {c["name"]: c for c in bundle.checks}, bundle.documents["diagnostics"]


def test_solve_checks_tail_monotone_once_the_weighted_norm_peaks_early(tmp_path):
    # w(t) = t^(1/(p-1)) ||u(t)||_inf peaks near t = 0.25 on this grid: inside the final
    # decade of a run to 2, before it in a run to 5, where the decay signature is asserted
    checks, doc = _solve_checks(tmp_path, 2.0)
    assert "tail_monotone" not in checks and "tail_monotone" in doc
    checks, doc = _solve_checks(tmp_path, 5.0)
    assert checks["tail_monotone"] == {"name": "tail_monotone", "passed": True,
                                       "value": doc["sup_t_beta_norm"]}


@pytest.mark.parametrize("blocks", [
    {"params": {"p": 300.0}},
    {"params": {"p": 40.0},
     "initial_data": {"profile": "gaussian", "args": {"amplitude": 1e-10, "width": 2.0}}},
])
def test_small_data_at_large_p_runs(blocks, tmp_path):
    # 0.5 ||u||_inf^(1-p) overflows a float here; a step cap that large can never bind
    path = tmp_path / "solve.json"
    path.write_text(json.dumps({"experiment": {"kind": "solve"}, **blocks}))
    assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path / "o"),
                     "--nodes", "64", "--rmax", "10", "--tend", "0.1"]) in (0, 1)
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["status"] == "ok" and manifest["profile"]["evolution.cap.nonlinear"] == 0


def test_empty_plot_series_header_only(tmp_path):
    # a table without rows is written as its header line alone
    bundle = cli.ArtifactBundle(kind="threshold", out_dir=tmp_path)
    bundle.tables["morrey_series_lo"] = ("t,value", [])
    assert bundle.write_data() == ["morrey_series_lo.csv"]
    assert (tmp_path / "morrey_series_lo.csv").read_text() == "t,value\n"


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


def _pop_wall_times(manifest):
    """Pop a manifest's wall times and return their names: the stages', each within
    wall_time_s, and io.write_s, the data writes after it."""
    profile = manifest["profile"]
    writes = pop_wall_times({key: profile.pop(key) for key in ["io.write_s"] if key in profile})
    return pop_wall_times(profile, manifest["wall_time_s"]) | writes


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
        for row in _dense_ball_weights(grid, lattice, ri):
            partial, nonzero = np.flatnonzero(row != base), np.flatnonzero(row)
            band = nonzero[-1] + 1 - partial[0] if partial.size and nonzero.size else 0
            table += max(band, 0) * (8 + index_bytes + owner_bytes)
    plans = sum(x.nbytes for r in lattice.radii[small]
                for x in small_ball_plan(grid, lattice.centers, float(r)))
    return {"morrey.table_builds": 1, "morrey.table_mb": (table + plans) / 2**20}


def test_solve_and_dependence_record_rk4_work(tmp_path):
    # solve: one series row per step after the initial one
    cli.run_experiment(small_solve_config(tmp_path, "gaussian", {"amplitude": 0.1, "width": 2.0}),
                       out_dir=tmp_path / "s")
    manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
    assert _pop_wall_times(manifest) == {"evolution.solve_s", "io.write_s"}
    profile = manifest["profile"]
    rows = (tmp_path / "s" / "series.csv").read_text().splitlines()
    assert set(profile) == set(_WORK_KEYS)
    assert profile["evolution.steps"] == len(rows) - 2
    assert profile["evolution.steps"] == sum(profile[key] for key in _WORK_KEYS[1:4])
    # dependence: the solve of u0 and one per perturbed datum, each to T0 at the diffusive
    # and landing caps alone, so three solves of equal length
    cfg = cli.default_config("dependence")
    cfg["grid"] = {"r_max": 20.0, "nodes": 100}
    cfg["solver"]["t_end"] = 1.0
    cfg["experiment"]["sizes"] = [1e-2, 1e-3]
    cli.run_experiment(cfg, out_dir=tmp_path / "d")
    manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
    assert _pop_wall_times(manifest) == {"evolution.solve_s", "morrey.evaluate_s", "io.write_s"}
    profile = manifest["profile"]
    assert set(profile) == set(_WORK_KEYS) | {"morrey.evaluations", "morrey.table_builds",
                                              "morrey.table_mb"}
    # one lattice, whose rules are built once for every evaluation
    table = _table_counters(cli._build_inputs(cli._merged(cfg))[1])
    assert {key: profile[key] for key in table} == table
    # per size, its initial distance and the difference at each of the 16 checkpoints
    assert profile["morrey.evaluations"] == 2 * (1 + 16)
    assert profile["evolution.cap.nonlinear"] == 0 and profile["evolution.steps"] % 3 == 0
    assert profile["evolution.steps"] >= 3 / evolution.diffusive_cap(2.4, 0.2, 5)


@pytest.mark.parametrize("amplitude, sweeps", [
    (3.0, 3),    # three growing Cauchy differences
    (10.0, 3),   # growing differences and sup > 1e6 at once
    (30.0, 2),   # sup > 1e6 before a third difference exists
])
def test_picard_divergence_fails_the_kind(amplitude, sweeps, tmp_path, capsys):
    # the classical solve blows up before the first sample time 0.1 (at t ~ 0.078 for
    # amplitude 3), so the agreement check has no checkpoint to compare and fails too
    cfg = {"experiment": {"kind": "picard"}, "grid": {"r_max": 10.0, "nodes": 100},
           "initial_data": {"args": {"amplitude": amplitude, "width": 2.0}}}
    params, grid, u0 = cli._build_inputs(cli._merged(cfg))
    run = duhamel.picard_solve(u0, params, 1.0, 8, [0.1, 0.5, 1.0])
    assert run.diverged and not run.converged
    assert run.iterations == len(run.cauchy_diffs) == sweeps
    config = tmp_path / "big.json"
    config.write_text(json.dumps(cfg))
    assert cli.main(["picard", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] picard_converged" in out and "[FAIL] mild_classical_agreement (0)" in out
    assert json.loads((tmp_path / "o" / "picard.json").read_text())["diverged"]


def test_picard_kind_end_to_end(tmp_path):
    cfg = cli.default_config("picard")
    cfg["grid"] = {"r_max": 16.0, "nodes": 160}
    cfg["initial_data"] = {"profile": "gaussian", "args": {"amplitude": 0.1, "width": 2.0},
                           "boundary": "even_at_origin_only"}
    cfg["experiment"]["sample_times"] = [0.25, 0.5]
    cfg["solver"]["t_end"] = 0.5
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
                                         1e-8, {})[-1]
        substeps += sweeps * sum(max(1, math.ceil(dt / cap)) for dt in widths if dt < floor)
        previous = distinct
        nodes *= 2
    manifest = json.loads((tmp_path / "p" / "manifest.json").read_text())
    assert _pop_wall_times(manifest) == {"evolution.solve_s", "morrey.evaluate_s",
                                         "duhamel.picard_s", "io.write_s"}
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
    # the run's wall time stays top-level, and the solve that ran before the failure keeps
    # its time in the profile
    profile = manifest["profile"]
    assert "wall_time_s" not in profile
    assert 0.0 < profile["evolution.solve_s"] <= manifest["wall_time_s"]
    assert profile["evolution.steps"] > 0


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


def test_threshold_json_schema(tmp_path):
    # the pipeline's own threshold.json; the Morrey series are in their two tables alone
    cli.run_experiment(small_threshold_config(), out_dir=tmp_path / "t")
    loaded = json.loads((tmp_path / "t" / "threshold.json").read_text())
    assert set(loaded) == {"lambda_lo", "lambda_hi", "rel_width", "stalled", "epsilon_star",
                           "C0_measured", "trials", "probes"}
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
    cfg["solver"]["t_end"] = 2.0
    cfg["experiment"]["sizes"] = [1e-2, 1e-3]
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
    run = evolution.solve(u0, params, cli._solver_config(cfg))
    assert doc["C0_measured"] == evolution.decay_diagnostics(run, params).sup_t_beta_norm / eps
    assert doc["C0_measured"] > 0
    assert (tmp_path / "t" / "morrey_series_lo.csv").read_text().splitlines()[0] == "t,value"


def test_threshold_undecided_first_trial_exits_3(tmp_path, capsys):
    # on a free boundary the first trial's run is aborted for boundary contamination, so
    # it is undecided and no bracket can be scanned for
    config = tmp_path / "free.json"
    config.write_text(json.dumps({"experiment": {"kind": "threshold"},
                                  "initial_data": {"boundary": "even_at_origin_only"}}))
    assert cli.main(["threshold", "--config", str(config), "--out", str(tmp_path / "o"),
                     "--nodes", "64", "--rmax", "10", "--tend", "20"]) == 3
    assert ("could not bracket a threshold from lambda_init=1.0; trials: 1:undecided"
            in capsys.readouterr().err)
    # the bisection raised, and its stage time, which holds its one solve, is recorded all
    # the same
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    profile = manifest["profile"]
    assert manifest["status"] == "failed" and profile["threshold.solves"] == 1
    assert 0.0 < profile["evolution.solve_s"] <= profile["threshold.bisect_s"]
    assert profile["threshold.bisect_s"] <= manifest["wall_time_s"]
    assert pop_wall_times(profile) == {"evolution.solve_s", "threshold.bisect_s"}


def test_threshold_stalled_bisection_fails_bracket_tight(tmp_path, monkeypatch):
    # a bisection stalled by an undecided midpoint keeps the scan's bracket, twice as wide
    # as its lower end: bracket_tight fails with that width, and the probes are skipped
    cfg = small_threshold_config()
    phi = cli._build_inputs(cli._merged(cfg))[2]
    monkeypatch.setattr(threshold, "classify_with_trajectory", stalling_classify(phi))
    bundle = cli.run_experiment(cfg, out_dir=tmp_path / "t")
    doc = json.loads((tmp_path / "t" / "threshold.json").read_text())
    verdicts = [t["verdict"] for t in doc["trials"]]
    assert doc["stalled"] and verdicts.index("undecided") == len(verdicts) - 1
    checks = {c["name"]: c for c in bundle.checks}
    assert checks["bracket_tight"] == {"name": "bracket_tight", "passed": False, "value": 1.0}
    assert checks["bracket_consistent"]["passed"] and not bundle.all_passed
    assert doc["probes_skipped"] == "bracket wider than 0.01" and "probes" not in doc


def small_threshold_config(safety=None):
    cfg = cli.default_config("threshold")
    cfg["grid"] = {"r_max": 40.0, "nodes": 100}
    cfg["solver"]["t_end"] = 20.0
    if safety is not None:
        cfg["solver"]["safety"] = safety
    cfg["experiment"].update({"rel_tol": 0.005, "deltas": [0.1, -0.1]})
    return cfg


def test_threshold_manifest_counts_solver_work(tmp_path):
    cfg = small_threshold_config()
    cli.run_experiment(cfg, out_dir=tmp_path / "t")
    doc = json.loads((tmp_path / "t" / "threshold.json").read_text())
    manifest = json.loads((tmp_path / "t" / "manifest.json").read_text())
    profile = manifest["profile"]
    # the wall times: the two stages, inside the run's wall time, and the solves and the
    # Morrey evaluations, inside the stages that make them
    stage_s = [profile["threshold.bisect_s"], profile["threshold.probes_s"]]
    assert sum(stage_s) <= manifest["wall_time_s"]
    assert max(profile["evolution.solve_s"], profile["morrey.evaluate_s"]) <= sum(stage_s)
    assert min(profile["evolution.solve_s"], profile["morrey.evaluate_s"]) > 0.0
    assert _pop_wall_times(manifest) == {"threshold.bisect_s", "threshold.probes_s",
                                         "evolution.solve_s", "morrey.evaluate_s", "io.write_s"}
    params, grid, phi = cli._build_inputs(cfg)
    lams = [t["lambda"] for t in doc["trials"]] + [p["lambda"] for p in doc["probes"]]
    dts = []
    with counters.collect() as work:
        for lam in lams:
            run = evolution.solve(make_field(grid, lam * phi.values, phi.boundary), params,
                                  cli._solver_config(cfg))
            dts.extend(run.series[1:, 3])
    assert pop_wall_times(work) == {"evolution.solve_s"}
    caps = [work[f"evolution.cap.{cap}"] for cap in ("diffusive", "nonlinear", "landing")]
    # one series row per step
    assert min(caps) > 0 and work["evolution.steps"] == sum(caps) == len(dts)
    assert work["evolution.min_dt"] == min(dts)
    series_rows = [len((tmp_path / "t" / f"morrey_series_{end}.csv").read_text().splitlines()) - 1
                   for end in ("lo", "hi")]
    assert min(series_rows) > 0
    evaluations = 1 + sum(series_rows) + sum(
        2 for p in doc["probes"] if p["morrey_start"] is not None)
    assert profile == {**work,
                       "threshold.solves": len(lams),
                       "threshold.trials": len(doc["trials"]),
                       # epsilon_star, both bracket series, and two per decaying probe
                       "morrey.evaluations": evaluations,
                       # the bisection's lattice, whose rules the probes use too
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
    # the threshold kind steps at the stated fraction of RK4's bound for its own n; solve's
    # decay readings come off the sampled series, whose rows the step count sets, so its
    # default stays 0.8; the other kinds that solve stay at 2.4, below the bound for every n
    assert cli.default_config("threshold") == cli.default_config("threshold", 5)
    for n in range(3, 12):
        configs = [cli.default_config(kind, n) for kind in cli.EXPERIMENT_KINDS]
        safety = {cfg["experiment"]["kind"]: cfg["solver"]["safety"]
                  for cfg in configs if "solver" in cfg}
        assert sorted(safety) == sorted(_SOLVING_KINDS)
        assert safety.pop("threshold") == evolution.STABLE_FRACTION * evolution.max_safety(n)
        assert safety.pop("solve") == 0.8
        assert set(safety.values()) == {2.4} and 2.4 <= evolution.max_safety(n)


def test_threshold_default_safety_follows_merged_n():
    # `--n 3` states no safety, so the run takes n = 3's own default and validates
    args = argparse.Namespace(config=None, kind="threshold", n=3, p=None, rmax=None,
                              nodes=None, tend=None)
    merged = cli._merged(cli._cli_config(args))
    assert merged["params"]["n"] == 3
    assert merged["solver"]["safety"] == evolution.STABLE_FRACTION * evolution.max_safety(3)
    # an explicit safety keeps its absolute meaning: n = 5's default is above max_safety(3)
    explicit = {"experiment": {"kind": "threshold"}, "params": {"n": 3},
                "solver": {"safety": cli.default_config("threshold")["solver"]["safety"]}}
    with pytest.raises(cli.ConfigError, match="solver.safety: .* exceeds RK4's stability"):
        cli._merged(explicit)
    # an n outside its domain is named as such, before any default reads it
    with pytest.raises(cli.ConfigError, match=r"params.n: need n >= 3, got 2"):
        cli._merged({"experiment": {"kind": "threshold"}, "params": {"n": 2}})


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


# one small config per kind: grid, solver (None: the kind has no solver block) and
# initial-data blocks, and experiment options
_SMALL_RUNS = {
    "solve": ({"r_max": 10.0, "nodes": 64}, {"t_end": 0.5, "checkpoints": 4}, None, {}),
    "energy": ({"r_max": 20.0, "nodes": 200}, {"t_end": 2.0},
               {"amplitude": 0.1, "width": 2.0}, {"T_values": [2.0]}),
    "morrey": ({"r_max": 8.0, "nodes": 100}, None, None, {}),
    "smoothing": ({"r_max": 12.0, "nodes": 120}, None, None,
                  {"t_lo": 0.1, "t_hi": 10.0, "t_count": 3}),
    "picard": ({"r_max": 16.0, "nodes": 80}, {"t_end": 0.5}, None, {"sample_times": [0.25, 0.5]}),
    "threshold": ({"r_max": 40.0, "nodes": 100}, {"t_end": 10.0}, None,
                  {"rel_tol": 0.005, "deltas": [0.1]}),
    "dependence": ({"r_max": 20.0, "nodes": 100}, {"t_end": 2.0},
                   {"amplitude": 0.2, "width": 2.0}, {"sizes": [1e-2]}),
    "hypotheses": ({"r_max": 20.0, "nodes": 100}, None, None, {}),
}
_SOLVING_KINDS = [kind for kind, run in _SMALL_RUNS.items() if run[1] is not None]


def _small_configs() -> dict:
    """kind -> the full config of its _SMALL_RUNS entry."""
    runs = {}
    for kind, (grid, solver, args, experiment) in _SMALL_RUNS.items():
        cfg = cli.default_config(kind)
        cfg["grid"] = grid
        if solver is not None:
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
        # each number is written once: no kind restates its tables as plot_ tables
        written = sorted(path.name for path in (tmp_path / kind).iterdir())
        assert written == sorted(manifest["artifacts"] + ["manifest.json"]), kind
        assert not [name for name in written if name.startswith("plot_")], kind


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


def test_counters_do_not_leak_between_runs(tmp_path):
    # a second identical run in the same process starts from empty counters and builds its
    # own Morrey lattice rules, as the first did: nothing from the first run is reused
    cfg = _small_configs()["threshold"]
    profiles = []
    for name in ("a", "b"):
        bundle = cli.run_experiment(cfg, out_dir=tmp_path / name)
        profiles.append({key: value for key, value in bundle.manifest["profile"].items()
                         if not key.endswith("_s")})
    assert profiles[0] == profiles[1] and profiles[0]["threshold.trials"] > 0
    assert profiles[0]["morrey.table_builds"] == 1 and profiles[0]["morrey.table_mb"] > 0
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
