"""End-to-end benchmark of the morreyheat command line.

    python3 bench/run.py --workload threshold --seed 0 --seconds 25 --trace 0

Run it from the root of a checkout; it imports the package from `src/`.  One
client runs one experiment at a time (a closed loop): each experiment is a
fresh `python -m morreyheat.cli <kind> --config <json> --out <dir>` process
with OpenBLAS and OpenMP pinned to one thread.  A pass runs every experiment
of the workload once.  Passes repeat while the next one is expected to end
within --seconds; at least one pass runs.

Every experiment passes the correctness gate only if its process exits 0,
every `checks` entry of its manifest passed, and, at seed 0, its headline
results equal `bench/reference.json` (recorded from the code at the commit
that added this benchmark).  Other seeds move the Gaussian initial data along
its critical scaling orbit, width * (1 + eps) and amplitude / (1 + eps), which
leaves the amplitude threshold and so the amount of work nearly unchanged; at
those seeds only the exit code and manifest checks are gated.

--trace 0 reports the end-to-end metrics: wall_ref_s (median pass wall time),
setup_s (median time for a fresh interpreter to import morreyheat.cli) and
peak_rss_mb (largest peak RSS of any experiment process, from os.wait4).
The benchmark and its children run pinned to one core, and both times are
scaled to a reference speed of that core, measured while they run by
timing a fixed piece of work (SpeedProbe): on a shared host the core's speed
drifts by up to 1.8x, which raw wall times of the same code would carry from
run to run.
The unscaled times are printed too.
--trace 1 runs one untraced and one traced pass (bench/trace_child.py),
whatever --seconds says, and reports the per-layer metrics, the tracing
overhead, and whether the traced pass wrote bit-identical data artifacts.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Without `src/morreyheat` the script exits 2 and prints
no result.
"""

import argparse
import copy
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

import numpy as np

from trace_child import TRACED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

DEADLINE_S = 170.0     # every run ends within 180 s, children included
SETUP_SAMPLES = 3
PROBE_PERIOD_S = 0.1   # one speed probe per 0.1 s on the experiments' core
PROBE_ITERATIONS = 7500  # the probe's pure-Python half
PROBE_ARRAY_OPS = 30     # its numpy half: rounds of ufuncs on a 201-node array
PROBE_REF_S = 1e-3     # probe duration that defines the reference core speed
EPS_SPREAD = 0.01      # |eps| bound of the seeded scaling-orbit perturbation
REL_TOL = 1e-6         # headline floats vs the reference
ABS_TOL = 1e-12

DIAGNOSTIC_KINDS = ("solve", "energy", "morrey", "smoothing", "picard", "dependence",
                    "hypotheses")

# Each workload is a list of (kind, config blocks merged over the kind's defaults).
WORKLOADS = {
    # The paper's headline experiment: amplitude bisection along the Gaussian
    # ray and three borderline probes, dominated by long RK4 solves and
    # small-ball Morrey evaluations.  The horizon is 50 rather than the
    # default 200 so that a pass fits the run; the bracket and the 13 trials
    # are those of the default config.
    "threshold": [("threshold", {"grid": {"r_max": 40.0, "nodes": 200},
                                 "solver": {"t_end": 50.0}})],
    # The other seven kinds at their defaults (401 nodes): short horizons with
    # dense snapshots, the Morrey small-ball path, Picard propagators that fit
    # the kernel cache, and most of the artifacts.
    "diagnostics": [(kind, {}) for kind in DIAGNOSTIC_KINDS],
    # Kernel-build bound: at 801 nodes the Picard propagator set exceeds its
    # memory budget and is rebuilt every sweep; 1601-node smoothing builds
    # large dense kernels.  Shows an operator or cache change with its memory.
    "fine_grid": [("picard", {"grid": {"r_max": 40.0, "nodes": 800}}),
                  ("smoothing", {"grid": {"r_max": 16.0, "nodes": 1600}})],
}


def experiment_configs(workload: str, seed: int) -> list:
    rng = random.Random(seed)
    configs = []
    for kind, blocks in WORKLOADS[workload]:
        eps = 0.0 if seed == 0 else rng.uniform(-EPS_SPREAD, EPS_SPREAD)
        amplitude = 1.0 if kind == "threshold" else 0.05   # the CLI's defaults
        cfg = copy.deepcopy(blocks)
        cfg["experiment"] = {"kind": kind}
        cfg["initial_data"] = {"profile": "gaussian", "boundary": "dirichlet_at_Rmax",
                               "args": {"amplitude": amplitude / (1.0 + eps),
                                        "width": 2.0 * (1.0 + eps)}}
        configs.append((kind, cfg))
    return configs


# ---------------------------------------------------------------------------
# Child processes.
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # with the default two BLAS threads CPU time rises and wall time does not fall
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def run_child(argv: list, log_path: Path, deadline: float) -> dict:
    """Run one process to completion; its own rusage comes from os.wait4.

    RUSAGE_CHILDREN would not do: its ru_maxrss is the running maximum over
    every child reaped so far, not this child's peak.
    """
    with open(log_path, "wb") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        ended = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": ended - started, "span": (started, ended),
            "returncode": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024.0, "cpu_s": usage.ru_utime + usage.ru_stime}


def run_pass(configs: list, pass_dir: Path, deadline: float, traced: bool = False) -> dict:
    """Run each experiment of a workload once, in order; return per-process records."""
    pass_dir.mkdir(parents=True)
    procs = []
    started = time.perf_counter()
    for i, (kind, cfg) in enumerate(configs):
        rec = {"kind": kind, "stem": f"{i}_{kind}", "out": pass_dir / f"{i}_{kind}"}
        cfg_path = pass_dir / f"{rec['stem']}.config.json"
        cfg_path.write_text(json.dumps(cfg, sort_keys=True))
        cli = [kind, "--config", str(cfg_path), "--out", str(rec["out"])]
        if traced:
            argv = [sys.executable, str(BENCH / "trace_child.py"), str(trace_path(rec))] + cli
        else:
            argv = [sys.executable, "-m", "morreyheat.cli"] + cli
        rec.update(run_child(argv, pass_dir / f"{rec['stem']}.log", deadline))
        procs.append(rec)
    ended = time.perf_counter()
    return {"wall_s": ended - started, "span": (started, ended), "procs": procs}


def trace_path(rec: dict) -> Path:
    return rec["out"].parent / f"{rec['stem']}.trace.json"


def measure_setup(run_dir: Path, deadline: float) -> list:
    """Fresh interpreters importing morreyheat.cli (first try discarded)."""
    argv = [sys.executable, "-c", "import morreyheat.cli"]
    log = run_dir / "setup.log"
    recs = []
    for _ in range(SETUP_SAMPLES + 1):
        rec = run_child(argv, log, deadline)
        if rec["returncode"] != 0:
            raise SystemExit(f"importing morreyheat.cli failed:\n{log.read_text()}")
        recs.append(rec)
    return recs[1:]


class SpeedProbe:
    """Times a fixed piece of work every PROBE_PERIOD_S on the benchmark's core.

    The experiments run pinned to the same core as this thread, so the probe
    sees the speed that core gives them.  On a shared host that speed moves by
    up to 1.8x in phases lasting seconds to minutes; scaling a wall time by
    PROBE_REF_S / (mean probe time over the same interval) takes most of
    that out and leaves the program's own changes in.  The mean, not the
    median, because a wall time adds up the core's slowness over its whole
    interval.  The probe costs about 1% of the core.  Its work is shaped like
    the experiments': interpreter-bound Python and ufuncs on small arrays.
    Either half alone tracked the threshold workload's wall time less well
    than both together.
    """

    def __init__(self):
        self.samples = []            # (end of the probe, its duration)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while not self._stop.wait(PROBE_PERIOD_S):
            started = time.perf_counter()
            probe_loop()
            ended = time.perf_counter()
            self.samples.append((ended, ended - started))

    def probe_s(self, span: tuple) -> float:
        """Mean probe duration within span = (start, end)."""
        durations = [d for t, d in self.samples if span[0] <= t - d and t <= span[1]]
        if not durations:
            raise RuntimeError("no speed probe ran within a timed interval")
        return statistics.fmean(durations)

    def scaled(self, wall: float, span: tuple) -> float:
        """wall at the reference core speed, where one probe takes PROBE_REF_S."""
        return wall * PROBE_REF_S / self.probe_s(span)


def probe_loop() -> float:
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i % 7
    x = np.linspace(0.0, 1.0, 201)
    y = np.empty_like(x)
    for _ in range(PROBE_ARRAY_OPS):
        np.multiply(x, 0.5, out=y)
        np.add(y, x, out=y)
        np.abs(y, out=y)
        acc += float(np.max(y))
    return acc


# ---------------------------------------------------------------------------
# Correctness gate.
# ---------------------------------------------------------------------------


def _load(path: Path):
    with open(path) as fh:
        return json.load(fh)


def headline(kind: str, out: Path, manifest: dict) -> dict:
    """The results of record of one experiment: verdicts, counts and norms."""
    h = {f"check.{c['name']}": c["value"] for c in manifest["checks"]}
    if kind == "threshold":
        doc = _load(out / "threshold.json")
        h.update(bracket=[doc["lambda_lo"], doc["lambda_hi"]], trials=len(doc["trials"]),
                 probes=[p["verdict"] for p in doc.get("probes", [])])
    elif kind == "solve":
        doc = _load(out / "diagnostics.json")
        h.update(status=doc["status"], t_final=doc["t_final"],
                 decay_slope=doc.get("decay_slope"),
                 sup_t_beta_norm=doc.get("sup_t_beta_norm"),
                 checkpoints=len(doc["checkpoint_times"]))
    elif kind == "morrey":
        doc = _load(out / "morrey.json")
        h.update(norms_by_level=doc["norms_by_level"], argmax_center=doc["argmax_center"],
                 argmax_radius=doc["argmax_radius"])
    elif kind == "picard":
        doc = _load(out / "picard.json")
        h.update(converged=doc["converged"], diverged=doc["diverged"],
                 iterations=doc["iterations"], nodes_used=doc["nodes_used"])
    elif kind == "dependence":
        doc = _load(out / "dependence.json")
        h.update(max_ratios=doc["max_ratios"], spread=doc["spread"])
    elif kind == "hypotheses":
        doc = _load(out / "hypotheses.json")
        h.update({f"{name}.satisfied": c["satisfied"] for name, c in doc.items()})
    return h


def same(a, b) -> bool:
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, (int, float)) and not isinstance(b, bool):
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return a == b


def gate(rec: dict, reference: dict | None) -> list:
    """Reasons the experiment failed the gate; empty when it passed."""
    if rec["returncode"] != 0:
        return [f"exit code {rec['returncode']}"]
    out = rec["out"]
    try:
        manifest = _load(out / "manifest.json")
        missing = [a for a in manifest["artifacts"] if not (out / a).is_file()]
        reasons = [f"missing artifact {a}" for a in missing]
        reasons += [f"check {c['name']} failed" for c in manifest["checks"] if not c["passed"]]
        if reference is not None:
            got = headline(rec["kind"], out, manifest)
            reasons += [f"{key}: {got.get(key)!r} != reference {want!r}"
                        for key, want in reference.items() if not same(got.get(key), want)]
            reasons += [f"{key}: not in the reference" for key in got if key not in reference]
    except (OSError, KeyError, ValueError) as exc:
        reasons = [f"unreadable artifacts: {exc!r}"]
    return reasons


def artifact_digests(out: Path) -> dict:
    """sha256 of every data artifact; the manifest is left out, as it records timings."""
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"}


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def end_to_end_metrics(passes: list, setup: list, probe: SpeedProbe) -> dict:
    procs = [p for ps in passes for p in ps["procs"]]
    return {
        "wall_ref_s": (statistics.median(probe.scaled(ps["wall_s"], ps["span"])
                                         for ps in passes), "s", len(passes)),
        "setup_s": (statistics.median(probe.scaled(r["wall_s"], r["span"]) for r in setup),
                    "s", len(setup)),
        "peak_rss_mb": (max(p["rss_mb"] for p in procs), "MB", len(procs)),
    }


def per_layer_metrics(plain: dict, traced: dict, digest_match: float) -> dict:
    """Sum the traced processes' summaries into the per-layer metrics."""
    summaries = [_load(trace_path(p)) for p in traced["procs"]]
    calls, secs, first_s, layer, ctr = Counter(), Counter(), Counter(), Counter(), Counter()
    for s in summaries:
        for name, v in s["functions"].items():
            calls[name] += v["calls"]
            secs[name] += v["s"]
            first_s[name] += v["first_s"]
        layer.update(s["layers"])
        ctr.update(s["counters"])

    def ratio(num, den):
        return num / den if den else 0.0

    traced_wall = sum(p["wall_s"] for p in traced["procs"])
    in_spans = sum(s["root_s"] for s in summaries)
    artifact_bytes = sum(f.stat().st_size for p in plain["procs"]
                         for f in p["out"].rglob("*") if f.is_file())
    # io's self time is reported as io.write_s below
    m = {f"{name}.self_s": (layer[name], "s") for name in TRACED if name != "io"}
    m.update({
        "evolution.solve.calls": (calls["solve"], "count"),
        "evolution.solve.s": (secs["solve"], "s"),
        "evolution.steps": (ctr["steps"], "count"),
        "evolution.us_per_step": (1e6 * ratio(secs["solve"], ctr["steps"]), "us"),
        "evolution.checkpoints": (ctr["checkpoints"], "count"),
        "evolution.stop.blowup": (ctr["stop.blowup"], "count"),
        "evolution.stop.reached_horizon": (ctr["stop.reached_horizon"], "count"),
        "evolution.stop.aborted": (ctr["stop.aborted"], "count"),
        "threshold.bisect_lambda.s": (secs["bisect_lambda"], "s"),
        "threshold.borderline_probe.s": (secs["borderline_probe"], "s"),
        "threshold.trials": (ctr["threshold.trials"], "count"),
        "threshold.solves": (ctr["threshold.solves"], "count"),
        "threshold.undecided": (ctr["threshold.undecided"], "count"),
        "threshold.distinct_amplitude_ratio": (
            ratio(ctr["threshold.distinct_amplitudes"], ctr["threshold.solves"]),
            "ratio"),
        "morrey.morrey_evaluate.calls": (calls["morrey_evaluate"], "count"),
        "morrey.morrey_evaluate.s": (secs["morrey_evaluate"], "s"),
        "morrey.ms_per_call": (1e3 * ratio(secs["morrey_evaluate"], calls["morrey_evaluate"]),
                               "ms"),
        "morrey.smoothing_profile.s": (secs["smoothing_profile"], "s"),
        "morrey.repeat_lattice_ratio": (
            ratio(ctr["morrey.repeat_lattice"], calls["morrey_evaluate"]), "ratio"),
        "quadrature.fine_ball_integral.calls": (calls["fine_ball_integral"], "count"),
        "quadrature.fine_ball_integral.s": (secs["fine_ball_integral"], "s"),
        "quadrature.cap_fraction_array.calls": (calls["cap_fraction_array"], "count"),
        "quadrature.cap_fraction_array.s": (secs["cap_fraction_array"], "s"),
        "quadrature.heat_kernel_matrix.calls": (calls["heat_kernel_matrix"], "count"),
        "quadrature.heat_kernel_matrix.s": (secs["heat_kernel_matrix"], "s"),
        "quadrature.heat_kernel_matrix.first_s": (
            first_s["heat_kernel_matrix"], "s"),
        "quadrature.heat_kernel_matrix.mb": (ctr["heat_kernel_matrix.bytes"] / 2**20,
                                             "MB"),
        "quadrature.heat_kernel_matrix.repeat_ratio": (
            ratio(ctr["heat_kernel_matrix.repeat"], calls["heat_kernel_matrix"]),
            "ratio"),
        "quadrature.heat_apply.s": (secs["heat_apply"], "s"),
        "quadrature.gauss_convolve.s": (secs["gauss_convolve"], "s"),
        "duhamel.picard_solve.s": (secs["picard_solve"], "s"),
        "duhamel.picard.kernel_builds": (ctr["picard.kernel_builds"], "count"),
        "duhamel.picard.nodes_used": (ctr["picard.nodes_used"], "count"),
        "duhamel.picard.iterations": (ctr["picard.iterations"], "count"),
        "duhamel.continuous_dependence.s": (secs["continuous_dependence"], "s"),
        "similarity.energy_series.s": (secs["energy_series"], "s"),
        "similarity.to_similarity.calls": (calls["to_similarity"], "count"),
        "similarity.to_similarity.s": (secs["to_similarity"], "s"),
        "hypotheses.check_hypotheses.s": (secs["check_hypotheses"], "s"),
        "cli.run_experiment.s": (secs["run_experiment"], "s"),
        "cli.child_cpu_s": (sum(p["cpu_s"] for p in plain["procs"]), "s"),
        "io.write_s": (layer["io"], "s"),
        "io.artifacts.mb": (artifact_bytes / 2**20, "MB"),
        "io.artifact_digest_match": (digest_match, "ratio"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_s": (traced_wall - in_spans, "s"),
        "trace.overhead_s": (traced["wall_s"] - plain["wall_s"], "s"),
    })
    return m


# ---------------------------------------------------------------------------
# Environment record.
# ---------------------------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git (absent in exports)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": child_env()["OPENBLAS_NUM_THREADS"], "git": git_sha()}


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "morreyheat" / "cli.py").is_file():
        print(f"no morreyheat sources under {SRC}", file=sys.stderr)
        return 2

    # Children inherit this affinity: every experiment and the speed probe
    # share one core, one process running at a time.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    deadline = time.monotonic() + DEADLINE_S
    configs = experiment_configs(args.workload, args.seed)
    references = [None] * len(configs)
    if args.seed == 0:
        references = _load(BENCH / "reference.json")[args.workload]
    run_dir = RUNS / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    passes, failures, metrics, note = [], {}, {}, None

    def check(label, ps):
        for rec, ref in zip(ps["procs"], references):
            reasons = gate(rec, ref)
            if reasons:
                failures[f"{label}/{rec['stem']}"] = reasons

    try:
        if args.trace:
            plain = run_pass(configs, run_dir / "plain", deadline)
            traced = run_pass(configs, run_dir / "traced", deadline, traced=True)
            passes = [plain, traced]
            check("plain", plain)
            check("traced", traced)
            files = matched = 0
            for a, b in zip(plain["procs"], traced["procs"]):
                da, db = artifact_digests(a["out"]), artifact_digests(b["out"])
                differ = sorted(n for n in da.keys() | db.keys() if da.get(n) != db.get(n))
                files += len(da)
                matched += len(da) - len(differ)
                if differ:
                    failures.setdefault(f"traced/{b['stem']}", []).append(
                        f"traced artifacts differ from untraced: {differ}")
            if all(rec["returncode"] == 0 for ps in passes for rec in ps["procs"]):
                metrics = per_layer_metrics(plain, traced, matched / files if files else 0.0)
                for rec in traced["procs"]:
                    # self times partition the spans under each root span
                    summary = _load(trace_path(rec))
                    if abs(sum(summary["layers"].values()) - summary["root_s"]) > 1e-6:
                        failures.setdefault(f"traced/{rec['stem']}", []).append(
                            "layer self times do not add up to the traced time")
                self_s = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
                self_s += metrics["io.write_s"][0]
                untraced, wall = metrics["trace.untraced_s"][0], metrics["trace.wall_s"][0]
                note = (f"accounting: layer self times {self_s:.6g} s + untraced "
                        f"{untraced:.6g} s = {self_s + untraced:.6g} s; "
                        f"traced wall {wall:.6g} s")
        else:
            with SpeedProbe() as probe:
                setup = measure_setup(run_dir, deadline)
                started = time.monotonic()
                while True:
                    ps = run_pass(configs, run_dir / f"pass{len(passes)}", deadline)
                    check(f"pass{len(passes)}", ps)
                    passes.append(ps)
                    if time.monotonic() - started + ps["wall_s"] > args.seconds:
                        break
            metrics = end_to_end_metrics(passes, setup, probe)
            wall = statistics.median(ps["wall_s"] for ps in passes)
            setup_wall = statistics.median(r["wall_s"] for r in setup)
            probe_ms = 1e3 * probe.probe_s((setup[0]["span"][0], passes[-1]["span"][1]))
            note = (f"unscaled: pass wall {wall:.6g} s, setup {setup_wall:.6g} s; mean probe "
                    f"{probe_ms:.6g} ms, reference {1e3 * PROBE_REF_S:g} ms")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if RUNS.is_dir() and not any(RUNS.iterdir()):
            RUNS.rmdir()

    attempted = sum(len(ps["procs"]) for ps in passes)
    failed = len(failures)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} pass(es) of {len(configs)} experiment(s)")
    for where, reasons in failures.items():
        for reason in reasons:
            print(f"FAIL {where}: {reason}")
    print(f"failed_ratio {failed / attempted:.6g} ({failed}/{attempted} experiments)")
    if note:
        print(note)
    for name, (value, unit, *n) in metrics.items():
        samples = f"  n={n[0]}" if n else ""
        print(f"{name:44s} {value:14.6g} {unit}{samples}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": v[0], "unit": v[1]}
                                  for name, v in metrics.items()}}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
