"""Run one morreyheat CLI experiment with a span around each traced layer call.

    python bench/trace_child.py <summary.json> <kind> --config <cfg> --out <dir>

The arguments after the summary path are passed to `morreyheat.cli.main`
unchanged.  Each traced public function is replaced by a wrapper in every
morreyheat module that binds it: modules import names with
`from .quadrature import heat_kernel_matrix`, so patching only the defining
module would miss the calls made from `morrey`, `evolution` and `duhamel`.

Spans (id, parent id, function, start, end) stay in memory.  At exit they are
reduced to per-function call counts and inclusive times, per-layer self times
(span time not covered by child spans) and the layer counters, and written to
<summary.json>.
"""

import functools
import itertools
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# layer (module) -> traced public functions: each layer's entry points that
# carry its work.  fields and params are left out, as each takes under 1% of
# every workload's profile; so are per-element helpers such as io.format_value,
# called once per CSV cell, where a span would cost more than the call.
TRACED = {
    "evolution": ("solve",),
    "threshold": ("bisect_lambda", "borderline_probe"),
    "morrey": ("morrey_evaluate", "smoothing_profile"),
    "quadrature": ("fine_ball_integral", "cap_fraction_array", "heat_kernel_matrix",
                   "heat_apply", "gauss_convolve"),
    "duhamel": ("picard_solve", "continuous_dependence"),
    "similarity": ("energy_series", "to_similarity"),
    "hypotheses": ("check_hypotheses",),
    "cli": ("run_experiment",),
    "io": ("write_csv", "write_json"),
}
THRESHOLD_CALLERS = ("bisect_lambda", "borderline_probe")


class Tracer:
    def __init__(self):
        self.spans = []              # (span id, parent id, function, start, end)
        self._ids = itertools.count(1)
        self._stack = [0]            # open span ids; 0 is the untraced root
        self.active = Counter()      # function -> open activations
        self.counters = Counter()
        self._seen = defaultdict(set)
        self.first_s = {}            # function -> duration of its first call

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._stack[-1]
            self._stack.append(span_id)
            self.active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.active[name] -= 1
                self._stack.pop()
                self.spans.append((span_id, parent, name, start, end))
                self.first_s.setdefault(name, end - start)
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    def seen_before(self, kind, key) -> bool:
        seen = key in self._seen[kind]
        self._seen[kind].add(key)
        return seen

    # -- counters taken where the work happens ---------------------------------

    def after_solve(self, args, kwargs, traj):
        c = self.counters
        # every benchmark config keeps series_stride = 1, so each RK4 step
        # appends exactly one series row after the initial one
        c["steps"] += len(traj.series) - 1
        c["checkpoints"] += len(traj.checkpoints)
        c[f"stop.{traj.status.kind}"] += 1
        if any(self.active[n] for n in THRESHOLD_CALLERS):
            u0 = args[0] if args else kwargs["u0"]
            c["threshold.solves"] += 1
            amplitude = float(np.max(np.abs(u0.values)))
            if not self.seen_before("amplitude", amplitude):
                c["threshold.distinct_amplitudes"] += 1

    def after_bisect(self, args, kwargs, result):
        self.counters["threshold.trials"] += len(result.trials)
        self.counters["threshold.undecided"] += sum(
            t["verdict"] == "undecided" for t in result.trials)

    def after_probe(self, args, kwargs, probes):
        self.counters["threshold.undecided"] += sum(p.verdict == "undecided" for p in probes)

    def after_morrey(self, args, kwargs, ev):
        from morreyheat.morrey import MorreyLattice
        f = args[0] if args else kwargs["f"]
        lattice = (args[2] if len(args) > 2 else kwargs.get("lattice")) \
            or MorreyLattice.default(f.grid)
        key = (f.grid.n, f.grid.m, f.grid.r_max,
               np.asarray(lattice.centers).tobytes(), np.asarray(lattice.radii).tobytes())
        if self.seen_before("lattice", key):
            self.counters["morrey.repeat_lattice"] += 1

    def after_kernel(self, args, kwargs, mat):
        grid = args[0] if args else kwargs["grid"]
        t = args[1] if len(args) > 1 else kwargs["t"]
        centers = args[2] if len(args) > 2 else kwargs.get("centers")
        key = (grid.n, grid.m, grid.r_max, float(t),
               None if centers is None else np.asarray(centers, dtype=float).tobytes())
        self.counters["heat_kernel_matrix.bytes"] += mat.nbytes
        if self.seen_before("kernel", key):
            self.counters["heat_kernel_matrix.repeat"] += 1
        if self.active["picard_solve"]:
            self.counters["picard.kernel_builds"] += 1

    def after_picard(self, args, kwargs, run):
        self.counters["picard.nodes_used"] += run.nodes_used
        self.counters["picard.iterations"] += run.iterations

    # -- reduction ---------------------------------------------------------------

    def summary(self) -> dict:
        layer_of = {fn: layer for layer, fns in TRACED.items() for fn in fns}
        children = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            children[parent] += end - start
        calls, incl, layers = Counter(), defaultdict(float), defaultdict(float)
        for span_id, _, name, start, end in self.spans:
            calls[name] += 1
            incl[name] += end - start
            layers[layer_of[name]] += (end - start) - children[span_id]
        return {
            "root_s": children[0],
            "functions": {name: {"calls": calls[name], "s": incl[name],
                                 "first_s": self.first_s[name]} for name in calls},
            "layers": dict(layers),
            "counters": dict(self.counters),
        }


def install(tracer: Tracer) -> None:
    """Wrap every traced function in each loaded morreyheat module that binds it."""
    hooks = {"solve": tracer.after_solve, "bisect_lambda": tracer.after_bisect,
             "borderline_probe": tracer.after_probe, "morrey_evaluate": tracer.after_morrey,
             "heat_kernel_matrix": tracer.after_kernel, "picard_solve": tracer.after_picard}
    modules = [m for name, m in sys.modules.items()
               if name == "morreyheat" or name.startswith("morreyheat.")]
    originals = set()
    for layer, names in TRACED.items():
        home = sys.modules[f"morreyheat.{layer}"]
        for name in names:
            original = getattr(home, name)
            originals.add(id(original))
            wrapper = tracer.wrap(name, original, hooks.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
    missed = [f"{mod.__name__}.{attr}" for mod in modules
              for attr, value in vars(mod).items() if id(value) in originals]
    if missed:
        raise RuntimeError(f"untraced bindings left: {missed}")


def main() -> int:
    summary_path, cli_args = sys.argv[1], sys.argv[2:]
    from morreyheat import cli
    tracer = Tracer()
    install(tracer)
    code = cli.main(cli_args)
    with open(summary_path, "w") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
