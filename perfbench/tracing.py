"""Traced in-process replay: per-layer metrics from spans and counts.

The replay calls ``normalhst.cli.main`` for each operation with stdout
captured.  For a traced pass the public functions named in ``LAYERS``
are wrapped, under the same name, in the module that defines them and in
every ``normalhst`` module that imported them, so calls made through
either name are seen.  A wrapper records a span (name, start, end,
parent) in memory, and some also add to counters.  A span's self time
is its duration minus the time covered by its child spans; each ``_s``
layer metric is a self time.  ``cli.self_s`` is ``cli.main`` minus its
layer spans.  The replayed list is the workload's operations followed by
``workloads.coverage``, a small fixed list that runs every layer, and
each traced pass ends with a fixed seeded batch of ``random_descent``,
so every per-layer metric is measured on every workload.  Untraced
passes alternate with traced ones, and the ratio of their median wall
times (traced over untraced) gives the tracing overhead.  Nothing is
changed in the program's files.
"""

import contextlib
import functools
import importlib
import io
import os
import random
import statistics
import sys
import time

import check


def _total(v):
    return sum(x for part in v.tets for group in part for x in group)


# (module, function, span name or None for count only, counter).  A
# counter is (metric, function of (args, result) giving the increment).
LAYERS = (
    ("cli", "main", "cli", None),
    ("triangulation", "parse_triangulation", "triangulation.parse", None),
    ("triangulation", "compute_skeleton", "triangulation.skeleton", None),
    ("triangulation", "validate_manifold", "triangulation.validate", None),
    ("normal_surfaces", "matching_system", "normal_surfaces.matching_system",
     None),
    ("normal_surfaces", "check_admissible", "normal_surfaces.check_admissible",
     ("normal_surfaces.check_admissible_calls", lambda a, r: 1)),
    ("normal_surfaces", "reconstruct_surface", "normal_surfaces.reconstruct",
     ("normal_surfaces.pieces", lambda a, r: _total(a[1]))),
    ("enumeration", "extreme_rays", "enumeration.extreme_rays",
     ("enumeration.rays_out", lambda a, r: len(r))),
    ("enumeration", "enumerate_vertex_surfaces", None,
     ("enumeration.admissible", lambda a, r: len(r))),
    ("enumeration", "brute_force_enumerate", "enumeration.brute_force", None),
    ("enumeration", "is_extreme_ray", "enumeration.rank_oracle", None),
    ("curve_patterns", "decompose_pattern", "curve_patterns.decompose",
     ("curve_patterns.arcs", lambda a, r: sum(a[0].counts))),
    ("curve_patterns", "check_348", "curve_patterns.check_348",
     ("curve_patterns.check_348_calls", lambda a, r: 1)),
    ("hst", "is_minimal_reachable", "hst.search",
     ("hst.states", lambda a, r: r.states_explored)),
    ("hst", "legal_rewrites", None,
     ("hst.successors", lambda a, r: len(r))),
    ("hst", "random_descent", "hst.random_descent", None),
    ("thin_position", "thin_position_search", "thin_position.search",
     ("thin_position.states", lambda a, r: r.states_explored)),
)

COUNTS = ("normal_surfaces.check_admissible_calls", "enumeration.rays_out",
          "curve_patterns.check_348_calls", "hst.states", "thin_position.states")
# (metric, counter, span self time or counter it is divided by, unit).
RATES = (
    ("normal_surfaces.pieces_per_s", "normal_surfaces.pieces",
     "normal_surfaces.reconstruct", "1/s"),
    ("curve_patterns.arcs_per_s", "curve_patterns.arcs",
     "curve_patterns.decompose", "1/s"),
    ("enumeration.admissible_ratio", "enumeration.admissible",
     "enumeration.rays_out", "ratio"),
    ("hst.states_per_s", "hst.states", "hst.search", "1/s"),
    ("hst.new_state_ratio", "hst.states", "hst.successors", "ratio"),
)
DESCENT_RUNS = 400        # fixed seeded batch of random descents


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.current = None
        self.counts = {}
        self._patched = []

    def wrap(self, fn, span, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = None
            if span:
                index = len(tracer.spans)
                parent = tracer.current
                tracer.spans.append([span, time.perf_counter(), None, parent])
                tracer.current = index
            try:
                result = fn(*args, **kwargs)
            finally:
                if index is not None:
                    tracer.spans[index][2] = time.perf_counter()
                    tracer.current = parent
            if counter:
                name, increment = counter
                tracer.counts[name] = tracer.counts.get(name, 0) \
                    + increment(args, result)
            return result
        return wrapper

    def __enter__(self):
        loaded = [m for name, m in sorted(sys.modules.items())
                  if name == "normalhst" or name.startswith("normalhst.")]
        for module_name, attr, span, counter in LAYERS:
            home = importlib.import_module(f"normalhst.{module_name}")
            original = getattr(home, attr)
            wrapper = self.wrap(original, span, counter)
            for module in loaded:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def self_times(self):
        """Self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
        return out


def replay(ops):
    """Run every operation in process; (wall, failures, output bytes)."""
    from normalhst import cli
    reasons, out_bytes = [], 0
    start = time.perf_counter()
    for op in ops:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(op["argv"])
        except Exception as exc:     # a crash fails the operation, not the run
            code, reason = None, f"raised {type(exc).__name__}: {exc}"
        stdout = out.getvalue()
        out_bytes += len(stdout.encode())
        if code is not None:
            reason = check.check(op, code, stdout)
        if reason is not None:
            reasons.append(f"{' '.join(op['argv'])}: {reason}")
    return time.perf_counter() - start, reasons, out_bytes


def descent_batch(seed):
    """A fixed seeded batch of random descents, as criterion 5 runs them."""
    from normalhst import hst
    rng = random.Random(f"descent-{seed}")
    for _ in range(DESCENT_RUNS):
        hst.random_descent(hst.random_splitting(rng), rng)


def run(ops, seed, seconds, root):
    """Alternate untraced and traced replays of ``ops`` for ``seconds``."""
    sys.path.insert(0, os.path.join(root, "src"))
    importlib.import_module("normalhst.cli")     # import outside the timing
    untraced, traced, layer_runs, reasons = [], [], [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        wall, failures, _ = replay(ops)
        untraced.append(wall)
        reasons += failures
        with Tracer() as tracer:
            wall, failures, out_bytes = replay(ops)
            descent_batch(seed)
        traced.append(wall)
        reasons += failures
        attempted += 2 * len(ops)
        layer_runs.append(_layer_metrics(tracer, out_bytes))
        elapsed = time.perf_counter() - start
        if elapsed + (elapsed / len(traced)) > seconds:
            break

    metrics = {name: (statistics.median(run[name][0] for run in layer_runs),
                      layer_runs[0][name][1])
               for name in layer_runs[0]}
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced), "ratio")
    notes = [f"replays {len(traced)} traced and {len(untraced)} untraced, "
             f"operations per replay {len(ops)}",
             f"untraced replay {statistics.median(untraced):.4f} s, "
             f"traced {statistics.median(traced):.4f} s"]
    return metrics, attempted, len(reasons), reasons, notes


def _layer_metrics(tracer, out_bytes):
    self_s = tracer.self_times()
    counts = tracer.counts
    m = {f"{span}_s": (value, "s") for span, value in self_s.items()}
    m["cli.self_s"] = m.pop("cli_s")
    m["cli.output_bytes"] = (out_bytes, "bytes")
    for name in COUNTS:
        if name in counts:
            m[name] = (counts[name], "count")
    recorded = {**self_s, **counts}
    for name, counter, divisor, unit in RATES:
        if counter in counts and recorded.get(divisor):
            m[name] = (counts[counter] / recorded[divisor], unit)
    return m
