"""Seeded end-to-end and per-layer benchmark of reliroute.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid32-od --seed 1 --seconds 16 --trace 0

One client runs the workload's operations in a closed loop, in one process,
with BLAS pinned to one thread.  The run sets up ``SETUP_REPS`` times and
runs the operations round-robin in slices between set-up steps, for
``--seconds`` in all (the last slice runs on to the end of a pass in which
every operation has run), then checks every operation's first result and
that later results repeat it exactly.  An operation's latency is the
median of its samples.  Human-readable lines go first;
the last line of standard output is the JSON result.  ``--trace 1`` wraps
the library's layers (see ``spans.py``) and reports per-layer metrics in
place of the end-to-end ones.  The exit code is 0 only if every check
passed.  See README.md for the method and the figures.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPS = 3
#: Share of ``--seconds`` given to the slice after the last set-up, the only
#: one that runs the operations that set-up adds.
LAST_SHARE = 0.5
#: Seconds between two readings of the calibration probe.
PROBE_EVERY = 1.0


def _import_library():
    """Import reliroute from this checkout's ``src`` and nowhere else."""
    if not (SRC / "reliroute" / "__init__.py").is_file():
        sys.exit(f"run.py: no reliroute sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import reliroute

    if Path(reliroute.__file__).resolve().parent != SRC / "reliroute":
        sys.exit(f"run.py: imported reliroute from {reliroute.__file__}, not {SRC}")


class Clock:
    """Accumulates the time spent inside ``with clock:`` blocks.

    ``between()``, when given, runs after each block and outside the timed
    time: the runner runs a slice of the timed loop there."""

    def __init__(self, between=None):
        self.seconds = 0.0
        self.blocks = 0
        self.between = between

    def __enter__(self):
        self._t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.seconds += time.perf_counter() - self._t0
        self.blocks += 1
        if self.between is not None and exc[0] is None:
            self.between()


def probe() -> float:
    """Seconds for a fixed pure-Python loop: a reading of the machine's speed."""
    t0 = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i
    return time.perf_counter() - t0


class Loop:
    """The timed closed loop, run in slices over the current operation list.

    The cursor walks the list round-robin across slices.  Every result is
    kept for the check: the first one of each operation is checked after the
    loop, and every later one must repeat it exactly."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.ops = []
        self.cursor = 0
        self.samples, self.first, self.attempts, self.errors = {}, {}, {}, {}
        self.probes, self.last_probe = [], 0.0
        self.seconds = 0.0

    def run(self, budget: float, last: bool = False) -> None:
        """Run operations for ``budget`` seconds.  The ``last`` slice ends
        only on a pass boundary once every operation has run, so a run is
        whole passes of the operations."""
        tracer, ops = self.tracer, self.ops
        phase = tracer.phase
        t_start = time.perf_counter()
        while True:
            if self.cursor == len(ops):
                self.cursor = 0
                if last and time.perf_counter() - t_start >= budget and len(self.attempts) == len(ops):
                    break
            k, op = self.cursor, ops[self.cursor]
            self.cursor += 1
            if time.perf_counter() - self.last_probe >= PROBE_EVERY:
                self.probes.append(probe())
                self.last_probe = time.perf_counter()
            tracer.phase = "loop" if k in self.first else "loop-first"
            tracer.op = k
            self.attempts[k] = self.attempts.get(k, 0) + 1
            with tracer.span("bench.op"):
                t0 = time.perf_counter()
                try:
                    result = op.run()
                except Exception as exc:  # an operation that raises counts as failed
                    self.errors.setdefault(k, []).append(f"raised {type(exc).__name__}: {exc}")
                    result = None
                elapsed_op = time.perf_counter() - t0
            if result is not None:
                self.samples.setdefault(k, []).append(elapsed_op)
                if k not in self.first:
                    self.first[k] = result
                elif op.fingerprint(result) != op.fingerprint(self.first[k]):
                    self.errors.setdefault(k, []).append("result differs from the first run")
            if not last and time.perf_counter() - t_start >= budget:
                break
        tracer.phase, tracer.op = phase, None
        self.seconds += time.perf_counter() - t_start


def measure(wl, seconds: float, tracer):
    """Set up ``SETUP_REPS`` times and run the timed loop in slices between
    set-up steps, so that set-up and operation samples are spread over the
    whole run; then check.  Returns the run record.

    A slice runs after set-up 0, after each timed step of the later set-ups
    (on the operations of the set-ups before), and after the last set-up.
    The last slice gets ``LAST_SHARE`` of ``seconds`` and runs on to the end
    of a pass in which every operation has run; the earlier slices share the
    rest of ``seconds`` evenly.
    """
    loop = Loop(tracer)
    setup_s = []
    slice_s = 0.0
    for rep in range(SETUP_REPS):
        tracer.phase = f"setup{rep}"
        clock = Clock(between=(lambda: loop.run(slice_s)) if rep else None)
        with tracer.span("bench.setup"):
            wl.setup(rep, clock)
        setup_s.append(clock.seconds)
        loop.ops = wl.operations()
        if rep == 0:
            tracer.phase = "warmup"
            loop.ops[0].run()
            slices = 1 + (SETUP_REPS - 1) * clock.blocks
            slice_s = seconds * (1.0 - LAST_SHARE) / slices
            loop.run(slice_s)
    loop.run(seconds * LAST_SHARE, last=True)

    tracer.phase = "check"
    errors, check_errors = loop.errors, []
    for k, result in sorted(loop.first.items()):
        bad = loop.ops[k].check(result)
        if bad:
            errors.setdefault(k, []).extend(bad)
            check_errors.extend(f"op {k}: {msg}" for msg in bad)
    check_errors.extend(wl.global_checks())
    return {
        "setup_s": setup_s,
        "samples": [loop.samples[k] for k in sorted(loop.samples)],
        "errors": errors,
        "check_errors": check_errors,
        "attempted": sum(loop.attempts.values()),
        "failed": sum(loop.attempts[k] for k in errors),
        "loop_s": loop.seconds,
        "probes": loop.probes,
    }


def end_to_end(wl, rec) -> dict:
    latency = [statistics.median(s) for s in rec["samples"] if s]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(rec["setup_s"]), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "query_p50_ms": (statistics.median(latency) * 1e3, "ms"),
        "query_tail_ms": (float(np.percentile(latency, wl.tail_percentile)) * 1e3, "ms"),
        "queries_per_s": (len(latency) / sum(latency), "1/s"),
    }


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def per_layer(wl, tracer) -> dict:
    """Per-layer metrics derived from the traced run's spans (README lists
    what each one measures and which end-to-end metric it should move)."""
    spans = tracer.spans
    own = tracer.self_seconds()
    setups = [f"setup{r}" for r in range(SETUP_REPS)]
    timed = [sp for sp in spans if sp.phase not in ("check", "warmup")]

    def parent_name(sp):
        return spans[sp.parent].name if sp.parent >= 0 else ""

    def per_setup(select):
        return [sum(select(sp) for sp in timed if sp.phase == ph) for ph in setups]

    def named(name):
        return lambda sp: sp.seconds if sp.name == name else 0.0

    solves = [sp for sp in timed if sp.name == "policy.solve"]
    direct = [sp for sp in solves if not parent_name(sp).startswith("potentials.")]
    in_loop = lambda sp: sp.phase.startswith("loop")
    first = lambda sp: sp.phase in ("setup0", "loop-first")
    searches = [sp for sp in timed if sp.name == "pathsearch.search" and in_loop(sp)]
    searches0 = [sp for sp in searches if sp.phase == "loop-first"]
    loop_ops = [sp for sp in timed if sp.name == "bench.op"]
    tables = [sp for sp in timed if sp.name == "potentials.table"]
    under_tables = [sp for sp in timed if parent_name(sp) == "potentials.table"]

    def mean0(key):
        return sum(sp.data[key] for sp in searches0) / len(searches0) if searches0 else 0.0

    out = {
        "synth.graph_s": (_median(per_setup(named("synth.graph"))), "s"),
        "network.load_s": (_median(per_setup(named("network.load"))), "s"),
        "harness.instances_s": (_median(per_setup(
            lambda sp: sp.seconds if sp.name.startswith("harness.")
            and not parent_name(sp).startswith("harness.") else 0.0)), "s"),
        "policy.solve_ms_p50": (_median([sp.seconds for sp in direct]) * 1e3, "ms"),
        "policy.solve_s": (statistics.fmean([sp.seconds for sp in direct]) if direct else 0.0, "s"),
        "policy.edge_bins": (sum(sp.data["edge_bins"] for sp in direct if first(sp)), "count"),
        "policy.edge_bins_per_s": (
            sum(sp.data["edge_bins"] for sp in solves) / sum(sp.seconds for sp in solves)
            if solves else 0.0, "1/s"),
        "policy.table_mb": (
            max([sp.data["table_mb"] for sp in direct if sp.phase == "loop-first"], default=0.0), "MB"),
        "policy.query_share": (
            sum(sp.seconds for sp in direct if in_loop(sp)) / sum(sp.seconds for sp in loop_ops), "ratio"),
        "pathsearch.search_ms_p50": (_median([sp.seconds for sp in searches]) * 1e3, "ms"),
        "pathsearch.popped": (mean0("popped"), "count"),
        "pathsearch.pushed": (mean0("pushed"), "count"),
        "pathsearch.queue_peak": (mean0("queue_peak"), "count"),
        "pathsearch.us_per_push": (
            sum(sp.seconds for sp in searches) / max(sum(sp.data["pushed"] for sp in searches), 1) * 1e6, "us"),
        "pathsearch.pops_per_path_edge": (
            sum(sp.data["popped"] for sp in searches0)
            / max(sum(sp.data["path_edges"] for sp in searches0), 1), "ratio"),
    }
    for kind in ("policy", "conditioned", "path"):
        out[f"potentials.{kind}_table_s"] = (_median([
            sp.seconds for sp in tables if sp.data["kind"] == kind]), "s")
    reps = len([ph for ph in setups if any(sp.phase == ph for sp in tables)]) or 1
    out.update({
        "potentials.policy_s": (_median(per_setup(
            lambda sp: sp.seconds if sp.name == "policy.solve" and parent_name(sp) == "potentials.table" else 0.0)), "s"),
        "potentials.policy_calls": (
            sum(sp.name == "policy.solve" for sp in under_tables) / reps, "count"),
        "potentials.realizability_s": (_median(per_setup(named("potentials.realizability"))), "s"),
        "potentials.realizability_states": (
            sum(sp.data["states"] for sp in timed if sp.name == "potentials.realizability"), "count"),
        "potentials.search_calls": (
            sum(sp.name == "pathsearch.search" for sp in under_tables), "count"),
        "potentials.self_s": (_median([
            sum(own[i] for i, sp in enumerate(spans) if sp.name == "potentials.table" and sp.phase == ph)
            for ph in setups]) if tables else 0.0, "s"),
        "potentials.activity_mb": (max([sp.data["activity_mb"] for sp in tables], default=0.0), "MB"),
    })
    figures = wl.layer_figures()
    for kind in ("policy", "conditioned", "path"):
        name = f"potentials.kept_edges_{kind}"
        out[name] = (figures.get(name, 0.0), "count")
    return out


def install_tracing(tracer) -> None:
    from reliroute import harness, network, pathsearch, policy, potentials, synth

    def solve_counts(sp, args, kwargs, table):
        graph, dest, horizon = args[0], args[1], args[2]
        mask = kwargs.get("edge_mask")
        active = graph.edge_tails != graph.node_index(dest)
        if mask is not None:
            active = active & np.asarray(mask, dtype=bool)
        sp.data["edge_bins"] = int(active.sum()) * (int(horizon) + 1)
        sp.data["table_mb"] = (table.u.nbytes + table.w.nbytes) / 1e6

    def search_counts(sp, args, kwargs, report):
        sp.data.update(popped=report.popped, pushed=report.pushed, queue_peak=report.queue_peak,
                       path_edges=sum(len(p.edges) for p in report.paths))

    def table_counts(sp, args, kwargs, table):
        kind = table.mode if table.mode == "path" or table.sources is None else "conditioned"
        sp.data.update(kind=kind, activity_mb=len(table.phi) * (table.horizon + 1) / 1e6)

    def realizability_counts(sp, args, kwargs, flags):
        sp.data["states"] = int(flags.reached.sum())

    tracer.wrap(synth, "synthesize_distributions", "synth.graph")
    tracer.wrap(network, "load_graph", "network.load")
    tracer.wrap(harness, "let_path", "harness.let_path")
    for module in (policy, potentials):
        tracer.wrap(module, "compute_policy", "policy.solve", solve_counts)
    for module in (pathsearch, potentials):
        tracer.wrap(module, "sota_path_report", "pathsearch.search", search_counts)
    tracer.wrap(potentials, "compute_arc_potentials", "potentials.table", table_counts)
    tracer.wrap(potentials, "compute_realizability", "potentials.realizability", realizability_counts)
    tracer.wrap(potentials, "prune", "potentials.prune")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_library()
    from spans import NullTracer, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, OUT)
    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        install_tracing(tracer)
    try:
        rec = measure(wl, args.seconds, tracer)
    finally:
        wl.cleanup()
        if args.trace:
            tracer.restore()

    e2e = end_to_end(wl, rec)
    metrics = per_layer(wl, tracer) if args.trace else e2e
    if args.trace:
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")

    probes = [p * 1e3 for p in rec["probes"]]
    per_op = [len(s) for s in rec["samples"]]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"operations {len(per_op)}  samples per operation {min(per_op)}-{max(per_op)}  "
          f"attempted {rec['attempted']}  failed {rec['failed']}  "
          f"loop {rec['loop_s']:.1f} s  tail percentile {wl.tail_percentile:.2f}")
    print("set-ups (s): " + ", ".join(f"{s:.3f}" for s in rec["setup_s"]))
    print(f"calibration probe (ms, {len(probes)} readings): median {statistics.median(probes):.2f}  "
          f"min {min(probes):.2f}  max {max(probes):.2f}")
    for name, value in wl.reference.items():
        print(f"reference: {name} = {value:.4g}")
    if args.trace:
        for name, (value, unit) in e2e.items():
            print(f"  traced {name} = {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for msg in rec["check_errors"][:20]:
        print(f"CHECK FAILED: {msg}")
    for k, msgs in sorted(rec["errors"].items())[:20]:
        print(f"op {k} failed: {msgs[0]}")

    correct = not rec["check_errors"]
    result = {
        "correct": correct,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
