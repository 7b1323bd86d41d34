"""delaysym benchmark: one workload per run, from the root of a checkout.

    python3 bench/run.py --workload march --seed 1 --seconds 30 --trace 0

Imports delaysym from the checkout's `src`, builds the workload's inputs
from the seed (timed as set-up, several times), runs whole rounds of the
workload's operations for about `--seconds`, checks every output, and
prints one JSON line: end-to-end metrics with `--trace 0`, per-layer
metrics from spans with `--trace 1`.  Result and trace files go to
bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import catalog  # noqa: E402
import cli  # noqa: E402
import harness  # noqa: E402
import march  # noqa: E402
import probes  # noqa: E402

# workload -> (module with its build function, whether set-up imports delaysym.cli)
WORKLOADS = {"march": (march, False), "catalog": (catalog, False), "cli": (cli, True)}
SETUP_REPEATS = 21

LAYERS = ("expr", "delay", "dods", "steps", "numerics", "symmetry", "reduction", "cli")

# per-layer metric -> (unit, rule, span name, argument); see layer_metrics
PER_LAYER = {
    "expr.evaluate_ns": ("ns", "median", "expr.evaluate", 1.0),
    "expr.evaluate_manifold_ns": ("ns", "median", "expr.evaluate[manifold]", 1.0),
    "expr.parse_us": ("us", "median", "expr.parse", 1e-3),
    "delay.build_mesh_us": ("us", "median", "delay.build_mesh", 1e-3),
    "delay.build_mesh_general_us": ("us", "median", "delay.build_mesh[general]", 1e-3),
    "dods.catalog_ms": ("ms", "median", "dods.catalog", 1e-6),
    "dods.rhs_value_ns": ("ns", "median", "dods.Dods.rhs_value", 1.0),
    "steps.solve_exact_s": ("s", "median", "steps.solve[exact-linear]", 1e-9),
    "steps.solve_rk4_s": ("s", "median", "steps.solve[rk4]", 1e-9),
    "steps.exact_steps_per_s": ("1/s", "rate", "steps.solve[exact-linear]", "steps"),
    "steps.rk4_steps_per_s": ("1/s", "rate", "steps.solve[rk4]", "steps"),
    "steps.residual_scan_s": ("s", "median", "steps.residual_scan", 1e-9),
    "steps.segment_evaluate_ns": ("ns", "median", "steps.Segment.evaluate", 1.0),
    "steps.eval_ns": ("ns", "median", "steps.PiecewiseSolution.eval", 1.0),
    "steps.intervals": ("count", "count", "steps.solve[", "intervals"),
    "steps.nodes": ("count", "count", "steps.solve[", "nodes"),
    "numerics.adaptive_simpson_evals": ("count", "mean", "numerics.adaptive_simpson", "evals"),
    "numerics.hybrid_root_us": ("us", "median", "numerics.hybrid_root", 1e-3),
    "symmetry.check_invariance_ms": ("ms", "median", "symmetry.check_invariance", 1e-6),
    "symmetry.prolong_apply_us": ("us", "median", "symmetry.prolong_apply", 1e-3),
    "symmetry.char_roots_us": ("us", "median", "symmetry.char_roots", 1e-3),
    "symmetry.vertical_from_solution_ms": ("ms", "median", "symmetry.vertical_from_solution",
                                           1e-6),
    "symmetry.generators_checked": ("count", "count", "symmetry.check_invariance",
                                    "generators"),
    "reduction.families_us": ("us", "median", "reduction.families", 1e-3),
    "reduction.solve_constraints_us": ("us", "median", "reduction.solve_constraints", 1e-3),
    "reduction.verify_ms": ("ms", "median", "reduction.verify", 1e-6),
    "reduction.families_solved": ("count", "count", "reduction.solve_constraints", "solved"),
    "cli.interpreter_ms": ("ms", "median", "cli.interpreter", 1e-6),
    "cli.import_ms": ("ms", "above", "cli.import", "cli.interpreter"),
    "cli.main_ms": ("ms", "median", "cli.main", 1e-6),
}
PER_LAYER.update({f"{layer}.failed": ("count", "failed", layer + ".", None)
                  for layer in LAYERS})


def layer_metrics(tracer: harness.Tracer) -> dict:
    """Per-layer figures from the spans of the traced run.

    Times are medians of self time over the calls of one public function,
    taken from the rounds when the rounds made that call and from the probe
    pass otherwise; failed calls are left out.  Rates divide counted work by
    self time.  Counts and failures cover the first round plus the probe
    pass, so they do not depend on how many rounds fit into the run."""
    spans = tracer.spans
    self_ns = tracer.self_times_ns()
    roots = [tracer.root_of(i) for i in range(len(spans))]
    first_round = next(i for i, s in enumerate(spans) if s.name == "round")
    probe_root = next(i for i, s in enumerate(spans) if s.name == "probes")
    in_round = [i for i in range(len(spans)) if spans[roots[i]].name == "round"]
    in_probes = [i for i in range(len(spans)) if roots[i] == probe_root]
    once = [i for i in range(len(spans)) if roots[i] in (first_round, probe_root)]

    def calls(name: str) -> list[int]:
        for pool in (in_round, in_probes):
            found = [i for i in pool if spans[i].name == name and not spans[i].failed]
            if found:
                return found
        raise KeyError(f"no span named {name}")

    def median_ns(name: str) -> float:
        return statistics.median(self_ns[i] for i in calls(name))

    out = {}
    for metric, (unit, rule, name, arg) in PER_LAYER.items():
        if rule == "median":
            value = median_ns(name) * arg
        elif rule == "above":
            value = (median_ns(name) - median_ns(arg)) * 1e-6
        elif rule == "rate":
            idx = calls(name)
            value = sum(spans[i].counts[arg] for i in idx) / (sum(self_ns[i] for i in idx) * 1e-9)
        elif rule == "mean":
            idx = calls(name)
            value = sum(spans[i].counts[arg] for i in idx) / len(idx)
        elif rule == "count":
            value = sum((spans[i].counts or {}).get(arg, 0) for i in once
                        if spans[i].name.startswith(name))
        else:  # failed
            value = sum(1 for i in once if spans[i].failed and spans[i].name.startswith(name))
        out[metric] = {"value": value, "unit": unit}
    return out


def end_to_end(setup_times, rounds, launcher) -> dict:
    """`peak_rss_mib` is the largest child's on cli (see launcher.py)."""
    latencies = [lat for r in rounds for lat in r.latencies]
    peak_kib = (launcher.peak_kib if launcher is not None
                else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "wall_s": {"value": statistics.median(r.seconds for r in rounds), "unit": "s"},
        "op_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
        "op_p90_ms": {"value": statistics.quantiles(latencies, n=10, method="inclusive")[8]
                      * 1e3, "unit": "ms"},
        "peak_rss_mib": {"value": peak_kib / 1024.0, "unit": "MiB"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "delaysym", "__init__.py")):
        print(f"bench: no delaysym sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.dont_write_bytecode = False  # import as an installed package would
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)

    # one core for the run and its children, so that the host-speed slices
    # sample the core the measured work ran on
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        except OSError as exc:
            print(f"bench: running unpinned: {exc}", file=sys.stderr)
    tracer = harness.Tracer(args.trace == 1)
    launcher = cli.Launcher() if args.workload == "cli" else None
    try:
        return measure(args, harness.Context(args.seed, tracer, root, src, out_dir, launcher))
    finally:
        if launcher is not None:
            launcher.close()


def measure(args, ctx: harness.Context) -> int:
    tracer, src, out_dir = ctx.tracer, ctx.src, ctx.out_dir
    module, with_cli = WORKLOADS[args.workload]
    setup_times, setup_scales, lib, w = harness.timed_setup(
        lambda lib: module.build(lib, ctx), with_cli, SETUP_REPEATS)
    where = os.path.dirname(os.path.abspath(sys.modules["delaysym"].__file__))
    if os.path.commonpath([where, src]) != src:
        print(f"bench: imported delaysym from {where}, not from {src}", file=sys.stderr)
        return 2

    rounds = harness.run_rounds(w.ops, args.seconds, tracer)
    attempted = sum(len(r.latencies) for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    known = {op.name for op in w.ops if op.known_fault}
    unexpected = [f for f in failures if f[0] not in known]
    for name, reason in sorted(set(failures)):
        tag = "known fault" if name in known else "FAILED"
        print(f"bench: {tag}: {name}: {reason}", file=sys.stderr)

    if tracer.enabled:
        probes.run(lib, w, ctx)
        metrics = layer_metrics(tracer)
        trace_path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "wall_s_traced": statistics.median(r.seconds for r in rounds),
                       "round_s": [r.seconds for r in rounds], "metrics": metrics,
                       "spans": tracer.to_json_obj()}, fh)
    else:
        metrics = end_to_end(setup_times, rounds, ctx.launcher)

    result = {"correct": not unexpected, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    detail = {**result, "workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": len(rounds), "round_s": [r.seconds for r in rounds],
              "round_scale": [r.scale for r in rounds],
              "setup_s": setup_times, "setup_scale": setup_scales,
              "failures": sorted(set(failures)), "drawn": w.drawn}
    with open(os.path.join(out_dir, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
