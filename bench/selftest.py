"""Self-tests of the benchmark's checks, outside the package's test suite.

    python3 bench/selftest.py      (from the root of a checkout)

Each check must reject a corrupted result while accepting the true one:
a marched solution from a perturbed history amplitude, a generator with
eta scaled by 2, and CLI output with one changed byte.  The seed must
change the drawn inputs but not the list of operations.  Exits 0 when every
self-test passes.
"""

from __future__ import annotations

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import catalog  # noqa: E402
import cli  # noqa: E402
import harness  # noqa: E402
import march  # noqa: E402

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        FAILURES.append(what)


def rejects(check, result, state) -> bool:
    """Whether the check refuses the result, as the round loop would count it."""
    try:
        check(result, state)
    except Exception:
        return True
    return False


def context(seed: int, launcher=None) -> harness.Context:
    root = os.getcwd()
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    return harness.Context(seed, harness.Tracer(False), root, os.path.join(root, "src"),
                           out_dir, launcher)


def op_named(w: harness.Workload, name: str) -> harness.Op:
    return next(op for op in w.ops if op.name == name)


def perturbed_history_amplitude(lib) -> None:
    w = march.build(lib, context(3))
    op = op_named(w, "solve A3_5 exact-linear m=256 N=4")
    state: dict = {}
    good = op.call(state)
    expect(not rejects(op.check, good, state), "march accepts the true A3_5 solution")
    p = w.drawn["A3_5"]
    amp = march.orc.a35_amplitude(p["C1"], p["C2"]) * (1.0 + 1e-6)
    entry = lib.dods.catalog(lib.dods.CatalogCase("A3_5", {"C1": p["C1"], "C2": p["C2"]}))
    init = lib.dods.initial_condition(f"{amp!r}*exp(x)", entry.dods.delay, p["x0"])
    cfg = lib.steps.SolverConfig(lib.steps.Scheme.EXACT_LINEAR, step_count=256)
    bad = lib.steps.solve(entry.dods, init, 4, cfg)
    expect(rejects(op.check, bad, {}), "march rejects a history amplitude off by 1e-6")


def doubled_eta(lib) -> None:
    w = catalog.build(lib, context(3))
    state: dict = {}
    entry = op_named(w, "catalog A3_5").call(state)
    op_named(w, "catalog A3_5").check(entry, state)
    op = op_named(w, "check_invariance A3_5 X3")
    expect(not rejects(op.check, op.call(state), state), "catalog accepts X3 of A3_5")
    x3 = entry.algebra[2]
    doubled = lib.symmetry.VectorField(x3.xi, lib.expr.Binary("*", lib.expr.Num(2.0), x3.eta))
    result = lib.symmetry.check_invariance(doubled, entry.dods, catalog.SAMPLES, entry.window)
    expect(rejects(op.check, result, state), "catalog rejects X3 of A3_5 with eta scaled by 2")


def changed_byte(lib) -> None:
    launcher = cli.Launcher()
    try:
        w = cli.build(lib, context(3, launcher))
        op = op_named(w, "cli mesh affine")
        state: dict = {}
        proc = op.call(state)
    finally:
        launcher.close()
    expect(not rejects(op.check, proc, state), "cli accepts the true mesh output")
    out = bytearray(proc.stdout)
    at = out.index(b".", out.index(b"points")) + 1  # first decimal of the first point
    out[at] = ord("0") + (out[at] - ord("0") + 1) % 10
    bad = subprocess.CompletedProcess(proc.args, 0, bytes(out), b"")
    expect(rejects(op.check, bad, state), "cli rejects a later call with one changed byte")
    fresh = op_named(cli.build(lib, context(3)), "cli mesh affine")
    expect(rejects(fresh.check, bad, {}), "cli rejects a first call with one changed digit")


def seed_changes_inputs_only(lib) -> None:
    for module in (march, catalog, cli):
        a, b = module.build(lib, context(1)), module.build(lib, context(2))
        name = module.__name__
        expect([op.name for op in a.ops] == [op.name for op in b.ops],
               f"{name}: seeds 1 and 2 give the same operations")
        expect([op.known_fault for op in a.ops] == [op.known_fault for op in b.ops],
               f"{name}: seeds 1 and 2 give the same known faults")
        expect(a.drawn != b.drawn, f"{name}: seeds 1 and 2 draw different inputs")
        expect(a.drawn == module.build(lib, context(1)).drawn,
               f"{name}: seed 1 draws the same inputs twice")


def main() -> int:
    lib = harness.fresh_import(with_cli=True)
    perturbed_history_amplitude(lib)
    doubled_eta(lib)
    changed_byte(lib)
    seed_changes_inputs_only(lib)
    print(f"{len(FAILURES)} self-test(s) failed" if FAILURES else "all self-tests passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
