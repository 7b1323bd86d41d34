"""Layer probes of the traced run.

After the workload's rounds, the traced run calls each module's public
functions directly on the workload's own inputs, one span per call, so every
per-layer metric exists on every workload.  A metric is taken from the
rounds' spans when the rounds made that call, and from these probes
otherwise.  Probes run only with tracing on and never feed end-to-end
metrics.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import random
import subprocess
import sys

import cli

PROBE_STEPS = 64  # step count of the probe solves and of "the solve nodes"
REPEAT = 5
FALLBACK_GENERAL = "x - 1 - 0.1*sin(x)"


def run(lib, w, ctx) -> None:
    T = ctx.tracer
    ex, delay, dods, steps = lib.expr, lib.delay, lib.dods, lib.steps
    sym, red, num = lib.symmetry, lib.reduction, lib.numerics
    root = T.begin("probes")

    entries = [T.call("dods.catalog", dods.catalog, case) for case in w.cases]

    # expr: parse the workload's texts; evaluate coefficient, history and
    # manifold trees and their derivatives where the solver evaluates them
    for _ in range(REPEAT):
        for text, names in w.texts:
            T.call("expr.parse", ex.parse, text, names)
    meshes = []
    for s in w.setups:
        name = ("delay.build_mesh[general]" if isinstance(s.dods.delay, delay.GeneralDelay)
                else "delay.build_mesh")
        for _ in range(REPEAT):
            mesh = T.call(name, delay.build_mesh, s.dods.delay, s.x0, s.intervals)
        meshes.append(mesh)
    if not any(isinstance(s.dods.delay, delay.GeneralDelay) for s in w.setups):
        general = T.call("delay.parse_delay_spec", delay.parse_delay_spec,
                         f'general("{FALLBACK_GENERAL}")')
        for _ in range(REPEAT):
            T.call("delay.build_mesh[general]", delay.build_mesh, general, 0.0, 8)

    for s, mesh in zip(w.setups, meshes):
        history = _nodes(mesh.points[0], mesh.points[1])
        interval = _nodes(mesh.points[1], mesh.points[2])
        phi = T.call("expr.parse", ex.parse, s.phi, ("x",))
        trees = [(phi, history)]
        if isinstance(s.dods.rhs, dods.LinearRhs):
            trees += [(t, interval) for t in (s.dods.rhs.alpha, s.dods.rhs.beta,
                                              s.dods.rhs.gamma)]
        trees += [(T.call("expr.differentiate", ex.differentiate, t, "x"), nodes)
                  for t, nodes in trees]
        for tree, nodes in trees:
            for u in nodes:
                T.call("expr.evaluate", ex.evaluate, tree, {"x": u})
        for u in interval:
            T.call("dods.Dods.rhs_value", s.dods.rhs_value, u, 1.0, 0.5)

    for e in entries:
        manifold = e.dods.rhs_manifold
        trees = [manifold] + [T.call("expr.differentiate", ex.differentiate, manifold, v)
                              for v in ("x", "y", "xm", "ym")]
        for x, y, xm, ym in _manifold_points(T, e):
            env = {"x": x, "y": y, "xm": xm, "ym": ym}
            for tree in trees:
                T.call("expr.evaluate[manifold]", ex.evaluate, tree, env)

    # steps: both schemes on every set-up, then segment lookups and scans
    solutions = []
    for s in w.setups:
        init = T.call("dods.initial_condition", dods.initial_condition, s.phi,
                      s.dods.delay, s.x0)
        n = min(s.intervals, 2)
        for scheme in ("exact-linear", "rk4"):
            cfg = steps.SolverConfig(steps.Scheme(scheme), step_count=PROBE_STEPS)
            sol = T.call(f"steps.solve[{scheme}]", steps.solve, s.dods, init, n, cfg,
                         counts={"steps": PROBE_STEPS * n, "intervals": n,
                                 "nodes": (n + 1) * (PROBE_STEPS + 1)})
            T.call("steps.residual_scan", steps.residual_scan, sol, s.dods)
            solutions.append(sol)
    for sol in solutions:
        for seg in sol.segments:
            for u in _nodes(seg.lo, seg.hi, 16):
                T.call("steps.Segment.evaluate", seg.evaluate, u)
        for u in list(sol.mesh.points) + _nodes(sol.x_start, sol.x_end, 64):
            T.call("steps.PiecewiseSolution.eval", sol.eval, u)

    # numerics: quadrature over one step of each alpha, counted through a
    # wrapped integrand; root searches on the families' existence equations
    for s, mesh in zip(w.setups, meshes):
        if not isinstance(s.dods.rhs, dods.LinearRhs):
            continue
        a, b = mesh.points[1], mesh.points[2]
        calls = [0]
        alpha = s.dods.rhs.alpha

        def integrand(u, alpha=alpha, calls=calls):
            calls[0] += 1
            return ex.evaluate(alpha, {"x": u})

        T.call("numerics.adaptive_simpson", num.adaptive_simpson, integrand, a,
               a + (b - a) / PROBE_STEPS, counts=lambda _, calls=calls: {"evals": calls[0]})
    for f, lo, hi in _existence_equations(w):
        for _ in range(REPEAT):
            bracket = T.call("numerics.scan_bracket", num.scan_bracket, f, lo, hi)
            T.call("numerics.hybrid_root", num.hybrid_root, f, *bracket)

    # symmetry: prolongations at manifold points, a short invariance check
    # per entry, characteristic roots, a vertical field from a solution
    for e in entries:
        points = _manifold_points(T, e, count=8)
        for v in e.algebra:
            for x, y, xm, ym in points:
                ydot = T.call("dods.Dods.rhs_value", e.dods.rhs_value, x, y, ym)
                T.call("symmetry.prolong_apply", sym.prolong_apply, v, e.dods,
                       (x, y, xm, ym, ydot))
        T.call("symmetry.check_invariance", sym.check_invariance, e.algebra[0], e.dods,
               50, e.window, counts={"generators": 1})
    for c in (0.5, 1.0, 2.0):
        T.call("symmetry.char_roots", sym.char_roots, c, 5)
    smooth = dods.Dods(dods.LinearRhs(ex.Num(1.0), ex.Num(-1.0), ex.Num(0.0)),
                       delay.ConstantDelay(1.0))
    init = T.call("dods.initial_condition", dods.initial_condition, "(x + 1)^2",
                  smooth.delay, 0.0)
    cfg = steps.SolverConfig(steps.Scheme.EXACT_LINEAR, step_count=256)
    sol = T.call("steps.solve@vertical", steps.solve, smooth, init, 2, cfg)
    for _ in range(REPEAT):
        T.call("symmetry.vertical_from_solution", sym.vertical_from_solution, sol, smooth)

    # reduction: families, constraints, closed forms and their verification
    for e in entries:
        for _ in range(REPEAT):
            T.call("reduction.families", red.families, e.case)
        for fam in e.families:
            c = T.call("reduction.solve_constraints", red.solve_constraints, fam,
                       counts=lambda c: {"solved": int(c.status is red.Status.SOLVED)})
            solved = c.status is red.Status.SOLVED
            moved = c.params.get("C", None) not in (None, (e.case.params or {}).get("C"))
            if solved and not moved:
                y, _ = T.call("reduction.build_solution", red.build_solution, fam, c)
                T.call("reduction.verify", red.verify, y, e.dods, e.window)

    # cli: bare interpreter, import on top of it, and main() in process
    env = cli.child_env(ctx.src)
    for _ in range(2 * REPEAT):  # alternating, so both see the same host
        for name, code in (("cli.interpreter", "pass"), ("cli.import", "import delaysym.cli")):
            T.call(name, subprocess.run, [sys.executable, "-c", code], cwd=ctx.root,
                   env=env, capture_output=True, timeout=60, check=True)
    cli_module = importlib.import_module("delaysym.cli")
    solution_file = os.path.join(ctx.out_dir, f"probe-solution-{ctx.seed}.json")
    for label, argv in cli.argvs(cli.draw(random.Random(ctx.seed)), solution_file):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = T.call("cli.main", cli_module.main, argv)
        if code != 0:
            raise RuntimeError(f"cli.main {argv} exited {code}")
        if label == "solve json A4_12":
            with open(solution_file, "w", encoding="utf-8") as fh:
                fh.write(out.getvalue())
    T.end(root)


def _nodes(a: float, b: float, m: int = PROBE_STEPS) -> list[float]:
    return [a + (b - a) * j / m for j in range(m + 1)]


def _manifold_points(T, e, count: int = 16):
    lo, hi = e.window
    out = []
    for i in range(count):
        x = lo + (hi - lo) * (i + 0.5) / count
        xm = T.call("delay.delayed_point", e.dods.delay.delayed_point, x)
        out.append((x, 0.5 + 0.1 * i, xm, -0.3 + 0.05 * i))
    return out


def _existence_equations(w):
    """Rate equations of A3_13 X1+aX3 and A4_21 aY1+Y4 with the workload's
    constants (defaults where the workload has no such case), and the ratio
    equation ln|C| = C - 1 of A4_21 Y1±Y2."""
    p13 = next((dict(c.params) for c in w.cases if c.id == "A3_13"), {"C1": 2.0, "C2": 1.0})
    c21 = next((c.params["C"] for c in w.cases if c.id == "A4_21"), 0.5)
    c1, c2 = p13["C1"], p13["C2"]
    return [
        (lambda a: a - c1 * (1.0 - math.exp(-a * c2)) / c2, 1e-6, 10.0),
        (lambda p: p - (1.0 - c21 ** p) / (1.0 - c21), 1e-6, 10.0),
        (lambda c: math.log(abs(c)) - c + 1.0, -1.0 / math.e + 1e-9, -1e-9),
    ]
