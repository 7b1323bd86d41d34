"""The cli workload: one `python -m delaysym` child per operation.

Every subcommand runs once per round, one child at a time: catalog list and
show, solve to CSV and to JSON, mesh, roots, reduce, and verify with a
closed form and with a solution file.  Interpreter start-up, import,
argument parsing and catalog building dominate; the expression layer runs
parse-once, evaluate-little.  Each command's stdout must match the bytes
of its first call in the same run.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import random
import subprocess
import sys
import oracles as orc
from harness import Op, Setup, Workload, require

CHILD_TIMEOUT_S = 50.0
CAP_S = 60.0


def draw(rng: random.Random) -> dict:
    u = rng.uniform
    return {
        "A3_5": {"C1": u(0.8, 1.2), "C2": u(0.8, 1.2), "x0": u(0.0, 0.5)},
        "A4_12": {"C": u(0.8, 1.2), "x0": u(0.0, 1.0)},
        "A4_21": {"C": u(0.3, 0.8)},
        "A3_13": {"C1": u(1.5, 2.0), "C2": u(0.9, 1.1)},  # see catalog.draw
        "affine": {"q": u(0.6, 0.9), "tau": u(0.5, 1.5), "x0": u(0.0, 1.0)},
        "qscale": {"q": u(0.3, 0.8), "x0": u(0.5, 1.5)},
        "roots": {"C": u(0.5, 2.0)},
    }


def _params(p: dict, names) -> str:
    return ",".join(f"{k}={p[k]!r}" for k in names)


def argvs(d: dict, solution_file: str) -> list[tuple[str, list[str]]]:
    """(label, argv) of every command of a round, in order."""
    a35, a412 = d["A3_5"], d["A4_12"]
    amp = orc.a35_amplitude(a35["C1"], a35["C2"])
    return [
        ("catalog list", ["catalog", "list"]),
        ("catalog show A3_5", ["catalog", "show", "A3_5", "--params",
                               _params(a35, ("C1", "C2"))]),
        ("catalog show A4_21", ["catalog", "show", "A4_21", "--params",
                                _params(d["A4_21"], ("C",))]),
        ("solve json A4_12", ["solve", "--case", "A4_12", "--params", _params(a412, ("C",)),
                              "--phi", "x", "--x0", repr(a412["x0"]), "--intervals", "2",
                              "--format", "json"]),
        ("solve csv A3_5", ["solve", "--case", "A3_5", "--params",
                            _params(a35, ("C1", "C2")), "--phi", f"{amp!r}*exp(x)",
                            "--x0", repr(a35["x0"]), "--intervals", "2"]),
        ("mesh affine", ["mesh", "--delay",
                         f"affine({d['affine']['q']!r}, {d['affine']['tau']!r})",
                         "--x0", repr(d["affine"]["x0"]), "--n", "8"]),
        ("mesh qscale", ["mesh", "--delay", f"qscale({d['qscale']['q']!r})",
                         "--x0", repr(d["qscale"]["x0"]), "--n", "8"]),
        ("roots", ["roots", "--C", repr(d["roots"]["C"]), "--k", "3"]),
        ("reduce A3_13", ["reduce", "--case", "A3_13", "--subalgebra", "X1+aX3",
                          "--params", _params(d["A3_13"], ("C1", "C2"))]),
        ("reduce A4_21", ["reduce", "--case", "A4_21", "--subalgebra", "Y1+-Y2",
                          "--params", _params(d["A4_21"], ("C",))]),
        ("verify solution", ["verify", "--case", "A3_5", "--params",
                             _params(a35, ("C1", "C2")), "--solution", f"{amp!r}*exp(x)"]),
        ("verify solution-file", ["verify", "--case", "A4_12", "--params",
                                  _params(a412, ("C",)), "--solution-file", solution_file]),
    ]


def child_env(src: str) -> dict:
    """The environment of every child: the checkout's sources first, and
    bytecode cached as for an installed package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Launcher:
    """The process `launcher.py` that starts each child, one at a time;
    `peak_kib` is the largest child's peak resident memory so far."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                          "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.peak_kib = 0

    def run(self, argv: list[str], cwd: str, env: dict) -> subprocess.CompletedProcess:
        pickle.dump((argv, cwd, env, CHILD_TIMEOUT_S), self.proc.stdin)
        self.proc.stdin.flush()
        reply, peak_kib = pickle.load(self.proc.stdout)
        self.peak_kib = max(self.peak_kib, peak_kib)
        if isinstance(reply, Exception):
            raise reply
        return reply

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=CHILD_TIMEOUT_S)
        self.proc.stdout.close()


def run_child(argv: list[str], root: str, env: dict,
              launcher: Launcher) -> subprocess.CompletedProcess:
    return launcher.run([sys.executable, "-m", "delaysym", *argv], root, env)


def build(lib, ctx) -> Workload:
    d = draw(random.Random(ctx.seed))
    env = child_env(ctx.src)
    solution_file = os.path.join(ctx.out_dir, f"cli-solution-{ctx.seed}.json")
    commands = argvs(d, solution_file)
    first: dict[str, bytes] = {}  # stdout of each command's first call in this run

    def checker(label, content_check):
        def check(proc, st):
            require(proc.returncode == 0,
                    f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}")
            require(proc.stderr == b"", "unexpected stderr output")
            out = proc.stdout
            if label in first:
                require(out == first[label], "stdout differs from the first call in this run")
            else:
                content_check(out, st)
                first[label] = out
            st[label] = out
        return check

    checks = _content_checks(d, lib, ctx.tracer, solution_file)
    ops = [Op(f"cli {label}", f"cli.subprocess[{argv[0]}]",
              lambda st, argv=argv: run_child(argv, ctx.root, env, ctx.launcher),
              checker(label, checks[label]), cap_s=CAP_S)
           for label, argv in commands]
    # the systems behind the solve commands, for the traced run's probes
    dods = lib.dods
    a35, a412 = d["A3_5"], d["A4_12"]
    cases = [dods.CatalogCase("A3_5", {"C1": a35["C1"], "C2": a35["C2"]}),
             dods.CatalogCase("A4_12", {"C": a412["C"]}),
             dods.CatalogCase("A4_21", {"C": d["A4_21"]["C"]}),
             dods.CatalogCase("A3_13", dict(d["A3_13"]))]
    phi35 = f"{orc.a35_amplitude(a35['C1'], a35['C2'])!r}*exp(x)"
    setups = [Setup(dods.catalog(cases[0]).dods, phi35, a35["x0"], 2),
              Setup(dods.catalog(cases[1]).dods, "x", a412["x0"], 2)]
    return Workload(ops=ops, drawn=d, cases=cases, setups=setups,
                    texts=[(phi35, ("x",)), ("x", ("x",))])


def _content_checks(d: dict, lib, tracer, solution_file: str) -> dict:
    """What each command's first output must say, from computations made
    here.  Later calls are held to the first call's bytes."""
    steps = lib.steps
    a35, a412 = d["A3_5"], d["A4_12"]
    amp = orc.a35_amplitude(a35["C1"], a35["C2"])

    def catalog_list(out, st):
        text = out.decode()
        ids = [line.split(":")[0] for line in text.splitlines() if not line.startswith(" ")]
        require(ids == ["A2_1", "A2_3", "A3_1", "A3_3", "A3_5", "A3_7", "A3_11", "A3_13",
                        "A3_14", "A3_15", "A4_5", "A4_12", "A4_14", "A4_21"],
                f"case ids {ids}")
        require("A3_11" in text and "[no system]" in text, "A3_11 must admit no system")

    def show(delay, params, gens):
        def check(out, st):
            lines = out.decode().splitlines()
            require(f"delay: {delay}" in lines, f"no line 'delay: {delay}'")
            require(f"parameters: {json.dumps(params, sort_keys=True)}" in lines,
                    "parameters line differs")
            listed = [ln.split(":")[0].strip() for ln in lines if ": xi = " in ln]
            require(listed == gens, f"generators {listed}")
        return check

    def solve_json(out, st):
        sol = tracer.call("steps.solution_from_json", steps.solution_from_json, out.decode())
        again = tracer.call("steps.PiecewiseSolution.to_json", sol.to_json)
        require(again.encode() + b"\n" == out, "JSON does not round-trip")
        require(sol.mesh.points[1] == a412["x0"] and len(sol.segments) == 3,
                "mesh does not start at x0 with two intervals")
        cf = orc.linear_form(1.0, 0.0)
        orc.check_closed_form(sol, cf, "exact-linear")
        with open(solution_file, "wb") as fh:
            fh.write(out)

    def solve_csv(out, st):
        rows = out.decode().splitlines()
        require(rows[0] == "x,y,ydot_left,ydot_right", "CSV header differs")
        ymax = 0.0
        for row in rows[1:]:
            x, y, dl, dr = (float(v) for v in row.split(","))
            want = amp * math.exp(x)
            ymax = max(ymax, abs(want))
            # 64 steps per interval: the Hermite floor is ~1e-9 of |y|
            require(abs(y - want) <= 1e-7 * ymax, f"y({x!r}) = {y!r}, expected {want!r}")
        require(len(rows) == 1 + 3 * 64 + 1, f"{len(rows) - 1} CSV rows")

    def mesh(q, tau, x0):
        def check(out, st):
            obj = json.loads(out)
            orc.check_chain(obj["points"], orc.affine_chain(q, tau, x0, 8))
        return check

    def roots(out, st):
        obj = json.loads(out)
        c = d["roots"]["C"]
        require([r["k"] for r in obj["roots"]] == [0, 1, 2, 3], "branches 0..3")
        for r in obj["roots"]:
            orc.check_char_root(complex(r["re_z"], r["im_z"]),
                                complex(r["re_lambda"], r["im_lambda"]), c, r["k"])

    def reduce_a313(out, st):
        obj = json.loads(out)
        c1, c2 = d["A3_13"]["C1"], d["A3_13"]["C2"]
        a = obj["params"]["a"]
        require(obj["status"] == "solved", f"status {obj['status']}")
        require(a > 0.0 and orc.close(a, c1 * (1.0 - math.exp(-a * c2)) / c2),
                f"rate {a!r} fails a = C1*(1 - exp(-a*C2))/C2")
        require(obj["max_residual"] <= 1e-10, f"residual {obj['max_residual']!r}")

    def reduce_a421(out, st):
        obj = json.loads(out)
        c = obj["params"]["C"]
        require(obj["status"] == "solved", f"status {obj['status']}")
        require(c < 0.0 and abs(math.log(-c) - c + 1.0) <= 1e-12,
                f"ratio {c!r} fails ln|C| = C - 1")
        require(obj["max_residual"] <= 1e-10, f"residual {obj['max_residual']!r}")

    def verify(bound):
        def check(out, st):
            r = json.loads(out)["max_residual"]
            require(r <= bound, f"max_residual {r!r} above {bound:g}")
        return check

    affine, qscale = d["affine"], d["qscale"]
    return {
        "catalog list": catalog_list,
        "catalog show A3_5": show(f"constant({a35['C2']!r})",
                                  {"C1": a35["C1"], "C2": a35["C2"]}, ["X1", "X2", "X3"]),
        "catalog show A4_21": show(f"qscale({d['A4_21']['C']!r})", {"C": d["A4_21"]["C"]},
                                   ["X1", "X2", "X3", "X4"]),
        "solve json A4_12": solve_json,
        "solve csv A3_5": solve_csv,
        "mesh affine": mesh(affine["q"], affine["tau"], affine["x0"]),
        "mesh qscale": mesh(qscale["q"], 0.0, qscale["x0"]),
        "roots": roots,
        "reduce A3_13": reduce_a313,
        "reduce A4_21": reduce_a421,
        "verify solution": verify(1e-10),
        "verify solution-file": verify(1e-9),
    }
