"""The catalog workload: build, check and reduce every structural variant.

For each of the sixteen variants of acceptance criterion 01, with case
constants drawn from the seed: build the entry, run check_invariance on
every generator at 200 samples plus the wrong generator x^2 d_y, and
solve, build and verify every reduction family.  Characteristic roots with
their exponential fields on A4_12, and a vertical field from a computed
solution of the smoothing example, complete the round.
"""

from __future__ import annotations

import math
import random

import oracles as orc
from harness import Op, Setup, Workload, require

SAMPLES = 200
FIELD_SAMPLES = 120
INVARIANCE_MAX = 1e-7
VERIFY_MAX = 1e-10
ROOT_BRANCHES = 5

# (variant key, case id, fixed structural parameters, generator names,
# family labels, delay the case must end up with)
VARIANTS = (
    ("A2_1", "A2_1", {}, ("X1", "X2"), (), "free"),
    ("A2_3", "A2_3", {}, ("X1", "X2"), (), "free"),
    ("A3_1", "A3_1", {}, ("X1", "X2", "X3"), ("aX2+X3",), "constant C2"),
    ("A3_3 a=0.5", "A3_3", {"a": 0.5}, ("X1", "X2", "X3"), ("X3",), "qscale C2"),
    ("A3_3 a=-1", "A3_3", {"a": -1.0}, ("X1", "X2", "X3"), ("X3",), "qscale C2"),
    ("A3_3 a=1", "A3_3", {"a": 1.0}, ("X1", "X2", "X3"), (), "free"),
    ("A3_5", "A3_5", {}, ("X1", "X2", "X3"), ("X3",), "constant C2"),
    ("A3_7 b=1", "A3_7", {"b": 1.0}, ("X1", "X2", "X3"), ("X3",), "moebius C2"),
    ("A3_7 b=0", "A3_7", {"b": 0.0}, ("X1", "X2", "X3"), ("X3",), "moebius C2"),
    ("A3_13", "A3_13", {}, ("X1", "X2", "X3"), ("X1±X2", "X1+aX3"), "constant C2"),
    ("A3_14", "A3_14", {}, ("X1", "X2", "X3"), ("aX1+X3",), "qscale C2"),
    ("A3_15", "A3_15", {}, ("X1", "X2"), (), "free"),
    ("A4_5", "A4_5", {}, ("X1", "X2", "X3"), (), "free"),
    ("A4_12", "A4_12", {}, ("X1", "X2", "X3", "X4"), ("X1", "X1±X2", "aX1+X4"),
     "constant C"),
    ("A4_14", "A4_14", {}, ("X1", "X2", "X3", "X4"), ("aX3+X4",), "moebius C"),
    ("A4_21", "A4_21", {}, ("X1", "X2", "X3", "X4"), ("Y1", "Y1±Y2", "aY1+Y4"),
     "qscale C"),
)


def draw(rng: random.Random) -> dict:
    """Case constants of one seed, inside each variant's structural range."""
    u = rng.uniform
    out = {}
    for key, cid, fixed, *_ in VARIANTS:
        p = dict(fixed)
        if cid in ("A3_1", "A3_5"):
            p.update(C1=u(0.5, 2.0), C2=u(0.5, 2.0))
        elif cid == "A3_3" and fixed["a"] != 1.0:
            p.update(C1=u(0.5, 2.0), C2=u(0.3, 0.7))
        elif cid == "A3_7":
            p.update(C1=u(0.5, 2.0), C2=u(0.5, 1.5))
        elif cid == "A3_13":
            # C1 > 1 keeps the rate root of X1+aX3 positive and X1±X2 empty.
            # The root is solved to an absolute 1e-13, which verify sees
            # multiplied by exp(a x): the rate stays below 2 so that this
            # stays under verify's 1e-10 on the window
            p.update(C1=u(1.5, 2.0), C2=u(0.9, 1.1))
        elif cid == "A3_14":
            p.update(C1=u(0.5, 2.0), C2=u(0.3, 0.7))
        elif cid in ("A4_12", "A4_14"):
            p.update(C=u(0.5, 2.0))
        elif cid == "A4_21":
            p.update(C=u(0.3, 0.8))
        extra = {}
        if cid in ("A2_1", "A2_3", "A3_15", "A4_5") or (cid == "A3_3" and fixed["a"] == 1.0):
            extra["delay"] = f"constant({u(0.8, 1.2)!r})"
        if cid == "A2_1":
            extra["f"] = f"sin(x) + {u(1.5, 2.5)!r}"
        elif cid == "A2_3":
            extra["f"] = repr(u(0.5, 1.5))
        elif cid == "A3_15":
            extra["f"] = f"{u(0.5, 2.0)!r}*x"
        out[key] = {"params": p, **extra}
    out["smoothing"] = {"c": u(0.5, 2.0)}
    return out


def _expected_delay(kind: str, drawn: dict) -> str:
    if kind == "free":
        return drawn["delay"]
    relation, name = kind.split()
    return f"{relation}({drawn['params'][name]!r})"


def _family_expectation(cid: str, label: str, p: dict, status):
    """(expected status, check of the solved parameters) from the family's
    own equations, evaluated here with `math`."""
    solved, none, trivial = status.SOLVED, status.NO_SOLUTION, status.TRIVIAL_ONLY

    def eq(lhs: float, rhs: float, what: str) -> None:
        require(orc.close(lhs, rhs), f"{what}: {lhs!r} != {rhs!r}")

    if (cid, label) == ("A3_1", "aX2+X3"):
        return solved, lambda s: eq(s["a"] * p["C2"] / 2.0, p["C1"], "a*C2/2 = C1")
    if (cid, label) == ("A3_3", "X3"):
        pw = 1.0 / (1.0 - p["a"])
        return solved, lambda s: eq(s["A"] * (pw - (1.0 - p["C2"] ** pw) / (1.0 - p["C2"])),
                                    p["C1"], "A*(p - (1 - C2^p)/(1 - C2)) = C1")
    if (cid, label) == ("A3_5", "X3"):
        return solved, lambda s: eq(s["A"] * (p["C2"] - 1.0 + math.exp(-p["C2"])),
                                    p["C1"] * p["C2"], "A*(C2 - 1 + exp(-C2)) = C1*C2")
    if (cid, label) == ("A3_7", "X3"):
        return solved, lambda s: eq(s["A"], orc.a37_amplitude(p["C1"], p["C2"], p["b"]),
                                    "spiral amplitude")
    if (cid, label) == ("A3_13", "X1±X2"):
        return none, None  # straight lines need C1 = 1
    if (cid, label) == ("A3_13", "X1+aX3"):
        def rate(s):
            a = s["a"]
            require(a > 0.0, f"rate {a!r} should be positive for C1 > 1")
            eq(a, p["C1"] * (1.0 - math.exp(-a * p["C2"])) / p["C2"],
               "a = C1*(1 - exp(-a*C2))/C2")
        return solved, rate
    if (cid, label) == ("A3_14", "aX1+X3"):
        return solved, lambda s: eq(s["a"], orc.a314_rate(p["C1"], p["C2"]),
                                    "a*(1 + C2 ln C2/(1 - C2)) = C1")
    if (cid, label) == ("A4_12", "X1"):
        return solved, None
    if (cid, label) == ("A4_12", "X1±X2"):
        return none, None  # the parabola needs B = 0
    if (cid, label) == ("A4_12", "aX1+X4"):
        # u = 1 - exp(-u) with u = C/a: 1 - exp(-u) < u for every u != 0
        return trivial, None
    if (cid, label) == ("A4_14", "aX3+X4"):
        return (trivial if orc.a414_rate_min(p["C"]) > 0.0 else solved), None
    if (cid, label) == ("A4_21", "Y1"):
        return solved, None
    if (cid, label) == ("A4_21", "Y1±Y2"):
        def ratio(s):
            c = s["C"]
            require(c < 0.0, f"ratio {c!r} should be negative")
            require(abs(math.log(abs(c)) - c + 1.0) <= 1e-12,
                    f"ln|C| = C - 1 fails at C = {c!r}")
        return solved, ratio
    if (cid, label) == ("A4_21", "aY1+Y4"):
        def power(s):
            pw = 1.0 / s["a"]
            eq(pw, (1.0 - p["C"] ** pw) / (1.0 - p["C"]), "p = (1 - C^p)/(1 - C)")
            require(orc.close(s["a"], 1.0), f"first positive exponent is 1, got 1/{s['a']!r}")
        return solved, power
    raise KeyError((cid, label))


def build(lib, ctx) -> Workload:
    d = draw(random.Random(ctx.seed))
    ex, dods, sym, red, steps = lib.expr, lib.dods, lib.symmetry, lib.reduction, lib.steps
    Inv, Status = sym.Invariance, red.Status
    ops: list[Op] = []
    cases = []

    def invariant(r, st):
        mx, cls = r
        require(cls is not Inv.NOT_INVARIANT and mx <= INVARIANCE_MAX,
                f"{cls.value} with max {mx:.3g}")
        return {"generators": 1}

    def not_invariant(r, st):
        mx, cls = r
        require(cls is Inv.NOT_INVARIANT, f"wrong generator came out {cls.value}")
        return {"generators": 1}

    wrong = _wrong_generator(ex, sym)
    for key, cid, _, gens, labels, delay_kind in VARIANTS:
        drawn = d[key]
        case = dods.CatalogCase(cid, drawn["params"], drawn.get("f"), drawn.get("delay"))
        cases.append(case)
        want_delay = _expected_delay(delay_kind, drawn)

        def built(entry, st, key=key, gens=gens, labels=labels, want_delay=want_delay):
            got = entry.dods.delay.spec_string()
            require(got == want_delay, f"delay {got}, expected {want_delay}")
            require(tuple(v.name for v in entry.algebra) == gens,
                    f"generators {[v.name for v in entry.algebra]}")
            require(tuple(f.label for f in entry.families) == labels,
                    f"families {[f.label for f in entry.families]}")
            st[key] = entry

        ops.append(Op(f"catalog {key}", "dods.catalog",
                      lambda st, case=case: dods.catalog(case), built))
        for i, name in enumerate(gens):
            ops.append(Op(f"check_invariance {key} {name}", "symmetry.check_invariance",
                          lambda st, key=key, i=i: sym.check_invariance(
                              st[key].algebra[i], st[key].dods, SAMPLES, st[key].window),
                          invariant))
        ops.append(Op(f"check_invariance {key} wrong generator",
                      "symmetry.check_invariance",
                      lambda st, key=key: sym.check_invariance(
                          wrong, st[key].dods, SAMPLES, st[key].window),
                      not_invariant))
        for j, label in enumerate(labels):
            _family_ops(ops, lib, key, j, label, *_family_expectation(
                cid, label, drawn["params"], Status))

    # characteristic roots of A4_12 and their oscillatory symmetry fields
    c = d["A4_12"]["params"]["C"]

    def roots_ok(roots, st):
        require(len(roots) == ROOT_BRANCHES + 1, f"{len(roots)} branches")
        for root in roots:
            orc.check_char_root(root.z, root.lam, c, root.k)
        st["roots"] = roots

    def fields_ok(fields, st):
        require([v.name for v in fields] == ["X5", "X6"], "expected the fields X5, X6")
        st["fields"] = fields

    ops.append(Op("char_roots A4_12", "symmetry.char_roots",
                  lambda st: sym.char_roots(c, ROOT_BRANCHES), roots_ok))
    ops.append(Op("exp_symmetry_fields A4_12 k=1", "symmetry.exp_symmetry_fields",
                  lambda st: sym.exp_symmetry_fields(st["roots"][1]), fields_ok))
    for i in range(2):
        ops.append(Op(f"check_invariance A4_12 X{5 + i}", "symmetry.check_invariance",
                      lambda st, i=i: sym.check_invariance(
                          st["fields"][i], st["A4_12"].dods, FIELD_SAMPLES,
                          st["A4_12"].window),
                      invariant))

    # a vertical symmetry from a computed solution of the smoothing example
    cs = d["smoothing"]["c"]
    smooth = dods.Dods(dods.LinearRhs(ex.Num(1.0), ex.Num(-1.0), ex.Num(0.0)),
                       lib.delay.ConstantDelay(1.0))
    phi = f"{cs!r}*(x + 1)^2"
    init = dods.initial_condition(phi, smooth.delay, 0.0)
    cfg = steps.SolverConfig(steps.Scheme.EXACT_LINEAR, step_count=256)

    def marched(sol, st):
        orc.check_closed_form(sol, orc.smoothing_form(cs), "exact-linear", first=1, last=1)
        st["smooth"] = sol

    def vertical(v, st):
        require(v.eta.r is st["smooth"], "field does not carry the computed solution")
        st["chi"] = v

    ops.append(Op("solve smoothing exact-linear m=256 N=2", "steps.solve[exact-linear]",
                  lambda st: steps.solve(smooth, init, 2, cfg), marched,
                  counts={"steps": 512, "intervals": 2, "nodes": 3 * 257}))
    ops.append(Op("vertical_from_solution smoothing", "symmetry.vertical_from_solution",
                  lambda st: sym.vertical_from_solution(st["smooth"], smooth), vertical))
    ops.append(Op("check_invariance smoothing chi d_y", "symmetry.check_invariance",
                  lambda st: sym.check_invariance(st["chi"], smooth, FIELD_SAMPLES,
                                                  (0.0, 2.0)),
                  invariant))

    return Workload(ops=ops, drawn=d, cases=cases, setups=[Setup(smooth, phi, 0.0, 2)],
                    texts=[(phi, ("x",))])


def _wrong_generator(ex, sym):
    """x^2 d_y: its prolongation leaves 2x - (x + g(x)) times the slope
    factor, which vanishes for no catalog system."""
    return sym.VectorField(ex.Num(0.0), ex.Binary("^", ex.Var("x"), ex.Num(2.0)),
                           name="x^2 d_y")


def _family_ops(ops, lib, key, j, label, status, params_ok):
    red, dods = lib.reduction, lib.dods
    tag = f"{key} {label}"

    def constrained(sol, st):
        require(sol.status is status, f"status {sol.status.value}, expected {status.value}")
        if params_ok is not None:
            params_ok(sol.params)
        st[tag] = sol
        return {"solved": 1 if sol.status is red.Status.SOLVED else 0}

    ops.append(Op(f"solve_constraints {tag}", "reduction.solve_constraints",
                  lambda st: red.solve_constraints(st[key].families[j]), constrained))
    if status is not red.Status.SOLVED:
        return

    def built(out, st):
        y, b = out
        sol = st[tag]
        require(b == sol.params["B"], f"delay constant {b!r} != B = {sol.params['B']!r}")
        st[tag + "/y"] = y

    ops.append(Op(f"build_solution {tag}", "reduction.build_solution",
                  lambda st: red.build_solution(st[key].families[j], st[tag]), built))
    target = key
    if label == "Y1±Y2":
        # the family exists only at the ratio it pins; verify there
        target = tag + "/entry"

        def rebuilt(entry, st):
            require(entry.case.params["C"] == st[tag].params["C"], "ratio not applied")
            st[target] = entry

        def at_ratio(st):
            return dods.catalog(dods.CatalogCase("A4_21", {"C": st[tag].params["C"]}))

        ops.append(Op(f"catalog {tag} at its ratio", "dods.catalog", at_ratio, rebuilt))

    def verified(r, st):
        require(r <= VERIFY_MAX, f"verify gives {r:.3g}")

    ops.append(Op(f"verify {tag}", "reduction.verify",
                  lambda st: red.verify(st[tag + "/y"], st[target].dods, st[target].window),
                  verified))
