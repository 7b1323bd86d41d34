"""The march workload: steps.solve with both schemes, then residual_scan.

Seven catalog systems cover every delay kind: constant (A3_5, A4_12),
q-scale (A3_14, A4_21), Moebius (A3_7 near C2 = 1 and at C2 = 0.2) and a
general relation (A4_5).  Each starts from one of its own invariant closed
forms, so every marched node has a value the benchmark computes with
`math`.  Three further pairs march histories without a closed form and
compare exact-linear with fine-step RK4.  Two operations are known faults
of the program and are kept as counted failures.
"""

from __future__ import annotations

import math
import random

import oracles as orc
from harness import Op, Setup, Workload, require

STEP_COUNTS = (64, 256, 1024)
SCHEMES = ("exact-linear", "rk4")
# the hang of A3_5 at N = 18 is stopped here (N = 17 already takes about
# 0.3 s).  The rest of a round takes some seventy times longer, and the cap
# lies between the median and the 90th percentile of the other operations,
# so neither percentile lands on this fixed interval
HANG_CAP_S = 0.05


def draw(rng: random.Random) -> dict:
    """Case constants, amplitudes and starting points of one seed."""
    u = rng.uniform
    return {
        "A3_5": {"C1": u(0.8, 1.2), "C2": u(0.9, 1.1), "x0": u(0.0, 0.5)},
        "A4_12": {"C": u(0.8, 1.2), "A": u(0.5, 2.0), "B": u(-1.0, 1.0), "x0": u(0.0, 1.0)},
        "A3_14": {"C1": u(0.5, 2.0), "C2": u(0.45, 0.55), "A": u(0.5, 2.0),
                  "x0": u(0.8, 1.2)},
        "A4_21": {"C": u(0.45, 0.55), "A": u(0.5, 2.0), "B": u(-1.0, 1.0),
                  "x0": u(0.8, 1.2)},
        "A3_7": {"b": u(0.5, 1.5), "C1": u(0.5, 2.0), "C2": u(0.9, 1.1),
                 "x0": u(-0.6, -0.4)},
        "A3_7@0.2": {"b": u(0.5, 1.5), "C1": u(0.5, 2.0), "x0": u(-0.1, 0.1)},
        "A4_5": {"tau": u(0.8, 1.2), "eps": u(0.05, 0.15), "A": u(0.5, 2.0),
                 "B": u(-1.0, 1.0), "x0": u(0.0, 1.0)},
        "smoothing": {"c": u(0.5, 2.0)},
        "free": {"s": u(0.5, 1.5), "k": u(1.0, 2.0)},
    }


def _systems(lib, d: dict) -> list[tuple]:
    """(key, entry, history text, x0, closed form, {step count: horizon})."""
    cat, case = lib.dods.catalog, lib.dods.CatalogCase
    out = []

    p = d["A3_5"]
    amp = orc.a35_amplitude(p["C1"], p["C2"])
    out.append(("A3_5", cat(case("A3_5", {"C1": p["C1"], "C2": p["C2"]})),
                f"{amp!r}*exp(x)", p["x0"], orc.exp_form(amp),
                {64: 8, 256: 4, 1024: 2}))

    p = d["A4_12"]
    out.append(("A4_12", cat(case("A4_12", {"C": p["C"]})),
                f"{p['A']!r}*x + {p['B']!r}", p["x0"], orc.linear_form(p["A"], p["B"]),
                {64: 16, 256: 4, 1024: 2}))

    p = d["A3_14"]
    rate = orc.a314_rate(p["C1"], p["C2"])
    out.append(("A3_14", cat(case("A3_14", {"C1": p["C1"], "C2": p["C2"]})),
                f"{rate!r}*x*ln(x) + {p['A']!r}*x", p["x0"], orc.xlnx_form(rate, p["A"]),
                {64: 8, 256: 4, 1024: 2}))

    p = d["A4_21"]
    out.append(("A4_21", cat(case("A4_21", {"C": p["C"]})),
                f"{p['A']!r}*x + {p['B']!r}", p["x0"], orc.linear_form(p["A"], p["B"]),
                {64: 8, 256: 4, 1024: 2}))

    for key, c2, horizons in (("A3_7", d["A3_7"].get("C2"), {64: 2, 256: 2, 1024: 2}),
                              ("A3_7@0.2", 0.2, {64: 6, 256: 4, 1024: 2})):
        p = d[key]
        amp = orc.a37_amplitude(p["C1"], c2, p["b"])
        out.append((key, cat(case("A3_7", {"b": p["b"], "C1": p["C1"], "C2": c2})),
                    f"{amp!r}*sqrt(1 + x^2)*exp({p['b']!r}*atan(x))", p["x0"],
                    orc.spiral_form(amp, p["b"]), horizons))

    p = d["A4_5"]
    delay = f'general("x - {p["tau"]!r} - {p["eps"]!r}*sin(x)")'
    out.append(("A4_5", cat(case("A4_5", delay=delay)),
                f"{p['A']!r}*x + {p['B']!r}", p["x0"], orc.linear_form(p["A"], p["B"]),
                {64: 16, 256: 4, 1024: 2}))
    return out


def build(lib, ctx) -> Workload:
    d = draw(random.Random(ctx.seed))
    ex, dods, steps = lib.expr, lib.dods, lib.steps
    config = {(s, m): steps.SolverConfig(steps.Scheme(s), step_count=m)
              for s in SCHEMES for m in STEP_COUNTS}
    ops: list[Op] = []
    setups: list[Setup] = []
    texts: list[tuple[str, tuple[str, ...]]] = []

    def solve_op(name, system, init, n, scheme, m, check, known_fault="",
                 cap_s=None):
        cfg = config[(scheme, m)]
        op = Op(name=name, span=f"steps.solve[{scheme}]",
                call=lambda st: steps.solve(system, init, n, cfg),
                check=check, known_fault=known_fault,
                counts={"steps": m * n, "intervals": n, "nodes": (n + 1) * (m + 1)})
        if cap_s is not None:
            op.cap_s = cap_s
        ops.append(op)

    def scan_op(name, key, system):
        def check(r, st):
            bound = st[key]
            require(r <= bound, f"residual {r:.3g} above its bound {bound:.3g}")
        ops.append(Op(name=name, span="steps.residual_scan",
                      call=lambda st: steps.residual_scan(st[key + "/sol"], system),
                      check=check))

    # closed-form histories of every delay kind
    systems = _systems(lib, d)
    for key, entry, phi, x0, cf, horizons in systems:
        system = entry.dods
        init = dods.initial_condition(phi, system.delay, x0)
        texts.append((phi, ("x",)))
        setups.append(Setup(system, phi, x0, horizons[64]))
        for m in STEP_COUNTS:
            n = horizons[m]
            for scheme in SCHEMES:
                tag = f"{key} {scheme} m={m} N={n}"

                def check(sol, st, cf=cf, tag=tag, scheme=scheme):
                    st[tag] = orc.check_closed_form(sol, cf, scheme)
                    st[tag + "/sol"] = sol

                solve_op(f"solve {tag}", system, init, n, scheme, m, check)
                scan_op(f"residual_scan {tag}", tag, system)

    # the smoothing example y' = y - y(x - 1), history c*(x + 1)^2
    c = d["smoothing"]["c"]
    smooth = dods.Dods(dods.LinearRhs(ex.Num(1.0), ex.Num(-1.0), ex.Num(0.0)),
                       lib.delay.ConstantDelay(1.0))
    phi = f"{c!r}*(x + 1)^2"
    init = dods.initial_condition(phi, smooth.delay, 0.0)
    texts.append((phi, ("x",)))
    setups.append(Setup(smooth, phi, 0.0, 2))
    for scheme in SCHEMES:
        tag = f"smoothing {scheme} m=64 N=1"

        def check(sol, st, tag=tag, scheme=scheme):
            st[tag] = orc.check_closed_form(sol, orc.smoothing_form(c), scheme, first=1)
            st[tag + "/sol"] = sol

        solve_op(f"solve {tag}", smooth, init, 1, scheme, 64, check)
        scan_op(f"residual_scan {tag}", tag, smooth)

    # histories without a closed form: exact-linear against fine-step RK4
    s, k = d["free"]["s"], d["free"]["k"]
    free = (("A3_5", f"{s!r}*sin(3*x) + {k!r}"),
            ("A3_14", f"{s!r}*sqrt(x) + {k!r}"),
            ("A3_7@0.2", f"{s!r}*cos(2*x) + {k!r}"))
    by_key = {key: (entry, x0) for key, entry, _, x0, _, _ in systems}
    for key, phi in free:
        entry, x0 = by_key[key]
        init = dods.initial_condition(phi, entry.dods.delay, x0)
        texts.append((phi, ("x",)))
        _agreement_pair(solve_op, f"{key} free history", entry.dods, init, 3)

    # known fault 1: alpha = 1 + sin(18 pi x) aliases the nine sampled probes
    # of the integrating-factor shortcut, so exact-linear takes alpha = 1
    aliased = dods.Dods(dods.LinearRhs(ex.parse("1 + sin(18*pi*x)"), ex.Num(-1.0),
                                       ex.Num(0.0)), lib.delay.ConstantDelay(1.0))
    init = dods.initial_condition("1", aliased.delay, 0.0)
    _agreement_pair(solve_op, "aliased alpha", aliased, init, 2,
                    known_fault="sampled alpha shortcut in steps._alpha_antiderivative")

    # known fault 2: the absolute 1e-12 quadrature tolerance meets rounding
    # noise once |y| ~ 1e8 and adaptive_simpson recurses toward depth 30
    hang = lib.dods.catalog("A3_5")
    init = dods.initial_condition("exp(x)", hang.dods.delay, 0.0)

    def near_invariant(sol, st):
        # y - e^(x+1) solves y' = y - y(x - 1); from this history it
        # settles onto the linear mode a + b x with |b| < 2
        x = sol.x_end
        y = sol.segments[-1].values[-1]
        require(abs(y - math.exp(x + 1.0)) <= 2.0 * (1.0 + x),
                f"y({x!r}) = {y!r} strays from e^(x+1) = {math.exp(x + 1.0)!r}")

    solve_op("solve A3_5 exp(x) exact-linear m=64 N=18", hang.dods, init, 18,
             "exact-linear", 64, near_invariant,
             known_fault="adaptive_simpson stalls at |y| ~ 1e8", cap_s=HANG_CAP_S)

    return Workload(ops=ops, drawn=d, cases=[e.case for _, e, *_ in systems],
                    setups=setups, texts=texts)


def _agreement_pair(solve_op, label, system, init, n, known_fault=""):
    ref_tag = f"{label} rk4 m=1024 N={n}"

    def keep(sol, st):
        st[ref_tag] = sol

    def agree(sol, st):
        orc.check_agreement(sol, st[ref_tag])

    solve_op(f"solve {ref_tag}", system, init, n, "rk4", 1024, keep)
    solve_op(f"solve {label} exact-linear m=256 N={n}", system, init, n,
             "exact-linear", 256, agree, known_fault=known_fault)
