"""Command line front end.

Subcommands: catalog, solve, mesh, roots, reduce, verify.  Output is
deterministic: repeated runs with the same arguments produce identical
bytes.  Contract violations exit with status 1 and print the failing
contract's exception class name; argument errors exit with status 2.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections.abc import Sequence

from . import expr as ex
from .delay import build_mesh, parse_delay_spec
from .dods import CatalogCase, catalog, initial_condition, list_cases, load_spec
from .errors import DelaySymError, ParameterDomainError
from .reduction import Status, build_solution, solve_constraints, verify
from .steps import (Scheme, SolverConfig, residual_scan, solution_from_json,
                    solve)
from .symmetry import char_roots


def _parse_params(raw: str | None) -> dict[str, float]:
    out: dict[str, float] = {}
    if not raw:
        return out
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ParameterDomainError(
                f"parameters look like NAME=VALUE, got {part!r}")
        key, _, value = part.partition("=")
        try:
            out[key.strip()] = float(value)
        except ValueError:
            raise ParameterDomainError(f"{key.strip()!r} needs a number, got {value!r}")
    return out


def _case_from_args(args: argparse.Namespace) -> CatalogCase:
    f = None
    if getattr(args, "fn", None):
        name, _, body = args.fn.partition("=")
        if name.strip() != "f" or not body:
            raise ParameterDomainError('user functions are passed as --fn "f=<expr>"')
        f = body.strip()
    delay = args.delay if getattr(args, "delay", None) else None
    return CatalogCase(args.case, _parse_params(args.params), f, delay)


def _system_from_args(args: argparse.Namespace):
    """(dods, history) from either --case or --spec; the history is the
    system file's initial condition, or None."""
    if args.case:
        return catalog(_case_from_args(args)).dods, None
    with open(args.spec, "r", encoding="utf-8") as fh:
        return load_spec(fh.read())


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands ------------------------------------------------------------


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.action == "list":
        lines = []
        for info in list_cases():
            mark = "" if info.admits_system else "  [no system]"
            lines.append(f"{info.id}: {info.equation}{mark}")
            lines.append(f"    delay: {info.delay}")
            lines.append(f"    parameters: {info.parameters}")
        _emit("\n".join(lines) + "\n", None)
        return 0
    entry = catalog(_case_from_args(args))
    info = next(i for i in list_cases() if i.id == entry.case.id)
    lines = [
        f"{info.id}: {info.equation}",
        f"delay: {entry.dods.delay.spec_string()}",
        f"domain: ({entry.dods.domain[0]!r}, {entry.dods.domain[1]!r})",
        f"parameters: {json.dumps(dict(entry.case.params or {}), sort_keys=True)}",
        "generators:",
    ]
    for v in entry.algebra:
        lines.append(f"    {v.name}: xi = {ex.to_text(v.xi)}, eta = {ex.to_text(v.eta)}")
    lines.append("families:")
    if not entry.families:
        lines.append("    (none: no subalgebra produces an ansatz)")
    for fam in entry.families:
        roles = ", ".join(f"{k}:{fam.roles[k].value}" for k in sorted(fam.roles))
        lines.append(f"    {fam.label}: y = {ex.to_text(fam.reduction_h)}, "
                     f"x- = {ex.to_text(fam.reduction_k)} [{roles}]")
    _emit("\n".join(lines) + "\n", None)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    d, history = _system_from_args(args)
    phi, x0 = args.phi, args.x0  # --phi and --x0 override the system file's
    if history is not None:
        phi = history.phi if phi is None else phi
        x0 = history.x0 if x0 is None else x0
    if phi is None or x0 is None:
        raise ParameterDomainError(
            "solve needs a history: pass --phi and --x0, or set phi and x0 in the system file")
    init = initial_condition(phi, d.delay, x0)
    scheme = Scheme(args.scheme)
    s = solve(d, init, args.intervals, SolverConfig(scheme=scheme))
    text = s.to_json() + "\n" if args.format == "json" else s.to_csv()
    _emit(text, args.out)
    return 0


def _cmd_mesh(args: argparse.Namespace) -> int:
    relation = parse_delay_spec(args.delay)
    mesh = build_mesh(relation, args.x0, args.n)
    _emit(json.dumps({"kind": "mesh", "delay": relation.spec_string(),
                      "points": list(mesh.points)}) + "\n", args.out)
    return 0


def _cmd_roots(args: argparse.Namespace) -> int:
    import cmath
    entries = []
    for root in char_roots(args.C, args.k):
        lam = root.lam
        res_z = abs(cmath.exp(root.z) - 1.0 - root.z)
        # lambda = -z/C, so its equation is checked relative to |lambda|
        res_l = abs(lam - (1.0 - cmath.exp(-lam * root.C)) / root.C) / max(1.0, abs(lam))
        entries.append({
            "k": root.k,
            "re_z": root.z.real, "im_z": root.z.imag,
            "re_lambda": lam.real, "im_lambda": lam.imag,
            "residual": max(res_z, res_l),
        })
    _emit(json.dumps({"kind": "roots", "C": args.C, "roots": entries}) + "\n",
          args.out)
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    entry = catalog(_case_from_args(args))
    wanted = _norm_label(args.subalgebra)
    fam = next((f for f in entry.families if _norm_label(f.label) == wanted), None)
    if fam is None:
        known = ", ".join(f.label for f in entry.families) or "(none)"
        raise ParameterDomainError(
            f"{entry.case.id} has no subalgebra {args.subalgebra!r}; "
            f"available: {known}")
    sol = solve_constraints(fam, _parse_params(args.fix) or None)
    obj = {
        "kind": "reduce",
        "case": entry.case.id,
        "subalgebra": fam.label,
        "status": sol.status.value,
        "params": {k: sol.params[k] for k in sorted(sol.params)},
        "free": sorted(sol.free),
        "y": None,
        "B": None,
        "max_residual": None,
        "note": sol.note,
    }
    if sol.status is Status.SOLVED:
        y, b = build_solution(fam, sol)
        if "C" in sol.params and sol.params.get("C") != (entry.case.params or {}).get("C"):
            # the existence condition moved the delay ratio; verify there
            entry = catalog(CatalogCase(entry.case.id, {"C": sol.params["C"]}))
        obj["y"] = ex.to_text(y)
        obj["B"] = b
        obj["max_residual"] = verify(y, entry.dods)
    _emit(json.dumps(obj) + "\n", args.out)
    return 0


def _norm_label(label: str) -> str:
    return label.replace("±", "+-").replace(" ", "").lower()


def _cmd_verify(args: argparse.Namespace) -> int:
    d, _ = _system_from_args(args)
    if args.solution_file:
        with open(args.solution_file, "r", encoding="utf-8") as fh:
            s = solution_from_json(fh.read())
        worst = residual_scan(s, d)
    else:
        worst = verify(args.solution, d)
    _emit(json.dumps({"kind": "verify", "max_residual": worst}) + "\n", args.out)
    return 0


# -- wiring -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="delaysym",
        description="classify, solve, and reduce linear delay systems")
    sub = top.add_subparsers(dest="command", required=True)

    def add_case_opts(p: argparse.ArgumentParser, with_spec: bool = False) -> None:
        p.add_argument("--case", help="catalog case id, e.g. A3_5")
        p.add_argument("--params", help="case constants, e.g. C1=1,C2=2")
        p.add_argument("--fn", help='user function, e.g. "f=sin(x)+2"')
        p.add_argument("--delay", help='delay spec, e.g. constant(1) or qscale(0.5)')
        if with_spec:
            p.add_argument("--spec", help="system file instead of a catalog case")

    p = sub.add_parser("catalog", help="list cases or show one")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("case", nargs="?", help="case id for show")
    p.add_argument("--params")
    p.add_argument("--fn")
    p.add_argument("--delay")
    p.set_defaults(fn=None, run=_cmd_catalog)

    p = sub.add_parser("solve", help="march a system by the method of steps")
    add_case_opts(p, with_spec=True)
    p.add_argument("--phi", help="history function of x; a --spec file may set it")
    p.add_argument("--x0", type=float, help="start of the solution; a --spec file may set it")
    p.add_argument("--intervals", type=int, default=3)
    p.add_argument("--scheme", choices=[s.value for s in Scheme],
                   default=Scheme.EXACT_LINEAR.value)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(run=_cmd_solve)

    p = sub.add_parser("mesh", help="print the delay mesh from x0")
    p.add_argument("--delay", required=True)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(run=_cmd_mesh)

    p = sub.add_parser("roots", help="characteristic roots for spacing C")
    p.add_argument("--C", type=float, required=True)
    p.add_argument("--k", type=int, required=True, help="largest branch index")
    p.add_argument("--out")
    p.set_defaults(run=_cmd_roots)

    p = sub.add_parser("reduce", help="solve a family's constraints")
    add_case_opts(p)
    p.add_argument("--subalgebra", required=True, help="family label, e.g. aX2+X3")
    p.add_argument("--fix", help="pin existence parameters, e.g. a=5")
    p.add_argument("--out")
    p.set_defaults(run=_cmd_reduce)

    p = sub.add_parser("verify", help="residual of a candidate solution")
    add_case_opts(p, with_spec=True)
    p.add_argument("--solution", help="closed form candidate y(x)")
    p.add_argument("--solution-file", help="JSON solution file")
    p.add_argument("--out")
    p.set_defaults(run=_cmd_verify)
    return top


def _joined(argv: Sequence[str]) -> list[str]:
    """argv with each --name joined to the word after it as --name=value, so
    that a value such as -x^2 is not read as an option: every option but
    --help takes one value, and -h or a word that starts with '--' is none."""
    out: list[str] = []
    for arg in argv:
        if out and re.fullmatch(r"--(?!help$)[^=]+", out[-1]) and not re.match("-h$|--", arg):
            out[-1] += f"={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_joined(sys.argv[1:] if argv is None else argv))
    error = None
    if args.command == "catalog" and args.action == "show" and not args.case:
        error = "catalog show needs a case id"
    elif getattr(args, "spec", None) is not None and any(
            getattr(args, name) is not None for name in ("case", "params", "fn", "delay")):
        error = "--spec cannot be combined with --case, --params, --fn or --delay"
    elif args.command in ("solve", "verify") and not (args.case or args.spec):
        error = f"{args.command} needs --case or --spec"
    elif args.command == "reduce" and not args.case:
        error = "reduce needs --case"
    elif args.command == "verify" and not (args.solution or args.solution_file):
        error = "verify needs --solution or --solution-file"
    elif args.command == "solve" and not args.spec and (args.phi is None or args.x0 is None):
        error = "solve needs --phi and --x0 unless a --spec file sets them"
    if error:
        parser.exit(2, f"{parser.prog} {args.command}: error: {error}\n")
    try:
        return args.run(args)
    except DelaySymError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
