"""Byte-for-byte CLI output against the recorded file data/cli_golden.json.

Each record holds the argument list, the exit status, and the exact stdout
and stderr of one ``delaysym`` command run in-process.  The file was made
before the catalog cases were folded into one table, so every case's
listing, system, generators and families is pinned to the bytes it printed
then.  The ``solve`` records pin both schemes' output on every delay kind
and on a general right hand side; they were recorded before the stepper read
its history in batches.  The record of a system file that sets its own phi
and x0 was added when solve began to read them, and the last three when sin,
cos and tan of an infinite value began to raise DomainError.  The
``catalog show A2_3 --fn f=ln(x)`` record changed when "identically zero"
came to be decided on the folded tree.  The two ``verify --solution-file``
records, a stored solution scanned under the delay of its mesh and under
another delay, were recorded before residual_scan read each segment in one
pass, and have not been regenerated since.  Commands run from the data
directory, so a ``--spec`` file there is named by its bare file name.
Regenerate the file only in a change that states which CLI bytes it alters:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import functools
import io
import json
import os
import pathlib

import pytest

from delaysym.cli import main

GOLDEN = pathlib.Path(__file__).with_name("data") / "cli_golden.json"

_FAMILIES = {
    "A3_1": ("aX2+X3",), "A3_3": ("X3",), "A3_5": ("X3",), "A3_7": ("X3",),
    "A3_13": ("X1±X2", "X1+aX3"), "A3_14": ("aX1+X3",),
    "A4_12": ("X1", "X1±X2", "aX1+X4"), "A4_14": ("aX3+X4",),
    "A4_21": ("Y1", "Y1±Y2", "aY1+Y4"),
}
# (system options and history, x0, intervals) of the recorded solves: constant,
# q-scale, Moebius and general delays, and a nonlinear system file
_SOLVES = (
    (["--case", "A3_5", "--phi", "exp(x)"], "0", "2"),
    (["--case", "A4_21", "--phi", "x"], "1", "3"),
    (["--case", "A3_7", "--params", "C2=0.5", "--phi", "1"], "0", "2"),
    (["--case", "A4_5", "--delay", 'general("x - 1 - 0.1*sin(x)")', "--phi", "cos(x)"],
     "0", "2"),
    (["--spec", "general_rhs.txt", "--phi", "1 + x"], "0", "2"),
)
_IDS = ("A2_1", "A2_3", "A3_1", "A3_3", "A3_5", "A3_7", "A3_11", "A3_13",
        "A3_14", "A3_15", "A4_5", "A4_12", "A4_14", "A4_21")


def commands() -> list[list[str]]:
    """The recorded commands, in file order."""
    out = [["catalog", "list"]]
    out += [["catalog", "show", cid] for cid in _IDS]
    out += [
        ["catalog", "show", "A3_3", "--params", "a=1"],
        ["catalog", "show", "A3_3", "--params", "a=1", "--delay", "moebius(0.5)"],
        ["catalog", "show", "A3_3", "--params", "a=-1"],
        ["catalog", "show", "A3_7", "--params", "b=0,C1=2,C2=0.5"],
        ["catalog", "show", "A4_21", "--params", "C=-0.3"],
        ["catalog", "show", "A2_1", "--fn", "f=x^2+1", "--delay", "qscale(0.5)"],
        ["catalog", "show", "A2_3", "--fn", "f=exp(x)", "--delay", "affine(0.5, 1)"],
        ["catalog", "show", "A3_15", "--delay", 'general("x - 1 - 0.1*sin(x)")'],
        ["catalog", "show", "A4_5", "--delay", "affine(2, 1)"],
    ]
    out += [["reduce", "--case", cid, "--subalgebra", label]
            for cid, labels in _FAMILIES.items() for label in labels]
    out += [
        # A3_5 has no degenerate branch: its denominator is 5.0e-15 here
        ["reduce", "--case", "A3_5", "--subalgebra", "X3", "--params", "C2=1e-7"],
        ["reduce", "--case", "A3_3", "--subalgebra", "X3", "--params", "a=-1,C1=2,C2=0.3"],
        ["reduce", "--case", "A3_7", "--subalgebra", "X3", "--params", "b=0"],
        ["reduce", "--case", "A3_1", "--subalgebra", "aX2+X3", "--fix", "a=2"],
        ["reduce", "--case", "A3_1", "--subalgebra", "aX2+X3", "--fix", "a=3"],
        ["reduce", "--case", "A3_14", "--subalgebra", "aX1+X3", "--fix", "a=1"],
        ["reduce", "--case", "A3_13", "--subalgebra", "X1+-X2", "--params", "C1=1"],
        ["reduce", "--case", "A3_13", "--subalgebra", "X1+aX3", "--params", "C1=1"],
        ["reduce", "--case", "A3_13", "--subalgebra", "X1+aX3", "--params", "C1=0.5"],
        ["reduce", "--case", "A3_13", "--subalgebra", "X1+aX3", "--fix", "a=0.5"],
        ["reduce", "--case", "A3_13", "--subalgebra", "X1+aX3", "--fix", "a=0"],
        ["reduce", "--case", "A4_12", "--subalgebra", "aX1+X4", "--fix", "a=1"],
        ["reduce", "--case", "A4_12", "--subalgebra", "aX1+X4", "--fix", "a=0"],
        ["reduce", "--case", "A4_14", "--subalgebra", "aX3+X4", "--params", "C=0.2"],
        ["reduce", "--case", "A4_14", "--subalgebra", "aX3+X4", "--fix", "a=0.5"],
        ["reduce", "--case", "A4_21", "--subalgebra", "aY1+Y4", "--fix", "a=1"],
        ["reduce", "--case", "A4_21", "--subalgebra", "aY1+Y4", "--fix", "a=0.5"],
        ["reduce", "--case", "A4_21", "--subalgebra", "aY1+Y4", "--fix", "a=0"],
        ["reduce", "--case", "A4_21", "--subalgebra", "aY1+Y4", "--params", "C=-0.3"],
        ["reduce", "--case", "A4_21", "--subalgebra", "Y1+-Y2", "--params", "C=-0.3"],
        ["reduce", "--case", "A3_5", "--subalgebra", "X3", "--fix", "a=1"],
        ["reduce", "--case", "A4_5", "--subalgebra", "X1"],
    ]
    out += [
        ["mesh", "--delay", "constant(1)", "--x0", "0", "--n", "4"],
        ["mesh", "--delay", "affine(0.5, 1)", "--x0", "0", "--n", "4"],
        ["mesh", "--delay", "affine(2, 1)", "--x0", "0", "--n", "4"],
        ["mesh", "--delay", "qscale(0.5)", "--x0", "1", "--n", "4"],
        ["mesh", "--delay", "moebius(0.5)", "--x0", "0", "--n", "2"],
        ["mesh", "--delay", 'general("x - 1 - 0.1*sin(x)")', "--x0", "0", "--n", "3"],
        ["mesh", "--delay", "moebius(1)", "--x0", "0", "--n", "3"],
    ]
    out += [
        ["verify", "--case", "A3_5", "--solution", "2.718281828459045*exp(x)"],
        ["verify", "--case", "A4_12", "--params", "C=0.7", "--solution", "3*x - 1"],
        ["verify", "--case", "A3_7", "--solution", "sqrt(1 + x^2)*exp(atan(x))"],
        ["verify", "--case", "A4_21", "--params", "C=-0.3", "--solution", "2*x"],
        ["verify", "--case", "A2_1", "--delay", "qscale(0.5)", "--solution", "x^2"],
        ["solve", "--case", "A3_7", "--phi", "1", "--x0", "0", "--intervals", "1",
         "--format", "json"],
    ]
    out += [
        ["catalog", "show", "A3_1", "--params", "C2=-1"],
        ["catalog", "show", "A3_3", "--params", "a=2"],
        ["catalog", "show", "A3_3", "--params", "a=0.5,C2=1.5"],
        ["catalog", "show", "A3_7", "--params", "b=-1"],
        ["catalog", "show", "A3_13", "--params", "C1=0"],
        ["catalog", "show", "A3_14", "--params", "C2=1"],
        ["catalog", "show", "A4_14", "--params", "C=0"],
        ["catalog", "show", "A4_21", "--params", "C=1.5"],
        ["catalog", "show", "A3_5", "--params", "Z=1"],
        ["catalog", "show", "A3_5", "--fn", "f=x"],
        ["catalog", "show", "A3_5", "--delay", "constant(2)"],
        ["catalog", "show", "A2_3", "--fn", "f=0"],
        ["catalog", "show", "A2_3", "--fn", "f=ln(x)"],
        ["catalog", "show", "A2_1", "--fn", "f=0"],
        ["catalog", "show", "A9_9"],
        ["reduce", "--case", "A3_11", "--subalgebra", "X1"],
        ["reduce", "--case", "A3_5", "--subalgebra", "X9"],
    ]
    for scheme in ("exact-linear", "rk4"):
        out += [["solve", *system, "--x0", x0, "--intervals", n, "--scheme", scheme,
                 "--format", "json"] for system, x0, n in _SOLVES]
    # a system file that sets phi and x0 itself
    out += [["solve", "--spec", "history_spec.txt", "--intervals", "2", "--format", "json"]]
    # sin of an infinite value, in fold, in a history and in a candidate
    out += [
        ["catalog", "show", "A2_1", "--fn", "f=sin(1e308*10)"],
        ["solve", "--case", "A3_5", "--phi", "sin(1e308*x*10)", "--x0", "0.5"],
        ["verify", "--case", "A3_5", "--solution", "sin(1e308*x*10)"],
    ]
    # a stored solution scanned under the delay of its mesh, and under another
    out += [
        ["verify", "--case", "A4_5", "--solution-file", "solution_a4_5.json"],
        ["verify", "--case", "A4_5", "--delay", "constant(0.5)",
         "--solution-file", "solution_a4_5.json"],
    ]
    return out


@functools.lru_cache(maxsize=None)
def _golden() -> dict[tuple[str, ...], dict]:
    records = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {tuple(r["argv"]): r for r in records}


@pytest.mark.parametrize("argv", commands(), ids=" ".join)
def test_matches_golden_bytes(capsys, monkeypatch, argv):
    monkeypatch.chdir(GOLDEN.parent)
    record = _golden()[tuple(argv)]
    status = main(argv)
    captured = capsys.readouterr()
    assert (status, captured.out, captured.err) == (
        record["status"], record["stdout"], record["stderr"])


def test_golden_file_holds_only_these_commands():
    assert list(_golden()) == [tuple(argv) for argv in commands()]


if __name__ == "__main__":
    os.chdir(GOLDEN.parent)
    records = []
    for argv in commands():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
        records.append({"argv": argv, "status": status,
                        "stdout": out.getvalue(), "stderr": err.getvalue()})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
