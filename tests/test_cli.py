"""Command line front end: exit codes, output shapes, determinism."""

import json
import math

import pytest

from delaysym.cli import main
from delaysym.steps import residual_scan, solution_from_json
from delaysym.dods import load_spec

SPEC = """
# smoothing example system
alpha = 1
beta = -1
gamma = 0
delay = constant(1)
"""


@pytest.fixture()
def spec_file(tmp_path):
    p = tmp_path / "system.dods"
    p.write_text(SPEC)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCatalog:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        assert "A3_5:" in out
        assert "A3_11:" in out and "[no system]" in out

    def test_show(self, capsys):
        code, out, _ = run(capsys, "catalog", "show", "A3_5")
        assert code == 0
        assert "X3: xi = 1.0, eta = y" in out
        assert "families:" in out

    def test_show_with_params(self, capsys):
        code, out, _ = run(capsys, "catalog", "show", "A3_1", "--params", "C1=2,C2=3")
        assert code == 0
        assert '"C1": 2.0' in out and '"C2": 3.0' in out

    def test_show_requires_case(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["catalog", "show"])
        assert info.value.code == 2

    def test_unknown_case_fails_cleanly(self, capsys):
        code, out, err = run(capsys, "catalog", "show", "A9_9")
        assert code == 1
        assert "ParameterDomainError" in err
        assert out == ""

    def test_case_without_system(self, capsys):
        code, _, err = run(capsys, "catalog", "show", "A3_11")
        assert code == 1
        assert "NoDodsError" in err


class TestSolve:
    def test_csv_to_stdout(self, capsys, spec_file):
        code, out, _ = run(capsys, "solve", "--spec", spec_file,
                           "--phi", "(x + 1)^2", "--x0", "0", "--intervals", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,y,ydot_left,ydot_right"
        last = lines[-1].split(",")
        assert float(last[0]) == 1.0
        assert float(last[1]) == pytest.approx(5 - math.e, abs=1e-8)

    def test_json_round_trip(self, capsys, spec_file, tmp_path):
        out_file = tmp_path / "sol.json"
        code, _, _ = run(capsys, "solve", "--spec", spec_file,
                         "--phi", "(x + 1)^2", "--x0", "0",
                         "--intervals", "2", "--format", "json",
                         "--out", str(out_file))
        assert code == 0
        s = solution_from_json(out_file.read_text())
        d, _ = load_spec(SPEC)
        assert residual_scan(s, d) <= 1e-6

    def test_catalog_case_source(self, capsys):
        code, out, _ = run(capsys, "solve", "--case", "A3_5",
                           "--phi", "exp(x)*2.718281828459045",
                           "--x0", "0", "--intervals", "1")
        assert code == 0
        assert out.startswith("x,y,")

    def test_rk4_scheme(self, capsys, spec_file):
        code, out, _ = run(capsys, "solve", "--spec", spec_file,
                           "--phi", "(x + 1)^2", "--x0", "0",
                           "--intervals", "1", "--scheme", "rk4")
        assert code == 0

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as info:
            main(["solve", "--phi", "x"])
        assert info.value.code == 2

    def test_solver_error_is_reported(self, capsys, spec_file):
        # phi(x0) mismatch cannot happen (phi defines the value), but a
        # domain violation can: qscale case started at negative x0
        code, _, err = run(capsys, "solve", "--case", "A3_14",
                           "--phi", "x", "--x0", "-1")
        assert code == 1
        assert "Error" in err


def test_listing_and_meshing_compile_nothing(capsys, monkeypatch):
    # trees compile on first evaluation in a hot path, never while a
    # system is only built, validated or printed; a mesh of a closed-form
    # relation evaluates no tree at all (a general one compiles g)
    import delaysym.expr as ex
    from delaysym.dods import CASE_IDS

    def refuse(*args):
        raise AssertionError("compiled an expression")

    monkeypatch.setattr(ex, "compile", refuse)
    assert run(capsys, "catalog", "list")[0] == 0
    for cid in CASE_IDS:
        if cid != "A3_11":
            assert run(capsys, "catalog", "show", cid)[0] == 0, cid
    for spec in ("constant(1)", "affine(0.7, 1)", "qscale(0.5)", "moebius(0.2)"):
        assert run(capsys, "mesh", "--delay", spec, "--x0", "0.5", "--n", "3")[0] == 0, spec


class TestMesh:
    def test_constant_mesh(self, capsys):
        code, out, _ = run(capsys, "mesh", "--delay", "constant(1)",
                           "--x0", "0", "--n", "3")
        assert code == 0
        obj = json.loads(out)
        assert obj["kind"] == "mesh"
        assert obj["points"] == [-1.0, 0.0, 1.0, 2.0, 3.0]

    def test_qscale_mesh(self, capsys):
        code, out, _ = run(capsys, "mesh", "--delay", "qscale(0.5)",
                           "--x0", "1", "--n", "2")
        obj = json.loads(out)
        assert obj["points"] == [0.5, 1.0, 2.0, 4.0]

    def test_bad_delay(self, capsys):
        code, _, err = run(capsys, "mesh", "--delay", "constant(-1)",
                           "--x0", "0", "--n", "2")
        assert code == 1
        assert "ParameterDomainError" in err


class TestRoots:
    def test_shape_and_residuals(self, capsys):
        code, out, _ = run(capsys, "roots", "--C", "1", "--k", "3")
        assert code == 0
        obj = json.loads(out)
        assert obj["kind"] == "roots"
        assert [r["k"] for r in obj["roots"]] == [0, 1, 2, 3]
        assert all(r["residual"] <= 1e-12 for r in obj["roots"])
        first = obj["roots"][1]
        assert 2 * math.pi < first["im_z"] < 3 * math.pi

    def test_far_branch(self, capsys):
        code, out, _ = run(capsys, "roots", "--C", "1", "--k", "21")
        assert code == 0
        last = json.loads(out)["roots"][-1]
        assert last["k"] == 21
        assert abs(last["im_z"] - 42 * math.pi) < math.pi

    def test_negative_spacing(self, capsys):
        code, _, err = run(capsys, "roots", "--C", "-1", "--k", "1")
        assert code == 1
        assert "ParameterDomainError" in err

    @pytest.mark.parametrize("spacing, error", [
        ("inf", "ParameterDomainError"),   # printed "C": Infinity, not JSON
        ("nan", "ParameterDomainError"),
        ("1e-320", "DomainError"),         # lambda = -z/C overflowed to -inf
    ])
    def test_spacing_without_finite_roots(self, capsys, spacing, error):
        code, out, err = run(capsys, "roots", "--C", spacing, "--k", "1")
        assert code == 1 and out == ""
        assert err.startswith(f"{error}:")


class TestReduce:
    def test_solved_family(self, capsys):
        code, out, _ = run(capsys, "reduce", "--case", "A3_13",
                           "--params", "C1=2,C2=1", "--subalgebra", "X1+aX3")
        assert code == 0
        obj = json.loads(out)
        assert obj["status"] == "solved"
        assert obj["params"]["a"] == pytest.approx(1.5936243, abs=1e-6)
        assert obj["max_residual"] <= 1e-10
        assert obj["free"] == ["A"]

    def test_existence_rate_refined_to_machine_precision(self, capsys):
        # verify multiplies the rate's error by A exp(a x); a rate stopped at
        # an absolute 1e-13 residual left 1.6e-10 here
        code, out, _ = run(capsys, "reduce", "--case", "A3_13", "--subalgebra", "X1+aX3",
                           "--params", "C1=2.4991285391625793,C2=0.8837590527555651")
        assert code == 0
        obj = json.loads(out)
        assert obj["status"] == "solved"
        assert obj["max_residual"] <= 1e-10

    def test_ascii_label_spelling(self, capsys):
        code, out, _ = run(capsys, "reduce", "--case", "A4_21",
                           "--subalgebra", "Y1+-Y2")
        assert code == 0
        obj = json.loads(out)
        assert obj["status"] == "solved"
        assert obj["params"]["C"] == pytest.approx(-0.2784645, abs=1e-6)
        assert obj["max_residual"] <= 1e-10

    def test_trivial_only_family(self, capsys):
        code, out, _ = run(capsys, "reduce", "--case", "A4_14",
                           "--subalgebra", "aX3+X4")
        obj = json.loads(out)
        assert obj["status"] == "trivial-only"
        assert obj["y"] is None
        assert obj["max_residual"] is None

    def test_fix_pins_rate(self, capsys):
        code, out, _ = run(capsys, "reduce", "--case", "A4_12",
                           "--subalgebra", "aX1+X4", "--fix", "a=5")
        obj = json.loads(out)
        assert obj["status"] == "trivial-only"
        assert obj["params"]["a"] == 5.0

    def test_non_finite_constant(self, capsys):
        code, out, err = run(capsys, "reduce", "--case", "A3_5",
                             "--subalgebra", "X3", "--params", "C1=nan")
        assert (code, out) == (1, "")
        assert err.startswith("ParameterDomainError: A3_5 needs a finite C1")

    def test_unknown_subalgebra(self, capsys):
        code, _, err = run(capsys, "reduce", "--case", "A3_5",
                           "--subalgebra", "X9")
        assert code == 1
        assert "available" in err


class TestVerify:
    def test_closed_form(self, capsys):
        code, out, _ = run(capsys, "verify", "--case", "A3_5",
                           "--solution", "2.718281828459045*exp(x)")
        assert code == 0
        obj = json.loads(out)
        assert obj["kind"] == "verify"
        assert obj["max_residual"] <= 1e-10

    def test_wrong_closed_form(self, capsys):
        code, out, _ = run(capsys, "verify", "--case", "A3_5",
                           "--solution", "exp(2*x)")
        assert code == 0
        assert json.loads(out)["max_residual"] > 0.01

    def test_non_finite_residual(self, capsys):
        code, out, err = run(capsys, "verify", "--case", "A3_5",
                             "--solution", "1e999*x")
        assert (code, out) == (1, "")
        assert err.startswith("DomainError:")

    def test_solution_file_round_trip(self, capsys, spec_file, tmp_path):
        sol = tmp_path / "sol.json"
        run(capsys, "solve", "--spec", spec_file, "--phi", "(x + 1)^2",
            "--x0", "0", "--intervals", "2", "--format", "json",
            "--out", str(sol))
        code, out, _ = run(capsys, "verify", "--spec", spec_file,
                           "--solution-file", str(sol))
        assert code == 0
        reported = json.loads(out)["max_residual"]
        d, _ = load_spec(SPEC)
        direct = residual_scan(solution_from_json(sol.read_text()), d)
        assert reported == pytest.approx(direct, abs=1e-12)

    def test_requires_candidate(self, capsys, spec_file):
        code, _, err = run(capsys, "verify", "--spec", spec_file)
        assert code == 1
        assert "ParameterDomainError" in err


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("catalog", "list"),
            ("catalog", "show", "A4_21"),
            ("solve", "--case", "A4_12", "--phi", "x", "--x0", "0.5",
             "--intervals", "2"),
            ("roots", "--C", "0.5", "--k", "4"),
            ("reduce", "--case", "A3_14", "--subalgebra", "aX1+X3"),
        ],
    )
    def test_repeated_runs_are_byte_identical(self, capsys, argv):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
