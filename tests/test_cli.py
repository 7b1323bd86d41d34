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

    def test_unit_affine_delay_without_a_positive_tau_is_one_error_line(self, capsys):
        code, out, err = run(capsys, "catalog", "show", "A2_1", "--delay", "affine(1, -1)")
        assert (code, out) == (1, "")
        assert err == "ParameterDomainError: affine delay with q = 1 needs tau > 0, got -1.0\n"

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

    def test_history_from_the_system_file(self, capsys, spec_file, tmp_path):
        with_history = tmp_path / "history.dods"
        with_history.write_text(SPEC + "phi = (x + 1)^2\nx0 = 0\n")
        from_file = run(capsys, "solve", "--spec", str(with_history), "--intervals", "2")
        from_flags = run(capsys, "solve", "--spec", spec_file, "--phi", "(x + 1)^2",
                         "--x0", "0", "--intervals", "2")
        assert from_file == from_flags and from_file[0] == 0

    def test_flags_override_the_system_file(self, capsys, spec_file, tmp_path):
        with_history = tmp_path / "history.dods"
        with_history.write_text(SPEC + "phi = 7\nx0 = 3\n")
        overridden = run(capsys, "solve", "--spec", str(with_history), "--phi", "(x + 1)^2",
                         "--x0", "0", "--intervals", "2")
        from_flags = run(capsys, "solve", "--spec", spec_file, "--phi", "(x + 1)^2",
                         "--x0", "0", "--intervals", "2")
        assert overridden == from_flags
        code, out, _ = run(capsys, "solve", "--spec", str(with_history), "--x0", "1",
                           "--intervals", "1")
        assert code == 0 and out.splitlines()[1] == "0,7,0,0"  # x = g(1), phi = 7

    def test_system_file_without_history_needs_the_flags(self, capsys, spec_file):
        code, out, err = run(capsys, "solve", "--spec", spec_file, "--phi", "x")
        assert code == 1 and out == ""
        assert err.startswith("ParameterDomainError: solve needs a history")

    def test_catalog_case_needs_both_flags(self):
        with pytest.raises(SystemExit) as info:
            main(["solve", "--case", "A3_5", "--phi", "x"])
        assert info.value.code == 2

    @pytest.mark.parametrize("scheme, message", [
        ("exact-linear", "the integrating factor overflows on the interval [0.0, 1.0]"),
        ("rk4", "the solution is not finite on the interval [0.0, 1.0]"),
    ])
    def test_overflow_is_a_domain_error(self, capsys, tmp_path, scheme, message):
        spec = tmp_path / "fast.dods"
        spec.write_text("alpha = 1e5\nbeta = 0.5\ngamma = 1\ndelay = constant(1)\n")
        code, out, err = run(capsys, "solve", "--spec", str(spec), "--phi", "1", "--x0", "0",
                             "--intervals", "1", "--scheme", scheme)
        assert code == 1 and out == ""
        assert err == f"DomainError: {message}\n"

    def test_solver_error_is_reported(self, capsys, spec_file):
        # phi(x0) mismatch cannot happen (phi defines the value), but a
        # domain violation can: qscale case started at negative x0
        code, _, err = run(capsys, "solve", "--case", "A3_14",
                           "--phi", "x", "--x0", "-1")
        assert code == 1
        assert "Error" in err

    @pytest.mark.parametrize("line, argv, message", [
        ("phi = x\nx0 = abc", ("solve",), "x0 needs a number, got 'abc'"),
        ("domain = (0, zz)", ("solve", "--phi", "x", "--x0", "0"),
         "domain needs a number, got 'zz'"),
        ("domain = (0, zz)", ("verify", "--solution", "x"), "domain needs a number, got 'zz'")],
        ids=("solve-x0", "solve-domain", "verify-domain"))
    def test_system_file_number_is_checked(self, capsys, tmp_path, line, argv, message):
        spec = tmp_path / "bad.dods"
        spec.write_text(SPEC + line + "\n")
        code, out, err = run(capsys, *argv, "--spec", str(spec))
        assert (code, out) == (1, "")
        assert err == f"ParameterDomainError: {message}\n"

    @pytest.mark.parametrize("line, argv, message", [
        ("phi = x", ("solve",), "system file sets phi but not x0"),
        ("x0 = 0", ("solve",), "system file sets x0 but not phi"),
        ("x0 = 0", ("solve", "--phi", "x", "--x0", "0"), "system file sets x0 but not phi"),
        ("phi = x", ("verify", "--solution", "x"), "system file sets phi but not x0")],
        ids=("solve-phi", "solve-x0", "solve-x0-with-flags", "verify-phi"))
    def test_system_file_sets_phi_and_x0_together(self, capsys, tmp_path, line, argv, message):
        spec = tmp_path / "half.dods"
        spec.write_text(SPEC + line + "\n")
        code, out, err = run(capsys, *argv, "--spec", str(spec))
        assert (code, out) == (1, "")
        assert err == f"ParameterDomainError: {message}; an initial condition needs both\n"

    def test_system_file_with_a_misspelt_key_is_one_error_line(self, capsys, tmp_path):
        spec = tmp_path / "typo.dods"
        spec.write_text(SPEC + "alhpa = 2\n")
        code, out, err = run(capsys, "solve", "--spec", str(spec), "--phi", "x", "--x0", "0")
        assert (code, out) == (1, "")
        assert err == ("ParameterDomainError: line 7: key 'alhpa' is not one of rhs.kind, "
                       "alpha, beta, gamma, f, delay, domain, phi, x0\n")


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

    @pytest.mark.parametrize("spec", ["constant(inf)", "affine(1, inf)", "affine(2, nan)",
                                      "affine(inf, 1)", "moebius(nan)", "moebius(inf)"])
    def test_non_finite_delay_is_one_error_line(self, capsys, spec):
        code, out, err = run(capsys, "mesh", "--delay", spec, "--x0", "0.5", "--n", "2")
        assert (code, out) == (1, "")
        assert err.startswith("ParameterDomainError: ") and err.count("\n") == 1
        assert "finite" in err

    @pytest.mark.parametrize("argv", [
        ("mesh", "--delay", "moebius(1)", "--n", "2"),
        ("solve", "--case", "A3_5", "--phi", "x + 1", "--intervals", "1")])
    def test_non_finite_x0_is_one_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--x0", "nan")
        assert (code, out, err) == (1, "", "ParameterDomainError: x0 must be finite, got nan\n")


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

    def test_residual_is_relative_to_lambda(self, capsys):
        # lambda = -z/C reaches 1e301 here; z itself solves e^z = 1 + z to
        # rounding, and the lambda equation is read relative to |lambda|
        code, out, _ = run(capsys, "roots", "--C", "1e-300", "--k", "2")
        assert code == 0
        roots = json.loads(out)["roots"]
        assert abs(roots[2]["re_lambda"]) > 1e299
        assert all(r["residual"] <= 1e-12 for r in roots)

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

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_pin(self, capsys, value):
        code, out, err = run(capsys, "reduce", "--case", "A3_1",
                             "--subalgebra", "aX2+X3", "--fix", f"a={value}")
        assert (code, out) == (1, "")
        assert err == f"ParameterDomainError: A3_1 needs a finite pinned a, got {value}\n"

    def test_unknown_subalgebra(self, capsys):
        code, _, err = run(capsys, "reduce", "--case", "A3_5",
                           "--subalgebra", "X9")
        assert code == 1
        assert "available" in err

    def test_power_ansatz_at_a_vanishing_gap(self, capsys):
        # a = 1e-13 puts the power gap of A3_3's X3 under 1e-12: the forcing
        # C1 then has no member, and without forcing the amplitude is free
        code, out, _ = run(capsys, "reduce", "--case", "A3_3", "--subalgebra", "X3",
                           "--params", "a=1e-13")
        obj = json.loads(out)
        assert code == 0 and obj["status"] == "no-solution" and obj["y"] is None
        assert obj["note"] == "the power ansatz cannot carry the forcing"
        code, out, _ = run(capsys, "reduce", "--case", "A3_3", "--subalgebra", "X3",
                           "--params", "a=1e-13,C1=0")
        obj = json.loads(out)
        assert code == 0 and obj["status"] == "solved" and obj["free"] == ["A"]
        assert obj["note"] == "degenerate: the amplitude stays free"
        assert obj["max_residual"] <= 1e-10


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
        with pytest.raises(SystemExit) as info:
            main(["verify", "--spec", spec_file])
        assert info.value.code == 2
        assert capsys.readouterr() == (
            "", "delaysym verify: error: verify needs --solution or --solution-file\n")

    def test_superscript_digit_is_a_parse_error(self, capsys):
        code, out, err = run(capsys, "verify", "--case", "A3_5", "--solution", "2²")
        assert (code, out, err) == (1, "", "ParseError: unexpected character '²' (at index 1)\n")

    @pytest.mark.parametrize("text, position", [
        ("(" * 200 + "x" + ")" * 200, 100),
        ("-" * 990 + "x", 100),
        ("+".join(["x"] * 3000), 201),
    ], ids=["200-parentheses", "990-minus-signs", "3000-term-sum"])
    def test_deep_text_is_a_parse_error(self, capsys, text, position):
        # the 101st level: an opening parenthesis or minus sign, or the
        # 101st plus sign of a chain; "=" keeps a leading minus a value
        code, out, err = run(capsys, "verify", "--case", "A3_5", f"--solution={text}")
        assert (code, out, err) == (1, "", "ParseError: expression nests deeper than 100 "
                                    f"levels (at index {position})\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda text: '{"kind": "solution"}', "the solution lacks the field 'delay'"),
        (lambda text: "not json", "malformed solution: Expecting value: line 1 column 1 (char 0)"),
        (lambda text: text.replace(', "dy": ', ', "slope": ', 1),
         "the solution lacks the field 'dy'"),
    ], ids=["no-delay", "not-json", "no-dy"])
    def test_malformed_solution_file(self, capsys, spec_file, tmp_path, edit, message):
        sol = tmp_path / "sol.json"
        run(capsys, "solve", "--spec", spec_file, "--phi", "(x + 1)^2",
            "--x0", "0", "--intervals", "2", "--format", "json", "--out", str(sol))
        sol.write_text(edit(sol.read_text()))
        code, out, err = run(capsys, "verify", "--spec", spec_file, "--solution-file", str(sol))
        assert (code, out, err) == (1, "", f"ParameterDomainError: {message}\n")


class TestOptionValues:
    @pytest.mark.parametrize("argv", [
        ("verify", "--case", "A3_5", "--solution", "-x^2"),
        ("solve", "--case", "A3_5", "--phi", "-x", "--x0", "-0.5", "--intervals", "1",
         "--format", "json"),
        ("reduce", "--case", "A4_21", "--subalgebra", "Y1", "--params", "C=-0.3"),
        ("catalog", "show", "A3_1", "--params", "C2=-1"),
    ])
    def test_both_spellings_give_the_same_bytes(self, capsys, argv):
        # every option takes one value, so --name value is --name=value, even
        # for a value that starts with a minus sign
        words, joined = list(argv), []
        while words:
            word = words.pop(0)
            joined.append(f"{word}={words.pop(0)}" if word.startswith("--") else word)
        spaced = run(capsys, *argv)
        assert spaced[0] == (1 if argv[0] == "catalog" else 0) and spaced[1:] != ("", "")
        assert run(capsys, *joined) == spaced
        if argv[0] == "verify":
            assert spaced == (0, '{"kind": "verify", "max_residual": 20.958076526111547}\n', "")

    @pytest.mark.parametrize("argv", [
        ("verify", "--case", "A3_5", "--solution"),
        ("verify", "--solution", "--case", "A3_5"),
        ("verify", "--case", "-h"),
        ("solve", "--case", "A3_5", "--x0", "0", "--phi"),
    ])
    def test_missing_value_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 2
        assert "expected one argument" in capsys.readouterr().err


class TestMissingOptions:
    """A subcommand without the options it needs is bad usage: exit 2, one
    line on stderr naming them, nothing on stdout."""

    @pytest.mark.parametrize("argv, error", [
        (("reduce", "--subalgebra", "X3"), "reduce needs --case"),
        (("solve", "--phi", "x", "--x0", "0"), "solve needs --case or --spec"),
        (("verify", "--solution", "x"), "verify needs --case or --spec"),
        (("verify",), "verify needs --case or --spec"),
        (("verify", "--case", "A3_5"), "verify needs --solution or --solution-file"),
        (("solve", "--case", "A3_5", "--phi", "x"),
         "solve needs --phi and --x0 unless a --spec file sets them"),
        (("catalog", "show"), "catalog show needs a case id"),
    ])
    def test_exits_2_with_one_line(self, capsys, argv, error):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"delaysym {argv[0]}: error: {error}\n"


class TestCaseOptions:
    @pytest.mark.parametrize("option, error", [
        (("--params", "C1"), "parameters look like NAME=VALUE, got 'C1'"),
        (("--params", "C1=abc"), "'C1' needs a number, got 'abc'"),
        (("--fn", "sin(x)"), 'user functions are passed as --fn "f=<expr>"'),
    ])
    def test_malformed_value_exits_1(self, capsys, option, error):
        case = "A2_1" if option[0] == "--fn" else "A3_5"
        assert run(capsys, "catalog", "show", case, *option) == (
            1, "", f"ParameterDomainError: {error}\n")


class TestSpecAlone:
    """--spec names the whole system, so no catalog option may come with it."""

    @pytest.mark.parametrize("command", [("solve", "--phi", "(x + 1)^2", "--x0", "0"),
                                         ("verify", "--solution", "x")])
    @pytest.mark.parametrize("option", [("--case", "A3_5"), ("--params", "C1=2"),
                                        ("--fn", "f=x"), ("--delay", "constant(2)")])
    def test_spec_with_a_catalog_option_is_an_argument_error(self, capsys, spec_file,
                                                             command, option):
        with pytest.raises(SystemExit) as info:
            main([command[0], *option, "--spec", spec_file, *command[1:]])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"delaysym {command[0]}: error: --spec cannot be combined with --case, "
            "--params, --fn or --delay\n")


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
