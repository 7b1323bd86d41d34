"""Invariant solution families: constraints, statuses, verification."""

import math
import pickle
import random
import re

import pytest

import delaysym.expr as ex
from delaysym.dods import CASE_IDS, CatalogCase, catalog
from delaysym.errors import DomainError, ParameterDomainError, StatusError
from delaysym.reduction import (
    ConstraintSolution,
    Role,
    Status,
    build_solution,
    families,
    solve_constraints,
    verify,
)
from delaysym.symmetry import Invariance, check_invariance
from test_acceptance import INVARIANCE_CASES


def family(case, label):
    for fam in families(case):
        if fam.label == label:
            return fam
    raise AssertionError(f"no family {label!r} in {case!r}")


def solved(case, label, fixed=None, free=None):
    fam = family(case, label)
    sol = solve_constraints(fam, fixed=fixed)
    assert sol.status is Status.SOLVED, sol.note
    y, b = build_solution(fam, sol, free=free)
    return fam, sol, y, b


class TestFamilyTables:
    def test_labels_per_case(self):
        expected = {
            "A3_1": ("aX2+X3",),
            "A3_3": ("X3",),
            "A3_5": ("X3",),
            "A3_7": ("X3",),
            "A3_13": ("X1±X2", "X1+aX3"),
            "A3_14": ("aX1+X3",),
            "A4_12": ("X1", "X1±X2", "aX1+X4"),
            "A4_14": ("aX3+X4",),
            "A4_21": ("Y1", "Y1±Y2", "aY1+Y4"),
        }
        for cid, labels in expected.items():
            got = tuple(f.label for f in families(cid))
            assert got == labels, cid

    def test_cases_without_optimal_system(self):
        for cid in ("A2_1", "A2_3", "A3_15", "A4_5"):
            assert families(cid) == ()

    def test_a3_3_scaling_branch_only(self):
        assert families(CatalogCase("A3_3", {"a": 1.0})) == ()
        assert len(families(CatalogCase("A3_3", {"a": -1.0}))) == 1

    # each label names a combination of the case's listed generators X1,
    # X2, ...; A4_21's labels use the paper's basis Y1 = X4 (x d_x),
    # Y2 = X1 (d_y) and Y4 = X2 - X4 (y d_y)
    _PAPER_BASIS = {"Y1": {"X4": 1.0}, "Y2": {"X1": 1.0}, "Y4": {"X2": 1.0, "X4": -1.0}}

    @pytest.mark.parametrize("case, label", [
        (cid, f.label) for cid in CASE_IDS if cid != "A3_11" for f in families(cid)])
    def test_generator_is_the_labelled_combination(self, case, label):
        entry = catalog(case)
        fam = family(case, label)
        listed = {v.name: v for v in entry.algebra}
        terms = re.findall(r"([+±]?)(a?)([XY]\d)", label)
        assert "".join(map("".join, terms)) == label
        rng = random.Random(label)
        rate = rng.uniform(-2.0, 2.0)  # a, the family's rate; ± takes the plus sign
        params = {**fam.case_params, "a": rate} if "a" in label else fam.case_params
        got = fam.generator(params)
        for _ in range(20):
            point = {"x": rng.uniform(0.1, 2.0), "y": rng.uniform(-2.0, 2.0)}
            want = [0.0, 0.0]
            for _, a, name in terms:
                for basis, weight in self._PAPER_BASIS.get(name, {name: 1.0}).items():
                    v = listed[basis]
                    scale = (rate if a else 1.0) * weight
                    want[0] += scale * ex.evaluate(v.xi, point)
                    want[1] += scale * ex.evaluate(v.eta, point)
            for g, w in zip((ex.evaluate(got.xi, point), ex.evaluate(got.eta, point)), want):
                assert abs(g - w) <= 1e-14 * (1.0 + abs(w)), (point, g, w)

    def test_roles(self):
        fam = family("A3_13", "X1+aX3")
        assert fam.roles["a"] is Role.EXISTENCE
        assert fam.roles["A"] is Role.FREE
        assert fam.roles["B"] is Role.DETERMINED
        fam = family("A3_5", "X3")
        assert fam.roles["A"] is Role.DETERMINED


class TestOneFamilyRecord:
    def test_reduction_reexports_the_catalog_records(self):
        import delaysym
        from delaysym import dods, reduction
        for name in ("InvariantFamily", "Role", "Status", "ConstraintSolution", "families"):
            assert getattr(reduction, name) is getattr(dods, name) is getattr(delaysym, name)

    @pytest.mark.parametrize("case", INVARIANCE_CASES, ids=repr)
    def test_catalog_and_families_give_equal_records(self, case):
        entry = catalog(case)
        assert entry == catalog(case)
        assert families(case) == families(case) == entry.families

    @pytest.mark.parametrize("case", INVARIANCE_CASES, ids=repr)
    def test_entry_and_families_pickle_as_their_fields(self, case):
        entry = catalog(case)
        back = pickle.loads(pickle.dumps(entry))
        assert back == entry and type(back) is type(entry)
        for fam in entry.families:
            again = pickle.loads(pickle.dumps(fam))
            assert again == fam and type(again) is type(fam)
            sol = solve_constraints(again)
            assert sol == solve_constraints(fam)
            if sol.status is Status.SOLVED:
                params = {**sol.params, **dict.fromkeys(sol.free, 1.0)}
                assert again.generator(params) == fam.generator(params)

    def test_only_a_family_rate_can_be_pinned(self):
        with pytest.raises(ParameterDomainError) as raised:
            solve_constraints(family("A4_12", "X1"), fixed={"a": 1.0})
        assert str(raised.value) == "only [] can be pinned here, not 'a'"
        with pytest.raises(ParameterDomainError) as raised:
            solve_constraints(family("A4_12", "aX1+X4"), fixed={"a": 5.0, "B": 1.0})
        assert str(raised.value) == "only ['a'] can be pinned here, not 'B'"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("case, label", [
        ("A3_1", "aX2+X3"), ("A3_13", "X1+aX3"), ("A4_12", "aX1+X4"),
        ("A4_14", "aX3+X4"), ("A4_21", "aY1+Y4")])
    def test_pinned_rate_must_be_finite(self, case, label, value):
        with pytest.raises(ParameterDomainError) as raised:
            solve_constraints(family(case, label), fixed={"a": value})
        assert str(raised.value) == f"{case} needs a finite pinned a, got {value!r}"


class TestDeterminedFamilies:
    def test_a3_1_rate_from_constants(self):
        _, sol, y, b = solved(CatalogCase("A3_1", {"C1": 1.0, "C2": 2.0}), "aX2+X3")
        assert sol.params["a"] == pytest.approx(1.0, abs=1e-14)
        assert b == 2.0
        assert ex.evaluate(y, {"x": 2.0}) == pytest.approx(3.0, abs=1e-12)

    def test_a3_1_default(self):
        _, sol, _, _ = solved("A3_1", "aX2+X3")
        assert sol.params["a"] == pytest.approx(2.0, abs=1e-14)

    def test_a3_3_amplitude(self):
        _, sol, y, _ = solved("A3_3", "X3")
        assert sol.params["A"] == pytest.approx(2.0, abs=1e-12)
        assert ex.evaluate(y, {"x": 3.0}) == pytest.approx(18.0, rel=1e-12)

    def test_a3_3_negative_exponent_branch(self):
        case = CatalogCase("A3_3", {"a": -1.0})
        _, sol, y, _ = solved(case, "X3")
        # p = 1/(1 - a) = 1/2; A = C1/(p - (1 - C2^p)/(1 - C2))
        denom = 0.5 - (1 - math.sqrt(0.5)) / 0.5
        assert sol.params["A"] == pytest.approx(1.0 / denom, rel=1e-12)
        assert ex.evaluate(y, {"x": 4.0}) == pytest.approx(2.0 / denom, rel=1e-12)

    def test_a3_5_amplitude_is_e_at_defaults(self):
        _, sol, _, _ = solved("A3_5", "X3")
        assert sol.params["A"] == pytest.approx(math.e, rel=1e-15)

    def test_a3_7_amplitude(self):
        _, sol, _, _ = solved("A3_7", "X3")
        want = 1.0 / (math.sqrt(2.0) * math.exp(-math.pi / 4))
        assert sol.params["A"] == pytest.approx(want, rel=1e-12)

    def test_a3_7_zero_twist(self):
        _, sol, _, _ = solved(CatalogCase("A3_7", {"b": 0.0}), "X3")
        assert sol.params["A"] == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-12)

    def test_a3_14_log_slope(self):
        _, sol, _, _ = solved("A3_14", "aX1+X3")
        want = 1.0 / (1.0 + 0.5 * math.log(0.5) / 0.5)
        assert sol.params["a"] == pytest.approx(want, rel=1e-12)


class TestExistenceFamilies:
    def test_a3_13_exponential_rate(self):
        case = CatalogCase("A3_13", {"C1": 2.0, "C2": 1.0})
        _, sol, _, _ = solved(case, "X1+aX3")
        a = sol.params["a"]
        assert a == pytest.approx(1.5936243, abs=1e-6)
        # the existence equation itself
        assert abs(a - 2.0 * (1.0 - math.exp(-a)) / 1.0) <= 1e-12

    def test_a3_13_decay_rate_for_small_gain(self):
        case = CatalogCase("A3_13", {"C1": 0.5, "C2": 1.0})
        _, sol, _, _ = solved(case, "X1+aX3")
        a = sol.params["a"]
        assert a < 0.0
        assert abs(a - 0.5 * (1.0 - math.exp(-a))) <= 1e-12

    def test_a3_13_unit_gain_degenerates_to_constants(self):
        _, sol, y, _ = solved("A3_13", "X1+aX3")
        assert sol.params["a"] == 0.0
        assert "degenerates to constants" in sol.note
        assert ex.evaluate(y, {"x": 5.0}) == 1.0

    def test_a3_13_lines_need_unit_gain(self):
        sol = solve_constraints(family("A3_13", "X1±X2"))
        assert sol.status is Status.SOLVED
        bad = solve_constraints(
            family(CatalogCase("A3_13", {"C1": 2.0}), "X1±X2"))
        assert bad.status is Status.NO_SOLUTION

    def test_a4_12_constants_always_work(self):
        _, sol, y, b = solved("A4_12", "X1")
        assert ex.evaluate(y, {"x": 0.0}) == 1.0
        assert b == 1.0

    def test_a4_12_parabola_never_works(self):
        sol = solve_constraints(family("A4_12", "X1±X2"))
        assert sol.status is Status.NO_SOLUTION

    def test_a4_12_exponential_trivial_only(self):
        sol = solve_constraints(family("A4_12", "aX1+X4"))
        assert sol.status is Status.TRIVIAL_ONLY

    def test_a4_12_pinned_rate_still_fails(self):
        sol = solve_constraints(family("A4_12", "aX1+X4"), fixed={"a": 5.0})
        assert sol.status is Status.TRIVIAL_ONLY

    def test_a4_12_zero_rate_rejected(self):
        with pytest.raises(ParameterDomainError):
            solve_constraints(family("A4_12", "aX1+X4"), fixed={"a": 0.0})

    def test_a4_14_spiral_trivial_only(self):
        sol = solve_constraints(family("A4_14", "aX3+X4"))
        assert sol.status is Status.TRIVIAL_ONLY
        assert sol.params == {"C": 1.0}

    def test_a4_21_log_family_moves_the_ratio(self):
        fam = family("A4_21", "Y1±Y2")
        sol = solve_constraints(fam)
        assert sol.status is Status.SOLVED
        c = sol.params["C"]
        assert c == pytest.approx(-0.2784645, abs=1e-6)
        assert abs(math.log(abs(c)) - c + 1.0) <= 1e-12
        assert sol.params["B"] == c
        assert "exists at C" in sol.note

    def test_a4_21_log_family_keeps_matching_ratio(self):
        c = -0.2784645427610738
        sol = solve_constraints(family(CatalogCase("A4_21", {"C": c}), "Y1±Y2"))
        assert sol.status is Status.SOLVED
        assert sol.params["C"] == c

    def test_a4_21_power_family_is_linear(self):
        _, sol, y, _ = solved("A4_21", "aY1+Y4")
        assert sol.params["a"] == pytest.approx(1.0, abs=1e-12)
        assert ex.evaluate(y, {"x": 3.0}) == pytest.approx(3.0, rel=1e-12)

    def test_a4_21_power_family_negative_ratio(self):
        case = CatalogCase("A4_21", {"C": -0.5})
        _, sol, _, _ = solved(case, "aY1+Y4")
        assert sol.params["a"] == 1.0

    def test_fixed_only_for_existence_parameters(self):
        with pytest.raises(ParameterDomainError):
            solve_constraints(family("A3_13", "X1+aX3"), fixed={"A": 2.0})


class TestBuildSolution:
    def test_free_default_and_override(self):
        fam = family("A4_12", "X1")
        sol = solve_constraints(fam)
        y, _ = build_solution(fam, sol)
        assert ex.evaluate(y, {"x": 0.3}) == 1.0
        y2, _ = build_solution(fam, sol, free={"A": -2.5})
        assert ex.evaluate(y2, {"x": 0.3}) == -2.5

    def test_unknown_free_rejected(self):
        fam = family("A3_5", "X3")
        sol = solve_constraints(fam)
        with pytest.raises(ParameterDomainError):
            build_solution(fam, sol, free={"A": 2.0})  # A is determined here

    def test_unsolved_family_rejected(self):
        fam = family("A4_14", "aX3+X4")
        sol = solve_constraints(fam)
        with pytest.raises(StatusError):
            build_solution(fam, sol)

    def test_unresolved_parameter_rejected(self):
        # a hand-built solution that never assigns the rate a of A exp(a x)
        fam = family("A3_13", "X1+aX3")
        sol = ConstraintSolution(Status.SOLVED, {"C1": 1.0, "C2": 1.0, "B": 1.0}, ("A",))
        with pytest.raises(StatusError, match=r"^unresolved parameters \['a'\] in the ansatz$"):
            build_solution(fam, sol)

    def test_delay_constant_must_match_the_case(self):
        fam = family("A3_13", "X1+aX3")
        sol = ConstraintSolution(Status.SOLVED, {"C1": 1.0, "C2": 1.0, "a": 0.0, "B": 1.5},
                                 ("A",))
        with pytest.raises(StatusError) as caught:
            build_solution(fam, sol)
        assert str(caught.value) == "delay constant B = 1.5 disagrees with the case delay 1.0"


ALL_SOLVED = [
    (CatalogCase("A3_1", {"C1": 1.0, "C2": 2.0}), "aX2+X3"),
    (CatalogCase("A3_1"), "aX2+X3"),
    (CatalogCase("A3_3"), "X3"),
    (CatalogCase("A3_3", {"a": -1.0}), "X3"),
    (CatalogCase("A3_5"), "X3"),
    (CatalogCase("A3_7"), "X3"),
    (CatalogCase("A3_7", {"b": 0.0}), "X3"),
    (CatalogCase("A3_13"), "X1±X2"),
    (CatalogCase("A3_13", {"C1": 2.0, "C2": 1.0}), "X1+aX3"),
    (CatalogCase("A3_14"), "aX1+X3"),
    (CatalogCase("A4_12"), "X1"),
    (CatalogCase("A4_21"), "Y1"),
    (CatalogCase("A4_21"), "Y1±Y2"),
    (CatalogCase("A4_21"), "aY1+Y4"),
]


def entry_for(case, sol):
    """Catalog entry at the ratio the family actually exists at."""
    base = catalog(case)
    c = sol.params.get("C")
    if c is not None and c != base.case.params.get("C"):
        return catalog(CatalogCase(case.id, {"C": c}))
    return base


def _verify_per_point(y, d, window):
    """verify as it was before it took whole columns, the bit-for-bit
    reference: at each point in turn g(x), the candidate and its slope at x,
    the candidate at g(x), then f."""
    e = ex.as_expr(y, ("x",))
    f = ex.compile(e, ("x",))
    df = ex.compile(ex.fold(ex.differentiate(e, "x")), ("x",))
    rhs, g = d.rhs_fn, d.delay.delayed_point
    lo, hi = window
    worst = 0.0
    for i in range(240):
        x = lo + (hi - lo) * ((i + 0.6180339887498949) / 240)
        xm = g(x)
        value, slope = f(x), df(x)
        r = abs(slope - rhs(x, value, f(xm)))
        if not math.isfinite(r):
            raise DomainError(f"the residual at x = {x!r} is {r!r}, not finite")
        worst = max(worst, r)
    return worst


class TestVerification:
    @pytest.mark.parametrize("case,label", ALL_SOLVED)
    @pytest.mark.parametrize("bend", [None, "0.01*x^2", "sin(x)"])
    def test_matches_the_per_point_verify(self, case, label, bend):
        # the closed forms, and the same bent off the family so the
        # residuals are not all rounding
        fam = family(case, label)
        sol = solve_constraints(fam)
        y, _ = build_solution(fam, sol)
        if bend is not None:
            y = ex.Binary("+", y, ex.parse(bend))
        e = entry_for(case, sol)
        assert verify(y, e.dods, e.window).hex() == _verify_per_point(y, e.dods, e.window).hex()

    @pytest.mark.parametrize("case,label", ALL_SOLVED)
    def test_built_solutions_satisfy_system(self, case, label):
        fam = family(case, label)
        sol = solve_constraints(fam)
        y, _ = build_solution(fam, sol)
        e = entry_for(case, sol)
        assert verify(y, e.dods, e.window) <= 1e-10

    @pytest.mark.parametrize(
        "case,label",
        [
            (CatalogCase("A3_1"), "aX2+X3"),
            (CatalogCase("A3_13"), "X1±X2"),
            (CatalogCase("A4_12"), "X1"),
            (CatalogCase("A4_21"), "aY1+Y4"),
        ],
    )
    def test_free_parameter_really_is_free(self, case, label):
        fam = family(case, label)
        sol = solve_constraints(fam)
        for value in (-1.0, 0.25, 3.0):
            y, _ = build_solution(fam, sol, free={"A": value})
            e = entry_for(case, sol)
            assert verify(y, e.dods, e.window) <= 1e-10, value

    def test_verify_rejects_wrong_candidate(self):
        e = catalog("A3_5")
        assert verify("2*exp(2*x)", e.dods, e.window) > 0.1

    def test_non_finite_residual_raises(self):
        e = catalog("A3_5")
        with pytest.raises(DomainError, match="residual at x = .* is nan"):
            verify("1e999*x", e.dods, e.window)

    def test_sign_convention_matters(self):
        # flipping the sign inside the log slope constraint leaves a visible
        # defect, so the plus convention is the correct one
        e = catalog("A3_14")
        a_plus = 1.0 / (1.0 + 0.5 * math.log(0.5) / 0.5)
        a_minus = 1.0 / (1.0 - 0.5 * math.log(0.5) / 0.5)
        good = f"{a_plus!r}*x*ln(x) + x"
        bad = f"{a_minus!r}*x*ln(x) + x"
        assert verify(good, e.dods, e.window) <= 1e-10
        assert verify(bad, e.dods, e.window) >= 0.1


class TestGenerators:
    @pytest.mark.parametrize(
        "case,label",
        [
            (CatalogCase("A3_5"), "X3"),
            (CatalogCase("A3_13"), "X1+aX3"),
            (CatalogCase("A4_21"), "aY1+Y4"),
        ],
    )
    def test_generator_is_a_symmetry_of_the_case(self, case, label):
        fam = family(case, label)
        sol = solve_constraints(fam)
        v = fam.generator(sol.params)
        e = entry_for(case, sol)
        mx, cls = check_invariance(v, e.dods, samples=80, window=e.window)
        assert mx <= 1e-8
        assert cls is not Invariance.NOT_INVARIANT
