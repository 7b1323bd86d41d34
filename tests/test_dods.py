"""System containers, the text format, and the invariant equation catalog."""

import math

import pytest

import delaysym.expr as ex
from delaysym.delay import ConstantDelay, GeneralDelay, MoebiusDelay, QScaleDelay
from delaysym.dods import (
    CASE_IDS,
    CatalogCase,
    Dods,
    GeneralRhs,
    InitialCondition,
    LinearRhs,
    catalog,
    homogenized,
    initial_condition,
    list_cases,
    load_spec,
    resolve_case,
    validate_beta,
    _max_residual,
)
from delaysym.errors import DomainError, NoDodsError, ParameterDomainError, SchemeMismatch

SYSTEM_CASES = tuple(cid for cid in CASE_IDS if cid != "A3_11")


def linear(alpha="0", beta="1", gamma="0", relation=None):
    return Dods(
        LinearRhs(ex.parse(alpha), ex.parse(beta), ex.parse(gamma)),
        relation or ConstantDelay(1.0),
    )


class TestContainers:
    def test_linear_rhs_coefficients_depend_on_x_only(self):
        with pytest.raises(ParameterDomainError):
            LinearRhs(ex.parse("y", ("y",)), ex.Num(1.0), ex.Num(0.0))

    @pytest.mark.parametrize("build", [
        lambda: LinearRhs("x", ex.Num(1.0), ex.Num(0.0)),
        lambda: GeneralRhs("y"),
        lambda: InitialCondition("x", 1.0),
    ])
    def test_text_is_not_a_tree(self, build):
        with pytest.raises(ParameterDomainError, match="expected an expression tree"):
            build()

    def test_general_rhs_variables(self):
        GeneralRhs(ex.parse("x + y*ym", ("x", "y", "ym")))
        with pytest.raises(ParameterDomainError):
            GeneralRhs(ex.parse("x + z", ("x", "z")))

    def test_rhs_value_linear(self):
        d = linear(alpha="2", beta="-1", gamma="x")
        assert d.rhs_value(3.0, 5.0, 4.0) == 2 * 5 - 4 + 3

    def test_domain_must_be_nonempty(self):
        with pytest.raises(ParameterDomainError):
            Dods(LinearRhs(ex.Num(0.0), ex.Num(1.0), ex.Num(0.0)),
                 ConstantDelay(1.0), domain=(2.0, 2.0))

    def test_manifold_variable_check(self):
        with pytest.raises(ParameterDomainError):
            Dods(LinearRhs(ex.Num(0.0), ex.Num(1.0), ex.Num(0.0)),
                 ConstantDelay(1.0),
                 rhs_manifold=ex.parse("t", ("t",)))

    def test_homogenized_drops_gamma(self):
        d = linear(alpha="1", beta="-1", gamma="sin(x)")
        h = homogenized(d)
        assert ex.evaluate(h.rhs.gamma, {"x": 0.4}) == 0.0
        assert h.rhs_value(0.4, 2.0, 1.0) == d.rhs_value(0.4, 2.0, 1.0) - math.sin(0.4)

    def test_homogenized_needs_linear(self):
        d = Dods(GeneralRhs(ex.parse("y*ym", ("y", "ym"))), ConstantDelay(1.0))
        with pytest.raises(SchemeMismatch):
            homogenized(d)

    def test_initial_condition_links_history(self):
        # the record is phi and x0; the solved system's delay fixes g(x0), so
        # the relation given here only checks that it delays at x0
        init = initial_condition("x^2", ConstantDelay(0.5), 1.0)
        assert init == InitialCondition(ex.parse("x^2"), 1.0)
        assert initial_condition("x^2", ConstantDelay(2.0), 1.0) == init
        with pytest.raises(DomainError, match="scale relation delays only on x > 0"):
            initial_condition("x^2", QScaleDelay(0.5), -1.0)

    def test_validate_beta(self):
        validate_beta(linear(beta="sin(x) + 2"))
        with pytest.raises(ParameterDomainError):
            validate_beta(linear(beta="0"))


class TestLoadSpec:
    def test_linear_system_with_initial_data(self):
        d, init = load_spec(
            """
            # a forced equation
            alpha = 1
            beta = -1
            gamma = 0
            delay = constant(1)
            phi = (x + 1)^2
            x0 = 0
            """
        )
        assert isinstance(d.rhs, LinearRhs)
        assert d.delay == ConstantDelay(1.0)
        assert init == InitialCondition(ex.parse("(x + 1)^2"), 0.0)

    def test_coefficients_default_to_zero(self):
        d, init = load_spec("beta = 1\ndelay = constant(2)")
        assert ex.evaluate(d.rhs.alpha, {"x": 1.0}) == 0.0
        assert init is None

    def test_general_rhs(self):
        d, _ = load_spec('rhs.kind = general\nf = y * ym\ndelay = qscale(0.5)')
        assert isinstance(d.rhs, GeneralRhs)

    def test_domain_key(self):
        d, _ = load_spec("beta = 1\ndelay = qscale(0.5)\ndomain = (0, 10)")
        assert d.domain == (0.0, 10.0)

    def test_quoted_values(self):
        d, _ = load_spec('beta = "x + 1"\ndelay = "constant(1)"')
        assert ex.evaluate(d.rhs.beta, {"x": 1.0}) == 2.0

    def test_missing_delay(self):
        with pytest.raises(ParameterDomainError):
            load_spec("beta = 1")

    def test_general_requires_f(self):
        with pytest.raises(ParameterDomainError):
            load_spec("rhs.kind = general\ndelay = constant(1)")

    def test_bad_kind(self):
        with pytest.raises(ParameterDomainError):
            load_spec("rhs.kind = quadratic\ndelay = constant(1)")

    def test_line_without_assignment(self):
        with pytest.raises(ParameterDomainError):
            load_spec("beta 1\ndelay = constant(1)")

    def test_bad_domain(self):
        with pytest.raises(ParameterDomainError):
            load_spec("beta = 1\ndelay = constant(1)\ndomain = [0, 1]")

    KEYS = "rhs.kind, alpha, beta, gamma, f, delay, domain, phi, x0"

    @pytest.mark.parametrize("text, message", [
        ("alhpa = 1\ndelay = constant(1)", f"line 1: key 'alhpa' is not one of {KEYS}"),
        ("beta = 1\n\n# x\ndelay = constant(1)\nBeta = 2",
         f"line 5: key 'Beta' is not one of {KEYS}"),
        ("= 1\ndelay = constant(1)", f"line 1: key '' is not one of {KEYS}"),
        ("beta = 1\ndelay = constant(1)\nbeta = 2", "line 3: key 'beta' is set twice"),
        ("delay = constant(1)\ndelay = constant(2)", "line 2: key 'delay' is set twice"),
        ("rhs.kind = general\nrhs.kind = linear\nf = y\ndelay = constant(1)",
         "line 2: key 'rhs.kind' is set twice"),
        ("f = y\ndelay = constant(1)", "line 1: key 'f' does not belong in a linear system file"),
        ("rhs.kind = linear\nbeta = 1\nf = y\ndelay = constant(1)",
         "line 3: key 'f' does not belong in a linear system file"),
        ("rhs.kind = general\nf = y\nalpha = 1\ndelay = constant(1)",
         "line 3: key 'alpha' does not belong in a general system file"),
        ("beta = 1\nrhs.kind = General\nf = y\ndelay = constant(1)",
         "line 1: key 'beta' does not belong in a general system file"),
        ("rhs.kind = general\nf = y\ngamma = 0\ndelay = constant(1)",
         "line 3: key 'gamma' does not belong in a general system file"),
    ], ids=("misspelt", "capitalized", "empty", "beta-twice", "delay-twice", "kind-twice",
            "f-in-linear-by-default", "f-in-linear", "alpha-in-general", "beta-in-general",
            "gamma-in-general"))
    def test_a_key_that_would_be_dropped_is_refused(self, text, message):
        with pytest.raises(ParameterDomainError) as info:
            load_spec(text)
        assert str(info.value) == message

    def test_domain_bound_not_a_number(self):
        with pytest.raises(ParameterDomainError) as raised:
            load_spec("beta = 1\ndelay = constant(1)\ndomain = (0, zz)")
        assert str(raised.value) == "domain needs a number, got 'zz'"

    def test_x0_not_a_number(self):
        with pytest.raises(ParameterDomainError) as raised:
            load_spec("beta = 1\ndelay = constant(1)\nphi = x\nx0 = abc")
        assert str(raised.value) == "x0 needs a number, got 'abc'"

    def test_x0_is_a_number_without_phi_too(self):
        with pytest.raises(ParameterDomainError) as raised:
            load_spec("beta = 1\ndelay = constant(1)\nx0 = abc")
        assert str(raised.value) == "x0 needs a number, got 'abc'"

    @pytest.mark.parametrize("line, given, missing", [
        ("phi = (x + 1)^2", "phi", "x0"), ("x0 = 0", "x0", "phi")])
    def test_phi_and_x0_come_together(self, line, given, missing):
        with pytest.raises(ParameterDomainError) as raised:
            load_spec(f"beta = 1\ndelay = constant(1)\n{line}")
        assert str(raised.value) == (f"system file sets {given} but not {missing}; "
                                     "an initial condition needs both")

    def test_no_history_without_phi_and_x0(self):
        assert load_spec("beta = 1\ndelay = constant(1)")[1] is None


class TestResolveCase:
    def test_unknown_case(self):
        with pytest.raises(ParameterDomainError, match="unknown case"):
            resolve_case("A9_9")

    def test_case_without_system(self):
        with pytest.raises(NoDodsError):
            resolve_case("A3_11")
        assert not next(i for i in list_cases() if i.id == "A3_11").admits_system

    def test_defaults_fill_in(self):
        c = resolve_case("A3_5")
        assert c.params == {"C1": 1.0, "C2": 1.0}

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ParameterDomainError):
            resolve_case(CatalogCase("A3_5", {"zeta": 2.0}))

    @pytest.mark.parametrize(
        "cid,params",
        [
            ("A3_1", {"C2": 0.0}),
            ("A3_1", {"C2": -1.0}),
            ("A3_3", {"a": 0.0}),
            ("A3_3", {"a": 1.5}),
            ("A3_3", {"a": 0.5, "C2": 1.0}),
            ("A3_3", {"a": 0.5, "C2": 0.0}),
            ("A3_7", {"b": -1.0}),
            ("A3_7", {"C2": -2.0}),
            ("A3_13", {"C1": 0.0}),
            ("A3_14", {"C2": 1.0}),
            ("A4_12", {"C": 0.0}),
            ("A4_14", {"C": -1.0}),
            ("A4_21", {"C": 0.0}),
            ("A4_21", {"C": 1.0}),
            ("A4_21", {"C": -1.5}),
        ],
    )
    def test_parameter_domains(self, cid, params):
        with pytest.raises(ParameterDomainError):
            resolve_case(CatalogCase(cid, params))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "cid,key", [(cid, key) for cid in SYSTEM_CASES for key in resolve_case(cid).params])
    def test_non_finite_constants_rejected(self, cid, key, value):
        with pytest.raises(ParameterDomainError, match=f"needs a finite {key}, got"):
            resolve_case(CatalogCase(cid, {key: value}))

    def test_a3_3_boundary_values_allowed(self):
        assert resolve_case(CatalogCase("A3_3", {"a": -1.0})).params["a"] == -1.0
        assert resolve_case(CatalogCase("A3_3", {"a": 1.0})).params["a"] == 1.0

    def test_negative_ratio_allowed_for_a4_21(self):
        c = resolve_case(CatalogCase("A4_21", {"C": -0.3}))
        assert c.params["C"] == -0.3

    def test_function_cases_accept_f(self):
        c = resolve_case(CatalogCase("A2_1", f="x^2 + 1"))
        assert ex.evaluate(c.f, {"x": 2.0}) == 5.0

    def test_function_rejected_elsewhere(self):
        with pytest.raises(ParameterDomainError):
            resolve_case(CatalogCase("A3_5", f="x"))

    def test_free_delay_cases_accept_delay(self):
        c = resolve_case(CatalogCase("A4_5", delay="qscale(0.5)"))
        assert isinstance(c.delay, QScaleDelay)

    def test_pinned_delay_cases_reject_delay(self):
        with pytest.raises(ParameterDomainError):
            resolve_case(CatalogCase("A4_12", delay="constant(2)"))

    def test_a3_3_frees_delay_only_at_a_equal_one(self):
        c = resolve_case(CatalogCase("A3_3", {"a": 1.0}, delay="constant(2)"))
        assert c.delay == ConstantDelay(2.0)
        with pytest.raises(ParameterDomainError):
            resolve_case(CatalogCase("A3_3", {"a": 0.5}, delay="constant(2)"))


class TestCatalog:
    def test_listing_covers_catalog(self):
        assert len(list_cases()) == 14
        assert len(CASE_IDS) == 14

    @pytest.mark.parametrize("cid", SYSTEM_CASES)
    def test_entry_shape(self, cid):
        e = catalog(cid)
        assert isinstance(e.dods.rhs, LinearRhs)
        assert e.dods.rhs_manifold is not None
        assert e.algebra, cid
        names = [v.name for v in e.algebra]
        assert names == [f"X{i}" for i in range(1, len(names) + 1)]
        lo, hi = e.dods.domain
        wlo, whi = e.window
        assert lo <= wlo < whi <= hi

    @pytest.mark.parametrize("cid", SYSTEM_CASES)
    def test_manifold_matches_substituted_rhs(self, cid):
        # substituting xm = g(x) into the four variable form must reproduce
        # the linear coefficients exactly
        e = catalog(cid)
        d = e.dods
        lo, hi = e.window
        for i in range(25):
            x = lo + (hi - lo) * (i + 0.5) / 25
            xm = d.delay.delayed_point(x)
            for y, ym in ((0.7, -0.3), (-1.2, 2.0)):
                m = ex.evaluate(d.rhs_manifold, {"x": x, "y": y, "xm": xm, "ym": ym})
                assert m == pytest.approx(d.rhs_value(x, y, ym), rel=1e-10, abs=1e-10)

    def test_algebra_dimensions(self):
        expected = {
            "A2_1": 2, "A2_3": 2, "A3_1": 3, "A3_3": 3, "A3_5": 3,
            "A3_7": 3, "A3_13": 3, "A3_14": 3, "A3_15": 2, "A4_5": 3,
            "A4_12": 4, "A4_14": 4, "A4_21": 4,
        }
        for cid, n in expected.items():
            assert len(catalog(cid).algebra) == n, cid

    def test_a3_3_a_equal_one_drops_forcing(self):
        e = catalog(CatalogCase("A3_3", {"a": 1.0}))
        assert ex.evaluate(e.dods.rhs.gamma, {"x": 1.0}) == 0.0
        assert len(e.algebra) == 3

    def test_custom_function(self):
        e = catalog(CatalogCase("A2_3", f="exp(x)"))
        assert ex.evaluate(e.dods.rhs.gamma, {"x": 0.0}) == 1.0

    def test_a2_3_rejects_vanishing_f(self):
        for f in ("0", "0*x"):
            with pytest.raises(ParameterDomainError, match="^A2_3 needs f not identically zero; "
                               "A2_1 covers the homogeneous equation$"):
                catalog(CatalogCase("A2_3", f=f))

    def test_vanishing_beta_rejected(self):
        for f in ("0", "0*x"):
            with pytest.raises(ParameterDomainError, match="^delay coefficient beta vanishes "
                               "identically; the system is an ODE$"):
                catalog(CatalogCase("A2_1", f=f))

    # "identically zero" is decided on the folded tree: a sine that vanishes
    # on every midpoint of 20 equal cells of the window (-1, 3), and a tiny
    # constant, are not zero
    _VANISHING_ON_MIDPOINTS = "sin(15.707963267948966*(x + 0.9))"

    @pytest.mark.parametrize("cid, f", [
        ("A2_1", _VANISHING_ON_MIDPOINTS), ("A2_1", "1e-13"), ("A2_3", _VANISHING_ON_MIDPOINTS)])
    def test_nonzero_f_that_is_small_on_samples_builds(self, cid, f):
        e = catalog(CatalogCase(cid, f=f))
        assert e.window == (-1.0, 3.0)
        assert max(abs(ex.evaluate(e.dods.rhs.beta if cid == "A2_1" else e.dods.rhs.gamma,
                                   {"x": -1.0 + 0.2 * (i + 0.5)})) for i in range(20)) <= 1e-12

    def test_zero_that_does_not_fold_is_accepted(self):
        e = catalog(CatalogCase("A2_3", f="sin(x)^2 + cos(x)^2 - 1"))
        assert not ex.is_zero(e.dods.rhs.gamma)

    @pytest.mark.parametrize("f, message", [
        ("sin(1e308*10)", "sin of infinite value inf"),
        ("x*ln(0 - 1)", "ln of non-positive value -1.0"),
    ])
    def test_f_undefined_everywhere_rejected(self, f, message):
        with pytest.raises(DomainError) as caught:
            catalog(CatalogCase("A2_1", f=f))
        assert str(caught.value) == message

    def test_custom_delay_moves_window(self):
        e = catalog(CatalogCase("A4_5", delay="qscale(0.25)"))
        assert isinstance(e.dods.delay, QScaleDelay)
        assert e.window[0] > 0.0

    def test_general_delay_accepted(self):
        e = catalog(CatalogCase("A2_1", delay='general("x - 1 - 0.1*sin(x)")'))
        assert isinstance(e.dods.delay, GeneralDelay)

    def test_scaling_cases_use_positive_half_line(self):
        for cid, params in (("A3_3", None), ("A3_14", None), ("A4_21", None)):
            e = catalog(CatalogCase(cid, params))
            assert e.dods.domain[0] == 0.0

    def test_moebius_cases_anchor_at_pole(self):
        e = catalog("A4_14")
        assert isinstance(e.dods.delay, MoebiusDelay)
        assert e.dods.domain[0] == -1.0

    def test_negative_ratio_produces_general_relation(self):
        e = catalog(CatalogCase("A4_21", {"C": -0.5}))
        assert isinstance(e.dods.delay, GeneralDelay)
        assert e.dods.delay.delayed_point(2.0) == -1.0

    def test_families_present_where_derived(self):
        with_families = {"A3_1", "A3_3", "A3_5", "A3_7", "A3_13", "A3_14",
                         "A4_12", "A4_14", "A4_21"}
        for cid in SYSTEM_CASES:
            e = catalog(cid)
            if cid in with_families:
                assert e.families, cid
            else:
                assert e.families == (), cid

    def test_string_and_case_forms_agree(self):
        a = catalog("A3_5")
        b = catalog(CatalogCase("A3_5"))
        assert a.dods == b.dods

    def test_catalog_parses_its_own_texts_once(self, monkeypatch):
        # a repeated catalog() rebuilds only the trees that depend on the
        # case constants, from trees parsed on first use
        cases = [CatalogCase(cid) for cid in SYSTEM_CASES]
        cases += [CatalogCase("A3_3", {"a": -1.0}), CatalogCase("A3_7", {"b": 0.25}),
                  CatalogCase("A4_21", {"C": -0.5})]
        for case in cases:
            catalog(case)
        parsed = []
        real_parse = ex.parse
        monkeypatch.setattr(ex, "parse", lambda *a, **k: parsed.append(a) or real_parse(*a, **k))
        for case in cases:
            catalog(case)
        assert parsed == []


class TestMaxResidual:
    # y' = y - y(x - 1) with y = ym = 1, so f is 0.0 and each residual is dy

    def test_largest_magnitude_has_the_bits_of_abs_and_max(self):
        d = linear("1", "-1")
        for dys in ([-0.0, -0.0], [-3.0, 2.0], [2.0, -2.0], [0.5, -0.0, 1e-300], [],
                    [-1e308, 1e308]):
            ones = [1.0] * len(dys)
            got = _max_residual(d, [0.5 * i for i in range(len(dys))], ones, dys, ones)
            want = max([0.0] + [abs(dy - 0.0) for dy in dys])
            assert got.hex() == want.hex(), dys

    @pytest.mark.parametrize("dy, text", [(-math.inf, "inf"), (math.inf, "inf"),
                                          (math.nan, "nan")], ids=["-inf", "inf", "nan"])
    def test_residual_that_is_not_finite_raises_with_its_magnitude(self, dy, text):
        with pytest.raises(DomainError) as raised:
            _max_residual(linear("1", "-1"), [0.5, 0.25], [1.0, 1.0], [-2.0, dy], [1.0, 1.0])
        assert str(raised.value) == f"the residual at x = 0.25 is {text}, not finite"
