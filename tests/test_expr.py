"""Expression language: grammar, evaluation, derivatives, printing."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delaysym.expr as ex
from delaysym.errors import DomainError, ParseError, UnboundVariable


def ev(text, **bindings):
    return ex.evaluate(ex.parse(text, tuple(bindings) or ("x",)), bindings)


class TestParse:
    def test_precedence_product_over_sum(self):
        assert ev("2 + 3 * 4") == 14.0

    def test_power_over_product(self):
        assert ev("2 * 3^2") == 18.0

    def test_power_right_associative(self):
        assert ev("2^3^2") == 512.0

    def test_unary_minus_binds_below_power(self):
        # -x^2 reads as -(x^2)
        assert ev("-2^2") == -4.0

    def test_power_of_negative_exponent(self):
        assert ev("2^-3") == 0.125

    def test_left_associative_subtraction(self):
        assert ev("10 - 4 - 3") == 3.0

    def test_division_chain(self):
        assert ev("24 / 4 / 3") == 2.0

    def test_scientific_notation(self):
        assert ev("1.5e3") == 1500.0
        assert ev("2E-2") == 0.02

    def test_leading_dot_number(self):
        assert ev(".5 + 1") == 1.5

    def test_constants_fold_at_parse(self):
        assert ex.parse("pi") == ex.Num(math.pi)
        assert ex.parse("e") == ex.Num(math.e)

    def test_function_call(self):
        assert ev("sin(pi/2)") == pytest.approx(1.0, abs=1e-15)

    def test_nested_calls(self):
        assert ev("exp(ln(3))") == pytest.approx(3.0, rel=1e-15)

    def test_variables_must_be_declared(self):
        with pytest.raises(ParseError):
            ex.parse("x + y", ("x",))
        tree = ex.parse("x + y", ("x", "y"))
        assert ex.variables_of(tree) == {"x", "y"}

    def test_unknown_identifier_position(self):
        with pytest.raises(ParseError) as info:
            ex.parse("1 + bogus", ("x",))
        assert info.value.position == 4

    def test_trailing_garbage_position(self):
        with pytest.raises(ParseError) as info:
            ex.parse("1 + 2 )")
        assert info.value.position == 6

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            ex.parse("1 @ 2")

    def test_missing_closing_paren(self):
        with pytest.raises(ParseError):
            ex.parse("sin(x")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            ex.parse("")

    def test_as_expr_coercions(self):
        assert ex.as_expr(2) == ex.Num(2.0)
        assert ex.as_expr("x") == ex.Var("x")
        tree = ex.parse("x + 1")
        assert ex.as_expr(tree) is tree


class TestEvaluate:
    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            ex.evaluate(ex.parse("x + 1"), {})

    def test_ln_domain(self):
        with pytest.raises(DomainError):
            ev("ln(x)", x=-1.0)
        with pytest.raises(DomainError):
            ev("ln(x)", x=0.0)

    def test_sqrt_domain(self):
        with pytest.raises(DomainError):
            ev("sqrt(x)", x=-4.0)

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            ev("1 / x", x=0.0)

    def test_zero_to_negative_power(self):
        with pytest.raises(DomainError):
            ev("x^-1", x=0.0)

    def test_zero_to_zero_is_one(self):
        assert ev("x^0", x=0.0) == 1.0

    def test_negative_base_integer_power(self):
        assert ev("x^3", x=-2.0) == -8.0

    def test_negative_base_fractional_power(self):
        with pytest.raises(DomainError):
            ev("x^0.5", x=-2.0)

    def test_exp_overflow_wrapped(self):
        with pytest.raises(DomainError):
            ev("exp(x)", x=1e6)

    def test_sign_values(self):
        assert ev("sign(x)", x=-3.0) == -1.0
        assert ev("sign(x)", x=0.0) == 0.0
        assert ev("sign(x)", x=2.0) == 1.0

    def test_abs(self):
        assert ev("abs(x)", x=-2.5) == 2.5


class TestRoundTrip:
    CASES = [
        "x + 1",
        "-x^2",
        "(x + 1) * (x - 1)",
        "2^-3",
        "x - (y - 1)",
        "x / (y * 2)",
        "sin(x)^2 + cos(x)^2",
        "-(x + 1)",
        "x^(y + 1)",
        "(2^3)^x",
        "1 - -x",
        "abs(x) * sign(y)",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_reparse_reproduces_tree(self, text):
        tree = ex.parse(text, ("x", "y"))
        printed = ex.to_text(tree)
        assert ex.parse(printed, ("x", "y")) == tree

    @pytest.mark.parametrize("text", CASES)
    def test_print_is_fixed_point(self, text):
        printed = ex.to_text(ex.parse(text, ("x", "y")))
        assert ex.to_text(ex.parse(printed, ("x", "y"))) == printed

    def test_random_trees_round_trip(self):
        # A hand built tree may hold a negative literal, which the grammar
        # can only spell as a unary minus, so structural equality is stated
        # for the reparsed tree; values must agree either way.
        rng = random.Random(42)
        for _ in range(200):
            tree = _random_tree(rng, depth=4)
            printed = ex.to_text(tree)
            reparsed = ex.parse(printed, ("x", "y"))
            assert ex.to_text(reparsed) == printed
            assert ex.parse(printed, ("x", "y")) == reparsed
            for x, y in ((0.3, 0.8), (1.1, -0.4)):
                try:
                    want = ex.evaluate(tree, {"x": x, "y": y})
                except DomainError:
                    continue
                got = ex.evaluate(reparsed, {"x": x, "y": y})
                assert got == pytest.approx(want, rel=1e-15, abs=1e-300), printed


class TestDifferentiate:
    def test_polynomial(self):
        d = ex.differentiate(ex.parse("x^3 + 2*x"), "x")
        assert ex.evaluate(d, {"x": 2.0}) == pytest.approx(14.0)

    def test_chain_rule(self):
        d = ex.differentiate(ex.parse("sin(x^2)"), "x")
        x = 0.7
        assert ex.evaluate(d, {"x": x}) == pytest.approx(2 * x * math.cos(x * x), rel=1e-14)

    def test_quotient_rule(self):
        d = ex.differentiate(ex.parse("x / (1 + x^2)"), "x")
        x = 0.3
        expect = (1 - x * x) / (1 + x * x) ** 2
        assert ex.evaluate(d, {"x": x}) == pytest.approx(expect, rel=1e-14)

    def test_general_power(self):
        d = ex.differentiate(ex.parse("x^x"), "x")
        x = 1.4
        expect = x**x * (math.log(x) + 1)
        assert ex.evaluate(d, {"x": x}) == pytest.approx(expect, rel=1e-13)

    def test_abs_away_from_kink(self):
        d = ex.differentiate(ex.parse("abs(x)"), "x")
        assert ex.evaluate(d, {"x": -2.0}) == -1.0
        assert ex.evaluate(d, {"x": 3.0}) == 1.0

    def test_other_variable_is_constant(self):
        d = ex.differentiate(ex.parse("x * y", ("x", "y")), "y")
        assert ex.evaluate(d, {"x": 5.0, "y": 9.0}) == 5.0

    def test_against_finite_differences(self):
        # central differences as an independent oracle on random trees
        rng = random.Random(7)
        h = 1e-6
        checked = 0
        while checked < 100:
            tree = _random_tree(rng, depth=3)
            x = rng.uniform(0.2, 1.8)
            y = rng.uniform(0.2, 1.8)
            try:
                deriv = ex.evaluate(ex.differentiate(tree, "x"), {"x": x, "y": y})
                up = ex.evaluate(tree, {"x": x + h, "y": y})
                dn = ex.evaluate(tree, {"x": x - h, "y": y})
            except DomainError:
                continue
            fd = (up - dn) / (2 * h)
            scale = max(1.0, abs(deriv), abs(fd))
            if scale > 1e6 or not math.isfinite(fd):
                continue  # ill conditioned sample, draw another tree
            assert abs(deriv - fd) <= 2e-5 * scale, ex.to_text(tree)
            checked += 1


class TestFoldSubstitute:
    def test_fold_constants(self):
        assert ex.fold(ex.parse("2 + 3 * 4")) == ex.Num(14.0)

    def test_fold_identities(self):
        assert ex.fold(ex.parse("x * 1 + 0")) == ex.Var("x")
        assert ex.fold(ex.parse("x^1")) == ex.Var("x")
        assert ex.fold(ex.parse("0 * sin(x)")) == ex.Num(0.0)

    def test_fold_keeps_undefined_subtrees(self):
        # folding must not evaluate what would raise
        tree = ex.parse("1 / 0")
        folded = ex.fold(tree)
        with pytest.raises(DomainError):
            ex.evaluate(folded, {})

    def test_fold_function_of_constant(self):
        assert ex.fold(ex.parse("exp(0)")) == ex.Num(1.0)

    def test_substitute_value(self):
        tree = ex.parse("x^2 + x")
        out = ex.substitute(tree, {"x": ex.Num(3.0)})
        assert ex.evaluate(out, {}) == 12.0

    def test_substitute_expression(self):
        tree = ex.parse("x^2")
        out = ex.substitute(tree, {"x": ex.parse("y + 1", ("y",))})
        assert ex.evaluate(out, {"y": 2.0}) == 9.0

    def test_is_constant(self):
        assert ex.is_constant(ex.parse("2 * pi"))
        assert not ex.is_constant(ex.parse("2 * x"))


_ARGS = ("x", "y", "xm", "ym")
_UNARY_OPS = ("neg", "exp", "ln", "sin", "cos", "tan", "atan", "sqrt", "abs", "sign")

# values that reach every guard: zero and negative operands of ln, sqrt and
# division, zero and negative bases of powers, non-integer exponents, and
# arguments large enough to overflow exp and pow; bindings may also be
# integers, which evaluate coerces with float()
_values = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 3.0, 710.0, -710.0, 1e300)),
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
)
_trees = st.recursive(
    st.one_of(_values.map(ex.Num), st.sampled_from(_ARGS).map(ex.Var)),
    lambda sub: st.one_of(
        st.builds(ex.Unary, st.sampled_from(_UNARY_OPS), sub),
        st.builds(ex.Binary, st.sampled_from(ex.BINARY_OPS), sub, sub),
    ),
    max_leaves=24,
)


def _outcome(fn, *a):
    try:
        return "value", fn(*a)
    except Exception as exc:  # the class and message are what must agree
        return type(exc), str(exc)


def _same(want, got):
    if want[0] != got[0]:
        return False
    if want[0] != "value":
        return want[1] == got[1]
    a, b = want[1], got[1]
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return type(a) is type(b) and a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _agrees(tree, args, values):
    want = _outcome(ex.evaluate, tree, dict(zip(args, values)))
    got = _outcome(ex.compile(tree, args), *values)
    return _same(want, got), (want, got)


class TestCompile:
    @settings(max_examples=400, deadline=None)
    @given(_trees, st.tuples(*[_values | st.integers(-3, 3)] * 4))
    def test_matches_tree_walk_bit_for_bit(self, tree, values):
        ok, detail = _agrees(tree, _ARGS, values)
        assert ok, (ex.to_text(tree), values, detail)

    @pytest.mark.parametrize("text, x, message", [
        ("ln(x)", 0.0, "ln of non-positive value 0.0"),
        ("sqrt(x)", -1.0, "sqrt of negative value -1.0"),
        ("1 / x", 0.0, "division by zero"),
        ("x^(-1)", 0.0, "zero raised to a negative power"),
        ("x^0.5", -2.0, "negative base -2.0 with non-integer exponent 0.5"),
        ("exp(x)", 1000.0, "overflow during evaluation: math range error"),
    ])
    def test_domain_errors(self, text, x, message):
        f = ex.compile(ex.parse(text), ("x",))
        with pytest.raises(DomainError) as caught:
            f(x)
        assert str(caught.value) == message
        assert _agrees(ex.parse(text), ("x",), (x,))[0]

    def test_infinite_literal(self):
        # 1e999 parses to Num(inf), whose repr is not a Python literal
        tree = ex.parse("1e999 * x")
        assert ex.compile(tree, ("x",))(2.0) == math.inf
        assert _agrees(tree, ("x",), (-2.0,))[0]

    def test_negative_zero_leaf(self):
        got = ex.compile(ex.Num(-0.0), ())()
        assert got == 0.0 and math.copysign(1.0, got) == -1.0
        assert _agrees(ex.Binary("+", ex.Num(-0.0), ex.Var("x")), ("x",), (-0.0,))[0]

    def test_integer_bindings_are_coerced(self):
        tree = ex.parse("-x + y / x", ("x", "y"))
        f = ex.compile(tree, ("x", "y"))
        got = f(2, 3)
        assert type(got) is float and got == ex.evaluate(tree, {"x": 2, "y": 3})
        neg = ex.compile(ex.parse("-x"), ("x",))(0)
        assert type(neg) is float and math.copysign(1.0, neg) == -1.0

    def test_deep_chain(self):
        # far past the parser's nesting limit if emitted as one expression
        tree = ex.Var("x")
        for i in range(400):
            tree = (ex.Binary("+", tree, ex.Num(0.5)) if i % 3 == 0 else
                    ex.Unary("sin", tree) if i % 3 == 1 else ex.Unary("neg", tree))
        assert _agrees(tree, ("x",), (0.3,))[0]
        right = ex.Var("x")
        for _ in range(350):
            right = ex.Binary("*", ex.Num(1.001), right)
        assert _agrees(right, ("x",), (0.7,))[0]

    def test_unbound_variable_raises_in_evaluation_order(self):
        tree = ex.parse("ln(x) + y", ("x", "y"))
        f = ex.compile(tree, ("x",))
        with pytest.raises(DomainError):
            f(0.0)
        with pytest.raises(UnboundVariable, match="'y' has no bound value"):
            f(1.0)

    def test_names_are_positional_not_spliced(self):
        name = "x) or __import__('os') or (x"
        tree = ex.Binary("*", ex.Var(name), ex.Num(2.0))
        assert ex.compile(tree, (name,))(1.5) == 3.0

    def test_duplicate_arguments_rejected(self):
        with pytest.raises(ValueError):
            ex.compile(ex.parse("x"), ("x", "x"))


def _random_tree(rng, depth):
    """Random expression over x, y with all node kinds reachable."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.random()
        if kind < 0.4:
            return ex.Num(round(rng.uniform(-3, 3), 3))
        return ex.Var(rng.choice(("x", "y")))
    if rng.random() < 0.35:
        op = rng.choice(("neg", "sin", "cos", "atan", "exp"))
        return ex.Unary(op, _random_tree(rng, depth - 1))
    op = rng.choice(("+", "-", "*", "/", "^"))
    left = _random_tree(rng, depth - 1)
    right = _random_tree(rng, depth - 1)
    if op == "^":
        # keep powers well defined: positive base, small constant exponent
        left = ex.Unary("exp", ex.Unary("sin", left))
        right = ex.Num(float(rng.randint(0, 3)))
    return ex.Binary(op, left, right)
