"""Expression language: grammar, evaluation, derivatives, printing."""

import gc
import math
import pickle
import random
import re
import sys

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

    @pytest.mark.parametrize("text", ["²", "2²", "x + ¹", "①", "½", "1e²", ".²", "2.²"])
    def test_numeric_characters_that_are_not_decimal_digits(self, text):
        # str.isdigit is true for ² and ①, which float cannot read
        with pytest.raises(ParseError):
            ex.parse(text)

    def test_decimal_digits_of_any_script(self):
        # float reads every Unicode decimal digit
        assert ex.parse("١+1") == ex.parse("1.0 + 1.0")
        assert ex.parse("\xa02.5e١") == ex.Num(25.0)

    @settings(max_examples=400, deadline=None)
    @given(st.text(st.sampled_from("0123456789.eE+-*/^() xsin²①½١\xa0") | st.characters(),
                   max_size=30))
    def test_text_parses_to_a_round_trip_or_raises_parse_error(self, text):
        try:
            tree = ex.parse(text)
        except ParseError:
            return
        assert ex.parse(ex.to_text(tree)) == tree

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

    @pytest.mark.parametrize("text,printed", [
        ("-x^2*y", "-x^2.0 * y"),
        ("2^-3^2", "2.0^(-3.0^2.0)"),
        ("-2^-x*y", "-2.0^(-x) * y"),
        ("x/-y^2", "x / -y^2.0"),
        ("--x", "-(-x)"),
        ("(x)^2^3", "x^2.0^3.0"),
        ("x - y - x", "x - y - x"),
        ("x - (y - x)", "x - (y - x)"),
        ("x/y*x", "x / y * x"),
        ("-(x*y)", "-(x * y)"),
        ("sin(-x)^2", "sin(-x)^2.0"),
        ("2*-x", "2.0 * -x"),
        ("-x - -y", "-x - -y"),
        ("(-x)^2", "(-x)^2.0"),
        ("x^y*-x^2", "x^y * -x^2.0"),
        ("-x^-y^-2", "-x^(-y^(-2.0))"),
        ("x + y*x^2/y - 1", "x + y * x^2.0 / y - 1.0"),
    ])
    def test_precedence_and_associativity_table(self, text, printed):
        tree = ex.parse(text, ("x", "y"))
        assert ex.to_text(tree) == printed
        assert ex.parse(printed, ("x", "y")) is tree

    @pytest.mark.parametrize("text,message", [
        ("x^-", "expected a value, found 'end of input' (at index 3)"),
        ("2^^3", "expected a value, found '^' (at index 2)"),
        ("x^-+y", "expected a value, found '+' (at index 3)"),
        ("sin x", "expected '(', found 'x' (at index 4)"),
        ("x*/y", "expected a value, found '/' (at index 2)"),
        ("x^(y", "expected ')', found 'end of input' (at index 4)"),
        ("x y", "unexpected trailing input 'y' (at index 2)"),
        ("sin()", "expected a value, found ')' (at index 4)"),
        ("+x", "expected a value, found '+' (at index 0)"),
    ])
    def test_error_messages_and_indices(self, text, message):
        with pytest.raises(ParseError) as info:
            ex.parse(text, ("x", "y"))
        assert str(info.value) == message


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


def _frames():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def _spare(frames, fn, *args):
    """fn(*args), allowed at most frames more than the caller has."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + frames)
    try:
        return fn(*args)
    except DomainError:
        return None
    finally:
        sys.setrecursionlimit(limit)


class TestDepthBound:
    """Text gives a tree at most 100 levels deep, or one ParseError."""

    TEXTS = {  # n levels, each for a left chain, a prefix or a right chain
        "parentheses": lambda n: "(" * n + "x" + ")" * n,
        "minus signs": lambda n: "-" * n + "x",
        "calls": lambda n: "sin(" * n + "x" + ")" * n,
        "sum": lambda n: " + ".join(["x"] * (n + 1)),
        "quotient": lambda n: " / ".join(["x"] * (n + 1)),
        "powers": lambda n: "x^" * n + "2",
        "products in a sum": lambda n: "x" + " * x" * (n // 2) + " - x" * (n - n // 2),
        "sums in products": lambda n: "(x + 1) * " * (n // 2) + "x" + " + x" * (n - n // 2 - 1),
    }

    @pytest.mark.parametrize("name", TEXTS)
    def test_deepest_text_parses_and_one_more_level_does_not(self, name):
        ex.parse(self.TEXTS[name](100))
        with pytest.raises(ParseError, match="expression nests deeper than 100 levels"):
            ex.parse(self.TEXTS[name](101))

    @pytest.mark.parametrize("name", TEXTS)
    def test_every_walk_has_frames_to_spare_at_the_bound(self, name):
        # 850 frames: 150 less than the default recursion limit allows
        text = self.TEXTS[name](100)
        tree = _spare(850, ex.parse, text)
        for walk in (lambda: ex.evaluate(tree, {"x": 0.5}),
                     lambda: ex.fold(ex.differentiate(tree, "x")),
                     lambda: ex.to_text(tree),
                     lambda: ex.substitute(tree, {"x": ex.Var("y")}),
                     lambda: ex.variables_of(tree),
                     lambda: ex.compile(tree, ("x",))(0.5)):
            _spare(850, walk)

    @pytest.mark.parametrize("name", TEXTS)
    def test_parser_needs_at_most_400_frames_at_the_bound(self, name):
        # precedence climbing spends three frames per parenthesis, call or
        # minus sign, and two per power
        _spare(400, ex.parse, self.TEXTS[name](100))

    def test_shallow_text_keeps_its_tree(self):
        assert ex.parse("(((x)))") is ex.Var("x")
        assert ex.parse(" + ".join(["x"] * 101)).left is ex.parse(" + ".join(["x"] * 100))


class TestInterning:
    def test_equal_trees_are_one_object(self):
        built = ex.Binary("+", ex.Unary("sin", ex.Var("x")), ex.Num(2.0))
        assert ex.parse("sin(x) + 2") is built
        assert pickle.loads(pickle.dumps(built)) is built
        assert ex.substitute(built, {}) is built and hash(built) == hash(("+", built.left,
                                                                         built.right))

    def test_signed_zero_and_int_constants_stay_apart(self):
        # == is identity: constants are equal when their bits and types are
        for a, b in ((0.0, -0.0), (1, 1.0)):
            assert ex.Num(a) is not ex.Num(b) and ex.Num(a) != ex.Num(b)
            assert ex.compile(ex.Num(a), ()) is not ex.compile(ex.Num(b), ())
            assert repr(ex.compile(ex.Num(a), ())()) == repr(a)
        assert ex.Num(float("nan")) is ex.Num(float("nan"))

    def test_bad_op_is_refused_when_the_node_is_made(self):
        # every walk indexes its operator tables, so no node may carry an op
        # outside them; a rejected node leaves nothing in the table
        x, size = ex.Var("x"), len(ex._LIVE)
        for build, message in ((lambda: ex.Unary("foo", x), "bad unary op 'foo'"),
                               (lambda: ex.Unary("+", x), "bad unary op '+'"),
                               (lambda: ex.Binary("%", x, x), "bad binary op '%'"),
                               (lambda: ex.Binary("neg", x, x), "bad binary op 'neg'")):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build()
        assert len(ex._LIVE) == size
        for op in ("neg",) + ex.FUNCTIONS:
            assert ex.parse(ex.to_text(ex.Unary(op, x))) is ex.Unary(op, x)
        for op in ex.BINARY_OPS:
            assert ex.parse(ex.to_text(ex.Binary(op, x, x))) is ex.Binary(op, x, x)

    def test_every_operator_table_has_the_vocabulary_as_its_keys(self):
        # evaluation, code generation, differentiation and printing each look
        # an op up in a table, so a table may neither miss nor add an op; a
        # generated call of a function is the evaluator's own function
        unary, binary = {"neg", *ex.FUNCTIONS}, set(ex.BINARY_OPS)
        for table in (ex._UNARY_FN, ex._UNARY_TEMPLATES, ex._UNARY_D):
            assert table.keys() == unary
        for table in (ex._BINARY_FN, ex._BINARY_TEMPLATES, ex._BINARY_D):
            assert table.keys() == binary
        assert ex._PREC.keys() == binary | {"neg"}
        for op in ex.FUNCTIONS:
            if op != "sign":  # inline, as is neg
                assert ex._UNARY_TEMPLATES[op] == f"_{op}({{0}})"
                assert ex._COMPILE_GLOBALS[f"_{op}"] is ex._UNARY_FN[op]

    def test_deep_tree_hashes_and_compares_without_recursion(self):
        tree = ex.Var("x")
        for i in range(3000):
            tree = ex.Binary("+", tree, ex.Num(float(i % 7))) if i % 2 else ex.Unary("neg", tree)
        again = ex.Var("x")
        for i in range(3000):
            again = ex.Binary("+", again, ex.Num(float(i % 7))) if i % 2 else ex.Unary("neg", again)
        assert again is tree and again == tree and hash(again) == hash(tree)
        assert tree != ex.Unary("neg", tree) and {tree: 1}[again] == 1

    def test_the_table_keeps_only_live_nodes(self):
        from delaysym.dods import CatalogCase, catalog
        from delaysym.symmetry import check_invariance

        def build():
            e = catalog(CatalogCase("A3_5", {"C1": 1.625, "C2": 0.875}))
            for v in e.algebra:
                check_invariance(v, e.dods, 7, e.window)

        build()  # caches keep the trees their entries are keyed by
        gc.collect()
        start = len(ex._LIVE)
        build()
        gc.collect()
        assert len(ex._LIVE) == start
        tree = ex.Num(-123.4375)
        for _ in range(500):
            tree = ex.Binary("*", tree, ex.Var("unused_name"))
        assert len(ex._LIVE) == start + 502
        del tree
        assert len(ex._LIVE) == start


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

    def test_infinite_literal_round_trips(self):
        # repr(inf) is not a literal; the printer spells it 1e999
        tree = ex.parse("-1e999 * x")
        assert ex.to_text(tree) == "-1e999 * x"
        assert ex.parse(ex.to_text(tree)) == tree

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

    def test_is_zero_by_structure(self):
        for text in ("0", "-0", "0*x", "0*sin(x) - 0", "2*0 + 0/x"):
            assert ex.is_zero(ex.parse(text)), text
        # small, undefined, or zero only as an identity: not zero by structure
        for text in ("1e-13", "1e-320", "0/0", "sin(x)^2 + cos(x)^2 - 1", "x - x"):
            assert not ex.is_zero(ex.parse(text)), text

    @pytest.mark.parametrize("text", ["1e999 - 1e999 + x", "x * (1e999 + -1e999)",
                                      "1e999 / 1e999", "sin(1e999 - 1e999)", "1e999*1e999 - 1e999"])
    def test_fold_keeps_nan_subtrees(self, text):
        # NaN has no literal: a subtree whose value is NaN stays, as one that
        # raises does, so the folded tree prints as text that parses
        folded = ex.fold(ex.parse(text))
        assert ex.fold(ex.parse(ex.to_text(folded))) is folded
        assert math.isnan(ex.evaluate(folded, {"x": 1.0}))

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


class TestFoldedTreesPrint:
    @settings(max_examples=400, deadline=None)
    @given(st.recursive(
        st.one_of((_values | st.sampled_from((math.inf, -math.inf))).map(ex.Num),
                  st.sampled_from(_ARGS).map(ex.Var)),
        lambda sub: st.one_of(st.builds(ex.Unary, st.sampled_from(_UNARY_OPS), sub),
                              st.builds(ex.Binary, st.sampled_from(ex.BINARY_OPS), sub, sub)),
        max_leaves=24))
    def test_folded_tree_reparses_and_folds_back(self, tree):
        # a folded constant may be negative, which text spells as a minus
        # sign on its magnitude, so the reparsed tree folds back to it; with
        # interned trees that is bit for bit
        folded = ex.fold(tree)
        text = ex.to_text(folded)
        reparsed = ex.parse(text, _ARGS)
        assert ex.to_text(reparsed) == text
        assert ex.fold(reparsed) is folded, text


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
        *((f"{op}(x)", x, f"{op} of infinite value {x!r}")
          for op in ("sin", "cos", "tan") for x in (math.inf, -math.inf)),
        ("(0-2)^x", math.nan, "negative base -2.0 with non-integer exponent nan"),
        ("(0-2)^x", math.inf, "negative base -2.0 with non-integer exponent inf"),
        ("(0-0.5)^x", 0.5 - 2.0 ** 52, "negative base -0.5 with non-integer exponent "
                                       "-4503599627370495.5"),
        ("(0-0.5)^x", -2e16, "overflow during evaluation: math range error"),
    ])
    def test_domain_errors(self, text, x, message):
        # every form of _generate, so each goes through _define's one overflow rule
        tree = ex.parse(text)
        for call in (lambda: ex.compile(tree, ("x",))(x),
                     lambda: ex.compile_many((tree,), ("x",))(x),
                     lambda: ex.compile_columns((tree,), ("x",))([x])):
            with pytest.raises(DomainError) as caught:
                call()
            assert str(caught.value) == message
        assert _agrees(ex.parse(text), ("x",), (x,))[0]

    @pytest.mark.parametrize("x, want", [
        (2e16, 0.0),
        (2.0 ** 52 + 1.0, -0.0),  # odd, so the sign of the base survives
        (2.0 ** 53, 0.0),
    ])
    def test_negative_base_with_huge_integer_exponent(self, x, want):
        # every finite float from 2^52 up is an integer
        tree = ex.parse("(0-0.5)^x")
        for got in (ex.evaluate(tree, {"x": x}), ex.compile(tree, ("x",))(x)):
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
        assert _agrees(tree, ("x",), (x,))[0]

    _POWER_BASES = (-0.0, 0.0, 1.5, -1.5, math.nan, math.inf, -math.inf, -1e200)

    @pytest.mark.parametrize("k", [1.0, 2.0, 3.0, 4.0, 2.0 ** 53, 1e300, 0.0, -2.0, 0.5])
    def test_constant_powers_match_evaluate_by_hex(self, k):
        # a positive integer k is math.pow inline, with 0.0 at a zero (math.pow
        # keeps -0.0 for an odd k); the other exponents go through _pow_checked
        tree = ex.Binary("^", ex.Var("x"), ex.Num(k))
        f = ex.compile(tree, ("x",))
        for x in self._POWER_BASES:
            assert _hex_outcome(f, x) == _hex_outcome(ex.evaluate, tree, {"x": x}), x

    @pytest.mark.parametrize("k, calls", [(1.0, 0), (2.0, 0), (3.0, 0), (1e300, 0),
                                          (0.0, 6), (-2.0, 6), (0.5, 6), (1, 6)])
    def test_only_a_positive_integer_power_skips_the_helper(self, k, calls, monkeypatch):
        # six of the bases are not above 0.0; a Num holding the int 1 is not
        # a float, so it keeps the helper as evaluate's math.pow would see it
        seen, checked = [], ex._pow_checked
        monkeypatch.setitem(ex._COMPILE_GLOBALS, "_pow_checked",
                            lambda a, b: (seen.append(a), checked(a, b))[1])
        f = ex.compile_columns((ex.Binary("^", ex.Var("x"), ex.Num(k)),), ("x",))
        for x in self._POWER_BASES:
            _outcome(f, [x])
        assert len(seen) == calls

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


def _hex_outcome(fn, *a):
    """("value", float.hex of each value) or (exception class, message)."""
    try:
        got = fn(*a)
    except Exception as exc:
        return type(exc), str(exc)
    return "value", tuple(float.hex(v) for v in (got if isinstance(got, tuple) else (got,)))


def _one_by_one(trees, args, values):
    """What compile gives tree by tree: every value, or the first error."""
    out = ()
    for tree in trees:
        got = _hex_outcome(ex.compile(tree, args), *values)
        if got[0] != "value":
            return got
        out += got[1]
    return "value", out


def _chain(depth):
    tree = ex.Var("x")
    for i in range(depth):
        tree = (ex.Binary("+", tree, ex.Num(0.5)) if i % 3 == 0 else
                ex.Unary("sin", tree) if i % 3 == 1 else ex.Unary("neg", tree))
    return tree


def _right_chain(depth):
    tree = ex.Var("x")
    for _ in range(depth):
        tree = ex.Binary("*", ex.Num(1.001), tree)
    return tree


# several trees over one shared subtree: the same object in some, an equal
# copy (substitute rebuilds every operator node) in others
_forests = st.tuples(
    _trees,
    st.lists(st.tuples(st.sampled_from(ex.BINARY_OPS), _trees, st.booleans()),
             min_size=1, max_size=4),
).map(lambda p: [p[0]] + [ex.Binary(op, p[0] if same else ex.substitute(p[0], {}), t)
                          for op, t, same in p[1]])


class TestCompileMany:
    @settings(max_examples=400, deadline=None)
    @given(_forests, st.tuples(*[_values | st.integers(-3, 3)] * 4))
    def test_matches_compile_tree_by_tree(self, trees, values):
        want = _one_by_one(trees, _ARGS, values)
        got = _hex_outcome(ex.compile_many(trees, _ARGS), *values)
        assert got == want, ([ex.to_text(t) for t in trees], values)

    def test_signed_zero_constants_stay_apart(self):
        trees = [ex.Num(0.0), ex.Num(-0.0), ex.Binary("*", ex.Num(-0.0), ex.Var("x")),
                 ex.Binary("*", ex.Num(0.0), ex.Var("x"))]
        got = ex.compile_many(trees, ("x",))(2.0)
        assert [float.hex(v) for v in got] == ["0x0.0p+0", "-0x0.0p+0", "-0x0.0p+0",
                                              "0x0.0p+0"]
        assert _hex_outcome(ex.compile_many(trees, ("x",)), 2.0) == _one_by_one(
            trees, ("x",), (2.0,))

    def test_deep_chains(self):
        # 400 and 350 levels, shared whole and rebuilt, key without recursion
        left, right = _chain(400), _right_chain(350)
        trees = [left, right, ex.Binary("-", left, ex.substitute(right, {})),
                 ex.substitute(left, {})]
        for x in (0.3, -2.0):
            assert _hex_outcome(ex.compile_many(trees, ("x",)), x) == _one_by_one(
                trees, ("x",), (x,))

    @pytest.mark.parametrize("shared, x, message", [
        ("ln(x)", 0.0, "ln of non-positive value 0.0"),
        ("sqrt(x)", -1.0, "sqrt of negative value -1.0"),
        ("1 / x", 0.0, "division by zero"),
    ])
    def test_shared_guarded_subtree_runs_once(self, monkeypatch, shared, x, message):
        calls = []
        for name in ("_ln", "_sqrt"):
            inner = ex._COMPILE_GLOBALS[name]
            monkeypatch.setitem(ex._COMPILE_GLOBALS, name,
                                lambda v, inner=inner: calls.append(v) or inner(v))
        trees = [ex.parse(f"{shared} + 1"), ex.parse(f"2 * ({shared})"), ex.parse(shared)]
        f = ex.compile_many(trees, ("x",))
        with pytest.raises(DomainError) as caught:
            f(x)
        assert str(caught.value) == message
        assert _hex_outcome(f, x) == _one_by_one(trees, ("x",), (x,))
        calls.clear()
        got = _hex_outcome(f, 4.0)
        assert len(calls) == (0 if shared == "1 / x" else 1)
        assert got == _one_by_one(trees, ("x",), (4.0,))

    def test_one_guard_per_guarded_operand(self):
        # three quotients share the divisor y - 1 and two roots share x: each
        # guard is emitted once, before the first use of its operand, and
        # every compiled path raises the error evaluate raises first
        args = ("x", "y")
        trees = [ex.parse(text, args) for text in (
            "x / (y - 1) + sqrt(x)", "3 / (y - 1)", "sqrt(x) * (x + 1) / (y - 1)")]
        lines = ex._emit(trees, args)[0]
        guards = [line for line in lines if line.startswith("if ")]
        assert len(guards) == len(set(guards)) == 2
        for x, y, message in ((2.0, 1.0, "division by zero"),
                              (-1.0, 2.0, "sqrt of negative value -1.0"),
                              (-1.0, 1.0, "division by zero")):
            want = (DomainError, message)
            assert _hex_outcome(ex.evaluate, trees[0], {"x": x, "y": y}) == want
            for tree in trees:
                assert (_hex_outcome(ex.compile(tree, args), x, y)
                        == _hex_outcome(ex.evaluate, tree, {"x": x, "y": y}))
            assert _hex_outcome(ex.compile_many(trees, args), x, y) == want
            assert _columns_outcome(trees, args, [[4.0, x], [3.0, y]]) == want
        assert _hex_outcome(ex.compile_many(trees, args), 4.0, 3.0)[0] == "value"

    def test_one_tree_is_compile(self):
        tree = ex.parse("x * exp(x) - exp(x)")
        assert ex.compile_many([tree], ("x",))(1.5) == (ex.compile(tree, ("x",))(1.5),)
        assert ex.compile_many([], ("x",))(1.5) == ()

    def test_unbound_variable_after_earlier_trees(self):
        f = ex.compile_many([ex.parse("ln(x)"), ex.parse("x + y", ("x", "y"))], ("x",))
        with pytest.raises(DomainError):
            f(0.0)
        with pytest.raises(UnboundVariable, match="'y' has no bound value"):
            f(1.0)


def _point_by_point(trees, args, columns):
    """What compile_many gives at each point of the columns: every tree's
    values as float.hex, or the error of the first point that raises."""
    f = ex.compile_many(trees, args)
    out = [[] for _ in trees]
    for point in zip(*columns):
        got = _hex_outcome(f, *point)
        if got[0] != "value":
            return got
        for values, v in zip(out, got[1]):
            values.append(v)
    return "value", tuple(map(tuple, out))


def _columns_outcome(trees, args, columns):
    try:
        got = ex.compile_columns(trees, args)(*columns)
    except Exception as exc:
        return type(exc), str(exc)
    return "value", tuple(tuple(float.hex(v) for v in values) for values in got)


class TestCompileColumns:
    @settings(max_examples=300, deadline=None)
    @given(_forests, st.lists(st.tuples(*[_values | st.integers(-3, 3)] * 4), max_size=6))
    def test_matches_compile_many_point_by_point(self, trees, points):
        columns = [list(c) for c in zip(*points)] or [[] for _ in _ARGS]
        want = _point_by_point(trees, _ARGS, columns)
        assert _columns_outcome(trees, _ARGS, columns) == want, (
            [ex.to_text(t) for t in trees], points)

    def test_empty_columns_and_empty_forest(self):
        trees = [ex.parse("ln(x) / y", ("x", "y")), ex.Num(1.0)]
        assert ex.compile_columns(trees, ("x", "y"))([], []) == ([], [])
        assert ex.compile_columns([], ("x",))([1.0, 2.0]) == ()
        assert ex.compile_columns(trees[1:], ())() == ([],)

    def test_single_argument_constant_and_bare_variable(self):
        trees = [ex.parse("x * exp(x) - 1"), ex.Num(2.5), ex.Var("x")]
        got = ex.compile_columns(trees, ("x",))((0.5, -1, 3))
        assert got == ([ex.compile(trees[0], ("x",))(v) for v in (0.5, -1, 3)],
                       [2.5, 2.5, 2.5], [0.5, -1.0, 3.0])
        assert [type(v) for v in got[2]] == [float] * 3  # coerced as compile does
        assert isinstance(got, tuple) and all(type(c) is list for c in got)

    def test_signed_zeros_stay_apart(self):
        trees = [ex.Num(0.0), ex.Num(-0.0), ex.Binary("*", ex.Num(-0.0), ex.Var("x")),
                 ex.Binary("+", ex.Var("x"), ex.Num(0.0))]
        columns = [[2.0, -0.0, 0.0]]
        got = _columns_outcome(trees, ("x",), columns)
        assert got == _point_by_point(trees, ("x",), columns)
        assert got[1][:2] == (("0x0.0p+0",) * 3, ("-0x0.0p+0",) * 3)
        assert got[1][3] == ("0x1.0000000000000p+1", "0x0.0p+0", "0x0.0p+0")

    def test_deep_chains(self):
        left, right = _chain(400), _right_chain(350)
        trees = [left, right, ex.Binary("-", left, ex.substitute(right, {}))]
        columns = [[0.3, -2.0, 7.5, 0]]
        assert _columns_outcome(trees, ("x",), columns) == _point_by_point(
            trees, ("x",), columns)

    @pytest.mark.parametrize("shared, column, message", [
        ("ln(x)", [2.0, 0.5, 0.0, -1.0], "ln of non-positive value 0.0"),
        ("sqrt(x)", [4.0, 0.0, -1.0, -2.0], "sqrt of negative value -1.0"),
        ("1 / x", [1.0, 2.0, 0.0, 0.0], "division by zero"),
    ])
    def test_guarded_subtree_failing_mid_column(self, shared, column, message):
        trees = [ex.parse(f"{shared} + 1"), ex.parse(f"2 * ({shared})")]
        with pytest.raises(DomainError) as caught:
            ex.compile_columns(trees, ("x",))(column)
        assert str(caught.value) == message
        assert _columns_outcome(trees, ("x",), [column]) == _point_by_point(
            trees, ("x",), [column])
        assert _columns_outcome(trees, ("x",), [column[:2]])[0] == "value"

    def test_overflow_and_unbound_variable_at_the_first_point(self):
        assert _columns_outcome([ex.parse("exp(x)")], ("x",), [[1.0, 1e3]]) == (
            DomainError, "overflow during evaluation: math range error")
        f = ex.compile_columns([ex.parse("x + y", ("x", "y"))], ("x",))
        assert f([]) == ([],)
        with pytest.raises(UnboundVariable, match="'y' has no bound value"):
            f([1.0])

    def test_columns_of_unequal_length_rejected(self):
        f = ex.compile_columns([ex.parse("x * y", ("x", "y"))], ("x", "y"))
        with pytest.raises(ValueError):
            f([1.0, 2.0], [3.0])


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
