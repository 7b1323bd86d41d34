"""Root searches: the bracket scan and the bisection-secant refinement."""

import math

import pytest

from delaysym.errors import BracketNotFound, NonConvergence, ParameterDomainError
from delaysym.numerics import hybrid_root, scan_bracket


class TestScanBracket:
    def test_exact_zero_at_either_end(self):
        assert scan_bracket(lambda x: x, 0.0, 2.0) == (0.0, 0.0)
        assert scan_bracket(lambda x: x - 2.0, 0.0, 2.0) == (2.0, 2.0)

    def test_exact_zero_on_the_grid(self):
        assert scan_bracket(lambda x: x - 1.0, 0.0, 2.0) == (1.0, 1.0)

    def test_first_sign_change_is_chosen(self):
        # roots at 0.2501 and 0.7501; the 200 cells of [0, 1] are 0.005 wide
        assert scan_bracket(lambda x: (x - 0.2501) * (x - 0.7501), 0.0, 1.0) == (0.25, 0.255)

    def test_no_sign_change(self):
        with pytest.raises(BracketNotFound):
            scan_bracket(lambda x: x * x + 1.0, -3.0, 3.0)


class TestHybridRoot:
    def test_exact_zero_at_either_end(self):
        assert hybrid_root(lambda x: x - 1.0, 1.0, 2.0) == 1.0
        assert hybrid_root(lambda x: x - 2.0, 1.0, 2.0) == 2.0

    def test_sqrt_two_to_the_last_bit(self):
        assert hybrid_root(lambda x: x * x - 2.0, 1.0, 2.0) == math.sqrt(2.0)
        assert hybrid_root(lambda x: x * x - 2.0, 0.0, 10.0) == math.sqrt(2.0)

    def test_interval_without_a_bracket(self):
        with pytest.raises(BracketNotFound):
            hybrid_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_sign_jump_does_not_converge(self):
        # the bracket closes on the jump at 0.3, where |f| stays 1
        calls = []

        def jump(x):
            calls.append(x)
            return 1.0 if x > 0.3 else -1.0

        with pytest.raises(NonConvergence, match="stalled"):
            hybrid_root(jump, 0.0, 1.0)
        assert len(calls) <= 202  # both ends, then at most 200 refinements
        below = max(x for x in calls if x <= 0.3)
        above = min(x for x in calls if x > 0.3)
        assert above - below <= 2.0 * math.ulp(0.3)

    def test_non_convergence_names_the_final_bracket(self):
        # best |f| never falls below 1, so the point with the smallest |f|
        # stays at the starting end 1.0; the message names where the bracket
        # closed, around the jump at 0.3, and how many evaluations it took
        calls = []

        def jump(x):
            calls.append(x)
            return 1.0 if x > 0.3 else -1.0

        with pytest.raises(NonConvergence) as raised:
            hybrid_root(jump, 0.0, 1.0)
        below = max(x for x in calls if x <= 0.3)
        above = min(x for x in calls if x > 0.3)
        assert str(raised.value) == (
            f"root refinement stalled on the bracket [{below!r}, {above!r}] after "
            f"{len(calls)} evaluations; the smallest residual was 1.0")

    @pytest.mark.parametrize("f, lo, hi, evaluations, midpoints, root", [
        (lambda x: x ** 3 - 2.0, 0.0, 2.0, 24, 20, "0x1.428a2f98d728bp+0"),
        (lambda x: math.exp(x) - 3.0, -1.0, 4.0, 26, 21, "0x1.193ea7aad030bp+0"),
    ])
    def test_midpoints_while_wide_then_steps_inside(self, f, lo, hi, evaluations, midpoints,
                                                     root):
        # while the bracket is wider than 1e-6 (1 + |a| + |b|) every point is
        # its exact midpoint, and every later one lies strictly inside it
        calls = []
        found = hybrid_root(lambda x: calls.append(x) or f(x), lo, hi)
        assert calls[:2] == [lo, hi]
        a, fa, b, wide = lo, f(lo), hi, 0
        for x in calls[2:]:
            if b - a > 1e-6 * (1.0 + abs(a) + abs(b)):
                assert x == 0.5 * (a + b)
                wide += 1
            else:
                assert a < x < b
            if (fa < 0.0) != (f(x) < 0.0):
                b = x
            else:
                a, fa = x, f(x)
        assert (len(calls), wide, found.hex()) == (evaluations, midpoints, root)


@pytest.mark.parametrize("search", [scan_bracket, hybrid_root])
@pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, math.inf), (-math.inf, 2.0),
                                    (math.nan, 2.0), (0.0, math.nan)])
def test_a_bracket_end_that_is_not_finite_is_refused_before_f_runs(search, lo, hi):
    def f(x):
        raise AssertionError(f"f was called at {x!r}")

    with pytest.raises(ParameterDomainError) as info:
        search(f, lo, hi)
    assert str(info.value) == f"{search.__name__} needs a finite bracket, got [{lo!r}, {hi!r}]"
