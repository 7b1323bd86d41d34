"""The immutable record contract shared by every public value type.

Each record is taken from real catalog, solve and reduction outputs.  Its
hash and repr are checked against a frozen dataclass with the same fields,
so both stay exactly what the dataclass versions of these types gave.
"""

import dataclasses
import math
import os
import pickle
import subprocess
import sys

import pytest

import delaysym.expr as ex
from delaysym.delay import (AffineDelay, ConstantDelay, GeneralDelay, Mesh, MoebiusDelay,
                            QScaleDelay, parse_delay_spec)
from delaysym.dods import (CaseInfo, CatalogCase, Dods, GeneralRhs, InitialCondition,
                           LinearRhs, catalog, initial_condition, list_cases, load_spec)
from delaysym.errors import FrozenInstanceError, ParameterDomainError
from delaysym.reduction import solve_constraints
from delaysym.steps import PiecewiseSolution, Segment, SolverConfig, solve
from delaysym.symmetry import AffineEta, VectorField, char_roots, vertical_from_solution

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# fields a record leaves out of its repr
HIDDEN = {"InvariantFamily": ("solver", "generator_fn")}


def _records():
    entry = catalog(CatalogCase("A4_12", params={"C": 1.0}))
    d = entry.dods
    init = initial_condition("x", d.delay, 0.0)
    s = solve(d, init, 2, SolverConfig(step_count=8))
    general, _ = load_spec("rhs.kind = general\nf = y - ym*x\ndelay = constant(1)\n")
    tree = ex.parse("-exp(x) + 2")
    out = {
        "Num": tree.right, "Var": tree.left.child.child, "Unary": tree.left,
        "Binary": tree,
        "ConstantDelay": d.delay,
        "AffineDelay": parse_delay_spec("affine(0.5, 1)"),
        "QScaleDelay": catalog("A4_21").dods.delay,
        "MoebiusDelay": catalog("A4_14").dods.delay,
        "GeneralDelay": catalog(CatalogCase("A4_5", delay='general("x - 1")')).dods.delay,
        "Mesh": s.mesh, "Segment": s.segments[1], "PiecewiseSolution": s,
        "LinearRhs": d.rhs, "GeneralRhs": general.rhs, "Dods": d,
        "InitialCondition": init, "SolverConfig": SolverConfig(),
        "CaseInfo": list_cases()[0], "CatalogCase": entry.case, "CatalogEntry": entry,
        "VectorField": entry.algebra[0],
        "AffineEta": vertical_from_solution(s, d).eta,
        "InvariantFamily": entry.families[0],
        "ConstraintSolution": solve_constraints(entry.families[0]),
        "CharacteristicRoot": char_roots(1.0, 2)[2],
    }
    for name, r in out.items():
        assert type(r).__name__ == name
    return out


RECORDS = _records()


def _fields(r):
    return tuple(getattr(r, name) for name in r.__match_args__)


def _as_dataclass(r):
    hidden = HIDDEN.get(type(r).__name__, ())
    cls = dataclasses.make_dataclass(
        type(r).__qualname__,
        [(name, object, dataclasses.field(repr=name not in hidden)) for name in r.__match_args__],
        frozen=True)
    return cls(*_fields(r))


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestRecordContract:
    def test_is_frozen(self, name):
        r = RECORDS[name]
        first = r.__match_args__[0]
        with pytest.raises(AttributeError):
            setattr(r, first, None)
        with pytest.raises(FrozenInstanceError):
            r.other = 1
        with pytest.raises(AttributeError):
            delattr(r, first)

    def test_hash_is_the_tuple_of_fields(self, name):
        r = RECORDS[name]
        try:
            expected = hash(_fields(r))
        except TypeError:  # a dict-valued field: neither side hashes
            with pytest.raises(TypeError):
                hash(r)
            return
        assert hash(r) == expected == hash(_as_dataclass(r))

    def test_repr_is_the_dataclass_format(self, name):
        r = RECORDS[name]
        assert repr(r) == repr(_as_dataclass(r))

    def test_rebuilt_by_keyword_is_equal(self, name):
        r = RECORDS[name]
        again = type(r)(**dict(zip(r.__match_args__, _fields(r))))
        assert again == r and not again != r
        assert r != _fields(r)

    def test_pickle_round_trip(self, name):
        r = RECORDS[name]
        if name in ("InvariantFamily", "CatalogEntry"):
            pytest.skip("holds the catalog's constraint solver closures")
        back = pickle.loads(pickle.dumps(r))
        assert back == r and type(back) is type(r)


def test_pickle_drops_cached_callables():
    d = RECORDS["Dods"]
    d.rhs_value(0.5, 1.0, 2.0)
    assert "rhs_fn" in vars(d)
    back = pickle.loads(pickle.dumps(d))
    assert "rhs_fn" not in vars(back)
    assert back.rhs_value(0.5, 1.0, 2.0) == d.rhs_value(0.5, 1.0, 2.0)


def test_defaults_and_bad_arguments():
    xi, eta = ex.Num(0.0), ex.parse("y", ("x", "y"))
    assert VectorField(xi, eta).name == ""
    assert VectorField(xi, eta=eta, name="V") == VectorField(xi, eta, "V")
    d = RECORDS["Dods"]
    assert Dods(d.rhs, d.delay).domain == (-math.inf, math.inf)
    assert SolverConfig(step_count=8).scheme is SolverConfig().scheme
    assert CaseInfo("Z", "y' = 0", "none", "").admits_system is True
    for bad in (lambda: VectorField(xi),                      # missing field
                lambda: VectorField(xi, eta, "V", 1),         # too many
                lambda: VectorField(xi, eta, colour="red"),   # unknown field
                lambda: VectorField(xi, eta, xi=xi)):         # given twice
        with pytest.raises(TypeError):
            bad()


def test_equality_is_by_class_and_fields():
    assert ex.Num(1.0) == ex.Num(1.0) and ex.Num(1.0) != ex.Num(2.0)
    assert ex.Num(1.0) != 1.0 and ex.Var("x") != ex.Num(1.0)
    assert QScaleDelay(0.5) != MoebiusDelay(0.5)  # equal fields, other class
    assert QScaleDelay(0.5) == QScaleDelay(0.5)
    assert all(isinstance(RECORDS[n], ex.Expr) for n in ("Num", "Var", "Unary", "Binary"))
    assert not isinstance(RECORDS["Dods"], ex.Expr)


@pytest.mark.parametrize("build", [
    lambda: ConstantDelay(0.0),
    lambda: AffineDelay(q=-1.0, tau=1.0),
    lambda: QScaleDelay(1.5),
    lambda: MoebiusDelay(0.0),
    lambda: GeneralDelay(ex.parse("x - y", ("x", "y"))),
    lambda: Mesh((0.0,), ConstantDelay(1.0)),
    lambda: LinearRhs(ex.Var("y"), ex.Num(1.0), ex.Num(0.0)),
    lambda: GeneralRhs(ex.Var("z")),
    lambda: Dods(RECORDS["LinearRhs"], ConstantDelay(1.0), domain=(1.0, 0.0)),
    lambda: InitialCondition(ex.Num(1.0), 1.0, 0.0),
    lambda: SolverConfig(step_count=0),
    lambda: Segment((0.0, 1.0), (0.0,), (0.0, 0.0)),
    lambda: PiecewiseSolution(RECORDS["Mesh"], ()),
    lambda: AffineEta(ex.Var("y"), ex.Num(0.0)),
    lambda: VectorField(ex.Var("y"), ex.Num(0.0)),
])
def test_post_init_checks_still_run(build):
    with pytest.raises(ParameterDomainError):
        build()


def test_cli_import_loads_no_dataclasses_inspect_or_fractions():
    # -S keeps site-packages .pth hooks, which may import anything, out of it
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import delaysym.cli; "
            "print(sorted({'dataclasses', 'inspect', 'fractions'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, SRC], capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"
