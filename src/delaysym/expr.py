"""A small closed expression language over scalar doubles.

Grammar (whitespace insensitive), read by precedence climbing over _PREC,
the table the printer reads:

    expr(p) := prefix (op expr(q))*   each op with _PREC[op] > p, where q is
                                      _PREC[op], or _PREC['neg'] after '^'
    prefix  := '-' expr(_PREC['neg']) | NUMBER | IDENT | IDENT '(' expr(0) ')'
             | '(' expr(0) ')'

So '+' '-' bind loosest, then '*' '/', then a unary minus, then '^', which
alone is right associative: -x^2 reads as -(x^2) while 2^-3 reads as 2^(-3).
Unary '+' is not part of the language.  The reserved identifiers pi and e
fold to their double precision values at parse time.  Everything else must
be one of the nine function names or a declared variable.

Trees are immutable, interned records (Expr, below): equal trees, with
bit-equal constants, are one object, which is what the round trip guarantee
is stated against: to_text of a parsed tree reparses to the same tree, and
to_text(parse(to_text(t))) == to_text(t).  Text that nests deeper than
_DEPTH levels is a ParseError.
"""

from __future__ import annotations

import builtins
import functools
import math
import operator
import weakref
from collections.abc import Callable, Iterable, Mapping, Sequence
from types import CodeType

from .errors import (DomainError, FrozenInstanceError, ParameterDomainError, ParseError,
                     UnboundVariable)

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Unary",
    "Binary",
    "parse",
    "evaluate",
    "compile",
    "compile_many",
    "compile_columns",
    "differentiate",
    "to_text",
    "substitute",
    "variables_of",
    "is_constant",
    "is_zero",
    "fold",
    "as_expr",
]

FUNCTIONS = ("exp", "ln", "sin", "cos", "tan", "atan", "sqrt", "abs", "sign")
CONSTANTS = {"pi": math.pi, "e": math.e}
BINARY_OPS = ("+", "-", "*", "/", "^")
# the precedence the parser climbs and the printer reads; neg sits between
# '*' and '^' because a leading minus applies to a whole power but not to a product
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 2.5, "^": 3}


class Record:
    """Immutable value whose fields, its annotations in MRO order, are set by
    position or keyword before __post_init__ runs.  It equals, hashes, prints
    and pickles as the tuple of its fields."""

    __slots__ = ()
    _fields = __match_args__ = ()

    def __init_subclass__(cls) -> None:
        names = (n for k in reversed(cls.__mro__) for n in vars(k).get("__annotations__", ()))
        cls._fields = cls.__match_args__ = tuple(dict.fromkeys(names))

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        if kwargs or len(args) != len(names):  # defaults are the class attributes
            cls = type(self)
            given = {**dict(zip(names, args)), **kwargs}
            if (len(args) > len(names) or not kwargs.keys() <= set(names[len(args):])
                    or not all(name in given or hasattr(cls, name) for name in names)):
                raise TypeError(f"{cls.__name__}() takes the fields {names} once each")
            args = [given[name] if name in given else getattr(cls, name) for name in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = (f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __setattr__(self, name: str, *value: object) -> None:
        raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class Expr(Record):
    """Expression tree node.  Num, Var, Unary and Binary return the one live
    node for their type and _constant_key of a value, a name, or an op and
    children by identity, so == is identity and the hash, taken once from
    the children's, is stored: neither walks a tree.  Unsupported: building
    trees from two threads at once, which can make equal trees unequal."""

    __slots__ = ("_hash", "__weakref__")
    __init__ = object.__init__  # __new__ sets the fields
    __eq__ = object.__eq__

    def __hash__(self) -> int:
        return self._hash


class _Ref(weakref.ref):
    __slots__ = ("key",)


# key -> a weak reference to the live node with that key, which goes when the
# node dies; a parent keeps its children alive, so the ids in its key name
# them while it lives.  The table takes no lock (see Expr).
_LIVE: dict[tuple, _Ref] = {}


def _forget(ref: _Ref) -> None:
    if _LIVE.get(ref.key) is ref:
        del _LIVE[ref.key]


def _make(cls: type, key: tuple, fields: tuple) -> Expr:
    if cls in _OPS and fields[0] not in _OPS[cls]:
        raise ValueError(f"bad {cls.__name__.lower()} op {fields[0]!r}")
    node = object.__new__(cls)
    for name, value in zip(cls.__slots__, fields):
        object.__setattr__(node, name, value)
    object.__setattr__(node, "_hash", hash(fields))
    ref = _LIVE[key] = _Ref(node, _forget)
    ref.key = key
    return node


class Num(Expr):
    __slots__ = ("value",)
    value: float

    def __new__(cls, value: float) -> Num:
        ref = _LIVE.get(key := (cls, _constant_key(value)))
        return ref and ref() or _make(cls, key, (value,))


class Var(Expr):
    __slots__ = ("name",)
    name: str

    def __new__(cls, name: str) -> Var:
        ref = _LIVE.get(key := (cls, name))
        return ref and ref() or _make(cls, key, (name,))


class Unary(Expr):
    __slots__ = ("op", "child")
    op: str  # 'neg' or a function name
    child: Expr

    def __new__(cls, op: str, child: Expr) -> Unary:
        ref = _LIVE.get(key := (op, id(child)))
        return ref and ref() or _make(cls, key, (op, child))


class Binary(Expr):
    __slots__ = ("op", "left", "right")
    op: str  # one of + - * / ^
    left: Expr
    right: Expr

    def __new__(cls, op: str, left: Expr, right: Expr) -> Binary:
        ref = _LIVE.get(key := (op, id(left), id(right)))
        return ref and ref() or _make(cls, key, (op, left, right))


_OPS = {Unary: ("neg",) + FUNCTIONS, Binary: BINARY_OPS}  # checked when a node is made


def _constant_key(value: object) -> object:
    """A float itself where == is bit equality, and float.hex of zero and
    NaN, so 0.0 and -0.0 stay apart; the type and value of anything else, so
    1 and 1.0 do too."""
    if type(value) is float:
        return value if value and value == value else value.hex()
    return type(value), value


# ---------------------------------------------------------------------------
# tokenizer / parser


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdecimal() or (c == "." and i + 1 < n and text[i + 1].isdecimal()):
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdecimal():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdecimal():
                    j = k
                    while j < n and text[j].isdecimal():
                        j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        if c in "+-*/^()":
            tokens.append((c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


_DEPTH = 100  # the deepest tree text may give, and its deepest nesting


class _Parser:
    """Precedence climbing over _PREC.  Each rule returns its tree and the
    tree's depth, the operator nodes on its longest path; a tree deeper than
    _DEPTH, or text that opens more than _DEPTH parentheses, calls, minus
    signs and powers around a point, is a ParseError, so no walk of a parsed
    tree, nor the parser, runs out of stack."""

    def __init__(self, text: str, variables: frozenset[str]) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = variables
        self.open = 0  # the nestings the rule being parsed sits in

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return self.advance()

    def deeper(self, depth: int, pos: int) -> int:
        if depth > _DEPTH:
            raise ParseError(f"expression nests deeper than {_DEPTH} levels", pos)
        return depth

    def nested(self, floor: float, pos: int) -> tuple[Expr, int]:
        self.open = self.deeper(self.open + 1, pos)
        out = self.expr(floor)
        self.open -= 1
        return out

    def parse(self) -> Expr:
        e, _ = self.expr(0)
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return e

    def expr(self, floor: float) -> tuple[Expr, int]:
        """A prefix and every binary operator after it that binds tighter
        than floor.  The right operand of a left associative operator stops
        at its own precedence; that of '^' is signed, as a minus's operand."""
        e, depth = self.prefix()
        while _PREC.get(op := self.peek()[0], 0) > floor:
            pos = self.advance()[2]
            right, right_depth = (self.nested(_PREC["neg"], pos) if op == "^"
                                  else self.expr(_PREC[op]))
            e, depth = Binary(op, e, right), self.deeper(max(depth, right_depth) + 1, pos)
        return e, depth

    def prefix(self) -> tuple[Expr, int]:
        kind, textval, pos = self.advance()
        if kind == "-":
            e, depth = self.nested(_PREC["neg"], pos)
            return Unary("neg", e), self.deeper(depth + 1, pos)
        if kind == "num":
            return Num(float(textval)), 0
        if kind == "(":
            out = self.nested(0, pos)
            self.expect(")")
            return out
        if kind == "ident":
            if textval in FUNCTIONS:
                self.expect("(")
                arg, depth = self.nested(0, pos)
                self.expect(")")
                return Unary(textval, arg), self.deeper(depth + 1, pos)
            if textval in CONSTANTS:
                return Num(CONSTANTS[textval]), 0
            if textval in self.variables:
                return Var(textval), 0
            raise ParseError(f"unknown identifier {textval!r}", pos)
        raise ParseError(f"expected a value, found {textval or 'end of input'!r}", pos)


def parse(text: str, variables: Iterable[str] = ("x",)) -> Expr:
    """Parse text over the given variable names."""
    return _Parser(text, frozenset(variables)).parse()


def as_expr(value: "Expr | str | float | int", variables: Iterable[str] = ("x",)) -> Expr:
    """Coerce text or a number to an expression tree."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, str):
        return parse(value, variables)
    return Num(float(value))


# ---------------------------------------------------------------------------
# evaluation


def _sign(v: float) -> float:
    if v > 0.0:
        return 1.0
    if v < 0.0:
        return -1.0
    return 0.0


def _pow_checked(base: float, exponent: float) -> float:
    if base > 0.0:
        return math.pow(base, exponent)
    if base == 0.0:
        if exponent > 0.0:
            return 0.0
        if exponent == 0.0:
            return 1.0
        raise DomainError("zero raised to a negative power")
    # negative base: only integer exponents stay real; NaN and inf fail before
    # floor, and every finite float from 2^52 up is an integer
    if not math.isfinite(exponent) or exponent != math.floor(exponent):
        raise DomainError(
            f"negative base {base!r} with non-integer exponent {exponent!r}"
        )
    return math.pow(base, exponent)


def _unbound(name: str) -> UnboundVariable:
    return UnboundVariable(f"variable {name!r} has no bound value")


def _ln_domain(v: float) -> DomainError:
    return DomainError(f"ln of non-positive value {v!r}")


def _sqrt_domain(v: float) -> DomainError:
    return DomainError(f"sqrt of negative value {v!r}")


def _division_by_zero() -> DomainError:
    return DomainError("division by zero")


def _infinite_angle(op: str, v: float) -> DomainError:
    return DomainError(f"{op} of infinite value {v!r}")


def _overflow(exc: OverflowError) -> DomainError:
    return DomainError(f"overflow during evaluation: {exc}")


_ANGLES = ("sin", "cos", "tan")  # math raises ValueError for these at inf
_UNARY_FN = {"neg": operator.neg, "exp": math.exp, "ln": math.log, "sin": math.sin,
             "cos": math.cos, "tan": math.tan, "atan": math.atan, "sqrt": math.sqrt,
             "abs": abs, "sign": _sign}
_BINARY_FN = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv, "^": _pow_checked}


def evaluate(e: Expr, bindings: Mapping[str, float]) -> float:
    """Evaluate in IEEE double precision.

    Raises DomainError for log or sqrt of an out of range argument, a trig
    function of an infinite one, division by zero, impossible powers, and
    overflow in exp; raises UnboundVariable for a free variable missing from
    bindings.
    """
    try:
        return _eval(e, bindings)
    except OverflowError as exc:
        raise _overflow(exc) from exc


def _eval(e: Expr, b: Mapping[str, float]) -> float:
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        try:
            return float(b[e.name])
        except KeyError:
            raise _unbound(e.name) from None
    if isinstance(e, Unary):
        v, op = _eval(e.child, b), e.op
        if op == "ln" and v <= 0.0:
            raise _ln_domain(v)
        if op == "sqrt" and v < 0.0:
            raise _sqrt_domain(v)
        if op in _ANGLES and math.isinf(v):
            raise _infinite_angle(op, v)
        return _UNARY_FN[op](v)
    l, r, op = _eval(e.left, b), _eval(e.right, b), e.op
    if op == "/" and r == 0.0:
        raise _division_by_zero()
    return _BINARY_FN[op](l, r)


# ---------------------------------------------------------------------------
# compilation
#
# compile_many() turns trees into one Python function of positional
# arguments that returns the tuple of their values; compile() is its one-tree
# case and returns the value itself; compile_columns() runs the same statements
# once per point of its argument columns.  _generate() caches each function by
# the interned trees, so a rebuilt system finds it without walking a tree.
# _emit() gives the statements and _define() turns lines into a function
# that raises an OverflowError out of them as DomainError, as evaluate does;
# symmetry's invariance loop and steps' one loop per scheme wrap statements
# in their own templates the same way.  The emitter walks each tree in the order
# _eval visits it (child before parent, left before right) and emits one
# statement per operator node, t<k> = <op>, with a node's domain guard (ln,
# sqrt, /, and sin, cos and tan, where math raises ValueError at inf) on the
# line before it, unless that operand passed it already; the first use of an
# argument coerces it with float() on a line of its own, as _eval does at
# every use.  A power calls _pow_checked below a positive base, except under
# a constant positive integer exponent, which needs no call (_WHOLE_POWER).
#
# A subtree shared within or across the trees is one interned node: met
# again, it reuses the name it got at its first use and is not walked twice,
# so it runs once, guard included.  The walk keeps its own stack, so a deep
# tree needs no recursion.
#
# The operations are pure, so the generated code gives every value bit for
# bit as evaluate does tree by tree and raises the same first error at the
# same point, and a deep tree gives a long function, never deeply nested
# source.  The source is assembled only from the fixed templates below and
# generated names: arguments a0, a1, ..., temporaries t0, t1, ..., and
# closure values k0, k1, ... bound to the constants, so no number or variable
# name is ever spliced in as text.

# a function is a call of _<op>, bound to _UNARY_FN's own; neg and sign are inline
_UNARY_TEMPLATES = {op: f"_{op}({{0}})" for op in FUNCTIONS} | {
    "neg": "-{0}", "sign": "1.0 if {0} > 0.0 else -1.0 if {0} < 0.0 else 0.0"}
_BINARY_TEMPLATES = {
    "+": "{0} + {1}",
    "-": "{0} - {1}",
    "*": "{0} * {1}",
    "/": "{0} / {1}",
    "^": "_mpow({0}, {1}) if {0} > 0.0 else _pow_checked({0}, {1})",
}
# a^k for a constant positive integer k (_whole_power): math.pow's bits, as
# _pow_checked gives them without the call, but at a zero, where math.pow
# keeps -0.0's sign for an odd k and _pow_checked returns 0.0
_WHOLE_POWER = "_mpow({0}, {1}) if {0} != 0.0 else 0.0"
# statements that run once the operands are known, before the operation
_GUARDS = {
    "ln": "if {0} <= 0.0: raise _ln_domain({0})",
    "sqrt": "if {0} < 0.0: raise _sqrt_domain({0})",
    "/": "if {1} == 0.0: raise _division_by_zero()",
    **{op: f"if _isinf({{0}}): raise _infinite_angle('{op}', {{0}})" for op in _ANGLES},
}

_COMPILE_GLOBALS = {
    **{f"_{op}": _UNARY_FN[op] for op in FUNCTIONS}, "_mpow": math.pow,
    "_pow_checked": _pow_checked, "_ln_domain": _ln_domain,
    "_sqrt_domain": _sqrt_domain, "_division_by_zero": _division_by_zero,
    "_isinf": math.isinf, "_infinite_angle": _infinite_angle,
    "_unbound": _unbound, "_overflow": _overflow, "__builtins__": builtins,
}


def compile(e: Expr, args: Sequence[str]) -> Callable[..., float]:
    """A function of len(args) positional values that returns
    evaluate(e, dict(zip(args, values))) bit for bit and raises the same
    DomainError or UnboundVariable with the same message.

    A variable of e missing from args raises UnboundVariable when the
    evaluation reaches it, as in evaluate.
    """
    return _generate((e,), tuple(args), "value")


def compile_many(trees: Iterable[Expr], args: Sequence[str]) -> Callable[..., tuple]:
    """A function of len(args) positional values that returns the tuple of
    every tree's value, each bit for bit what compile(tree, args) gives, and
    raises the error that calling those functions in order raises first.
    A subtree the trees share is evaluated once."""
    return _generate(tuple(trees), tuple(args), "tuple")


def compile_columns(trees: Iterable[Expr], args: Sequence[str]
                    ) -> Callable[..., tuple[list[float], ...]]:
    """A function of len(args) equally long columns that returns one list per
    tree: at every index, compile_many(trees, args) of the columns' entries
    there, bit for bit, or at the first index where it raises, its error."""
    return _generate(tuple(trees), tuple(args), "columns")


@functools.lru_cache(maxsize=1024)
def _generate(trees: tuple[Expr, ...], args: tuple[str, ...], form: str) -> Callable:
    lines, outputs, consts, _ = _emit(trees, args)
    params = ", ".join(f"a{i}" for i in range(len(args)))
    if form == "columns":  # the statements once per point; list o<i> gathers output i
        columns = ", ".join(f"c{i}" for i in range(len(args)))
        points = {0: "()", 1: columns}.get(len(args), f"zip({columns}, strict=True)")
        loop = [*lines, *(f"p{i}({name})" for i, name in enumerate(outputs))] or ["pass"]
        lines = [*(f"o{i} = []; p{i} = o{i}.append" for i in range(len(outputs))),
                 f"for {params or '()'} in {points}:", *(f"    {line}" for line in loop)]
        params, outputs = columns, [f"o{i}" for i in range(len(outputs))]
    returned = outputs[0] if form == "value" else f"({''.join(f'{name}, ' for name in outputs)})"
    return _define(params, [*lines, f"return {returned}"], consts)


def _emit(trees: tuple[Expr, ...], args: Sequence[str]
          ) -> tuple[list[str], list[str], list[object], list[int]]:
    """The statements that evaluate the trees over the arguments a0, a1, ...,
    the name that holds each tree's value after them, the constants k0, k1,
    ... they read, and for each tree the count of statements up to its value:
    those from one tree's count to the next's are the next tree's nodes that
    no earlier tree holds.
    Argument i is the variable a<i>.  The statements assign only a<i> and
    t<k>, and read only those, k<i> and the names of _COMPILE_GLOBALS, so
    code around them may use any other name."""
    args = tuple(args)
    if len(set(args)) != len(args):
        raise ValueError(f"duplicate argument names in {args!r}")
    position = {name: i for i, name in enumerate(args)}
    consts: list[object] = []
    lines: list[str] = []
    guarded: set[str] = set()  # the guards already emitted
    seen: dict[int, str] = {}  # id of a node already named -> its name
    names: list[str] = []  # the name holding each evaluated operand
    outputs: list[str] = []
    ends: list[int] = []

    def const(value: object) -> str:
        consts.append(value)
        return f"k{len(consts) - 1}"

    for tree in trees:
        todo: list[tuple[Expr, bool]] = [(tree, False)]
        while todo:
            node, expanded = todo.pop()
            if expanded:
                arity = 1 if isinstance(node, Unary) else 2
                operands = names[-arity:]
                del names[-arity:]
                template = (_UNARY_TEMPLATES if arity == 1 else _BINARY_TEMPLATES)[node.op]
                if node.op == "^" and _whole_power(node.right):
                    template = _WHOLE_POWER
                guard = _GUARDS.get(node.op, "").format(*operands)
                if guard and guard not in guarded:  # it tests the last operand
                    guarded.add(guard)
                    lines.append(guard)
                name = seen[id(node)] = f"t{len(lines)}"
                lines.append(f"{name} = {template.format(*operands)}")
            elif (name := seen.get(id(node))) is not None:
                pass
            elif isinstance(node, Num):
                name = seen[id(node)] = const(node.value)
            elif isinstance(node, Var):
                i = position.get(node.name)
                if i is None:
                    name = seen[id(node)] = "None"
                    lines.append(f"raise _unbound({const(node.name)})")
                else:
                    name = seen[id(node)] = f"a{i}"
                    lines.append(f"{name} = float({name})")
            else:
                todo.append((node, True))
                if isinstance(node, Unary):
                    todo.append((node.child, False))
                elif isinstance(node, Binary):
                    todo.append((node.right, False))
                    todo.append((node.left, False))
                else:
                    raise TypeError(f"not an expression node: {node!r}")
                continue
            names.append(name)
        outputs.append(names.pop())
        ends.append(len(lines))
    return lines, outputs, consts, ends


def _whole_power(e: Expr) -> bool:
    """Whether e is a constant positive integer float (see _WHOLE_POWER)."""
    return isinstance(e, Num) and type(e.value) is float and e.value > 0.0 and e.value.is_integer()


def _define(params: str, body: Sequence[str], consts: Sequence[object],
            namespace: Mapping[str, object] = _COMPILE_GLOBALS) -> Callable:
    """The function compiled(params) that runs the lines with namespace as its globals and
    k0, k1, ... bound to consts, and raises their OverflowError as _overflow's DomainError."""
    cells = ", ".join(f"k{i}" for i in range(len(consts)))
    lines = "".join(f"            {line}\n" for line in body)
    source = (f"def _make({cells}):\n    def compiled({params}):\n        try:\n{lines}"
              "        except OverflowError as exc:\n            raise _overflow(exc) from exc\n"
              "    return compiled\n")
    scope: dict = {}
    exec(_bytecode(source), namespace, scope)
    return scope["_make"](*consts)


@functools.lru_cache(maxsize=1024)
def _bytecode(source: str) -> CodeType:
    # constants are closure values: trees with new ones reuse the old source,
    # but for an exponent that becomes or stops being a whole number
    return builtins.compile(source, "<delaysym.expr.compile>", "exec")


# ---------------------------------------------------------------------------
# structural helpers


def variables_of(e: Expr) -> frozenset[str]:
    if isinstance(e, Num):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Unary):
        return variables_of(e.child)
    return variables_of(e.left) | variables_of(e.right)


def check_variables(e: Expr, allowed: set[str], message: str) -> None:
    """Raise ParameterDomainError("<message>, found [...]") if e uses others or is no tree."""
    if not isinstance(e, Expr):
        raise ParameterDomainError(f"{message}: expected an expression tree, found {e!r}")
    extra = variables_of(e) - allowed
    if extra:
        raise ParameterDomainError(f"{message}, found {sorted(extra)}")


def is_constant(e: Expr) -> bool:
    return not variables_of(e)


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    if isinstance(e, Num):
        return e
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, Unary):
        return Unary(e.op, substitute(e.child, mapping))
    return Binary(e.op, substitute(e.left, mapping), substitute(e.right, mapping))


# small constructors that fold the obvious identities; they keep derivative
# trees readable without amounting to a simplifier
_ZERO = Num(0.0)
_ONE = Num(1.0)


def _is_num(e: Expr, v: float) -> bool:
    return isinstance(e, Num) and e.value == v


def _arithmetic(op: str, a: Expr, b: Expr) -> Expr:
    """a op b, folded to its value when both are constants and it is not NaN."""
    if isinstance(a, Num) and isinstance(b, Num):
        value = _BINARY_FN[op](a.value, b.value)
        if value == value:
            return Num(value)
    return Binary(op, a, b)


def _add(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return _arithmetic("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0) and not isinstance(b, Num):
        return _neg(b)
    return _arithmetic("-", a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Unary) and a.op == "neg":
        return a.child
    return Unary("neg", a)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return _ZERO
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    return _arithmetic("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0) and not _is_num(b, 0.0):
        return _ZERO
    if _is_num(b, 1.0):
        return a
    return Binary("/", a, b)


def _pow(a: Expr, b: Expr) -> Expr:
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return _ONE
    return Binary("^", a, b)


_BUILD = {"+": _add, "-": _sub, "*": _mul, "/": _div, "^": _pow}


# the derivative of op(u) from u and u', and of l op r from l, r, l' and r'
_UNARY_D = {
    "neg": lambda u, du: _neg(du),
    "exp": lambda u, du: _mul(Unary("exp", u), du),
    "ln": lambda u, du: _div(du, u),
    "sin": lambda u, du: _mul(Unary("cos", u), du),
    "cos": lambda u, du: _neg(_mul(Unary("sin", u), du)),
    "tan": lambda u, du: _div(du, _pow(Unary("cos", u), Num(2.0))),
    "atan": lambda u, du: _div(du, _add(_ONE, _pow(u, Num(2.0)))),
    "sqrt": lambda u, du: _div(du, _mul(Num(2.0), Unary("sqrt", u))),
    "abs": lambda u, du: _mul(Unary("sign", u), du),
    "sign": lambda u, du: _ZERO,
}
_BINARY_D = {
    "+": lambda l, r, dl, dr: _add(dl, dr),
    "-": lambda l, r, dl, dr: _sub(dl, dr),
    "*": lambda l, r, dl, dr: _add(_mul(dl, r), _mul(l, dr)),
    "/": lambda l, r, dl, dr: _div(_sub(_mul(dl, r), _mul(l, dr)), _pow(r, Num(2.0))),
    # d(u^c) = c*u^(c-1)*u', and in general d(u^v) = u^v * (v' ln u + v u'/u)
    "^": lambda l, r, dl, dr: (
        _mul(_mul(r, _pow(l, _sub(r, _ONE))), dl) if is_constant(r)
        else _mul(Binary("^", l, r), _add(_mul(dr, Unary("ln", l)), _mul(r, _div(dl, l))))),
}


def differentiate(e: Expr, var: str) -> Expr:
    """Exact symbolic derivative with respect to var.

    abs differentiates to sign times the inner derivative and sign
    differentiates to zero, so results are valid away from the kink.
    """
    if isinstance(e, Num):
        return _ZERO
    if isinstance(e, Var):
        return _ONE if e.name == var else _ZERO
    if isinstance(e, Unary):
        return _UNARY_D[e.op](e.child, differentiate(e.child, var))
    return _BINARY_D[e.op](e.left, e.right, differentiate(e.left, var),
                           differentiate(e.right, var))


def is_zero(e: Expr) -> bool:
    """Whether fold(e) is the constant 0.0 or -0.0: zero by structure, so an
    identity such as sin(x)^2 + cos(x)^2 - 1 is not zero here."""
    return _is_num(fold(e), 0.0)


def fold(e: Expr) -> Expr:
    """Collapse constant subtrees and unit identities where safe.

    Subtrees whose evaluation raises or gives NaN are left untouched, so
    folding never changes where an expression is defined, and to_text of a
    folded tree parses.
    """
    if isinstance(e, (Num, Var)):
        return e
    if isinstance(e, Unary):
        out: Expr = Unary(e.op, fold(e.child))
        return _constant(out) if isinstance(out.child, Num) else out
    out = _BUILD[e.op](fold(e.left), fold(e.right))
    if isinstance(out, Binary) and isinstance(out.left, Num) and isinstance(out.right, Num):
        return _constant(out)
    return out


def _constant(e: Expr) -> Expr:
    """The constant e evaluates to, or e where that raises or is NaN."""
    try:
        value = evaluate(e, {})
    except DomainError:
        return e
    return Num(value) if value == value else e


# ---------------------------------------------------------------------------
# serialization

_ATOM_PREC = 4.0


def _prec(e: Expr) -> float:
    if isinstance(e, Binary):
        return _PREC[e.op]
    if isinstance(e, Unary):
        return _PREC["neg"] if e.op == "neg" else _ATOM_PREC
    if isinstance(e, Num) and (e.value < 0.0 or math.copysign(1.0, e.value) < 0.0):
        return _PREC["neg"]
    return _ATOM_PREC


def _wrap(text: str, need: bool) -> str:
    return f"({text})" if need else text


def to_text(e: Expr) -> str:
    """Render with the minimal parentheses the printer reasons about.

    The output of parse-then-print is a fixed point of print, and reparsing
    it reproduces the tree.
    """
    if isinstance(e, Num):
        return repr(e.value).replace("inf", "1e999")  # which reads back as inf
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            return "-" + _wrap(to_text(e.child), _prec(e.child) < _PREC["^"])
        return f"{e.op}({to_text(e.child)})"
    op = e.op
    p = _PREC[op]
    lt, rt = to_text(e.left), to_text(e.right)
    if op == "^":
        # right associative: parenthesize an operand chain on the left
        return _wrap(lt, _prec(e.left) <= p) + op + _wrap(rt, _prec(e.right) < p)
    # left associative parse: a right operand of the same precedence level
    # must keep its parentheses for the reparse to rebuild the same tree
    need_left = _prec(e.left) < p
    need_right = _prec(e.right) <= p
    return _wrap(lt, need_left) + f" {op} " + _wrap(rt, need_right)
