"""A small closed expression language over scalar doubles.

Grammar (whitespace insensitive):

    sum     := product (('+' | '-') product)*
    product := signed (('*' | '/') signed)*
    signed  := '-' signed | power
    power   := atom ('^' signed)?          right associative
    atom    := NUMBER | IDENT | IDENT '(' sum ')' | '(' sum ')'

'^' binds tighter than a unary minus on its right operand, so -x^2 reads as
-(x^2) while 2^-3 reads as 2^(-3).  Unary '+' is not part of the language.
The reserved identifiers pi and e fold to their double precision values at
parse time.  Everything else must be one of the nine function names or a
declared variable.

Trees are immutable records (Record, below) and compare structurally, which
is what the round trip guarantee is stated against: to_text of a parsed tree
reparses to an equal tree, and to_text(parse(to_text(t))) == to_text(t).
"""

from __future__ import annotations

import builtins
import functools
import math
from types import CodeType
from typing import Callable, Iterable, Mapping, Sequence

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
    "differentiate",
    "to_text",
    "substitute",
    "variables_of",
    "is_constant",
    "fold",
    "as_expr",
]

FUNCTIONS = ("exp", "ln", "sin", "cos", "tan", "atan", "sqrt", "abs", "sign")
CONSTANTS = {"pi": math.pi, "e": math.e}
BINARY_OPS = ("+", "-", "*", "/", "^")


class Record:
    """Immutable value whose fields, its annotations in MRO order, are set by
    position or keyword before __post_init__ runs.  It equals, hashes, prints
    (but for the names in _hidden) and pickles as the tuple of its fields."""

    __slots__ = ()
    _fields = __match_args__ = _hidden = ()

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
        shown = (f"{n}={getattr(self, n)!r}" for n in self._fields if n not in self._hidden)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __setattr__(self, name: str, *value: object) -> None:
        raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class Expr(Record):
    """Expression tree node.  Parsing, folding and differentiating build nodes
    by the thousand, so the node types keep slots and spell out their methods."""

    __slots__ = ()


class Num(Expr):
    __slots__ = ("value",)
    value: float

    def __init__(self, value: float) -> None:
        object.__setattr__(self, "value", value)

    def __eq__(self, other: object):
        return (self.value,) == (other.value,) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash((self.value,))


class Var(Expr):
    __slots__ = ("name",)
    name: str

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "name", name)

    def __eq__(self, other: object):
        return self.name == other.name if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash((self.name,))


class Unary(Expr):
    __slots__ = ("op", "child")
    op: str  # 'neg' or a function name
    child: Expr

    def __init__(self, op: str, child: Expr) -> None:
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "child", child)

    def __eq__(self, other: object):
        return ((self.op, self.child) == (other.op, other.child)
                if type(other) is type(self) else NotImplemented)

    def __hash__(self) -> int:
        return hash((self.op, self.child))


class Binary(Expr):
    __slots__ = ("op", "left", "right")
    op: str  # one of + - * / ^
    left: Expr
    right: Expr

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __eq__(self, other: object):
        return ((self.op, self.left, self.right) == (other.op, other.left, other.right)
                if type(other) is type(self) else NotImplemented)

    def __hash__(self) -> int:
        return hash((self.op, self.left, self.right))


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
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
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


class _Parser:
    def __init__(self, text: str, variables: frozenset[str]) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = variables

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

    def parse(self) -> Expr:
        e = self.sum()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return e

    def sum(self) -> Expr:
        e = self.product()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            e = Binary(op, e, self.product())
        return e

    def product(self) -> Expr:
        e = self.signed()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            e = Binary(op, e, self.signed())
        return e

    def signed(self) -> Expr:
        if self.peek()[0] == "-":
            self.advance()
            return Unary("neg", self.signed())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            return Binary("^", base, self.signed())
        return base

    def atom(self) -> Expr:
        kind, textval, pos = self.peek()
        if kind == "num":
            self.advance()
            return Num(float(textval))
        if kind == "(":
            self.advance()
            e = self.sum()
            self.expect(")")
            return e
        if kind == "ident":
            self.advance()
            if textval in FUNCTIONS:
                self.expect("(")
                arg = self.sum()
                self.expect(")")
                return Unary(textval, arg)
            if textval in CONSTANTS:
                return Num(CONSTANTS[textval])
            if textval in self.variables:
                return Var(textval)
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
    # negative base: only integer exponents stay real
    if exponent != math.floor(exponent) or abs(exponent) > 1e15:
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


def _overflow(exc: OverflowError) -> DomainError:
    return DomainError(f"overflow during evaluation: {exc}")


def evaluate(e: Expr, bindings: Mapping[str, float]) -> float:
    """Evaluate in IEEE double precision.

    Raises DomainError for log or sqrt of an out of range argument, division
    by zero, impossible powers, and overflow in exp; raises UnboundVariable
    for a free variable missing from bindings.
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
        v = _eval(e.child, b)
        op = e.op
        if op == "neg":
            return -v
        if op == "exp":
            return math.exp(v)
        if op == "ln":
            if v <= 0.0:
                raise _ln_domain(v)
            return math.log(v)
        if op == "sin":
            return math.sin(v)
        if op == "cos":
            return math.cos(v)
        if op == "tan":
            return math.tan(v)
        if op == "atan":
            return math.atan(v)
        if op == "sqrt":
            if v < 0.0:
                raise _sqrt_domain(v)
            return math.sqrt(v)
        if op == "abs":
            return abs(v)
        if op == "sign":
            return _sign(v)
        raise ValueError(f"bad unary op {op!r}")
    l = _eval(e.left, b)
    r = _eval(e.right, b)
    op = e.op
    if op == "+":
        return l + r
    if op == "-":
        return l - r
    if op == "*":
        return l * r
    if op == "/":
        if r == 0.0:
            raise _division_by_zero()
        return l / r
    if op == "^":
        return _pow_checked(l, r)
    raise ValueError(f"bad binary op {op!r}")


# ---------------------------------------------------------------------------
# compilation
#
# compile() turns a tree into one Python function of positional arguments.
# It walks the tree in the order _eval visits it (child before parent, left
# before right) and emits one statement per operator node, t<k> = <op>, with
# a node's domain guard on the line before it; the first use of an argument
# coerces it with float() on a line of its own, as _eval does at every use.
# The generated code therefore does the same IEEE operations in the same
# order and raises the same errors at the same point, and a deep tree gives a
# long function, never deeply nested source.
#
# The source is assembled only from the fixed templates below and generated
# names: arguments a0, a1, ..., temporaries t0, t1, ..., and closure values
# k0, k1, ... bound to each Num's own value, so no number or variable name
# is ever spliced in as text.

_UNARY_TEMPLATES = {
    "neg": "-{0}",
    "exp": "_exp({0})",
    "sin": "_sin({0})",
    "cos": "_cos({0})",
    "tan": "_tan({0})",
    "atan": "_atan({0})",
    "abs": "abs({0})",
    "ln": "_log({0})",
    "sqrt": "_sqrt({0})",
    "sign": "1.0 if {0} > 0.0 else -1.0 if {0} < 0.0 else 0.0",
}
_BINARY_TEMPLATES = {
    "+": "{0} + {1}",
    "-": "{0} - {1}",
    "*": "{0} * {1}",
    "/": "{0} / {1}",
    "^": "_mpow({0}, {1}) if {0} > 0.0 else _pow_checked({0}, {1})",
}
# statements that run once the operands are known, before the operation
_GUARDS = {
    "ln": "if {0} <= 0.0: raise _ln_domain({0})",
    "sqrt": "if {0} < 0.0: raise _sqrt_domain({0})",
    "/": "if {1} == 0.0: raise _division_by_zero()",
}

_COMPILE_GLOBALS = {
    "_exp": math.exp, "_sin": math.sin, "_cos": math.cos, "_tan": math.tan,
    "_atan": math.atan, "_log": math.log, "_sqrt": math.sqrt, "_mpow": math.pow,
    "_pow_checked": _pow_checked, "_ln_domain": _ln_domain,
    "_sqrt_domain": _sqrt_domain, "_division_by_zero": _division_by_zero,
    "_unbound": _unbound, "_overflow": _overflow, "__builtins__": builtins,
}


def compile(e: Expr, args: Sequence[str]) -> Callable[..., float]:
    """A function of len(args) positional values that returns
    evaluate(e, dict(zip(args, values))) bit for bit and raises the same
    DomainError or UnboundVariable with the same message.

    A variable of e missing from args raises UnboundVariable when the
    evaluation reaches it, as in evaluate.
    """
    args = tuple(args)
    if len(set(args)) != len(args):
        raise ValueError(f"duplicate argument names in {args!r}")
    position = {name: i for i, name in enumerate(args)}
    consts: list[object] = []
    lines: list[str] = []
    coerced: set[int] = set()
    names: list[str] = []  # the name holding each evaluated operand

    def const(value: object) -> str:
        consts.append(value)
        return f"k{len(consts) - 1}"

    todo: list[tuple[Expr, bool]] = [(e, False)]
    while todo:
        node, expanded = todo.pop()
        if isinstance(node, Num):
            names.append(const(node.value))
        elif isinstance(node, Var):
            i = position.get(node.name)
            if i is None:
                lines.append(f"raise _unbound({const(node.name)})")
                names.append("None")
            else:
                if i not in coerced:
                    coerced.add(i)
                    lines.append(f"a{i} = float(a{i})")
                names.append(f"a{i}")
        elif not expanded:
            todo.append((node, True))
            if isinstance(node, Unary):
                todo.append((node.child, False))
            elif isinstance(node, Binary):
                todo.append((node.right, False))
                todo.append((node.left, False))
            else:
                raise TypeError(f"not an expression node: {node!r}")
        else:
            if isinstance(node, Unary):
                template, arity = _UNARY_TEMPLATES.get(node.op), 1
            else:
                template, arity = _BINARY_TEMPLATES.get(node.op), 2
            if template is None:
                kind = "unary" if arity == 1 else "binary"
                raise ValueError(f"bad {kind} op {node.op!r}")
            operands = names[-arity:]
            del names[-arity:]
            guard = _GUARDS.get(node.op)
            if guard is not None:
                lines.append(guard.format(*operands))
            target = f"t{len(lines)}"
            lines.append(f"{target} = {template.format(*operands)}")
            names.append(target)
    params = ", ".join(f"a{i}" for i in range(len(args)))
    cells = ", ".join(f"k{i}" for i in range(len(consts)))
    body = "".join(f"            {line}\n" for line in lines)
    source = (
        f"def _make({cells}):\n"
        f"    def compiled({params}):\n"
        f"        try:\n"
        f"{body}"
        f"            return {names[0]}\n"
        f"        except OverflowError as exc:\n"
        f"            raise _overflow(exc) from exc\n"
        f"    return compiled\n"
    )
    namespace: dict = {}
    exec(_bytecode(source), _COMPILE_GLOBALS, namespace)
    return namespace["_make"](*consts)


@functools.lru_cache(maxsize=1024)
def _bytecode(source: str) -> CodeType:
    # numbers are closure values, so the source depends on the tree's shape
    # only: systems rebuilt with new constants (a parameter sweep, a catalog
    # case at other parameters) reuse the bytecode
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
    """Raise ParameterDomainError("<message>, found [...]") if e uses others."""
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


def _add(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    return Binary("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_num(b, 0.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    if _is_num(a, 0.0):
        return _neg(b)
    return Binary("-", a, b)


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
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    return Binary("*", a, b)


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
        u = e.child
        du = differentiate(u, var)
        op = e.op
        if op == "neg":
            return _neg(du)
        if op == "exp":
            return _mul(Unary("exp", u), du)
        if op == "ln":
            return _div(du, u)
        if op == "sin":
            return _mul(Unary("cos", u), du)
        if op == "cos":
            return _neg(_mul(Unary("sin", u), du))
        if op == "tan":
            return _div(du, _pow(Unary("cos", u), Num(2.0)))
        if op == "atan":
            return _div(du, _add(_ONE, _pow(u, Num(2.0))))
        if op == "sqrt":
            return _div(du, _mul(Num(2.0), Unary("sqrt", u)))
        if op == "abs":
            return _mul(Unary("sign", u), du)
        if op == "sign":
            return _ZERO
        raise ValueError(f"bad unary op {op!r}")
    l, r = e.left, e.right
    dl = differentiate(l, var)
    dr = differentiate(r, var)
    op = e.op
    if op == "+":
        return _add(dl, dr)
    if op == "-":
        return _sub(dl, dr)
    if op == "*":
        return _add(_mul(dl, r), _mul(l, dr))
    if op == "/":
        return _div(_sub(_mul(dl, r), _mul(l, dr)), _pow(r, Num(2.0)))
    if op == "^":
        if is_constant(r):
            # d(u^c) = c*u^(c-1)*u'
            return _mul(_mul(r, _pow(l, _sub(r, _ONE))), dl)
        # general case via u^v * (v' ln u + v u'/u)
        return _mul(
            Binary("^", l, r),
            _add(_mul(dr, Unary("ln", l)), _mul(r, _div(dl, l))),
        )
    raise ValueError(f"bad binary op {op!r}")


def fold(e: Expr) -> Expr:
    """Collapse constant subtrees and unit identities where safe.

    Subtrees whose evaluation raises are left untouched, so folding never
    changes where an expression is defined.
    """
    if isinstance(e, (Num, Var)):
        return e
    if isinstance(e, Unary):
        c = fold(e.child)
        out: Expr = Unary(e.op, c) if c is not e.child else e
        if isinstance(c, Num):
            try:
                return Num(evaluate(out, {}))
            except DomainError:
                return out
        return out
    l = fold(e.left)
    r = fold(e.right)
    table = {"+": _add, "-": _sub, "*": _mul, "/": _div, "^": _pow}
    candidate = table[e.op](l, r)
    if isinstance(candidate, Binary) and isinstance(candidate.left, Num) and isinstance(candidate.right, Num):
        try:
            return Num(evaluate(candidate, {}))
        except DomainError:
            return candidate
    return candidate


# ---------------------------------------------------------------------------
# serialization

# precedence used by the printer; neg sits between '*' and '^' because the
# grammar applies a leading minus to a whole power but not to a product
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 2.5, "^": 3}
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
        return repr(e.value)
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
