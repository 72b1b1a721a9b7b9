"""A small expression language for node controls, symmetric in same-type inputs.

Input states are reachable only through ``sum``/``mean`` aggregators over a
named type group, so every expressible control is invariant under
permutations of same-type inputs by construction.  Wherever the order of a
group's inputs could show in the bits, they are sorted by value before
summation, which makes that invariance exact in floating point, not just up
to roundoff.

Grammar sketch::

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | power
    power  := atom ("^" INT)?
    atom   := NUMBER | IDENT "[" INT "]" | FUNC "(" expr ")" | "(" expr ")"
            | ("sum" | "mean") "(" IDENT "in" "inputs" "[" TYPE "]" ")" "{" expr "}"

``x`` always refers to the root state; any other indexed identifier must be
bound by an enclosing aggregator.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import EvaluationFault, InputError, SignatureMismatch
from .graphs import PhaseSpace

FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
    "tanh": math.tanh,
}

KEYWORDS = {"sum", "mean", "in", "inputs"}

# Deepest nesting the parser accepts: parentheses, calls, aggregators and
# unary minus, and the height of the resulting AST.  It bounds the recursion
# of the parser, the evaluator and the printer well below Python's limit.
MAX_DEPTH = 100

# Most times one call may run the innermost body of an aggregator nest: the
# product of the group counts along the nest, which the signature fixes.
MAX_BODY_RUNS = 10**6

# Most digits an exponent or index literal may have.  Every exponent below
# 10**15 < 2**53 is exact as the float that Python and numpy raise to; a
# longer one can only overflow or vanish.  An index is held to the same count.
MAX_INT_DIGITS = 15

Pos = tuple[int, int]


class ExprSyntaxError(InputError):
    def __init__(self, message: str, pos: Pos):
        super().__init__(f"line {pos[0]}, column {pos[1]}: {message}")
        self.pos = pos


@dataclass(frozen=True)
class ControlSignature:
    """Root phase space plus the multiset of input phase spaces of a control."""

    root: PhaseSpace
    inputs: tuple[PhaseSpace, ...]

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(sorted(self.inputs, key=lambda s: s.name)))

    def groups(self) -> dict[str, tuple[int, int]]:
        """Input type groups: name -> (dim, count), in name order."""
        return dict(self._groups)

    @cached_property
    def _groups(self) -> dict[str, tuple[int, int]]:
        groups: dict[str, tuple[int, int]] = {}
        for s in self.inputs:  # in name order, and a name fixes the dim
            groups[s.name] = (s.dim, groups.get(s.name, (0, 0))[1] + 1)
        return groups

    @cached_property
    def group_index(self) -> dict[str, int]:
        """The position of each input type group, by name."""
        return {name: g for g, name in enumerate(self._groups)}


# --- AST -------------------------------------------------------------------
# Positions are carried for error reporting but excluded from equality so
# that parse(unparse(ast)) == ast holds.


class Expr:
    pass


@dataclass(frozen=True)
class Num(Expr):
    value: float
    pos: Pos = field(default=(1, 1), compare=False, repr=False)


@dataclass(frozen=True)
class RootRef(Expr):
    index: int
    pos: Pos = field(default=(1, 1), compare=False, repr=False)


@dataclass(frozen=True)
class InputRef(Expr):
    var: str
    index: int
    pos: Pos = field(default=(1, 1), compare=False, repr=False)


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr
    pos: Pos = field(default=(1, 1), compare=False, repr=False)


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr
    pos: Pos = field(default=(1, 1), compare=False, repr=False)


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr
    pos: Pos = field(default=(1, 1), compare=False, repr=False)


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int
    pos: Pos = field(default=(1, 1), compare=False, repr=False)


@dataclass(frozen=True)
class Aggregate(Expr):
    op: str  # "sum" | "mean"
    var: str
    group: str
    body: Expr
    pos: Pos = field(default=(1, 1), compare=False, repr=False)


# --- tokenizer -------------------------------------------------------------


class _Token(NamedTuple):
    kind: str  # "num" | "ident" | "op" | "end"
    text: str
    pos: Pos


# Blanks, then one group per token kind, tried in order, the commonest kind
# first (the kinds but "bad" begin with disjoint characters); every character
# after blanks matches one of them, and blanks at the end of the source match
# ``\Z``, so ``findall`` covers the source with one tuple of group texts per
# token, in which only the blanks and the token's own kind are non-empty.
# Identifiers and numbers are ASCII.
_TOKEN = re.compile(
    r"([ \t\r]*)(?:"
    r"([-+*/^()\[\]{}])"  # op
    r"|([A-Za-z_][A-Za-z0-9_]*)"  # ident
    r"|((?=\.?[0-9])[0-9.]+(?:[eE][+-]?[0-9]+)?)"  # num
    r"|(\n)"  # newline
    r"|(.)"  # bad
    r"|\Z)"
)


def _tokenize(src: str) -> list[_Token]:
    # each token is built by tuple.__new__, which skips the Python-level NamedTuple constructor
    new, token = tuple.__new__, _Token
    tokens: list[_Token] = []
    append = tokens.append
    line, col = 1, 1
    for blanks, op, ident, num, newline, bad in _TOKEN.findall(src):
        if blanks:
            col += len(blanks)
        if op:
            append(new(token, ("op", op, (line, col))))
            col += 1
        elif ident:
            append(new(token, ("ident", ident, (line, col))))
            col += len(ident)
        elif num:
            try:
                float(num)
            except ValueError:
                raise ExprSyntaxError(f"bad number literal {num!r}", (line, col)) from None
            append(new(token, ("num", num, (line, col))))
            col += len(num)
        elif newline:
            line, col = line + 1, 1
        elif bad:
            raise ExprSyntaxError(f"unexpected character {bad!r}", (line, col))
    append(new(token, ("end", "", (line, col))))
    return tokens


# --- parser ----------------------------------------------------------------


class _Parser:
    # ``tok`` is the current token; ``advance`` moves past it.  The parser
    # never advances past the "end" token, which matches no expected text.
    def __init__(self, src: str, signature: ControlSignature):
        self._next = iter(_tokenize(src)).__next__
        self.tok = self._next()
        self.signature = signature
        self.groups = signature._groups  # read only
        self.scope: list[tuple[str, str]] = []  # (var, group name)
        self.depth = 0

    def advance(self) -> _Token:
        tok = self.tok
        self.tok = self._next()
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.tok
        if tok.text != text:
            raise ExprSyntaxError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.pos)
        self.tok = self._next()
        return tok

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.tok
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return e

    def descend(self) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", self.tok.pos)

    def expr(self) -> Expr:
        self.descend()
        left = self.term()
        while self.tok.text in ("+", "-"):
            op = self.advance()
            right = self.term()
            left = BinOp(op.text, left, right, pos=op.pos)
        self.depth -= 1
        return left

    def term(self) -> Expr:
        left = self.factor()
        while self.tok.text in ("*", "/"):
            op = self.advance()
            right = self.factor()
            left = BinOp(op.text, left, right, pos=op.pos)
        return left

    def factor(self) -> Expr:
        tok = self.tok
        if tok.text == "-":
            self.advance()
            self.descend()
            arg = self.factor()
            self.depth -= 1
            return Neg(arg, pos=tok.pos)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.tok.text == "^":
            op = self.advance()
            sign = 1
            if self.tok.text == "-":
                self.advance()
                sign = -1
            tok = self.tok
            if tok.kind != "num" or not tok.text.isdigit():
                raise ExprSyntaxError("exponent must be an integer literal", tok.pos)
            if len(tok.text) > MAX_INT_DIGITS:
                raise ExprSyntaxError("exponent has too many digits", tok.pos)
            self.advance()
            return Pow(base, sign * int(tok.text), pos=op.pos)
        return base

    def atom(self) -> Expr:
        tok = self.tok
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text), pos=tok.pos)
        if tok.text == "(":
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        if tok.kind == "ident":
            if tok.text in ("sum", "mean"):
                return self.aggregate()
            if tok.text in FUNCTIONS:
                self.advance()
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(tok.text, arg, pos=tok.pos)
            return self.reference()
        raise ExprSyntaxError(f"expected an expression, found {tok.text or 'end of input'!r}", tok.pos)

    def reference(self) -> Expr:
        name_tok = self.advance()
        name = name_tok.text
        self.expect("[")
        idx_tok = self.tok
        if idx_tok.kind != "num" or not idx_tok.text.isdigit():
            raise ExprSyntaxError("index must be a non-negative integer", idx_tok.pos)
        if len(idx_tok.text) > MAX_INT_DIGITS:
            raise ExprSyntaxError("index has too many digits", idx_tok.pos)
        self.advance()
        index = int(idx_tok.text)
        self.expect("]")
        if name == "x":
            if index >= self.signature.root.dim:
                raise ExprSyntaxError(
                    f"x[{index}] out of range for root space {self.signature.root.name}", name_tok.pos
                )
            return RootRef(index, pos=name_tok.pos)
        for var, group in reversed(self.scope):
            if var == name:
                dim = self.groups[group][0]
                if index >= dim:
                    raise ExprSyntaxError(
                        f"{name}[{index}] out of range for input type {group}", name_tok.pos
                    )
                return InputRef(name, index, pos=name_tok.pos)
        raise ExprSyntaxError("input reference outside aggregator", name_tok.pos)

    def aggregate(self) -> Expr:
        op_tok = self.advance()
        self.expect("(")
        var_tok = self.tok
        if var_tok.kind != "ident" or var_tok.text in KEYWORDS or var_tok.text == "x" or var_tok.text in FUNCTIONS:
            raise ExprSyntaxError("expected a fresh aggregator variable name", var_tok.pos)
        self.advance()
        self.expect("in")
        self.expect("inputs")
        self.expect("[")
        group_tok = self.tok
        if group_tok.kind not in ("ident", "num"):
            raise ExprSyntaxError("expected an input type name", group_tok.pos)
        self.advance()
        group = group_tok.text
        if group not in self.groups:
            known = ", ".join(self.groups) or "none"
            raise ExprSyntaxError(
                f"type name mismatch: no input group {group!r} (signature has: {known})", group_tok.pos
            )
        self.expect("]")
        self.expect(")")
        self.expect("{")
        runs = math.prod(self.groups[g][1] for _, g in self.scope) * self.groups[group][1]
        if runs > MAX_BODY_RUNS:
            raise ExprSyntaxError(
                f"aggregator body would run {runs} times per call, more than {MAX_BODY_RUNS}", op_tok.pos
            )
        self.scope.append((var_tok.text, group))
        try:
            body = self.expr()
        finally:
            self.scope.pop()
        self.expect("}")
        return Aggregate(op_tok.text, var_tok.text, group, body, pos=op_tok.pos)


def _children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, BinOp):
        return (e.left, e.right)
    if isinstance(e, (Neg, Call)):
        return (e.arg,)
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, Aggregate):
        return (e.body,)
    return ()


def _check_height(e: Expr) -> None:
    """Reject ASTs taller than MAX_DEPTH, such as long operator chains; no recursion.

    The walk goes level by level and names the last node, left to right, of
    the first level too deep.
    """
    level = [e]
    for _ in range(MAX_DEPTH):
        level = [child for node in level for child in _children(node)]
        if not level:
            return
    raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", level[-1].pos)


def parse(src: str, signature: ControlSignature) -> Expr:
    """Parse and validate one output-component expression against a signature."""
    e = _Parser(src, signature).parse()
    _check_height(e)
    return e


@dataclass(frozen=True)
class ControlExpr:
    """A complete control: one component expression per root coordinate."""

    signature: ControlSignature
    components: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.components) != self.signature.root.dim:
            raise SignatureMismatch(
                f"{len(self.components)} components for root space {self.signature.root.name}"
            )
        for c in self.components:
            _check_height(c)

    def sources(self) -> tuple[str, ...]:
        return tuple(unparse(c) for c in self.components)


def parse_control(sources: Sequence[str] | str, signature: ControlSignature) -> ControlExpr:
    if isinstance(sources, str):
        sources = [sources]
    # ControlExpr checks the height of each component
    return ControlExpr(signature, tuple(_Parser(s, signature).parse() for s in sources))


# --- printing --------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4, "atom": 5}


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return _PREC["neg"]
    if isinstance(e, Pow):
        return _PREC["pow"]
    return _PREC["atom"]


def _wrap(e: Expr, parent_prec: int, *, strict: bool = False) -> str:
    s = unparse(e)
    p = _prec(e)
    if p < parent_prec or (strict and p == parent_prec):
        return f"({s})"
    return s


def unparse(e: Expr) -> str:
    """Render an AST back to source; parse(unparse(e)) == e."""
    if isinstance(e, Num):  # a literal is never negative; an overflowing one is +inf
        return "1e999" if e.value == math.inf else repr(e.value)
    if isinstance(e, RootRef):
        return f"x[{e.index}]"
    if isinstance(e, InputRef):
        return f"{e.var}[{e.index}]"
    if isinstance(e, Call):
        return f"{e.func}({unparse(e.arg)})"
    if isinstance(e, Neg):
        return f"-{_wrap(e.arg, _PREC['neg'])}"
    if isinstance(e, BinOp):
        # the grammar is left-associative, so a right child at equal
        # precedence must keep its parentheses
        left = _wrap(e.left, _PREC[e.op])
        right = _wrap(e.right, _PREC[e.op], strict=True)
        return f"{left} {e.op} {right}"
    if isinstance(e, Pow):
        return f"{_wrap(e.base, _PREC['pow'], strict=True)}^{e.exponent}"
    if isinstance(e, Aggregate):
        return f"{e.op}({e.var} in inputs[{e.group}]) {{ {unparse(e.body)} }}"
    raise TypeError(f"not an expression node: {e!r}")


# --- evaluation ------------------------------------------------------------
# A control compiles once into a batch kernel that evaluates it for m members
# at a time, each with a fixed number of inputs per type group: their root
# states as an (m, d_root) array and, per type group in signature order, their
# input states as an (m, count, dim) array.  The kernel returns one column per
# root coordinate: an (m,) array, or a float that every member shares.  Each
# member gets the bits a scalar evaluation would give.  ``+ - * /``, ``abs``
# and ``sqrt`` are exact IEEE operations in numpy as in Python.  ``sin`` and
# ``cos`` run as numpy ufuncs on finite input: the tests gate that numpy
# gives the bits of ``math.sin``/``math.cos`` at every position of an array.
# ``^``, ``tan``, ``exp``, ``log`` and ``tanh`` run elementwise through
# Python's ``**`` and ``math.*``: numpy's vectorised versions differ from
# them in the last bit, which would break the exact invariance and synchrony
# guarantees.  A kernel does not set numpy's error state; its callers run it
# under ``np.errstate(all="ignore")``, so overflow and NaN pass silently, as
# Python floats give them.

# One value per member, or a float shared by all of them.
_Value = np.ndarray | float
BatchKernel = Callable[[np.ndarray, Sequence[np.ndarray]], list[_Value]]
# A compiled AST node.  Its frame holds the root states, the group arrays
# (sorted where their order can show) and, per aggregator, the current input
# of every member.
_Node = Callable[[list], _Value]


def _space_name(t: PhaseSpace | str) -> str:
    return t if isinstance(t, str) else t.name


def as_state(value, dim: int, what: str) -> np.ndarray:
    """A state as a flat float vector, checked to have ``dim`` coordinates."""
    vec = np.asarray(value, dtype=float).reshape(-1)
    if vec.shape[0] != dim:
        raise SignatureMismatch(f"{what} has dimension {vec.shape[0]}, expected {dim}")
    return vec


def stack_columns(columns: Sequence[_Value], m: int) -> np.ndarray:
    """A kernel's columns as one (m, d_root) array; a float column is every member's value."""
    out = np.empty((m, len(columns)))
    for i, column in enumerate(columns):
        out[:, i] = column
    return out


def _at(e: Expr) -> str:
    return f"line {e.pos[0]}, column {e.pos[1]}"


def _map(fn: Callable[[float], float], v: _Value) -> _Value:
    """``fn`` applied to each member's float."""
    if isinstance(v, np.ndarray):
        return np.array(list(map(fn, v.tolist())), dtype=float)
    return fn(v)


def _elementwise(arg: _Node, fn: Callable[[float], float], checked: Callable[[float], float]) -> _Node:
    """``fn`` on each member's float; on a fault, ``checked`` reruns it to raise the fault or give ±inf."""

    def step(frame: list) -> _Value:
        v = arg(frame)
        try:
            return _map(fn, v)
        except (ValueError, OverflowError, ZeroDivisionError):
            return _map(checked, v)

    return step


def _canonical_order(values: np.ndarray) -> np.ndarray:
    """Each member's inputs sorted by value, coordinate by coordinate, ties in place.

    This is the order ``sorted(key=tolist)`` gives; -0.0 and 0.0 tie.  A NaN
    coordinate sorts last here, where Python's sort gives it no defined place.
    """
    m, count, dim = values.shape
    if count < 2:
        return values
    if dim == 1:
        return np.sort(values, axis=1, kind="stable")
    # lexsort is stable and its last key is the primary one
    order = np.lexsort([values[:, :, j] for j in reversed(range(dim))], axis=-1)
    return values[np.arange(m)[:, np.newaxis], order]


# A coordinate fold, ``sum(u in inputs[G]) { u[i] }`` or its ``mean``, adds one
# column of the group array.  Over two inputs it gives the same bits in either
# order, so a group that only such folds read is sorted only when it holds
# three or more inputs per member.  IEEE addition commutes, and the leading
# ``0.0 +`` turns -0.0 into 0.0 whichever term comes first.  A 1-dim group's
# stable sort swaps two inputs only when at most one is NaN, which then
# propagates either way; a group of higher dim can differ only in the payload
# of a NaN, on states where the tree walk's sort defines no order.


def _coordinate(e: Aggregate) -> int | None:
    """The coordinate ``i`` when the aggregate's body is ``u[i]`` of its own variable ``u``."""
    body = e.body
    return body.index if isinstance(body, InputRef) and body.var == e.var else None


def _groups_to_sort(components: Sequence[Expr], counts: Mapping[str, int]) -> set[str]:
    """The groups whose input order can show, so a kernel with these input ``counts`` sorts them.

    Those are the groups of three or more inputs, and the groups of two that
    some aggregate other than a coordinate fold reads.
    """
    groups = {name for name, count in counts.items() if count > 2}
    stack = list(components)
    while stack:
        e = stack.pop()
        if isinstance(e, Aggregate) and _coordinate(e) is None and counts[e.group] == 2:
            groups.add(e.group)
        stack.extend(_children(e))
    return groups


def _compile_call(e: Call, arg: _Node) -> _Node:
    if e.func == "abs":
        return lambda frame: abs(arg(frame))
    fn = FUNCTIONS[e.func]

    def checked(v: float) -> float:
        try:
            return float(fn(v))
        except ValueError as exc:
            raise EvaluationFault(f"{e.func} fault at {_at(e)}: {exc}") from None
        except OverflowError:
            return math.inf

    if e.func == "sqrt":

        def sqrt(frame: list) -> _Value:
            v = arg(frame)
            if isinstance(v, np.ndarray) and not (v < 0.0).any():
                return np.sqrt(v)
            return _map(checked, v)  # faults like math.sqrt on a negative

        return sqrt
    if e.func in ("sin", "cos"):
        ufunc = getattr(np, e.func)

        def periodic(frame: list) -> _Value:
            v = arg(frame)
            # a sum is finite only when every member is; it may also overflow, so check again then
            if isinstance(v, np.ndarray) and (math.isfinite(np.add.reduce(v)) or np.isfinite(v).all()):
                return ufunc(v)
            return _map(checked, v)  # faults like math.sin on ±inf, NaN stays NaN

        return periodic

    return _elementwise(arg, fn, checked)


def _compile_pow(e: Pow, base: _Node) -> _Node:
    k = e.exponent

    def checked(b: float) -> float:
        try:
            return float(b**k)
        except ZeroDivisionError:
            raise EvaluationFault(f"zero raised to a negative power at {_at(e)}") from None
        except OverflowError:  # propagate as inf, IEEE style; the integrator faults on it
            return -math.inf if (b < 0 and k % 2 == 1) else math.inf

    return _elementwise(base, lambda b: b**k, checked)


def _compile_divide(e: BinOp, left: _Node, right: _Node) -> _Node:
    def divide(frame: list) -> _Value:
        a, b = left(frame), right(frame)
        if (b == 0.0).any() if isinstance(b, np.ndarray) else b == 0.0:
            raise EvaluationFault(f"division by zero at {_at(e)}")
        return a / b

    return divide


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _empty_mean(e: Aggregate) -> _Node:
    """The ``mean`` of a group with no inputs: it faults at every call."""

    def fault(frame: list) -> _Value:
        raise EvaluationFault(f"mean of empty group at {_at(e)}")

    return fault


def _compile_aggregate(e: Aggregate, body: _Node, group: int, count: int, slot: int) -> _Node:
    mean, inputs = e.op == "mean", range(count)

    def aggregate(frame: list) -> _Value:
        values = frame[group]
        total: _Value = 0.0
        for k in inputs:  # in sequence, so each member sums in scalar order
            frame[slot] = values[:, k]
            total = total + body(frame)
        return total / count if mean else total

    return aggregate


def _compile_fold(e: Aggregate, group: int, count: int, i: int) -> _Node:
    """A coordinate fold: the sum or mean of column ``i`` of the group array, one input at a time."""
    mean, inputs = e.op == "mean", range(count)

    def fold(frame: list) -> _Value:
        values = frame[group]
        total: _Value = 0.0
        for k in inputs:  # in sequence, so each member sums in scalar order
            total = total + values[:, k, i]
        return total / count if mean else total

    return fold


def _compile(
    e: Expr, scope: Mapping[str, int], groups: Mapping[str, tuple[int, int]], slots: Iterator[int]
) -> _Node:
    """A batched closure for ``e``.

    ``scope`` maps aggregator variables to frame slots, and ``groups`` maps
    each group name to its frame slot and input count.
    """
    if isinstance(e, Num):
        value = e.value
        return lambda frame: value
    if isinstance(e, RootRef):
        i = e.index
        return lambda frame: frame[0][:, i]
    if isinstance(e, InputRef):
        if e.var not in scope:
            raise SignatureMismatch(f"{e.var}[{e.index}] outside an aggregator over {e.var!r} at {_at(e)}")
        slot, i = scope[e.var], e.index
        return lambda frame: frame[slot][:, i]
    if isinstance(e, Neg):
        arg = _compile(e.arg, scope, groups, slots)
        return lambda frame: -arg(frame)
    if isinstance(e, BinOp):
        left = _compile(e.left, scope, groups, slots)
        right = _compile(e.right, scope, groups, slots)
        if e.op == "/":
            return _compile_divide(e, left, right)
        op = _ARITHMETIC[e.op]
        return lambda frame: op(left(frame), right(frame))
    if isinstance(e, Pow):
        return _compile_pow(e, _compile(e.base, scope, groups, slots))
    if isinstance(e, Call):
        return _compile_call(e, _compile(e.arg, scope, groups, slots))
    if isinstance(e, Aggregate):
        if e.group not in groups:
            raise SignatureMismatch(f"no input group {e.group!r} in the signature at {_at(e)}")
        group, count = groups[e.group]
        if e.op == "mean" and not count:
            return _empty_mean(e)
        i = _coordinate(e)
        if i is not None:
            return _compile_fold(e, group, count, i)
        slot = next(slots)
        body = _compile(e.body, {**scope, e.var: slot}, groups, slots)
        return _compile_aggregate(e, body, group, count, slot)
    raise TypeError(f"not an expression node: {e!r}")


def compile_control(ctrl: ControlExpr, counts: Sequence[int]) -> BatchKernel:
    """Compile a control once into ``f(roots, groups) -> columns`` for m members at a time.

    ``counts`` holds the number of inputs per type group of the signature, in
    group order, that every call will pass: ``roots`` is (m, d_root) and
    ``groups`` holds one (m, count, dim) array per group.  The result holds
    one column per root coordinate: an (m,) array, or a float that every
    member shares.  The counts settle here, once, which groups each call sorts
    (see :func:`_groups_to_sort`), how many inputs each aggregate adds, and
    that a ``mean`` over an empty group faults.  Faults raise
    :class:`EvaluationFault`; when members fault at different places, the one
    named may differ from a member-by-member loop.  Call the kernel under
    ``np.errstate(all="ignore")``: it leaves numpy's error state to its
    caller, which enters it once around many calls.
    """
    names = list(ctrl.signature.groups())
    if len(counts) != len(names):
        raise SignatureMismatch(f"{len(counts)} input counts for the {len(names)} groups of the signature")
    groups = {name: (1 + g, count) for g, (name, count) in enumerate(zip(names, counts))}
    slots = itertools.count(1 + len(names))
    components = [_compile(c, {}, groups, slots) for c in ctrl.components]
    aggregator_slots = [None] * (next(slots) - 1 - len(names))
    to_sort = _groups_to_sort(ctrl.components, dict(zip(names, counts)))
    sort = [slot for name, (slot, _) in groups.items() if name in to_sort]
    canonical_order = _canonical_order

    def kernel(roots: np.ndarray, inputs: Sequence[np.ndarray]) -> list[_Value]:
        frame = [roots, *inputs, *aggregator_slots]
        for g in sort:
            frame[g] = canonical_order(frame[g])
        return [component(frame) for component in components]

    return kernel


def group_positions(signature: ControlSignature, types: Sequence[PhaseSpace | str]) -> list[list[int]]:
    """The input positions of each type group of the signature, in group order."""
    positions: dict[str, list[int]] = {name: [] for name in signature.groups()}
    for i, t in enumerate(types):
        name = _space_name(t)
        if name not in positions:
            raise SignatureMismatch(f"input of type {name} not in signature groups {sorted(positions)}")
        positions[name].append(i)
    return list(positions.values())


def member_groups(
    signature: ControlSignature, inputs: Sequence[tuple[PhaseSpace | str, np.ndarray]]
) -> list[np.ndarray]:
    """One member's typed input states as the (1, count, dim) group arrays of a kernel call."""
    names = [_space_name(t) for t, _ in inputs]
    positions = group_positions(signature, names)
    groups = signature.groups()
    states = [as_state(s, groups[n][0], f"input of type {n}") for n, (_, s) in zip(names, inputs)]
    return [
        np.array([states[i] for i in pos], dtype=float).reshape(1, len(pos), dim)
        for pos, (dim, _) in zip(positions, groups.values())
    ]


def evaluate(
    ctrl: ControlExpr, root: np.ndarray, inputs: Sequence[tuple[PhaseSpace | str, np.ndarray]]
) -> np.ndarray:
    """Evaluate a control at a root state and typed input states; returns the tangent vector."""
    root = as_state(root, ctrl.signature.root.dim, "root state")
    groups = member_groups(ctrl.signature, inputs)
    kernel = compile_control(ctrl, [g.shape[1] for g in groups])
    with np.errstate(all="ignore"):
        return stack_columns(kernel(root[np.newaxis], groups), 1)[0]


@dataclass(frozen=True)
class RawControl:
    """Escape hatch: an opaque evaluable on (root state, ordered labelled input states).

    The callable receives (label, state) pairs: unmoved, the edge ids it is
    bound to in slot order; moved by ``dynamics.ctrl_transport``, the labels of
    ``reads``, its (label, edge id read) pairs in label order, and it binds only
    to those edge ids.  Its groupoid invariance is only ever checked by sampling.
    """

    signature: ControlSignature
    fn: Callable[[np.ndarray, tuple[tuple[str, np.ndarray], ...]], np.ndarray]
    reads: tuple[tuple[str, str], ...] | None = None
