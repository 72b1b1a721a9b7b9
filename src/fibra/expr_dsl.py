"""A small expression language for node controls, symmetric in same-type inputs.

Input states are reachable only through ``sum``/``mean`` aggregators over a
named type group, so every expressible control is invariant under
permutations of same-type inputs by construction.  Aggregation order is
canonicalized (input vectors sorted by value) before summation, which makes
that invariance exact in floating point, not just up to roundoff.

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
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Mapping, Sequence

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
        counts = Counter(s.name for s in self.inputs)
        dims = {s.name: s.dim for s in self.inputs}
        return {name: (dims[name], counts[name]) for name in sorted(counts)}


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


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "ident" | "op" | "end"
    text: str
    pos: Pos


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        pos = (line, col)
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            text = src[i:j]
            try:
                float(text)
            except ValueError:
                raise ExprSyntaxError(f"bad number literal {text!r}", pos) from None
            tokens.append(_Token("num", text, pos))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("ident", src[i:j], pos))
            col += j - i
            i = j
            continue
        if c in "+-*/^()[]{}":
            tokens.append(_Token("op", c, pos))
            i += 1
            col += 1
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", pos)
    tokens.append(_Token("end", "", (line, col)))
    return tokens


# --- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, src: str, signature: ControlSignature):
        self.tokens = _tokenize(src)
        self.k = 0
        self.signature = signature
        self.groups = signature.groups()
        self.scope: list[tuple[str, str]] = []  # (var, group name)
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def advance(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text:
            raise ExprSyntaxError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {tok.text!r}", tok.pos)
        _check_height(e)
        return e

    def descend(self) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", self.peek().pos)

    def expr(self) -> Expr:
        self.descend()
        left = self.term()
        while self.peek().text in ("+", "-"):
            op = self.advance()
            right = self.term()
            left = BinOp(op.text, left, right, pos=op.pos)
        self.depth -= 1
        return left

    def term(self) -> Expr:
        left = self.factor()
        while self.peek().text in ("*", "/"):
            op = self.advance()
            right = self.factor()
            left = BinOp(op.text, left, right, pos=op.pos)
        return left

    def factor(self) -> Expr:
        tok = self.peek()
        if tok.text == "-":
            self.advance()
            self.descend()
            arg = self.factor()
            self.depth -= 1
            return Neg(arg, pos=tok.pos)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek().text == "^":
            op = self.advance()
            sign = 1
            if self.peek().text == "-":
                self.advance()
                sign = -1
            tok = self.peek()
            if tok.kind != "num" or not tok.text.isdigit():
                raise ExprSyntaxError("exponent must be an integer literal", tok.pos)
            self.advance()
            return Pow(base, sign * int(tok.text), pos=op.pos)
        return base

    def atom(self) -> Expr:
        tok = self.peek()
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
        idx_tok = self.peek()
        if idx_tok.kind != "num" or not idx_tok.text.isdigit():
            raise ExprSyntaxError("index must be a non-negative integer", idx_tok.pos)
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
        var_tok = self.peek()
        if var_tok.kind != "ident" or var_tok.text in KEYWORDS or var_tok.text == "x" or var_tok.text in FUNCTIONS:
            raise ExprSyntaxError("expected a fresh aggregator variable name", var_tok.pos)
        self.advance()
        in_tok = self.peek()
        if in_tok.text != "in":
            raise ExprSyntaxError(f"expected 'in', found {in_tok.text!r}", in_tok.pos)
        self.advance()
        inputs_tok = self.peek()
        if inputs_tok.text != "inputs":
            raise ExprSyntaxError(f"expected 'inputs', found {inputs_tok.text!r}", inputs_tok.pos)
        self.advance()
        self.expect("[")
        group_tok = self.peek()
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
    """Reject ASTs taller than MAX_DEPTH, such as long operator chains; no recursion."""
    stack = [(e, 1)]
    while stack:
        node, height = stack.pop()
        if height > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", node.pos)
        stack.extend((child, height + 1) for child in _children(node))


def parse(src: str, signature: ControlSignature) -> Expr:
    """Parse and validate one output-component expression against a signature."""
    return _Parser(src, signature).parse()


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
    return ControlExpr(signature, tuple(parse(s, signature) for s in sources))


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
    if isinstance(e, Num):
        return repr(e.value)
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
# at a time: their root states as an (m, d_root) array and, per type group in
# signature order, their input states as an (m, count, dim) array.  Each
# member gets the bits a scalar evaluation would give.  ``+ - * /``, ``abs``
# and ``sqrt`` are exact IEEE operations in numpy as in Python.  ``^`` and the
# other functions run elementwise through Python's ``**`` and ``math.*``:
# numpy's vectorised versions may differ from them in the last bit, which
# would break the exact invariance and synchrony guarantees.

Kernel = Callable[[np.ndarray, Sequence[np.ndarray]], np.ndarray]
BatchKernel = Callable[[np.ndarray, Sequence[np.ndarray]], np.ndarray]

# One value per member, or a float shared by all of them.
_Value = np.ndarray | float
# A compiled AST node.  Its frame holds the root states, the sorted group
# arrays and, per aggregator, the current input of every member.
_Node = Callable[[list], _Value]


def _space_name(t: PhaseSpace | str) -> str:
    return t if isinstance(t, str) else t.name


def as_state(value, dim: int, what: str) -> np.ndarray:
    """A state as a flat float vector, checked to have ``dim`` coordinates."""
    vec = np.asarray(value, dtype=float).reshape(-1)
    if vec.shape[0] != dim:
        raise SignatureMismatch(f"{what} has dimension {vec.shape[0]}, expected {dim}")
    return vec


def _at(e: Expr) -> str:
    return f"line {e.pos[0]}, column {e.pos[1]}"


def _map(fn: Callable[[float], float], v: _Value) -> _Value:
    """``fn`` applied to each member's float."""
    if isinstance(v, np.ndarray):
        return np.array(list(map(fn, v.tolist())), dtype=float)
    return fn(v)


def _canonical_order(values: np.ndarray) -> np.ndarray:
    """Each member's inputs sorted by value, coordinate by coordinate, ties in place.

    This is the order ``sorted(key=tolist)`` gives; -0.0 and 0.0 tie.  A NaN
    coordinate sorts last here, where Python's sort gives it no defined place.
    """
    if values.shape[1] < 2:
        return values
    m, _, dim = values.shape
    if dim == 1:
        order = np.argsort(values[:, :, 0], axis=1, kind="stable")
    else:  # lexsort's last key is the primary one
        order = np.lexsort([values[:, :, j] for j in reversed(range(dim))], axis=-1)
    return values[np.arange(m)[:, np.newaxis], order]


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

    def call(frame: list) -> _Value:
        v = arg(frame)
        try:
            return _map(fn, v)
        except (ValueError, OverflowError):
            return _map(checked, v)

    return call


def _compile_pow(e: Pow, base: _Node) -> _Node:
    k = e.exponent

    def checked(b: float) -> float:
        try:
            return float(b**k)
        except ZeroDivisionError:
            raise EvaluationFault(f"zero raised to a negative power at {_at(e)}") from None
        except OverflowError:  # propagate as inf, IEEE style; the integrator faults on it
            return -math.inf if (b < 0 and k % 2 == 1) else math.inf

    def power(frame: list) -> _Value:
        v = base(frame)
        try:
            return _map(lambda b: b**k, v)
        except (ZeroDivisionError, OverflowError):
            return _map(checked, v)

    return power


def _compile_divide(e: BinOp, left: _Node, right: _Node) -> _Node:
    def divide(frame: list) -> _Value:
        a, b = left(frame), right(frame)
        if (b == 0.0).any() if isinstance(b, np.ndarray) else b == 0.0:
            raise EvaluationFault(f"division by zero at {_at(e)}")
        return a / b

    return divide


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _compile_aggregate(e: Aggregate, body: _Node, group: int, slot: int) -> _Node:
    def aggregate(frame: list) -> _Value:
        values = frame[group]
        count = values.shape[1]
        if e.op == "mean" and not count:
            raise EvaluationFault(f"mean of empty group at {_at(e)}")
        total: _Value = 0.0
        for k in range(count):  # in sequence, so each member sums in scalar order
            frame[slot] = values[:, k]
            total = total + body(frame)
        return total / count if e.op == "mean" else total

    return aggregate


def _compile(e: Expr, scope: Mapping[str, int], groups: Mapping[str, int], slots: Iterator[int]) -> _Node:
    """A batched closure for ``e``; ``scope`` maps aggregator variables to frame slots."""
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
        slot = next(slots)
        body = _compile(e.body, {**scope, e.var: slot}, groups, slots)
        return _compile_aggregate(e, body, groups[e.group], slot)
    raise TypeError(f"not an expression node: {e!r}")


def compile_control(ctrl: ControlExpr) -> BatchKernel:
    """Compile a control once into ``f(roots, groups) -> tangents`` for m members.

    ``roots`` is (m, d_root) and ``groups`` holds one (m, count, dim) array
    per type group of the signature, in group order; the result is
    (m, d_root).  Faults raise :class:`EvaluationFault`; when members fault at
    different places, the one named may differ from a member-by-member loop.
    """
    names = list(ctrl.signature.groups())
    groups = {name: 1 + g for g, name in enumerate(names)}
    slots = itertools.count(1 + len(names))
    components = [_compile(c, {}, groups, slots) for c in ctrl.components]
    aggregator_slots = [None] * (next(slots) - 1 - len(names))

    def kernel(roots: np.ndarray, inputs: Sequence[np.ndarray]) -> np.ndarray:
        frame = [roots, *map(_canonical_order, inputs), *aggregator_slots]
        out = np.empty((roots.shape[0], len(components)))
        with np.errstate(all="ignore"):  # IEEE overflow and NaN, as Python floats give them
            for i, component in enumerate(components):
                out[:, i] = component(frame)
        return out

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


def bind(ctrl: ControlExpr, types: Sequence[PhaseSpace | str]) -> Kernel:
    """Match input positions to the control's type groups once; returns ``f(root, states)``.

    The kernel takes flat states of the signature's dimensions unchecked and
    runs the compiled control as a batch of one.
    """
    positions = group_positions(ctrl.signature, types)
    dims = [dim for dim, _ in ctrl.signature.groups().values()]
    run = compile_control(ctrl)

    def kernel(root: np.ndarray, states: Sequence[np.ndarray]) -> np.ndarray:
        inputs = [
            np.array([states[i] for i in pos], dtype=float).reshape(1, len(pos), dim)
            for pos, dim in zip(positions, dims)
        ]
        return run(np.reshape(root, (1, -1)), inputs)[0]

    return kernel


def evaluate(
    ctrl: ControlExpr, root: np.ndarray, inputs: Sequence[tuple[PhaseSpace | str, np.ndarray]]
) -> np.ndarray:
    """Evaluate a control at a root state and typed input states; returns the tangent vector."""
    root = as_state(root, ctrl.signature.root.dim, "root state")
    names = [_space_name(t) for t, _ in inputs]
    kernel = bind(ctrl, names)
    groups = ctrl.signature.groups()
    return kernel(root, [as_state(s, groups[n][0], f"input of type {n}") for n, (_, s) in zip(names, inputs)])


@dataclass(frozen=True)
class RawControl:
    """Escape hatch: an opaque evaluable on (root state, ordered labelled input states).

    The callable receives the input states as (leaf edge id, state) pairs in
    edge-id lexicographic order, the canonical leaf order of the tree the
    control is bound to.  Its groupoid invariance is only ever checked by
    sampling.
    """

    signature: ControlSignature
    fn: Callable[[np.ndarray, tuple[tuple[str, np.ndarray], ...]], np.ndarray]
    invariance: str = "unchecked"  # "claimed" | "unchecked"

    def __post_init__(self):
        if self.invariance not in ("claimed", "unchecked"):
            raise ValueError("invariance must be 'claimed' or 'unchecked'")
