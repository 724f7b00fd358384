"""Small arithmetic language for coefficient and initial-data formulas.

Formulas are plain strings such as ``"3+2*sin(pi*x)*sin(pi*y)"`` or a
piecewise table over one variable::

    piecewise(x; 0: 0.5+0.4*x^2; 0.25: 0.5; else: 0.5+1.6*(x-0.625)^2)

Supported pieces:

* literals, the constant ``pi``, spatial variables ``x`` and ``y``
* ``+ - * / ^`` with the usual precedence; ``^`` is right-associative and
  binds tighter than unary minus
* functions ``sin cos exp sqrt abs pos`` (one argument) and ``min max``
  (two arguments); ``pos(u)`` is the positive part ``max(u, 0)``
* ``piecewise(var; t1: e1; ...; else: eN)`` -- branches are tried in
  order and the first with ``var <= t`` wins, thresholds define
  half-open cells, ``else`` catches the rest

Parsing produces a small immutable AST; ``pretty`` turns it back into a
canonical string such that parse/pretty/parse is the identity on trees.
Evaluation is vectorized over numpy arrays and fails loudly on domain
errors (division by zero, square root of a negative number, fractional
power of a negative base) instead of emitting NaNs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "FormulaError",
    "FormulaSyntaxError",
    "UnknownIdentifierError",
    "FormulaDomainError",
    "Num",
    "Pi",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "Piecewise",
    "parse",
    "pretty",
    "evaluate",
    "free_variables",
]

_FUNCTIONS = {"sin": 1, "cos": 1, "exp": 1, "sqrt": 1, "abs": 1, "pos": 1, "min": 2, "max": 2}


class FormulaError(ValueError):
    """Base class for formula parsing and evaluation failures."""


class FormulaSyntaxError(FormulaError):
    """Malformed formula text; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifierError(FormulaError):
    """Identifier that is not a variable, constant, or known function."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier {name!r} (offset {offset})")
        self.name = name
        self.offset = offset


class FormulaDomainError(FormulaError):
    """Evaluation left the real domain; names the offending sub-expression."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Pi:
    pass


@dataclass(frozen=True)
class Var:
    name: str  # "x" or "y"


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Expr", ...]


@dataclass(frozen=True)
class Piecewise:
    var: str
    branches: tuple[tuple["Expr", "Expr"], ...]  # (threshold, value) pairs
    otherwise: "Expr"


Expr = Union[Num, Pi, Var, Neg, BinOp, Call, Piecewise]


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>[-+*/^();:,]))"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "ident" | "sym" | "end"
    text: str
    offset: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            bad = len(src) - len(stripped)
            raise FormulaSyntaxError(f"unexpected character {src[bad]!r}", bad)
        for kind in ("num", "ident", "sym"):
            text = m.group(kind)
            if text is not None:
                tokens.append(_Token(kind, text, m.start(kind)))
                break
        pos = m.end()
    tokens.append(_Token("end", "", len(src)))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent)
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise FormulaSyntaxError(f"expected {text!r}", tok.offset)
        return tok

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise FormulaSyntaxError(f"unexpected trailing input {tok.text!r}", tok.offset)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            e = BinOp(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek().text in ("*", "/"):
            op = self.next().text
            e = BinOp(op, e, self.factor())
        return e

    def factor(self) -> Expr:
        if self.peek().text == "-":
            self.next()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek().text == "^":
            self.next()
            return BinOp("^", base, self.factor())  # right-associative
        return base

    def atom(self) -> Expr:
        tok = self.next()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.text == "(":
            e = self.expr()
            self.expect(")")
            return e
        if tok.kind == "ident":
            return self.identifier(tok)
        raise FormulaSyntaxError("expected a value", tok.offset)

    def identifier(self, tok: _Token) -> Expr:
        name = tok.text
        if name == "pi":
            return Pi()
        if name in ("x", "y"):
            return Var(name)
        if name == "piecewise":
            return self.piecewise()
        if name in _FUNCTIONS:
            self.expect("(")
            args = [self.expr()]
            while self.peek().text == ",":
                self.next()
                args.append(self.expr())
            self.expect(")")
            if len(args) != _FUNCTIONS[name]:
                raise FormulaSyntaxError(
                    f"{name} takes {_FUNCTIONS[name]} argument(s), got {len(args)}", tok.offset
                )
            return Call(name, tuple(args))
        raise UnknownIdentifierError(name, tok.offset)

    def piecewise(self) -> Expr:
        self.expect("(")
        var_tok = self.next()
        if var_tok.text not in ("x", "y"):
            raise FormulaSyntaxError("piecewise variable must be x or y", var_tok.offset)
        self.expect(";")
        branches: list[tuple[Expr, Expr]] = []
        while self.peek().text != "else":
            threshold = self.expr()
            self.expect(":")
            value = self.expr()
            branches.append((threshold, value))
            self.expect(";")
        self.next()
        self.expect(":")
        otherwise = self.expr()
        self.expect(")")
        return Piecewise(var_tok.text, tuple(branches), otherwise)


def parse(src: str) -> Expr:
    """Parse formula text into an AST, raising on the first fault."""
    return _Parser(src).parse()


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return _PREC["neg"]
    return 9


def pretty(e: Expr) -> str:
    """Render an AST as canonical text; re-parsing gives the same tree."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Pi):
        return "pi"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = pretty(e.operand)
        if _prec(e.operand) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, BinOp):
        lp, rp = _prec(e.left), _prec(e.right)
        left, right = pretty(e.left), pretty(e.right)
        if e.op == "^":
            # right-associative, and tighter than unary minus
            if lp <= _PREC["^"]:
                left = f"({left})"
            if rp < _PREC["^"]:
                right = f"({right})"
        else:
            if lp < _PREC[e.op]:
                left = f"({left})"
            # left-associative: an equal-precedence right operand keeps its
            # parentheses, since x+(y+z) and (x+y)+z round differently
            if rp <= _PREC[e.op]:
                right = f"({right})"
        return f"{left}{e.op}{right}"
    if isinstance(e, Call):
        return f"{e.func}({', '.join(pretty(a) for a in e.args)})"
    if isinstance(e, Piecewise):
        parts = [e.var]
        for threshold, value in e.branches:
            parts.append(f"{pretty(threshold)}: {pretty(value)}")
        parts.append(f"else: {pretty(e.otherwise)}")
        return f"piecewise({'; '.join(parts)})"
    raise TypeError(f"not a formula node: {e!r}")


def free_variables(e: Expr) -> set[str]:
    """Spatial variables referenced by the expression."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Neg):
        return free_variables(e.operand)
    if isinstance(e, BinOp):
        return free_variables(e.left) | free_variables(e.right)
    if isinstance(e, Call):
        out: set[str] = set()
        for a in e.args:
            out |= free_variables(a)
        return out
    if isinstance(e, Piecewise):
        out = {e.var}
        for threshold, value in e.branches:
            out |= free_variables(threshold) | free_variables(value)
        return out | free_variables(e.otherwise)
    return set()


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate(e: Expr, env: dict[str, "np.ndarray | float"]):
    """Evaluate over an environment of scalars or same-length numpy arrays.

    Returns a float for scalar input, else an ndarray.  Domain faults raise
    :class:`FormulaDomainError` naming the offending sub-expression.
    """
    arrays = {k: np.asarray(v, dtype=float) for k, v in env.items()}
    shapes = [a.shape for a in arrays.values() if a.shape]
    scalar = not shapes
    if scalar:
        arrays = {k: a.reshape(1) for k, a in arrays.items()}
    out = _eval(e, arrays)
    if scalar:
        return float(np.asarray(out).reshape(-1)[0])
    return out


def _broadcast(value, like: dict[str, np.ndarray]) -> np.ndarray:
    value = np.asarray(value, dtype=float)
    if value.shape == () and like:
        n = len(next(iter(like.values())))
        return np.full(n, float(value))
    return value


def _eval(e: Expr, env: dict[str, np.ndarray]) -> np.ndarray:
    if isinstance(e, Num):
        return _broadcast(e.value, env)
    if isinstance(e, Pi):
        return _broadcast(np.pi, env)
    if isinstance(e, Var):
        if e.name not in env:
            raise FormulaDomainError(f"variable {e.name!r} is not available here")
        return env[e.name]
    if isinstance(e, Neg):
        return -_eval(e.operand, env)
    if isinstance(e, BinOp):
        left = _eval(e.left, env)
        right = _eval(e.right, env)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        if e.op == "/":
            if np.any(right == 0.0):
                raise FormulaDomainError(f"division by zero in {pretty(e)!r}")
            return left / right
        if e.op == "^":
            neg_base = left < 0
            if np.any(neg_base & (right != np.floor(right))):
                raise FormulaDomainError(
                    f"fractional power of a negative base in {pretty(e)!r}"
                )
            if np.any((left == 0.0) & (right < 0)):
                raise FormulaDomainError(f"zero raised to a negative power in {pretty(e)!r}")
            return np.power(left, right)
        raise TypeError(f"unknown operator {e.op!r}")  # pragma: no cover
    if isinstance(e, Call):
        args = [_eval(a, env) for a in e.args]
        if e.func == "sqrt":
            if np.any(args[0] < 0):
                raise FormulaDomainError(f"square root of a negative value in {pretty(e)!r}")
            return np.sqrt(args[0])
        if e.func == "sin":
            return np.sin(args[0])
        if e.func == "cos":
            return np.cos(args[0])
        if e.func == "exp":
            return np.exp(args[0])
        if e.func == "abs":
            return np.abs(args[0])
        if e.func == "pos":
            return np.maximum(args[0], 0.0)
        if e.func == "min":
            return np.minimum(args[0], args[1])
        if e.func == "max":
            return np.maximum(args[0], args[1])
        raise TypeError(f"unknown function {e.func!r}")  # pragma: no cover
    if isinstance(e, Piecewise):
        if e.var not in env:
            raise FormulaDomainError(f"variable {e.var!r} is not available here")
        var = env[e.var]
        out = np.empty_like(var)
        remaining = np.ones(var.shape, dtype=bool)
        for threshold, value in e.branches:
            thr = _eval(threshold, env)
            selected = remaining & (var <= thr)
            if np.any(selected):
                sub = {k: v[selected] for k, v in env.items()}
                out[selected] = _eval(value, sub)
                remaining &= ~selected
        if np.any(remaining):
            sub = {k: v[remaining] for k, v in env.items()}
            out[remaining] = _eval(e.otherwise, sub)
        return out
    raise TypeError(f"not a formula node: {e!r}")  # pragma: no cover
