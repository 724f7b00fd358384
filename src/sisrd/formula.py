"""Small arithmetic language for coefficient and initial-data formulas.

Formulas are plain strings such as ``"3+2*sin(pi*x)*sin(pi*y)"`` or a
piecewise table over one variable::

    piecewise(x; 0: 0.5+0.4*x^2; 0.25: 0.5; else: 0.5+1.6*(x-0.625)^2)

Supported pieces:

* finite literals, the constant ``pi``, spatial variables ``x`` and ``y``
* ``+ - * / ^`` with the usual precedence; ``^`` is right-associative and
  binds tighter than unary minus
* functions ``sin cos exp sqrt abs pos`` (one argument) and ``min max``
  (two arguments); ``pos(u)`` is the positive part ``max(u, 0)``
* ``piecewise(var; t1: e1; ...; else: eN)`` -- branches are tried in
  order and the first with ``var <= t`` wins, thresholds define
  half-open cells, ``else`` catches the rest

Parsing produces a small immutable AST whose operator and call nodes keep
the source text they were parsed from.  Each operator and function is
named once, in ``_OPERATORS`` and ``_FUNCTIONS``, which map it to the
numpy function that evaluates it (``_FUNCTIONS`` also gives the arity the
parser checks).  Evaluation is vectorized over numpy arrays under one
rule: every operator or call whose value is not finite at every node
raises :class:`FormulaDomainError` quoting that sub-expression as written.
Division by zero, overflow, the square root of a negative number and a
fractional power of a negative base all fail this way instead of emitting
NaNs or infinities.  A literal past the float range is a syntax error.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
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
    "evaluate",
    "free_variables",
]

_OPERATORS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}

_FUNCTIONS = {  # name -> (arity, numpy function)
    "sin": (1, np.sin), "cos": (1, np.cos), "exp": (1, np.exp), "sqrt": (1, np.sqrt),
    "abs": (1, np.abs), "pos": (1, lambda u: np.maximum(u, 0.0)),
    "min": (2, np.minimum), "max": (2, np.maximum),
}


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
    """Evaluation gave a non-finite value; quotes the offending sub-expression."""


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
    op: str  # a key of _OPERATORS
    left: "Expr"
    right: "Expr"
    text: str = field(default="", compare=False)  # source slice, quoted in errors


@dataclass(frozen=True)
class Call:
    func: str  # a key of _FUNCTIONS
    args: tuple["Expr", ...]
    text: str = field(default="", compare=False)  # source slice, quoted in errors


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

    def source(self, start: int) -> str:
        """The source text from ``start`` to the end of the last token read."""
        last = self.tokens[self.i - 1]
        return self.src[start : last.offset + len(last.text)]

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
        start = self.peek().offset
        e = self.term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            e = BinOp(op, e, self.term(), self.source(start))
        return e

    def term(self) -> Expr:
        start = self.peek().offset
        e = self.factor()
        while self.peek().text in ("*", "/"):
            op = self.next().text
            e = BinOp(op, e, self.factor(), self.source(start))
        return e

    def factor(self) -> Expr:
        if self.peek().text == "-":
            self.next()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        start = self.peek().offset
        base = self.atom()
        if self.peek().text == "^":
            self.next()
            return BinOp("^", base, self.factor(), self.source(start))  # right-associative
        return base

    def atom(self) -> Expr:
        tok = self.next()
        if tok.kind == "num":
            value = float(tok.text)
            if not math.isfinite(value):
                raise FormulaSyntaxError(f"literal {tok.text!r} is past the float range", tok.offset)
            return Num(value)
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
            arity = _FUNCTIONS[name][0]
            if len(args) != arity:
                raise FormulaSyntaxError(
                    f"{name} takes {arity} argument(s), got {len(args)}", tok.offset
                )
            return Call(name, tuple(args), self.source(tok.offset))
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


def free_variables(e: Expr) -> set[str]:
    """Spatial variables referenced by the expression."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Neg):
        return free_variables(e.operand)
    if isinstance(e, BinOp):
        return free_variables(e.left) | free_variables(e.right)
    if isinstance(e, Call):
        return set().union(*map(free_variables, e.args))
    if isinstance(e, Piecewise):
        parts = [e.otherwise, *(part for branch in e.branches for part in branch)]
        return {e.var}.union(*map(free_variables, parts))
    return set()


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate(e: Expr, env: dict[str, "np.ndarray | float"]):
    """Evaluate over an environment of scalars or same-length numpy arrays.

    Returns a float for scalar input, else an ndarray.  An operator or call
    whose value is not finite raises :class:`FormulaDomainError` quoting
    that sub-expression as the formula text wrote it.
    """
    arrays = {k: np.asarray(v, dtype=float) for k, v in env.items()}
    shapes = [a.shape for a in arrays.values() if a.shape]
    scalar = not shapes
    if scalar:
        arrays = {k: a.reshape(1) for k, a in arrays.items()}
    with np.errstate(all="ignore"):  # a non-finite value raises instead
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


def _finite(value: np.ndarray, e: "BinOp | Call") -> np.ndarray:
    if not np.isfinite(value).all():
        raise FormulaDomainError(f"{e.text!r} does not evaluate to a finite real number")
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
        return _finite(_OPERATORS[e.op](_eval(e.left, env), _eval(e.right, env)), e)
    if isinstance(e, Call):
        return _finite(_FUNCTIONS[e.func][1](*(_eval(a, env) for a in e.args)), e)
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
