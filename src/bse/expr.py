"""Arithmetic expressions in (x, y) for user-supplied source terms.

Precedence-climbing parser over ``+ - * / ^`` with right-associative ``^``
binding tighter than unary minus, so ``-2^2 == -4``.  Available names:
variables ``x``, ``y``, the derived ``r`` (distance from origin) and
``theta`` (atan2 angle in (-pi, pi]), constants ``pi``, ``e``, and the
unary functions sin, cos, exp, sqrt, abs, log.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError

VARIABLES = ("x", "y", "r", "theta")
CONSTANTS = {"pi": math.pi, "e": math.e}
FUNCTIONS = ("sin", "cos", "exp", "sqrt", "abs", "log")

_PREC_ADD = 10
_PREC_MUL = 20
_PREC_NEG = 30
_PREC_POW = 40
_BIN_PREC = {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL, "/": _PREC_MUL, "^": _PREC_POW}
MAX_NESTING = 100  # of operators and calls, and of parentheses; <= 2 stack frames a level


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Num | Name | Neg | Bin | Call

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}", offset=len(text) - len(rest))
        kind = m.lastgroup
        value = float(m.group(kind)) if kind == "num" else m.group(kind)
        tokens.append((kind, value, m.start(kind)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected):
        kind, value, offset = self.peek()
        got = "end of input" if kind == "end" else repr(value)
        raise ParseError(f"expected {expected}, got {got}", offset=offset)

    def parse(self):
        depth = 0
        for _, value, offset in self.tokens:  # parentheses, checked before they recurse
            depth += (value == "(") - (value == ")")
            self.nest(depth, offset)
        e, _ = self.expression(0, 1)
        if self.peek()[0] != "end":
            self.fail("operator or end of input")
        return e

    def nest(self, level, offset):
        if level > MAX_NESTING:
            raise ParseError(f"expression nests deeper than {MAX_NESTING} levels", offset=offset)
        return level

    def expression(self, min_prec, level):
        """The tree rooted at nesting ``level`` and its deepest level; parentheses add none."""
        left, reach = self.prefix(self.nest(level, self.peek()[2]))
        while True:
            kind, value, offset = self.peek()
            if kind != "op" or value not in "+-*/^":
                break
            prec = _BIN_PREC[value]
            if prec < min_prec:
                break
            self.advance()
            # right-associative ^ re-enters at its own level
            right, right_reach = self.expression(prec if value == "^" else prec + 1, level + 1)
            left, reach = Bin(value, left, right), self.nest(max(reach + 1, right_reach), offset)
        return left, reach

    def prefix(self, level):
        kind, value, offset = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            e, reach = self.expression(_PREC_NEG, level + 1)
            return Neg(e), reach
        if kind == "op" and value == "(":
            self.advance()
            e = self.expression(0, level)
            if self.peek()[:2] != ("op", ")"):
                self.fail("')' to close parenthesis")
            self.advance()
            return e
        if kind == "num":
            self.advance()
            return Num(value), level
        if kind == "ident":
            self.advance()
            if self.peek()[:2] == ("op", "("):
                if value not in FUNCTIONS:
                    raise ParseError(
                        f"unknown function {value!r} (expected one of {', '.join(FUNCTIONS)})",
                        offset=offset)
                self.advance()
                arg, reach = self.expression(0, level + 1)
                if self.peek()[:2] != ("op", ")"):
                    self.fail("')' to close function call")
                self.advance()
                return Call(value, arg), reach
            if value not in VARIABLES and value not in CONSTANTS:
                raise ParseError(
                    f"unknown name {value!r} (expected one of "
                    f"{', '.join(VARIABLES + tuple(CONSTANTS))})", offset=offset)
            return Name(value), level
        self.fail("number, name, '(' or '-'")


def parse(text: str) -> Expr:
    """Parse an expression string into an AST."""
    return _Parser(text).parse()


def _power(a, b):
    """``np.power``, with the shortcuts NumPy takes for a constant exponent of
    2, 0.5 or -1 (square, sqrt, reciprocal) applied point by point where the
    exponent varies, so that each value is what a one-point call gives."""
    out = np.power(a, b)
    if np.ndim(b):
        for value, shortcut in ((2.0, np.square), (0.5, np.sqrt), (-1.0, np.reciprocal)):
            hit = b == value
            out[hit] = shortcut(np.broadcast_to(a, out.shape)[hit])
    return out


_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": _power}
_UNARY = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt,
          "abs": np.abs, "log": np.log}


class _PointEnv(dict):
    """The value of every name at the points.  r and theta are computed on
    first use by ``math.hypot`` and ``math.atan2``: NumPy's ``hypot`` and
    ``arctan2`` round some points differently."""

    def __missing__(self, name):
        func, a, b = {"r": (math.hypot, "x", "y"), "theta": (math.atan2, "y", "x")}[name]
        value = np.array(list(map(func, self[a].tolist(), self[b].tolist())))
        if name == "theta":
            value[value == -math.pi] = math.pi
        self[name] = value
        return value


def _eval(e, env):
    """The AST over arrays: a node that depends on no variable stays a scalar."""
    if isinstance(e, Num):
        return np.float64(e.value)
    if isinstance(e, Name):
        return env[e.ident]
    if isinstance(e, Neg):
        return -_eval(e.operand, env)
    if isinstance(e, Bin):
        return _BINARY[e.op](_eval(e.left, env), _eval(e.right, env))
    if isinstance(e, Call):
        a = _eval(e.arg, env)
        if e.func in ("sqrt", "log"):
            negative = np.ravel(a)[np.ravel(a < 0.0)]
            if negative.size:
                raise DomainError(f"{e.func} of negative argument {float(negative[0])}")
        return _UNARY[e.func](a)
    raise TypeError(f"not an expression node: {e!r}")


def to_string(e: Expr) -> str:
    """Canonical rendering; parse(to_string(e)) reproduces the AST."""
    return _render(e, 0)


def _render(e, context_prec):
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Name):
        return e.ident
    if isinstance(e, Call):
        return f"{e.func}({_render(e.arg, 0)})"
    if isinstance(e, Neg):
        text = "-" + _render(e.operand, _PREC_NEG)
        return f"({text})" if context_prec > _PREC_NEG else text
    prec = _BIN_PREC[e.op]
    if e.op == "^":
        text = _render(e.left, prec + 1) + e.op + _render(e.right, prec)
    else:
        text = _render(e.left, prec) + e.op + _render(e.right, prec + 1)
    return f"({text})" if context_prec > prec else text


def eval_on_points(e: Expr, points) -> np.ndarray:
    """Values at an (n, 2) array of points, shape (n,).

    Raises DomainError if a log or sqrt argument is negative at any point;
    other IEEE special cases (division by zero, 0/0, fractional powers of
    negatives) follow double-precision semantics.  Blocks of 4096 points keep
    the temporaries small: with all refine-4 vertices at once, the solve
    that followed often peaked about 12 MB higher.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    constants = {name: np.float64(value) for name, value in CONSTANTS.items()}
    out = np.empty(len(points))
    with np.errstate(all="ignore"):
        for i in range(0, len(points), 4096):
            x, y = np.ascontiguousarray(points[i:i + 4096].T)
            out[i:i + 4096] = _eval(e, _PointEnv(constants, x=x, y=y))
    return out
