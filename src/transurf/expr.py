"""Expression trees for the non-polynomial generators f(u) and g(v).

Small closed language: exact rational constants, the variables u and v, the
four arithmetic operations, powers with exact rational exponents, and the
functions sin, cos, tan, exp, log, sqrt, abs.  Trees are immutable, support
exact symbolic differentiation (closed under it, to any order), evaluate to
floats with explicit domain errors, and convert to exact polynomials when
they happen to be polynomial.

Grammar accepted by :func:`parse_expr`::

    expr     := ['-'] term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := base ['^' exponent]
    base     := number | 'u' | 'v' | func '(' expr ')' | '(' expr ')'
    exponent := ['-'] integer | '(' ['-'] integer ['/' integer] ')'

Numbers are decimal literals; exact rationals are written as quotients,
e.g. ``3/2`` or ``u^(4/3)``.

Input is bounded: a tree deeper than ``MAX_DEPTH`` is a parse error, and
:func:`expr_to_poly` refuses a power or product past ``MAX_DEGREE`` or
``MAX_COEFFICIENT_BITS`` before expanding it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .poly import Poly2

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs")

MAX_DEPTH = 50
MAX_DEGREE = 100
MAX_COEFFICIENT_BITS = 10_000


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DomainError(ArithmeticError):
    """Evaluation left the real domain of some sub-expression."""


class NotPolynomialError(ValueError):
    """The expression is not an exact polynomial in u and v."""


@dataclass(frozen=True)
class Expr:
    def __add__(self, other):
        return Add(self, _wrap(other))

    def __sub__(self, other):
        return Sub(self, _wrap(other))

    def __mul__(self, other):
        return Mul(self, _wrap(other))

    def __rmul__(self, other):
        return Mul(_wrap(other), self)

    def __truediv__(self, other):
        return Div(self, _wrap(other))

    def __neg__(self):
        return Neg(self)


def _wrap(value) -> Expr:
    if isinstance(value, Expr):
        return value
    return Const(Fraction(value))


@dataclass(frozen=True)
class Const(Expr):
    value: Fraction


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: Fraction


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))


# -- display -------------------------------------------------------------------


def to_text(e: Expr) -> str:
    if isinstance(e, Const):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Add):
        return f"({to_text(e.left)} + {to_text(e.right)})"
    if isinstance(e, Sub):
        return f"({to_text(e.left)} - {to_text(e.right)})"
    if isinstance(e, Mul):
        return f"({to_text(e.left)} * {to_text(e.right)})"
    if isinstance(e, Div):
        return f"({to_text(e.left)} / {to_text(e.right)})"
    if isinstance(e, Neg):
        return f"(-{to_text(e.arg)})"
    if isinstance(e, Pow):
        exp = e.exponent
        exp_text = str(exp) if exp.denominator == 1 and exp >= 0 else f"({exp})"
        return f"{to_text(e.base)}^{exp_text}"
    if isinstance(e, Call):
        return f"{e.fn}({to_text(e.arg)})"
    raise TypeError(f"unknown node {e!r}")


# -- simplifying constructors (keep higher derivatives compact) -----------------


def _add(x: Expr, y: Expr) -> Expr:
    if isinstance(x, Const) and isinstance(y, Const):
        return Const(x.value + y.value)
    if x == ZERO:
        return y
    if y == ZERO:
        return x
    return Add(x, y)


def _sub(x: Expr, y: Expr) -> Expr:
    if isinstance(x, Const) and isinstance(y, Const):
        return Const(x.value - y.value)
    if y == ZERO:
        return x
    if x == ZERO:
        return _neg(y)
    return Sub(x, y)


def _mul(x: Expr, y: Expr) -> Expr:
    if isinstance(x, Const) and isinstance(y, Const):
        return Const(x.value * y.value)
    if x == ZERO or y == ZERO:
        return ZERO
    if x == ONE:
        return y
    if y == ONE:
        return x
    return Mul(x, y)


def _div(x: Expr, y: Expr) -> Expr:
    if x == ZERO:
        return ZERO
    if y == ONE:
        return x
    if isinstance(x, Const) and isinstance(y, Const) and y.value != 0:
        return Const(x.value / y.value)
    return Div(x, y)


def _neg(x: Expr) -> Expr:
    if isinstance(x, Const):
        return Const(-x.value)
    if isinstance(x, Neg):
        return x.arg
    return Neg(x)


def _pow(base: Expr, exponent: Fraction) -> Expr:
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const) and exponent.denominator == 1 and exponent >= 0:
        return Const(base.value ** exponent.numerator)
    return Pow(base, exponent)


# -- differentiation -------------------------------------------------------------


# Bounded, so that a long run over many surfaces does not keep every tree
# it has differentiated.
@lru_cache(maxsize=512)
def ast_diff(e: Expr, var: str) -> Expr:
    """Exact symbolic derivative with respect to 'u' or 'v'."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == var else ZERO
    if isinstance(e, Add):
        return _add(ast_diff(e.left, var), ast_diff(e.right, var))
    if isinstance(e, Sub):
        return _sub(ast_diff(e.left, var), ast_diff(e.right, var))
    if isinstance(e, Mul):
        return _add(
            _mul(ast_diff(e.left, var), e.right),
            _mul(e.left, ast_diff(e.right, var)),
        )
    if isinstance(e, Div):
        num = _sub(
            _mul(ast_diff(e.left, var), e.right),
            _mul(e.left, ast_diff(e.right, var)),
        )
        return _div(num, _pow(e.right, Fraction(2)))
    if isinstance(e, Neg):
        return _neg(ast_diff(e.arg, var))
    if isinstance(e, Pow):
        inner = ast_diff(e.base, var)
        if inner == ZERO:
            return ZERO
        scaled = _mul(Const(e.exponent), _pow(e.base, e.exponent - 1))
        return _mul(scaled, inner)
    if isinstance(e, Call):
        inner = ast_diff(e.arg, var)
        g = e.arg
        if e.fn == "sin":
            outer = Call("cos", g)
        elif e.fn == "cos":
            outer = _neg(Call("sin", g))
        elif e.fn == "tan":
            outer = _add(ONE, _pow(Call("tan", g), Fraction(2)))
        elif e.fn == "exp":
            outer = e
        elif e.fn == "log":
            # log|x| and log(x) share the derivative 1/x away from x = 0.
            if isinstance(g, Call) and g.fn == "abs":
                g = g.arg
                inner = ast_diff(g, var)
            return _div(inner, g)
        elif e.fn == "sqrt":
            return _div(inner, _mul(Const(Fraction(2)), e))
        elif e.fn == "abs":
            outer = _div(e, g)  # sign(g), valid away from zeros of g
        else:
            raise ValueError(f"unknown function {e.fn!r}")
        return _mul(outer, inner)
    raise TypeError(f"unknown node {e!r}")


# -- evaluation --------------------------------------------------------------------


def ast_eval(e: Expr, u: float, v: float) -> float:
    """Evaluate at a point; raises DomainError outside the real domain,
    overflow included."""
    try:
        value = _eval(e, u, v)
    except OverflowError:
        raise DomainError(f"overflow in {to_text(e)}") from None
    if not math.isfinite(value):
        raise DomainError(f"non-finite value of {to_text(e)}")
    return value


def _eval(e: Expr, u: float, v: float) -> float:
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Var):
        return u if e.name == "u" else v
    if isinstance(e, Add):
        return _eval(e.left, u, v) + _eval(e.right, u, v)
    if isinstance(e, Sub):
        return _eval(e.left, u, v) - _eval(e.right, u, v)
    if isinstance(e, Mul):
        return _eval(e.left, u, v) * _eval(e.right, u, v)
    if isinstance(e, Div):
        denom = _eval(e.right, u, v)
        if denom == 0.0:
            raise DomainError(f"division by zero in {to_text(e)}")
        return _eval(e.left, u, v) / denom
    if isinstance(e, Neg):
        return -_eval(e.arg, u, v)
    if isinstance(e, Pow):
        base = _eval(e.base, u, v)
        exp = e.exponent
        if exp.denominator == 1:
            if base == 0.0 and exp < 0:
                raise DomainError(f"zero base with negative power in {to_text(e)}")
            return base ** exp.numerator
        if base < 0:
            raise DomainError(f"fractional power of negative base in {to_text(e)}")
        if base == 0.0 and exp < 0:
            raise DomainError(f"zero base with negative power in {to_text(e)}")
        return base ** float(exp)
    if isinstance(e, Call):
        x = _eval(e.arg, u, v)
        if e.fn == "sin":
            return math.sin(x)
        if e.fn == "cos":
            return math.cos(x)
        if e.fn == "tan":
            return math.tan(x)
        if e.fn == "exp":
            return math.exp(x)
        if e.fn == "log":
            if x <= 0.0:
                raise DomainError(f"log of non-positive value in {to_text(e)}")
            return math.log(x)
        if e.fn == "sqrt":
            if x < 0.0:
                raise DomainError(f"sqrt of negative value in {to_text(e)}")
            return math.sqrt(x)
        if e.fn == "abs":
            return abs(x)
        raise ValueError(f"unknown function {e.fn!r}")
    raise TypeError(f"unknown node {e!r}")


# -- exact polynomial bridge ----------------------------------------------------------


def expr_to_poly(e: Expr) -> Poly2:
    """Convert an exact-polynomial expression to Poly2, or raise NotPolynomialError."""
    if isinstance(e, Const):
        return Poly2.const(e.value)
    if isinstance(e, Var):
        return Poly2.var_u() if e.name == "u" else Poly2.var_v()
    if isinstance(e, Add):
        return expr_to_poly(e.left) + expr_to_poly(e.right)
    if isinstance(e, Sub):
        return expr_to_poly(e.left) - expr_to_poly(e.right)
    if isinstance(e, Mul):
        left, right = expr_to_poly(e.left), expr_to_poly(e.right)
        _check_size(left.degree() + right.degree())
        return left * right
    if isinstance(e, Div):
        divisor = expr_to_poly(e.right)
        if divisor.degree() > 0:
            raise NotPolynomialError("division by a non-constant expression")
        c = divisor.coefficient(0, 0)
        if c == 0:
            raise NotPolynomialError("division by zero")
        return expr_to_poly(e.left) / c
    if isinstance(e, Neg):
        return -expr_to_poly(e.arg)
    if isinstance(e, Pow):
        exp = e.exponent
        if exp.denominator != 1 or exp < 0:
            raise NotPolynomialError(f"non-polynomial power {exp}")
        base, n = expr_to_poly(e.base), exp.numerator
        heights = [max(abs(c.numerator), c.denominator) for c in base.terms.values()]
        _check_size(base.degree() * n, max(heights, default=0).bit_length() * n)
        return base**n
    if isinstance(e, Call):
        raise NotPolynomialError(f"function {e.fn} is not polynomial")
    raise TypeError(f"unknown node {e!r}")


def _check_size(degree: int, bits: int = 0) -> None:
    """Refuse a product or power, before expanding it, past the size limits."""
    if degree > MAX_DEGREE:
        raise ValueError(f"polynomial degree {degree} exceeds the limit of {MAX_DEGREE}")
    if bits > MAX_COEFFICIENT_BITS:
        raise ValueError(f"{bits}-bit coefficients exceed the limit of {MAX_COEFFICIENT_BITS} bits")


def mentions(e: Expr, name: str) -> bool:
    """True iff the variable ``name`` occurs in the tree."""
    if isinstance(e, Var):
        return e.name == name
    if isinstance(e, (Add, Sub, Mul, Div)):
        return mentions(e.left, name) or mentions(e.right, name)
    if isinstance(e, (Neg, Call)):
        return mentions(e.arg, name)
    if isinstance(e, Pow):
        return mentions(e.base, name)
    return False


def poly_to_expr(p: Poly2) -> Expr:
    """Exact expression tree for a polynomial (sum of monomial products)."""
    if p.is_zero:
        return ZERO
    total: Expr | None = None
    for (i, j) in sorted(p.terms):
        term: Expr = Const(p.terms[(i, j)])
        if i:
            term = _mul(term, _pow(Var("u"), Fraction(i)))
        if j:
            term = _mul(term, _pow(Var("v"), Fraction(j)))
        total = term if total is None else Add(total, term)
    return total


# -- parser -------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        # Accept the unicode minus as a synonym for '-'.
        self.text = text.replace("−", "-")
        self.pos = 0
        self.nesting = 0  # parentheses and calls open around the current rule

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, char: str) -> None:
        if self.peek() != char:
            raise self.error(f"expected {char!r}")
        self.pos += 1

    def deeper(self, depth: int) -> int:
        """One level more than ``depth``, refused past MAX_DEPTH."""
        if depth >= MAX_DEPTH:
            raise self.error(f"expression nested deeper than {MAX_DEPTH} levels")
        return depth + 1

    def parse(self) -> Expr:
        result, _ = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error(f"unexpected {self.text[self.pos]!r}")
        return result

    # Each rule returns (tree, depth of the tree).  Tree depth bounds the
    # recursion of every later tree walk; nesting bounds the parser's own.

    def expr(self) -> tuple[Expr, int]:
        negate = False
        if self.peek() == "-":
            self.pos += 1
            negate = True
        node, depth = self.term()
        if negate:
            node, depth = Neg(node), self.deeper(depth)
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            right, right_depth = self.term()
            node = Add(node, right) if op == "+" else Sub(node, right)
            depth = self.deeper(max(depth, right_depth))
        return node, depth

    def term(self) -> tuple[Expr, int]:
        node, depth = self.factor()
        while self.peek() in ("*", "/"):
            op = self.peek()
            self.pos += 1
            right, right_depth = self.factor()
            node = Mul(node, right) if op == "*" else Div(node, right)
            depth = self.deeper(max(depth, right_depth))
        return node, depth

    def factor(self) -> tuple[Expr, int]:
        node, depth = self.base()
        if self.peek() == "^":
            self.pos += 1
            node, depth = Pow(node, self.exponent()), self.deeper(depth)
        return node, depth

    def exponent(self) -> Fraction:
        if self.peek() == "(":
            self.pos += 1
            num = self.signed_integer()
            den = 1
            if self.peek() == "/":
                self.pos += 1
                den = self.signed_integer()
                if den == 0:
                    raise self.error("zero denominator in exponent")
            self.take(")")
            return Fraction(num, den)
        return Fraction(self.signed_integer())

    def signed_integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise self.error("expected an integer")
        return int(self.text[start:self.pos])

    def parenthesized(self) -> tuple[Expr, int]:
        self.take("(")
        self.nesting = self.deeper(self.nesting)
        result = self.expr()
        self.nesting -= 1
        self.take(")")
        return result

    def base(self) -> tuple[Expr, int]:
        ch = self.peek()
        if ch == "(":
            return self.parenthesized()
        if ch.isdigit() or ch == ".":
            return self.number(), 1
        if ch.isalpha():
            return self.identifier()
        if ch == "":
            raise self.error("unexpected end of input")
        raise self.error(f"unexpected {ch!r}")

    def number(self) -> Const:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isdigit() or self.text[self.pos] == "."
        ):
            self.pos += 1
        literal = self.text[start:self.pos]
        try:
            return Const(Fraction(literal))
        except ValueError:
            self.pos = start
            raise self.error(f"bad number literal {literal!r}")

    def identifier(self) -> tuple[Expr, int]:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        name = self.text[start:self.pos]
        if name in ("u", "v"):
            return Var(name), 1
        if name in FUNCTIONS:
            arg, depth = self.parenthesized()
            return Call(name, arg), self.deeper(depth)
        self.pos = start
        raise self.error(f"unknown identifier {name!r}")


def parse_expr(text: str) -> Expr:
    """Parse an expression in the variables u and v; see the module grammar."""
    return _Parser(text).parse()
