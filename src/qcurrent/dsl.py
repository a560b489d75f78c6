"""Surface syntax for elements of the free model and the current algebra.

Grammar (whitespace-insensitive; the three characters ``(x)`` are a single
tensor-product token, so a bare parenthesized name must not be spelled x):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := primary ('(x)' primary)*
    primary:= scalar | name | call | '[' expr ',' expr ']' | '(' expr ')'
    scalar := NUMBER ['/' NUMBER] | 'hbar' ['^' NUMBER]
    call   := NAME '(' expr (',' expr)* ')'

Builtins: I, J, G (generators), nu, Omega, Delta, box, S, eps, T.
Evaluation infers the value domain: scalars, free-model elements, their
tensor squares, or current-algebra elements (G-expressions).  A J-free
free-model value is returned as a plain enveloping-algebra element.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .current import CurrentElement, c_bracket
from .envelope import TensorElement, UElement, box_n, nu
from .exactnum import HPoly
from .freequant import (_omega_iota, fm_antipode, fm_coproduct, fm_counit,
                        free_model, pure_iota_part)
from .liealg import LieAlgebraData, LieElement


class DSLError(ValueError):
    """Parse or evaluation error.  Tokenizer and parser errors carry the
    source position, which is appended to the message; evaluation errors
    have none."""

    def __init__(self, message: str, line: Optional[int] = None,
                 column: Optional[int] = None):
        if line is not None:
            message += f" (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


# --- tokens -------------------------------------------------------------------

_PUNCT = {"+", "-", "*", "/", "^", "(", ")", "[", "]", ","}


@dataclass
class Token:
    kind: str  # NAME | NUMBER | TENSOR | one of _PUNCT | END
    text: str
    line: int
    column: int


def tokenize(source: str) -> List[Token]:
    tokens: List[Token] = []
    line, col = 1, 0
    i = 0
    while i < len(source):
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 0
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if source.startswith("(x)", i):
            tokens.append(Token("TENSOR", "(x)", line, col))
            i += 3
            col += 3
            continue
        if ch in _PUNCT:
            tokens.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(source) and source[j].isdigit():
                j += 1
            tokens.append(Token("NUMBER", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(source) and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token("NAME", source[i:j], line, col))
            col += j - i
            i = j
            continue
        raise DSLError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("END", "", line, col))
    return tokens


# --- AST ----------------------------------------------------------------------


@dataclass
class Num:
    value: Fraction


@dataclass
class Hbar:
    power: int


@dataclass
class Name:
    name: str


@dataclass
class Call:
    fn: str
    args: list


@dataclass
class Bracket:
    left: object
    right: object


@dataclass
class Tensor:
    parts: list


@dataclass
class Prod:
    factors: list


@dataclass
class Sum:
    terms: List[Tuple[int, object]]  # (sign, node)


Expr = Union[Num, Hbar, Name, Call, Bracket, Tensor, Prod, Sum]

BUILTINS = {"I", "J", "G", "nu", "Delta", "box", "S", "eps", "T"}


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise DSLError(f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                           tok.line, tok.column)
        return self.next()

    def parse_expr(self) -> Expr:
        terms: List[Tuple[int, object]] = []
        sign = 1
        if self.peek().kind == "-":
            self.next()
            sign = -1
        terms.append((sign, self.parse_term()))
        while self.peek().kind in ("+", "-"):
            sign = 1 if self.next().kind == "+" else -1
            terms.append((sign, self.parse_term()))
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return Sum(terms)

    def parse_term(self) -> Expr:
        factors = [self.parse_factor()]
        while self.peek().kind == "*":
            self.next()
            factors.append(self.parse_factor())
        return factors[0] if len(factors) == 1 else Prod(factors)

    def parse_factor(self) -> Expr:
        parts = [self.parse_primary()]
        while self.peek().kind == "TENSOR":
            self.next()
            parts.append(self.parse_primary())
        return parts[0] if len(parts) == 1 else Tensor(parts)

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.next()
            value = Fraction(int(tok.text))
            if self.peek().kind == "/":
                self.next()
                den = self.expect("NUMBER")
                if not int(den.text):
                    raise DSLError("zero denominator", den.line, den.column)
                value = Fraction(int(tok.text), int(den.text))
            return Num(value)
        if tok.kind == "[":
            self.next()
            left = self.parse_expr()
            self.expect(",")
            right = self.parse_expr()
            self.expect("]")
            return Bracket(left, right)
        if tok.kind == "(":
            self.next()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok.kind == "NAME":
            self.next()
            if tok.text == "hbar":
                power = 1
                if self.peek().kind == "^":
                    self.next()
                    power = int(self.expect("NUMBER").text)
                return Hbar(power)
            if self.peek().kind == "(":
                if tok.text not in BUILTINS:
                    raise DSLError(f"unknown builtin {tok.text!r}",
                                   tok.line, tok.column)
                self.next()
                args = [self.parse_expr()]
                while self.peek().kind == ",":
                    self.next()
                    args.append(self.parse_expr())
                self.expect(")")
                if len(args) != 1:  # every builtin takes one argument
                    raise DSLError(f"{tok.text} takes exactly one argument",
                                   tok.line, tok.column)
                return Call(tok.text, args)
            return Name(tok.text)
        raise DSLError(f"unexpected token {tok.text or 'end of input'!r}",
                       tok.line, tok.column)


def parse(source: str) -> Expr:
    parser = _Parser(tokenize(source))
    expr = parser.parse_expr()
    end = parser.peek()
    if end.kind != "END":
        raise DSLError(f"trailing input starting at {end.text!r}",
                       end.line, end.column)
    return expr


# --- evaluation -----------------------------------------------------------------

Value = Union[HPoly, UElement, TensorElement, CurrentElement]


def _is_scalar(v: Value) -> bool:
    return isinstance(v, HPoly)


def _as_lie(g: LieAlgebraData, v: Value, what: str) -> LieElement:
    if isinstance(v, UElement):
        u = pure_iota_part(v)
        if u is not None:
            data = {}
            for mono, p in u.terms():
                if len(mono) != 1 or set(p.data) - {0}:
                    raise DSLError(f"{what} expects a Lie-algebra element")
                data[mono[0]] = p.coeff(0)
            return LieElement(g, data)
    raise DSLError(f"{what} expects a Lie-algebra element")


class Evaluator:
    """Evaluate parsed expressions against one algebra."""

    def __init__(self, g: LieAlgebraData):
        self.g = g

    def eval(self, node: Expr) -> Value:
        g = self.g
        if isinstance(node, Num):
            return HPoly.rational(node.value)
        if isinstance(node, Hbar):
            return HPoly.hbar(node.power)
        if isinstance(node, Name):
            if node.name == "Omega":
                return _omega_iota(g)
            idx = g.name_to_index.get(node.name)
            if idx is None:
                raise DSLError(f"unknown basis name {node.name!r} in "
                               f"{g.type_label()}")
            return free_model(g).iota_letter(idx)
        if isinstance(node, Call):
            return self._eval_call(node)
        if isinstance(node, Bracket):
            return self._bracket(self.eval(node.left), self.eval(node.right))
        if isinstance(node, Sum):
            total: Optional[Value] = None
            for sign, term in node.terms:
                v = self.eval(term)
                if sign == -1:
                    v = -v
                total = v if total is None else self._add(total, v)
            return total
        if isinstance(node, Prod):
            total = None
            for f in node.factors:
                v = self.eval(f)
                total = v if total is None else self._mul(total, v)
            return total
        if isinstance(node, Tensor):
            values = [self.eval(p) for p in node.parts]
            return self._tensor(values)
        raise TypeError(f"not an expression node: {node!r}")

    def _eval_call(self, node: Call) -> Value:
        g = self.g
        fm = free_model(g)
        fn = node.fn
        if fn in ("I", "J", "G"):
            arg = node.args[0]
            if not isinstance(arg, Name):
                raise DSLError(f"{fn}(...) takes a basis name")
            idx = g.name_to_index.get(arg.name)
            if idx is None:
                raise DSLError(f"unknown basis name {arg.name!r}")
            if fn == "I":
                return fm.iota_letter(idx)
            if fn == "J":
                return fm.j_letter(idx)
            return CurrentElement.generator(g, idx, 1)
        val = self.eval(node.args[0])
        if fn == "nu":
            h = _as_lie(g, val, "nu")
            if not g.is_cartan(h):
                raise DSLError("nu expects a Cartan element")
            return fm.iota(nu(g, h))
        if fn == "T" and g.n != 2:
            raise DSLError("T is the rank-1 lowering-raising operator; "
                           "use --type A1")
        if not isinstance(val, UElement):
            raise DSLError(f"{fn} expects an algebra element")
        if fn == "T":
            ie = fm.iota_letter(g.simple_pos_index(0))
            if_ = fm.iota_letter(g.simple_neg_index(0))
            return if_.bracket(ie.bracket(val))
        ops = {"Delta": fm_coproduct, "box": lambda a: box_n(a, 2),
               "S": fm_antipode, "eps": fm_counit}
        if fn in ops:
            return ops[fn](val)
        raise DSLError(f"unknown builtin {fn!r}")

    # -- domain-aware arithmetic --

    def _add(self, a: Value, b: Value) -> Value:
        a, b = self._unify(a, b, "+")
        return a + b

    def _mul(self, a: Value, b: Value) -> Value:
        if _is_scalar(a) and _is_scalar(b):
            return a * b
        if _is_scalar(a):
            if isinstance(b, CurrentElement):
                return b * _rational_scalar(a)
            return b.scale(a)
        if _is_scalar(b):
            if isinstance(a, CurrentElement):
                return a * _rational_scalar(b)
            return a.scale(b)
        if isinstance(a, CurrentElement) or isinstance(b, CurrentElement):
            raise DSLError("current-algebra elements have no product; "
                           "use [.,.] for the Lie bracket")
        if isinstance(a, UElement) and isinstance(b, TensorElement):
            raise DSLError("cannot multiply an element by a tensor")
        if isinstance(a, TensorElement) and isinstance(b, UElement):
            raise DSLError("cannot multiply a tensor by an element")
        return a * b

    def _bracket(self, a: Value, b: Value) -> Value:
        if isinstance(a, CurrentElement) and isinstance(b, CurrentElement):
            return c_bracket(a, b)
        if _is_scalar(a) or _is_scalar(b):
            raise DSLError("brackets need algebra elements")
        a, b = self._unify(a, b, "[.,.]")
        return a.bracket(b)

    def _tensor(self, values: List[Value]) -> Value:
        flat: List[UElement] = []
        for v in values:
            if isinstance(v, TensorElement):
                raise DSLError("nested tensors are not supported; "
                               "write all slots in one chain")
            if _is_scalar(v):
                raise DSLError("tensor slots must be algebra elements")
            if isinstance(v, CurrentElement):
                raise DSLError("tensor products of currents are not part of "
                               "the surface syntax")
            flat.append(v)
        return TensorElement.pure(flat)

    def _unify(self, a: Value, b: Value, op: str):
        if type(a) is not type(b):
            raise DSLError(f"operands of {op} live in different domains "
                           f"({type(a).__name__} vs {type(b).__name__})")
        if isinstance(a, TensorElement) and a.arity != b.arity:
            raise DSLError("tensor arity mismatch")
        return a, b


def _rational_scalar(p: HPoly) -> Fraction:
    if set(p.data) - {0}:
        raise DSLError("current-algebra elements take rational scalars only")
    return p.coeff(0)


def evaluate(source: str, g: LieAlgebraData) -> Value:
    """Parse and evaluate; J-free model elements come back as enveloping-
    algebra elements (the inferred plain-U(g) domain)."""
    value = Evaluator(g).eval(parse(source))
    if isinstance(value, UElement):
        u = pure_iota_part(value)
        if u is not None:
            return u
    return value


def render_value(value: Value) -> str:
    return value.render()
