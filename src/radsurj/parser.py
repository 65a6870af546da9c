"""Input language for towers and parametrizations.

The format is two braced blocks plus an optional third:

    tower {
      d1^2 = 1 - t^2;        # radicals, innermost first
    }
    param {
      x = t;                 # numerator, or numerator / denominator
      y = d1 / (1 + t^2);
    }
    settings {
      mode = suspicious;     # optional defaults for the CLI
    }

Polynomials use integer or fraction coefficients, identifiers, + - *,
parentheses, and ^ for powers (binding tighter than *).  A slash means
a rational coefficient when it sits between two integer literals, as in
3/2*t; anywhere else inside a polynomial it is an error, and at the top
level of a param statement it separates numerator from denominator.
The parameter variable is always called t and cannot be redeclared.
Line comments start with #.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .arith import MultiPoly, Role, VarTable
from .errors import ParseError
from .surjcheck import RadicalParametrization, normalize_param
from .tower import RadicalLevel, RadicalTower

_SYMBOLS = ("{", "}", "(", ")", ";", "=", "+", "-", "*", "/", "^")
MAX_NESTING = 64  # parentheses are parsed recursively, so their depth is capped


@dataclass(frozen=True)
class _Token:
    kind: str  # int | ident | symbol | end
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    line, col = 1, 1
    i = depth = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line, col = line + 1, 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif c.isdecimal():  # the digits int() reads; isdigit() would admit "²"
            start = i
            while i < len(text) and text[i].isdecimal():
                i += 1
            out.append(_Token("int", text[start:i], line, col))
            col += i - start
        elif c.isidentifier():
            start = i
            while i < len(text) and ("_" + text[i]).isidentifier():
                i += 1
            out.append(_Token("ident", text[start:i], line, col))
            col += i - start
        elif c in _SYMBOLS:
            depth += (c == "(") - (c == ")")
            if depth > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", line, col)
            out.append(_Token("symbol", c, line, col))
            col += 1
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    out.append(_Token("end", "", line, col))
    return out


# ----------------------------------------------------------------------
# expression AST, built before any variable table exists


@dataclass(frozen=True)
class _Num:
    value: Fraction


@dataclass(frozen=True)
class _Var:
    name: str
    line: int
    col: int


@dataclass(frozen=True)
class _Op:
    op: str  # + * (any number of operands), ^ and neg
    args: tuple


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.cur
        self.pos += 1
        return tok

    def fail(self, message: str) -> ParseError:
        return ParseError(message, self.cur.line, self.cur.col)

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.cur
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            got = tok.text if tok.kind != "end" else "end of input"
            raise self.fail(f"expected {want!r}, found {got!r}")
        return self.advance()

    def at_symbol(self, text: str) -> bool:
        return self.cur.kind == "symbol" and self.cur.text == text

    # -------------------------------------------------- expressions

    def parse_expr(self):
        args = [self.parse_term()]
        while self.at_symbol("+") or self.at_symbol("-"):
            negate = self.advance().text == "-"
            term = self.parse_term()
            args.append(_Op("neg", (term,)) if negate else term)  # a - b is a + (-b)
        return _Op("+", tuple(args)) if len(args) > 1 else args[0]

    def parse_term(self):
        args = [self.parse_factor()]
        while self.at_symbol("*"):
            self.advance()
            args.append(self.parse_factor())
        return _Op("*", tuple(args)) if len(args) > 1 else args[0]

    def parse_factor(self):
        negate = False
        while self.at_symbol("-"):
            self.advance()
            negate = not negate
        node = self.parse_atom()
        if self.at_symbol("^"):
            self.advance()
            ex = self.expect("int")
            node = _Op("^", (node, int(ex.text)))
        return _Op("neg", (node,)) if negate else node

    def parse_atom(self):
        tok = self.cur
        if tok.kind == "int":
            self.advance()
            value = Fraction(int(tok.text))
            # a slash between integer literals is a rational coefficient
            if self.at_symbol("/") and self.tokens[self.pos + 1].kind == "int":
                self.advance()
                den = self.advance()
                if int(den.text) == 0:
                    raise ParseError("zero denominator in coefficient", den.line, den.col)
                value /= int(den.text)
            return _Num(value)
        if tok.kind == "ident":
            self.advance()
            return _Var(tok.text, tok.line, tok.col)
        if self.at_symbol("("):
            self.advance()
            node = self.parse_expr()
            self.expect("symbol", ")")
            return node
        raise self.fail(f"expected a polynomial, found {tok.text or 'end of input'!r}")


def _to_poly(node, table: VarTable) -> MultiPoly:
    if isinstance(node, _Num):
        return MultiPoly.const(table, node.value)
    if isinstance(node, _Var):
        if node.name not in table.names:
            raise ParseError(f"unknown identifier {node.name!r}", node.line, node.col)
        return MultiPoly.var(table, node.name)
    if node.op == "neg":
        return -_to_poly(node.args[0], table)
    if node.op == "^":
        return _to_poly(node.args[0], table) ** node.args[1]
    acc = _to_poly(node.args[0], table)
    for arg in node.args[1:]:  # left to right, in a loop however long the sum
        acc = acc + _to_poly(arg, table) if node.op == "+" else acc * _to_poly(arg, table)
    return acc


# ----------------------------------------------------------------------
# file structure


@dataclass(frozen=True)
class SourceParse:
    param: RadicalParametrization
    settings: dict[str, str]
    notes: tuple[str, ...] = field(default=())


def parse_source(text: str) -> SourceParse:
    parser = _Parser(_tokenize(text))

    parser.expect("ident", "tower")
    parser.expect("symbol", "{")
    level_decls: list[tuple[str, int, object]] = []
    while not parser.at_symbol("}"):
        name = parser.expect("ident")
        if name.text == "t":
            raise ParseError("'t' is reserved for the parameter", name.line, name.col)
        if any(name.text == n for n, _, _ in level_decls):
            raise ParseError(f"radical {name.text!r} declared twice", name.line, name.col)
        parser.expect("symbol", "^")
        expo = parser.expect("int")
        parser.expect("symbol", "=")
        ast = parser.parse_expr()
        parser.expect("symbol", ";")
        level_decls.append((name.text, int(expo.text), ast))
    parser.expect("symbol", "}")

    parser.expect("ident", "param")
    parser.expect("symbol", "{")
    comp_decls: list[tuple[str, object, object]] = []
    while not parser.at_symbol("}"):
        name = parser.expect("ident")
        if name.text == "t":
            raise ParseError("'t' is reserved for the parameter", name.line, name.col)
        if any(name.text == n for n, _, _ in comp_decls):
            raise ParseError(f"coordinate {name.text!r} defined twice", name.line, name.col)
        parser.expect("symbol", "=")
        num = parser.parse_expr()
        den = None
        if parser.at_symbol("/"):
            parser.advance()
            den = parser.parse_expr()
        parser.expect("symbol", ";")
        comp_decls.append((name.text, num, den))
    parser.expect("symbol", "}")

    settings: dict[str, str] = {}
    if parser.cur.kind == "ident" and parser.cur.text == "settings":
        parser.advance()
        parser.expect("symbol", "{")
        while not parser.at_symbol("}"):
            key = parser.expect("ident")
            if key.text in settings:
                raise ParseError(f"setting {key.text!r} given twice", key.line, key.col)
            parser.expect("symbol", "=")
            val = parser.advance()
            if val.kind not in ("ident", "int"):
                raise ParseError("setting values are words or integers", val.line, val.col)
            parser.expect("symbol", ";")
            settings[key.text] = val.text
        parser.expect("symbol", "}")
    parser.expect("end")

    names = ("t",) + tuple(n for n, _, _ in level_decls)
    roles = (Role.PARAMETER,) + (Role.RADICAL,) * len(level_decls)
    table = VarTable(names, roles)
    levels = [
        RadicalLevel(n, e, _to_poly(ast, table)) for n, e, ast in level_decls
    ]
    tower = RadicalTower(table, levels)
    pairs = []
    for _, num, den in comp_decls:
        p = _to_poly(num, table)
        q = _to_poly(den, table) if den is not None else MultiPoly.one(table)
        pairs.append((p, q))
    param, notes = normalize_param(tower, pairs, [n for n, _, _ in comp_decls])
    return SourceParse(param, settings, tuple(notes))


def parse(text: str) -> RadicalParametrization:
    return parse_source(text).param


def parse_poly(text: str, table: VarTable) -> MultiPoly:
    """One polynomial over an existing variable table, for --expr flags."""
    parser = _Parser(_tokenize(text))
    ast = parser.parse_expr()
    parser.expect("end")
    return _to_poly(ast, table)


def print_source(param: RadicalParametrization) -> str:
    """Canonical text form; parse(print_source(P)) reproduces P exactly."""
    lines = ["tower {"]
    for level in param.tower.levels:
        lines.append(f"  {level.name}^{level.exponent} = {level.radicand};")
    lines.append("}")
    lines.append("param {")
    for name, comp in zip(param.coordinates, param.components):
        if comp.denominator.is_const() and comp.denominator.const_value() == 1:
            lines.append(f"  {name} = {comp.numerator};")
        else:
            lines.append(f"  {name} = ({comp.numerator}) / ({comp.denominator});")
    lines.append("}")
    return "\n".join(lines) + "\n"
