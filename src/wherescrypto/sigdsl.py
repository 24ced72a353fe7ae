"""Signature definition language.

A signature file names a primitive and gives one or more variants of
its data flow.  Each variant is a list of statements built through a
fresh graph broker, so signatures are normalized by exactly the same
rewrite rules as lifted code.

Grammar (keywords case-insensitive, '#' starts a comment):

    document   = "IDENTIFIER" rest-of-line
                 { "VARIANT" rest-of-line { statement } }
    statement  = ["TRANSIENT"] [label ":"] expr ";"
    expr       = shift { "+" shift }
    shift      = atom { ("<<" | ">>") atom }
    atom       = number | label | opcall | opaque | "(" expr ")"
    opcall     = ("STORE" | "LOAD" | "XOR" | "OR" | "AND" | "MULT"
                  | "ROTATE") "(" expr { "," expr } ")"
    opaque     = "OPAQUE" ["<" label ">"] ["(" [expr {"," expr}] ")"]

Header names are printable; numbers are decimal or 0x hex, labels match
[A-Za-z_][A-Za-z0-9_]*, and label references point back within a variant.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional, Union

from .dfg import ARITY, Dfg, NodeKind, NodeRef

__all__ = [
    "ParseError", "ArityError", "Literal", "LabelRef", "OpCall",
    "Infix", "Opaque", "Statement", "VariantDef", "SignatureDoc",
    "SignatureGraph", "parse", "print_doc", "build_variant",
]


class ParseError(Exception):
    def __init__(self, line: int, column: int, expected: tuple[str, ...],
                 found: str = ""):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        self.found = found
        want = " or ".join(expected)
        suffix = f", found {found}" if found else ""
        super().__init__(f"line {line}, column {column}: "
                         f"expected {want}{suffix}")


class ArityError(Exception):
    def __init__(self, line: int, column: int, op: str, got: int,
                 want: str):
        self.line = line
        self.column = column
        self.op = op
        super().__init__(f"line {line}, column {column}: {op} takes "
                         f"{want} argument(s), got {got}")


# --------------------------------------------------------------- AST


@dataclass(frozen=True)
class Literal:
    """A numeric constant in an expression."""

    value: int


@dataclass(frozen=True)
class LabelRef:
    """A reference to a labelled statement."""

    name: str


@dataclass(frozen=True)
class OpCall:
    """An operation keyword applied to its arguments."""

    op: str                      # canonical upper-case keyword
    args: tuple["Expr", ...]


@dataclass(frozen=True)
class Infix:
    """An infix `+`, `<<` or `>>` over its operands."""

    op: str                      # '+', '<<' or '>>'
    args: tuple["Expr", ...]     # '+' is variadic, shifts binary


@dataclass(frozen=True)
class Opaque:
    """An OPAQUE wildcard; those with one clamp label bind one kind."""

    clamp: Optional[str] = None
    args: tuple["Expr", ...] = ()


Expr = Union[Literal, LabelRef, OpCall, Infix, Opaque]


@dataclass(frozen=True)
class Statement:
    """One statement of a variant: an expression, maybe labelled
    or transient."""

    transient: bool
    label: Optional[str]
    expr: Expr


@dataclass(frozen=True)
class VariantDef:
    """A named variant of a document, as its statements."""

    name: str
    statements: tuple[Statement, ...]

    @cached_property
    def _built(self) -> "SignatureGraph":
        """The variant's graph, built on first use and kept as long as
        the variant; see `build_variant`."""
        return _build(self)


@dataclass(frozen=True)
class SignatureDoc:
    """A parsed `.sig` document: its identifier and variants."""

    identifier: str
    variants: tuple[VariantDef, ...]


#: The node kind of each operation keyword and infix operator.
_OP_KIND = {"STORE": NodeKind.STORE, "LOAD": NodeKind.LOAD,
            "XOR": NodeKind.XOR, "OR": NodeKind.OR, "AND": NodeKind.AND,
            "MULT": NodeKind.MULT, "ROTATE": NodeKind.ROTATE,
            "+": NodeKind.ADD, "<<": NodeKind.SHL, ">>": NodeKind.SHR}
_OP_KEYWORDS = {op for op in _OP_KIND if op.isalpha()}


def _check_arity(op: str, got: int, line: int, column: int) -> None:
    """Raises `ArityError` unless `op` takes `got` arguments; a tree
    built in code, not parsed, reports line and column 0."""
    lo, hi = ARITY[_OP_KIND[op]]
    if got < lo or (hi is not None and got > hi):
        want = str(lo) if hi == lo else f"at least {lo}"
        raise ArityError(line, column, op, got, want)


# Parentheses, operation calls, wildcard operands and shift chains nest
# expressions; deeper nesting is a ParseError, not a recursion overflow
# in the parser or in the code that walks the tree.
MAX_NESTING = 64
_RESERVED = _OP_KEYWORDS | {"OPAQUE", "TRANSIENT", "IDENTIFIER",
                            "VARIANT"}


# ------------------------------------------------------------- lexer


class _Token(NamedTuple):
    kind: str        # 'number', 'name', 'end', or the operator's text
    text: str
    value: int
    line: int
    column: int


#: The only blanks of the language, between tokens and around the
#: words of a header line alike; any other character outside a comment
#: is part of a token or a stray character.
_BLANKS = " \t"
_BLANK_RUN = re.compile(f"[{_BLANKS}]+")

_TOKEN_RE = re.compile(r"""
    (?P<number>0[xX][0-9a-fA-F]+|[0-9]+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><<|>>|[()<>,:;+])
  | (?P<space>""" + _BLANK_RUN.pattern + ")", re.VERBOSE)


def _literal(text: str, line: int, column: int) -> int:
    """The value of a number token.  A 32-bit literal has at most 8 hex
    or 10 decimal digits; longer ones are refused before conversion."""
    base = 16 if text[:2] in ("0x", "0X") else 10
    digits = text[2:] if base == 16 else text
    if len(digits.lstrip("0")) <= (8 if base == 16 else 10):
        value = int(digits, base)
        if value < 1 << 32:
            return value
    raise ParseError(line, column, ("a 32-bit literal",), text)


def _tokenize(body: list[tuple[int, str]], end_line: int) -> list[_Token]:
    """body is a list of (line number, comment-stripped line text); the
    tokens close with an 'end' token on `end_line`."""
    out: list[_Token] = []
    for line_no, text in body:
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise ParseError(line_no, pos + 1, ("a token",),
                                 repr(text[pos]))
            pos, kind, tok, col = m.end(), m.lastgroup, m.group(), pos + 1
            if kind != "space":
                value = _literal(tok, line_no, col) if kind == "number" else 0
                out.append(_Token(tok if kind == "op" else kind, tok, value,
                                  line_no, col))
    out.append(_Token("end", "end of variant", 0, end_line, 1))
    return out


def _error(tok: _Token, expected: tuple[str, ...]) -> ParseError:
    found = tok.text if tok.kind == "end" else repr(tok.text)
    return ParseError(tok.line, tok.column, expected, found)


class _Parser:
    """Recursive descent over one variant's tokens.  They close with an
    'end' token, so looking one past a name stays inside the list."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.labels: set[str] = set()
        self.depth = 0

    def _kind(self, ahead: int = 0) -> str:
        return self.tokens[self.pos + ahead].kind

    def _next(self) -> _Token:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def _take(self, kind: str, *expected: str) -> _Token:
        if self._kind() != kind:
            raise _error(self.tokens[self.pos], expected)
        return self._next()

    def statements(self) -> tuple[Statement, ...]:
        out = []
        while self._kind() != "end":
            out.append(self._statement())
        return tuple(out)

    def _statement(self) -> Statement:
        tok = self.tokens[self.pos]
        transient = tok.kind == "name" and tok.text.upper() == "TRANSIENT"
        self.pos += transient
        label = None
        tok = self.tokens[self.pos]
        if tok.kind == "name" and self._kind(1) == ":":
            if tok.text.upper() in _RESERVED:
                raise _error(tok, ("a label",))
            if tok.text in self.labels:
                raise _error(tok, ("an unused label",))
            label = tok.text
            self.pos += 2
        expr = self._expr()
        self._take(";", "';'")
        if label is not None:
            self.labels.add(label)
        return Statement(transient, label, expr)

    def _nest(self) -> None:
        if self.depth == MAX_NESTING:
            raise _error(self.tokens[self.pos], (
                f"an expression nested at most {MAX_NESTING} deep",))
        self.depth += 1

    def _expr(self) -> Expr:
        self._nest()
        terms = [self._shift()]
        while self._kind() == "+":
            self.pos += 1
            terms.append(self._shift())
        self.depth -= 1
        if len(terms) == 1:
            return terms[0]
        return Infix("+", tuple(terms))

    def _shift(self) -> Expr:
        # a chain of shifts nests one level per operator
        start = self.depth
        node = self._atom()
        while self._kind() in ("<<", ">>"):
            self._nest()
            node = Infix(self._next().kind, (node, self._atom()))
        self.depth = start
        return node

    def _atom(self) -> Expr:
        tok = self._next()
        if tok.kind == "number":
            return Literal(tok.value)
        if tok.kind == "(":
            inner = self._expr()
            self._take(")", "')'")
            return inner
        word = tok.text.upper() if tok.kind == "name" else ""
        if word == "OPAQUE":
            return self._opaque()
        if word in _OP_KEYWORDS:
            args = self._arguments(wildcard=False)
            _check_arity(word, len(args), tok.line, tok.column)
            return OpCall(word, args)
        if not word or word in _RESERVED:
            raise _error(tok, ("an expression",))
        if self._kind() == "(":
            raise _error(tok, ("a known operation keyword",))
        if tok.text not in self.labels:
            raise _error(tok, ("a previously defined label",))
        return LabelRef(tok.text)

    def _arguments(self, wildcard: bool) -> tuple[Expr, ...]:
        """A parenthesized, comma-separated argument list.  A wildcard's
        list may be empty, and its ')' is the only closer it names."""
        self._take("(", "'('")
        args = []
        if not wildcard or self._kind() not in (")", "end"):
            args.append(self._expr())
            while self._kind() == ",":
                self.pos += 1
                args.append(self._expr())
        self._take(")", "')'", *(() if wildcard else ("','",)))
        return tuple(args)

    def _opaque(self) -> Opaque:
        clamp = None
        if self._kind() == "<":
            self.pos += 1
            name = self._take("name", "a clamp label")
            if name.text.upper() in _RESERVED:
                raise _error(name, ("a clamp label",))
            clamp = name.text
            self._take(">", "'>'")
        args = self._arguments(wildcard=True) if self._kind() == "(" else ()
        return Opaque(clamp, args)


def _header_name(rest: str, line: int, column: int, expected: str) -> str:
    """A header line's name, from ``column``: not empty, printable."""
    if not rest:
        raise ParseError(line, column, (expected,), "end of line")
    for offset, char in enumerate(rest):
        if not char.isprintable():
            raise ParseError(line, column + offset, (expected,), repr(char))
    return rest


def parse(text: str) -> SignatureDoc:
    identifier: Optional[str] = None
    pending: list[tuple[str, int, list[tuple[int, str]]]] = []
    # lines end at "\n" (a "\r" before it belongs to the break), so
    # line numbers are an editor's; any other control character is
    # part of its line
    for line_no, raw in enumerate(text.split("\n"), 1):
        code = raw.removesuffix("\r").split("#", 1)[0]
        stripped = code.strip(_BLANKS)
        if not stripped:
            continue
        parts = _BLANK_RUN.split(stripped, 1)
        word = parts[0].upper()
        rest = parts[1] if len(parts) > 1 else ""
        column = len(code) - len(code.lstrip(_BLANKS)) + 1
        name_at = (line_no, column + len(stripped) - len(rest))
        if word == "IDENTIFIER":
            if identifier is not None or pending:
                raise ParseError(line_no, column,
                                 ("VARIANT", "a statement"),
                                 "IDENTIFIER")
            identifier = _header_name(rest, *name_at, "a signature name")
        elif word == "VARIANT":
            if identifier is None:
                raise ParseError(line_no, column, ("IDENTIFIER",),
                                 "VARIANT")
            name = _header_name(rest, *name_at, "a variant name")
            pending.append((name, line_no, []))
        else:
            if identifier is None:
                raise ParseError(line_no, column, ("IDENTIFIER",),
                                 repr(parts[0]))
            if not pending:
                raise ParseError(line_no, column, ("VARIANT",),
                                 repr(parts[0]))
            pending[-1][2].append((line_no, code))
    last_line = text.count("\n") + 1
    if identifier is None:
        raise ParseError(last_line, 1, ("IDENTIFIER",), "end of file")
    if not pending:
        raise ParseError(last_line, 1, ("VARIANT",), "end of file")
    variants = []
    for name, header_line, body in pending:
        end_line = body[-1][0] if body else header_line
        statements = _Parser(_tokenize(body, end_line)).statements()
        variants.append(VariantDef(name, statements))
    return SignatureDoc(identifier, tuple(variants))


# ----------------------------------------------------------- printer


def _prec(expr: Expr) -> int:
    if isinstance(expr, Infix):
        return 1 if expr.op == "+" else 2
    return 3


def _print_expr(expr: Expr, context: int = 0,
                right_of_shift: bool = False) -> str:
    if isinstance(expr, Literal):
        return (str(expr.value) if expr.value < 0x10000
                else f"0x{expr.value:x}")
    if isinstance(expr, LabelRef):
        return expr.name
    if isinstance(expr, OpCall):
        return (expr.op + "("
                + ",".join(_print_expr(a) for a in expr.args) + ")")
    if isinstance(expr, Opaque):
        text = "OPAQUE"
        if expr.clamp is not None:
            text += f"<{expr.clamp}>"
        if expr.args:
            text += ("(" + ",".join(_print_expr(a) for a in expr.args)
                     + ")")
        return text
    assert isinstance(expr, Infix)
    p = _prec(expr)
    if expr.op == "+":
        inner = "+".join(_print_expr(a, p) for a in expr.args)
    else:
        left, right = expr.args
        inner = (_print_expr(left, p) + expr.op
                 + _print_expr(right, p, right_of_shift=True))
    if p < context or (p == context == 2 and right_of_shift):
        return f"({inner})"
    if p == context == 1:
        return f"({inner})"        # a nested sum built programmatically
    return inner


def print_doc(doc: SignatureDoc) -> str:
    lines = [f"IDENTIFIER {doc.identifier}"]
    for v in doc.variants:
        lines.append("")
        lines.append(f"VARIANT {v.name}")
        for st in v.statements:
            prefix = "TRANSIENT " if st.transient else ""
            label = f"{st.label}:" if st.label else ""
            lines.append(f"{prefix}{label}{_print_expr(st.expr)};")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------- builder


@dataclass
class SignatureGraph:
    """A signature variant as a normalized graph, with the refs of its
    clamped wildcards and of its transient statements.

    Read-only once built: `build_variant` hands the same object to
    every caller, and the matcher keeps its per-signature set-up in
    ``plan``, which it fills on first use: each node's domain key and
    number of distinct consumers, and the distinct keys.  Nothing in it
    depends on a target graph."""

    graph: Dfg
    clamp_labels: dict[NodeRef, str] = field(default_factory=dict)
    transient_set: set[NodeRef] = field(default_factory=set)
    plan: Optional[tuple] = field(default=None, init=False, repr=False,
                                  compare=False)


def _build_expr(g: Dfg, expr: Expr, labels: dict[str, NodeRef],
                clamp_map: dict[NodeRef, str]) -> NodeRef:
    if isinstance(expr, Literal):
        return g.request_constant(expr.value)
    if isinstance(expr, LabelRef):
        return labels[expr.name]
    if isinstance(expr, Opaque):
        args = tuple(_build_expr(g, a, labels, clamp_map)
                     for a in expr.args)
        ref = g.request_opaque(args, clamp=expr.clamp)
        if expr.clamp is not None:
            clamp_map[ref] = expr.clamp
        return ref
    _check_arity(expr.op, len(expr.args), 0, 0)
    kind = _OP_KIND[expr.op]
    args = tuple(_build_expr(g, a, labels, clamp_map)
                 for a in expr.args)
    if kind is NodeKind.STORE:
        return g.record_store(*args)
    if kind is NodeKind.LOAD:
        return g.request_load(*args)
    return g.request_operation(kind, args)


def build_variant(v: VariantDef) -> SignatureGraph:
    """The graph of `v`, built once per variant object: every call on
    the same `VariantDef` returns the same, read-only `SignatureGraph`.
    A variant that fails to build raises again on the next call."""
    return v._built


def _build(v: VariantDef) -> SignatureGraph:
    g = Dfg()
    labels: dict[str, NodeRef] = {}
    clamp_map: dict[NodeRef, str] = {}
    roots: list[NodeRef] = []
    transients: list[NodeRef] = []
    for st in v.statements:
        ref = _build_expr(g, st.expr, labels, clamp_map)
        if st.label is not None:
            labels[st.label] = ref
        (transients if st.transient else roots).append(ref)
    g.purge(roots)
    return SignatureGraph(
        g,
        {r: lab for r, lab in clamp_map.items() if r in g},
        {r for r in transients if r in g},
    )
