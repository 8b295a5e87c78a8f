"""Line-oriented model DSL: parsing, diagnostics, formatting.

Grammar (one directive per line, ``#`` starts a comment):

.. code-block:: text

    independent <name>+
    field <name>+
    constitutive <name>(<arg>, ...) [symmetric (<arg>, <arg>) ...]
    equation <label>: <expr> = <expr>
    entropy: <expr> >= 0
    leading: <derivative>, ...
    assume nonzero: <expr>, ...
    max_order: <int>

Expressions use rationals, names, ``+ - * / ^``, parentheses, and one
derivative operator per independent variable (``dt``, ``dx``, ...),
arbitrarily nested.  ``^`` binds tighter than unary minus.  The *extended*
grammar (used by assumption flags and bindings files, and accepted on
``assume`` lines) additionally allows first-order constitutive partials
``d<sym>/d<arg>`` and jet-suffix names such as ``rho_t``.

The parser is total: any input yields either a ModelDef or at least one
error diagnostic with a source span.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from ._ratio import Q
from .ast_nodes import (
    BinOp, Call, Name, Neg, Node, Num, PartialRef, chain_links, to_text,
)
from .atoms import Atom, ConstitPartial, ConstitSym, IndepVar, JetVar
from .errors import DivisionByZeroExpr, ModelError
from .expr import DiffContext, Expr, total_derivative
from .model import ConstitDecl, Equation, ModelDef
from .render import RenderContext, atom_str

__all__ = [
    "SourceSpan",
    "ParseDiagnostic",
    "ParseResult",
    "parse_model",
    "format_model",
    "CompileEnv",
    "model_env",
    "compile_node",
    "parse_expr_text",
    "ParseFailure",
    "UnknownName",
]


# ---------------------------------------------------------------------------
# Diagnostics.

@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    col_start: int
    col_end: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col_start}"


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: str  # "error" | "warning"
    message: str
    span: SourceSpan
    hint: Optional[str] = None

    def __str__(self) -> str:
        s = f"{self.span}: {self.severity}: {self.message}"
        if self.hint:
            s += f" ({self.hint})"
        return s


class ParseFailure(Exception):
    """Aborts parsing or compiling the current directive or expression,
    carrying its diagnostic."""

    def __init__(self, message: str, span: SourceSpan, hint: Optional[str] = None):
        super().__init__(message)
        self.diag = ParseDiagnostic("error", message, span, hint)


class UnknownName(ParseFailure):
    """A name the environment does not know: ``what`` is ``identifier``,
    ``function`` or ``constitutive symbol`` and ``name`` is the name."""

    def __init__(self, what: str, name: str, span: SourceSpan):
        super().__init__(f"unknown {what} '{name}'", span)
        self.what = what
        self.name = name


# ---------------------------------------------------------------------------
# Lexer.

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<num>\d+)|(?P<op>>=|[-+*/^(),:=.]))"
)


@dataclass(frozen=True)
class _Tok:
    kind: str  # name | num | op | end
    text: str
    col: int  # 1-based


def _lex(line: str, lineno: int, filename: str) -> list[_Tok]:
    toks = []
    pos = 0
    while pos < len(line):
        m = _TOKEN_RE.match(line, pos)
        if not m:
            stripped = line[pos:].lstrip()
            if not stripped:
                break
            col = len(line) - len(stripped) + 1
            raise ParseFailure(
                f"unexpected character {stripped[0]!r}",
                SourceSpan(filename, lineno, col, col + 1),
            )
        if m.lastgroup:
            toks.append(_Tok(m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup) + 1))
        pos = m.end()
    toks.append(_Tok("end", "", len(line) + 1))
    return toks


# Deepest nesting of parentheses and unary minus signs in one expression.
# Each level costs a few frames of the recursive-descent grammar, so this
# keeps every expression well below Python's recursion limit.
MAX_NESTING = 64


class _Cursor:
    """The tokens of one line.  ``partials`` switches on the extended
    grammar's partial references ``d<sym>/d<arg>``."""

    def __init__(self, toks: list[_Tok], lineno: int, filename: str,
                 partials: bool = False):
        self.toks = toks
        self.i = 0
        self.lineno = lineno
        self.filename = filename
        self.partials = partials
        self.depth = 0

    def peek(self, ahead: int = 0) -> _Tok:
        j = min(self.i + ahead, len(self.toks) - 1)
        return self.toks[j]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        if t.kind != "end":
            self.i += 1
        return t

    def span(self, tok: _Tok) -> SourceSpan:
        return SourceSpan(
            self.filename, self.lineno, tok.col, tok.col + max(len(tok.text), 1)
        )

    def expect(self, kind: str, text: Optional[str] = None) -> _Tok:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            raise ParseFailure(f"expected '{want}', found {t.text!r}", self.span(t))
        return self.next()

    def at_end(self) -> bool:
        return self.peek().kind == "end"

    def expect_end(self) -> None:
        t = self.peek()
        if t.kind != "end":
            raise ParseFailure(f"unexpected trailing input {t.text!r}", self.span(t))

    def nested(self, tok: _Tok, item: Callable[["_Cursor"], Node]) -> Node:
        """``item(self)``, one nesting level below the opening ``tok``."""
        if self.depth == MAX_NESTING:
            raise ParseFailure(
                f"expression nested more than {MAX_NESTING} levels deep", self.span(tok)
            )
        self.depth += 1
        node = item(self)
        self.depth -= 1
        return node

    def comma_list(self, item: Callable[["_Cursor"], Node]) -> Iterator[Node]:
        """Comma-separated items, each yielded as soon as it is read."""
        yield item(self)
        while self.peek().text == ",":
            self.next()
            yield item(self)


# ---------------------------------------------------------------------------
# Expression grammar (tokens -> AST).

def _parse_expr(c: _Cursor) -> Node:
    node = _parse_product(c)
    while c.peek().kind == "op" and c.peek().text in "+-":
        t = c.next()
        node = BinOp(t.text, node, _parse_product(c), span=c.span(t))
    return node


def _parse_product(c: _Cursor) -> Node:
    node = _parse_unary(c)
    while c.peek().kind == "op" and c.peek().text in "*/":
        t = c.next()
        node = BinOp(t.text, node, _parse_unary(c), span=c.span(t))
    return node


def _parse_unary(c: _Cursor) -> Node:
    t = c.peek()
    if t.kind == "op" and t.text == "-":
        c.next()
        return Neg(c.nested(t, _parse_unary), span=c.span(t))
    return _parse_power(c)


def _parse_power(c: _Cursor) -> Node:
    node = _parse_primary(c)
    if c.peek().kind == "op" and c.peek().text == "^":
        t = c.next()
        node = BinOp("^", node, _parse_exponent(c), span=c.span(t))
    return node


def _parse_exponent(c: _Cursor) -> Node:
    t = c.peek()
    if t.kind == "num":
        c.next()
        return Num(Q(t.text), span=c.span(t))
    raise ParseFailure("exponent must be a nonnegative integer literal", c.span(t))


def _looks_like_partial(c: _Cursor) -> bool:
    t = c.peek()
    return (
        t.kind == "name"
        and len(t.text) > 1
        and t.text[0] == "d"
        and c.peek(1).kind == "op"
        and c.peek(1).text == "/"
        and c.peek(2).kind == "name"
        and len(c.peek(2).text) > 1
        and c.peek(2).text[0] == "d"
    )


def _parse_primary(c: _Cursor) -> Node:
    t = c.peek()
    if t.kind == "num":
        c.next()
        return Num(Q(t.text), span=c.span(t))
    if t.kind == "name":
        if c.partials and _looks_like_partial(c):
            sym_tok = c.next()
            c.next()  # '/'
            digits, head = re.match(r"(\d*)(.*)", sym_tok.text[1:]).groups()
            args = [c.next().text[1:]]
            while c.peek().kind == "op" and c.peek().text == ".":
                c.next()
                arg_tok = c.expect("name")
                if len(arg_tok.text) < 2 or arg_tok.text[0] != "d":
                    raise ParseFailure(
                        "each partial denominator factor must be d<arg>",
                        c.span(arg_tok),
                    )
                args.append(arg_tok.text[1:])
            if digits and int(digits) != len(args):
                raise ParseFailure(
                    f"partial order {digits} does not match "
                    f"{len(args)} denominator factor(s)",
                    c.span(sym_tok),
                )
            if not head:
                raise ParseFailure(
                    "partial reference names no constitutive symbol",
                    c.span(sym_tok),
                )
            return PartialRef(head, tuple(args), span=c.span(sym_tok))
        c.next()
        if c.peek().kind == "op" and c.peek().text == "(":
            args = c.nested(c.next(), lambda c: tuple(c.comma_list(_parse_expr)))
            c.expect("op", ")")
            return Call(t.text, args, span=c.span(t))
        return Name(t.text, span=c.span(t))
    if t.kind == "op" and t.text == "(":
        c.next()
        node = c.nested(t, _parse_expr)
        c.expect("op", ")")
        return node
    raise ParseFailure(f"expected an expression, found {t.text!r}", c.span(t))


def parse_expr_text(
    text: str, filename: str = "<expr>", lineno: int = 1
) -> Node:
    """Parse a standalone expression in the extended grammar."""
    c = _Cursor(_lex(text, lineno, filename), lineno, filename, partials=True)
    node = _parse_expr(c)
    c.expect_end()
    return node


# ---------------------------------------------------------------------------
# Compilation (AST -> Expr).

@dataclass
class CompileEnv:
    indep: tuple[IndepVar, ...]
    fields: tuple[str, ...]
    decls: dict[str, ConstitDecl]
    extended: bool = False
    parameters: frozenset[str] = frozenset()
    diff_ctx: Optional[DiffContext] = None  # built from ``decls`` when None

    def __post_init__(self):
        self.indep_by_name = {v.name: v for v in self.indep}
        if self.diff_ctx is None:
            self.diff_ctx = DiffContext(
                indep=self.indep, args={n: d.args for n, d in self.decls.items()}
            )
        self.deriv_ops = {"d" + v.name: v for v in self.indep}
        self.render_ctx = RenderContext(
            indep_names=tuple(v.name for v in self.indep), arg_names={}
        )

    def resolve_jet_suffix(self, ident: str) -> Optional[JetVar]:
        if "_" not in ident:
            return None
        base, _, suffix = ident.partition("_")
        if base not in self.fields:
            return None
        orders = [0] * len(self.indep)
        names = [v.name for v in self.indep]
        rest = suffix
        while rest:
            for i, n in enumerate(names):
                if rest.startswith(n):
                    orders[i] += 1
                    rest = rest[len(n) :]
                    break
            else:
                return None
        return JetVar(base, tuple(orders))


def model_env(m: ModelDef, parameters: frozenset[str] = frozenset()) -> CompileEnv:
    """The extended environment for text written against a parsed model:
    its names, jet-suffix names and the named opaque ``parameters``."""
    return CompileEnv(
        indep=m.indep, fields=m.fields, decls=m.decl_map(), extended=True,
        parameters=parameters,
    )


_BINARY = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
}


def compile_node(node: Node, env: CompileEnv) -> Expr:
    if isinstance(node, Num):
        return Expr.rational(node.value)
    if isinstance(node, Name):
        ident = node.ident
        iv = env.indep_by_name.get(ident)
        if iv is not None:
            return Expr.atom(iv)
        if ident in env.fields:
            return Expr.atom(JetVar(ident, (0,) * len(env.indep)))
        if ident in env.decls or ident in env.parameters:
            return Expr.atom(ConstitSym(ident))
        if env.extended:
            jv = env.resolve_jet_suffix(ident)
            if jv is not None:
                return Expr.atom(jv)
        raise UnknownName("identifier", ident, node.span)
    if isinstance(node, PartialRef):
        decl = env.decls.get(node.sym)
        if decl is None:
            raise UnknownName("constitutive symbol", node.sym, node.span)
        labels = [atom_str(a, env.render_ctx) for a in decl.args]
        slots = [0] * decl.arity
        for arg in node.args:
            if arg not in labels:
                raise ParseFailure(
                    f"'{node.sym}' has no argument '{arg}'",
                    node.span,
                    hint=f"arguments are: {', '.join(labels)}",
                )
            slots[labels.index(arg)] += 1
        return Expr.atom(ConstitPartial(node.sym, tuple(slots)))
    if isinstance(node, Call):
        iv = env.deriv_ops.get(node.func)
        if iv is not None:
            if len(node.args) != 1:
                raise ParseFailure(
                    f"derivative operator {node.func} takes one argument", node.span
                )
            inner = compile_node(node.args[0], env)
            return total_derivative(inner, iv, env.diff_ctx)
        decl = env.decls.get(node.func)
        if decl is not None:
            if len(node.args) != decl.arity:
                raise ParseFailure(
                    f"'{node.func}' declared with {decl.arity} argument(s), "
                    f"used with {len(node.args)}",
                    node.span,
                )
            for given, declared in zip(node.args, decl.args):
                g = compile_node(given, env)
                if g != Expr.atom(declared):
                    raise ParseFailure(
                        f"'{node.func}' argument mismatch: expected "
                        f"{atom_str(declared, env.render_ctx)}",
                        node.span,
                    )
            return Expr.atom(ConstitSym(node.func))
        raise UnknownName("function", node.func, node.span)
    if isinstance(node, Neg):
        return -compile_node(node.operand, env)
    if isinstance(node, BinOp) and node.op == "^":
        assert isinstance(node.right, Num)
        return compile_node(node.left, env) ** int(node.right.value)
    if isinstance(node, BinOp):
        # A left-associative chain is walked in a loop, so a long sum or
        # product costs no stack frame per operator.
        links = chain_links(node)
        value = compile_node(links[0].left, env)
        for link in links:
            right = compile_node(link.right, env)
            try:
                value = _BINARY[link.op](value, right)
            except DivisionByZeroExpr:
                raise ParseFailure(
                    "division by an expression that normalizes to zero", link.span
                )
        return value
    raise TypeError(f"not an AST node: {node!r}")


# ---------------------------------------------------------------------------
# The model parser.

@dataclass
class ParseResult:
    model: Optional[ModelDef]
    diagnostics: list[ParseDiagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.model is not None and not any(
            d.severity == "error" for d in self.diagnostics
        )

    def raise_on_error(self) -> ModelDef:
        if not self.ok:
            msgs = "\n".join(str(d) for d in self.diagnostics)
            raise ModelError(f"model did not parse:\n{msgs}")
        return self.model


def _split_top(
    c: _Cursor, op_text: str
) -> Optional[int]:
    """Index of the first top-level occurrence of an operator token."""
    depth = 0
    for j in range(c.i, len(c.toks)):
        t = c.toks[j]
        if t.kind != "op":
            continue
        if t.text == "(":
            depth += 1
        elif t.text == ")":
            depth -= 1
        elif t.text == op_text and depth == 0:
            return j
    return None


def parse_model(text: str, filename: str = "<model>") -> ParseResult:
    diags: list[ParseDiagnostic] = []

    # Directive lines, comment-stripped, with their numbers.
    lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if body.strip():
            lines.append((lineno, body))

    # -- pass 1: declarations -------------------------------------------
    indep: list[str] = []
    fields: list[str] = []
    decl_lines: list[_Cursor] = []
    other_lines: list[tuple[str, _Cursor]] = []
    max_order = 4

    for lineno, body in lines:
        try:
            c = _Cursor(_lex(body, lineno, filename), lineno, filename)
            head = c.next()
            if head.kind != "name":
                raise ParseFailure("expected a directive", c.span(head))
            kw = head.text
            if kw in ("independent", "field"):
                names, what = (
                    (indep, "independent variable") if kw == "independent"
                    else (fields, "field")
                )
                while not c.at_end():
                    t = c.expect("name")
                    if t.text in names:
                        raise ParseFailure(f"duplicate {what} '{t.text}'", c.span(t))
                    names.append(t.text)
            elif kw == "constitutive":
                decl_lines.append(c)
            elif kw == "max_order":
                c.expect("op", ":")
                max_order = int(c.expect("num").text)
                c.expect_end()
            elif kw in ("equation", "entropy", "leading", "assume"):
                c.partials = kw in ("leading", "assume")
                other_lines.append((kw, c))
            else:
                raise ParseFailure(
                    f"unknown directive '{kw}'",
                    c.span(head),
                    hint="expected independent, field, constitutive, equation, "
                    "entropy, leading, assume, or max_order",
                )
        except ParseFailure as e:
            diags.append(e.diag)

    if not indep:
        diags.append(_model_diag(filename, "model declares no independent variables"))
    if not fields:
        diags.append(_model_diag(filename, "model declares no fields"))
    if not indep or not fields:
        return ParseResult(None, diags)

    indep_t = tuple(IndepVar(n) for n in indep)
    fields_t = tuple(fields)

    # One DiffContext for the whole parse, so each chain rule is expanded
    # once.  Argument lists differentiate only field derivatives, which
    # need no declaration; the declarations join before pass 2.
    ctx = DiffContext(indep=indep_t, args={})
    # Environment without constitutive declarations: for argument lists.
    arg_env = CompileEnv(indep=indep_t, fields=fields_t, decls={}, diff_ctx=ctx)

    decls: dict[str, ConstitDecl] = {}
    for c in decl_lines:
        try:
            name_tok = c.expect("name")
            name = name_tok.text
            if name in decls:
                raise ParseFailure(
                    f"duplicate constitutive declaration '{name}'", c.span(name_tok)
                )
            if name in fields or name in indep:
                raise ParseFailure(
                    f"'{name}' is already a field or independent variable",
                    c.span(name_tok),
                )
            c.expect("op", "(")
            args: list[Atom] = []
            for node in c.comma_list(_parse_expr):
                atom = _single_jet_atom(compile_node(node, arg_env))
                if atom is None:
                    raise ParseFailure(
                        "constitutive argument must be a field derivative", node.span
                    )
                if atom in args:
                    raise ParseFailure("repeated constitutive argument", node.span)
                args.append(atom)
            c.expect("op", ")")
            symmetric: list[tuple[int, int]] = []
            if c.peek().kind == "name" and c.peek().text == "symmetric":
                c.next()
                while c.peek().text == "(":
                    c.next()
                    n1 = _parse_expr(c)
                    c.expect("op", ",")
                    n2 = _parse_expr(c)
                    c.expect("op", ")")
                    a1 = _single_jet_atom(compile_node(n1, arg_env))
                    a2 = _single_jet_atom(compile_node(n2, arg_env))
                    if a1 not in args or a2 not in args:
                        raise ParseFailure(
                            "symmetric pair must name declared arguments", n1.span
                        )
                    symmetric.append((args.index(a1), args.index(a2)))
            c.expect_end()
            decls[name] = ConstitDecl(name, tuple(args), tuple(symmetric))
        except ParseFailure as e:
            diags.append(e.diag)

    ctx.args.update((n, d.args) for n, d in decls.items())
    env = CompileEnv(indep=indep_t, fields=fields_t, decls=decls, diff_ctx=ctx)
    ext_env = CompileEnv(
        indep=indep_t, fields=fields_t, decls=decls, extended=True, diff_ctx=ctx
    )

    # -- pass 2: equations, entropy, leading, assumptions ----------------
    equations: list[Equation] = []
    entropy: Optional[Expr] = None
    entropy_ast: Optional[Node] = None
    entropy_count = 0
    leading: list[JetVar] = []
    nonzero: list[Expr] = []
    nonzero_asts: list[Node] = []

    for kw, c in other_lines:
        try:
            if kw == "equation":
                label_tok = c.expect("name")
                c.expect("op", ":")
                if _split_top(c, "=") is None:
                    raise ParseFailure(
                        "equation needs '<expr> = <expr>'", c.span(c.peek())
                    )
                lhs_ast = _parse_expr(c)
                c.expect("op", "=")
                rhs_ast = _parse_expr(c)
                c.expect_end()
                if any(eq.label == label_tok.text for eq in equations):
                    raise ParseFailure(
                        f"duplicate equation label '{label_tok.text}'",
                        c.span(label_tok),
                    )
                lhs = compile_node(lhs_ast, env) - compile_node(rhs_ast, env)
                equations.append(
                    Equation(label_tok.text, lhs, lhs_ast=lhs_ast, rhs_ast=rhs_ast)
                )
            elif kw == "entropy":
                c.expect("op", ":")
                lhs_ast = _parse_expr(c)
                t = c.expect("op", ">=")
                if not compile_node(_parse_expr(c), env).is_zero():
                    raise ParseFailure(
                        "entropy inequality must compare against 0", c.span(t)
                    )
                # Counted before the end check: a line with trailing input
                # is still the model's entropy line.
                entropy_count += 1
                if entropy_count > 1:
                    raise ParseFailure(
                        "model requires exactly one entropy inequality",
                        c.span(t),
                        hint="a previous entropy line exists",
                    )
                c.expect_end()
                entropy = compile_node(lhs_ast, env)
                entropy_ast = lhs_ast
            elif kw == "leading":
                c.expect("op", ":")
                for node in c.comma_list(_parse_expr):
                    atom = _single_jet_atom(compile_node(node, ext_env))
                    if atom is None or not any(atom.orders):
                        raise ParseFailure(
                            "leading entry must be a field derivative", node.span
                        )
                    leading.append(atom)
                c.expect_end()
            elif kw == "assume":
                t = c.expect("name")
                if t.text != "nonzero":
                    raise ParseFailure("expected 'assume nonzero:'", c.span(t))
                c.expect("op", ":")
                for node in c.comma_list(_parse_expr):
                    nonzero.append(compile_node(node, ext_env))
                    nonzero_asts.append(node)
                c.expect_end()
        except ParseFailure as e:
            diags.append(e.diag)

    last = lines[-1][0] if lines else 1
    if entropy_count == 0:
        diags.append(_model_diag(
            filename, "model requires exactly one entropy inequality", last,
            hint="add a line: entropy: <expr> >= 0",
        ))
    if not leading:
        diags.append(_model_diag(filename, "model requires a 'leading:' line", last))
    if any(d.severity == "error" for d in diags):
        return ParseResult(None, diags)

    model = ModelDef(
        indep=indep_t,
        fields=fields_t,
        decls=tuple(decls.values()),
        equations=tuple(equations),
        entropy_lhs=entropy,
        leading=tuple(leading),
        nonzero=tuple(nonzero),
        max_order=max_order,
        entropy_ast=entropy_ast,
        nonzero_asts=tuple(nonzero_asts),
    )
    try:
        model.validate()
    except ModelError as e:
        diags.append(_model_diag(filename, str(e)))
        return ParseResult(None, diags)
    return ParseResult(model, diags)


def _model_diag(
    filename: str, message: str, line: int = 1, hint: Optional[str] = None
) -> ParseDiagnostic:
    """An error about the model as a whole, placed at the start of a line."""
    return ParseDiagnostic("error", message, SourceSpan(filename, line, 1, 2), hint)


def _single_jet_atom(e: Expr) -> Optional[JetVar]:
    atoms = list(e.atoms())
    if len(atoms) == 1 and isinstance(atoms[0], JetVar) and e == Expr.atom(atoms[0]):
        return atoms[0]
    return None


# ---------------------------------------------------------------------------
# Formatting.

def _jet_call_text(jv: JetVar, indep_names: tuple[str, ...]) -> str:
    s = jv.field
    for name, k in zip(indep_names, jv.orders):
        for _ in range(k):
            s = f"d{name}({s})"
    return s


def format_model(m: ModelDef) -> str:
    """Canonical source form; parses back to an equal ModelDef."""
    names = m.indep_names
    out = [f"independent {' '.join(names)}", f"field {' '.join(m.fields)}"]
    for d in m.decls:
        args = ", ".join(_arg_text(a, names) for a in d.args)
        line = f"constitutive {d.name}({args})"
        if d.symmetric:
            pairs = " ".join(
                f"({_arg_text(d.args[i], names)}, {_arg_text(d.args[j], names)})"
                for i, j in d.symmetric
            )
            line += f" symmetric {pairs}"
        out.append(line)
    for eq in m.equations:
        if eq.lhs_ast is None or eq.rhs_ast is None:
            raise ValueError(
                f"equation {eq.label} has no source form to format"
            )
        out.append(
            f"equation {eq.label}: {to_text(eq.lhs_ast)} = {to_text(eq.rhs_ast)}"
        )
    if m.entropy_ast is None:
        raise ValueError("entropy inequality has no source form to format")
    out.append(f"entropy: {to_text(m.entropy_ast)} >= 0")
    out.append(
        "leading: " + ", ".join(_jet_call_text(ld, names) for ld in m.leading)
    )
    if m.nonzero_asts:
        out.append(
            "assume nonzero: " + ", ".join(to_text(a) for a in m.nonzero_asts)
        )
    elif m.nonzero:
        raise ValueError("nonzero assumptions have no source form to format")
    if m.max_order != 4:
        out.append(f"max_order: {m.max_order}")
    return "\n".join(out) + "\n"


def _arg_text(a: Atom, indep_names: tuple[str, ...]) -> str:
    if isinstance(a, JetVar):
        if not any(a.orders):
            return a.field
        return _jet_call_text(a, indep_names)
    return str(a)
