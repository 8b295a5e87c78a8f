"""Tiny expression AST for the model DSL.

Kept separate from the canonical :class:`~entropik.expr.Expr` form so that
model files round-trip through ``format_model``: an Expr cannot represent
an unapplied derivative operator like ``dx(p)``, the AST can.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple, Union

from ._ratio import Q

__all__ = [
    "Num", "Name", "PartialRef", "Call", "BinOp", "Neg", "Node",
    "chain_links", "to_text",
]


@dataclass(frozen=True)
class Num:
    value: Q
    span: Optional[Any] = field(default=None, compare=False)


@dataclass(frozen=True)
class Name:
    ident: str
    span: Optional[Any] = field(default=None, compare=False)


@dataclass(frozen=True)
class PartialRef:
    """``d<sym>/d<arg>`` or ``d2<sym>/d<arg>.d<arg>`` -- a constitutive
    partial of any order, one ``args`` entry per differentiation.

    Only the extended grammar (assumption flags, bindings files) admits
    this form; model files do not need it.
    """

    sym: str
    args: Tuple[str, ...]
    span: Optional[Any] = field(default=None, compare=False)


@dataclass(frozen=True)
class Call:
    func: str
    args: Tuple["Node", ...]
    span: Optional[Any] = field(default=None, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"
    span: Optional[Any] = field(default=None, compare=False)


@dataclass(frozen=True)
class Neg:
    operand: "Node"
    span: Optional[Any] = field(default=None, compare=False)


Node = Union[Num, Name, PartialRef, Call, BinOp, Neg]

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG_PREC = 3  # binds tighter than * /, looser than ^


def _prec(node: Node) -> int:
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _NEG_PREC
    return 9


def chain_links(node: BinOp) -> list[BinOp]:
    """The operators of the left-associative chain ``node`` ends, first
    one first: ``a - b + c`` gives ``a - b`` then ``(a - b) + c``.  A chain
    is one precedence level; ``^`` is not a chain, so it is one link."""
    links = [node]
    while node.op != "^" and isinstance(node.left, BinOp) and (
        _PREC[node.left.op] == _PREC[node.op]
    ):
        node = node.left
        links.append(node)
    return links[::-1]


def to_text(node: Node) -> str:
    """Deterministic source form; parses back to an equal AST."""
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, PartialRef):
        order = len(node.args)
        head = f"d{node.sym}" if order == 1 else f"d{order}{node.sym}"
        return head + "/" + ".".join(f"d{a}" for a in node.args)
    if isinstance(node, Call):
        return f"{node.func}({', '.join(to_text(a) for a in node.args)})"
    if isinstance(node, Neg):
        inner = to_text(node.operand)
        if _prec(node.operand) < _NEG_PREC:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, BinOp):
        p = _PREC[node.op]
        links = chain_links(node)
        left = to_text(links[0].left)
        parts = [f"({left})" if _prec(links[0].left) < p else left]
        # Left-associative; '^' right-operand must be atomic anyway.
        for link in links:
            right = to_text(link.right)
            if _prec(link.right) <= p and link.op in "-/^" or _prec(link.right) < p:
                right = f"({right})"
            parts.append(f" {link.op} {right}" if p == 1 else f"{link.op}{right}")
        return "".join(parts)
    raise TypeError(f"not an AST node: {node!r}")
