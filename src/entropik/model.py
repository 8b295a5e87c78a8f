"""Model intermediate representation.

A :class:`ModelDef` bundles the registries a derivation needs: independent
variables, fields, constitutive declarations, balance equations, the
entropy inequality, the chosen leading derivatives, nonzero assumptions,
and the differential-order cap.  Equation and entropy left-hand sides are
stored fully chain-expanded (all derivative operators applied, constitutive
derivatives turned into ConstitPartial atoms); the original source ASTs are
retained for formatting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import ge
from typing import Optional

from .ast_nodes import Node
from .atoms import Atom, IndepVar, JetVar, mi_dominates, mi_total
from .errors import ModelError
from .expr import DiffContext, Expr
from .render import RenderContext, atom_str

__all__ = [
    "ConstitDecl",
    "Equation",
    "ModelDef",
]


@dataclass(frozen=True)
class ConstitDecl:
    """A constitutive function: name, ordered argument atoms, and the
    unordered argument pairs whose mixed dependence is symmetric."""

    name: str
    args: tuple[Atom, ...]
    symmetric: tuple[tuple[int, int], ...] = ()

    @property
    def arity(self) -> int:
        return len(self.args)


@dataclass(frozen=True)
class Equation:
    """A balance equation ``lhs = 0`` with ``lhs`` chain-expanded."""

    label: str
    lhs: Expr
    # Source ASTs of the two sides as written, for round-trip formatting;
    # equality ignores them.
    lhs_ast: Optional[Node] = field(default=None, compare=False)
    rhs_ast: Optional[Node] = field(default=None, compare=False)


@dataclass(frozen=True)
class ModelDef:
    indep: tuple[IndepVar, ...]
    fields: tuple[str, ...]
    decls: tuple[ConstitDecl, ...]
    equations: tuple[Equation, ...]
    entropy_lhs: Expr
    leading: tuple[JetVar, ...]
    nonzero: tuple[Expr, ...] = ()
    max_order: int = 4
    # Source ASTs, for round-trip formatting; equality ignores them.
    entropy_ast: Optional[Node] = field(default=None, compare=False)
    nonzero_asts: tuple[Node, ...] = field(default=(), compare=False)

    # -- derived views ----------------------------------------------------

    @property
    def indep_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.indep)

    def decl_map(self) -> dict[str, ConstitDecl]:
        return {d.name: d for d in self.decls}

    def diff_ctx(self) -> DiffContext:
        return DiffContext(
            indep=self.indep, args={d.name: d.args for d in self.decls}
        )

    def render_ctx(self) -> RenderContext:
        return RenderContext.labelled(
            self.indep_names, ((d.name, d.args) for d in self.decls)
        )

    def dependency_atoms(self) -> set[Atom]:
        out: set[Atom] = set()
        for d in self.decls:
            out.update(d.args)
        return out

    def dominated_leading(self, a: Atom) -> Optional[JetVar]:
        """The leading derivative of highest order that ``a`` is or
        dominates, the first such on a tie; None if there is none."""
        best = None
        if isinstance(a, JetVar):
            for ld in self.leading:
                if ld.field == a.field and all(map(ge, a.orders, ld.orders)):
                    if best is None or mi_total(ld.orders) > mi_total(best.orders):
                        best = ld
        return best

    def is_consequence(self, a: Atom) -> bool:
        """True iff ``a`` is a leading derivative or dominates one."""
        return self.dominated_leading(a) is not None

    # -- validation -------------------------------------------------------

    def validate(self) -> None:
        """The whole-model checks; the parser has already rejected
        duplicate names, repeated or non-jet arguments, symmetric pairs
        outside the argument list and undeclared symbols."""
        for d in self.decls:
            for i, j in d.symmetric:
                if i == j:
                    raise ModelError(
                        f"constitutive {d.name}: invalid symmetric pair ({i}, {j})"
                    )
        if len(self.leading) != len(self.equations):
            raise ModelError(
                f"{len(self.leading)} leading derivatives for "
                f"{len(self.equations)} equations"
            )
        for i, a in enumerate(self.leading):
            for b in self.leading[i + 1 :]:
                if a.field == b.field and (
                    mi_dominates(a.orders, b.orders)
                    or mi_dominates(b.orders, a.orders)
                ):
                    raise ModelError(
                        f"leading derivatives are not independent: "
                        f"{atom_str(a, self.render_ctx())} and "
                        f"{atom_str(b, self.render_ctx())}"
                    )
        occurring: set[Atom] = set()
        for eq in self.equations:
            if not any(isinstance(a, JetVar) for a in eq.lhs.atoms()):
                raise ModelError(f"equation {eq.label}: no jet variable on the left")
            occurring.update(eq.lhs.atoms())
        for ld in self.leading:
            if ld not in occurring:
                raise ModelError(
                    f"leading derivative {atom_str(ld, self.render_ctx())} "
                    "appears in no equation"
                )
