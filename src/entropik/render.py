"""Plain-text rendering of atoms and expressions.

Jet variables render as ``rho_tx`` (field name plus derivative suffix) and
constitutive partials as ``d2q1/drho.deps`` when a :class:`RenderContext`
supplies the model's independent-variable and argument names; without one,
positional fallbacks are used.  Monomials print in descending canonical
order, so rendering is deterministic.

A :class:`RenderContext` keeps the label of every atom :func:`poly_str`
has rendered with it, so a report renders each atom once however many
expressions hold it.  Each command builds its own context (see
``ModelDef.render_ctx``), so no label outlives the command.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

from ._ratio import Q
from .atoms import Atom, ConstitPartial, JetVar
from .expr import mono_key

__all__ = ["RenderContext", "atom_str", "expr_str", "poly_str", "signed_sum"]


@dataclass(frozen=True)
class RenderContext:
    indep_names: tuple[str, ...]
    # constitutive name -> display name of each argument slot
    arg_names: Mapping[str, tuple[str, ...]]
    # atom -> its rendering under this context, filled by poly_str
    labels: dict = field(default_factory=dict, compare=False, repr=False)

    @staticmethod
    def labelled(indep_names: tuple[str, ...], args_of: Iterable) -> "RenderContext":
        """Atoms as a model writes them: argument slots named by their jet
        variables; ``args_of`` yields ``(function name, argument atoms)``."""
        base = RenderContext(indep_names, {})
        names = {f: tuple(atom_str(a, base) for a in args) for f, args in args_of}
        return RenderContext(indep_names, names)


def atom_str(a: Atom, ctx: Optional[RenderContext] = None) -> str:
    """The label of ``a``; without a context, jet subscripts and argument
    slots are positional (``rho[1,0]``, ``d2q/da0.da0``)."""
    if isinstance(a, JetVar):
        if not any(a.orders):
            return a.field
        if ctx is not None and len(ctx.indep_names) == len(a.orders):
            return a.field + "_" + a.suffix(ctx.indep_names)
        return f"{a.field}[{','.join(map(str, a.orders))}]"
    if isinstance(a, ConstitPartial):
        order = a.order
        head = f"d{a.name}" if order == 1 else f"d{order}{a.name}"
        names = None
        if ctx is not None:
            names = ctx.arg_names.get(a.name)
        parts = []
        for j, k in enumerate(a.slots):
            label = names[j] if names and j < len(names) else f"a{j}"
            parts.extend([f"d{label}"] * k)
        return head + "/" + ".".join(parts)
    return a.name  # an independent variable or a constitutive symbol


def _mono_str(m, ctx, labels: dict) -> str:
    """``m`` as a product; ``labels`` caches each atom's rendering."""
    parts = []
    for a, e in m:
        s = labels.get(a)
        if s is None:
            s = labels[a] = atom_str(a, ctx)
        parts.append(s if e == 1 else f"{s}^{e}")
    return "*".join(parts)


def signed_sum(
    p,
    coeff: Callable[[Q], str],
    mono: Callable[[tuple], str],
    times: str,
) -> str:
    """Terms of ``p`` in descending canonical order, joined by their signs.

    ``coeff`` formats a positive coefficient, ``mono`` a monomial, and
    ``times`` goes between a coefficient other than one and its monomial.
    """
    if not p:
        return "0"
    s = ""
    for m in sorted(p, key=mono_key, reverse=True):
        c = p[m]
        mag = -c if c < 0 else c
        if not m:
            body = coeff(mag)
        elif mag == 1:
            body = mono(m)
        else:
            body = coeff(mag) + times + mono(m)
        if s:
            s += (" - " if c < 0 else " + ") + body
        else:
            s = ("-" if c < 0 else "") + body
    return s


def poly_str(p, ctx: Optional[RenderContext] = None) -> str:
    labels: dict = {} if ctx is None else ctx.labels
    return signed_sum(p, str, lambda m: _mono_str(m, ctx, labels), "*")


def expr_str(e, ctx: Optional[RenderContext] = None) -> str:
    num = poly_str(e.num, ctx)
    if e.is_polynomial():
        return num
    den = poly_str(e.den, ctx)
    return f"({num})/({den})"
