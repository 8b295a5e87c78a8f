"""LaTeX rendering of constraint systems and multiplier identities.

Output is a standalone ``article`` document using only ``amsmath``; no
custom macros are emitted, so it compiles as-is.  Symbol names with a
Greek spelling get the Greek letter, trailing digits and underscore
suffixes become subscripts, and constitutive partials render as
``\\frac{\\partial ...}{\\partial ...}`` fractions.
"""

from __future__ import annotations

from typing import Optional

from ._ratio import Q
from .atoms import Atom, ConstitPartial, ConstitSym, IndepVar, JetVar
from .render import RenderContext, signed_sum

__all__ = ["atom_tex", "poly_tex", "expr_tex", "relations_document"]

_GREEK = {
    "alpha": r"\alpha", "beta": r"\beta", "gamma": r"\gamma",
    "delta": r"\delta", "eps": r"\varepsilon", "epsilon": r"\varepsilon",
    "zeta": r"\zeta", "eta": r"\eta", "theta": r"\theta", "kappa": r"\kappa",
    "lam": r"\lambda", "Lam": r"\Lambda", "lambda": r"\lambda",
    "mu": r"\mu", "nu": r"\nu", "xi": r"\xi", "pi": r"\pi", "rho": r"\rho",
    "sigma": r"\sigma", "tau": r"\tau", "phi": r"\varphi", "Phi": r"\Phi",
    "chi": r"\chi", "psi": r"\psi", "omega": r"\omega", "Omega": r"\Omega",
}


def _split_digits(s: str) -> tuple[str, str]:
    i = len(s)
    while i > 0 and s[i - 1].isdigit():
        i -= 1
    return s[:i], s[i:]


def _stem_tex(stem: str) -> str:
    if stem in _GREEK:
        return _GREEK[stem]
    if len(stem) == 1:
        return stem
    return r"\mathrm{" + stem + "}"


def name_tex(name: str) -> str:
    """A display name like ``rho_t``, ``Phi1`` or ``Lam_energy``."""
    parts = name.split("_")
    stem, digits = _split_digits(parts[0])
    head = _stem_tex(stem)
    subs = []
    if digits:
        subs.append(digits)
    for p in parts[1:]:
        if not p:
            continue
        s, d = _split_digits(p)
        subs.append((_stem_tex(s) if s else "") + d)
    if subs:
        return head + "_{" + ",".join(subs) + "}"
    return head


def atom_tex(a: Atom, ctx: Optional[RenderContext] = None) -> str:
    if isinstance(a, IndepVar):
        return name_tex(a.name)
    if isinstance(a, ConstitSym):
        return name_tex(a.name)
    if isinstance(a, JetVar):
        if not any(a.orders):
            return name_tex(a.field)
        if ctx is not None and len(ctx.indep_names) == len(a.orders):
            suffix = a.suffix(ctx.indep_names)
        else:
            suffix = "".join(f"x{j}" * k for j, k in enumerate(a.orders))
        base = name_tex(a.field)
        if base.endswith("}") and "_{" in base:
            return base[:-1] + "," + suffix + "}"
        return base + "_{" + suffix + "}"
    if isinstance(a, ConstitPartial):
        order = a.order
        head = (
            r"\partial " if order == 1 else r"\partial^{%d} " % order
        ) + name_tex(a.name)
        names = ctx.arg_names.get(a.name) if ctx is not None else None
        dens = []
        for j, k in enumerate(a.slots):
            if k == 0:
                continue
            label = names[j] if names and j < len(names) else f"a{j}"
            piece = r"\partial " + name_tex(label)
            if k > 1:
                piece += "^{%d}" % k
            dens.append(piece)
        return r"\frac{" + head + "}{" + r"\,".join(dens) + "}"
    return str(a)


def _coeff_tex(c: Q) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    sign = "-" if c < 0 else ""
    return sign + r"\tfrac{%d}{%d}" % (abs(c.numerator), c.denominator)


def _mono_tex(m, ctx, labels: dict) -> str:
    """``m`` as a product; ``labels`` caches each atom's rendering."""
    parts = []
    for a, e in m:
        s = labels.get(a)
        if s is None:
            s = labels[a] = atom_tex(a, ctx)
        parts.append(s if e == 1 else s + "^{%d}" % e)
    return r"\,".join(parts)


def poly_tex(p, ctx: Optional[RenderContext] = None) -> str:
    labels: dict = {}
    return signed_sum(p, _coeff_tex, lambda m: _mono_tex(m, ctx, labels), r"\,")


def expr_tex(e, ctx: Optional[RenderContext] = None) -> str:
    num = poly_tex(e.num, ctx)
    if e.is_polynomial():
        return num
    return r"\frac{" + num + "}{" + poly_tex(e.den, ctx) + "}"


def relations_document(
    title: str,
    equalities,
    residual,
    ctx: RenderContext,
    nonzero=(),
) -> str:
    """Standalone document: each equality set to zero, the residual as an
    inequality, and any side conditions listed as nonvanishing."""
    lines = [
        r"\documentclass{article}",
        r"\usepackage{amsmath}",
        r"\allowdisplaybreaks",
        r"\begin{document}",
        r"\section*{" + title + "}",
    ]
    eqs = list(equalities)
    if eqs:
        lines.append(r"\begin{gather}")
        body = [expr_tex(c, ctx) + " = 0" for c in eqs]
        lines.append(" \\\\\n".join(body))
        lines.append(r"\end{gather}")
    if residual is not None:
        lines.append(r"\begin{gather}")
        lines.append(expr_tex(residual, ctx) + r" \geq 0")
        lines.append(r"\end{gather}")
    nz = list(nonzero)
    if nz:
        lines.append(r"\begin{gather}")
        body = [expr_tex(c, ctx) + r" \neq 0" for c in nz]
        lines.append(" \\\\\n".join(body))
        lines.append(r"\end{gather}")
    lines.append(r"\end{document}")
    return "\n".join(lines) + "\n"
