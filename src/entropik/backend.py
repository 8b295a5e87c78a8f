"""Sparse multivariate polynomial kernels.

A polynomial is a dict mapping monomials to nonzero exact rational
coefficients: a plain ``int`` when the value is integral and a
``fractions.Fraction`` when it is not, never a ``float``.  These kernels
only add, subtract and multiply, so int coefficients stay ints; division
goes through ``entropik._ratio.qdiv``.  A monomial is a tuple of
``(atom, exponent)`` pairs with positive exponents, sorted by the global
atom order; the empty tuple is the unit monomial.  Zero is the empty dict.

The format's term rule lives here once.  :func:`p_addmul` is the one step
that adds terms into a polynomial: a term meets its monomial's entry, a
zero sum deletes it, and a new monomial goes last, which fixes the term
order; :func:`p_mul` and every caller that accumulates terms go through
it, and only :func:`p_add` keeps its own loop.

``BACKEND`` names the kernel in benchmark stamps; there is only this one.
"""

from __future__ import annotations

BACKEND = "python"


def mono_mul(m1, m2):
    """Merge two sorted monomials."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1 = len(m1)
    n2 = len(m2)
    while i < n1 and j < n2:
        a1, e1 = m1[i]
        a2, e2 = m2[j]
        if a1 is a2:
            out.append((a1, e1 + e2))
            i += 1
            j += 1
        elif a1.key < a2.key:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    if i < n1:
        out.extend(m1[i:])
    if j < n2:
        out.extend(m2[j:])
    return tuple(out)


def p_add(p1, p2):
    if not p1:
        return dict(p2)
    if not p2:
        return dict(p1)
    out = dict(p1)
    for m, c in p2.items():
        s = out.get(m)
        if s is None:
            out[m] = c
        else:
            s = s + c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def p_neg(p):
    return {m: -c for m, c in p.items()}

def p_sub(p1, p2):
    return p_add(p1, p_neg(p2))


def p_addmul(out, p, m, c):
    """Add ``c*m*p`` into ``out`` in place: each term of ``p`` is moved by
    the monomial ``m``, its coefficient multiplied by ``c`` (always, so the
    product's type is the arithmetic's), and added into its entry."""
    for pm, pc in p.items():
        k = mono_mul(m, pm)
        v = c * pc
        s = out.get(k)
        if s is None:
            out[k] = v
        else:
            s = s + v
            if s:
                out[k] = s
            else:
                del out[k]


def p_mul(p1, p2):
    if not p1 or not p2:
        return {}
    if len(p1) > len(p2):
        p1, p2 = p2, p1
    out = {}
    for m1, c1 in p1.items():
        p_addmul(out, p2, m1, c1)
    return out


def p_pow(p, n):
    if n == 0:
        return {(): 1}
    result = None
    base = p
    while True:
        if n & 1:
            result = base if result is None else p_mul(result, base)
        n >>= 1
        if not n:
            return result
        base = p_mul(base, base)


def p_diff(p, atom):
    """Formal partial derivative in a single atom.  Lowering the atom's
    exponent by one maps distinct monomials to distinct ones, and
    ``c * e`` is never zero, so each term is new and nothing merges."""
    out = {}
    for m, c in p.items():
        for idx, (a, e) in enumerate(m):
            if a is atom:
                if e == 1:
                    nm = m[:idx] + m[idx + 1 :]
                else:
                    nm = m[:idx] + ((a, e - 1),) + m[idx + 1 :]
                out[nm] = c * e
                break
    return out
