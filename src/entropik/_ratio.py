"""Exact rational coefficients.

Single indirection point for the coefficient arithmetic: no other module
imports ``fractions``.  A coefficient is a plain ``int`` when its value is
integral and a ``Q`` (``fractions.Fraction``) when it is not; it is never a
``float``.  Constructors make ints, sums and products of ints stay ints,
and every coefficient division goes through :func:`qdiv`, since
``int / int`` would give a float.  (Fraction arithmetic can still leave an
integral value in a ``Q``, which is exact, only slower.)
"""

from fractions import Fraction as Q

__all__ = ["Q", "qdiv"]


def qdiv(a, b):
    """Exact quotient ``a / b``: an ``int`` when it is integral, else a ``Q``."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    q = Q(a, b)
    return q.numerator if q.denominator == 1 else q
