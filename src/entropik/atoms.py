"""Interned jet-space symbols.

An :class:`Atom` is an indivisible symbol of the expression algebra:

* :class:`IndepVar` -- an independent variable (``t``, ``x``, ...);
* :class:`JetVar` -- a field derivative identified by field name and a
  multi-index of derivative orders, one entry per independent variable
  (the zero multi-index is the field itself);
* :class:`Constit` -- an atom of an undetermined constitutive function:
  :class:`ConstitPartial`, a partial derivative identified by
  per-argument-slot differentiation counts ``slots``, or
  :class:`ConstitSym`, the function as an opaque symbol, which is its own
  partial of order zero: ``slots == ()``, dominated by every partial.

Atoms are interned: structurally equal atoms are the *same* object, so
identity comparison and the default hash are valid.  A global total order
(IndepVar < JetVar < ConstitSym < ConstitPartial, then lexicographic on the
structural payload) is exposed through ``Atom.key`` and ``<``; canonical
expression forms rely on it.

The interner is the only shared mutable state in the kernel; registration
uses ``dict.setdefault`` and is safe under concurrent use.  A constructor
first looks its arguments up as the interned key, when they can be one (a
multi-index given as a tuple), and normalizes and validates them only on a
miss; nearly every call is a hit.  An invalid multi-index is never
interned, so it always misses and raises.

An atom's label comes from :func:`entropik.render.atom_str`; ``str()`` of
an atom is that label with no model context (``rho[1,0]``, ``d2q/da0.da0``).
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "Atom",
    "IndepVar",
    "JetVar",
    "Constit",
    "ConstitSym",
    "ConstitPartial",
    "mi_bump",
    "mi_unit",
    "mi_total",
    "mi_dominates",
]


# ---------------------------------------------------------------------------
# Multi-index helpers.  A multi-index is a plain tuple of nonnegative ints.

def mi_unit(n: int, i: int) -> tuple[int, ...]:
    """The i-th unit multi-index of length n."""
    return tuple(1 if j == i else 0 for j in range(n))


def mi_bump(a: tuple[int, ...], i: int) -> tuple[int, ...]:
    """``a`` with entry i raised by one: one more derivative in direction i."""
    return a[:i] + (a[i] + 1,) + a[i + 1 :]


def mi_total(a: tuple[int, ...]) -> int:
    return sum(a)


def mi_dominates(beta: tuple[int, ...], alpha: tuple[int, ...]) -> bool:
    """True iff beta >= alpha componentwise and beta != alpha; every
    nonempty beta dominates the empty alpha, a function's own slots.

    When alpha identifies a leading derivative of a field, the dominated
    beta identifies one of its differential consequences.
    """
    return beta != alpha and (
        not alpha
        or len(beta) == len(alpha) and all(b >= a for b, a in zip(beta, alpha))
    )


# ---------------------------------------------------------------------------
# Atoms.

class Atom:
    """Base class; use the subclasses' constructors (they intern)."""

    __slots__ = ("key",)
    _interned: dict[tuple, "Atom"] = {}

    def __str__(self) -> str:
        from .render import atom_str

        return atom_str(self)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self}>"

    # Total order over all atoms, by structural key.
    def __lt__(self, other: "Atom") -> bool:
        return self.key < other.key

    @classmethod
    def _intern(cls, key: tuple, **fields) -> "Atom":
        found = Atom._interned.get(key)
        if found is None:
            found = object.__new__(cls)
            found.key = key
            for name, value in fields.items():
                setattr(found, name, value)
            found = Atom._interned.setdefault(key, found)
        return found


_INTERNED = Atom._interned


class IndepVar(Atom):
    __slots__ = ("name",)

    def __new__(cls, name: str) -> "IndepVar":
        return _INTERNED.get((0, name)) or cls._intern(  # type: ignore[return-value]
            (0, name), name=name
        )


class JetVar(Atom):
    __slots__ = ("field", "orders")

    def __new__(cls, field: str, orders: Iterable[int]) -> "JetVar":
        if type(orders) is tuple:  # the key itself, when it is interned
            found = _INTERNED.get((1, field, orders))
            if found is not None:
                return found  # type: ignore[return-value]
        orders = tuple(int(o) for o in orders)
        if any(o < 0 for o in orders):
            raise ValueError(f"negative derivative order in {orders}")
        key = (1, field, orders)
        return cls._intern(key, field=field, orders=orders)  # type: ignore[return-value]

    def suffix(self, indep_names: tuple[str, ...]) -> str:
        """Subscript string like ``tx`` for orders (1,1) over (t, x)."""
        return "".join(n * k for n, k in zip(indep_names, self.orders))


class Constit(Atom):
    """An atom of the unknown function ``name``: its partial with ``slots``
    derivatives per declared argument, ``()`` for the symbol itself."""

    __slots__ = ("name",)


class ConstitSym(Constit):
    __slots__ = ()
    slots: tuple[int, ...] = ()

    def __new__(cls, name: str) -> "ConstitSym":
        return _INTERNED.get((2, name)) or cls._intern(  # type: ignore[return-value]
            (2, name), name=name
        )


class ConstitPartial(Constit):
    """d^k(name) with slot-wise differentiation counts.

    ``slots`` has one entry per declared argument of the constitutive
    symbol; entry j counts differentiations with respect to argument j.
    The atom is opaque to the algebra: nothing tracks what the arguments
    evaluate to.
    """

    __slots__ = ("slots",)

    def __new__(cls, name: str, slots: Iterable[int]) -> "ConstitPartial":
        if type(slots) is tuple:  # the key itself, when it is interned
            found = _INTERNED.get((3, name, slots))
            if found is not None:
                return found  # type: ignore[return-value]
        slots = tuple(int(s) for s in slots)
        if any(s < 0 for s in slots) or sum(slots) == 0:
            raise ValueError(f"invalid slot multi-index {slots}")
        key = (3, name, slots)
        return cls._intern(key, name=name, slots=slots)  # type: ignore[return-value]

    @property
    def order(self) -> int:
        return sum(self.slots)
