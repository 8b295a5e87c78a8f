"""Micro-measurement and self-check of the polynomial kernel.

Times the five operations ``bench/bench_poly.py`` times, through the
backend entropik selected (``entropik.backend``), on seeded operands of a
fixed size, and checks algebraic identities that any correct kernel keeps.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction as Q

TERMS = 20
PAIRS = 40
REPEATS = 7


def _atoms():
    from entropik.atoms import ConstitPartial, ConstitSym, IndepVar, JetVar

    return [
        IndepVar("t"), IndepVar("x"),
        JetVar("rho", (0, 0)), JetVar("rho", (0, 1)), JetVar("rho", (1, 0)),
        JetVar("u", (0, 1)), JetVar("eps", (0, 1)),
        ConstitSym("p"), ConstitSym("eta"),
        ConstitPartial("eta", (1, 0)), ConstitPartial("p", (0, 1)),
    ]


def _rand_poly(rnd: random.Random, atoms, terms: int) -> dict:
    p = {}
    while len(p) < terms:
        picked = rnd.sample(atoms, rnd.randint(1, 4))
        mono = tuple(
            sorted(((a, rnd.randint(1, 3)) for a in picked), key=lambda kv: kv[0].key)
        )
        p[mono] = Q(rnd.randint(-99, 99) or 1, rnd.randint(1, 99))
    return p


def _has_float(p: dict) -> bool:
    return any(isinstance(c, float) for c in p.values())


def self_check(pairs, x) -> list[str]:
    """Identity violations of the kernel on ``pairs``; empty when sound."""
    from entropik import backend as k

    bad = []
    for i, (a, b) in enumerate(pairs):
        results = {
            "p_sub(p_add(a, b), b) == a": (k.p_sub(k.p_add(a, b), b), a),
            "p_mul(a, b) == p_mul(b, a)": (k.p_mul(a, b), k.p_mul(b, a)),
            "p_pow(a, 2) == p_mul(a, a)": (k.p_pow(a, 2), k.p_mul(a, a)),
            "p_diff is additive": (
                k.p_diff(k.p_add(a, b), x),
                k.p_add(k.p_diff(a, x), k.p_diff(b, x)),
            ),
        }
        for law, (lhs, rhs) in results.items():
            if lhs != rhs:
                bad.append(f"pair {i}: {law} fails")
            if _has_float(lhs) or _has_float(rhs):
                bad.append(f"pair {i}: {law} yields a float coefficient")
    return bad


def measure(seed: int) -> tuple[dict[str, float], list[str]]:
    """Median microseconds per call for each operation, and the self-check
    failures."""
    from entropik import backend as k

    atoms = _atoms()
    rnd = random.Random(seed)
    pairs = [
        (_rand_poly(rnd, atoms, TERMS), _rand_poly(rnd, atoms, TERMS))
        for _ in range(PAIRS)
    ]
    x = atoms[2]
    ops = {
        "p_add": lambda a, b: k.p_add(a, b),
        "p_sub": lambda a, b: k.p_sub(a, b),
        "p_mul": lambda a, b: k.p_mul(a, b),
        "p_diff": lambda a, b: k.p_diff(a, x),
        "p_pow": lambda a, b: k.p_pow(a, 2),
    }
    out = {}
    for name, fn in ops.items():
        samples = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            for a, b in pairs:
                fn(a, b)
            samples.append((time.perf_counter() - t0) / len(pairs) * 1e6)
        out[f"expr.kernel_{name}_us"] = statistics.median(samples)
    return out, self_check(pairs, x)
