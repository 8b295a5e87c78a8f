"""Independent derivation of the 1-D gas constraint set with sympy.

Run directly to print the residual and the constraints; ``derive()``
returns them, and ``tests/test_sympy_oracle.py`` compares them with the
package's.  This script deliberately shares no code with the package:
sympy performs the chain-rule expansion, the linear solve for the leading
derivatives, and the coefficient collection on its own.
"""

import sympy as sp


def derive():
    """The residual entropy production and the constraint coefficients,
    as sympy expressions in the fields and material functions of (t, x)."""
    t, x = sp.symbols("t x")
    rho = sp.Function("rho")(t, x)
    u = sp.Function("u")(t, x)
    eps = sp.Function("eps")(t, x)

    # Material functions of (rho, eps), composed with the fields.
    p = sp.Function("p")(rho, eps)
    q1 = sp.Function("q1")(rho, eps)
    eta = sp.Function("eta")(rho, eps)
    Phi1 = sp.Function("Phi1")(rho, eps)

    mass = rho.diff(t) + (rho * u).diff(x)
    momentum = rho * (u.diff(t) + u * u.diff(x)) + p.diff(x)
    energy = rho * (eps.diff(t) + u * eps.diff(x)) + q1.diff(x) + p * u.diff(x)

    leading = [rho.diff(t), u.diff(t), eps.diff(t)]
    sol = sp.solve([mass, momentum, energy], leading, dict=True)
    assert len(sol) == 1
    sol = sol[0]

    entropy = rho * (eta.diff(t) + u * eta.diff(x)) + Phi1.diff(x)
    on_solutions = sp.expand(entropy.subs(sol).doit())

    free = [rho.diff(x), u.diff(x), eps.diff(x)]
    poly = sp.Poly(on_solutions, free)
    residual = sp.Integer(0)
    constraints = []
    for mono, coeff in poly.terms():
        if sum(mono) == 0:
            residual = coeff
            continue
        constraints.append(sp.simplify(coeff))
    return sp.simplify(residual), constraints


def main():
    residual, constraints = derive()
    print("residual:", residual)
    for c in constraints:
        num, den = sp.fraction(sp.cancel(sp.together(c)))
        print("constraint:", sp.expand(num), "  [den:", den, "]")


if __name__ == "__main__":
    main()
