"""The position1d generators derived from the Heisenberg law, in sympy.

On a symbolic psi(x), with H = -hbar^2/2m d^2/dx^2 + f x + V0, the law
d/dt A = (i/hbar) [H, A] fixes the force terms of the ansatzes
P = i hbar d/dx + c t and N = m x - i hbar t d/dx + a t^2: c = f and
a = -f/2.  galiray's N has a = -f/2, but its P has c = -f, so P alone breaks
the law, by |-f - f| = 2|f|: the residual that heisenberg_fit reports for P
and the reason heisenberg_position1d is a documented exception (ROADMAP
item 8).
"""

import pytest
import sympy as sp

from galiray.representations import RepDescriptor, _term, generator
from galiray.states import PolyDiffOperator
from galiray.verify import heisenberg_fit

x, t = sp.symbols("x t", real=True)
hbar, m = sp.symbols("hbar m", positive=True)
f, V0, c, a = sp.symbols("f V0 c a")
psi = sp.Function("psi")(x)


def H(phi):
    return -hbar ** 2 / (2 * m) * phi.diff(x, 2) + f * x * phi + V0 * phi


def _solve_law(A, dA_dt, unknown):
    """The value of unknown for which d/dt A = (i/hbar) [H, A] on psi: every
    coefficient of psi^(k) x^i t^j in the difference of the two sides is
    zero."""
    expr = sp.expand(dA_dt(psi) - sp.I / hbar * (H(A(psi)) - A(H(psi))))
    slots = sp.symbols("psi0:5")
    for k in reversed(range(5)):  # highest derivative first: psi last
        expr = expr.subs(psi.diff(x, k), slots[k])
    conditions = sp.Poly(expr, *slots, x, t).coeffs()
    [solution] = sp.solve(conditions, [unknown], dict=True)
    return solution[unknown]


@pytest.fixture(scope="module")
def derived():
    c_law = _solve_law(lambda phi: sp.I * hbar * phi.diff(x) + c * t * phi,
                       lambda phi: c * phi, c)
    a_law = _solve_law(
        lambda phi: m * x * phi - sp.I * hbar * t * phi.diff(x)
        + a * t ** 2 * phi,
        lambda phi: -sp.I * hbar * phi.diff(x) + 2 * a * t * phi, a)
    return c_law, a_law


def test_the_law_fixes_the_force_terms(derived):
    c_law, a_law = derived
    assert sp.simplify(c_law - f) == 0
    assert sp.simplify(a_law + f / 2) == 0


@pytest.mark.parametrize("f_, hbar_, m_", [(0.5, 1.0, 1.0), (0.5, 2.0, 1.0),
                                           (-1.7, 0.3, 2.5), (0.0, 2.0, 1.3)])
def test_the_derivation_explains_the_residual_of_p(derived, f_, hbar_, m_):
    c_law, a_law = (float(v.subs(f, f_)) for v in derived)
    rep = RepDescriptor("position1d", m=m_, hbar=hbar_, force_f=f_, V0=0.25)
    P, N = (generator(rep, name) for name in ("P", "N"))
    # the printed force terms: c t in P, a t^2 in N
    c_printed = P.terms.get(((0,), (0, 1)), 0.0)
    a_printed = N.terms.get(((0,), (0, 2)), 0.0)
    assert c_printed == -c_law  # the sign the derivation flips
    assert a_printed == a_law
    residuals, _ = heisenberg_fit(rep)
    assert residuals["P"] == pytest.approx(abs(c_printed - c_law),
                                           rel=1e-15, abs=0.0)
    assert residuals["N"] == pytest.approx(0.0, abs=1e-15)
    # P with the derived sign obeys the law that heisenberg_fit checks
    P_law = PolyDiffOperator.build(1, [_term(1, 1j * hbar_, d=(0,)),
                                       _term(1, c_law, t=1)])
    H_op = generator(rep, "H")
    law = P_law.d_dt() - H_op.commutator(P_law).scale(1j / hbar_)
    assert law.norm() == pytest.approx(0.0, abs=1e-15)
