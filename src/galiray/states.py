"""Exact carrier family: polynomial times complex Gaussian states, and
polynomial-coefficient differential operators acting on them.

Every representation phase (quadratic in p) and every generator maps the
family to itself, so all checks run in closed form with no discretization.
Inner products reduce to complex Gaussian moment formulas.

A state is evaluated at all its sample points in one pass: evaluate_many
maps an (n, dim) array of points to n values, and evaluate (like
Polynomial.eval and PolyGaussianTerm.evaluate) is its one-row view.

StateBatch stacks N states of one term layout, so that N carrier actions
run as one array pass: its substitute, multiply_phase and evaluate act
row-wise.  PolyGaussianState.substitute and multiply_phase are their
one-row views, and every term value comes from one formula (_term_values).

Each term keeps an invariant: finite entries, and Gamma symmetric with a
negative-definite real part.  PolyGaussianState(...) checks it, once, when
a state is built from input.  The transforms that keep it by construction
build their result without a re-check: substitute (a congruence by an
orthogonal W, which it requires), multiply_phase with a symmetric, purely
imaginary quad, scale, add, conjugated, and PolyDiffOperator.apply, which
reuses each input term's Gamma.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .group import _ORTHO_TOL, _dot, _matvec

__all__ = [
    "DegreeOverflowError",
    "Polynomial",
    "PolyGaussianTerm",
    "PolyGaussianState",
    "StateBatch",
    "PolyDiffOperator",
    "inner_product",
    "state_norm",
    "normalized",
    "random_state",
    "state_to_dict",
    "state_from_dict",
    "DEFAULT_MAX_DEGREE",
]

DEFAULT_MAX_DEGREE = 8

_SYM_TOL = 1e-12


class DegreeOverflowError(ValueError):
    """Raised when an operation would push a polynomial past the degree bound."""


class Polynomial:
    """Complex-coefficient polynomial in nvars variables, sparse over
    exponent tuples."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs=None):
        self.nvars = nvars
        self.coeffs: dict[tuple, complex] = {}
        if coeffs:
            for exps, c in coeffs.items():
                c = complex(c)
                if c != 0:
                    self.coeffs[tuple(int(e) for e in exps)] = c

    @classmethod
    def constant(cls, nvars: int, c) -> "Polynomial":
        return cls(nvars, {tuple([0] * nvars): c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Polynomial":
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): 1.0})

    def copy(self) -> "Polynomial":
        return Polynomial(self.nvars, self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return max((sum(e) for e in self.coeffs), default=0)

    def max_abs(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other)
        if self.nvars != other.nvars:
            raise ValueError("polynomial variable count mismatch")
        out = dict(self.coeffs)
        for exps, c in other.coeffs.items():
            out[exps] = out.get(exps, 0.0) + c
        return Polynomial(self.nvars, out)

    def __neg__(self):
        return Polynomial(self.nvars, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = complex(other)
            return Polynomial(self.nvars,
                              {e: v * c for e, v in self.coeffs.items()})
        if self.nvars != other.nvars:
            raise ValueError("polynomial variable count mismatch")
        out: dict[tuple, complex] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0.0) + c1 * c2
        return Polynomial(self.nvars, out)

    __rmul__ = __mul__

    def diff(self, i: int) -> "Polynomial":
        out: dict[tuple, complex] = {}
        for exps, c in self.coeffs.items():
            if exps[i] > 0:
                e = list(exps)
                e[i] -= 1
                key = tuple(e)
                out[key] = out.get(key, 0.0) + c * exps[i]
        return Polynomial(self.nvars, out)

    def eval(self, point) -> complex:
        return complex(self.eval_many(np.asarray(point)[None])[0])

    def eval_many(self, points) -> np.ndarray:
        """Values at the rows of an (n, nvars) array of points."""
        return self._values(_point_rows(points, self.nvars))

    def _values(self, P: np.ndarray) -> np.ndarray:
        """Values at points P of shape (..., nvars)."""
        total = np.zeros(P.shape[:-1], dtype=complex)
        for exps, c in self.coeffs.items():
            term = np.full(P.shape[:-1], c)
            for k, e in enumerate(exps):
                if e:
                    term = term * _power(P[..., k], e)
            total = total + term
        return total

    def subs_affine(self, M, c) -> "Polynomial":
        """Substitute variable_i -> sum_j M[i,j] q_j + c[i]."""
        n = self.nvars
        M = np.asarray(M)
        c = np.asarray(c)
        # line i and its powers are built when a monomial first uses
        # variable i, so a constant polynomial builds none
        lines: list[Polynomial | None] = [None] * n
        powers: list[list[Polynomial]] = [[] for _ in range(n)]
        result = Polynomial(n)
        for exps, coef in self.coeffs.items():
            term = Polynomial.constant(n, coef)
            for i, e in enumerate(exps):
                if e:
                    if lines[i] is None:
                        lines[i] = _affine_line(M[i], c[i])
                        powers[i].append(Polynomial.constant(n, 1.0))
                    while len(powers[i]) <= e:
                        powers[i].append(powers[i][-1] * lines[i])
                    term = term * powers[i][e]
            result = result + term
        return result

    def subs_var(self, i: int, value) -> "Polynomial":
        """Fix variable i to a numeric value (variable count unchanged)."""
        value = complex(value)
        out: dict[tuple, complex] = {}
        for exps, c in self.coeffs.items():
            e = list(exps)
            power = e[i]
            e[i] = 0
            key = tuple(e)
            out[key] = out.get(key, 0.0) + c * value ** power
        return Polynomial(self.nvars, out)

    def drop_var(self, i: int) -> "Polynomial":
        """Remove a variable that no monomial uses."""
        out = {}
        for exps, c in self.coeffs.items():
            if exps[i] != 0:
                raise ValueError("cannot drop a variable still in use")
            out[exps[:i] + exps[i + 1:]] = c
        return Polynomial(self.nvars - 1, out)

    def lift_var(self) -> "Polynomial":
        """Append one trailing variable (unused by existing monomials)."""
        return Polynomial(self.nvars + 1,
                          {exps + (0,): c for exps, c in self.coeffs.items()})

    def conj(self) -> "Polynomial":
        """Coefficient-wise conjugate; equals pointwise conjugation on
        real arguments."""
        return Polynomial(self.nvars,
                          {e: c.conjugate() for e, c in self.coeffs.items()})

    def __repr__(self):
        return f"Polynomial(nvars={self.nvars}, coeffs={self.coeffs})"


def _affine_line(row, shift) -> Polynomial:
    """The polynomial sum_j row[j] q_j + shift."""
    n = len(row)
    coeffs = {}
    for j in range(n):
        if row[j] != 0:
            e = [0] * n
            e[j] = 1
            coeffs[tuple(e)] = row[j]
    if shift != 0:
        coeffs[tuple([0] * n)] = shift
    return Polynomial(n, coeffs)


def _point_rows(points, n: int) -> np.ndarray:
    P = np.asarray(points)
    if P.ndim != 2 or P.shape[1] != n:
        raise ValueError(f"points must have shape (n, {n}), got {P.shape}")
    return P


def _power(x: np.ndarray, e: int) -> np.ndarray:
    """x ** e per element, as a scalar x ** e rounds it."""
    # not np.power, whose SIMD kernel rounds differently from the scalar
    # power: values, and the residuals built from them, stay those of the
    # one-point evaluation
    if e == 1:
        return x
    return np.array([v ** e for v in x.ravel()]).reshape(x.shape)


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b for complex arrays of one shape, rounded as Python's complex
    product."""
    # numpy's complex multiply fuses multiply-adds, and so differs in the
    # last digit from the one-point product
    out = np.empty(a.shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _check_gamma(dim: int, Gamma: np.ndarray) -> np.ndarray:
    Gamma = np.asarray(Gamma, dtype=complex).reshape(dim, dim)
    if not np.isfinite(Gamma).all():
        raise ValueError("Gamma must be finite")
    if np.max(np.abs(Gamma - Gamma.T)) > _SYM_TOL:
        raise ValueError("Gamma must be symmetric")
    re_eigs = np.linalg.eigvalsh(Gamma.real)
    if np.max(re_eigs) >= 0.0:
        raise ValueError("Re(Gamma) must be negative-definite")
    return Gamma


def _checked_term(dim: int, term) -> "PolyGaussianTerm":
    if term.poly.nvars != dim:
        raise ValueError("term polynomial has wrong variable count")
    alpha = complex(term.alpha)
    beta = np.asarray(term.beta, dtype=complex).reshape(dim)
    Gamma = _check_gamma(dim, term.Gamma)
    if not (cmath.isfinite(alpha) and np.isfinite(beta).all()
            and all(map(cmath.isfinite, term.poly.coeffs.values()))):
        raise ValueError("alpha, beta and the polynomial coefficients "
                         "must be finite")
    return PolyGaussianTerm(term.poly, alpha, beta, Gamma)


@dataclass(frozen=True, eq=False)
class PolyGaussianTerm:
    """poly(p) * exp(alpha + <beta, p> + p^T Gamma p)."""

    poly: Polynomial
    alpha: complex
    beta: np.ndarray
    Gamma: np.ndarray

    def evaluate(self, p) -> complex:
        return complex(self.evaluate_many(np.asarray(p)[None])[0])

    def evaluate_many(self, points) -> np.ndarray:
        """Values at the rows of an (n, dim) array of points."""
        P = _point_rows(points, len(self.beta))
        return _term_values(self.poly, np.asarray(self.alpha), self.beta,
                            self.Gamma, P)


def _term_values(poly, alpha, beta, Gamma, P) -> np.ndarray:
    """Values poly(p) exp(alpha + <beta, p> + p^T Gamma p) of one term, or
    of N stacked terms, at points P (n, dim), or (N, n, dim) with row i at
    P[i]: alpha () or (N,), beta (..., dim), Gamma (..., dim, dim); poly is
    one Polynomial for every row, or a list of one per row."""
    Pc = P.astype(complex)[..., None, :]
    lin = (Pc @ beta[..., None, :, None])[..., 0, 0]
    quad = ((Pc @ Gamma[..., None, :, :]) @ Pc.swapaxes(-1, -2))[..., 0, 0]
    if isinstance(poly, Polynomial):
        values = poly._values(P)
    else:
        values = np.stack([p._values(x) for p, x in zip(poly, P)])
    return _cmul(values, np.exp(alpha[..., None] + lin + quad))


class PolyGaussianState:
    """Finite sum of polynomial-Gaussian terms in dim variables."""

    def __init__(self, dim: int, terms):
        """Validating constructor: every term is checked (see the module
        docstring), so a state built from input is sound."""
        self.dim = dim
        self.terms = tuple(_checked_term(dim, term) for term in terms)

    @classmethod
    def _trusted(cls, dim: int, terms) -> "PolyGaussianState":
        """A state from terms that keep the invariant by construction."""
        state = cls.__new__(cls)
        state.dim = dim
        state.terms = tuple(terms)
        return state

    @classmethod
    def gaussian(cls, dim: int, alpha=0.0, beta=None, Gamma=None,
                 poly=None) -> "PolyGaussianState":
        if beta is None:
            beta = np.zeros(dim, dtype=complex)
        if Gamma is None:
            Gamma = -0.5 * np.eye(dim, dtype=complex)
        if poly is None:
            poly = Polynomial.constant(dim, 1.0)
        term = PolyGaussianTerm(poly, complex(alpha),
                                np.asarray(beta, dtype=complex),
                                np.asarray(Gamma, dtype=complex))
        return cls(dim, [term])

    def evaluate(self, p) -> complex:
        p = np.asarray(p)
        if p.shape != (self.dim,):
            raise ValueError(f"point must have shape ({self.dim},)")
        return complex(self.evaluate_many(p[None])[0])

    def evaluate_many(self, points) -> np.ndarray:
        """Values at the rows of an (n, dim) array of points, as an (n,)
        complex array; row i equals evaluate(points[i])."""
        P = _point_rows(points, self.dim)
        total = np.zeros(len(P), dtype=complex)
        for t in self.terms:
            total = total + t.evaluate_many(P)
        return total

    def substitute(self, W, shift) -> "PolyGaussianState":
        """New state g with g(p) = self(W^{-1}(p + shift)) for an orthogonal
        W, whose inverse is taken as W^T; any other W raises."""
        W = np.asarray(W, dtype=float).reshape(self.dim, self.dim)
        if not np.max(np.abs(W.T @ W - np.eye(self.dim))) <= _ORTHO_TOL:
            raise ValueError("substitute needs an orthogonal W")
        shift = np.asarray(shift, dtype=complex).reshape(self.dim)
        return StateBatch.of(self).substitute(W[None], shift[None]).row(0)

    def multiply_phase(self, quad=None, lin=None, const=0.0) -> "PolyGaussianState":
        """Multiply by exp(const + <lin, p> + p^T quad p); the arguments are
        the complex exponent increments."""
        dim = self.dim
        quad = (np.zeros((dim, dim), dtype=complex) if quad is None
                else np.asarray(quad, dtype=complex).reshape(dim, dim))
        lin = (np.zeros(dim, dtype=complex) if lin is None
               else np.asarray(lin, dtype=complex).reshape(dim))
        out = StateBatch.of(self).multiply_phase(
            quad[None], lin[None], np.array((complex(const),))).row(0)
        if quad.real.any() or not (quad == quad.T).all():
            # a real or asymmetric quad can break the invariant: check it
            return PolyGaussianState(dim, out.terms)
        return out

    def scale(self, c) -> "PolyGaussianState":
        out = [PolyGaussianTerm(t.poly * c, t.alpha, t.beta, t.Gamma)
               for t in self.terms]
        return PolyGaussianState._trusted(self.dim, out)

    def add(self, other: "PolyGaussianState") -> "PolyGaussianState":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return PolyGaussianState._trusted(self.dim, self.terms + other.terms)

    def conjugated(self) -> "PolyGaussianState":
        out = [PolyGaussianTerm(t.poly.conj(), t.alpha.conjugate(),
                                t.beta.conjugate(), t.Gamma.conjugate())
               for t in self.terms]
        return PolyGaussianState._trusted(self.dim, out)

    def center(self) -> np.ndarray:
        """Peak of the leading term's Gaussian envelope."""
        t = self.terms[0]
        return np.linalg.solve(-2.0 * t.Gamma.real, t.beta.real)

    def max_degree(self) -> int:
        return max((t.poly.degree() for t in self.terms), default=0)


class StateBatch:
    """N states of one term layout as stacked arrays; row i is a state.

    Term k is (poly, alpha (N,), beta (N, dim), Gamma (N, dim, dim)).  poly
    is one Polynomial shared by every row while it is constant, since a
    constant is unchanged by substitution, and a list of one per row once
    a non-constant one has been substituted row by row.  The transforms
    keep the invariant as the state methods they generalise do, so rows are
    not re-validated.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms):
        self.dim = dim
        self.terms = tuple(terms)

    @classmethod
    def of(cls, state: PolyGaussianState, n: int = 1) -> "StateBatch":
        """n rows, each the given state."""
        return cls(state.dim, [(t.poly, np.array((t.alpha,)).repeat(n),
                                t.beta[None].repeat(n, axis=0),
                                t.Gamma[None].repeat(n, axis=0))
                               for t in state.terms])

    def row(self, i: int) -> PolyGaussianState:
        return PolyGaussianState._trusted(self.dim, [
            PolyGaussianTerm(poly if isinstance(poly, Polynomial) else poly[i],
                             complex(alpha[i]), beta[i], Gamma[i])
            for poly, alpha, beta, Gamma in self.terms])

    def substitute(self, W, shift) -> "StateBatch":
        """Row i becomes g(p) = f_i(W_i^T (p + shift_i)), for orthogonal
        W (N, dim, dim), which is trusted, and complex shift (N, dim)."""
        M = W.swapaxes(-1, -2)
        c = _matvec(M, shift)
        out = []
        for poly, alpha, beta, Gamma in self.terms:
            if isinstance(poly, Polynomial) and poly.degree() > 0:
                poly = [poly] * len(c)
            if not isinstance(poly, Polynomial):
                poly = [p.subs_affine(m, ci) for p, m, ci in zip(poly, M, c)]
            cG = (c[:, None, :] @ Gamma)[:, 0]
            # a congruence by orthogonal M keeps Gamma symmetric and
            # Re(Gamma) negative-definite
            out.append((poly, alpha + _dot(beta, c) + _dot(cG, c),
                        _matvec(W, beta) + 2.0 * _matvec(W, _matvec(Gamma, c)),
                        W @ Gamma @ M))
        return StateBatch(self.dim, out)

    def multiply_phase(self, quad=None, lin=None, const=None) -> "StateBatch":
        """Row i times exp(const_i + <lin_i, p> + p^T quad_i p); the complex
        increments have shapes (N, dim, dim), (N, dim) and (N,), and None
        adds nothing."""
        return StateBatch(self.dim, [
            (poly, alpha if const is None else alpha + const,
             beta if lin is None else beta + lin,
             Gamma if quad is None else Gamma + quad)
            for poly, alpha, beta, Gamma in self.terms])

    def evaluate(self, points) -> np.ndarray:
        """(N, n) values, row i at its points: points has shape
        (N, n, dim)."""
        P = np.asarray(points)
        total = np.zeros(P.shape[:-1], dtype=complex)
        for term in self.terms:
            total = total + _term_values(*term, P)
        return total


@dataclass(frozen=True, eq=False)
class PolyDiffOperator:
    """Sum of coeff(p, t) * d^k/dp^k terms, derivatives right-most.

    Coefficients are polynomials in dim + 1 variables, the trailing one
    being the external time parameter t.
    """

    dim: int
    terms: tuple  # of (Polynomial in dim+1 vars, deriv multi-index tuple)

    @classmethod
    def build(cls, dim: int, raw_terms) -> "PolyDiffOperator":
        collected: dict[tuple, Polynomial] = {}
        for coeff, deriv in raw_terms:
            deriv = tuple(int(k) for k in deriv)
            if len(deriv) != dim:
                raise ValueError("derivative multi-index has wrong length")
            if not isinstance(coeff, Polynomial):
                coeff = Polynomial.constant(dim + 1, coeff)
            if coeff.nvars != dim + 1:
                raise ValueError("coefficient must use dim+1 variables")
            if deriv in collected:
                collected[deriv] = collected[deriv] + coeff
            else:
                collected[deriv] = coeff
        terms = tuple((c, d) for d, c in sorted(collected.items())
                      if not c.is_zero())
        return cls(dim, terms)

    @classmethod
    def zero(cls, dim: int) -> "PolyDiffOperator":
        return cls.build(dim, [])

    @classmethod
    def identity(cls, dim: int) -> "PolyDiffOperator":
        return cls.build(dim, [(1.0, (0,) * dim)])

    @classmethod
    def coordinate(cls, dim: int, i: int) -> "PolyDiffOperator":
        """Multiplication by the i-th coordinate."""
        return cls.build(dim, [(Polynomial.variable(dim + 1, i), (0,) * dim)])

    @classmethod
    def derivative(cls, dim: int, i: int) -> "PolyDiffOperator":
        deriv = [0] * dim
        deriv[i] = 1
        return cls.build(dim, [(1.0, tuple(deriv))])

    @classmethod
    def time_poly(cls, dim: int, degree: int = 1) -> "Polynomial":
        """The coefficient polynomial t**degree."""
        exps = [0] * (dim + 1)
        exps[dim] = degree
        return Polynomial(dim + 1, {tuple(exps): 1.0})

    def __add__(self, other: "PolyDiffOperator") -> "PolyDiffOperator":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return PolyDiffOperator.build(self.dim,
                                      list(self.terms) + list(other.terms))

    def __sub__(self, other: "PolyDiffOperator") -> "PolyDiffOperator":
        return self + other.scale(-1.0)

    def scale(self, c) -> "PolyDiffOperator":
        return PolyDiffOperator.build(self.dim,
                                      [(coeff * c, d) for coeff, d in self.terms])

    def compose(self, other: "PolyDiffOperator") -> "PolyDiffOperator":
        """Operator product self . other via the Leibniz rule; t is a
        parameter, untouched by the derivatives."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        dim = self.dim
        raw = []
        for cA, a in self.terms:
            for cB, b in other.terms:
                for j in _sub_multi_indices(a):
                    coeff = cB
                    for i in range(dim):
                        for _ in range(j[i]):
                            coeff = coeff.diff(i)
                    if coeff.is_zero():
                        continue
                    binom = 1
                    for i in range(dim):
                        binom *= math.comb(a[i], j[i])
                    deriv = tuple(a[i] - j[i] + b[i] for i in range(dim))
                    raw.append((cA * coeff * binom, deriv))
        return PolyDiffOperator.build(dim, raw)

    def commutator(self, other: "PolyDiffOperator") -> "PolyDiffOperator":
        return self.compose(other) - other.compose(self)

    def d_dt(self) -> "PolyDiffOperator":
        """Exact derivative in the external parameter t."""
        return PolyDiffOperator.build(
            self.dim, [(coeff.diff(self.dim), d) for coeff, d in self.terms])

    def at_time(self, t: float) -> "PolyDiffOperator":
        return PolyDiffOperator.build(
            self.dim, [(coeff.subs_var(self.dim, t), d)
                       for coeff, d in self.terms])

    def norm(self) -> float:
        """Largest coefficient magnitude; zero iff the operator is zero."""
        return max((coeff.max_abs() for coeff, _ in self.terms), default=0.0)

    def apply(self, state: PolyGaussianState, t: float = 0.0,
              max_degree: int = DEFAULT_MAX_DEGREE) -> PolyGaussianState:
        """Exact action on a state, with t fixed numerically."""
        if state.dim != self.dim:
            raise ValueError("dimension mismatch")
        dim = self.dim
        out_terms = []
        for coeff, deriv in self.terms:
            coeff_p = coeff.subs_var(dim, t).drop_var(dim)
            for term in state.terms:
                poly = term.poly
                for i in range(dim):
                    for _ in range(deriv[i]):
                        poly = _poly_after_derivative(poly, term, i)
                poly = poly * coeff_p
                if poly.degree() > max_degree:
                    raise DegreeOverflowError(
                        f"degree {poly.degree()} exceeds bound {max_degree}")
                if not poly.is_zero():
                    out_terms.append(PolyGaussianTerm(poly, term.alpha,
                                                      term.beta, term.Gamma))
        if not out_terms:
            zero_term = PolyGaussianTerm(Polynomial(dim), 0j,
                                         np.zeros(dim, dtype=complex),
                                         -0.5 * np.eye(dim, dtype=complex))
            out_terms = [zero_term]
        # every term reuses the Gamma of a term of state
        return PolyGaussianState._trusted(dim, out_terms)


def _poly_after_derivative(poly: Polynomial, term: PolyGaussianTerm,
                           i: int) -> Polynomial:
    # d/dp_i [poly e^g] = (poly' + poly (beta_i + 2 (Gamma p)_i)) e^g
    dim = poly.nvars
    lin = {tuple([0] * dim): term.beta[i]}
    for j in range(dim):
        g = term.Gamma[i, j]
        if g != 0:
            e = [0] * dim
            e[j] = 1
            lin[tuple(e)] = 2.0 * g
    return poly.diff(i) + poly * Polynomial(dim, lin)


def _sub_multi_indices(a):
    """All multi-indices j with 0 <= j <= a componentwise."""
    if not a:
        yield ()
        return
    for head in range(a[0] + 1):
        for tail in _sub_multi_indices(a[1:]):
            yield (head,) + tail


def _central_moment(Sigma: np.ndarray, exps: tuple,
                    cache: dict) -> complex:
    """E[q^exps] for a centered Gaussian with complex covariance Sigma."""
    total_deg = sum(exps)
    if total_deg == 0:
        return 1.0 + 0.0j
    if total_deg % 2 == 1:
        return 0.0 + 0.0j
    if exps in cache:
        return cache[exps]
    a = next(i for i, e in enumerate(exps) if e > 0)
    rest = list(exps)
    rest[a] -= 1
    total = 0.0 + 0.0j
    for b, count in enumerate(rest):
        if count > 0:
            nxt = list(rest)
            nxt[b] -= 1
            total += count * Sigma[a, b] * _central_moment(Sigma, tuple(nxt), cache)
    cache[exps] = total
    return total


def _gaussian_integral(poly: Polynomial, alpha: complex, beta: np.ndarray,
                       Gamma: np.ndarray) -> complex:
    """Integral of poly(p) exp(alpha + <beta,p> + p^T Gamma p) over R^dim."""
    dim = poly.nvars
    A = -2.0 * Gamma
    re_eigs = np.linalg.eigvalsh(A.real)
    if np.min(re_eigs) <= 0.0:
        raise ValueError("non-integrable Gaussian combination")
    m = np.linalg.solve(A, beta)
    Sigma = np.linalg.inv(A)
    # Re(A) positive-definite puts every eigenvalue in the right half-plane,
    # so the principal square root is the branch continuous from real A.
    eigs = np.linalg.eigvals(A)
    det_root = np.prod(np.sqrt(eigs))
    prefactor = (2.0 * math.pi) ** (dim / 2.0) / det_root
    prefactor *= np.exp(alpha + 0.5 * np.dot(beta, m))
    shifted = poly.subs_affine(np.eye(dim), m)
    cache: dict = {}
    total = 0.0 + 0.0j
    for exps, c in shifted.coeffs.items():
        total += c * _central_moment(Sigma, exps, cache)
    return complex(prefactor * total)


def inner_product(f: PolyGaussianState, g: PolyGaussianState) -> complex:
    """<f, g> = integral of conj(f(p)) g(p) over R^dim, in closed form."""
    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    total = 0.0 + 0.0j
    for tf in f.terms:
        for tg in g.terms:
            poly = tf.poly.conj() * tg.poly
            alpha = tf.alpha.conjugate() + tg.alpha
            beta = tf.beta.conjugate() + tg.beta
            Gamma = tf.Gamma.conjugate() + tg.Gamma
            total += _gaussian_integral(poly, alpha, beta, Gamma)
    return total


def state_norm(f: PolyGaussianState) -> float:
    return math.sqrt(max(inner_product(f, f).real, 0.0))


def normalized(f: PolyGaussianState) -> PolyGaussianState:
    n = state_norm(f)
    if n == 0.0:
        raise ValueError("cannot normalize the zero state")
    return f.scale(1.0 / n)


def random_state(rng, dim: int, poly_degree: int = 0,
                 n_terms: int = 1) -> PolyGaussianState:
    """Seeded random normalizable state; poly_degree 0 gives pure Gaussians
    (nowhere zero, which the ratio extraction relies on)."""
    rng = np.random.default_rng(rng)
    terms = []
    for _ in range(n_terms):
        B = rng.normal(size=(dim, dim))
        re_g = -(0.5 * B @ B.T + (0.4 + rng.uniform(0, 0.3)) * np.eye(dim))
        C = rng.normal(size=(dim, dim)) * 0.25
        Gamma = re_g + 1j * (C + C.T) / 2.0
        beta = rng.normal(size=dim) * 0.5 + 1j * rng.normal(size=dim) * 0.5
        alpha = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
        if poly_degree > 0:
            coeffs = {tuple([0] * dim): 1.0 + 0.0j}
            for exps in _monomials_up_to(dim, poly_degree):
                if sum(exps) > 0:
                    coeffs[exps] = complex(rng.normal(), rng.normal()) * 0.3
            poly = Polynomial(dim, coeffs)
        else:
            poly = Polynomial.constant(dim, 1.0)
        terms.append(PolyGaussianTerm(poly, alpha, beta, Gamma))
    return PolyGaussianState(dim, terms)


def _monomials_up_to(dim: int, degree: int):
    if dim == 0:
        yield ()
        return
    for head in range(degree + 1):
        for tail in _monomials_up_to(dim - 1, degree - head):
            yield (head,) + tail


def _complex_to_pair(z: complex):
    return [float(z.real), float(z.imag)]


def state_to_dict(f: PolyGaussianState) -> dict:
    terms = []
    for t in f.terms:
        poly = [list(exps) + _complex_to_pair(c)
                for exps, c in sorted(t.poly.coeffs.items())]
        terms.append({
            "poly": poly,
            "alpha": _complex_to_pair(t.alpha),
            "beta": [_complex_to_pair(z) for z in t.beta],
            "Gamma": [_complex_to_pair(z) for z in t.Gamma.reshape(-1)],
        })
    return {"dim": f.dim, "terms": terms}


def state_from_dict(d: dict) -> PolyGaussianState:
    dim = int(d["dim"])
    terms = []
    for td in d["terms"]:
        coeffs = {}
        for row in td["poly"]:
            exps = tuple(int(e) for e in row[:dim])
            coeffs[exps] = complex(row[dim], row[dim + 1])
        alpha = complex(td["alpha"][0], td["alpha"][1])
        beta = np.array([complex(a, b) for a, b in td["beta"]])
        Gamma = np.array([complex(a, b) for a, b in td["Gamma"]]).reshape(dim, dim)
        terms.append(PolyGaussianTerm(Polynomial(dim, coeffs), alpha, beta, Gamma))
    return PolyGaussianState(dim, terms)
