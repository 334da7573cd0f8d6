"""Exact carrier family: polynomial times complex Gaussian states, and
polynomial-coefficient differential operators acting on them.

Every representation phase (quadratic in p) and every generator maps the
family to itself, so all checks run in closed form with no discretization.
Inner products reduce to complex Gaussian moment formulas.

A state has one layout.  StateBatch stacks N states, each term
(poly, alpha (N,), beta (N, dim), Gamma (N, dim, dim)), so that N carrier
actions run as one array pass, and a PolyGaussianState is the StateBatch
of one row: repeat makes n rows of it and row(i) slices row i back out,
a view.  StateBatch.substitute and multiply_phase act row-wise,
and the state's substitute and multiply_phase are their one-row views.
inner_product_batch takes N inner products with stacked linear algebra,
and inner_product is it on two states.

A state has one pointwise formula, PolyGaussianState.evaluate, and an
operator one action, PolyDiffOperator.apply_batch on the rows of a
StateBatch; apply is it on a state.  Both are kept for tests and tools: no
check evaluates a state at a point or applies an operator.

Each object has one polynomial form.  A state's term polynomial is dense
rows (_PolyRows): an (N, M) coefficient array over the graded monomial basis
_basis(dim, deg).  Substitution and the products conj(f) g of an inner
product run on these arrays through one product table per pair of degrees,
and the moments of a Gaussian integral, about the origin, through one
round table per degree (_moment_table); each adds a coefficient's terms one
at a time in an order fixed by the degrees, so row i equals the 1-row call
bit for bit whatever degrees the other rows have.  A {exponent tuple:
coefficient} mapping from input becomes rows once, through _PolyRows.of.
An operator is one flat map (deriv, exps) -> c over its monomials, t
symbolic as a trailing exponent; apply_batch fixes t and makes each
derivative's coefficient one dense row.

Random states come in blocks: each state takes a fixed number of normals
and of uniforms (_state_widths), and _states_from_blocks builds the alpha,
beta, Gamma and coefficient arrays of a whole block of them in one array
pass.  random_state is the block of one state.

Each term keeps an invariant: finite entries, and Gamma symmetric with a
negative-definite real part.  PolyGaussianState(...) checks it, once, when
a state is built from input.  The transforms that keep it by construction
build their result without a re-check (StateBatch._unchecked): substitute
(a congruence by an orthogonal W, which the state's view requires),
multiply_phase with a symmetric, purely imaginary quad, and
PolyDiffOperator.apply_batch, which reuses each input term's Gamma.  A
transform of a state is a state.  random_state draws terms that keep it,
and row(i) slices a batch that does, so neither re-checks it either.
"""
from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .group import _dot, _matvec, _orthogonal, _uniform

__all__ = [
    "DegreeOverflowError",
    "PolyGaussianState",
    "StateBatch",
    "PolyDiffOperator",
    "inner_product",
    "inner_product_batch",
    "random_state",
    "DEFAULT_MAX_DEGREE",
]

DEFAULT_MAX_DEGREE = 8

_SYM_TOL = 1e-12


class DegreeOverflowError(ValueError):
    """Raised when an operation would push a polynomial past the degree bound."""


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex array re + i im, each part kept as it is."""
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _congruence(W: np.ndarray, Gamma: np.ndarray,
                M: np.ndarray) -> np.ndarray:
    """W @ Gamma @ M for real W and M and complex Gamma, in two real
    products: W [Re Gamma | Im Gamma], then [W Re Gamma ; W Im Gamma] M."""
    # the complex product promotes W and M to complex and takes longer.  It
    # gives the same numbers, up to the sign of an exact zero entry, since
    # the imaginary parts of W and M are zero; it also carries a NaN or inf
    # of one part of Gamma into the other, which this does not.  A wider
    # product rounds each entry as one product per part does, in half the
    # calls.  The matrix-vector products of substitute stay complex: a real
    # split of _matvec rounds differently from numpy's complex one.
    dim = Gamma.shape[-1]
    WG = W @ np.concatenate((Gamma.real, Gamma.imag), axis=-1)
    out = np.concatenate((WG[..., :dim], WG[..., dim:]), axis=-2) @ M
    return _complex(out[..., :dim, :], out[..., dim:, :])


# -- dense polynomial rows ----------------------------------------------------
# A StateBatch polynomial that differs between rows is an (N, M) coefficient
# array over the graded basis _basis(dim, deg).  Every sum over coefficients
# adds its terms one at a time, in an order fixed by (dim, degrees) alone, and
# a row padded to a higher degree only adds zeros after its own terms: so row
# i rounds as the 1-row call does, whatever degrees the other rows have.

@functools.cache
def _basis(dim: int, deg: int) -> tuple:
    """Every monomial of total degree <= deg in dim variables: by degree,
    then in descending lexicographic order, so that each lower degree's basis
    is a prefix and the degree-1 monomials are the variables in order."""
    return tuple(e for k in range(deg + 1)
                 for e in sorted((e for e in _monomials_up_to(dim, k)
                                  if sum(e) == k), reverse=True))


@functools.cache
def _index(dim: int, deg: int) -> dict:
    """Column of each monomial of _basis(dim, deg)."""
    return {e: k for k, e in enumerate(_basis(dim, deg))}


@functools.cache
def _exponents(dim: int, deg: int) -> np.ndarray:
    """_basis(dim, deg) as an (M, dim) integer array."""
    return np.array(_basis(dim, deg)).reshape(-1, dim)


@functools.cache
def _size(dim: int, deg: int) -> int:
    return math.comb(dim + deg, deg)


@functools.cache
def _product_table(dim: int, d1: int, d2: int) -> tuple:
    """The product of a degree-d1 and a degree-d2 polynomial as rounds
    (K, I, J): column K[j] of the product gains a[I[j]] * b[J[j]].  A round
    names each column at most once, and each column gains its terms in the
    order of their pairs (i, j)."""
    index = _index(dim, d1 + d2)
    pairs: dict[int, list] = {}
    for i, e1 in enumerate(_basis(dim, d1)):
        for j, e2 in enumerate(_basis(dim, d2)):
            pairs.setdefault(index[tuple(map(operator.add, e1, e2))],
                             []).append((i, j))
    return tuple(tuple(np.array(x) for x in zip(*[
        (k, *ij[r]) for k, ij in pairs.items() if len(ij) > r]))
        for r in range(max(map(len, pairs.values()))))


def _product(a: np.ndarray, b: np.ndarray, dim: int, d1: int,
             d2: int) -> np.ndarray:
    """Products of dense polynomials of degrees d1 and d2 along the last
    axis, the leading axes broadcasting."""
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
                   + (_size(dim, d1 + d2),), dtype=complex)
    for K, I, J in _product_table(dim, d1, d2):
        out[..., K] += a[..., I] * b[..., J]
    return out


@functools.cache
def _steps(dim: int, deg: int) -> tuple:
    """For each degree-deg monomial e of the basis: the column of e / q_v
    and v, the first variable e uses."""
    index = _index(dim, deg)
    parents, variables = [], []
    for e in _basis(dim, deg)[_size(dim, deg - 1):]:
        v = next(i for i, x in enumerate(e) if x)
        parents.append(index[e[:v] + (e[v] - 1,) + e[v + 1:]])
        variables.append(v)
    return np.array(parents), np.array(variables)


def _monomial_images(lines: np.ndarray, deg: int) -> np.ndarray:
    """P (N, M, M) over _basis(dim, deg): P[i, e] is the monomial e with
    variable v replaced by the degree-1 row lines[i, v] (N, dim, dim + 1)."""
    n, dim = lines.shape[:2]
    size = _size(dim, deg)
    P = np.zeros((n, size, size), dtype=complex)
    P[:, 0, 0] = 1.0
    P[:, 1:dim + 1, :dim + 1] = lines
    for k in range(2, deg + 1):
        lo, hi = _size(dim, k - 1), _size(dim, k)
        parents, variables = _steps(dim, k)
        P[:, lo:hi, :hi] = _product(P[:, parents, :lo], lines[:, variables],
                                    dim, k - 1, 1)
    return P


def _column_sum(terms: np.ndarray) -> np.ndarray:
    """The sum over axis 1 of terms, added one column at a time onto zero
    in column order."""
    out = np.zeros(terms.shape[:1] + terms.shape[2:], dtype=terms.dtype)
    for k in range(terms.shape[1]):
        out += terms[:, k]
    return out


class _PolyRows:
    """N polynomials in dim variables: row i of coef (N, M) holds the
    coefficients of polynomial i over _basis(dim, deg)."""

    __slots__ = ("dim", "deg", "coef")

    def __init__(self, dim: int, deg: int, coef: np.ndarray):
        self.dim, self.deg, self.coef = dim, deg, coef

    @classmethod
    def of(cls, polys, dim: int) -> "_PolyRows":
        """The {exponent tuple: coefficient} mappings as rows, at the highest
        degree of their nonzero coefficients, in their first dim variables:
        any further variable must be unused."""
        deg = max((sum(e) for p in polys for e, c in p.items() if c != 0),
                  default=0)
        index = _index(dim, deg)
        coef = np.zeros((len(polys), len(index)), dtype=complex)
        for row, poly in zip(coef, polys):
            for exps, c in poly.items():
                if c != 0:
                    row[index[exps[:dim]]] = c
        return cls(dim, deg, coef)

    def at(self, p: np.ndarray) -> np.ndarray:
        """The value of each row at the point p of shape (dim,)."""
        return self.coef @ np.prod(p ** _exponents(self.dim, self.deg), axis=1)

    def repeat(self, n: int) -> "_PolyRows":
        """Row 0 as n rows, a read-only view."""
        return _PolyRows(self.dim, self.deg, np.broadcast_to(
            self.coef[0], (n, self.coef.shape[1])))

    def padded(self, deg: int) -> np.ndarray:
        """coef over _basis(dim, deg) for deg >= self.deg; the new columns
        are zero."""
        extra = _size(self.dim, deg) - self.coef.shape[1]
        return np.pad(self.coef, ((0, 0), (0, extra)))

    def conj_times(self, other: "_PolyRows") -> "_PolyRows":
        """Row-wise conj(self) * other."""
        return _PolyRows(self.dim, self.deg + other.deg,
                         _product(self.coef.conj(), other.coef, self.dim,
                                  self.deg, other.deg))

    def substitute(self, M: np.ndarray, c: np.ndarray) -> "_PolyRows":
        """Row i with variable j -> sum_k M[i, j, k] q_k + c[i, j], for M
        (N, dim, dim) and c (N, dim): each coefficient times the image of
        its monomial, one product over the (N, M, M) block, and the images
        added in basis order."""
        if self.deg == 0:
            return self
        lines = np.empty(c.shape + (self.dim + 1,), dtype=complex)
        lines[..., 0], lines[..., 1:] = c, M
        # the images are this call's own: the product overwrites them (in
        # this order: a complex product rounds differently with its
        # factors swapped)
        images = _monomial_images(lines, self.deg)
        np.multiply(self.coef[:, :, None], images, out=images)
        return _PolyRows(self.dim, self.deg, _column_sum(images))


def _poly_mismatch(a: _PolyRows, b: _PolyRows) -> np.ndarray:
    """Per row, the largest coefficient difference of two StateBatch term
    polynomials.  While both are one object, as substitution leaves a
    constant, it is 0 for a row of finite coefficients and NaN for any
    other, so that a non-finite polynomial fails its check."""
    if a is b:
        return np.where(np.isfinite(a.coef).all(axis=1), 0.0, math.nan)
    deg = max(a.deg, b.deg)
    d = a.padded(deg) - b.padded(deg)
    return np.max(np.hypot(d.real, d.imag), axis=1)


def _check_gamma(dim: int, Gamma: np.ndarray) -> np.ndarray:
    Gamma = np.asarray(Gamma, dtype=complex).reshape(dim, dim)
    if not np.isfinite(Gamma).all():
        raise ValueError("Gamma must be finite")
    if np.max(np.abs(Gamma - Gamma.T)) > _SYM_TOL:
        raise ValueError("Gamma must be symmetric")
    # the pivot test of the Gaussian integrals: an accepted state is one
    # whose integrals converge
    integrable, _ = _integrable_root(-2.0 * Gamma[None])
    if not integrable[0]:
        raise ValueError("Re(Gamma) must be negative-definite")
    return Gamma


def _checked_term(dim: int, term) -> tuple:
    """term (poly, alpha, beta, Gamma) as the one-row StateBatch term it
    names, checked; poly is one dense row, or a {exponent tuple:
    coefficient} mapping."""
    poly, alpha, beta, Gamma = term
    if not isinstance(poly, _PolyRows):
        if not all(len(e) == dim and min(e) >= 0 for e in poly):
            raise ValueError("term polynomial has wrong variable count")
        poly = _PolyRows.of([poly], dim)
    if poly.dim != dim or len(poly.coef) != 1:
        raise ValueError("term polynomial has wrong variable count")
    alpha = np.asarray(alpha, dtype=complex).reshape(1)
    beta = np.asarray(beta, dtype=complex).reshape(1, dim)
    Gamma = _check_gamma(dim, Gamma)
    if not (np.isfinite(alpha).all() and np.isfinite(beta).all()
            and np.isfinite(poly.coef).all()):
        raise ValueError("alpha, beta and the polynomial coefficients "
                         "must be finite")
    return poly, alpha, beta, Gamma[None]


class StateBatch:
    """N states of one term layout as stacked arrays; row i is a state.

    Term k is (poly, alpha (N,), beta (N, dim), Gamma (N, dim, dim)), poly
    dense rows (_PolyRows).  A PolyGaussianState is the one-row batch:
    repeat makes n rows of row 0 and row(i) slices row i, a view of every
    array.  Substitution returns a constant as it is.  The transforms keep
    the invariant as the state methods they generalise do, so rows are not
    re-validated, and a transform of a state is a state.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms):
        self.dim = dim
        self.terms = tuple(terms)

    @classmethod
    def _unchecked(cls, dim: int, terms) -> "StateBatch":
        """A cls of terms that keep the invariant by construction: a state
        built here skips the check of PolyGaussianState(...)."""
        out = object.__new__(cls)
        StateBatch.__init__(out, dim, terms)
        return out

    def __len__(self) -> int:
        return len(self.terms[0][1])

    def repeat(self, n: int) -> "StateBatch":
        """Row 0 as n rows: each polynomial broadcast, a read-only view,
        and alpha, beta and Gamma copied (a copy of these small arrays
        takes a quarter of the time of np.broadcast_to)."""
        return StateBatch(self.dim, [
            (poly.repeat(n), *(x[:1].repeat(n, axis=0) for x in rest))
            for poly, *rest in self.terms])

    def row(self, i: int) -> "PolyGaussianState":
        """Row i as a state: row i of every array, a view."""
        return PolyGaussianState._unchecked(self.dim, [
            (_PolyRows(self.dim, poly.deg, poly.coef[i, None]), alpha[i, None],
             beta[i, None], Gamma[i, None])
            for poly, alpha, beta, Gamma in self.terms])

    def substitute(self, W, shift) -> "StateBatch":
        """Row i becomes g(p) = f_i(W_i^T (p + shift_i)), for real orthogonal
        W (N, dim, dim), which is trusted, and complex shift (N, dim)."""
        M = W.swapaxes(-1, -2)
        c = _matvec(M, shift)
        out = []
        for poly, alpha, beta, Gamma in self.terms:
            poly = poly.substitute(M, c)
            cG = (c[:, None, :] @ Gamma)[:, 0]
            # a congruence by orthogonal M keeps Gamma symmetric and
            # Re(Gamma) negative-definite
            out.append((poly, alpha + _dot(beta, c) + _dot(cG, c),
                        _matvec(W, beta) + 2.0 * _matvec(W, _matvec(Gamma, c)),
                        _congruence(W, Gamma, M)))
        return type(self)._unchecked(self.dim, out)

    def multiply_phase(self, quad=None, lin=None, const=None) -> "StateBatch":
        """Row i times exp(const_i + <lin_i, p> + p^T quad_i p); the complex
        increments have shapes (N, dim, dim), (N, dim) and (N,), and None
        adds nothing."""
        return type(self)._unchecked(self.dim, [
            (poly, alpha if const is None else alpha + const,
             beta if lin is None else beta + lin,
             Gamma if quad is None else Gamma + quad)
            for poly, alpha, beta, Gamma in self.terms])


class PolyGaussianState(StateBatch):
    """A StateBatch of one row: a finite sum of polynomial-Gaussian terms
    poly(p) exp(alpha + <beta, p> + p^T Gamma p) in dim variables.

    Its substitute and multiply_phase are the one-row views of the
    StateBatch transforms, for one W, shift, quad and lin; batch code that
    may hold a state calls the StateBatch ones by name.
    """

    __slots__ = ()

    def __init__(self, dim: int, terms):
        """Validating constructor: every (poly, alpha, beta, Gamma) term is
        checked (see the module docstring), so a state built from input is
        sound.  A state has at least one term: the zero state is one term
        with a zero polynomial."""
        terms = [_checked_term(dim, term) for term in terms]
        if not terms:
            raise ValueError("a state needs at least one term")
        super().__init__(dim, terms)

    @classmethod
    def gaussian(cls, dim: int, alpha=0.0, beta=None, Gamma=None,
                 poly=None) -> "PolyGaussianState":
        """One term; poly is a {exponent tuple: coefficient} mapping, 1 by
        default."""
        if beta is None:
            beta = np.zeros(dim, dtype=complex)
        if Gamma is None:
            Gamma = -0.5 * np.eye(dim, dtype=complex)
        if poly is None:
            poly = {(0,) * dim: 1.0}
        return cls(dim, [(poly, alpha, beta, Gamma)])

    def evaluate(self, p) -> complex:
        """The value at one point p of shape (dim,): the sum over terms of
        poly(p) exp(alpha + <beta, p> + p^T Gamma p)."""
        p = np.asarray(p)
        if p.shape != (self.dim,):
            raise ValueError(f"point must have shape ({self.dim},)")
        return complex(sum(
            (poly.at(p)[0]
             * cmath.exp(alpha[0] + beta[0] @ p + p @ Gamma[0] @ p)
             for poly, alpha, beta, Gamma in self.terms), 0j))

    def substitute(self, W, shift) -> "PolyGaussianState":
        """New state g with g(p) = self(W^{-1}(p + shift)) for an orthogonal
        W, whose inverse is taken as W^T; any other W raises."""
        W = np.asarray(W, dtype=float).reshape(self.dim, self.dim)
        if not _orthogonal(W):
            raise ValueError("substitute needs an orthogonal W")
        shift = np.asarray(shift, dtype=complex).reshape(self.dim)
        return super().substitute(W[None], shift[None])

    def multiply_phase(self, quad=None, lin=None, const=0.0) -> "PolyGaussianState":
        """Multiply by exp(const + <lin, p> + p^T quad p); the arguments are
        the complex exponent increments."""
        dim = self.dim
        quad = (np.zeros((dim, dim), dtype=complex) if quad is None
                else np.asarray(quad, dtype=complex).reshape(dim, dim))
        lin = (np.zeros(dim, dtype=complex) if lin is None
               else np.asarray(lin, dtype=complex).reshape(dim))
        out = super().multiply_phase(quad[None], lin[None],
                                     np.array((complex(const),)))
        if quad.real.any() or not (quad == quad.T).all():
            # a real or asymmetric quad can break the invariant: check it
            return PolyGaussianState(dim, out.terms)
        return out

    def center(self) -> np.ndarray:
        """Peak of the leading term's Gaussian envelope."""
        _, _, beta, Gamma = self.terms[0]
        return np.linalg.solve(-2.0 * Gamma[0].real, beta[0].real)


@dataclass(frozen=True, eq=False)
class PolyDiffOperator:
    """Sum of c p^e t^k d^deriv terms, derivatives right-most.

    terms is a read-only flat map (deriv, exps) -> c with no zero value:
    deriv is the derivative multi-index in the dim variables p, exps the
    exponents of p followed by that of the external time parameter t.
    """

    dim: int
    terms: MappingProxyType

    @classmethod
    def build(cls, dim: int, entries) -> "PolyDiffOperator":
        """The operator of ((deriv, exps), c) entries; equal keys add up."""
        out: dict = {}
        for (deriv, exps), c in entries:
            deriv, exps = tuple(map(int, deriv)), tuple(map(int, exps))
            if len(deriv) != dim:
                raise ValueError("derivative multi-index has wrong length")
            if len(exps) != dim + 1:
                raise ValueError("coefficient must use dim+1 variables")
            if min(deriv + exps) < 0:
                raise ValueError("derivative orders and exponents must be "
                                 "non-negative")
            key = (deriv, exps)
            out[key] = out.get(key, 0.0) + complex(c)
        return cls._of(dim, out)

    @classmethod
    def _of(cls, dim: int, terms: dict) -> "PolyDiffOperator":
        """The operator of a flat map this class built, zeros dropped."""
        return cls(dim, MappingProxyType(
            {key: c for key, c in terms.items() if c != 0}))

    def __add__(self, other: "PolyDiffOperator") -> "PolyDiffOperator":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0.0) + c
        return PolyDiffOperator._of(self.dim, out)

    def __sub__(self, other: "PolyDiffOperator") -> "PolyDiffOperator":
        return self + other.scale(-1.0)

    def scale(self, c) -> "PolyDiffOperator":
        c = complex(c)
        return PolyDiffOperator._of(self.dim, {key: v * c for key, v
                                               in self.terms.items()})

    def compose(self, other: "PolyDiffOperator") -> "PolyDiffOperator":
        """Operator product self . other by the Leibniz rule, entry by entry:
        c p^e d^a . c' p^f d^b is the sum over j <= a of
        prod_i C(a_i, j_i) (f_i)_(j_i) c c' p^(e + f - j) d^(a - j + b),
        with (x)_k the falling factorial (_leibniz); t is a parameter,
        untouched by the derivatives."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        out: dict = {}
        for (a, e), c in self.terms.items():
            for (b, f), c2 in other.terms.items():
                for key, factor in _leibniz(a, e, b, f):
                    out[key] = out.get(key, 0.0) + c * c2 * factor
        return PolyDiffOperator._of(self.dim, out)

    def commutator(self, other: "PolyDiffOperator") -> "PolyDiffOperator":
        return self.compose(other) - other.compose(self)

    def d_dt(self) -> "PolyDiffOperator":
        """Exact derivative in the external parameter t."""
        return PolyDiffOperator._of(self.dim, {
            (deriv, e[:-1] + (e[-1] - 1,)): c * e[-1]
            for (deriv, e), c in self.terms.items() if e[-1]})

    def at_time(self, t: float) -> "PolyDiffOperator":
        """The operator with t fixed to a number, which must be finite."""
        if not cmath.isfinite(t):
            raise ValueError(f"t must be finite, got {t!r}")
        t = complex(t)
        out: dict = {}
        for (deriv, e), c in self.terms.items():
            key = (deriv, e[:-1] + (0,))
            out[key] = out.get(key, 0.0) + c * t ** e[-1]
        return PolyDiffOperator._of(self.dim, out)

    def norm(self) -> float:
        """Largest coefficient magnitude; zero iff the operator is zero, NaN
        when a coefficient is."""
        c = np.fromiter(self.terms.values(), complex, len(self.terms))
        return float(np.max(np.hypot(c.real, c.imag), initial=0.0))

    def apply_batch(self, states: StateBatch, t: float = 0.0,
                    max_degree: int = DEFAULT_MAX_DEGREE) -> StateBatch:
        """Exact action on each row, with t fixed numerically.  The entries
        nonzero at t form one dense coefficient row per derivative, and each
        derivative gives one term per state term, in sorted order, derivative
        outer; with none, each row is one zero term."""
        if states.dim != self.dim:
            raise ValueError("dimension mismatch")
        dim = self.dim
        groups: dict = {}
        for (deriv, exps), c in self.at_time(t).terms.items():
            groups.setdefault(deriv, {})[exps] = c
        out = []
        for deriv in sorted(groups):
            coeff = _PolyRows.of([groups[deriv]], dim)
            for poly, alpha, beta, Gamma in states.terms:
                deg = poly.deg + sum(deriv) + coeff.deg
                if deg > max_degree:
                    raise DegreeOverflowError(
                        f"degree {deg} exceeds bound {max_degree}")
                for i, k in enumerate(deriv):
                    # d/dp_i [poly e^g] = (poly' + poly lin) e^g, with lin
                    # the degree-1 rows beta_i + 2 (Gamma p)_i
                    lin = np.concatenate((beta[:, i, None], 2.0 * Gamma[:, i]),
                                         axis=1)
                    for _ in range(k):
                        coef = _product(poly.coef, lin, dim, poly.deg, 1)
                        K, J, E = _derivative_columns(dim, poly.deg, i)
                        coef[:, K] += poly.coef[:, J] * E
                        poly = _PolyRows(dim, poly.deg + 1, coef)
                out.append((_PolyRows(dim, deg, _product(
                    poly.coef, coeff.coef, dim, poly.deg, coeff.deg)),
                    alpha, beta, Gamma))
        if not out:
            zero = PolyGaussianState.gaussian(dim, poly={})
            out = zero.repeat(len(states)).terms
        # every term reuses the Gamma of a term of states
        return type(states)._unchecked(dim, out)

    def apply(self, state: PolyGaussianState, t: float = 0.0,
              max_degree: int = DEFAULT_MAX_DEGREE) -> PolyGaussianState:
        """Exact action on a state, with t fixed numerically: apply_batch
        on its one row."""
        return self.apply_batch(state, t, max_degree)


@functools.lru_cache(maxsize=4096)
def _leibniz(a: tuple, e: tuple, b: tuple, f: tuple) -> tuple:
    """The terms of p^e d^a . p^f d^b as (key, factor) pairs: for each j <= a
    with j <= f, where (f_i)_(j_i) does not vanish, the key
    (a - j + b, e + f - j) and the factor prod_i C(a_i, j_i) (f_i)_(j_i)."""
    out = []
    for j in itertools.product(*(range(m + 1) for m in map(min, a, f))):
        factor = 1
        for a_i, f_i, j_i in zip(a, f, j):
            factor *= math.comb(a_i, j_i) * math.perm(f_i, j_i)
        out.append(((tuple(x - y + z for x, y, z in zip(a, j, b)),
                     tuple(x + y - z for x, y, z in zip(e, f, j + (0,)))),
                    factor))
    return tuple(out)


@functools.cache
def _derivative_columns(dim: int, deg: int, i: int) -> np.ndarray:
    """d/dq_i over _basis(dim, deg) as rows (K, J, E): column K[j] of the
    derivative is E[j] times column J[j]."""
    index = _index(dim, deg)
    return np.array([(index[e[:i] + (e[i] - 1,) + e[i + 1:]], j, e[i])
                     for j, e in enumerate(_basis(dim, deg)) if e[i]],
                    dtype=int).reshape(-1, 3).T


@functools.cache
def _moment_table(dim: int, deg: int) -> tuple:
    """The moments of _basis(dim, deg) as rounds (K, J, A, B, C): column
    K[j] gains C[j] S[A[j], B[j]] times column J[j], for S = [Sigma | m]
    (N, dim, dim + 1).  E[q^e] is m_a E[q^r] plus the sum over b of r_b
    Sigma[a, b] E[q^(r - 1_b)], for (r, a) the parent and variable of e
    (_steps), its terms in that order; the rounds run by degree, so a
    column is complete before a higher degree reads it."""
    index = _index(dim, deg)
    rounds = []
    for d in range(1, deg + 1):
        terms = []
        for k, r, a in zip(range(_size(dim, d - 1), _size(dim, d)),
                           *_steps(dim, d)):
            rest = _basis(dim, d)[r]
            terms.append([(k, r, a, dim, 1)] + [
                (k, index[rest[:b] + (c - 1,) + rest[b + 1:]], a, b, c)
                for b, c in enumerate(rest) if c])
        rounds += [tuple(map(np.array, zip(*(t[i] for t in terms
                                             if len(t) > i))))
                   for i in range(max(map(len, terms)))]
    return tuple(rounds)


def _moments(Sigma: np.ndarray, m: np.ndarray, deg: int) -> np.ndarray:
    """E[q^e] (N, M) of a Gaussian with mean m (N, dim) and complex
    covariance Sigma (N, dim, dim) for each e of _basis(dim, deg), one
    product per round."""
    n, dim = m.shape
    S = np.concatenate((Sigma, m[:, :, None]), axis=2)
    out = np.zeros((n, _size(dim, deg)), dtype=complex)
    out[:, 0] = 1.0
    for K, J, A, B, C in _moment_table(dim, deg):
        out[:, K] += C * S[:, A, B] * out[:, J]
    return out


def _integrable_root(A: np.ndarray):
    """Per matrix of the stack A = -2 Gamma: whether it is finite with Re A
    positive-definite (its pivots positive, by Sylvester), and sqrt(det A)
    as prod sqrt(p_k) over the pivots of A (1 where not integrable).  Each
    Re p_k > 0, as Schur complements of accretive matrices are accretive, so
    this root is continuous on the convex set Re A > 0 and positive on real
    A: the branch of prod sqrt(lambda_k) over the eigenvalues."""
    n = len(A)
    # one LDL^T pass, without pivoting, over the lower triangles of
    # [Re A ; A]; a zero pivot makes the later ones inf or NaN
    P = np.concatenate((A.real.astype(complex), A))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(A.shape[-1] - 1):
            col = P[:, k + 1:, k]
            P[:, k + 1:, k + 1:] -= ((col / P[:, k, k, None])[:, :, None]
                                     * col[:, None, :])
    pivots = np.diagonal(P, axis1=1, axis2=2)
    integrable = (np.isfinite(A).all(axis=(1, 2))
                  & (pivots[:n].real > 0.0).all(axis=1))
    roots = np.sqrt(np.where(integrable[:, None], pivots[n:], 1.0))
    det_root = roots[:, 0]
    for k in range(1, A.shape[-1]):
        det_root = det_root * roots[:, k]
    return integrable, det_root


def _gaussian_integrals(poly: _PolyRows, alpha: np.ndarray, beta: np.ndarray,
                        Gamma: np.ndarray):
    """Row-wise integral of poly[i](p) exp(alpha + <beta,p> + p^T Gamma p)
    over R^dim, and per row whether it converges: Gamma must be finite and
    Re(-2 Gamma) positive-definite (_integrable_root).  A row that does not
    converge gives NaN.  The polynomial meets the moments of the Gaussian's
    own mean and covariance (_moments) in one product over the (N, M)
    block, whose columns are then added in basis order."""
    dim = beta.shape[1]
    # part by part: the complex product by -2 would take 0 * inf of an
    # infinite part, which warns and carries a NaN into the other part
    A = _complex(-2.0 * Gamma.real, -2.0 * Gamma.imag)
    integrable, det_root = _integrable_root(A)
    # stand-in rows keep solve and inv off a singular or non-finite matrix
    A = np.where(integrable[:, None, None], A, np.eye(dim))
    m = np.linalg.solve(A, beta[:, :, None])[:, :, 0]
    Sigma = np.linalg.inv(A)
    prefactor = ((2.0 * math.pi) ** (dim / 2.0) / det_root
                 * np.exp(alpha + 0.5 * _dot(beta, m)))
    # the integrand is poly(q) times a Gaussian of mean m, covariance Sigma
    total = _column_sum(poly.coef * _moments(Sigma, m, poly.deg))
    out = prefactor * total
    out[~integrable] = complex(math.nan, math.nan)
    return out, integrable


def _inner_products(F: "StateBatch", G: "StateBatch"):
    """Row-wise <F[i], G[i]>, and per row whether every term pair's
    Gaussian integral converges."""
    if F.dim != G.dim or len(F) != len(G):
        raise ValueError("dimension or row count mismatch")
    n = len(F)
    total = np.zeros(n, dtype=complex)
    integrable = np.ones(n, dtype=bool)
    for pf, af, bf, Gf in F.terms:
        for pg, ag, bg, Gg in G.terms:
            poly = pf.conj_times(pg)
            value, ok = _gaussian_integrals(poly, af.conjugate() + ag,
                                            bf.conjugate() + bg,
                                            Gf.conjugate() + Gg)
            total = total + value
            integrable &= ok
    return total, integrable


def inner_product_batch(F: "StateBatch", G: "StateBatch") -> np.ndarray:
    """Row-wise <F[i], G[i]> as an (N,) complex array; a row with a term
    pair whose Gaussian does not converge gives NaN."""
    return _inner_products(F, G)[0]


def inner_product(f: PolyGaussianState, g: PolyGaussianState) -> complex:
    """<f, g> = integral of conj(f(p)) g(p) over R^dim, in closed form."""
    value, integrable = _inner_products(f, g)
    if not integrable[0]:
        raise ValueError("non-integrable Gaussian combination")
    return complex(value[0])


@functools.cache
def _draw_columns(dim: int, degree: int) -> np.ndarray:
    """Column in _basis(dim, degree) of each non-constant monomial, in the
    order random_state draws their coefficients."""
    index = _index(dim, degree)
    return np.array([index[e] for e in _monomials_up_to(dim, degree)
                     if sum(e) > 0], dtype=int)


def _state_widths(dim: int, max_degree: int, n_terms: int = 1) -> tuple:
    """(normals, uniforms) that a random state of polynomial degree at most
    max_degree takes: per term B and C (dim^2 each), Re beta and Im beta
    (dim each) and a pair per non-constant monomial, then the shift of
    Re Gamma, Re alpha and Im alpha."""
    return (n_terms * (2 * dim * (dim + 1) + 2 * (_size(dim, max_degree) - 1)),
            3 * n_terms)


def _states_from_blocks(normal: np.ndarray, uniform: np.ndarray, dim: int,
                        degree, n_terms: int = 1) -> StateBatch:
    """The random states of the rows of a normal and a uniform block, each
    row as wide as _state_widths gives for some highest degree; row i's
    polynomial has degree degree[i] (or degree, for every row) and takes the
    first coefficient pairs of its row, so it does not depend on the width.
    One array pass builds every row's alpha, beta, Gamma and coefficients."""
    n, k, end = len(normal), dim * dim, 2 * dim * (dim + 1)
    normal = normal.reshape(n, n_terms, -1).swapaxes(0, 1)
    uniform = uniform.reshape(n, n_terms, 3).swapaxes(0, 1)
    degree = np.broadcast_to(degree, (n,))
    shape = (n_terms, n, dim, dim)
    B = normal[..., :k].reshape(shape)
    # Re Gamma = -(BB^T/2 + cI) with c >= 0.4 is negative-definite, and
    # Gamma is symmetric, so the terms keep the invariant by construction
    re_g = -(0.5 * B @ B.swapaxes(-1, -2)
             + (0.4 + 0.3 * uniform[..., 0])[..., None, None] * np.eye(dim))
    C = normal[..., k:2 * k].reshape(shape) * 0.25
    Gamma = re_g + 1j * (C + C.swapaxes(-1, -2)) / 2.0
    beta = (normal[..., 2 * k:2 * k + dim] * 0.5
            + 1j * normal[..., 2 * k + dim:end] * 0.5)
    a = _uniform(uniform[..., 1:], 0.2)
    alpha = _complex(a[..., 0], a[..., 1])
    deg = int(degree.max(initial=0))
    coef = np.zeros((n_terms, n, _size(dim, deg)), dtype=complex)
    coef[..., 0] = 1.0
    for d in range(1, deg + 1):
        rows = np.flatnonzero(degree == d)
        cols = _draw_columns(dim, d)
        pairs = normal[:, rows, end:end + 2 * len(cols)] * 0.3
        coef[:, rows[:, None], cols] = _complex(pairs[..., 0::2],
                                                pairs[..., 1::2])
    polys = [_PolyRows(dim, deg, c) for c in coef]
    return StateBatch(dim, zip(polys, alpha, beta, Gamma))


def random_state(rng, dim: int, poly_degree: int = 0,
                 n_terms: int = 1) -> PolyGaussianState:
    """Seeded random normalizable state; poly_degree 0 gives pure Gaussians,
    which are nowhere zero.

    The one-row block draw of _states_from_blocks: its _state_widths normals
    and then its uniforms, both from rng (a seed or a numpy Generator)."""
    rng = np.random.default_rng(rng)
    n_normal, n_uniform = _state_widths(dim, poly_degree, n_terms)
    normal = rng.standard_normal((1, n_normal))
    return _states_from_blocks(normal, rng.random((1, n_uniform)), dim,
                               poly_degree, n_terms).row(0)


def _monomials_up_to(dim: int, degree: int):
    """Every exponent tuple of total degree <= degree in dim variables, in
    lexicographic order."""
    return (e for e in itertools.product(range(degree + 1), repeat=dim)
            if sum(e) <= degree)

