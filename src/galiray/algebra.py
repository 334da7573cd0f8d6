"""Lie algebra of the Galilei group over the basis {a_ij, b_i, d_i, f}.

a_ij generate rotations (matrix with +1 at (i,j), -1 at (j,i)), b_i space
translations, d_i boosts, f time translation.  The commutator is carried out
on the coefficient blocks, which reproduces the matrix commutator of the
(dim+2)x(dim+2) embedding exactly.  AlgebraBatch holds N elements as stacked
arrays, and an AlgebraElement is the validated one-row AlgebraBatch.  Each
operation is written once, over batch rows, as in the group module:
commutator, jacobi_residual, embed_algebra and exponential call it on their
elements as they are.  The basis is one cached, read-only AlgebraBatch per
dimension, in the order of basis_names; basis_rows reads named rows of it,
and basis_element copies one.

The exponential is in closed form on the blocks too: the rotation, and the
integrated rotations phi_1(R), phi_2(R) that carry the boost and the
translation, whose coefficients are functions of the rotation angle (Taylor
series below the switch _SERIES, where their closed forms cancel).  sin and
cos come from one np.sin/np.cos call per batch, which rounds as libm does on
every row, and the rest is element-wise arithmetic and 3x3 products, so a
row never depends on the other rows of its batch.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .group import (GalileiBatch, GalileiElement, _check_dim, _frozen,
                    _matvec, _rotations_2d, _uniform)

__all__ = [
    "AlgebraElement",
    "AlgebraBatch",
    "basis_element",
    "basis_names",
    "basis_rows",
    "commutator",
    "jacobi_residual",
    "embed_algebra",
    "exponential",
    "random_algebra_batch",
    "algebra_batch_from_uniforms",
    "commutator_batch",
    "jacobi_residual_batch",
    "embed_algebra_batch",
    "exponential_batch",
]

_ANTISYM_TOL = 1e-12


def basis_names(dim: int) -> list[str]:
    """All basis element names for the dimension, e.g. a12, b1, d1, f."""
    names = [f"a{i + 1}{j + 1}" for i in range(dim) for j in range(i + 1, dim)]
    names += [f"b{i + 1}" for i in range(dim)]
    names += [f"d{i + 1}" for i in range(dim)]
    names.append("f")
    return names


@functools.cache
def _basis_table(dim: int) -> "AlgebraBatch":
    """The elements of basis_names(dim), in order, as the read-only rows of
    one AlgebraBatch: a_ij has +1 at rot (i,j) and -1 at (j,i), b_i and d_i
    the unit vector e_i, and f the time 1 (indices 1-based)."""
    names = basis_names(dim)
    n = len(names)
    rot, time = np.zeros((n, dim, dim)), np.zeros(n)
    trans, boost = np.zeros((n, dim)), np.zeros((n, dim))
    for k, name in enumerate(names):
        index = [int(c) - 1 for c in name[1:]]
        if name[0] == "a":
            i, j = index
            rot[k, i, j], rot[k, j, i] = 1.0, -1.0
        elif name == "f":
            time[k] = 1.0
        else:
            (trans if name[0] == "b" else boost)[k, index[0]] = 1.0
    return AlgebraBatch(*map(_frozen, (rot, trans, boost, time)))


def basis_rows(names, dim: int) -> "AlgebraBatch":
    """The named basis elements as the rows of one AlgebraBatch; a name
    outside basis_names(dim) is a ValueError."""
    _check_dim(dim)
    valid = basis_names(dim)
    unknown = [name for name in names if name not in valid]
    if unknown:
        raise ValueError(f"unknown basis element {unknown[0]!r} for dim "
                         f"{dim}: expected one of {', '.join(valid)}")
    return _basis_table(dim)[[valid.index(name) for name in names]]


def basis_element(name: str, dim: int) -> AlgebraElement:
    """Basis element by name string: "a12", "b1", "d3" or "f" (1-based),
    row 0 of basis_rows([name], dim)."""
    return basis_rows([name], dim).element(0)


class AlgebraBatch:
    """N algebra elements of one dimension as stacked arrays: rot
    (N,dim,dim), trans (N,dim), boost (N,dim), time (N,).

    Batches come from algebra_batch_from_uniforms, whose rot blocks are
    antisymmetric by construction, from validated elements, and from the
    batched operations, which do not re-validate the rows they build.
    """

    # a plain class, as GalileiBatch
    __slots__ = ("rot", "trans", "boost", "time")

    def __init__(self, rot, trans, boost, time):
        self.rot, self.trans, self.boost, self.time = rot, trans, boost, time

    @property
    def dim(self) -> int:
        return self.rot.shape[-1]

    def __len__(self) -> int:
        return len(self.time)

    def __getitem__(self, rows) -> "AlgebraBatch":
        """Sub-batch of the selected rows (a slice or an index array)."""
        return AlgebraBatch(self.rot[rows], self.trans[rows], self.boost[rows],
                            self.time[rows])

    def element(self, i: int) -> AlgebraElement:
        """Row i as a validated AlgebraElement, a copy."""
        return AlgebraElement(self.dim, self.rot[i], self.trans[i],
                              self.boost[i], self.time[i])

    def scale(self, c) -> "AlgebraBatch":
        """Rows times c, a scalar or one factor per row."""
        c = np.asarray(c, dtype=float)
        return AlgebraBatch(c[..., None, None] * self.rot,
                            c[..., None] * self.trans,
                            c[..., None] * self.boost, c * self.time)

    def add(self, other: "AlgebraBatch") -> "AlgebraBatch":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return AlgebraBatch(self.rot + other.rot, self.trans + other.trans,
                            self.boost + other.boost, self.time + other.time)

    def max_abs(self) -> np.ndarray:
        """Per-row max-norm; NaN in a row gives NaN."""
        n = len(self)
        return np.max(np.abs(np.concatenate(
            (self.rot.reshape(n, self.dim ** 2), self.trans, self.boost,
             self.time[:, None]), axis=1)), axis=1)


class AlgebraElement(AlgebraBatch):
    """Real coefficients: rot (antisymmetric matrix over a_ij), trans (b_i),
    boost (d_i), time (f).  It is the one-row AlgebraBatch, rot
    (1,dim,dim), trans and boost (1,dim), time (1,), each array read-only."""

    __slots__ = ()

    def __init__(self, dim: int, rot, trans, boost, time):
        _check_dim(dim)
        rot = np.array(rot, dtype=float).reshape(1, dim, dim)
        trans = np.array(trans, dtype=float).reshape(1, dim)
        boost = np.array(boost, dtype=float).reshape(1, dim)
        time = np.array(time, dtype=float).reshape(1)
        # before the antisymmetry test, where inf + (-inf) would warn
        if not all(map(math.isfinite, (*time.tolist(), *rot.ravel().tolist(),
                                       *trans.ravel().tolist(),
                                       *boost.ravel().tolist()))):
            raise ValueError("rot, trans, boost and time must be finite")
        if np.max(np.abs(rot[0] + rot[0].T)) > _ANTISYM_TOL:
            raise ValueError("rot must be antisymmetric")
        super().__init__(*map(_frozen, (rot, trans, boost, time)))


def algebra_batch_from_uniforms(U, dim: int,
                                scale: float = 1.0) -> AlgebraBatch:
    """Map unit uniforms U (N, (dim+1)**2) to the rows of random algebra
    elements: dim**2 for the rotation block, then trans, boost, time."""
    n, d = len(U), dim
    X = _uniform(U, scale)
    A = X[:, :d * d].reshape(n, d, d)
    return AlgebraBatch(A - A.transpose(0, 2, 1), X[:, d * d:d * d + d],
                        X[:, d * d + d:d * d + 2 * d], X[:, -1])


def random_algebra_batch(seed, n: int, dim: int,
                         scale: float = 1.0) -> AlgebraBatch:
    """n seeded random elements with coefficients uniform in [-scale,
    scale].  Each row takes (dim+1)**2 uniforms of the stream of seed (an
    integer or a numpy Generator), so n one-row draws from one Generator
    give the rows of one n-row draw."""
    _check_dim(dim)
    rng = np.random.default_rng(seed)
    return algebra_batch_from_uniforms(rng.random((n, (dim + 1) ** 2)), dim,
                                       scale)


def commutator_batch(X: AlgebraBatch, Y: AlgebraBatch) -> AlgebraBatch:
    """Row-wise [X[i], Y[i]] on the coefficient blocks."""
    if X.dim != Y.dim:
        raise ValueError("dimension mismatch")
    rot = X.rot @ Y.rot - Y.rot @ X.rot
    boost = _matvec(X.rot, Y.boost) - _matvec(Y.rot, X.boost)
    trans = (_matvec(X.rot, Y.trans) - _matvec(Y.rot, X.trans)
             + Y.time[:, None] * X.boost - X.time[:, None] * Y.boost)
    return AlgebraBatch(rot, trans, boost, np.zeros(len(X)))


def jacobi_residual_batch(X: AlgebraBatch, Y: AlgebraBatch,
                          Z: AlgebraBatch) -> np.ndarray:
    """Row-wise max-norm of [X,[Y,Z]] + [Y,[Z,X]] + [Z,[X,Y]]."""
    total = commutator_batch(X, commutator_batch(Y, Z)).add(
        commutator_batch(Y, commutator_batch(Z, X))).add(
        commutator_batch(Z, commutator_batch(X, Y)))
    return total.max_abs()


def embed_algebra_batch(X: AlgebraBatch) -> np.ndarray:
    """(N, dim+2, dim+2) stack of embed_algebra of each row."""
    n, d = len(X), X.dim
    M = np.zeros((n, d + 2, d + 2))
    M[:, :d, :d] = X.rot
    M[:, :d, d] = X.boost
    M[:, :d, d + 1] = X.trans
    M[:, d, d + 1] = X.time
    return M


# (switch, terms): below the angle switch, f_3 and f_4 of _angle_functions
# come from their first `terms` Taylor terms, and f_1 = 1 - theta**2 f_3,
# f_2 = 1/2 - theta**2 f_4.  Above it the closed forms run.  Their round-off
# is that of cos and sin, about 2**-53, divided by theta**4 in f_4, by theta**2
# in f_2 and f_3; f_4 meets the output through R**2 (norm theta**2), f_2 and
# f_3 through R, so theta = 1 is where this costs at most 2**-53.  The series
# length is the fewest terms whose first omitted term at the switch is below
# 2**-53 times f_3 and f_4.
_SERIES = (1.0, 8)


def _series(x, m: int):
    """f_m from its first _SERIES[1] Taylor terms in x = theta**2, Horner."""
    terms = _SERIES[1]
    f = 1.0 / math.factorial(2 * terms - 2 + m)
    for j in range(terms - 2, -1, -1):
        f = 1.0 / math.factorial(2 * j + m) - x * f
    return f


def _angle_functions(theta, cos, sin) -> list:
    """[f_1, f_2, f_3, f_4] of the angles theta, given their cos and sin:
    f_m = sum_j (-theta**2)**j / (2j + m)!, that is sin(t)/t,
    (1 - cos t)/t**2, (t - sin t)/t**3 and (t**2/2 - 1 + cos t)/t**4."""
    small = np.abs(theta) < _SERIES[0]
    # a series row divides by 1 here, not by its own angle, which may be 0
    t = np.where(small, 1.0, theta)
    tt = t * t
    f = [sin / t, (1.0 - cos) / tt, (t - sin) / (t * tt),
         (0.5 * tt + (cos - 1.0)) / (tt * tt)]
    if small.any():
        x = np.square(theta[small])
        f3, f4 = _series(x, 3), _series(x, 4)
        for fm, value in zip(f, (1.0 - x * f3, 0.5 - x * f4, f3, f4)):
            fm[small] = value
    return f


def exponential_batch(X: AlgebraBatch) -> GalileiBatch:
    """Row-wise exponential map onto the group, in closed form.

    exp X = (W, tau, phi_1(R) d, phi_1(R) b + tau phi_2(R) d) for X = (rot
    R, trans b, boost d, time tau), with W = exp R and phi_k(R) = sum_j R**j
    / (j + k)!.  In dim 2 and dim 3, R**3 = -theta**2 R, so every phi_k is
    a combination of 1, R and R**2 with the angle functions f_m of
    _angle_functions as coefficients.
    """
    d = X.dim
    R, b, v, tau = X.rot, X.trans, X.boost, X.time
    if d == 1:
        # R is 1x1 and antisymmetric: zero up to round-off, where
        # exp R = 1 + R, and a non-finite R stays in its row
        return GalileiBatch(1.0 + R, tau.copy(), v.copy(),
                            b + 0.5 * tau[:, None] * v)
    # the products below warn on inf * 0, so a row with a non-finite entry
    # becomes NaN before them and stays in its row
    bad = ~np.isfinite(X.max_abs())
    if bad.any():
        R, b, v, tau = R.copy(), b.copy(), v.copy(), tau.copy()
        R[bad] = b[bad] = v[bad] = tau[bad] = np.nan
    if d == 2:
        theta = R[:, 1, 0].copy()
    else:
        theta = np.sqrt(R[:, 2, 1] * R[:, 2, 1] + R[:, 0, 2] * R[:, 0, 2]
                        + R[:, 1, 0] * R[:, 1, 0])
    # np.sin and np.cos warn on an infinite angle; NaN keeps it in its row
    theta[~np.isfinite(theta)] = np.nan
    if d == 2:
        # R**2 = -theta**2, so phi_k(R) = f_k + f_(k+1) R with f_0 = cos
        W = _rotations_2d(theta)
        f1, f2, f3, _ = (f[:, None] for f in _angle_functions(
            theta, W[:, 0, 0], W[:, 1, 0]))
        return GalileiBatch(
            W, tau.copy(), f1 * v + _matvec(R, f2 * v),
            f1 * b + tau[:, None] * f2 * v
            + _matvec(R, f2 * b + tau[:, None] * f3 * v))
    # phi_k(R) = 1/k! + f_(k+1) R + f_(k+2) R**2, Rodrigues' formula at k = 0
    f1, f2, f3, f4 = (f[:, None] for f in _angle_functions(
        theta, np.cos(theta), np.sin(theta)))
    RR = R @ R
    return GalileiBatch(
        np.eye(3) + f1[:, :, None] * R + f2[:, :, None] * RR, tau.copy(),
        v + _matvec(R, f2 * v) + _matvec(RR, f3 * v),
        b + 0.5 * tau[:, None] * v
        + _matvec(R, f2 * b + tau[:, None] * f3 * v)
        + _matvec(RR, f3 * b + tau[:, None] * f4 * v))


def commutator(X: AlgebraElement, Y: AlgebraElement) -> AlgebraElement:
    """[X, Y], matching the matrix commutator of the embedding."""
    return commutator_batch(X, Y).element(0)


def jacobi_residual(X: AlgebraElement, Y: AlgebraElement,
                    Z: AlgebraElement) -> float:
    """Max-norm of [X,[Y,Z]] + [Y,[Z,X]] + [Z,[X,Y]]."""
    return float(jacobi_residual_batch(X, Y, Z)[0])


def embed_algebra(X: AlgebraElement) -> np.ndarray:
    """(dim+2)x(dim+2) matrix [[rot, boost, trans], [0, 0, time], [0, 0, 0]].

    The matrix exponential of this embedding is the group embedding of
    exponential(X).
    """
    return embed_algebra_batch(X)[0]


def exponential(X: AlgebraElement) -> GalileiElement:
    """Exponential map onto the group, via the embedding."""
    return exponential_batch(X).element(0)

