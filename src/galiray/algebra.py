"""Lie algebra of the Galilei group over the basis {a_ij, b_i, d_i, f}.

a_ij generate rotations (matrix with +1 at (i,j), -1 at (j,i)), b_i space
translations, d_i boosts, f time translation.  The commutator is carried out
on the coefficient blocks, which reproduces the matrix commutator of the
(dim+2)x(dim+2) embedding exactly.  AlgebraBatch holds N elements as stacked
arrays.  Each operation is written once, over batch rows, as in the group
module: commutator, jacobi_residual, embed_algebra and exponential run it on
a 1-row batch.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .group import (GalileiBatch, GalileiElement, _check_dim, _frozen,
                    _matvec, _uniform)

__all__ = [
    "AlgebraElement",
    "AlgebraBatch",
    "zero",
    "basis_element",
    "basis_names",
    "commutator",
    "jacobi_residual",
    "embed_algebra",
    "exponential",
    "random_algebra_element",
    "random_algebra_batch",
    "algebra_batch_from_uniforms",
    "commutator_batch",
    "jacobi_residual_batch",
    "embed_algebra_batch",
    "exponential_batch",
    "algebra_to_dict",
    "algebra_from_dict",
]

_ANTISYM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """Real coefficients: rot (antisymmetric matrix over a_ij), trans (b_i),
    boost (d_i), time (f)."""

    dim: int
    rot: np.ndarray
    trans: np.ndarray
    boost: np.ndarray
    time: float

    def __post_init__(self):
        _check_dim(self.dim)
        rot = np.array(self.rot, dtype=float).reshape(self.dim, self.dim)
        if np.max(np.abs(rot + rot.T)) > _ANTISYM_TOL:
            raise ValueError("rot must be antisymmetric")
        object.__setattr__(self, "rot", _frozen(rot))
        object.__setattr__(self, "trans",
                           _frozen(np.asarray(self.trans, dtype=float).reshape(self.dim)))
        object.__setattr__(self, "boost",
                           _frozen(np.asarray(self.boost, dtype=float).reshape(self.dim)))
        object.__setattr__(self, "time", float(self.time))

    def scale(self, c: float) -> "AlgebraElement":
        return _row(self).scale(c).element(0)

    def add(self, other: "AlgebraElement") -> "AlgebraElement":
        return _row(self).add(_row(other)).element(0)

    def max_abs(self) -> float:
        return float(_row(self).max_abs()[0])


def zero(dim: int) -> AlgebraElement:
    z = np.zeros(dim)
    return AlgebraElement(dim, np.zeros((dim, dim)), z, z, 0.0)


def basis_names(dim: int) -> list[str]:
    """All basis element names for the dimension, e.g. a12, b1, d1, f."""
    names = [f"a{i + 1}{j + 1}" for i in range(dim) for j in range(i + 1, dim)]
    names += [f"b{i + 1}" for i in range(dim)]
    names += [f"d{i + 1}" for i in range(dim)]
    names.append("f")
    return names


def basis_element(name: str, dim: int) -> AlgebraElement:
    """Basis element by name string: "a12", "b1", "d3" or "f" (1-based)."""
    X = zero(dim)
    if name == "f":
        return AlgebraElement(dim, X.rot, X.trans, X.boost, 1.0)
    m = re.fullmatch(r"([abd])([1-3])([1-3])?", name)
    if not m:
        raise ValueError(f"unknown basis element {name!r}")
    kind, i = m.group(1), int(m.group(2)) - 1
    if kind == "a":
        if m.group(3) is None:
            raise ValueError(f"rotation basis needs two indices, got {name!r}")
        j = int(m.group(3)) - 1
        if i == j or i >= dim or j >= dim:
            raise ValueError(f"indices of {name!r} out of range for dim {dim}")
        rot = np.zeros((dim, dim))
        rot[i, j] = 1.0
        rot[j, i] = -1.0
        return AlgebraElement(dim, rot, X.trans, X.boost, 0.0)
    if m.group(3) is not None:
        raise ValueError(f"unknown basis element {name!r}")
    if i >= dim:
        raise ValueError(f"index of {name!r} out of range for dim {dim}")
    vec = np.zeros(dim)
    vec[i] = 1.0
    if kind == "b":
        return AlgebraElement(dim, X.rot, vec, X.boost, 0.0)
    return AlgebraElement(dim, X.rot, X.trans, vec, 0.0)


def random_algebra_element(seed, dim: int, scale: float = 1.0) -> AlgebraElement:
    """Seeded random element with coefficients uniform in [-scale, scale]:
    row 0 of random_algebra_batch(seed, 1, dim, scale)."""
    return random_algebra_batch(seed, 1, dim, scale).element(0)


class AlgebraBatch:
    """N algebra elements of one dimension as stacked arrays: rot
    (N,dim,dim), trans (N,dim), boost (N,dim), time (N,).

    Batches come from algebra_batch_from_uniforms, whose rot blocks are
    antisymmetric by construction, from validated elements (one row each),
    and from the batched operations, which do not re-validate the rows they
    build.
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

    def element(self, i: int) -> AlgebraElement:
        """Row i as a validated AlgebraElement."""
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
            (self.rot.reshape(n, -1), self.trans, self.boost,
             self.time[:, None]), axis=1)), axis=1)


def algebra_batch_from_uniforms(U, dim: int,
                                scale: float = 1.0) -> AlgebraBatch:
    """Map unit uniforms U (N, (dim+1)**2) to the rows random_algebra_element
    draws from them: dim**2 for the rotation block, then trans, boost, time."""
    n, d = len(U), dim
    X = _uniform(U, scale)
    A = X[:, :d * d].reshape(n, d, d)
    return AlgebraBatch(A - A.transpose(0, 2, 1), X[:, d * d:d * d + d],
                        X[:, d * d + d:d * d + 2 * d], X[:, -1])


def random_algebra_batch(seed, n: int, dim: int,
                         scale: float = 1.0) -> AlgebraBatch:
    """n seeded random elements, consuming the stream of seed (an integer or
    a numpy Generator) exactly as n calls of random_algebra_element do."""
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


# Taylor terms of exp after scaling to norm <= 1/2: the smallest K whose
# remainder bound 0.5**(K+1) / (K+1)! falls below the unit roundoff 2**-53
_TAYLOR_TERMS = 14


def _expm_batch(M: np.ndarray) -> np.ndarray:
    """Scaled-and-squared Taylor series of each matrix of the stack M
    (N,n,n), as in Moler and Van Loan.  Every matrix keeps its own squaring
    count, which scales it to infinity-norm <= 1/2.  There the terms after
    the first K = _TAYLOR_TERMS sum to about 0.5**(K+1) / (K+1)!, below the
    unit roundoff 2**-53, so every row runs the same K terms, in Horner
    form: no row depends on another, and a NaN row gives NaN in its own row
    only."""
    n = M.shape[1]
    norm = np.max(np.sum(np.abs(M), axis=2), axis=1)
    # ceil(log2(norm / 0.5)) from the binary exponent: x = m * 2**e with
    # 0.5 <= m < 1, so the ceiling is e, or e - 1 when m is exactly 0.5
    m, e = np.frexp(norm / 0.5)
    squarings = np.where(norm > 0.5, e - (m == 0.5), 0)
    A = M / np.ldexp(1.0, squarings)[:, None, None]
    eye = np.eye(n)
    result = eye + A / _TAYLOR_TERMS
    for k in range(_TAYLOR_TERMS - 1, 0, -1):
        result = eye + A @ result / k
    for step in range(int(squarings.max(initial=0))):
        rows = squarings > step
        result[rows] = result[rows] @ result[rows]
    return result


def exponential_batch(X: AlgebraBatch) -> GalileiBatch:
    """Row-wise exponential map onto the group, via the embedding."""
    d = X.dim
    E = _expm_batch(embed_algebra_batch(X))
    # contiguous copies, as GalileiElement makes, so that later products
    # run the same BLAS kernels as on the scalar elements
    return GalileiBatch(np.ascontiguousarray(E[:, :d, :d]), E[:, d, d + 1],
                        np.ascontiguousarray(E[:, :d, d]),
                        np.ascontiguousarray(E[:, :d, d + 1]))


def _row(X: AlgebraElement) -> AlgebraBatch:
    """X as a 1-row batch: the scalar operations below are its row 0."""
    return AlgebraBatch(X.rot[None], X.trans[None], X.boost[None],
                        np.array((X.time,)))


def commutator(X: AlgebraElement, Y: AlgebraElement) -> AlgebraElement:
    """[X, Y], matching the matrix commutator of the embedding."""
    return commutator_batch(_row(X), _row(Y)).element(0)


def jacobi_residual(X: AlgebraElement, Y: AlgebraElement,
                    Z: AlgebraElement) -> float:
    """Max-norm of [X,[Y,Z]] + [Y,[Z,X]] + [Z,[X,Y]]."""
    return float(jacobi_residual_batch(_row(X), _row(Y), _row(Z))[0])


def embed_algebra(X: AlgebraElement) -> np.ndarray:
    """(dim+2)x(dim+2) matrix [[rot, boost, trans], [0, 0, time], [0, 0, 0]].

    The matrix exponential of this embedding is the group embedding of
    exponential(X).
    """
    return embed_algebra_batch(_row(X))[0]


def exponential(X: AlgebraElement) -> GalileiElement:
    """Exponential map onto the group, via the embedding."""
    return exponential_batch(_row(X)).element(0)


def algebra_to_dict(X: AlgebraElement) -> dict:
    return {
        "dim": X.dim,
        "rot": [float(x) for x in X.rot.reshape(-1)],
        "trans": [float(x) for x in X.trans],
        "boost": [float(x) for x in X.boost],
        "time": X.time,
    }


def algebra_from_dict(d: dict) -> AlgebraElement:
    dim = int(d["dim"])
    rot = np.asarray(d["rot"], dtype=float).reshape(dim, dim)
    return AlgebraElement(dim, rot, d["trans"], d["boost"], float(d["time"]))
