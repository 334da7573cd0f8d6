"""Galilei group elements in (1+1), (2+1) and (3+1) dimensions.

An element bundles a rotation W, a time shift eta, a boost velocity v and a
space translation u, composed as (W_r W_s, eta_r + eta_s, W_r v_s + v_r,
W_r u_s + u_r + eta_s v_r).  The faithful (dim+2)x(dim+2) matrix picture and
the momentum action used by the ray representations live here too.

Each operation is written once, over GalileiBatch rows; multiply, inverse,
embed_matrix and rotation_angle run it on a 1-row batch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GalileiElement",
    "GalileiBatch",
    "identity",
    "multiply",
    "inverse",
    "embed_matrix",
    "act_on_momentum",
    "rotation_2d",
    "rotation_angle",
    "random_rotation",
    "random_element",
    "random_element_batch",
    "identity_batch",
    "stack_batches",
    "multiply_batch",
    "inverse_batch",
    "embed_matrix_batch",
    "element_to_dict",
    "element_from_dict",
]

_ORTHO_TOL = 1e-9


def _check_dim(dim):
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")


def _frozen(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class GalileiElement:
    """Immutable group element (W, eta, v, u) in spatial dimension dim."""

    dim: int
    W: np.ndarray
    eta: float
    v: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        _check_dim(self.dim)
        W = np.array(self.W, dtype=float).reshape(self.dim, self.dim)
        v = np.array(self.v, dtype=float).reshape(self.dim)
        u = np.array(self.u, dtype=float).reshape(self.dim)
        ortho_err = np.max(np.abs(W.T @ W - np.eye(self.dim)))
        # written so that a NaN deviation fails too
        if not ortho_err <= _ORTHO_TOL:
            raise ValueError(f"W not orthogonal, max deviation {ortho_err:.3e}")
        if np.linalg.det(W) < 0.0:
            raise ValueError("W must be a proper rotation (det +1)")
        eta = float(self.eta)
        if not all(map(math.isfinite, (eta, *v.tolist(), *u.tolist()))):
            raise ValueError("eta, v and u must be finite")
        object.__setattr__(self, "W", _frozen(W))
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "v", _frozen(v))
        object.__setattr__(self, "u", _frozen(u))

    def __repr__(self):
        return (f"GalileiElement(dim={self.dim}, W={self.W.tolist()}, "
                f"eta={self.eta}, v={self.v.tolist()}, u={self.u.tolist()})")


def identity(dim: int) -> GalileiElement:
    """Neutral element in the given dimension."""
    z = np.zeros(dim)
    return GalileiElement(dim, np.eye(dim), 0.0, z, z)


class GalileiBatch:
    """N elements of one dimension as stacked arrays: W (N,dim,dim),
    eta (N,), v (N,dim), u (N,dim).

    Batches come from random_element_batch, whose rotations are proper by
    construction, from validated elements (one row each), and from the
    batched operations below, which trust their operands and do not
    re-validate the rows they build.
    """

    # not a dataclass: generating a dataclass's methods at import takes
    # longer than the rest of this module's set-up
    __slots__ = ("W", "eta", "v", "u")

    def __init__(self, W, eta, v, u):
        self.W, self.eta, self.v, self.u = W, eta, v, u

    @property
    def dim(self) -> int:
        return self.W.shape[-1]

    def __len__(self) -> int:
        return len(self.eta)

    def __getitem__(self, rows) -> "GalileiBatch":
        """Sub-batch of the selected rows (a slice or an index array)."""
        return GalileiBatch(self.W[rows], self.eta[rows], self.v[rows],
                            self.u[rows])

    def element(self, i: int) -> GalileiElement:
        """Row i as a validated GalileiElement."""
        return GalileiElement(self.dim, self.W[i], self.eta[i], self.v[i],
                              self.u[i])


def _matvec(A, x):
    """Row-wise A[i] @ x[i]."""
    return (A @ x[..., None])[..., 0]


def _dot(x, y):
    """Row-wise x[i] @ y[i]."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def identity_batch(dim: int, n: int) -> GalileiBatch:
    """n copies of the neutral element."""
    z = np.zeros((n, dim))
    return GalileiBatch(np.broadcast_to(np.eye(dim), (n, dim, dim)),
                        np.zeros(n), z, z)


def stack_batches(batches) -> GalileiBatch:
    """The rows of several batches of one dimension, in order, as one."""
    return GalileiBatch(*(np.concatenate([getattr(b, f) for b in batches])
                          for f in GalileiBatch.__slots__))


def multiply_batch(r: GalileiBatch, s: GalileiBatch) -> GalileiBatch:
    """Row-wise composition r[i] s[i]."""
    if r.dim != s.dim:
        raise ValueError(f"dimension mismatch: {r.dim} vs {s.dim}")
    return GalileiBatch(
        r.W @ s.W,
        r.eta + s.eta,
        _matvec(r.W, s.v) + r.v,
        _matvec(r.W, s.u) + r.u + s.eta[:, None] * r.v,
    )


def inverse_batch(r: GalileiBatch) -> GalileiBatch:
    """Row-wise inverse."""
    Winv = r.W.transpose(0, 2, 1)
    return GalileiBatch(
        np.ascontiguousarray(Winv),
        -r.eta,
        -_matvec(Winv, r.v),
        -_matvec(Winv, r.u - r.eta[:, None] * r.v),
    )


def embed_matrix_batch(r: GalileiBatch) -> np.ndarray:
    """(N, dim+2, dim+2) stack of the faithful matrices of the rows."""
    n, d = len(r), r.dim
    M = np.zeros((n, d + 2, d + 2))
    M[:, :d, :d] = r.W
    M[:, :d, d] = r.v
    M[:, :d, d + 1] = r.u
    M[:, d, d] = 1.0
    M[:, d, d + 1] = r.eta
    M[:, d + 1, d + 1] = 1.0
    return M


def _row(r: GalileiElement) -> GalileiBatch:
    """r as a 1-row batch: the scalar operations below are its row 0."""
    return GalileiBatch(r.W[None], np.array((r.eta,)), r.v[None], r.u[None])


def multiply(r: GalileiElement, s: GalileiElement) -> GalileiElement:
    """Group composition rs."""
    return multiply_batch(_row(r), _row(s)).element(0)


def inverse(r: GalileiElement) -> GalileiElement:
    """Group inverse, so that multiply(r, inverse(r)) is the identity."""
    return inverse_batch(_row(r)).element(0)


def embed_matrix(r: GalileiElement) -> np.ndarray:
    """Faithful (dim+2)x(dim+2) matrix: [[W, v, u], [0, 1, eta], [0, 0, 1]].

    Matrix multiplication of embeddings reproduces the group law.
    """
    return embed_matrix_batch(_row(r))[0]


def act_on_momentum(r: GalileiElement, p, gamma: float) -> np.ndarray:
    """Substitution argument W^{-1}(p + gamma v) used by the momentum reps."""
    p = np.asarray(p, dtype=float)
    return r.W.T @ (p + gamma * r.v)


def rotation_2d(theta: float) -> np.ndarray:
    """2D rotation matrix for angle theta."""
    return _rotations_2d((theta,))[0]


def rotation_angle(r) -> float:
    """Angle of the rotation part, dim=2 only; principal branch (-pi, pi]."""
    W = r.W if isinstance(r, GalileiElement) else np.asarray(r, dtype=float)
    if W.shape != (2, 2):
        raise ValueError("rotation_angle is defined only for dim=2")
    return float(_rotation_angles(W[None])[0])


def _rotation_angles(W) -> np.ndarray:
    """rotation_angle of each matrix of a (N,2,2) stack."""
    # math.atan2, not np.arctan2, whose SIMD kernel may round differently
    return np.fromiter(map(math.atan2, W[:, 1, 0], W[:, 0, 0]), float, len(W))


def random_rotation(rng, dim: int, max_angle: float = math.pi) -> np.ndarray:
    """Random rotation: trivial at dim=1, uniform angle at dim=2,
    uniform-axis/uniform-angle at dim=3.  max_angle bounds |angle|."""
    _check_dim(dim)
    W, _ = _draw_rows(np.random.default_rng(rng), 1, dim, max_angle, 0)
    return W[0]


def random_element(seed, dim: int, scale: float = 1.0,
                   max_angle: float = math.pi) -> GalileiElement:
    """Seeded random element: W a random rotation, eta and the components of
    v, u uniform in [-scale, scale].

    seed may be an integer or a numpy Generator (streamed draws).  max_angle
    restricts the rotation angle; cocycle sweeps pass a value below pi/3 so
    that angles of triple products stay on the principal branch.  This is
    row 0 of random_element_batch(seed, 1, ...), so n calls on one Generator
    give the rows of one n-row batch draw.
    """
    return random_element_batch(seed, 1, dim, scale, max_angle).element(0)


def _uniform(U, bound: float):
    """Map unit uniforms U as rng.uniform(-bound, bound) maps its draw."""
    low = -bound
    return low + (bound - low) * U


def _rotations_2d(angle) -> np.ndarray:
    """rotation_2d of each angle."""
    # math, not np.cos/np.sin: numpy's SIMD kernels may round differently
    # from libm, and the draws must not depend on the batch size
    n = len(angle)
    c = np.fromiter(map(math.cos, angle), float, n)
    s = np.fromiter(map(math.sin, angle), float, n)
    W = np.empty((n, 2, 2))
    W[:, 0, 0] = c
    W[:, 0, 1] = -s
    W[:, 1, 0] = s
    W[:, 1, 1] = c
    return W


def _rodrigues(angle, axes) -> np.ndarray:
    """Rotations by angle about each axis (normalized here)."""
    n = len(angle)
    axes = axes / np.sqrt(_dot(axes, axes))[:, None]
    K = np.zeros((n, 3, 3))
    K[:, 0, 1], K[:, 0, 2] = -axes[:, 2], axes[:, 1]
    K[:, 1, 0], K[:, 1, 2] = axes[:, 2], -axes[:, 0]
    K[:, 2, 0], K[:, 2, 1] = -axes[:, 1], axes[:, 0]
    sin = np.fromiter(map(math.sin, angle), float, n)[:, None, None]
    cos = np.fromiter(map(math.cos, angle), float, n)[:, None, None]
    return np.eye(3) + sin * K + (1.0 - cos) * (K @ K)


def _draw_rows(rng, n: int, dim: int, max_angle: float, n_uniform: int):
    """(W (n,dim,dim), U (n,n_uniform)): per row a random rotation then
    n_uniform unit uniforms, taken from rng in the order of n successive
    scalar draws (rotation angle, dim-3 axis, then the uniforms)."""
    if dim == 1:
        return np.ones((n, 1, 1)), rng.random((n, n_uniform))
    if dim == 2:
        U = rng.random((n, 1 + n_uniform))
        return _rotations_2d(_uniform(U[:, 0], max_angle)), U[:, 1:]
    # the axis normals come from a ziggurat that takes a data-dependent
    # number of raw draws, so rows are drawn one after another
    angle = np.empty(n)
    axes = np.empty((n, 3))
    U = np.empty((n, n_uniform))
    for i in range(n):
        angle[i] = rng.random()
        axes[i] = rng.normal(size=3)
        U[i] = rng.random(n_uniform)
    return _rodrigues(_uniform(angle, max_angle), axes), U


def random_element_batch(seed, n: int, dim: int, scale: float = 1.0,
                         max_angle: float = math.pi) -> GalileiBatch:
    """n seeded random elements, distributed as random_element.

    Consumes the stream of seed (an integer or a numpy Generator) exactly as
    n calls of random_element do, so the rows are the elements those calls
    return.
    """
    _check_dim(dim)
    rng = np.random.default_rng(seed)
    W, U = _draw_rows(rng, n, dim, max_angle, 1 + 2 * dim)
    X = _uniform(U, scale)
    return GalileiBatch(W, X[:, 0], X[:, 1:1 + dim], X[:, 1 + dim:])


def element_to_dict(r: GalileiElement) -> dict:
    """JSON-ready encoding with W flattened row-major."""
    return {
        "dim": r.dim,
        "W": [float(x) for x in r.W.reshape(-1)],
        "eta": r.eta,
        "v": [float(x) for x in r.v],
        "u": [float(x) for x in r.u],
    }


def element_from_dict(d: dict) -> GalileiElement:
    dim = int(d["dim"])
    W = np.asarray(d["W"], dtype=float).reshape(dim, dim)
    return GalileiElement(dim, W, float(d["eta"]), d["v"], d["u"])
