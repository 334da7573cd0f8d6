"""Galilei group elements in (1+1), (2+1) and (3+1) dimensions.

An element bundles a rotation W, a time shift eta, a boost velocity v and a
space translation u, composed as (W_r W_s, eta_r + eta_s, W_r v_s + v_r,
W_r u_s + u_r + eta_s v_r).  The faithful (dim+2)x(dim+2) matrix picture
lives here too; the momentum substitution of the ray representations is
representations.apply_batch's.

Each operation is written once, over GalileiBatch rows; multiply, inverse
and embed_matrix run it on a 1-row batch.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GalileiElement",
    "GalileiBatch",
    "multiply",
    "inverse",
    "embed_matrix",
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
_eye = functools.lru_cache(lambda n: _frozen(np.eye(n)))  # one per n
# closed-form determinant of a (dim, dim) matrix from its row-major entries
_DET = {1: lambda a: a,
        2: lambda a, b, c, d: a * d - b * c,
        3: lambda a, b, c, d, e, f, g, h, i: (
            a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g))}


def _check_dim(dim):
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")


def _is_number(x) -> bool:
    """A float, or an int that a float holds, but not a bool: a JSON true is
    an int in Python, and a JSON integer may exceed every float."""
    if isinstance(x, int) and not isinstance(x, bool):
        return abs(x) <= sys.float_info.max
    return isinstance(x, float)


def _frozen(a):
    a.flags.writeable = False
    return a


def _orthogonal(W) -> bool:
    """W is within _ORTHO_TOL of orthogonal; a NaN deviation fails too."""
    return np.abs(W.T @ W - _eye(len(W))).max() <= _ORTHO_TOL


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
        W = _frozen(np.array(self.W, dtype=float).reshape(self.dim, self.dim))
        v = _frozen(np.array(self.v, dtype=float).reshape(self.dim))
        u = _frozen(np.array(self.u, dtype=float).reshape(self.dim))
        eta = float(self.eta)
        if not _orthogonal(W):
            raise ValueError(f"W not orthogonal within {_ORTHO_TOL}")
        # W is orthogonal, so det W is +-1 to about 1e-9 and its sign exact
        if _DET[self.dim](*W.ravel().tolist()) < 0.0:
            raise ValueError("W must be a proper rotation (det +1)")
        self._set(self.dim, W, eta, v, u)

    def _set(self, dim, W, eta, v, u):  # once eta, v and u are shown finite
        if not all(map(math.isfinite, (eta, *v.tolist(), *u.tolist()))):
            raise ValueError("eta, v and u must be finite")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "u", u)

    def __repr__(self):
        return (f"GalileiElement(dim={self.dim}, W={self.W.tolist()}, "
                f"eta={self.eta}, v={self.v.tolist()}, u={self.u.tolist()})")


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


def _trusted(b: GalileiBatch) -> GalileiElement:
    """Row 0 of a product or inverse of validated elements, whose W is a
    proper rotation by construction: only the finiteness test runs."""
    r = object.__new__(GalileiElement)
    r._set(b.dim, _frozen(b.W[0]), float(b.eta[0]), _frozen(b.v[0]),
           _frozen(b.u[0]))
    return r


def multiply(r: GalileiElement, s: GalileiElement) -> GalileiElement:
    """Group composition rs, not re-validated but for an overflow of eta,
    v or u, which raises ValueError as GalileiElement does."""
    return _trusted(multiply_batch(_row(r), _row(s)))


def inverse(r: GalileiElement) -> GalileiElement:
    """Group inverse, so that multiply(r, inverse(r)) is the identity."""
    return _trusted(inverse_batch(_row(r)))


def embed_matrix(r: GalileiElement) -> np.ndarray:
    """Faithful (dim+2)x(dim+2) matrix: [[W, v, u], [0, 1, eta], [0, 0, 1]].

    Matrix multiplication of embeddings reproduces the group law.
    """
    return embed_matrix_batch(_row(r))[0]


def _rotation_angles(W) -> np.ndarray:
    """The angle of each rotation of a (N,2,2) stack, on the principal
    branch (-pi, pi]."""
    # one np.arctan2 call: it rounds each row alike, whatever its position
    # or the batch size, though not always as libm's atan2 does
    return np.arctan2(W[:, 1, 0], W[:, 0, 0])


def random_element(seed, dim: int, scale: float = 1.0,
                   max_angle: float = math.pi) -> GalileiElement:
    """Row 0 of random_element_batch(seed, 1, ...), as an element."""
    return random_element_batch(seed, 1, dim, scale, max_angle).element(0)


def _uniform(U, bound: float):
    """Map unit uniforms U as rng.uniform(-bound, bound) maps its draw."""
    low = -bound
    return low + (bound - low) * U


def _rotations_2d(angle) -> np.ndarray:
    """The (N,2,2) stack of the rotations by each angle."""
    # one np.cos/np.sin call per batch: numpy's float64 cos and sin round as
    # libm does on every row, so a draw does not depend on its batch size
    c, s = np.cos(angle), np.sin(angle)
    W = np.empty((len(c), 2, 2))
    W[:, 0, 0] = c
    W[:, 0, 1] = -s
    W[:, 1, 0] = s
    W[:, 1, 1] = c
    return W


def _sphere_points(U) -> np.ndarray:
    """Points uniform on the unit sphere, one per row of unit uniforms U
    (n, 2): the height z uniform in [-1, 1] (Archimedes), then the azimuth
    uniform in [-pi, pi]."""
    n = len(U)
    z = _uniform(U[:, 0], 1.0)
    phi = _uniform(U[:, 1], math.pi)
    rho = np.sqrt(1.0 - z * z)
    P = np.empty((n, 3))
    # np.cos/np.sin on the whole batch, as in _rotations_2d
    P[:, 0] = rho * np.cos(phi)
    P[:, 1] = rho * np.sin(phi)
    P[:, 2] = z
    return P


def _rodrigues(angle, axes) -> np.ndarray:
    """Rotations by angle about each axis (normalized here)."""
    n = len(angle)
    axes = axes / np.sqrt(_dot(axes, axes))[:, None]
    K = np.zeros((n, 3, 3))
    K[:, 0, 1], K[:, 0, 2] = -axes[:, 2], axes[:, 1]
    K[:, 1, 0], K[:, 1, 2] = axes[:, 2], -axes[:, 0]
    K[:, 2, 0], K[:, 2, 1] = -axes[:, 1], axes[:, 0]
    # np.cos/np.sin on the whole batch, as in _rotations_2d
    sin = np.sin(angle)[:, None, None]
    cos = np.cos(angle)[:, None, None]
    return np.eye(3) + sin * K + (1.0 - cos) * (K @ K)


def _raw_width(dim: int) -> int:
    """Unit uniforms per random element: the rotation's (none, an angle, or
    an angle and the two of a dim-3 axis), then eta, v and u."""
    return (0, 0, 1, 3)[dim] + 1 + 2 * dim


def _from_raw(raw: np.ndarray, dim: int, scale: float = 1.0,
              max_angle: float = math.pi) -> GalileiBatch:
    """The elements of the rows of unit uniforms raw (n, _raw_width(dim)):
    the rotation angle uniform in [-max_angle, max_angle] about an axis
    uniform on the sphere, eta and the components of v, u uniform in
    [-scale, scale]."""
    n = len(raw)
    if dim == 1:
        W = np.ones((n, 1, 1))
    elif dim == 2:
        W = _rotations_2d(_uniform(raw[:, 0], max_angle))
    else:
        W = _rodrigues(_uniform(raw[:, 0], max_angle),
                       _sphere_points(raw[:, 1:3]))
    X = _uniform(raw[:, _raw_width(dim) - 1 - 2 * dim:], scale)
    return GalileiBatch(W, X[:, 0], X[:, 1:1 + dim], X[:, 1 + dim:])


def random_element_batch(seed, n: int, dim: int, scale: float = 1.0,
                         max_angle: float = math.pi) -> GalileiBatch:
    """n seeded random elements: W a random rotation, eta and the
    components of v, u uniform in [-scale, scale].

    Each row takes _raw_width(dim) uniforms of the stream of seed (an integer
    or a numpy Generator), so n one-row draws from one Generator give the
    rows of one n-row draw.  max_angle restricts the rotation angle; cocycle
    sweeps pass a value below pi/3 so that angles of triple products stay on
    the principal branch.
    """
    _check_dim(dim)
    rng = np.random.default_rng(seed)
    return _from_raw(rng.random((n, _raw_width(dim))), dim, scale, max_angle)


def element_to_dict(r: GalileiElement) -> dict:
    """JSON-ready encoding with W flattened row-major."""
    return {
        "dim": r.dim,
        "W": [float(x) for x in r.W.reshape(-1)],
        "eta": r.eta,
        "v": [float(x) for x in r.v],
        "u": [float(x) for x in r.u],
    }


def _numbers(key: str, value, n: int) -> list:
    """A document's list of n numbers."""
    if not (isinstance(value, (list, tuple)) and len(value) == n
            and all(map(_is_number, value))):
        raise ValueError(f"{key} must be a list of {n} numbers, "
                         f"got {value!r}")
    return value


def element_from_dict(d: dict) -> GalileiElement:
    """Inverse of element_to_dict; ValueError for any other document.

    dim is 1, 2 or 3; W (row-major), v and u are lists of dim^2, dim and
    dim numbers, and eta is a number.  A number is a JSON number: neither
    a string nor a boolean.
    """
    try:
        dim = d["dim"]
        if not (_is_number(dim) and dim in (1, 2, 3)):
            raise ValueError(f"dim must be 1, 2 or 3, got {dim!r}")
        dim = int(dim)
        if not _is_number(d["eta"]):
            raise ValueError(f"eta must be a number, got {d['eta']!r}")
        return GalileiElement(dim, _numbers("W", d["W"], dim * dim), d["eta"],
                              _numbers("v", d["v"], dim),
                              _numbers("u", d["u"], dim))
    except KeyError as exc:
        raise ValueError(f"element lacks the key {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed element {d!r}: {exc}") from exc
