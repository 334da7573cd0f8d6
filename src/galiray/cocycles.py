"""Phase exponents of the projective Galilei representations.

Five closed-form two-argument exponents (xi0, xi1, xi2, xi_eta, xi_t), the
cocycle residual that validates them, coboundary shifts, and the
infinitesimal-exponent limit computed by Richardson extrapolation.

Every exponent is called row-wise: xi(r, s) takes two GalileiBatches and
returns xi(r[i], s[i]) for every row.  A PhaseExponent's call is
evaluate_batch, where each formula is written once; a coboundary-shifted
exponent (equivalence_transform) calls its base and phi the same way.
evaluate is the 1-row view of any exponent.  cocycle_residual_batch and
infinitesimal_exponent_batch run every triple, pair and tau as one batch,
and cocycle_residual and infinitesimal_exponent are their 1-row views.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields
from typing import NamedTuple

import numpy as np

from . import algebra as la
from . import group as gg

__all__ = [
    "PhaseExponent",
    "InfinitesimalExponentValue",
    "evaluate",
    "evaluate_batch",
    "cocycle_residual",
    "cocycle_residual_batch",
    "equivalence_transform",
    "infinitesimal_exponent",
    "infinitesimal_exponent_batch",
    "DEFAULT_TAU_SEQUENCE",
]

DEFAULT_TAU_SEQUENCE = (0.1, 0.05, 0.025, 0.0125, 0.00625)


class _Exponent(NamedTuple):
    params: tuple  # the PhaseExponent fields its formula reads
    dims: tuple  # the dims it is defined in, the CLI's default first


_EXPONENTS = {
    "xi0": _Exponent(("gamma",), (3, 1, 2)),
    "xi1": _Exponent(("lam",), (2,)),
    "xi2": _Exponent(("S",), (2,)),
    "xi_eta": _Exponent(("a1", "a2"), (1,)),
    "xi_t": _Exponent(("gamma", "t"), (2, 1, 3)),
}


@dataclass(frozen=True)
class PhaseExponent:
    """Named exponent with its multiplicative parameters.

    gamma scales xi0 and xi_t (mass), lam scales xi1, S scales xi2,
    a1/a2 weight the two parts of the 1D exponent xi_eta, t enters xi_t only.
    _EXPONENTS gives each exponent's dims; a parameter it does not read
    must keep its default, or it is a ValueError.
    """

    name: str
    dim: int
    gamma: float = 1.0
    lam: float = 1.0
    S: float = 1.0
    a1: float = 1.0
    a2: float = 1.0
    t: float = 0.0

    def __post_init__(self):
        if self.name not in _EXPONENTS:
            raise ValueError(f"unknown exponent {self.name!r}")
        params, dims = _EXPONENTS[self.name]
        if self.dim not in dims:
            raise ValueError(f"{self.name} is defined in dims "
                             f"{sorted(dims)}, got {self.dim!r}")
        for field in dataclass_fields(self)[2:]:
            value = getattr(self, field.name)
            if field.name not in params and value != field.default:
                raise ValueError(f"{self.name} does not read the parameter "
                                 f"{field.name!r}: it must keep its default "
                                 f"{field.default!r}, got {value!r}")

    def params(self) -> dict:
        """The parameters the named exponent actually uses, for reports."""
        return {"lambda" if field == "lam" else field: getattr(self, field)
                for field in _EXPONENTS[self.name].params}

    def __call__(self, r: gg.GalileiBatch, s: gg.GalileiBatch) -> np.ndarray:
        return evaluate_batch(self, r, s)


def evaluate(xi, r: gg.GalileiElement, s: gg.GalileiElement) -> float:
    """xi(r, s) of two elements as a real number (no 2pi wrapping); xi is
    any row-wise exponent."""
    return float(xi(gg._row(r), gg._row(s))[0])


def cocycle_residual(xi, r: gg.GalileiElement, s: gg.GalileiElement,
                     q: gg.GalileiElement) -> float:
    """|xi(r,s) + xi(rs,q) - xi(s,q) - xi(r,sq)| of three elements; xi is
    any row-wise exponent."""
    return float(cocycle_residual_batch(xi, gg._row(r), gg._row(s),
                                        gg._row(q))[0])


def evaluate_batch(xi: PhaseExponent, r: gg.GalileiBatch,
                   s: gg.GalileiBatch) -> np.ndarray:
    """xi(r[i], s[i]) for every row, as real numbers (no 2pi wrapping)."""
    if r.dim != s.dim or r.dim != xi.dim:
        raise ValueError("dimension mismatch between exponent and elements")
    if xi.name == "xi0":
        Wv = gg._matvec(r.W, s.v)
        val = 0.5 * (gg._dot(r.u, Wv) - gg._dot(r.v, gg._matvec(r.W, s.u))
                     + s.eta * gg._dot(r.v, Wv))
        return xi.gamma * val
    if xi.name == "xi1":
        Wv = gg._matvec(r.W, s.v)
        return xi.lam * 0.5 * (r.v[:, 0] * Wv[:, 1] - r.v[:, 1] * Wv[:, 0])
    if xi.name == "xi2":
        th_r = gg._rotation_angles(r.W)
        th_s = gg._rotation_angles(s.W)
        return xi.S * (th_r * s.eta - th_s * r.eta)
    if xi.name == "xi_eta":
        # a1 part is the dim-1 restriction of xi0 (eta_s v_r v_s); the
        # printed eta_r variant fails the cocycle identity.
        ur, vr, er = r.u[:, 0], r.v[:, 0], r.eta
        us, vs, es = s.u[:, 0], s.v[:, 0], s.eta
        part1 = ur * vs - us * vr + es * vr * vs
        part2 = ur * es - us * er - er * es * vr
        return 0.5 * (xi.a1 * part1 + xi.a2 * part2)
    # xi_t
    return -xi.gamma * gg._dot(r.v, gg._matvec(r.W, s.v)) * xi.t


def cocycle_residual_batch(xi, r: gg.GalileiBatch, s: gg.GalileiBatch,
                           q: gg.GalileiBatch) -> np.ndarray:
    """Row-wise cocycle_residual over triples of rows."""
    rs = gg.multiply_batch(r, s)
    sq = gg.multiply_batch(s, q)
    return np.abs(xi(r, s) + xi(rs, q) - xi(s, q) - xi(r, sq))


@dataclass(frozen=True)
class _TransformedExponent:
    """xi'(r,s) = xi(r,s) + phi(r) + phi(s) - phi(rs); same cocycle class.
    Row-wise, as its base exponent and phi."""

    name: str
    dim: int
    base: object
    phi: object

    def __call__(self, r: gg.GalileiBatch, s: gg.GalileiBatch) -> np.ndarray:
        return (self.base(r, s) + self.phi(r) + self.phi(s)
                - self.phi(gg.multiply_batch(r, s)))


def equivalence_transform(xi, phi, dim: int | None = None):
    """Shift the exponent xi by the coboundary of phi, a row-wise function
    of a GalileiBatch (one value per row) that must vanish at the identity;
    a NaN there fails too."""
    if dim is None:
        dim = xi.dim
    at_identity = np.asarray(phi(gg.identity_batch(dim, 1))).item()
    if not abs(at_identity) <= 1e-12:
        raise ValueError(f"phi(identity) must be 0, got {at_identity}")
    name = getattr(xi, "name", "custom")
    return _TransformedExponent(name=f"{name}+coboundary", dim=dim,
                                base=xi, phi=phi)


@dataclass(frozen=True)
class InfinitesimalExponentValue:
    value: float
    tau_sequence: tuple
    extrapolation_error: float
    converged: bool


def _richardson(taus, values) -> tuple:
    """Full Richardson table over each row of values (N, len(taus)),
    eliminating successive integer powers of tau.

    The bracket combination is analytic in tau with leading term tau^2, so
    after division by tau^2 the error series holds every integer power of
    tau starting at tau^1; odd powers do occur (boost with time
    translation gives an exactly linear F).  The weights depend on the taus
    alone and are computed as Python floats.
    """
    rows = [values]
    nodes = list(taus)
    for p in range(1, len(taus)):
        w = np.array([(b / a) ** p for a, b in zip(nodes, nodes[1:])])
        prev = rows[-1]
        rows.append((prev[:, 1:] - w * prev[:, :-1]) / (1.0 - w))
        nodes = nodes[1:]
    final = rows[-1][:, 0]
    err = np.abs(final - rows[-2][:, -1])
    converged = np.isfinite(final) & (err < 1e-7)
    return final, err, converged


def _distinct_rows(X: la.AlgebraBatch, Y: la.AlgebraBatch) -> tuple:
    """The distinct rows of X and Y as one batch, and the row of it that
    each row of X and of Y is.  Rows are equal only bit for bit: a -0.0 is
    not a 0.0, and a NaN matches only its own bits."""
    fields = [np.concatenate((getattr(X, f), getattr(Y, f)))
              for f in la.AlgebraBatch.__slots__]
    table = np.concatenate([x.reshape(len(x), math.prod(x.shape[1:]))
                            for x in fields], axis=1, dtype=float)
    data, width = table.tobytes(), table.itemsize * table.shape[1]
    rows: dict = {}
    inverse = np.fromiter((rows.setdefault(data[i:i + width], len(rows))
                           for i in range(0, len(data), width)), int,
                          len(table))
    first = np.unique(inverse, return_index=True)[1]
    return (la.AlgebraBatch(*fields)[first], inverse[:len(X)],
            inverse[len(X):])


def _checked_taus(tau_sequence) -> tuple:
    """tau_sequence as a tuple of floats; ValueError unless it holds at
    least 3 values, all finite, positive and distinct (_richardson divides
    by 1 - (b/a)**p, which is 0 for a repeated tau)."""
    taus = tuple(map(float, tau_sequence))
    if len(taus) < 3 or not all(math.isfinite(t) and t > 0 for t in taus):
        raise ValueError(f"tau_sequence needs at least 3 entries, all finite "
                         f"and positive, got {list(taus)}")
    repeated = sorted({t for t in taus if taus.count(t) > 1})
    if repeated:
        raise ValueError(f"tau_sequence must not repeat a value, got "
                         f"{repeated} more than once in {list(taus)}")
    return taus


def infinitesimal_exponent_batch(xi, X: la.AlgebraBatch, Y: la.AlgebraBatch,
                                 tau_sequence=DEFAULT_TAU_SEQUENCE) -> tuple:
    """Second-order limit
    lim tau^-2 [xi(gh, g^-1 h^-1) + xi(g, h) + xi(g^-1, h^-1)]
    with g = exponential(tau X[i]), h = exponential(tau Y[i]), as the (N,)
    arrays (value, extrapolation_error, converged); xi is any row-wise
    exponent.  The exponentials exp(tau X) and exp(tau Y) and their
    inverses run as one batch, once per distinct row of X and Y and tau,
    and all pairs and taus as one batch of len(X) * len(tau_sequence)
    rows."""
    taus = _checked_taus(tau_sequence)
    n, k = len(X), len(taus)
    U, ix, iy = _distinct_rows(X, Y)
    # row u * k + j is U[u] at taus[j]
    m = len(U)
    g = la.exponential_batch(U[np.repeat(np.arange(m), k)].scale(
        np.tile(taus, m)))
    ginv = gg.inverse_batch(g)
    # row i * k + j is pair i at taus[j]
    gx = (ix[:, None] * k + np.arange(k)).ravel()
    gy = (iy[:, None] * k + np.arange(k)).ravel()
    g, h, ginv, hinv = g[gx], g[gy], ginv[gx], ginv[gy]
    gh, ginv_hinv = gg.multiply_batch(g, h), gg.multiply_batch(ginv, hinv)
    total = xi(gh, ginv_hinv) + xi(g, h) + xi(ginv, hinv)
    # tau ** 2 as Python rounds it
    samples = total.reshape(n, k) / np.array([tau ** 2 for tau in taus])
    return _richardson(taus, samples)


def infinitesimal_exponent(xi, X: la.AlgebraElement, Y: la.AlgebraElement,
                           tau_sequence=DEFAULT_TAU_SEQUENCE) -> InfinitesimalExponentValue:
    """The 1-row view of infinitesimal_exponent_batch."""
    taus = tuple(map(float, tau_sequence))
    value, err, converged = infinitesimal_exponent_batch(
        xi, la._row(X), la._row(Y), taus)
    return InfinitesimalExponentValue(
        value=float(value[0]), tau_sequence=taus,
        extrapolation_error=float(err[0]), converged=bool(converged[0]))
