"""Phase exponents of the projective Galilei representations.

Five closed-form two-argument exponents (xi0, xi1, xi2, xi_eta, xi_t), the
cocycle residual that validates them, coboundary shifts, and the
infinitesimal-exponent limit computed by Richardson extrapolation.  The
exponents and the residual also come in a row-wise form over GalileiBatch.
"""
from __future__ import annotations

from dataclasses import dataclass

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
    "DEFAULT_TAU_SEQUENCE",
]

DEFAULT_TAU_SEQUENCE = (0.1, 0.05, 0.025, 0.0125, 0.00625)

_NAMES = ("xi0", "xi1", "xi2", "xi_eta", "xi_t")


@dataclass(frozen=True)
class PhaseExponent:
    """Named exponent with its multiplicative parameters.

    gamma scales xi0 and xi_t (mass), lam scales xi1, S scales xi2,
    a1/a2 weight the two parts of the 1D exponent xi_eta, t enters xi_t only.
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
        if self.name not in _NAMES:
            raise ValueError(f"unknown exponent {self.name!r}")
        if self.name in ("xi1", "xi2") and self.dim != 2:
            raise ValueError(f"{self.name} requires dim=2")
        if self.name == "xi_eta" and self.dim != 1:
            raise ValueError("xi_eta requires dim=1")

    def params(self) -> dict:
        """The parameters the named exponent actually uses, for reports."""
        used = {
            "xi0": ("gamma",),
            "xi1": ("lambda",),
            "xi2": ("S",),
            "xi_eta": ("a1", "a2"),
            "xi_t": ("gamma", "t"),
        }[self.name]
        all_params = {"gamma": self.gamma, "lambda": self.lam, "S": self.S,
                      "a1": self.a1, "a2": self.a2, "t": self.t}
        return {k: all_params[k] for k in used}

    def __call__(self, r: gg.GalileiElement, s: gg.GalileiElement) -> float:
        return evaluate(self, r, s)


def _wedge(a, b) -> float:
    return float(a[0] * b[1] - a[1] * b[0])


def evaluate(xi: PhaseExponent, r: gg.GalileiElement,
             s: gg.GalileiElement) -> float:
    """xi(r, s) as a real number (no 2pi wrapping)."""
    if r.dim != s.dim or r.dim != xi.dim:
        raise ValueError("dimension mismatch between exponent and elements")
    if xi.name == "xi0":
        Wv = r.W @ s.v
        val = 0.5 * (float(r.u @ Wv) - float(r.v @ (r.W @ s.u))
                     + s.eta * float(r.v @ Wv))
        return xi.gamma * val
    if xi.name == "xi1":
        return xi.lam * 0.5 * _wedge(r.v, r.W @ s.v)
    if xi.name == "xi2":
        th_r = gg.rotation_angle(r)
        th_s = gg.rotation_angle(s)
        return xi.S * (th_r * s.eta - th_s * r.eta)
    if xi.name == "xi_eta":
        # a1 part is the dim-1 restriction of xi0 (eta_s v_r v_s); the
        # printed eta_r variant fails the cocycle identity.
        ur, vr, er = r.u[0], r.v[0], r.eta
        us, vs, es = s.u[0], s.v[0], s.eta
        part1 = ur * vs - us * vr + es * vr * vs
        part2 = ur * es - us * er - er * es * vr
        return 0.5 * (xi.a1 * part1 + xi.a2 * part2)
    # xi_t
    return -xi.gamma * float(r.v @ (r.W @ s.v)) * xi.t


def cocycle_residual(xi, r: gg.GalileiElement, s: gg.GalileiElement,
                     q: gg.GalileiElement) -> float:
    """|xi(r,s) + xi(rs,q) - xi(s,q) - xi(r,sq)|.

    xi may be a PhaseExponent or any callable of two elements.
    """
    rs = gg.multiply(r, s)
    sq = gg.multiply(s, q)
    return abs(xi(r, s) + xi(rs, q) - xi(s, q) - xi(r, sq))


def evaluate_batch(xi: PhaseExponent, r: gg.GalileiBatch,
                   s: gg.GalileiBatch) -> np.ndarray:
    """Row-wise evaluate: xi(r[i], s[i]) for every row."""
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
        ur, vr, er = r.u[:, 0], r.v[:, 0], r.eta
        us, vs, es = s.u[:, 0], s.v[:, 0], s.eta
        part1 = ur * vs - us * vr + es * vr * vs
        part2 = ur * es - us * er - er * es * vr
        return 0.5 * (xi.a1 * part1 + xi.a2 * part2)
    # xi_t
    return -xi.gamma * gg._dot(r.v, gg._matvec(r.W, s.v)) * xi.t


def cocycle_residual_batch(xi: PhaseExponent, r: gg.GalileiBatch,
                           s: gg.GalileiBatch,
                           q: gg.GalileiBatch) -> np.ndarray:
    """Row-wise cocycle_residual of a PhaseExponent over triples of rows."""
    rs = gg.multiply_batch(r, s)
    sq = gg.multiply_batch(s, q)
    return np.abs(evaluate_batch(xi, r, s) + evaluate_batch(xi, rs, q)
                  - evaluate_batch(xi, s, q) - evaluate_batch(xi, r, sq))


@dataclass(frozen=True)
class _TransformedExponent:
    """xi'(r,s) = xi(r,s) + phi(r) + phi(s) - phi(rs); same cocycle class."""

    name: str
    dim: int
    base: object
    phi: object

    def __call__(self, r, s):
        return self.base(r, s) + self.phi(r) + self.phi(s) - self.phi(gg.multiply(r, s))


def equivalence_transform(xi, phi, dim: int | None = None):
    """Shift xi by the coboundary of phi.  phi must vanish at the identity."""
    if dim is None:
        dim = xi.dim
    at_identity = phi(gg.identity(dim))
    if abs(at_identity) > 1e-12:
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


def _richardson(taus, values) -> tuple[float, float, bool]:
    """Full Richardson table eliminating successive integer powers of tau.

    The bracket combination is analytic in tau with leading term tau^2, so
    after division by tau^2 the error series holds every integer power of
    tau starting at tau^1; odd powers do occur (boost with time
    translation gives an exactly linear F).
    """
    rows = [list(values)]
    nodes = list(taus)
    p = 1
    while len(rows[-1]) > 1:
        prev = rows[-1]
        nxt = []
        for k in range(len(prev) - 1):
            w = (nodes[k + 1] / nodes[k]) ** p
            nxt.append((prev[k + 1] - w * prev[k]) / (1.0 - w))
        rows.append(nxt)
        nodes = nodes[1:]
        p += 1
    final = rows[-1][0]
    prev_best = rows[-2][-1] if len(rows) > 1 else final
    err = abs(final - prev_best)
    converged = bool(np.isfinite(final)) and err < 1e-7
    return final, err, converged


def infinitesimal_exponent(xi, X: la.AlgebraElement, Y: la.AlgebraElement,
                           tau_sequence=DEFAULT_TAU_SEQUENCE) -> InfinitesimalExponentValue:
    """Second-order limit
    lim tau^-2 [xi(gh, g^-1 h^-1) + xi(g, h) + xi(g^-1, h^-1)]
    with g = exponential(tau X), h = exponential(tau Y)."""
    taus = tuple(float(t) for t in tau_sequence)
    if len(taus) < 3 or any(t <= 0 for t in taus):
        raise ValueError("tau_sequence must hold at least 3 positive values")
    samples = []
    for tau in taus:
        g = la.exponential(X.scale(tau))
        h = la.exponential(Y.scale(tau))
        ginv = gg.inverse(g)
        hinv = gg.inverse(h)
        total = (xi(gg.multiply(g, h), gg.multiply(ginv, hinv))
                 + xi(g, h) + xi(ginv, hinv))
        samples.append(total / tau ** 2)
    value, err, converged = _richardson(taus, samples)
    return InfinitesimalExponentValue(value=value, tau_sequence=taus,
                                      extrapolation_error=err,
                                      converged=converged)

