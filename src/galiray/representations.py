"""Explicit ray representations and their time-dependent generators.

Momentum-space kinds act on PolyGaussianState by a quadratic phase and the
substitution p -> W^{-1}(p + gamma v); the position-space kind is specified
by its generator family only.  The action is written once, row-wise over a
GalileiBatch and a StateBatch with a per-row t (apply_batch); apply and
apply_time are its 1-row views.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import basis_element, exponential
from .group import GalileiBatch, GalileiElement, _dot, _rotation_angles, _row
from .states import PolyDiffOperator, PolyGaussianState, Polynomial, StateBatch

__all__ = [
    "KIND_DIMS",
    "MOMENTUM_KINDS",
    "RepDescriptor",
    "rep_to_dict",
    "rep_from_dict",
    "apply",
    "apply_time",
    "apply_batch",
    "generator",
    "static_generator",
    "generator_names",
    "one_parameter_derivative",
    "basis_generator_pairing",
]

KIND_DIMS = {
    "schrodinger2d": 2,
    "nonabelian2d": 2,
    "bargmann3d": 3,
    "position1d": 1,
}
MOMENTUM_KINDS = ("schrodinger2d", "nonabelian2d", "bargmann3d")


@dataclass(frozen=True)
class RepDescriptor:
    """Which representation, with its numerical labels.

    gamma is the mass label of the momentum-space kinds, lam the extra
    boost-commutator label of nonabelian2d, s the rotation character label
    of the 2D kinds. hbar, m, force_f, V0 belong to position1d only.
    """

    kind: str
    gamma: float = 1.0
    lam: float = 0.0
    s: float = 0.0
    hbar: float = 1.0
    m: float = 1.0
    force_f: float = 0.0
    V0: float = 0.0

    def __post_init__(self):
        if self.kind not in KIND_DIMS:
            raise ValueError(f"unknown representation kind {self.kind!r}")
        for name in ("gamma", "lam", "s", "hbar", "m", "force_f", "V0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, "
                                 f"got {getattr(self, name)!r}")
        if self.kind in MOMENTUM_KINDS and self.gamma == 0.0:
            raise ValueError("gamma must be nonzero (phases divide by it)")
        if self.kind == "position1d":
            if self.hbar <= 0.0:
                raise ValueError("hbar must be positive")
            if self.m <= 0.0:
                raise ValueError("m must be positive")

    @property
    def dim(self) -> int:
        return KIND_DIMS[self.kind]

    @property
    def a3(self) -> float:
        # V0 = a3 / (2 a1) with a1 = m
        return 2.0 * self.m * self.V0


def rep_to_dict(rep: RepDescriptor) -> dict:
    return {
        "kind": rep.kind,
        "gamma": rep.gamma,
        "lambda": rep.lam,
        "s": rep.s,
        "hbar": rep.hbar,
        "m": rep.m,
        "f": rep.force_f,
        "V0": rep.V0,
    }


def rep_from_dict(d: dict) -> RepDescriptor:
    return RepDescriptor(
        kind=d["kind"],
        gamma=float(d.get("gamma", 1.0)),
        lam=float(d.get("lambda", 0.0)),
        s=float(d.get("s", 0.0)),
        hbar=float(d.get("hbar", 1.0)),
        m=float(d.get("m", 1.0)),
        force_f=float(d.get("f", 0.0)),
        V0=float(d.get("V0", 0.0)),
    )


def _require_momentum(rep: RepDescriptor, op: str):
    if rep.kind not in MOMENTUM_KINDS:
        raise ValueError(
            f"{op} is undefined for {rep.kind}: that kind is specified by "
            "its generator family only")


def _phase_parts(rep: RepDescriptor, r: GalileiBatch):
    """Real phase phi_r(p) = const + <lin, p> + p^T quad p of each acting
    row, in the outgoing variable p: quad (N, dim, dim), lin (N, dim) and
    const (N,)."""
    quad = (r.eta / (2.0 * rep.gamma))[:, None, None] * np.eye(rep.dim)
    lin = r.u.astype(float)
    if rep.kind == "bargmann3d":
        const = rep.gamma * _dot(r.u, r.v) \
            - 0.5 * r.eta * rep.gamma * _dot(r.v, r.v)
        return quad, lin, const
    if rep.kind == "nonabelian2d":
        # -(lam/2gamma) (v ^ p) with v ^ p = v1 p2 - v2 p1
        k = rep.lam / (2.0 * rep.gamma)
        lin = lin + r.v[:, ::-1] * (k, -k)  # (k v2, -k v1)
    const = 0.5 * rep.gamma * _dot(r.u, r.v) \
        + rep.s * _rotation_angles(r.W)
    return quad, lin, const


# adding -0 leaves every value unchanged, signed zeros included
_NO_CHANGE = complex(-0.0, -0.0)


def apply_batch(rep: RepDescriptor, r: GalileiBatch, t,
                states: StateBatch) -> StateBatch:
    """Row i of states acted on by U_t(r[i]), for a per-row t (or one t):
    (U_t(r) f)(p) = e^{i phi_r(p) - i <p, v_r> t} f(W^{-1}(p + gamma v)).

    The rows of r are trusted to be proper rotations, as GalileiBatch rows
    are."""
    _require_momentum(rep, "apply")
    if r.dim != rep.dim or states.dim != rep.dim:
        raise ValueError("dimension mismatch between rep, element, and state")
    out = states.substitute(r.W, (rep.gamma * r.v).astype(complex))
    quad, lin, const = _phase_parts(rep, r)
    out = out.multiply_phase(1j * quad, 1j * lin, 1j * const)
    t = np.asarray(t, dtype=float)[..., None]
    moving = t != 0.0
    if moving.any():
        # the time phase leaves the rows with t = 0 as they are
        out = out.multiply_phase(lin=np.where(moving, -1j * t * r.v,
                                              _NO_CHANGE))
    return out


def apply(rep: RepDescriptor, r: GalileiElement,
          state: PolyGaussianState) -> PolyGaussianState:
    """(U(r) f)(p) = e^{i phi_r(p)} f(W^{-1}(p + gamma v))."""
    return apply_time(rep, r, 0.0, state)


def apply_time(rep: RepDescriptor, r: GalileiElement, t: float,
               state: PolyGaussianState) -> PolyGaussianState:
    """(U_t(r) f)(p) = e^{-i <p, v_r> t} (U(r) f)(p)."""
    return apply_batch(rep, _row(r), t, StateBatch.of(state)).row(0)


def generator_names(rep: RepDescriptor) -> tuple:
    if rep.kind == "position1d":
        return ("H", "P", "N")
    if rep.dim == 2:
        return ("H", "P1", "P2", "M", "N1", "N2")
    return ("H", "P1", "P2", "P3", "M12", "M13", "M23", "N1", "N2", "N3")


def _p_coeff(dim: int, i: int, power: int = 1, value=1.0) -> Polynomial:
    exps = [0] * (dim + 1)
    exps[i] = power
    return Polynomial(dim + 1, {tuple(exps): value})


def _const_coeff(dim: int, value) -> Polynomial:
    return Polynomial.constant(dim + 1, value)


def _momentum_generator(rep: RepDescriptor, name: str) -> PolyDiffOperator:
    dim = rep.dim
    zero = (0,) * dim

    def d_idx(i):
        e = [0] * dim
        e[i] = 1
        return tuple(e)

    if name == "H":
        coeff = Polynomial(dim + 1)
        for i in range(dim):
            coeff = coeff + _p_coeff(dim, i, 2, 1.0 / (2.0 * rep.gamma))
        return PolyDiffOperator.build(dim, [(coeff, zero)])
    if name.startswith("P"):
        i = int(name[1:]) - 1
        return PolyDiffOperator.build(dim, [(_p_coeff(dim, i), zero)])
    if name == "M" and dim == 2:
        # i s + p2 d/dp1 - p1 d/dp2
        return PolyDiffOperator.build(dim, [
            (_const_coeff(dim, 1j * rep.s), zero),
            (_p_coeff(dim, 1), d_idx(0)),
            (_p_coeff(dim, 0, value=-1.0), d_idx(1)),
        ])
    if name.startswith("M") and dim == 3:
        i, j = int(name[1]) - 1, int(name[2]) - 1
        return PolyDiffOperator.build(dim, [
            (_p_coeff(dim, j), d_idx(i)),
            (_p_coeff(dim, i, value=-1.0), d_idx(j)),
        ])
    if name.startswith("N"):
        i = int(name[1:]) - 1
        t_coeff = PolyDiffOperator.time_poly(dim) * _p_coeff(dim, i, value=-1j)
        terms = [(t_coeff, zero), (_const_coeff(dim, rep.gamma), d_idx(i))]
        if rep.kind == "nonabelian2d":
            k = rep.lam / (2.0 * rep.gamma)
            other = 1 - i
            sign = -1j if i == 0 else 1j
            terms.append((_p_coeff(dim, other, value=sign * k), zero))
        return PolyDiffOperator.build(dim, terms)
    raise ValueError(f"unknown generator {name!r} for kind {rep.kind}")


def _position_generator(rep: RepDescriptor, name: str) -> PolyDiffOperator:
    hbar, m, f, V0 = rep.hbar, rep.m, rep.force_f, rep.V0
    if name == "H":
        return PolyDiffOperator.build(1, [
            (_const_coeff(1, -hbar * hbar / (2.0 * m)), (2,)),
            (_p_coeff(1, 0, value=f), (0,)),
            (_const_coeff(1, V0), (0,)),
        ])
    if name == "P":
        t_term = PolyDiffOperator.time_poly(1) * _const_coeff(1, -f)
        return PolyDiffOperator.build(1, [
            (_const_coeff(1, 1j * hbar), (1,)),
            (t_term, (0,)),
        ])
    if name == "N":
        t_term = PolyDiffOperator.time_poly(1) * _const_coeff(1, -1j * hbar)
        t2_term = PolyDiffOperator.time_poly(1, 2) * _const_coeff(1, -0.5 * f)
        return PolyDiffOperator.build(1, [
            (_p_coeff(1, 0, value=m), (0,)),
            (t_term, (1,)),
            (t2_term, (0,)),
        ])
    raise ValueError(f"unknown generator {name!r} for kind position1d")


def generator(rep: RepDescriptor, name: str, t: float = None) -> PolyDiffOperator:
    """Time-dependent generator R_t(name); t=None keeps t symbolic (the
    trailing coefficient variable), a number substitutes it."""
    if rep.kind == "position1d":
        op = _position_generator(rep, name)
    else:
        op = _momentum_generator(rep, name)
    if t is not None:
        op = op.at_time(float(t))
    return op


def static_generator(rep: RepDescriptor, name: str) -> PolyDiffOperator:
    """The t-free generator R(name), built independently of generator()
    so that the t=0 initial condition is a real check."""
    dim = rep.dim
    if rep.kind == "position1d":
        if name == "H":
            return _position_generator(rep, "H")
        if name == "P":
            return PolyDiffOperator.build(1, [(_const_coeff(1, 1j * rep.hbar),
                                               (1,))])
        if name == "N":
            return PolyDiffOperator.build(1, [(_p_coeff(1, 0, value=rep.m),
                                               (0,))])
        raise ValueError(f"unknown generator {name!r} for kind position1d")
    if name.startswith("N"):
        i = int(name[1:]) - 1
        e = [0] * dim
        e[i] = 1
        terms = [(_const_coeff(dim, rep.gamma), tuple(e))]
        if rep.kind == "nonabelian2d":
            k = rep.lam / (2.0 * rep.gamma)
            other = 1 - i
            sign = -1j if i == 0 else 1j
            terms.append((_p_coeff(dim, other, value=sign * k), (0,) * dim))
        return PolyDiffOperator.build(dim, terms)
    return _momentum_generator(rep, name)


def one_parameter_derivative(rep: RepDescriptor, basis_name: str, t: float,
                             state: PolyGaussianState,
                             step: float = 1e-5) -> PolyGaussianState:
    """Central difference in tau of apply_time(exponential(tau X), t) at 0.

    Returns the difference-quotient state; against the exact generators it
    fixes the derivative convention constant of each basis direction.
    """
    _require_momentum(rep, "one_parameter_derivative")
    dim = rep.dim
    X = basis_element(basis_name, dim)
    plus = apply_time(rep, exponential(X.scale(step)), t, state)
    minus = apply_time(rep, exponential(X.scale(-step)), t, state)
    return plus.add(minus.scale(-1.0)).scale(1.0 / (2.0 * step))


def basis_generator_pairing(rep: RepDescriptor, basis_name: str):
    """Map an algebra basis direction to (generator name, convention
    constant c) with one_parameter_derivative = c * R_t(generator)."""
    _require_momentum(rep, "basis_generator_pairing")
    kind = basis_name[0]
    if kind == "b":
        return "P" + basis_name[1:], 1j
    if kind == "d":
        return "N" + basis_name[1:], 1.0
    if kind == "f":
        return "H", 1j
    if kind == "a":
        name = "M" if rep.dim == 2 else "M" + basis_name[1:]
        return name, -1.0
    raise ValueError(f"unknown basis direction {basis_name!r}")
