"""Explicit ray representations and their time-dependent generators.

Momentum-space kinds act on PolyGaussianState by a quadratic phase and the
substitution p -> W^{-1}(p + gamma v); the position-space kind is specified
by its generator family only.  The action is written once, row-wise over a
GalileiBatch and a StateBatch with a per-row t (apply_batch); apply_time is
its 1-row view, and the plain action U(r) is apply_time at t = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .group import (GalileiBatch, GalileiElement, _dot, _is_number,
                    _rotation_angles)
from .states import PolyDiffOperator, PolyGaussianState, StateBatch

__all__ = [
    "KIND_DIMS",
    "MOMENTUM_KINDS",
    "RepDescriptor",
    "rep_to_dict",
    "rep_from_dict",
    "apply_time",
    "apply_batch",
    "generator",
    "static_generator",
    "generator_names",
    "basis_generator_pairing",
]


class _Preset(NamedTuple):
    dim: int
    labels: tuple  # the document keys of the labels its formulas read
    coboundary: bool = False  # whether the momentum phase adds phi
    momentum: bool = True


# each kind as a preset of its family; position1d has its own generators
_PRESETS = {
    "schrodinger2d": _Preset(2, ("gamma", "s")),
    "nonabelian2d": _Preset(2, ("gamma", "lambda", "s")),
    "bargmann3d": _Preset(3, ("gamma",), coboundary=True),
    "position1d": _Preset(1, ("hbar", "m", "f", "V0"), momentum=False),
}
KIND_DIMS = {kind: preset.dim for kind, preset in _PRESETS.items()}
MOMENTUM_KINDS = tuple(kind for kind, preset in _PRESETS.items()
                       if preset.momentum)
# the document key of each RepDescriptor field, as rep_to_dict writes them
_REP_KEYS = {"kind": "kind", "gamma": "gamma", "lambda": "lam", "s": "s",
             "hbar": "hbar", "m": "m", "f": "force_f", "V0": "V0"}


@dataclass(frozen=True)
class RepDescriptor:
    """Which representation, with its labels, named here by their document
    keys.  The momentum kinds are presets of one family: gamma is the mass
    label in every dimension, lambda the boost-commutator label and s the
    rotation character label in dim 2.  schrodinger2d reads gamma and s,
    nonabelian2d gamma, lambda and s, and bargmann3d, the dim-3 member plus
    the coboundary phi, gamma alone; position1d reads hbar, m, f and V0.  A
    label the kind does not read must keep its default, or it is a
    ValueError.  Each label is a finite number, neither a string nor a
    boolean, and is kept as a float.
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
        if self.kind not in _PRESETS:
            raise ValueError(f"unknown representation kind {self.kind!r}")
        for key, name in list(_REP_KEYS.items())[1:]:
            value, default = getattr(self, name), getattr(RepDescriptor, name)
            if not (_is_number(value) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, "
                                 f"got {value!r}")
            if key not in _PRESETS[self.kind].labels and value != default:
                raise ValueError(f"{self.kind} does not read the label "
                                 f"{key!r}: it must keep its default "
                                 f"{default!r}, got {value!r}")
            object.__setattr__(self, name, float(value))
        # the defaults of the labels a kind does not read pass these
        if self.gamma == 0.0:
            raise ValueError("gamma must be nonzero (phases divide by it)")
        if self.hbar <= 0.0:
            raise ValueError("hbar must be positive")
        if self.m <= 0.0:
            raise ValueError("m must be positive")

    @property
    def dim(self) -> int:
        return _PRESETS[self.kind].dim


def rep_to_dict(rep: RepDescriptor) -> dict:
    return {key: getattr(rep, name) for key, name in _REP_KEYS.items()}


def rep_from_dict(d: dict) -> RepDescriptor:
    """Inverse of rep_to_dict; ValueError for any other document, one with
    a key that rep_to_dict does not write too."""
    if not isinstance(d, dict):
        raise ValueError(f"a representation must be an object, got {d!r}")
    unknown = set(d) - set(_REP_KEYS)
    if unknown:
        raise ValueError(f"unknown representation keys: "
                         f"{sorted(unknown, key=str)}")
    if "kind" not in d:
        raise ValueError("representation lacks the key 'kind'")
    try:
        return RepDescriptor(**{_REP_KEYS[key]: v for key, v in d.items()})
    except TypeError as exc:
        raise ValueError(f"malformed representation {d!r}: {exc}") from exc


def _require_momentum(rep: RepDescriptor, op: str):
    if rep.kind not in MOMENTUM_KINDS:
        raise ValueError(
            f"{op} is undefined for {rep.kind}: that kind is specified by "
            "its generator family only")


def _coboundary_phi(gamma: float, r: GalileiBatch) -> np.ndarray:
    """phi(r) = (gamma/2)(u.v - eta v.v) of each row: the coboundary that a
    preset with coboundary adds to its phase and to its multiplier."""
    return 0.5 * gamma * (_dot(r.u, r.v) - r.eta * _dot(r.v, r.v))


def _phase_parts(rep: RepDescriptor, r: GalileiBatch):
    """Real phase phi_r(p) = const + <lin, p> + p^T quad p of each acting
    row, in the outgoing variable p: quad (N, dim, dim), lin (N, dim) and
    const (N,): u and (gamma/2) u.v, plus the lambda term and s theta in
    dim 2, plus phi(r) if the preset adds the coboundary."""
    quad = (r.eta / (2.0 * rep.gamma))[:, None, None] * np.eye(rep.dim)
    lin = r.u.astype(float)
    const = 0.5 * rep.gamma * _dot(r.u, r.v)
    if rep.dim == 2:
        # -(lam/2gamma) (v ^ p) with v ^ p = v1 p2 - v2 p1
        k = rep.lam / (2.0 * rep.gamma)
        lin = lin + r.v[:, ::-1] * (k, -k)  # (k v2, -k v1)
        const = const + rep.s * _rotation_angles(r.W)
    if _PRESETS[rep.kind].coboundary:
        const = const + _coboundary_phi(rep.gamma, r)
    return quad, lin, const


# adding -0 leaves every value unchanged, signed zeros included
_NO_CHANGE = complex(-0.0, -0.0)


def apply_batch(rep: RepDescriptor, r: GalileiBatch, t,
                states: StateBatch) -> StateBatch:
    """Row i of states acted on by U_t(r[i]), for a per-row t (or one t):
    (U_t(r) f)(p) = e^{i phi_r(p) - i <p, v_r> t} f(W^{-1}(p + gamma v)).

    It is _time_phase of the static action U(r) f, its value at t = 0.  The
    rows of r are trusted to be proper rotations, as GalileiBatch rows
    are."""
    _require_momentum(rep, "apply")
    if r.dim != rep.dim or states.dim != rep.dim:
        raise ValueError("dimension mismatch between rep, element, and state")
    # the StateBatch transforms by name: a state's own are one-row views
    out = StateBatch.substitute(states, r.W,
                                (rep.gamma * r.v).astype(complex))
    quad, lin, const = _phase_parts(rep, r)
    out = StateBatch.multiply_phase(out, 1j * quad, 1j * lin, 1j * const)
    return _time_phase(r, t, out)


def _time_phase(r: GalileiBatch, t, states: StateBatch) -> StateBatch:
    """Row i of states times e^{-i <p, v_r[i]> t[i]}: U_t(r) f from U(r) f.
    The rows with t = 0 stay as they are, signed zeros included."""
    t = np.asarray(t, dtype=float)[..., None]
    moving = t != 0.0
    if not moving.any():
        return states
    return StateBatch.multiply_phase(
        states, lin=np.where(moving, -1j * t * r.v, _NO_CHANGE))


def apply_time(rep: RepDescriptor, r: GalileiElement, t: float,
               state: PolyGaussianState) -> PolyGaussianState:
    """(U_t(r) f)(p) = e^{-i <p, v_r> t} (U(r) f)(p), where the plain action
    (U(r) f)(p) = e^{i phi_r(p)} f(W^{-1}(p + gamma v)) is its value at
    t = 0."""
    return apply_batch(rep, r, t, state)


def generator_names(rep: RepDescriptor) -> tuple:
    if rep.kind not in MOMENTUM_KINDS:
        return ("H", "P", "N")
    if rep.dim == 2:
        return ("H", "P1", "P2", "M", "N1", "N2")
    return ("H", "P1", "P2", "P3", "M12", "M13", "M23", "N1", "N2", "N3")


def _term(dim: int, c, p=(), d=(), t: int = 0) -> tuple:
    """The term c p^p t^t d^d as a PolyDiffOperator entry: p and d list the
    variable of each factor p_i and d/dp_i, t is the power of t."""
    exps, deriv = [0] * (dim + 1), [0] * dim
    for i in p:
        exps[i] += 1
    for i in d:
        deriv[i] += 1
    exps[dim] = t
    return (tuple(deriv), tuple(exps)), c


def _momentum_generator(rep: RepDescriptor, name: str) -> PolyDiffOperator:
    dim = rep.dim
    if name == "H":
        return PolyDiffOperator.build(dim, [
            _term(dim, 1.0 / (2.0 * rep.gamma), p=(i, i)) for i in range(dim)])
    if name.startswith("P"):
        i = int(name[1:]) - 1
        return PolyDiffOperator.build(dim, [_term(dim, 1.0, p=(i,))])
    if name == "M" and dim == 2:
        # i s + p2 d/dp1 - p1 d/dp2
        return PolyDiffOperator.build(dim, [
            _term(dim, 1j * rep.s), _term(dim, 1.0, p=(1,), d=(0,)),
            _term(dim, -1.0, p=(0,), d=(1,))])
    if name.startswith("M") and dim == 3:
        i, j = int(name[1]) - 1, int(name[2]) - 1
        return PolyDiffOperator.build(dim, [
            _term(dim, 1.0, p=(j,), d=(i,)), _term(dim, -1.0, p=(i,), d=(j,))])
    if name.startswith("N"):
        i = int(name[1:]) - 1
        terms = [_term(dim, -1j, p=(i,), t=1), _term(dim, rep.gamma, d=(i,))]
        if dim == 2:
            k = rep.lam / (2.0 * rep.gamma)
            terms.append(_term(dim, (-1j if i == 0 else 1j) * k, p=(1 - i,)))
        return PolyDiffOperator.build(dim, terms)
    raise ValueError(f"unknown generator {name!r} for kind {rep.kind}")


def _position_generator(rep: RepDescriptor, name: str) -> PolyDiffOperator:
    hbar, m, f, V0 = rep.hbar, rep.m, rep.force_f, rep.V0
    if name == "H":
        return PolyDiffOperator.build(1, [
            _term(1, -hbar * hbar / (2.0 * m), d=(0, 0)),
            _term(1, f, p=(0,)), _term(1, V0)])
    if name == "P":
        return PolyDiffOperator.build(1, [_term(1, 1j * hbar, d=(0,)),
                                          _term(1, -f, t=1)])
    if name == "N":
        return PolyDiffOperator.build(1, [
            _term(1, m, p=(0,)), _term(1, -1j * hbar, d=(0,), t=1),
            _term(1, -0.5 * f, t=2)])
    raise ValueError(f"unknown generator {name!r} for kind position1d")


def generator(rep: RepDescriptor, name: str, t: float = None) -> PolyDiffOperator:
    """Time-dependent generator R_t(name); t=None keeps t symbolic (the
    trailing coefficient variable), a number substitutes it."""
    if rep.kind in MOMENTUM_KINDS:
        op = _momentum_generator(rep, name)
    else:
        op = _position_generator(rep, name)
    if t is not None:
        op = op.at_time(float(t))
    return op


def static_generator(rep: RepDescriptor, name: str) -> PolyDiffOperator:
    """The t-free generator R(name), built independently of generator()
    so that the t=0 initial condition is a real check."""
    if rep.kind not in MOMENTUM_KINDS:
        if name == "H":
            return _position_generator(rep, "H")
        if name == "P":
            return PolyDiffOperator.build(1, [_term(1, 1j * rep.hbar, d=(0,))])
        if name == "N":
            return PolyDiffOperator.build(1, [_term(1, rep.m, p=(0,))])
        raise ValueError(f"unknown generator {name!r} for kind position1d")
    if name.startswith("N"):
        i = int(name[1:]) - 1
        terms = [_term(rep.dim, rep.gamma, d=(i,))]
        if rep.dim == 2:
            k = rep.lam / (2.0 * rep.gamma)
            terms.append(_term(2, (-1j if i == 0 else 1j) * k, p=(1 - i,)))
        return PolyDiffOperator.build(rep.dim, terms)
    return _momentum_generator(rep, name)


def basis_generator_pairing(rep: RepDescriptor, basis_name: str):
    """Map an algebra basis direction X to (generator name, convention
    constant c) with d/dtau U_t(exp tau X) f = c R_t(generator) f at
    tau = 0."""
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
