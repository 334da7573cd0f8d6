"""Empirical checks: multiplier extraction from operator compositions,
matching against phase exponents, the time-dependent multiplier law, and
the Heisenberg law of the time-dependent generators.

Extraction, prediction, the time multiplier and the exponent-cocycle
residual are written once, row-wise over GalileiBatch rows with a per-row t
(the *_batch functions); extract_multiplier is the 1-row view of the
extraction, and the exponent-cocycle residual pools the four multipliers of
all its triples into one extraction.
U_t(r) U_t(s) f and U_t(rs) f are states of one term layout, so a
multiplier is read off their term parameters: omega = e^{dalpha} of the
first term, and every other difference of the two sides is a term
mismatch.  No state is evaluated at a point.  The Heisenberg
and initial-condition residuals are likewise the largest coefficient of an
exact operator difference; the Heisenberg law's is taken at the
convention's constant K = i/hbar.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cocycles
from .cocycles import PhaseExponent
from .group import (GalileiBatch, GalileiElement, _rotation_angles,
                    multiply, multiply_batch, stack_batches)
from .representations import (_PRESETS, RepDescriptor, _coboundary_phi,
                              _require_momentum, _time_phase, apply_batch,
                              generator, generator_names, static_generator)
from .states import PolyGaussianState, StateBatch, _poly_mismatch

__all__ = [
    "MultiplierBatch",
    "default_sample_points",
    "extract_multiplier",
    "extract_multiplier_batch",
    "expected_multiplier_exponent_batch",
    "match_exponent_batch",
    "exponent_cocycle_residual_batch",
    "check_time_multiplier_batch",
    "heisenberg_fit",
    "check_initial_condition",
]


def default_sample_points(state: PolyGaussianState, n: int = 16,
                          radius: float = 2.0, seed: int = 0) -> np.ndarray:
    """Seeded points in the ball of given radius around the state's
    envelope center, where the Gaussian stays comfortably nonzero."""
    rng = np.random.default_rng(seed)
    dim = state.dim
    center = state.center()
    direction = rng.normal(size=(n, dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radii = radius * rng.uniform(0.0, 1.0, size=n) ** (1.0 / dim)
    return center[None, :] + direction * radii[:, None]


def _abs(values: np.ndarray) -> np.ndarray:
    """|z| per element, rounded as Python's abs(complex) rounds it (hypot);
    np.abs of a complex array differs from it in the last digit."""
    return np.hypot(values.real, values.imag)


@dataclass(frozen=True)
class MultiplierBatch:
    """Row-wise multiplier extraction: row i is the multiplier omega of pair
    i, the term mismatch of its two sides and |e^{Re dalpha} - 1|."""

    omega: np.ndarray  # (N,) complex
    constancy_spread: np.ndarray
    modulus_error: np.ndarray


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| per element, as _abs rounds it; NaN wherever a part of z is NaN,
    where hypot would give inf for an inf part, and inf where |z|
    overflows."""
    return np.where(np.isnan(z), math.nan, _abs(z))


def _term_mismatch(composed: StateBatch, direct: StateBatch):
    """(dalpha, mismatch) per row of two StateBatches of one term layout.

    dalpha is the difference of term 0's alpha.  mismatch is the largest
    difference of the rows' term parameters over every term k: |dbeta|,
    |dGamma|, the polynomial coefficients, and |e^{dalpha_k - dalpha} - 1|
    (0 for term 0).  It is 0 exactly when composed = e^{dalpha} direct term
    by term, and NaN propagates through it.
    """
    dalpha = composed.terms[0][1] - direct.terms[0][1]
    parts = []
    for (pa, aa, ba, Ga), (pb, ab, bb, Gb) in zip(composed.terms,
                                                  direct.terms):
        parts += [np.abs(np.expm1(aa - ab - dalpha)),
                  np.abs(ba - bb).max(axis=1),
                  np.abs(Ga - Gb).max(axis=(1, 2)),
                  _poly_mismatch(pa, pb)]
    return dalpha, np.max(parts, axis=0)


def extract_multiplier_batch(rep: RepDescriptor, r: GalileiBatch,
                             s: GalileiBatch, t,
                             state: PolyGaussianState) -> MultiplierBatch:
    """Row-wise multiplier omega of U_t(r) U_t(s) f = omega U_t(rs) f.

    Both sides are states of one term layout, so omega = e^{dalpha} of term
    0's alpha, and constancy_spread is the term mismatch: the amount by
    which the composed state is not omega times the direct one.  t is one
    time or one per row.
    """
    f = state.repeat(len(r))
    return _multiplier_rows(apply_batch(rep, r, t, apply_batch(rep, s, t, f)),
                            apply_batch(rep, multiply_batch(r, s), t, f))


def _multiplier_rows(composed: StateBatch, direct: StateBatch):
    """The MultiplierBatch of composed = omega direct, row by row."""
    with np.errstate(over="ignore", invalid="ignore"):
        dalpha, mismatch = _term_mismatch(composed, direct)
        return MultiplierBatch(np.exp(dalpha), mismatch,
                               np.abs(np.expm1(dalpha.real)))


def extract_multiplier(rep: RepDescriptor, r: GalileiElement,
                       s: GalileiElement, t: float,
                       state: PolyGaussianState) -> MultiplierBatch:
    """The 1-row MultiplierBatch of U_t(r) U_t(s) f = omega U_t(rs) f.

    For a ray representation omega is unimodular and constancy_spread, the
    term mismatch of the two sides, is zero.
    """
    return extract_multiplier_batch(rep, r, s, t, state)


def _xi_t(rep: RepDescriptor, r: GalileiBatch, s: GalileiBatch, t):
    """xi_t(r[i], s[i]) at each row's t.  xi_t ends in the factor t, so t
    times its value at t = 1 rounds as its value at t does."""
    xi = PhaseExponent("xi_t", rep.dim, gamma=rep.gamma, t=1.0)
    return cocycles.evaluate_batch(xi, r, s) * t


def _rotation_wrap(r: GalileiBatch, s: GalileiBatch,
                   rs: GalileiBatch) -> np.ndarray:
    """theta_r + theta_s - theta_rs of the principal-branch angles: zero
    unless the sum leaves (-pi, pi], then +-2 pi."""
    return (_rotation_angles(r.W) + _rotation_angles(s.W)
            - _rotation_angles(rs.W))


def _phase_mismatch(omega: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """|omega[i] - e^{i exponent[i]}| per row."""
    with np.errstate(invalid="ignore"):
        return np.abs(omega - np.exp(1j * exponent))


def expected_multiplier_exponent_batch(rep: RepDescriptor, r: GalileiBatch,
                                       s: GalileiBatch, t=0.0):
    """Closed-form prediction (name, exponents): row i has multiplier
    e^{i exponents[i]}; t as in extract_multiplier_batch.  It is -gamma xi0
    + xi_t, plus lambda xi1 + s dtheta (the rotation wrap) in dim 2 and
    dphi when rep's preset adds phi; name lists the terms."""
    _require_momentum(rep, "a multiplier prediction")
    rs = multiply_batch(r, s)
    xi0 = PhaseExponent("xi0", rep.dim, gamma=rep.gamma)
    value = -cocycles.evaluate_batch(xi0, r, s)
    value += _xi_t(rep, r, s, t)
    name = "-gamma*xi0 + xi_t"
    if rep.dim == 2:
        xi1 = PhaseExponent("xi1", 2, lam=rep.lam)
        value += cocycles.evaluate_batch(xi1, r, s)
        value += rep.s * _rotation_wrap(r, s, rs)
        name += " + lambda*xi1 + s*dtheta"
    if _PRESETS[rep.kind].coboundary:
        value += (_coboundary_phi(rep.gamma, r) + _coboundary_phi(rep.gamma, s)
                  - _coboundary_phi(rep.gamma, rs))
        name += " + dphi"
    return name, value


def match_exponent_batch(rep: RepDescriptor, r: GalileiBatch,
                         s: GalileiBatch, t, rows: MultiplierBatch):
    """(name, residuals): per row |omega - e^{i exponent}| of the extracted
    rows against the predicted multiplier; t as in extract_multiplier_batch."""
    name, value = expected_multiplier_exponent_batch(rep, r, s, t)
    return name, _phase_mismatch(rows.omega, value)


def exponent_cocycle_residual_batch(rep: RepDescriptor, r: GalileiBatch,
                                    s: GalileiBatch, q: GalileiBatch, t,
                                    state: PolyGaussianState) -> np.ndarray:
    """Cocycle identity on extracted exponents, branch-safe, per triple:
    a (3, n) stack of the residual, the constancy spread and the modulus
    error of each triple.

    xi(r,s) + xi(rs,q) = xi(s,q) + xi(r,sq) holds modulo 2 pi for the
    extracted principal-branch exponents; the residual of triple i is the
    phase of w(r,s) w(rs,q) conj(w(s,q) w(r,sq)), which removes the branch
    ambiguity.  Its spread and modulus error are the largest of its four
    extractions, so that a fault that leaves the multipliers alone (a NaN
    eta of r reaches only a quadratic phase in 2D) still fails.  The four
    multipliers of every triple are one 4n-row extraction; t is one time
    or one per triple.
    """
    n = len(r)
    rs, sq = [], []
    for i in range(n):
        # scalar multiply until ROADMAP items 1 and 2 swap it for
        # multiply_batch: perfbench/test_perfbench.py's
        # test_traced_report_matches_untraced_and_self_times_fit asserts
        # that the suite calls group.multiply
        s_i = s.element(i)
        rs.append(multiply(r.element(i), s_i))
        sq.append(multiply(s_i, q.element(i)))
    a = stack_batches([r, *rs, s, r])
    b = stack_batches([s, q, q, *sq])
    if np.ndim(t):
        t = np.tile(t, 4)
    rows = extract_multiplier_batch(rep, a, b, t, state)
    w0, w1, w2, w3 = rows.omega.reshape(4, n)
    residual = np.abs(np.angle(w0 * w1 * np.conj(w2 * w3)))
    # the maximum propagates NaN
    return np.stack([residual,
                     rows.constancy_spread.reshape(4, n).max(axis=0),
                     rows.modulus_error.reshape(4, n).max(axis=0)])


def check_time_multiplier_batch(rep: RepDescriptor, r: GalileiBatch,
                                s: GalileiBatch, t,
                                state: PolyGaussianState) -> np.ndarray:
    """Per row |omega_t / omega_0 - e^{i xi_t}|, the time multiplier against
    the static one, or the term mismatch of either extraction when that is
    larger; t as in extract_multiplier_batch.  Both extractions share the
    static actions U(s) f and U(rs) f, the one at t through _time_phase."""
    n = len(r)
    t = np.broadcast_to(np.asarray(t, dtype=float), (n,))
    f = state.repeat(n)
    rs = multiply_batch(r, s)
    sf, rsf = (apply_batch(rep, b, 0.0, f) for b in (s, rs))
    at_t = _multiplier_rows(apply_batch(rep, r, t, _time_phase(s, t, sf)),
                            _time_phase(rs, t, rsf))
    at_0 = _multiplier_rows(apply_batch(rep, r, 0.0, sf), rsf)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = at_t.omega / at_0.omega
    spread = np.maximum(at_t.constancy_spread, at_0.constancy_spread)
    return np.maximum(_phase_mismatch(ratio, _xi_t(rep, r, s, t)), spread)


# named for the least-squares fit that it replaced: perfbench/layers.py
# traces verify.heisenberg_fit by this name
def heisenberg_fit(rep: RepDescriptor):
    """The Heisenberg law d/dt R_t(X) = K [R(H), R_t(X)] at the convention's
    constant K = i/hbar (i for the momentum kinds, whose hbar is 1), per
    generator X: (residuals, time_independent), the largest coefficient of
    d/dt R_t(X) - K [R(H), R_t(X)] and whether R_t(X) is free of t."""
    K = 1j / rep.hbar
    H = generator(rep, "H")
    residuals, time_independent = {}, {}
    for name in generator_names(rep):
        R = generator(rep, name)
        lhs = R.d_dt()
        residuals[name] = (lhs - H.commutator(R).scale(K)).norm()
        time_independent[name] = lhs.norm() == 0.0
    return residuals, time_independent


def check_initial_condition(rep: RepDescriptor, name: str) -> float:
    """Largest coefficient of R_{t=0}(name) minus the static generator."""
    return (generator(rep, name, t=0.0) - static_generator(rep, name)).norm()
