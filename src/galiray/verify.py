"""Empirical checks: multiplier extraction from operator compositions,
matching against phase exponents, the time-dependent multiplier law, and
Heisenberg-picture constant fitting.

Extraction, prediction and the time multiplier are written once, row-wise
over GalileiBatch pairs with a per-row t (the *_batch functions);
extract_multiplier, expected_multiplier_exponent, match_exponent and
check_time_multiplier are their 1-row views.  The last step of each row
(the ratio of two multipliers, e^{i xi}) runs on Python complex numbers and
cmath, whose rounding numpy's complex division and exp do not share.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from . import cocycles
from .cocycles import PhaseExponent
from .group import (GalileiBatch, GalileiElement, _dot, _rotation_angles,
                    _row, multiply, multiply_batch, stack_batches)
from .representations import (RepDescriptor, apply_batch, generator,
                              generator_names, static_generator)
from .states import (PolyDiffOperator, PolyGaussianState, StateBatch,
                     random_state)

__all__ = [
    "MultiplierReport",
    "MultiplierBatch",
    "default_sample_points",
    "extract_multiplier",
    "extract_multiplier_batch",
    "expected_multiplier_exponent",
    "expected_multiplier_exponent_batch",
    "match_exponent",
    "match_exponent_batch",
    "exponent_cocycle_residual",
    "check_time_multiplier",
    "check_time_multiplier_batch",
    "HeisenbergFitResult",
    "heisenberg_fit",
    "check_initial_condition",
]


@dataclass(frozen=True)
class MultiplierReport:
    """Result of a pointwise multiplier extraction."""

    omega: complex
    constancy_spread: float
    modulus_error: float
    n_points: int
    n_skipped: int
    matched_exponent: tuple | None = None  # (name, residual)

    @property
    def exponent(self) -> float:
        """Principal-branch phase of the extracted multiplier."""
        return cmath.phase(self.omega)


def _worst(residuals) -> float:
    """Largest of the residuals, 0.0 for none.  A NaN residual gives NaN, so
    the check fails; Python's max(0.0, nan) would return 0.0 and pass."""
    return float(np.max(np.asarray(residuals, dtype=float), initial=0.0))


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


MIN_POINTS = 4  # usable sample points a multiplier extraction needs
_TOO_FEW = "too few usable sample points (denominator ~ 0)"


@dataclass(frozen=True)
class MultiplierBatch:
    """Row-wise multiplier extraction: row i holds what MultiplierReport
    holds for pair i.  A row with fewer than MIN_POINTS usable points has
    NaN omega, spread and modulus error."""

    omega: np.ndarray  # (N,) complex
    constancy_spread: np.ndarray
    modulus_error: np.ndarray
    n_points: np.ndarray  # usable points per row
    n_skipped: np.ndarray
    matched_exponent: tuple | None = None  # (name, (N,) residuals)


def _modulus(z: complex) -> float:
    """abs(z), NaN for a NaN z, and inf where Python's abs overflows.  abs
    raises OverflowError there, and on a NaN z too when a libm call (an
    underflowing exp, say) has left errno at ERANGE."""
    if cmath.isnan(z):
        return math.nan
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _ratio_stats(numer: np.ndarray, denom: np.ndarray):
    """(omega, spread) of each row of (K, m) arrays of usable values."""
    ratios = numer / denom
    omega = ratios.mean(axis=1)
    return omega, np.abs(ratios - omega[:, None]).max(axis=1)


def extract_multiplier_batch(rep: RepDescriptor, r: GalileiBatch,
                             s: GalileiBatch, t, state: PolyGaussianState,
                             points, rs=None) -> MultiplierBatch:
    """Row-wise pointwise ratio (U_t(r) U_t(s) f)(p) / (U_t(rs) f)(p).

    t is one time or one per row; points are (N, n, dim), one point set
    per row, or one (n, dim) set for every row; rs is multiply_batch(r, s),
    when the caller has it already.
    """
    n = len(r)
    if rs is None:
        rs = multiply_batch(r, s)
    points = np.asarray(points, dtype=float)
    P = np.broadcast_to(points, (n,) + points.shape[-2:])
    f = StateBatch.of(state, n)
    composed = apply_batch(rep, r, t, apply_batch(rep, s, t, f))
    denom = apply_batch(rep, rs, t, f).evaluate(P)
    numer = composed.evaluate(P)
    # Gaussian envelopes never vanish; only genuine underflow gets skipped
    usable = np.abs(denom) > 1e-280
    n_points = usable.sum(axis=1)
    omega = np.full(n, complex(math.nan, math.nan))
    spread = np.full(n, math.nan)
    enough = n_points >= MIN_POINTS
    full = enough & (n_points == P.shape[1])
    omega[full], spread[full] = _ratio_stats(numer[full], denom[full])
    for i in np.flatnonzero(enough & ~full):
        (omega[i],), (spread[i],) = _ratio_stats(numer[i, usable[i]][None],
                                                 denom[i, usable[i]][None])
    modulus = np.array([abs(_modulus(w) - 1.0) for w in omega.tolist()])
    return MultiplierBatch(omega, spread, modulus, n_points,
                           P.shape[1] - n_points)


def extract_multiplier(rep: RepDescriptor, r: GalileiElement,
                       s: GalileiElement, t: float,
                       state: PolyGaussianState,
                       sample_points=None, rs=None) -> MultiplierReport:
    """Pointwise ratio (U_t(r) U_t(s) f)(p) / (U_t(rs) f)(p).

    For a ray representation the ratio is a constant unimodular number;
    constancy_spread measures any pointwise deviation from it.  rs is the
    product multiply(r, s), when the caller has it already.  Raises
    ValueError when fewer than MIN_POINTS points are usable.
    """
    if sample_points is None:
        sample_points = default_sample_points(state)
    rows = extract_multiplier_batch(
        rep, _row(r), _row(s), t, state, np.atleast_2d(sample_points),
        None if rs is None else _row(rs))
    if rows.n_points[0] < MIN_POINTS:
        raise ValueError(_TOO_FEW)
    return MultiplierReport(omega=complex(rows.omega[0]),
                            constancy_spread=float(rows.constancy_spread[0]),
                            modulus_error=float(rows.modulus_error[0]),
                            n_points=int(rows.n_points[0]),
                            n_skipped=int(rows.n_skipped[0]))


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
    """|omega[i] - e^{i exponent[i]}| per row, in Python complex arithmetic."""
    return np.array([_modulus(w - cmath.exp(1j * x))
                     for w, x in zip(omega.tolist(), exponent.tolist())])


def _coboundary_phi(gamma: float, r: GalileiBatch) -> np.ndarray:
    return 0.5 * gamma * (_dot(r.u, r.v) - r.eta * _dot(r.v, r.v))


def expected_multiplier_exponent_batch(rep: RepDescriptor, r: GalileiBatch,
                                       s: GalileiBatch, t=0.0, rs=None):
    """Closed-form prediction (name, exponents): row i has multiplier
    e^{i exponents[i]}; t and rs as in extract_multiplier_batch."""
    if rs is None:
        rs = multiply_batch(r, s)
    xi0 = PhaseExponent("xi0", rep.dim, gamma=rep.gamma)
    value = -cocycles.evaluate_batch(xi0, r, s)
    value += _xi_t(rep, r, s, t)
    if rep.kind == "schrodinger2d":
        name = "-gamma*xi0 + s*dtheta + xi_t"
    elif rep.kind == "nonabelian2d":
        xi1 = PhaseExponent("xi1", 2, lam=rep.lam)
        value += cocycles.evaluate_batch(xi1, r, s)
        name = "-gamma*xi0 + lambda*xi1 + s*dtheta + xi_t"
    elif rep.kind == "bargmann3d":
        value += (_coboundary_phi(rep.gamma, r) + _coboundary_phi(rep.gamma, s)
                  - _coboundary_phi(rep.gamma, rs))
        name = "-gamma*xi0 + dphi + xi_t"
    else:
        raise ValueError(f"no multiplier prediction for kind {rep.kind}")
    if rep.kind in ("schrodinger2d", "nonabelian2d"):
        # the rotation character contributes the principal-branch wrap
        value += rep.s * _rotation_wrap(r, s, rs)
    return name, value


def expected_multiplier_exponent(rep: RepDescriptor, r: GalileiElement,
                                 s: GalileiElement, t: float = 0.0, rs=None):
    """Closed-form prediction (name, exponent) with multiplier e^{i exponent};
    rs is the product multiply(r, s), when the caller has it already."""
    name, value = expected_multiplier_exponent_batch(
        rep, _row(r), _row(s), t, None if rs is None else _row(rs))
    return name, float(value[0])


def match_exponent_batch(rep: RepDescriptor, r: GalileiBatch,
                         s: GalileiBatch, t, rows: MultiplierBatch,
                         rs=None) -> MultiplierBatch:
    """Attach (name, residuals): per row |omega - e^{i exponent}| against
    the predicted multiplier; t and rs as in extract_multiplier_batch."""
    name, value = expected_multiplier_exponent_batch(rep, r, s, t, rs)
    return replace(rows, matched_exponent=(name, _phase_mismatch(rows.omega,
                                                                 value)))


def match_exponent(rep: RepDescriptor, r: GalileiElement, s: GalileiElement,
                   t: float, report: MultiplierReport,
                   rs=None) -> MultiplierReport:
    """Attach (name, residual) comparing omega with the predicted multiplier;
    rs as in expected_multiplier_exponent."""
    name, value = expected_multiplier_exponent_batch(
        rep, _row(r), _row(s), t, None if rs is None else _row(rs))
    residual = _phase_mismatch(np.array((report.omega,)), value)[0]
    return replace(report, matched_exponent=(name, float(residual)))


def exponent_cocycle_residual(rep: RepDescriptor, r: GalileiElement,
                              s: GalileiElement, q: GalileiElement,
                              t: float, state: PolyGaussianState,
                              sample_points=None) -> float:
    """Cocycle identity on extracted exponents, branch-safe.

    xi(r,s) + xi(rs,q) = xi(s,q) + xi(r,sq) holds modulo 2 pi for the
    extracted principal-branch exponents; measuring the phase of the
    multiplier combination removes the branch ambiguity.  The four
    multipliers are one 4-row extraction; raises ValueError when one of
    them has fewer than MIN_POINTS usable points.
    """
    rs, sq = multiply(r, s), multiply(s, q)
    if sample_points is None:
        sample_points = default_sample_points(state)
    a = stack_batches([_row(x) for x in (r, rs, s, r)])
    b = stack_batches([_row(x) for x in (s, q, q, sq)])
    rows = extract_multiplier_batch(rep, a, b, t, state,
                                    np.atleast_2d(sample_points))
    if rows.n_points.min() < MIN_POINTS:
        raise ValueError(_TOO_FEW)
    w = rows.omega.tolist()
    combo = w[0] * w[1] * np.conj(w[2] * w[3])
    return abs(cmath.phase(complex(combo)))


def check_time_multiplier_batch(rep: RepDescriptor, r: GalileiBatch,
                                s: GalileiBatch, t,
                                state: PolyGaussianState, points):
    """(residuals, n_points): per row |omega_t / omega_0 - e^{i xi_t}|, the
    time multiplier against the static one, and the fewest usable points
    of its two extractions; t and points as in extract_multiplier_batch.
    A row with too few usable points has a NaN residual."""
    n = len(r)
    t = np.broadcast_to(np.asarray(t, dtype=float), (n,))
    points = np.asarray(points, dtype=float)
    P = np.broadcast_to(points, (n,) + points.shape[-2:])
    twice = np.tile(np.arange(n), 2)
    rows = extract_multiplier_batch(rep, r[twice], s[twice],
                                    np.concatenate((t, np.zeros(n))),
                                    state, P[twice])
    omega = rows.omega.tolist()
    ratio = np.array([w_t / w_0 if w_0 else complex(math.nan, math.nan)
                      for w_t, w_0 in zip(omega[:n], omega[n:])])
    return (_phase_mismatch(ratio, _xi_t(rep, r, s, t)),
            np.minimum(rows.n_points[:n], rows.n_points[n:]))


def check_time_multiplier(rep: RepDescriptor, r: GalileiElement,
                          s: GalileiElement, t: float,
                          state: PolyGaussianState,
                          sample_points=None) -> float:
    """|time multiplier / static multiplier - e^{-i gamma <v_r, W_r v_s> t}|;
    raises ValueError when fewer than MIN_POINTS points are usable."""
    if sample_points is None:
        sample_points = default_sample_points(state)
    residuals, n_points = check_time_multiplier_batch(
        rep, _row(r), _row(s), t, state, np.atleast_2d(sample_points))
    if n_points[0] < MIN_POINTS:
        raise ValueError(_TOO_FEW)
    return float(residuals[0])


@dataclass(frozen=True)
class HeisenbergFitResult:
    """Fit of d/dt R_t(X) = K [R(H), R_t(X)] across a generator set.

    K is the uniform constant when one exists without per-generator sign
    flips; otherwise the flip-adjusted constant if flips repair it, else
    None. The commutator is taken as [H, X]: the opposite orientation is the
    same as negating K, so relative signs land in per_generator_flips.
    """

    K: complex | None
    per_generator_flips: dict
    max_residual: float
    uniform: bool
    per_generator: dict
    time_independent: dict
    note: str = ""


def _operator_coeff_map(op: PolyDiffOperator) -> dict:
    out = {}
    for coeff, deriv in op.terms:
        for exps, c in coeff.coeffs.items():
            out[(deriv, exps)] = c
    return out


def _fit_scalar(lhs: PolyDiffOperator, rhs: PolyDiffOperator):
    """Least-squares K minimizing ||lhs - K rhs|| over coefficients;
    None when rhs = 0 (K unconstrained)."""
    rhs_map = _operator_coeff_map(rhs)
    if not rhs_map:
        return None
    lhs_map = _operator_coeff_map(lhs)
    num = sum(c.conjugate() * lhs_map.get(key, 0.0)
              for key, c in rhs_map.items())
    den = sum(abs(c) ** 2 for c in rhs_map.values())
    return complex(num / den)


def _battery_residual(op: PolyDiffOperator, t_samples, seed: int = 11) -> float:
    """Max pointwise magnitude of op acting on seeded states."""
    magnitudes = []
    for idx in range(3):
        state = random_state(seed + idx, op.dim, poly_degree=1)
        points = default_sample_points(state, n=8, seed=seed + 100 + idx)
        for t in t_samples:
            image = op.apply(state, t=float(t))
            magnitudes.extend(_abs(image.evaluate_many(points)))
    return _worst(magnitudes)


def heisenberg_fit(rep: RepDescriptor, generators=None,
                   t_samples=(0.5, 1.7), tol: float = 1e-9) -> HeisenbergFitResult:
    """Fit the evolution constant per generator, then look for a single
    constant K; sign flips are reported if only a per-generator sign repair
    works."""
    names = tuple(generators) if generators is not None \
        else generator_names(rep)
    H = generator(rep, "H")
    per_generator = {}
    time_independent = {}
    for name in names:
        R = generator(rep, name)
        lhs = R.d_dt()
        rhs = H.commutator(R)
        K_g = _fit_scalar(lhs, rhs)
        if K_g is None:
            residual_op = lhs
        else:
            residual_op = lhs - rhs.scale(K_g)
        residual = _worst((residual_op.norm(),
                           _battery_residual(residual_op, t_samples)))
        per_generator[name] = {
            "K": K_g,
            "residual": residual,
            "constrained": K_g is not None,
        }
        time_independent[name] = lhs.norm() == 0.0
    max_residual = _worst([d["residual"] for d in per_generator.values()])
    constrained = {n: d["K"] for n, d in per_generator.items()
                   if d["constrained"]}
    flips = {n: False for n in names}
    if not constrained:
        return HeisenbergFitResult(None, flips, max_residual, True,
                                   per_generator, time_independent,
                                   note="no generator constrains K")
    values = list(constrained.values())
    ref = values[0]
    if all(abs(v - ref) < tol for v in values):
        return HeisenbergFitResult(ref, flips, max_residual, True,
                                   per_generator, time_independent)
    # single modulus, signs differing per generator
    if all(abs(abs(v) - abs(ref)) < tol for v in values):
        K = next((v for v in values if v.imag > 0), ref)
        ok = True
        for n, v in constrained.items():
            if abs(v - K) < tol:
                flips[n] = False
            elif abs(v + K) < tol:
                flips[n] = True
            else:
                ok = False
        if ok:
            return HeisenbergFitResult(
                K, flips, max_residual, False, per_generator,
                time_independent,
                note="no single (K, orientation); sign flips per generator "
                     "restore the identity")
    return HeisenbergFitResult(None, flips, max_residual, False,
                               per_generator, time_independent,
                               note="no uniform constant, with or without "
                                    "sign flips")


def check_initial_condition(rep: RepDescriptor, name: str,
                            state: PolyGaussianState = None,
                            seed: int = 23) -> float:
    """Pointwise residual of R_{t=0}(name) against the static generator."""
    diff = generator(rep, name, t=0.0) - static_generator(rep, name)
    if state is None:
        state = random_state(seed, rep.dim, poly_degree=1)
    points = default_sample_points(state, n=8, seed=seed)
    image = diff.apply(state, t=0.0)
    return _worst(np.append(_abs(image.evaluate_many(points)), diff.norm()))
