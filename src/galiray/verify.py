"""Empirical checks: multiplier extraction from operator compositions,
matching against phase exponents, the time-dependent multiplier law, and
Heisenberg-picture constant fitting."""
from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

import numpy as np

from . import cocycles
from .cocycles import PhaseExponent
from .group import GalileiElement, multiply, rotation_angle
from .representations import (RepDescriptor, apply_time, generator,
                              generator_names, static_generator)
from .states import PolyDiffOperator, PolyGaussianState, random_state

__all__ = [
    "MultiplierReport",
    "default_sample_points",
    "extract_multiplier",
    "expected_multiplier_exponent",
    "match_exponent",
    "exponent_cocycle_residual",
    "check_time_multiplier",
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


def extract_multiplier(rep: RepDescriptor, r: GalileiElement,
                       s: GalileiElement, t: float,
                       state: PolyGaussianState,
                       sample_points=None) -> MultiplierReport:
    """Pointwise ratio (U_t(r) U_t(s) f)(p) / (U_t(rs) f)(p).

    For a ray representation the ratio is a constant unimodular number;
    constancy_spread measures any pointwise deviation from it.
    """
    if sample_points is None:
        sample_points = default_sample_points(state)
    sample_points = np.atleast_2d(np.asarray(sample_points, dtype=float))
    composed = apply_time(rep, r, t, apply_time(rep, s, t, state))
    direct = apply_time(rep, multiply(r, s), t, state)
    denom_vals = np.array([direct.evaluate(p) for p in sample_points])
    numer_vals = np.array([composed.evaluate(p) for p in sample_points])
    # Gaussian envelopes never vanish; only genuine underflow gets skipped
    usable = np.abs(denom_vals) > 1e-280
    n_skipped = int((~usable).sum())
    if usable.sum() < 4:
        raise ValueError("too few usable sample points (denominator ~ 0)")
    ratios = numer_vals[usable] / denom_vals[usable]
    omega = complex(ratios.mean())
    spread = float(np.abs(ratios - omega).max())
    return MultiplierReport(omega=omega, constancy_spread=spread,
                            modulus_error=abs(abs(omega) - 1.0),
                            n_points=int(usable.sum()), n_skipped=n_skipped)


def _coboundary_phi(gamma: float, r: GalileiElement) -> float:
    return 0.5 * gamma * float(r.u @ r.v - r.eta * (r.v @ r.v))


def expected_multiplier_exponent(rep: RepDescriptor, r: GalileiElement,
                                 s: GalileiElement, t: float = 0.0):
    """Closed-form prediction (name, exponent) with multiplier e^{i exponent}."""
    rs = multiply(r, s)
    xi0 = PhaseExponent("xi0", rep.dim, gamma=rep.gamma)
    xi_t = PhaseExponent("xi_t", rep.dim, gamma=rep.gamma, t=t)
    value = -cocycles.evaluate(xi0, r, s)
    value += cocycles.evaluate(xi_t, r, s)
    if rep.kind == "schrodinger2d":
        name = "-gamma*xi0 + s*dtheta + xi_t"
    elif rep.kind == "nonabelian2d":
        xi1 = PhaseExponent("xi1", 2, lam=rep.lam)
        value += cocycles.evaluate(xi1, r, s)
        name = "-gamma*xi0 + lambda*xi1 + s*dtheta + xi_t"
    elif rep.kind == "bargmann3d":
        value += (_coboundary_phi(rep.gamma, r) + _coboundary_phi(rep.gamma, s)
                  - _coboundary_phi(rep.gamma, rs))
        name = "-gamma*xi0 + dphi + xi_t"
    else:
        raise ValueError(f"no multiplier prediction for kind {rep.kind}")
    if rep.kind in ("schrodinger2d", "nonabelian2d"):
        # the rotation character contributes the principal-branch wrap
        dtheta = rotation_angle(r) + rotation_angle(s) - rotation_angle(rs)
        value += rep.s * dtheta
    return name, value


def match_exponent(rep: RepDescriptor, r: GalileiElement, s: GalileiElement,
                   t: float, report: MultiplierReport) -> MultiplierReport:
    """Attach (name, residual) comparing omega with the predicted multiplier."""
    name, value = expected_multiplier_exponent(rep, r, s, t)
    residual = abs(report.omega - cmath.exp(1j * value))
    return replace(report, matched_exponent=(name, residual))


def exponent_cocycle_residual(rep: RepDescriptor, r: GalileiElement,
                              s: GalileiElement, q: GalileiElement,
                              t: float, state: PolyGaussianState,
                              sample_points=None) -> float:
    """Cocycle identity on extracted exponents, branch-safe.

    xi(r,s) + xi(rs,q) = xi(s,q) + xi(r,sq) holds modulo 2 pi for the
    extracted principal-branch exponents; measuring the phase of the
    multiplier combination removes the branch ambiguity.
    """
    def omega(a, b):
        return extract_multiplier(rep, a, b, t, state, sample_points).omega

    combo = (omega(r, s) * omega(multiply(r, s), q)
             * np.conj(omega(s, q) * omega(r, multiply(s, q))))
    return abs(cmath.phase(complex(combo)))


def check_time_multiplier(rep: RepDescriptor, r: GalileiElement,
                          s: GalileiElement, t: float,
                          state: PolyGaussianState,
                          sample_points=None) -> float:
    """|time multiplier / static multiplier - e^{-i gamma <v_r, W_r v_s> t}|."""
    omega_t = extract_multiplier(rep, r, s, t, state, sample_points).omega
    omega_0 = extract_multiplier(rep, r, s, 0.0, state, sample_points).omega
    xi_t = PhaseExponent("xi_t", r.dim, gamma=rep.gamma, t=t)
    expected = cmath.exp(1j * xi_t(r, s))
    return abs(omega_t / omega_0 - expected)


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
            magnitudes += [abs(image.evaluate(p)) for p in points]
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
    return _worst([abs(image.evaluate(p)) for p in points] + [diff.norm()])
