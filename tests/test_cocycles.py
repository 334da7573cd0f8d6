"""Phase exponents: closed forms, cocycle identity, equivalence classes,
and the infinitesimal (algebra-level) exponents."""

import math

import numpy as np
import pytest

from galiray.algebra import basis_element
from galiray.cocycles import (
    DEFAULT_TAU_SEQUENCE,
    PhaseExponent,
    cocycle_residual,
    cocycle_residual_batch,
    equivalence_transform,
    evaluate,
    infinitesimal_exponent,
)
from galiray.group import (GalileiElement, _rotations_2d, multiply,
                           random_element, random_element_batch)


def rotation_2d(theta):
    return _rotations_2d(np.array([theta]))[0]


def test_xi0_translation_boost_pair():
    # pure translation r against pure boost s: exponent gamma/2 <u, v>
    u = np.array([0.3, -1.1, 0.5])
    v = np.array([0.7, 0.2, -0.4])
    r = GalileiElement(3, np.eye(3), 0.0, np.zeros(3), u)
    s = GalileiElement(3, np.eye(3), 0.0, v, np.zeros(3))
    xi = PhaseExponent("xi0", 3, gamma=1.6)
    assert abs(evaluate(xi, r, s) - 1.6 * 0.5 * float(u @ v)) < 1e-15
    # swapping the factors flips the sign for this pair
    assert abs(evaluate(xi, s, r) + 1.6 * 0.5 * float(u @ v)) < 1e-15
    assert evaluate(xi, r, s) == xi(r, s)[0]


def test_xi1_pure_boost_wedge():
    va = np.array([0.4, -0.9])
    vb = np.array([1.2, 0.3])
    r = GalileiElement(2, np.eye(2), 0.0, va, np.zeros(2))
    s = GalileiElement(2, np.eye(2), 0.0, vb, np.zeros(2))
    xi = PhaseExponent("xi1", 2, lam=0.8)
    wedge = va[0] * vb[1] - va[1] * vb[0]
    assert abs(evaluate(xi, r, s) - 0.8 * 0.5 * wedge) < 1e-15


def test_xi2_rotation_time_pairing():
    r = GalileiElement(2, rotation_2d(0.6), 1.1, np.zeros(2), np.zeros(2))
    s = GalileiElement(2, rotation_2d(-0.2), 0.4, np.zeros(2), np.zeros(2))
    xi = PhaseExponent("xi2", 2, S=2.5)
    assert abs(evaluate(xi, r, s) - 2.5 * (0.6 * 0.4 - (-0.2) * 1.1)) < 1e-12


def test_xi_eta_closed_form_dim1():
    r = GalileiElement(1, np.eye(1), 0.9, [0.5], [-0.3])
    s = GalileiElement(1, np.eye(1), -0.4, [1.1], [0.7])
    xi = PhaseExponent("xi_eta", 1, a1=1.3, a2=-0.6)
    vr, ur, etar = 0.5, -0.3, 0.9
    vs, us, etas = 1.1, 0.7, -0.4
    part1 = 1.3 * (ur * vs - us * vr + etas * vr * vs)
    part2 = -0.6 * (ur * etas - us * etar - etar * etas * vr)
    assert abs(evaluate(xi, r, s) - 0.5 * (part1 + part2)) < 1e-15


def test_xi_t_value_and_degenerate_cases():
    r = GalileiElement(2, rotation_2d(0.5), 0.2, [0.8, 0.1], [0.0, 0.3])
    s = GalileiElement(2, np.eye(2), -0.7, [0.4, -0.6], [1.0, 0.0])
    gamma, t = 1.2, 0.9
    xi = PhaseExponent("xi_t", 2, gamma=gamma, t=t)
    expected = -gamma * float(r.v[0] @ (r.W[0] @ s.v[0])) * t
    assert abs(evaluate(xi, r, s) - expected) < 1e-15
    assert evaluate(PhaseExponent("xi_t", 2, gamma=gamma, t=0.0), r, s) == 0.0
    # orthogonal unrotated boosts decouple
    ra = GalileiElement(2, np.eye(2), 0.0, [1.0, 0.0], np.zeros(2))
    sa = GalileiElement(2, np.eye(2), 0.0, [0.0, 2.0], np.zeros(2))
    assert evaluate(PhaseExponent("xi_t", 2, gamma=gamma, t=t), ra, sa) == 0.0


@pytest.mark.parametrize("name,dim,params", [
    ("xi0", 1, {"gamma": 1.7}),
    ("xi0", 2, {"gamma": 0.8}),
    ("xi0", 3, {"gamma": 1.0}),
    ("xi1", 2, {"lam": 1.3}),
    ("xi2", 2, {"S": 0.6}),
    ("xi_eta", 1, {"a1": 0.9, "a2": 1.4}),
    ("xi_t", 2, {"gamma": 1.1, "t": 0.8}),
    ("xi_t", 3, {"gamma": 1.1, "t": 1.7}),
])
def test_cocycle_identity_random_sweep(name, dim, params):
    xi = PhaseExponent(name, dim, **params)
    rng = np.random.default_rng(421)
    worst = 0.0
    for _ in range(300):
        # rotation angles capped so triple products stay on the principal
        # branch (the angle-based exponent is branch-sensitive)
        r = random_element(rng, dim, max_angle=0.85)
        s = random_element(rng, dim, max_angle=0.85)
        q = random_element(rng, dim, max_angle=0.85)
        worst = max(worst, cocycle_residual(xi, r, s, q))
    assert worst < 1e-10


def test_eta_exponent_with_wrong_time_argument_fails_loudly():
    # swapping eta_s -> eta_r inside the first block breaks the cocycle
    # identity at order one; a quiet pass here would hide a real defect
    def broken(r, s):
        vr, ur, etar = r.v[:, 0], r.u[:, 0], r.eta
        vs, us, etas = s.v[:, 0], s.u[:, 0], s.eta
        part1 = ur * vs - us * vr + etar * vr * vs
        part2 = ur * etas - us * etar - etar * etas * vr
        return 0.5 * (part1 + part2)

    rng = np.random.default_rng(422)
    worst = 0.0
    for _ in range(200):
        r = random_element(rng, 1)
        s = random_element(rng, 1)
        q = random_element(rng, 1)
        worst = max(worst, cocycle_residual(broken, r, s, q))
    assert worst > 1e-3


def _phi(r):
    """A row-wise phi that vanishes at the identity."""
    return (0.3 * np.sum(r.v * r.v, axis=1)
            + 0.1 * r.eta * np.sum(r.u * r.u, axis=1))


def test_equivalence_transform_is_a_coboundary_shift():
    def phi(r):
        v, u = r.v[0], r.u[0]
        return 0.3 * float(v @ v) + 0.1 * float(r.eta[0]) * float(u @ u)

    xi = PhaseExponent("xi0", 2, gamma=1.4)
    shifted = equivalence_transform(xi, _phi)
    rng = np.random.default_rng(423)
    for _ in range(100):
        r, s, q = (random_element(rng, 2) for _ in range(3))
        assert cocycle_residual(shifted, r, s, q) < 1e-10
        want = evaluate(xi, r, s) + phi(r) + phi(s) - phi(multiply(r, s))
        assert abs(evaluate(shifted, r, s) - want) < 1e-14


def test_a_shifted_exponent_runs_through_the_batch_residual():
    # cocycle_residual is the 1-row view of cocycle_residual_batch, which
    # calls a shifted exponent on whole batches, as it calls a PhaseExponent
    shifted = equivalence_transform(PhaseExponent("xi0", 2, gamma=1.4), _phi)
    r, s, q = (random_element_batch(424 + k, 20, 2) for k in range(3))
    residuals = cocycle_residual_batch(shifted, r, s, q)
    assert residuals.shape == (20,) and residuals.max() < 1e-10
    for i in range(20):
        assert residuals[i] == cocycle_residual(
            shifted, r.element(i), s.element(i), q.element(i))


def test_equivalence_transform_rejects_nonvanishing_phi():
    xi = PhaseExponent("xi0", 2)
    for value in (1.0, math.nan):
        with pytest.raises(ValueError, match="phi.identity. must be 0"):
            equivalence_transform(xi, lambda r: np.full(len(r), value))


def test_coboundary_leaves_boost_translation_exponent_alone():
    # phi built from eta alone vanishes along the boost and translation
    # flows, so the invariant pairing survives the shift exactly
    gamma = 2.0
    xi = PhaseExponent("xi0", 3, gamma=gamma)
    shifted = equivalence_transform(xi, lambda r: 0.7 * r.eta ** 2, dim=3)
    X = basis_element("b1", 3)
    Y = basis_element("d1", 3)
    base = infinitesimal_exponent(xi, X, Y)
    moved = infinitesimal_exponent(shifted, X, Y)
    assert base.converged and moved.converged
    assert abs(base.value - gamma) < 1e-6
    assert abs(moved.value - gamma) < 1e-6


def test_infinitesimal_exponent_boost_translation_pattern():
    gamma = 2.5
    xi = PhaseExponent("xi0", 3, gamma=gamma)
    for i in (1, 3):
        for k in (1, 2):
            b = basis_element(f"b{i}", 3)
            d = basis_element(f"d{k}", 3)
            got = infinitesimal_exponent(xi, b, d)
            assert got.converged
            want = gamma if i == k else 0.0
            assert abs(got.value - want) < 1e-6
            flipped = infinitesimal_exponent(xi, d, b)
            assert abs(flipped.value + want) < 1e-6


def test_infinitesimal_exponent_handles_odd_order_terms():
    # for the boost/time pair the group combination is exactly cubic in
    # tau, so the extrapolation must cancel odd powers too
    xi = PhaseExponent("xi0", 3, gamma=1.0)
    got = infinitesimal_exponent(xi, basis_element("d1", 3),
                                 basis_element("f", 3))
    assert got.converged
    assert abs(got.value) < 1e-7
    assert got.extrapolation_error < 1e-7


def test_exponent_parameter_reporting_and_validation():
    assert PhaseExponent("xi1", 2, lam=0.7).params() == {"lambda": 0.7}
    assert PhaseExponent("xi_t", 3, gamma=1.2, t=0.4).params() == \
        {"gamma": 1.2, "t": 0.4}
    assert set(PhaseExponent("xi_eta", 1).params()) == {"a1", "a2"}
    with pytest.raises(ValueError):
        PhaseExponent("xi9", 2)
    with pytest.raises(ValueError):
        PhaseExponent("xi1", 3)
    with pytest.raises(ValueError):
        PhaseExponent("xi_eta", 2)
    for dim in (0, 4):
        with pytest.raises(ValueError, match=r"xi0 is defined in dims "
                           rf"\[1, 2, 3\], got {dim}"):
            PhaseExponent("xi0", dim)


EXPONENT_DIMS = {"xi0": 3, "xi1": 2, "xi2": 2, "xi_eta": 1, "xi_t": 2}
PARAMETERS = ("gamma", "lam", "S", "a1", "a2", "t")


@pytest.mark.parametrize("name", EXPONENT_DIMS)
def test_an_exponent_reads_exactly_the_parameters_it_reports(name):
    """A parameter the formula reads moves its value and is reported; one
    it does not read leaves the value alone and is rejected away from its
    default, with a message that names the exponent and the parameter."""
    dim = EXPONENT_DIMS[name]
    r, s = (random_element_batch(430 + k, 8, dim, 1.0, 0.8) for k in (0, 1))
    # xi_t vanishes at its default t = 0, whatever gamma
    start = {"t": 0.7} if name == "xi_t" else {}
    base = PhaseExponent(name, dim, **start)
    for field in PARAMETERS:
        # the formula at 2.5, past the check that rejects an unread one
        moved = object.__new__(PhaseExponent)
        moved.__dict__.update(base.__dict__, **{field: 2.5})
        reads = not np.array_equal(moved(r, s), base(r, s))
        key = "lambda" if field == "lam" else field
        assert reads == (key in base.params()), field
        if reads:
            assert PhaseExponent(name, dim, **{**start, field: 2.5}).params(
                )[key] == 2.5
        else:
            with pytest.raises(ValueError, match=f"{name} does not read the "
                               f"parameter '{field}'"):
                PhaseExponent(name, dim, **{field: 2.5})


def test_time_exponent_closed_form_on_random_dim3_pairs():
    # the time-extension phase -gamma <v_r, W_r v_s> t of the multiplier law
    rng = np.random.default_rng(424)
    gamma, t = 1.3, 0.8
    xi = PhaseExponent("xi_t", 3, gamma=gamma, t=t)
    for _ in range(20):
        r = random_element(rng, 3)
        s = random_element(rng, 3)
        expected = -gamma * float(r.v[0] @ (r.W[0] @ s.v[0])) * t
        assert abs(evaluate(xi, r, s) - expected) < 1e-15


def test_default_tau_sequence_is_decreasing():
    taus = DEFAULT_TAU_SEQUENCE
    assert len(taus) >= 3
    assert all(a > b > 0 for a, b in zip(taus, taus[1:]))
