"""Multiplier extraction and Heisenberg constant fitting: known closed-form
multipliers, branch-safe cocycle residuals, and the per-generator fit paths."""

import numpy as np
import pytest

from galiray.group import GalileiElement, identity, random_element
from galiray.representations import RepDescriptor, generator_names
from galiray.states import PolyGaussianState, Polynomial, random_state
from galiray.verify import (
    check_initial_condition,
    check_time_multiplier,
    default_sample_points,
    expected_multiplier_exponent,
    exponent_cocycle_residual,
    extract_multiplier,
    heisenberg_fit,
    match_exponent,
)

REPS = {
    "schrodinger2d": RepDescriptor("schrodinger2d", gamma=1.3, s=0.7),
    "nonabelian2d": RepDescriptor("nonabelian2d", gamma=1.1, lam=0.8, s=-0.4),
    "bargmann3d": RepDescriptor("bargmann3d", gamma=0.9),
}


def boost(dim, v):
    return GalileiElement(dim, np.eye(dim), 0.0, np.asarray(v, float),
                          np.zeros(dim))


def translation(dim, u):
    return GalileiElement(dim, np.eye(dim), 0.0, np.zeros(dim),
                          np.asarray(u, float))


def test_identity_pair_extracts_the_trivial_multiplier():
    rep = REPS["schrodinger2d"]
    state = random_state(np.random.default_rng(7), 2)
    rpt = extract_multiplier(rep, identity(2), identity(2), 0.7, state)
    assert abs(rpt.omega - 1.0) < 1e-12
    assert rpt.constancy_spread < 1e-12
    assert rpt.modulus_error < 1e-12
    assert rpt.n_points == 16
    assert rpt.n_skipped == 0
    assert rpt.matched_exponent is None
    assert abs(rpt.exponent) < 1e-12


def test_translation_boost_pair_gives_the_known_multiplier():
    # gamma = 1: U(u-translation) U(v-boost) = e^{-i <u,v>/2} U(product)
    rep = RepDescriptor("schrodinger2d", gamma=1.0)
    u = np.array([0.3, -0.7])
    v = np.array([0.5, 0.2])
    state = random_state(np.random.default_rng(8), 2)
    rpt = extract_multiplier(rep, translation(2, u), boost(2, v), 0.0, state)
    want = np.exp(-0.5j * float(u @ v))
    assert abs(rpt.omega - want) < 1e-12
    name, value = expected_multiplier_exponent(rep, translation(2, u),
                                               boost(2, v), 0.0)
    assert "xi0" in name
    assert abs(value - (-0.5 * float(u @ v))) < 1e-14


def test_extracted_multipliers_match_the_phase_exponents():
    rng = np.random.default_rng(9)
    for kind, rep in REPS.items():
        state = random_state(rng, rep.dim)
        for k in range(25):
            r = random_element(rng, rep.dim)
            s = random_element(rng, rep.dim)
            t = 0.0 if k % 2 == 0 else float(rng.uniform(-1.5, 1.5))
            rpt = extract_multiplier(rep, r, s, t, state)
            assert rpt.constancy_spread < 1e-9
            assert rpt.modulus_error < 1e-10
            rpt = match_exponent(rep, r, s, t, rpt)
            name, residual = rpt.matched_exponent
            assert "xi0" in name
            assert residual < 1e-9


def test_time_multiplier_ratio_matches_the_action_term():
    rng = np.random.default_rng(10)
    for rep in REPS.values():
        state = random_state(rng, rep.dim)
        for _ in range(8):
            r = random_element(rng, rep.dim)
            s = random_element(rng, rep.dim)
            t = float(rng.uniform(-2.0, 2.0))
            assert check_time_multiplier(rep, r, s, t, state) < 1e-10


def test_time_ratio_is_independent_of_lambda_and_spin():
    rep_a = RepDescriptor("nonabelian2d", gamma=1.1, lam=0.8, s=-0.4)
    rep_b = RepDescriptor("nonabelian2d", gamma=1.1, lam=0.0, s=0.3)
    rng = np.random.default_rng(11)
    state = random_state(rng, 2)
    for _ in range(5):
        r = random_element(rng, 2)
        s = random_element(rng, 2)
        t = float(rng.uniform(0.2, 1.8))

        def ratio(rep):
            w_t = extract_multiplier(rep, r, s, t, state).omega
            w_0 = extract_multiplier(rep, r, s, 0.0, state).omega
            return w_t / w_0

        assert abs(ratio(rep_a) - ratio(rep_b)) < 1e-10


def test_pure_boost_time_ratio_closed_form():
    rep = REPS["bargmann3d"]
    va = np.array([0.4, -0.1, 0.3])
    vb = np.array([-0.2, 0.5, 0.1])
    state = random_state(np.random.default_rng(12), 3)
    t = 1.3
    w_t = extract_multiplier(rep, boost(3, va), boost(3, vb), t, state).omega
    w_0 = extract_multiplier(rep, boost(3, va), boost(3, vb), 0.0, state).omega
    want = np.exp(-1j * rep.gamma * float(va @ vb) * t)
    assert abs(w_t / w_0 - want) < 1e-12


def test_exponent_cocycle_residual_is_small():
    rng = np.random.default_rng(13)
    for kind in ("schrodinger2d", "bargmann3d"):
        rep = REPS[kind]
        state = random_state(rng, rep.dim)
        for _ in range(4):
            r = random_element(rng, rep.dim)
            s = random_element(rng, rep.dim)
            q = random_element(rng, rep.dim)
            t = float(rng.uniform(-1.0, 1.0))
            res = exponent_cocycle_residual(rep, r, s, q, t, state)
            assert res < 1e-8


def test_points_where_the_state_vanishes_are_skipped():
    state = PolyGaussianState.gaussian(2, poly=Polynomial.variable(2, 0))
    points = np.array([
        [0.5, 0.3], [1.0, -0.2], [0.0, 0.7], [0.4, 0.4],
        [-0.3, 0.8], [0.0, -1.1], [0.9, 0.1], [-0.6, -0.4],
    ])
    rpt = extract_multiplier(REPS["schrodinger2d"], identity(2), identity(2),
                             0.0, state, sample_points=points)
    assert rpt.n_skipped == 2
    assert rpt.n_points == 6
    assert abs(rpt.omega - 1.0) < 1e-12


def test_too_few_usable_points_raises():
    state = PolyGaussianState.gaussian(2, poly=Polynomial.variable(2, 0))
    axis_points = np.array([[0.0, 0.3], [0.0, -0.4], [0.0, 1.0], [0.0, 0.8]])
    with pytest.raises(ValueError):
        extract_multiplier(REPS["schrodinger2d"], identity(2), identity(2),
                           0.0, state, sample_points=axis_points)


def test_default_sample_points_cluster_around_the_center():
    state = PolyGaussianState.gaussian(2, beta=np.array([2.0, 0.0]))
    pts = default_sample_points(state, n=32, seed=3)
    assert pts.shape == (32, 2)
    dist = np.linalg.norm(pts - np.array([2.0, 0.0]), axis=1)
    assert dist.max() <= 2.0 + 1e-12
    again = default_sample_points(state, n=32, seed=3)
    assert np.array_equal(pts, again)
    other = default_sample_points(state, n=32, seed=4)
    assert not np.array_equal(pts, other)


def test_momentum_fit_finds_the_uniform_constant():
    for kind, rep in REPS.items():
        fit = heisenberg_fit(rep)
        assert fit.uniform
        assert abs(fit.K - 1j) < 1e-12
        assert fit.max_residual < 1e-12
        assert fit.note == ""
        assert not any(fit.per_generator_flips.values())
        for name in generator_names(rep):
            boosts = name.startswith("N")
            assert fit.time_independent[name] == (not boosts)
            # only boosts pick up [H, .] != 0; the rest leave K free
            assert fit.per_generator[name]["constrained"] == boosts
            assert fit.per_generator[name]["residual"] < 1e-12


def test_position_fit_needs_per_generator_sign_flips():
    rep = RepDescriptor("position1d", m=1.0, hbar=2.0, force_f=0.5, V0=0.25)
    fit = heisenberg_fit(rep)
    assert not fit.uniform
    assert abs(fit.K - 0.5j) < 1e-12
    assert fit.per_generator_flips == {"H": False, "P": True, "N": False}
    assert "sign flips" in fit.note
    assert abs(fit.per_generator["P"]["K"] - (-0.5j)) < 1e-12
    assert abs(fit.per_generator["N"]["K"] - 0.5j) < 1e-12
    assert not fit.per_generator["H"]["constrained"]
    assert fit.max_residual < 1e-12
    assert fit.time_independent == {"H": True, "P": False, "N": False}


def test_force_free_position_fit_is_uniform():
    rep = RepDescriptor("position1d", m=1.3, hbar=2.0, force_f=0.0)
    fit = heisenberg_fit(rep)
    assert fit.uniform
    assert abs(fit.K - 0.5j) < 1e-12
    assert fit.note == ""
    assert not fit.per_generator["P"]["constrained"]
    assert fit.max_residual < 1e-12


def test_fit_on_a_generator_subset():
    rep = RepDescriptor("position1d", m=1.0, hbar=1.0, force_f=0.5, V0=0.25)
    fit = heisenberg_fit(rep, generators=["H", "N"])
    assert fit.uniform
    assert abs(fit.K - 1j) < 1e-12
    assert set(fit.per_generator) == {"H", "N"}
    assert fit.time_independent == {"H": True, "N": False}


def test_generators_at_time_zero_match_the_static_ones():
    reps = dict(REPS)
    reps["position1d"] = RepDescriptor("position1d", m=1.0, hbar=1.0,
                                       force_f=0.5, V0=0.25)
    for rep in reps.values():
        for name in generator_names(rep):
            assert check_initial_condition(rep, name) < 1e-12
