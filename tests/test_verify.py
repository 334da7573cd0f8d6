"""Multiplier extraction and Heisenberg constant fitting: known closed-form
multipliers, branch-safe cocycle residuals, and the per-generator fit paths."""

import math

import numpy as np
import pytest

from galiray import group
from galiray.group import (GalileiElement, identity_batch, multiply,
                           random_element, random_element_batch,
                           stack_batches)
from galiray.representations import RepDescriptor, generator_names
from galiray.states import PolyGaussianState, random_state
from galiray.verify import (
    check_initial_condition,
    check_time_multiplier_batch,
    default_sample_points,
    expected_multiplier_exponent_batch,
    exponent_cocycle_residual_batch,
    extract_multiplier,
    extract_multiplier_batch,
    heisenberg_fit,
    match_exponent_batch,
)

REPS = {
    "schrodinger2d": RepDescriptor("schrodinger2d", gamma=1.3, s=0.7),
    "nonabelian2d": RepDescriptor("nonabelian2d", gamma=1.1, lam=0.8, s=-0.4),
    "bargmann3d": RepDescriptor("bargmann3d", gamma=0.9),
}


def identity(dim):
    return identity_batch(dim, 1).element(0)


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
    assert len(rpt.omega) == 1
    assert abs(rpt.omega[0] - 1.0) < 1e-12
    assert rpt.constancy_spread[0] < 1e-12
    assert rpt.modulus_error[0] < 1e-12
    assert abs(np.angle(rpt.omega[0])) < 1e-12


def test_translation_boost_pair_gives_the_known_multiplier():
    # gamma = 1: U(u-translation) U(v-boost) = e^{-i <u,v>/2} U(product)
    rep = RepDescriptor("schrodinger2d", gamma=1.0)
    u = np.array([0.3, -0.7])
    v = np.array([0.5, 0.2])
    state = random_state(np.random.default_rng(8), 2)
    rpt = extract_multiplier(rep, translation(2, u), boost(2, v), 0.0, state)
    want = np.exp(-0.5j * float(u @ v))
    assert abs(rpt.omega[0] - want) < 1e-12
    name, value = expected_multiplier_exponent_batch(
        rep, translation(2, u), boost(2, v), 0.0)
    assert "xi0" in name
    assert value.shape == (1,)
    assert abs(value[0] - (-0.5 * float(u @ v))) < 1e-14


# the terms each kind's preset adds to the prediction
PREDICTION_NAMES = {
    "schrodinger2d": "-gamma*xi0 + xi_t + lambda*xi1 + s*dtheta",
    "nonabelian2d": "-gamma*xi0 + xi_t + lambda*xi1 + s*dtheta",
    "bargmann3d": "-gamma*xi0 + xi_t + dphi",
}


def test_extracted_multipliers_match_the_phase_exponents():
    rng = np.random.default_rng(9)
    for kind, rep in REPS.items():
        state = random_state(rng, rep.dim)
        for k in range(25):
            r = random_element(rng, rep.dim)
            s = random_element(rng, rep.dim)
            t = 0.0 if k % 2 == 0 else float(rng.uniform(-1.5, 1.5))
            rpt = extract_multiplier(rep, r, s, t, state)
            assert rpt.constancy_spread[0] < 1e-9
            assert rpt.modulus_error[0] < 1e-10
            name, residual = match_exponent_batch(rep, r, s, t,
                                                  rpt)
            assert name == PREDICTION_NAMES[kind]
            assert residual[0] < 1e-9
    # position1d has no action, so no multiplier to predict
    with pytest.raises(ValueError, match="undefined for position1d"):
        expected_multiplier_exponent_batch(RepDescriptor("position1d"),
                                           identity_batch(1, 1),
                                           identity_batch(1, 1))


def test_time_multiplier_ratio_matches_the_action_term():
    rng = np.random.default_rng(10)
    for rep in REPS.values():
        state = random_state(rng, rep.dim)
        rows, ts = [], []
        for _ in range(8):
            rows += [random_element(rng, rep.dim), random_element(rng, rep.dim)]
            ts.append(float(rng.uniform(-2.0, 2.0)))
        b = stack_batches(rows)
        residuals = check_time_multiplier_batch(rep, b[0::2], b[1::2],
                                                np.array(ts), state)
        assert residuals.shape == (8,) and residuals.max() < 1e-10


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
            w_t = extract_multiplier(rep, r, s, t, state).omega[0]
            w_0 = extract_multiplier(rep, r, s, 0.0, state).omega[0]
            return w_t / w_0

        assert abs(ratio(rep_a) - ratio(rep_b)) < 1e-10


def test_pure_boost_time_ratio_closed_form():
    rep = REPS["bargmann3d"]
    va = np.array([0.4, -0.1, 0.3])
    vb = np.array([-0.2, 0.5, 0.1])
    state = random_state(np.random.default_rng(12), 3)
    t = 1.3
    w_t, w_0 = (extract_multiplier(rep, boost(3, va), boost(3, vb), ti,
                                   state).omega[0] for ti in (t, 0.0))
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
            res = _one_triple(rep, r, s, q, t, state)
            assert res < 1e-8


def _one_triple(rep, r, s, q, t, state):
    """The exponent-cocycle residual of the triple of elements (r, s, q)."""
    return float(exponent_cocycle_residual_batch(
        rep, r, s, q, t, state)[0, 0])


def _stacked_exponent_cocycle_residual(rep, r, s, q, t, state):
    """(residual, constancy spread, modulus error) of one triple, with its
    4-row batches stacked from 1-row batches: the largest spread and
    modulus error of the four extractions, and the residual from numpy's
    complex product on the one-element rows of its multipliers."""
    rs, sq = multiply(r, s), multiply(s, q)
    a = stack_batches([r, rs, s, r])
    b = stack_batches([s, q, q, sq])
    rows = extract_multiplier_batch(rep, a, b, t, state)
    w0, w1, w2, w3 = rows.omega[:, None]
    return (float(abs(np.angle(w0 * w1 * np.conj(w2 * w3)))[0]),
            float(np.max(rows.constancy_spread)),
            float(np.max(rows.modulus_error)))


def _triples(rep, n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    state = random_state(rng, rep.dim)
    b = random_element_batch(rng, 3 * n, rep.dim, scale)
    return state, [b[0::3], b[1::3], b[2::3]]


def test_exponent_cocycle_residual_is_the_stacked_one_bit_for_bit():
    n = 300
    for scale in (0.01, 1.0, 100.0):
        for rep in REPS.values():
            state, triples = _triples(rep, n, 17, scale)
            t = np.where(np.arange(n) % 3 == 0, 0.0,
                         np.random.default_rng(18).uniform(-1.0, 1.0, n))
            stacked = np.array([_stacked_exponent_cocycle_residual(
                rep, *(x.element(i) for x in triples), t[i], state)
                for i in range(n)]).T
            batch = exponent_cocycle_residual_batch(rep, *triples, t, state)
            assert batch.shape == (3, n)
            assert batch.tobytes() == np.ascontiguousarray(stacked).tobytes()
            # one t for the whole batch, as the suite passes it
            zero = t == 0.0
            batch = exponent_cocycle_residual_batch(rep, *triples, 0.0,
                                                    state)
            assert (batch[:, zero].tobytes()
                    == np.ascontiguousarray(stacked[:, zero]).tobytes())
            for i in range(3):
                assert (_one_triple(
                    rep, *(x.element(i) for x in triples), t[i], state)
                    == stacked[0, i])


# a NaN eta in s or q reaches term 0's alpha through the substitution of the
# operator applied after it, and so the residual; r's eta enters only the
# quadratic phase of the outermost operator, which leaves omega as it is in
# 2D, and reaches the triple through its constancy spread
@pytest.mark.parametrize("operand", ("r", "s", "q"))
@pytest.mark.parametrize("rep", REPS.values(), ids=REPS)
def test_a_nan_eta_gives_nan_in_its_own_triple_only(rep, operand,
                                                    monkeypatch):
    n, k = 5, 2
    state, triples = _triples(rep, n, 19)
    want = exponent_cocycle_residual_batch(rep, *triples, 0.0, state)
    j = "rsq".index(operand)
    poisoned = triples[j][:]
    poisoned.eta = poisoned.eta.copy()
    poisoned.eta[k] = math.nan
    triples[j] = poisoned
    # a validated element cannot hold a NaN: build the rows unvalidated, and
    # the products of multiply, which check that they are finite, too
    monkeypatch.setattr(GalileiElement, "__post_init__", lambda self: None)
    monkeypatch.setattr(group, "_trusted", lambda b: b.element(0))
    got = exponent_cocycle_residual_batch(rep, *triples, 0.0, state)
    assert np.isnan(got[1, k])
    if operand != "r" or rep.kind == "bargmann3d":
        assert np.isnan(got[0, k])
    else:
        assert np.isfinite(got[0, k])
    assert (np.delete(got, k, axis=1).tobytes()
            == np.delete(want, k, axis=1).tobytes())


def test_a_vanishing_state_still_gives_its_multiplier():
    # f vanishes on the axis p1 = 0, which a pointwise ratio has to skip
    state = PolyGaussianState.gaussian(2, poly={(1, 0): 1.0})
    rpt = extract_multiplier(REPS["schrodinger2d"], identity(2), identity(2),
                             0.0, state)
    assert rpt.omega[0] == 1.0
    assert rpt.constancy_spread[0] == 0.0 and rpt.modulus_error[0] == 0.0


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
    # H and N alone agree on K = i: H constrains nothing and N fits i; only
    # P, at -i, keeps the full fit from being uniform
    rep = RepDescriptor("position1d", m=1.0, hbar=1.0, force_f=0.5, V0=0.25)
    fit = heisenberg_fit(rep)
    assert not fit.uniform
    assert set(fit.per_generator) == {"H", "P", "N"}
    H, P, N = (fit.per_generator[name] for name in ("H", "P", "N"))
    assert not H["constrained"] and H["K"] is None
    assert N["constrained"] and abs(N["K"] - 1j) < 1e-12
    assert P["constrained"] and abs(P["K"] + 1j) < 1e-12
    assert max(H["residual"], N["residual"]) < 1e-12
    assert fit.time_independent == {"H": True, "P": False, "N": False}


def test_generators_at_time_zero_match_the_static_ones():
    reps = dict(REPS)
    reps["position1d"] = RepDescriptor("position1d", m=1.0, hbar=1.0,
                                       force_f=0.5, V0=0.25)
    for rep in reps.values():
        for name in generator_names(rep):
            assert check_initial_condition(rep, name) < 1e-12
