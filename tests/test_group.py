"""Group law, inverses, matrix embedding and element serialization."""

import json
import math

import numpy as np
import pytest

from galiray.group import (
    _ORTHO_TOL,
    GalileiBatch,
    GalileiElement,
    _rotation_angles,
    element_from_dict,
    element_to_dict,
    embed_matrix,
    embed_matrix_batch,
    identity_batch,
    inverse,
    inverse_batch,
    multiply,
    multiply_batch,
    random_element,
    random_element_batch,
)
from galiray.representations import RepDescriptor, apply_batch
from galiray.states import PolyGaussianState


def mat_diff(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def rotation_2d(theta):
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


def identity(dim):
    return identity_batch(dim, 1).element(0)


def components(r):
    """W, eta, v and u of the one row of an element."""
    return r.W[0], r.eta[0], r.v[0], r.u[0]


def test_composition_components_match_the_closed_form():
    rng = np.random.default_rng(401)
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        r = random_element(rng, dim)
        s = random_element(rng, dim)
        (Wr, er, vr, ur), (Ws, es, vs, us) = components(r), components(s)
        Wrs, ers, vrs, urs = components(multiply(r, s))
        assert mat_diff(Wrs, Wr @ Ws) < 1e-15
        assert abs(ers - (er + es)) < 1e-15
        assert mat_diff(vrs, Wr @ vs + vr) < 1e-15
        # the time shift of s feeds the boost of r into the translation
        assert mat_diff(urs, Wr @ us + ur + es * vr) < 1e-15


def test_embedding_is_a_homomorphism():
    rng = np.random.default_rng(402)
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        r = random_element(rng, dim)
        s = random_element(rng, dim)
        lhs = embed_matrix(multiply(r, s))
        rhs = embed_matrix(r) @ embed_matrix(s)
        assert mat_diff(lhs, rhs) < 1e-12


def test_embedding_block_structure():
    r = GalileiElement(2, rotation_2d(0.3), 1.5, [0.2, -0.4], [1.0, 0.7])
    E = embed_matrix(r)
    assert E.shape == (4, 4)
    assert mat_diff(E[:2, :2], r.W) == 0.0
    assert mat_diff(E[:2, 2], r.v) == 0.0
    assert mat_diff(E[:2, 3], r.u) == 0.0
    assert E[2, 2] == 1.0 and E[3, 3] == 1.0
    assert E[2, 3] == r.eta
    assert mat_diff(E[2:, :2], np.zeros((2, 2))) == 0.0
    assert E[3, 2] == 0.0


def test_inverse_closed_form_and_two_sided():
    rng = np.random.default_rng(403)
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        r = random_element(rng, dim)
        rinv = inverse(r)
        W, eta, v, u = components(r)
        Winv = W.T
        assert mat_diff(rinv.W[0], Winv) < 1e-15
        assert abs(rinv.eta[0] + eta) < 1e-15
        assert mat_diff(rinv.v[0], -Winv @ v) < 1e-14
        assert mat_diff(rinv.u[0], -Winv @ (u - eta * v)) < 1e-14
        e = identity(dim)
        for prod in (multiply(r, rinv), multiply(rinv, r)):
            assert mat_diff(embed_matrix(prod), embed_matrix(e)) < 1e-13


def test_identity_is_neutral():
    for dim in (1, 2, 3):
        e = identity(dim)
        r = random_element(dim + 10, dim)
        assert mat_diff(embed_matrix(multiply(e, r)), embed_matrix(r)) == 0.0
        assert mat_diff(embed_matrix(multiply(r, e)), embed_matrix(r)) < 1e-15


def test_time_shift_feeds_boost_into_translation():
    # pure boost then pure time shift does not commute: the composite
    # in one order carries u = eta_s * v_r, in the other u = 0
    r = GalileiElement(2, np.eye(2), 0.0, [0.3, -0.2], [0.0, 0.0])
    s = GalileiElement(2, np.eye(2), 1.7, [0.0, 0.0], [0.0, 0.0])
    rs = multiply(r, s)
    assert mat_diff(rs.u, [1.7 * 0.3, 1.7 * -0.2]) < 1e-15
    sr = multiply(s, r)
    assert mat_diff(sr.u, [0.0, 0.0]) == 0.0


def _pulled_back_center(r, p0, gamma):
    """The center of a Gaussian centered at p0 after the momentum
    substitution p -> W^{-1}(p + gamma v) of r, which the momentum reps'
    action apply_batch makes: the p with W^{-1}(p + gamma v) = p0."""
    rep = RepDescriptor("bargmann3d" if r.dim == 3 else "schrodinger2d",
                        gamma=gamma)
    f = PolyGaussianState.gaussian(r.dim, beta=p0, Gamma=-0.5 * np.eye(r.dim))
    return apply_batch(rep, r, 0.0, f).center()


def test_momentum_action_composes_contravariantly():
    # U(r) U(s) pulls a center back by s, then by r: the center of rs
    rng = np.random.default_rng(404)
    for _ in range(50):
        dim = int(rng.integers(2, 4))
        r = random_element(rng, dim)
        s = random_element(rng, dim)
        p0 = rng.normal(size=dim)
        gamma = float(rng.uniform(0.5, 2.0))
        direct = _pulled_back_center(multiply(r, s), p0, gamma)
        stepped = _pulled_back_center(r, _pulled_back_center(s, p0, gamma),
                                      gamma)
        assert mat_diff(direct, stepped) < 1e-12


def test_momentum_action_formula():
    r = GalileiElement(2, rotation_2d(-0.7), 0.3, [1.2, -0.5], [0.1, 0.9])
    p0 = np.array([0.4, -1.1])
    gamma = 1.3
    expected = r.W @ p0 - gamma * np.asarray(r.v)
    assert mat_diff(_pulled_back_center(r, p0, gamma), expected) < 1e-15


def test_rotation_angle_recovers_theta():
    thetas = (-3.0, -0.5, 0.0, 0.2, 1.9, 3.1)
    angles = _rotation_angles(np.array([rotation_2d(t) for t in thetas]))
    assert mat_diff(angles, thetas) < 1e-12


def test_rotation_angles_are_the_one_row_arctan2():
    """np.arctan2 gives each row the angle of its one-row call, whatever
    its position or the batch's stride, and stays within an ulp of libm's
    atan2, which it need not equal."""
    # the ends of the branch: a sine of +-0 at cosine 1 and -1 gives +-0
    # and +-pi, which only the sign of the zero tells apart
    cos = [1.0, 1.0, -1.0, -1.0, 0.0, -0.0, 0.6]
    sin = [0.0, -0.0, 0.0, -0.0, 1.0, -1.0, -0.8]
    W = np.array([[[c, -s], [s, c]] for c, s in zip(cos, sin)])
    W = np.concatenate([W, random_element_batch(71, 300, 2).W])
    ones = np.array([_rotation_angles(W[i:i + 1])[0] for i in range(len(W))])
    # contiguous, strided as a sweep's rows, and a short tail
    for rows in (slice(None), slice(1, None, 3), slice(300, None)):
        assert _rotation_angles(W[rows]).tobytes() == ones[rows].tobytes()
    libm = np.array([math.atan2(w[1, 0], w[0, 0]) for w in W])
    assert np.abs(ones - libm).max() <= 4.5e-16
    assert _rotation_angles(W[:4]).tolist() == [0.0, -0.0, math.pi, -math.pi]
    assert math.copysign(1.0, _rotation_angles(W[1:2])[0]) == -1.0


def test_random_element_determinism_and_angle_cap():
    a = random_element(7, 2)
    b = random_element(7, 2)
    assert mat_diff(embed_matrix(a), embed_matrix(b)) == 0.0
    for seed in range(40):
        r = random_element(seed, 2, max_angle=0.4)
        assert abs(_rotation_angles(r.W)[0]) <= 0.4 + 1e-12
    for seed in range(40):
        W = random_element(seed, 3).W[0]
        assert mat_diff(W.T @ W, np.eye(3)) < 1e-12
        assert np.linalg.det(W) > 0.0


def test_element_validation():
    with pytest.raises(ValueError):
        GalileiElement(2, 2.0 * np.eye(2), 0.0, [0, 0], [0, 0])
    refl = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(ValueError):
        GalileiElement(2, refl, 0.0, [0, 0], [0, 0])
    with pytest.raises(ValueError):
        GalileiElement(4, np.eye(4), 0.0, np.zeros(4), np.zeros(4))
    with pytest.raises(ValueError):
        multiply(random_element(1, 1), random_element(2, 2))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_element_rejects_a_reflection(dim):
    # R with its first row, or its first column, negated: det -1 with every
    # entry of the closed-form determinant in play
    R = random_element(40 + dim, dim).W
    flip = np.diag([-1.0] + [1.0] * (dim - 1))
    for W in (flip @ R, R @ flip):
        with pytest.raises(ValueError, match="proper rotation"):
            GalileiElement(dim, W, 0.0, np.zeros(dim), np.zeros(dim))
    GalileiElement(dim, R, 0.0, np.zeros(dim), np.zeros(dim))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_orthogonality_is_tested_at_the_tolerance(dim):
    # (1 + e) R deviates from orthogonal by (1 + e)^2 - 1, about 2e
    R = random_element(50 + dim, dim).W
    z = np.zeros(dim)
    GalileiElement(dim, (1.0 + 0.4 * _ORTHO_TOL) * R, 0.0, z, z)
    with pytest.raises(ValueError, match="not orthogonal"):
        GalileiElement(dim, (1.0 + 0.6 * _ORTHO_TOL) * R, 0.0, z, z)


def test_element_arrays_are_frozen():
    r = random_element(3, 2)
    with pytest.raises(ValueError):
        r.W[0, 0] = 5.0
    with pytest.raises(ValueError):
        r.v[0] = 5.0
    with pytest.raises(ValueError):
        r.u[1] = 5.0


def test_element_keeps_its_own_copy_of_the_inputs():
    W, v, u = rotation_2d(0.3), np.array([0.1, 0.2]), np.array([0.3, 0.4])
    r = GalileiElement(2, W, 0.5, v, u)
    want = element_to_dict(r)
    W[0, 0], v[0], u[1] = 9.0, 9.0, 9.0
    assert element_to_dict(r) == want


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_an_identity_batch_row_is_an_element(dim):
    # the batch's W rows are read-only broadcast views of one identity
    e = identity_batch(dim, 2).element(0)
    assert element_to_dict(e) == element_to_dict(GalileiElement(
        dim, np.eye(dim), 0.0, np.zeros(dim), np.zeros(dim)))
    assert not e.W.flags.writeable


def test_dict_round_trip_is_exact():
    for seed in range(9):
        dim = seed % 3 + 1
        r = random_element(seed, dim)
        d = element_to_dict(r)
        json.dumps(d)  # JSON-ready as is
        back = element_from_dict(d)
        assert mat_diff(back.W, r.W) == 0.0
        assert back.eta == r.eta
        assert mat_diff(back.v, r.v) == 0.0
        assert mat_diff(back.u, r.u) == 0.0


NON_FINITE_ELEMENTS = {
    "nan_W_inf_eta": ([[np.nan, 0.0], [0.0, 1.0]], np.inf, [0, 0], [0, 0]),
    "inf_W": ([[np.inf, 0.0], [0.0, 1.0]], 0.0, [0, 0], [0, 0]),
    "nan_eta": (np.eye(2), np.nan, [0, 0], [0, 0]),
    "inf_v": (np.eye(2), 0.0, [0.0, -np.inf], [0, 0]),
    "nan_u": (np.eye(2), 0.0, [0, 0], [np.nan, 0.0]),
}


@pytest.mark.parametrize("parts", NON_FINITE_ELEMENTS.values(),
                         ids=NON_FINITE_ELEMENTS)
def test_non_finite_elements_are_rejected(parts):
    W, eta, v, u = parts
    with pytest.raises(ValueError), np.errstate(invalid="ignore"):
        GalileiElement(2, W, eta, v, u)
    # json writes NaN and Infinity literals, which json.loads accepts
    d = json.loads(json.dumps({"dim": 2, "W": np.ravel(W).tolist(),
                               "eta": eta, "v": list(v), "u": list(u)}))
    with pytest.raises(ValueError), np.errstate(invalid="ignore"):
        element_from_dict(d)


def is_row_0(got, batch) -> bool:
    """got is a one-row batch of batch's class with read-only arrays, and
    row 0 of batch bit for bit."""
    cls = type(batch)
    return isinstance(got, cls) and len(got) == 1 and all(
        not getattr(got, f).flags.writeable
        and getattr(got, f).shape == getattr(batch, f)[:1].shape
        and getattr(got, f).tobytes() == getattr(batch, f)[:1].tobytes()
        for f in cls.__slots__)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_the_group_twins_are_row_0_of_the_batch_operations(dim):
    # an element is a one-row batch, so each twin is its batch operation
    for seed in range(70 * dim, 70 * dim + 20):
        r = random_element(seed, dim, 5.0)
        assert is_row_0(r, random_element_batch(seed, 1, dim, 5.0))
        s = random_element(seed + 1000, dim, 5.0)
        assert is_row_0(multiply(r, s), multiply_batch(r, s))
        assert is_row_0(inverse(r), inverse_batch(r))
        assert embed_matrix(r).tobytes() == embed_matrix_batch(r)[0].tobytes()


@pytest.mark.parametrize("field", ["eta", "v", "u"])
def test_a_product_that_overflows_still_raises(field):
    big = GalileiElement(2, np.eye(2), 1e308 * (field == "eta"),
                         [1e308 * (field == "v"), 0.0],
                         [1e308 * (field == "u"), 0.0])
    with pytest.raises(ValueError, match="finite"), \
            np.errstate(over="ignore"):
        multiply(big, big)


def test_a_batch_row_is_still_validated():
    z = np.zeros((1, 2))
    refl = np.array([[[1.0, 0.0], [0.0, -1.0]]])
    for W, eta, match in ((2.0 * np.eye(2)[None], 0.0, "not orthogonal"),
                          (refl, 0.0, "proper rotation"),
                          (np.eye(2)[None], math.nan, "finite")):
        with pytest.raises(ValueError, match=match):
            GalileiBatch(W, np.array([eta]), z, z).element(0)
    nan_W = np.full((1, 2, 2), math.nan)
    with pytest.raises(ValueError, match="not orthogonal"):
        GalileiBatch(nan_W, np.zeros(1), z, z).element(0)
