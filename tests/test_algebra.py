"""Lie algebra basis, brackets, Jacobi identity and the exponential map."""

import itertools

import numpy as np
import pytest

from galiray.algebra import (
    AlgebraElement,
    basis_element,
    basis_names,
    commutator,
    embed_algebra,
    embed_algebra_batch,
    exponential,
    exponential_batch,
    jacobi_residual,
    random_algebra_batch,
    random_algebra_element,
    zero,
)
from galiray.group import embed_matrix, embed_matrix_batch, identity, multiply


def mat_diff(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def test_basis_sizes_and_order():
    assert basis_names(1) == ["b1", "d1", "f"]
    assert basis_names(2) == ["a12", "b1", "b2", "d1", "d2", "f"]
    assert basis_names(3) == ["a12", "a13", "a23", "b1", "b2", "b3",
                              "d1", "d2", "d3", "f"]


def test_basis_element_rejects_malformed_names():
    for bad in ("a1", "b4", "q1", "a11", "ff", "d0", "b12"):
        with pytest.raises(ValueError):
            basis_element(bad, 3)
    with pytest.raises(ValueError):
        basis_element("a12", 1)
    with pytest.raises(ValueError):
        basis_element("b3", 2)
    with pytest.raises(ValueError):
        basis_element("a13", 2)


def test_named_brackets():
    # [d_i, f] = b_i: a boost flowed through time translates
    for dim in (1, 2, 3):
        for i in range(1, dim + 1):
            d = basis_element(f"d{i}", dim)
            f = basis_element("f", dim)
            b = basis_element(f"b{i}", dim)
            assert mat_diff(embed_algebra(commutator(d, f)),
                            embed_algebra(b)) == 0.0
            assert mat_diff(embed_algebra(commutator(f, d)),
                            embed_algebra(b.scale(-1.0))) == 0.0
    # translations and boosts commute at the group level; the central
    # charge pairing them appears only in the ray representations
    assert commutator(basis_element("b1", 3), basis_element("d1", 3)).max_abs() == 0.0
    # rotations rotate the vector labels
    a12 = basis_element("a12", 2)
    b1 = basis_element("b1", 2)
    b2 = basis_element("b2", 2)
    assert mat_diff(embed_algebra(commutator(a12, b1)),
                    embed_algebra(b2.scale(-1.0))) == 0.0


def test_bracket_matches_matrix_commutator():
    rng = np.random.default_rng(411)
    for _ in range(300):
        dim = int(rng.integers(1, 4))
        X = random_algebra_element(rng, dim)
        Y = random_algebra_element(rng, dim)
        lhs = embed_algebra(commutator(X, Y))
        MX, MY = embed_algebra(X), embed_algebra(Y)
        assert mat_diff(lhs, MX @ MY - MY @ MX) < 1e-12


def test_jacobi_identity():
    rng = np.random.default_rng(412)
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        X, Y, Z = (random_algebra_element(rng, dim) for _ in range(3))
        assert jacobi_residual(X, Y, Z) < 1e-12


def test_exponential_mixed_boost_time_flow():
    # exp(tau (d1 + f)) picks up the integrated translation tau^2/2 e1
    X = basis_element("d1", 3).add(basis_element("f", 3))
    tau = 0.7
    g = exponential(X.scale(tau))
    assert mat_diff(g.W, np.eye(3)) < 1e-14
    assert abs(g.eta - tau) < 1e-14
    assert mat_diff(g.v, [tau, 0.0, 0.0]) < 1e-14
    assert mat_diff(g.u, [tau * tau / 2.0, 0.0, 0.0]) < 1e-14


def test_exponential_of_zero_is_identity():
    for dim in (1, 2, 3):
        g = exponential(zero(dim))
        assert mat_diff(embed_matrix(g), embed_matrix(identity(dim))) == 0.0


def test_exponential_matches_scipy_expm():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(413)
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        X = random_algebra_element(rng, dim, scale=1.5)
        left = embed_matrix(exponential(X))
        right = scipy_linalg.expm(embed_algebra(X))
        assert mat_diff(left, right) < 1e-12
    # batches over the scales, relative to the largest entry of the result:
    # this sees a map that is the exact exponential of a wrong X, which the
    # homomorphism checks cannot.  scipy's own error reaches 7e-10 of that
    # entry at scale 1e3 (the long double oracle of test_batch.py is tighter)
    for dim, scale in itertools.product((1, 2, 3), (1e-3, 1.0, 1e3)):
        X = random_algebra_batch(rng, 40, dim, scale)
        left = embed_matrix_batch(exponential_batch(X))
        right = scipy_linalg.expm(embed_algebra_batch(X))
        size = np.max(np.abs(right), axis=(1, 2))
        assert np.all(np.max(np.abs(left - right), axis=(1, 2))
                      < 1e-8 * size), (dim, scale)


def test_one_parameter_flows_compose():
    rng = np.random.default_rng(414)
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        X = random_algebra_element(rng, dim)
        a, b = rng.uniform(-1.5, 1.5, size=2)
        lhs = embed_matrix(exponential(X.scale(a + b)))
        rhs = embed_matrix(multiply(exponential(X.scale(a)),
                                    exponential(X.scale(b))))
        assert mat_diff(lhs, rhs) < 1e-12
        round_trip = multiply(exponential(X), exponential(X.scale(-1.0)))
        assert mat_diff(embed_matrix(round_trip),
                        embed_matrix(identity(dim))) < 1e-13


def test_group_commutator_word_converges_to_bracket():
    # exp(tX) exp(tY) exp(-tX) exp(-tY) = exp(t^2 [X,Y] + O(t^3))
    X = basis_element("a12", 2)
    Y = basis_element("d1", 2)
    C = embed_algebra(commutator(X, Y))
    errs = []
    for tau in (0.1, 0.05, 0.025):
        word = multiply(
            multiply(exponential(X.scale(tau)), exponential(Y.scale(tau))),
            multiply(exponential(X.scale(-tau)), exponential(Y.scale(-tau))))
        approx = (embed_matrix(word) - np.eye(4)) / tau ** 2
        errs.append(mat_diff(approx, C))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.05


def test_random_algebra_element_determinism_and_shape():
    X = random_algebra_element(42, 3)
    Y = random_algebra_element(42, 3)
    assert mat_diff(embed_algebra(X), embed_algebra(Y)) == 0.0
    assert mat_diff(X.rot, -X.rot.T) == 0.0


def test_element_arithmetic_and_embedding_layout():
    X = basis_element("b1", 2)
    Y = basis_element("f", 2)
    Z = X.scale(2.0).add(Y.scale(-0.5))
    M = embed_algebra(Z)
    assert M[0, 3] == 2.0    # b1 lands in the translation column
    assert M[2, 3] == -0.5   # f lands in the time slot
    assert M[0, 2] == 0.0    # no boost part
    assert zero(2).max_abs() == 0.0
    assert Z.max_abs() == 2.0


NON_FINITE_ALGEBRA = {
    "nan_trans_inf_boost_nan_time": ([[0, 1], [-1, 0]], [np.nan, 0],
                                     [np.inf, 0], np.nan),
    "opposite_infinities_in_rot": ([[0, np.inf], [-np.inf, 0]], [0, 0],
                                   [0, 0], 0.0),
    "nan_rot": ([[0, np.nan], [np.nan, 0]], [0, 0], [0, 0], 0.0),
    "inf_trans": ([[0, 0], [0, 0]], [0, -np.inf], [0, 0], 0.0),
    "nan_boost": ([[0, 0], [0, 0]], [0, 0], [np.nan, 0], 0.0),
    "inf_time": ([[0, 0], [0, 0]], [0, 0], [0, 0], np.inf),
}


@pytest.mark.parametrize("parts", NON_FINITE_ALGEBRA.values(),
                         ids=NON_FINITE_ALGEBRA)
def test_non_finite_algebra_elements_are_rejected(parts):
    # no np.errstate: the check runs before the antisymmetry arithmetic,
    # where inf + (-inf) would warn
    rot, trans, boost, time = parts
    with pytest.raises(ValueError, match="must be finite"):
        AlgebraElement(2, rot, trans, boost, time)
