"""Batched group, algebra and exponent operations, row by row.

Each operation is written once, over batch rows, and the scalar operation is
its 1-row view.  So row i of an N-row batch must equal, exactly, the 1-row
call on row i: a row's result must not depend on the other rows (on which
side of the exponential's series switch they fall, say).  The reference draws
and sweeps are case-by-case loops.
"""

import itertools
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from galiray import algebra, group, harness
from galiray.algebra import (_SERIES, AlgebraBatch, AlgebraElement,
                             _angle_functions, commutator, commutator_batch,
                             embed_algebra, embed_algebra_batch, exponential,
                             exponential_batch, jacobi_residual,
                             jacobi_residual_batch, random_algebra_batch)
from galiray.cli import main
from galiray.cocycles import (PhaseExponent, _richardson, cocycle_residual,
                              cocycle_residual_batch, evaluate,
                              evaluate_batch, infinitesimal_exponent)
from galiray.group import (GalileiBatch, _rodrigues, _rotations_2d,
                          _sphere_points, embed_matrix,
                          embed_matrix_batch, identity_batch, inverse,
                          inverse_batch, multiply, multiply_batch,
                          random_element, random_element_batch)

CAP = math.pi / 3.5


def _scaled(X, c):
    """The algebra element X times c, through the batch core."""
    return algebra._row(X).scale(c).element(0)


def _reference_element(rng, dim, scale=1.0, max_angle=math.pi):
    """The case-by-case draw: rotation, then eta, v, u."""
    if dim == 1:
        W = np.eye(1)
    else:
        angle = rng.uniform(-max_angle, max_angle)
        if dim == 2:
            c, s = math.cos(angle), math.sin(angle)
            W = np.array([[c, -s], [s, c]])
        else:
            # the axis: its height z, then its azimuth, both uniform
            z = rng.uniform(-1.0, 1.0)
            phi = rng.uniform(-math.pi, math.pi)
            rho = math.sqrt(1.0 - z * z)
            axis = np.array([rho * math.cos(phi), rho * math.sin(phi), z])
            axis /= np.linalg.norm(axis)
            K = np.array([[0.0, -axis[2], axis[1]],
                          [axis[2], 0.0, -axis[0]],
                          [-axis[1], axis[0], 0.0]])
            W = (np.eye(3) + math.sin(angle) * K
                 + (1.0 - math.cos(angle)) * (K @ K))
    eta = float(rng.uniform(-scale, scale))
    v = rng.uniform(-scale, scale, size=dim)
    u = rng.uniform(-scale, scale, size=dim)
    return W, eta, v, u


def _reference_algebra(rng, dim, scale=1.0):
    A = rng.uniform(-scale, scale, size=(dim, dim))
    return (A - A.T, rng.uniform(-scale, scale, size=dim),
            rng.uniform(-scale, scale, size=dim), rng.uniform(-scale, scale))


def assert_same_element(a, b):
    assert a.dim == b.dim
    assert np.array_equal(a.W, b.W) and a.eta == b.eta
    assert np.array_equal(a.v, b.v) and np.array_equal(a.u, b.u)


def assert_same_algebra(a, b):
    assert np.array_equal(a.rot, b.rot) and a.time == b.time
    assert np.array_equal(a.trans, b.trans)
    assert np.array_equal(a.boost, b.boost)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("max_angle", [math.pi, CAP])
@pytest.mark.parametrize("n", [1, 40])
def test_batch_draw_equals_scalar_draws(dim, max_angle, n):
    ref_rng = np.random.default_rng(500 + dim)
    rng = np.random.default_rng(500 + dim)
    scalar_rng = np.random.default_rng(500 + dim)
    batch = random_element_batch(rng, n, dim, 0.7, max_angle)
    assert len(batch) == n and batch.dim == dim
    for i in range(n):
        W, eta, v, u = _reference_element(ref_rng, dim, 0.7, max_angle)
        row = batch.element(i)
        assert np.array_equal(row.W, W) and row.eta == eta
        assert np.array_equal(row.v, v) and np.array_equal(row.u, u)
        assert_same_element(row, random_element(scalar_rng, dim, 0.7,
                                                max_angle))
    # all three leave the stream at the same place
    assert rng.random() == ref_rng.random() == scalar_rng.random()


def test_dim3_axes_are_uniform_unit_vectors():
    axes = _sphere_points(np.random.default_rng(530).random((20000, 2)))
    assert (np.max(np.abs(np.linalg.norm(axes, axis=1) - 1.0))
            <= 4 * np.finfo(float).eps)
    assert np.max(np.abs(axes.mean(axis=0))) < 0.02
    assert abs(np.mean(axes[:, 2] ** 2) - 1.0 / 3.0) < 0.01


@pytest.mark.parametrize("n", [1, 7, 600])
def test_a_dim3_element_takes_ten_uniforms_from_the_stream(n):
    rng, rng2 = np.random.default_rng(540), np.random.default_rng(540)
    random_element_batch(rng, n, 3)
    assert rng.random() == rng2.random(10 * n + 1)[-1]


class _LibmTrig:
    """numpy, except that cos and sin come from math, one entry at a time."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def cos(x):
        x = np.asarray(x, dtype=float)
        return np.array([math.cos(t) for t in x.ravel()]).reshape(x.shape)

    @staticmethod
    def sin(x):
        x = np.asarray(x, dtype=float)
        return np.array([math.sin(t) for t in x.ravel()]).reshape(x.shape)


# 0, round-off-small angles, +-pi and the largest angles a scale-1000 sweep
# reaches (about 1.7e3)
_TRIG_EDGES = (0.0, 1e-8, -1e-8, math.pi, -math.pi, 2e3, -2e3)


def _trig_angles(n):
    """The edge angles, then magnitudes log-uniform in [1e-3, 2e3] with
    random signs, n in all."""
    rng = np.random.default_rng(580 + n)
    angles = rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(
        -3.0, math.log10(2e3), n)
    k = min(n, len(_TRIG_EDGES))
    angles[:k] = _TRIG_EDGES[:k]
    return angles


def _trig_kernels(n):
    """(name, kernel) for every kernel that takes np.cos/np.sin of a whole
    batch; kernel(rows) runs it on those rows of its n-row input."""
    angles = _trig_angles(n)
    rng = np.random.default_rng(590 + n)
    U = rng.random((n, 2))
    U[:3, 1] = (0.5, 0.0, 1.0)[:n]       # azimuth 0, -pi and pi
    axes = rng.normal(size=(n, 3))
    X2 = random_algebra_batch(rng, n, 2)
    X2.rot[:, 1, 0], X2.rot[:, 0, 1] = angles, -angles
    X3 = random_algebra_batch(rng, n, 3)
    w = angles[:, None] * axes / np.linalg.norm(axes, axis=1)[:, None]
    K = np.zeros((n, 3, 3))
    K[:, 2, 1], K[:, 0, 2], K[:, 1, 0] = w.T
    X3.rot[:] = K - K.transpose(0, 2, 1)

    def exp(X):
        return lambda rows: embed_matrix_batch(exponential_batch(
            AlgebraBatch(*(getattr(X, f)[rows]
                           for f in AlgebraBatch.__slots__))))
    return [("rotations_2d", lambda rows: _rotations_2d(angles[rows])),
            ("sphere_points", lambda rows: _sphere_points(U[rows])),
            ("rodrigues", lambda rows: _rodrigues(angles[rows], axes[rows])),
            ("exponential_dim2", exp(X2)), ("exponential_dim3", exp(X3))]


@pytest.mark.parametrize("n", [1, 7, 513, 1031])
def test_batch_trig_rows_equal_one_row_calls_and_libm(n, monkeypatch):
    """One np.cos/np.sin call per batch gives, on every row, what math.cos
    and math.sin give one row at a time, bit for bit."""
    batch = {name: kernel(slice(None)) for name, kernel in _trig_kernels(n)}
    monkeypatch.setattr(group, "np", _LibmTrig())
    monkeypatch.setattr(algebra, "np", _LibmTrig())
    libm = {name: kernel(slice(None)) for name, kernel in _trig_kernels(n)}
    monkeypatch.undo()
    for name, kernel in _trig_kernels(n):
        assert np.array_equal(batch[name], libm[name]), name
        for i in range(n):
            assert np.array_equal(batch[name][i], kernel(slice(i, i + 1))[0]), (
                name, i)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_algebra_batch_draw_equals_scalar_draws(dim):
    ref_rng = np.random.default_rng(510 + dim)
    rng = np.random.default_rng(510 + dim)
    batch = random_algebra_batch(rng, 30, dim, 1.3)
    for i in range(30):
        rot, trans, boost, time = _reference_algebra(ref_rng, dim, 1.3)
        row = batch.element(i)
        assert np.array_equal(row.rot, rot) and row.time == time
        assert np.array_equal(row.trans, trans)
        assert np.array_equal(row.boost, boost)
    assert rng.random() == ref_rng.random()


def test_batch_draw_rejects_a_bad_dimension():
    with pytest.raises(ValueError):
        random_element_batch(1, 3, 4)
    with pytest.raises(ValueError):
        random_algebra_batch(1, 3, 0)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n,scale", [(1, 1.0), (25, 1.0), (25, 40.0)])
def test_group_operations_match_the_scalar_ones_row_by_row(dim, n, scale):
    """Row i of an N-row batch equals the scalar (1-row) call on row i."""
    rng = np.random.default_rng(520 + dim)
    r = random_element_batch(rng, n, dim, scale)
    s = random_element_batch(rng, n, dim, scale)
    rs, rinv = multiply_batch(r, s), inverse_batch(r)
    E = embed_matrix_batch(r)
    for i in range(n):
        assert_same_element(rs.element(i),
                            multiply(r.element(i), s.element(i)))
        assert_same_element(rinv.element(i), inverse(r.element(i)))
        assert np.array_equal(E[i], embed_matrix(r.element(i)))


def test_group_batches_reject_mixed_dimensions():
    with pytest.raises(ValueError):
        multiply_batch(random_element_batch(1, 2, 2),
                       random_element_batch(1, 2, 3))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n,scale", [(1, 1.0), (25, 1.0), (25, 6.0)])
def test_algebra_operations_match_the_scalar_ones_row_by_row(dim, n, scale):
    """Row i of an N-row batch equals the scalar (1-row) call on row i."""
    rng = np.random.default_rng(530 + dim)
    X = random_algebra_batch(rng, n, dim, scale)
    Y = random_algebra_batch(rng, n, dim, scale)
    Z = random_algebra_batch(rng, n, dim, scale)
    XY, jac = commutator_batch(X, Y), jacobi_residual_batch(X, Y, Z)
    M, expX = embed_algebra_batch(X), exponential_batch(X)
    for i in range(n):
        x, y, z = X.element(i), Y.element(i), Z.element(i)
        assert_same_algebra(XY.element(i), commutator(x, y))
        assert jac[i] == jacobi_residual(x, y, z)
        assert np.array_equal(M[i], embed_algebra(x))
        assert_same_element(expX.element(i), exponential(x))


# rotation angles of every regime of the closed-form exponential: zero, far
# below the series switch, either side of it, and near pi and 2 pi
_ANGLES = (0.0, 1e-8, _SERIES[0] * (1.0 - 1e-12), _SERIES[0] * (1.0 + 1e-12),
           math.pi - 1e-7, math.pi, 2.0 * math.pi - 1e-7, 2.0 * math.pi)
_SCALES = (1e-3, 1e-2, 1.0, 1e2, 1e3)


def _regime_rows(dim):
    """One row per angle of _ANGLES (in dim 3 about a random axis), then 20
    random rows at each scale of _SCALES, as one batch."""
    n = len(_ANGLES)
    rng = np.random.default_rng(570 + dim)
    X = random_algebra_batch(rng, n, dim)
    if dim > 1:
        axes = rng.normal(size=(n, 3)) if dim == 3 else np.eye(3)[[2] * n]
        w = np.array(_ANGLES)[:, None] * axes / np.linalg.norm(
            axes, axis=1)[:, None]
        K = np.zeros((n, 3, 3))
        K[:, 2, 1], K[:, 0, 2], K[:, 1, 0] = w.T
        X.rot[:] = (K - K.transpose(0, 2, 1))[:, :dim, :dim]
    parts = [X] + [random_algebra_batch(rng, 20, dim, s) for s in _SCALES]
    return AlgebraBatch(*(np.concatenate([getattr(p, f) for p in parts])
                          for f in AlgebraBatch.__slots__))


def _longdouble_expm(M):
    """exp of one matrix in long double: scaled to norm 1/4, 30 Taylor
    terms, squared back."""
    A = M.astype(np.longdouble)
    norm = float(np.max(np.sum(np.abs(A), axis=1)))
    squarings = math.ceil(math.log2(norm / 0.25)) if norm > 0.25 else 0
    A = A / np.longdouble(2.0) ** squarings
    result = term = np.eye(len(M), dtype=np.longdouble)
    for k in range(1, 31):
        term = term @ A / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


@pytest.mark.parametrize("dim,bound", [(1, 1.0), (2, 2.0), (3, 2.0)])
def test_exponential_matches_a_longdouble_oracle(dim, bound):
    """Within bound units of 2**-53 of max(1, |X|**2) on every regime row;
    the u block sums products such as tau * d, hence the square.  Each bound
    is below what the scaled-and-squared Taylor series of the embedding
    reaches on these rows: 1.42, 3.72 and 122 units in dims 1, 2, 3."""
    X = _regime_rows(dim)
    M = embed_algebra_batch(X)
    E = embed_matrix_batch(exponential_batch(X))
    size = np.maximum(1.0, np.max(np.abs(M), axis=(1, 2)) ** 2)
    worst = max(float(np.max(np.abs(E[i] - _longdouble_expm(M[i])))) / size[i]
                for i in range(len(M)))
    assert worst <= bound * 2.0 ** -53


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_exponential_rows_are_independent_across_angle_regimes(dim):
    X = _regime_rows(dim)
    batch = exponential_batch(X)
    for i in range(len(X)):
        assert_same_element(batch.element(i), exponential(X.element(i)))


def _exact_f(m, theta, terms=40):
    """f_m(theta) = sum_j (-theta**2)**j / (2j + m)! in exact rationals."""
    x = Fraction(theta) ** 2
    return sum((-x) ** j / math.factorial(2 * j + m) for j in range(terms))


def test_series_switch_and_length_follow_from_the_unit_roundoff():
    switch, terms = _SERIES
    u = Fraction(2) ** -53

    def truncation(k, m):  # first omitted term over f_m, at the switch
        return (Fraction(switch) ** (2 * k) / math.factorial(2 * k + m)
                / _exact_f(m, switch))
    # the fewest terms exact to round-off at the switch, for f_3 and f_4
    assert all(truncation(terms, m) < u for m in (3, 4))
    assert any(truncation(terms - 1, m) >= u for m in (3, 4))
    # above the switch the closed forms cost the output at most 2**-53:
    # f_1 .. f_3 meet it through R (norm theta), f_4 through R**2
    theta = np.array([switch * (1.0 + 1e-12), 1.3, 2.0, math.pi, 7.0, 40.0])
    f = _angle_functions(theta, np.array([math.cos(t) for t in theta]),
                         np.array([math.sin(t) for t in theta]))
    for m, power in ((1, 1), (2, 1), (3, 1), (4, 2)):
        for t, value in zip(theta, f[m - 1]):
            err = abs(Fraction(float(value)) - _exact_f(m, t, 80))
            assert err * Fraction(t) ** power <= u
    # and a switch four times lower would cost f_4 more than that
    t = switch / 4.0
    closed = (0.5 * t * t + (math.cos(t) - 1.0)) / (t * t) ** 2
    assert abs(Fraction(closed) - _exact_f(4, t)) * Fraction(t) ** 2 > u


def test_a_nan_row_stays_in_its_row_of_the_exponential():
    """A NaN or an infinity in any block of row 2 makes that row of the
    exponential non-finite and leaves the other rows as they were."""
    for dim, field, bad in itertools.product(
            (1, 2, 3), AlgebraBatch.__slots__, (math.nan, math.inf, -math.inf)):
        X = random_algebra_batch(542, 5, dim, 4.0)
        clean = embed_matrix_batch(exponential_batch(X))
        getattr(X, field)[2] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            E = embed_matrix_batch(exponential_batch(X))
        assert not np.isfinite(E[2]).all(), (dim, field, bad)
        assert np.array_equal(np.delete(E, 2, axis=0),
                              np.delete(clean, 2, axis=0))


@pytest.mark.parametrize("bad", [math.inf, -math.inf])
def test_an_infinite_dim2_angle_gives_a_nan_row_without_a_warning(bad):
    # np.cos and np.sin warn on an infinity, so the exponential makes the
    # angle NaN first; no other step of the dim-2 branch warns
    X = random_algebra_batch(543, 3, 2)
    X.rot[1] = [[0.0, -bad], [bad, 0.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        E = embed_matrix_batch(exponential_batch(X))
    assert np.isnan(E[1]).any()
    assert np.isfinite(np.delete(E, 1, axis=0)).all()


@pytest.mark.parametrize("dim", (2, 3))
def test_a_non_finite_row_gives_a_nan_row_without_a_warning(dim):
    # the products of the dim-2 and dim-3 branches would warn on inf * 0, so
    # a row with a non-finite entry becomes NaN before them
    for field, bad in itertools.product(AlgebraBatch.__slots__,
                                        (math.nan, math.inf, -math.inf)):
        X = random_algebra_batch(542, 5, dim, 4.0)
        getattr(X, field)[2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            E = exponential_batch(X)
        for part in (E.W, E.eta, E.v, E.u):
            assert np.isnan(part[2]).all(), (field, bad)
        for i in (0, 1, 3, 4):
            one = exponential(X.element(i))
            for got, want in zip((E.W, E.eta, E.v, E.u),
                                 (one.W, one.eta, one.v, one.u)):
                assert np.asarray(got[i]).tobytes() \
                    == np.asarray(want).tobytes()


def test_algebra_batch_scale_add_and_max_abs():
    X = random_algebra_batch(541, 4, 2)
    Y = X.scale(np.array([1.0, -2.0, 0.5, 0.0])).add(X)
    for i, c in enumerate((1.0, -2.0, 0.5, 0.0)):
        x = X.element(i)
        assert_same_algebra(Y.element(i), AlgebraElement(
            2, c * x.rot + x.rot, c * x.trans + x.trans,
            c * x.boost + x.boost, c * x.time + x.time))
        assert Y.max_abs()[i] == np.max(np.abs(embed_algebra(Y.element(i))))


EXPONENTS = [
    PhaseExponent("xi0", 1, gamma=1.7),
    PhaseExponent("xi0", 3, gamma=1.3),
    PhaseExponent("xi1", 2, lam=0.8),
    PhaseExponent("xi2", 2, S=0.6),
    PhaseExponent("xi_eta", 1, a1=0.9, a2=0.7),
    PhaseExponent("xi_t", 2, gamma=1.1, t=0.5),
    PhaseExponent("xi_t", 3, gamma=1.1, t=1.7),
]


@pytest.mark.parametrize("xi", EXPONENTS, ids=lambda xi: f"{xi.name}-{xi.dim}")
@pytest.mark.parametrize("n,scale", [(1, 1.0), (30, 1.0), (30, 20.0)])
def test_exponents_match_the_scalar_ones_row_by_row(xi, n, scale):
    """Row i of an N-row batch equals the scalar (1-row) call on row i."""
    rng = np.random.default_rng(550 + xi.dim)
    r, s, q = (random_element_batch(rng, n, xi.dim, scale, CAP)
               for _ in range(3))
    values = evaluate_batch(xi, r, s)
    residuals = cocycle_residual_batch(xi, r, s, q)
    for i in range(n):
        assert values[i] == evaluate(xi, r.element(i), s.element(i))
        assert residuals[i] == cocycle_residual(
            xi, r.element(i), s.element(i), q.element(i))
    with pytest.raises(ValueError):
        evaluate_batch(xi, random_element_batch(1, 2, xi.dim % 3 + 1),
                       random_element_batch(2, 2, xi.dim % 3 + 1))


def test_infinitesimal_exponent_batches_its_taus_exactly():
    """One batch over the taus gives what a tau-by-tau loop of exponentials
    gives; a random X and Y mix squaring counts across the taus."""
    xi = PhaseExponent("xi0", 3, gamma=1.3)
    X, Y = (random_algebra_batch(560 + i, 1, 3, 4.0).element(0)
            for i in range(2))
    taus = (0.4, 0.2, 0.1, 0.05)
    samples = []
    for tau in taus:
        g, h = exponential(_scaled(X, tau)), exponential(_scaled(Y, tau))
        gi, hi = inverse(g), inverse(h)
        samples.append((evaluate(xi, multiply(g, h), multiply(gi, hi))
                        + evaluate(xi, g, h) + evaluate(xi, gi, hi))
                       / tau ** 2)
    assert infinitesimal_exponent(xi, X, Y, taus).value == \
        _richardson(taus, np.array([samples]))[0][0]


# -- the harness sweeps against case-by-case loops ---------------------------

def _mat_diff(A, B):
    return float(np.max(np.abs(A - B)))


def _reference_group_worst(seed, n, dim, scale):
    rng = np.random.default_rng(seed)
    e, worst = identity_batch(dim, 1).element(0), 0.0
    for _ in range(n):
        r, s, q = (random_element(rng, dim, scale) for _ in range(3))
        worst = max(worst,
                    _mat_diff(embed_matrix(multiply(multiply(r, s), q)),
                              embed_matrix(multiply(r, multiply(s, q)))),
                    _mat_diff(embed_matrix(multiply(r, inverse(r))),
                              embed_matrix(e)),
                    _mat_diff(embed_matrix(multiply(inverse(r), r)),
                              embed_matrix(e)),
                    _mat_diff(embed_matrix(multiply(r, s)),
                              embed_matrix(r) @ embed_matrix(s)),
                    _mat_diff(embed_matrix(multiply(e, r)), embed_matrix(r)))
    return worst


def _reference_algebra_worst(seed, n, dim, scale):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        X, Y, Z = (random_algebra_batch(rng, 1, dim, scale).element(0)
                   for _ in range(3))
        MX, MY = embed_algebra(X), embed_algebra(Y)
        a, b = rng.uniform(-1, 1, size=2)
        worst = max(worst, jacobi_residual(X, Y, Z),
                    _mat_diff(embed_algebra(commutator(X, Y)),
                              MX @ MY - MY @ MX),
                    _mat_diff(embed_matrix(exponential(_scaled(X, a + b))),
                              embed_matrix(multiply(
                                  exponential(_scaled(X, a)),
                                  exponential(_scaled(X, b))))),
                    _mat_diff(embed_matrix(multiply(
                        exponential(X), exponential(_scaled(X, -1.0)))),
                        np.eye(dim + 2)))
    return worst


def _reference_cocycle_worst(xi, seed, n, scale):
    rng = np.random.default_rng(seed)
    max_angle = min(scale, CAP)
    worst = 0.0
    for _ in range(n):
        r, s, q = (random_element(rng, xi.dim, scale, max_angle)
                   for _ in range(3))
        worst = max(worst, cocycle_residual(xi, r, s, q))
    return worst


SMALL = harness.default_config(seed=77, n_triples=24, scale=1.5)


def test_group_and_algebra_checks_match_the_scalar_loops():
    for report in harness._check_group_axioms(SMALL):
        dim = int(report["check"][-1])
        assert report["max_residual"] == _reference_group_worst(
            report["seed"], report["n_cases"], dim, SMALL.scale)
    for report in harness._check_algebra(SMALL):
        dim = int(report["check"][-1])
        assert report["max_residual"] == _reference_algebra_worst(
            report["seed"], report["n_cases"], dim, SMALL.scale)


def _per_call_algebra_residuals(X, Y, Z, a, b):
    """harness._algebra_residuals with one exponential_batch call per flow
    parameter, two multiply_batch calls and four embed_matrix_batch calls."""
    MX, MY = embed_algebra_batch(X), embed_algebra_batch(Y)
    return np.max([
        jacobi_residual_batch(X, Y, Z),
        harness._mat_diff(embed_algebra_batch(commutator_batch(X, Y)),
                          MX @ MY - MY @ MX),
        harness._mat_diff(
            embed_matrix_batch(exponential_batch(X.scale(a + b))),
            embed_matrix_batch(multiply_batch(exponential_batch(X.scale(a)),
                                              exponential_batch(X.scale(b))))),
        harness._mat_diff(embed_matrix_batch(multiply_batch(
            exponential_batch(X), exponential_batch(X.scale(-1.0)))),
            np.eye(X.dim + 2)),
    ], axis=0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_the_stacked_algebra_residuals_equal_the_per_call_ones(dim):
    """Every case of one chunk, rows at and near a zero angle, on both sides
    of the series switch, and a NaN row among them, bit for bit."""
    rng = np.random.default_rng(700 + dim)
    X, Y, Z, a, b = harness._algebra_cases(dim, 2.0)(rng, range(40))
    X.rot[:4] *= np.array([0.0, 1e-9, _SERIES[0] / 2, _SERIES[0]])[
        :, None, None]
    X.time[5] = math.nan
    a[6] = -0.0
    got = harness._algebra_residuals(X, Y, Z, a, b)
    want = _per_call_algebra_residuals(X, Y, Z, a, b)
    assert got.tobytes() == want.tobytes()
    assert np.isnan(got[5]) and np.isfinite(np.delete(got, 5)).all()


def test_the_algebra_check_makes_one_exponential_call_per_chunk(monkeypatch):
    cfg = harness.default_config(seed=31, n_triples=30, scale=1.5)
    whole = harness._check_algebra(cfg)
    calls = []

    def counted(X):
        calls.append(len(X))
        return exponential_batch(X)

    monkeypatch.setattr(harness, "exponential_batch", counted)
    monkeypatch.setattr(harness, "_SWEEP_CHUNK", 3)
    assert harness._check_algebra(cfg) == whole
    # 10 cases per dimension in chunks of 3, 3, 3, 1; five flows per case
    assert calls == [15, 15, 15, 5] * 3
    monkeypatch.setattr(harness, "_SWEEP_CHUNK", 512)
    monkeypatch.setattr(harness, "_algebra_residuals",
                        _per_call_algebra_residuals)
    assert harness._check_algebra(cfg) == whole


def test_cocycle_check_matches_the_scalar_loop():
    reports = harness._check_cocycles(SMALL)
    cases = harness._cocycle_cases(SMALL)
    assert [r["check"] for r in reports] == [name for name, _, _ in cases]
    for report, (_, _, xi) in zip(reports, cases):
        assert report["max_residual"] == _reference_cocycle_worst(
            xi, report["seed"], SMALL.n_triples, SMALL.scale)


def test_sweep_does_not_depend_on_the_batch_size(monkeypatch):
    xi = PhaseExponent("xi0", 3, gamma=1.3)
    whole = harness.cocycle_sweep(xi, 9, 50)
    monkeypatch.setattr(harness, "_SWEEP_CHUNK", 7)
    assert harness.cocycle_sweep(xi, 9, 50) == whole
    assert whole == _reference_cocycle_worst(xi, 9, 50, 1.0)
    with pytest.raises(ValueError):
        harness.cocycle_sweep(xi, 9, 0)


def _stack_sweep(seen):
    """A draw and a (2, n) residual stack for harness._sweep: kind 0 is a
    uniform draw per case, kind 1 the global case index, NaN at case 5."""
    def draw(rng, cases):
        seen.append(cases)
        return rng.random(len(cases)), np.array(cases, dtype=float)

    def residuals(u, i):
        return np.stack([u, np.where(i == 5, math.nan, i)])
    return draw, residuals


def test_sweep_reduces_each_residual_kind_on_its_own(monkeypatch):
    monkeypatch.setattr(harness, "_SWEEP_CHUNK", 4)
    seen = []
    worst_u, worst_i = harness._sweep(11, 10, *_stack_sweep(seen))
    # draw sees global case ranges, chunk after chunk
    assert seen == [range(0, 4), range(4, 8), range(8, 10)]
    # the NaN fails kind 1 only; kind 0 is the plain maximum of its draws
    assert math.isnan(worst_i)
    assert worst_u == float(np.max(np.random.default_rng(11).random(10)))
    # a Generator of the seed gives what the seed gives, and the sweep
    # continues its stream
    rng = np.random.default_rng(11)
    assert harness._sweep(rng, 10, *_stack_sweep([]))[0] == worst_u
    assert harness._sweep(rng, 10, *_stack_sweep([]))[0] == float(
        np.max(np.random.default_rng(11).random(20)[10:]))
    # one residual per case reduces to one float; no chunk sees case 5 here
    draw, residuals = _stack_sweep([])
    assert harness._sweep(11, 5, draw, lambda u, i: residuals(u, i)[1]) == 4.0


# -- fail closed -------------------------------------------------------------

def test_a_nan_row_fails_the_sweeps(monkeypatch):
    draw = harness.random_element_batch
    draw_algebra = harness.algebra_batch_from_uniforms

    def poisoned(*args, **kwargs):
        b = draw(*args, **kwargs)
        eta, v = b.eta.copy(), b.v.copy()
        eta[len(b) // 2] = v[len(b) // 2] = math.nan
        return GalileiBatch(b.W, eta, v, b.u)

    def poisoned_algebra(*args, **kwargs):
        X = draw_algebra(*args, **kwargs)
        X.time[len(X) // 2] = math.nan
        return X

    monkeypatch.setattr(harness, "random_element_batch", poisoned)
    monkeypatch.setattr(harness, "algebra_batch_from_uniforms",
                        poisoned_algebra)
    cfg = harness.default_config(seed=5, n_triples=12)
    reports = (harness._check_group_axioms(cfg) + harness._check_algebra(cfg)
               + harness._check_cocycles(cfg))
    assert len(reports) == 6 + len(harness._cocycle_cases(cfg))
    for report in reports:
        assert math.isnan(report["max_residual"]), report["check"]
        assert report["pass"] is False


def test_an_exponential_without_the_boost_drift_fails_the_algebra_check(
        monkeypatch):
    """A map whose u drops tau phi_2(R) d (tau d / 2 in dim 1): u of the
    same X with trans zeroed is exactly that term."""
    def drifting(X):
        g = exponential_batch(X)
        drift = exponential_batch(AlgebraBatch(
            X.rot, np.zeros_like(X.trans), X.boost, X.time)).u
        return GalileiBatch(g.W, g.eta, g.v, g.u - drift)

    cfg = harness.default_config(seed=5, n_triples=12)
    assert all(r["pass"] for r in harness._check_algebra(cfg))
    monkeypatch.setattr(harness, "exponential_batch", drifting)
    reports = harness._check_algebra(cfg)
    assert [r["check"] for r in reports if not r["pass"]] == [
        "algebra_dim1", "algebra_dim2", "algebra_dim3"]


def test_overflowing_scale_fails_instead_of_passing():
    cfg = harness.default_config(seed=5, n_triples=12, scale=1e160)
    reports = harness._check_group_axioms(cfg) + harness._check_cocycles(cfg)
    for report in reports:
        assert report["pass"] is False, report["check"]
        assert report["max_residual"] != 0.0, report["check"]


# -- the CLI runs the harness sweep ------------------------------------------

def test_cli_cocycle_prints_the_harness_sweep(capsys):
    assert main(["cocycle", "xi0", "--triples", "40", "--seed", "31",
                 "--gamma", "1.3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    xi = PhaseExponent("xi0", 3, gamma=1.3)
    assert doc["max_residual"] == harness.cocycle_sweep(xi, 31, 40)
    assert doc["max_residual"] == _reference_cocycle_worst(xi, 31, 40, 1.0)
    # a count below 1 is refused by the flag's type, which names the flag
    for count in ("0", "-3"):
        assert main(["cocycle", "xi0", "--triples", count]) == 2
        assert "argument --triples: expected a positive integer" \
            in capsys.readouterr().err
