"""Batched group, algebra and exponent operations, row by row.

Each operation is written once, over batch rows, and the scalar operation is
its 1-row view.  So row i of an N-row batch must equal, exactly, the 1-row
call on row i: a row's result must not depend on the other rows (its own
squaring count, its own Taylor stop).  The reference draws and sweeps are
case-by-case loops.
"""

import json
import math

import numpy as np
import pytest

from galiray import harness
from galiray.algebra import (commutator, commutator_batch,
                             embed_algebra, embed_algebra_batch, exponential,
                             exponential_batch, jacobi_residual,
                             jacobi_residual_batch, random_algebra_batch,
                             random_algebra_element)
from galiray.cli import main
from galiray.cocycles import (PhaseExponent, _richardson, cocycle_residual,
                              cocycle_residual_batch, evaluate,
                              evaluate_batch, infinitesimal_exponent)
from galiray.group import (GalileiBatch, embed_matrix, embed_matrix_batch,
                          identity, inverse, inverse_batch, multiply,
                          multiply_batch, random_element,
                          random_element_batch)

CAP = math.pi / 3.5


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
            axis = rng.normal(size=3)
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
    assert_same_algebra(random_algebra_element(7, dim),
                        random_algebra_batch(7, 1, dim).element(0))


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


def _reference_expm(M, tol=1e-14):
    """Scaled-and-squared Taylor series of one matrix, term by term."""
    norm = np.max(np.sum(np.abs(M), axis=1))
    squarings = math.ceil(math.log2(norm / 0.5)) if norm > 0.5 else 0
    A = M / 2.0 ** squarings
    result = term = np.eye(len(M))
    k = 1
    while True:
        term = term @ A / k
        result = result + term
        if np.max(np.abs(term)) < tol:
            break
        k += 1
    for _ in range(squarings):
        result = result @ result
    return result


def test_exponential_batch_mixes_squaring_counts():
    rng = np.random.default_rng(540)
    base = random_algebra_batch(rng, 6, 3)
    factors = np.array([0.0, 0.01, 0.05, 0.3, 2.0, 25.0])
    X = base.scale(factors)
    M = embed_algebra_batch(X)
    norms = np.max(np.sum(np.abs(M), axis=2), axis=1)
    assert norms.min() < 0.5 < norms.max()
    squarings = [math.ceil(math.log2(x / 0.5)) if x > 0.5 else 0
                 for x in norms]
    assert len(set(squarings)) >= 3
    batch = exponential_batch(X)
    for i in range(len(factors)):
        assert np.array_equal(_reference_expm(M[i]),
                              embed_matrix(batch.element(i)))
        assert_same_element(batch.element(i), exponential(X.element(i)))


def test_algebra_batch_scale_add_and_max_abs():
    X = random_algebra_batch(541, 4, 2)
    Y = X.scale(np.array([1.0, -2.0, 0.5, 0.0])).add(X)
    for i, c in enumerate((2.0, -1.0, 1.5, 1.0)):
        x = X.element(i)
        assert_same_algebra(Y.element(i), x.scale(c - 1.0).add(x))
        assert Y.max_abs()[i] == Y.element(i).max_abs()


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
    X, Y = (random_algebra_element(560 + i, 3, 4.0) for i in range(2))
    taus = (0.4, 0.2, 0.1, 0.05)
    samples = []
    for tau in taus:
        g, h = exponential(X.scale(tau)), exponential(Y.scale(tau))
        gi, hi = inverse(g), inverse(h)
        samples.append((xi(multiply(g, h), multiply(gi, hi)) + xi(g, h)
                        + xi(gi, hi)) / tau ** 2)
    assert infinitesimal_exponent(xi, X, Y, taus).value == \
        _richardson(taus, samples)[0]


# -- the harness sweeps against case-by-case loops ---------------------------

def _mat_diff(A, B):
    return float(np.max(np.abs(A - B)))


def _reference_group_worst(seed, n, dim, scale):
    rng = np.random.default_rng(seed)
    e, worst = identity(dim), 0.0
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
        X, Y, Z = (random_algebra_element(rng, dim, scale) for _ in range(3))
        MX, MY = embed_algebra(X), embed_algebra(Y)
        a, b = rng.uniform(-1, 1, size=2)
        worst = max(worst, jacobi_residual(X, Y, Z),
                    _mat_diff(embed_algebra(commutator(X, Y)),
                              MX @ MY - MY @ MX),
                    _mat_diff(embed_matrix(exponential(X.scale(a + b))),
                              embed_matrix(multiply(exponential(X.scale(a)),
                                                    exponential(X.scale(b))))),
                    _mat_diff(embed_matrix(multiply(
                        exponential(X), exponential(X.scale(-1.0)))),
                        embed_matrix(identity(dim))))
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


def test_cocycle_check_matches_the_scalar_loop():
    reports = harness._check_cocycles(SMALL)
    cases = harness._cocycle_cases(SMALL)
    assert [r["check"] for r in reports] == [name for name, _ in cases]
    for report, (_, xi) in zip(reports, cases):
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


# -- fail closed -------------------------------------------------------------

def test_a_nan_row_fails_the_sweeps(monkeypatch):
    draw = harness.random_element_batch

    def poisoned(*args, **kwargs):
        b = draw(*args, **kwargs)
        eta, v = b.eta.copy(), b.v.copy()
        eta[len(b) // 2] = v[len(b) // 2] = math.nan
        return GalileiBatch(b.W, eta, v, b.u)

    monkeypatch.setattr(harness, "random_element_batch", poisoned)
    cfg = harness.default_config(seed=5, n_triples=12)
    reports = harness._check_group_axioms(cfg) + harness._check_cocycles(cfg)
    assert len(reports) == 3 + len(harness._cocycle_cases(cfg))
    for report in reports:
        assert math.isnan(report["max_residual"]), report["check"]
        assert report["pass"] is False


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
    assert main(["cocycle", "xi0", "--triples", "0"]) == 2
