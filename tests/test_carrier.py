"""Carrier states at array speed: the array evaluation, the transforms that
build their result without re-validating it, and the lazy affine
substitution.

evaluate_many is written once, and evaluate is its 1-row view, so row i of
an N-row evaluation must equal the 1-point evaluation of point i exactly.
The trusted transforms must keep every term's Gamma symmetric with a
negative-definite real part, which the validating check confirms.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galiray import harness, verify
from galiray.group import GalileiElement, _rodrigues, rotation_2d
from galiray.representations import (RepDescriptor, apply_time, generator,
                                     generator_names)
from galiray.states import (PolyGaussianState, Polynomial, _check_gamma,
                            _cmul, _power, random_state)

# -- one array evaluation ----------------------------------------------------


def _reference_evaluate(f, p):
    """The pointwise formula, term by term: poly(p) exp(alpha + <beta, p>
    + p^T Gamma p)."""
    total = 0.0 + 0.0j
    for t in f.terms:
        poly = 0.0 + 0.0j
        for exps, c in t.poly.coeffs.items():
            poly += c * math.prod(float(x) ** e for x, e in zip(p, exps))
        total += poly * cmath.exp(t.alpha + t.beta @ p + p @ t.Gamma @ p)
    return total


@pytest.mark.parametrize("dim", (1, 2, 3))
def test_row_i_of_evaluate_many_is_the_one_point_evaluate(dim):
    rng = np.random.default_rng(600 + dim)
    f = random_state(rng, dim, poly_degree=2, n_terms=3)
    P = rng.normal(size=(17, dim)) * 1.5
    values = f.evaluate_many(P)
    assert values.shape == (17,) and values.dtype == complex
    assert np.array_equal(f.evaluate_many(P[4:9]), values[4:9])
    term, poly = f.terms[1], f.terms[1].poly
    term_values, poly_values = term.evaluate_many(P), poly.eval_many(P)
    for i, p in enumerate(P):
        assert values[i] == f.evaluate(p)
        assert term_values[i] == term.evaluate(p)
        assert poly_values[i] == poly.eval(p)
        want = _reference_evaluate(f, p)
        assert abs(values[i] - want) <= 1e-13 * max(1.0, abs(want))


def test_array_arithmetic_rounds_as_the_scalar_arithmetic():
    rng = np.random.default_rng(605)
    x = rng.normal(size=200) * 3.0
    a = rng.normal(size=200) + 1j * rng.normal(size=200)
    b = rng.normal(size=200) + 1j * rng.normal(size=200)
    for e in (1, 2, 3, 5):
        assert [float(v) for v in _power(x, e)] == [v ** e for v in x]
    assert [complex(z) for z in _cmul(a, b)] \
        == [complex(u) * complex(w) for u, w in zip(a, b)]


def test_evaluate_many_rejects_points_of_the_wrong_shape():
    f = random_state(610, 2, poly_degree=1, n_terms=2)
    for bad in (np.zeros((4, 3)), np.zeros((4, 1)), np.zeros(2),
                np.zeros((2, 2, 2))):
        with pytest.raises(ValueError):
            f.evaluate_many(bad)
        with pytest.raises(ValueError):
            f.terms[0].evaluate_many(bad)
        with pytest.raises(ValueError):
            f.terms[0].poly.eval_many(bad)
    with pytest.raises(ValueError):
        f.evaluate(np.zeros(3))
    with pytest.raises(ValueError):
        f.evaluate(np.zeros((1, 2)))
    assert f.evaluate_many(np.zeros((0, 2))).shape == (0,)


# -- trusted transforms ------------------------------------------------------

def _assert_terms_hold_the_invariant(state):
    for t in state.terms:
        assert np.array_equal(_check_gamma(state.dim, t.Gamma), t.Gamma)
        assert np.isfinite(t.beta).all() and cmath.isfinite(t.alpha)


# angles anywhere in [-pi, pi], with extra weight at the ends of the range
ANGLES = st.one_of(
    st.floats(-math.pi, math.pi),
    st.sampled_from([math.pi, -math.pi, math.nextafter(math.pi, 0.0),
                     math.nextafter(-math.pi, 0.0), 3.14, -3.14]))
COMPONENTS = st.floats(-3.0, 3.0)


def _rotation(dim, angle, axis):
    if dim == 1:
        return np.eye(1)
    if dim == 2:
        return rotation_2d(angle)
    return _rodrigues(np.array([angle]), np.array([axis]))[0]


@st.composite
def elements(draw, dim):
    axis = draw(st.lists(st.floats(0.1, 1.0), min_size=3, max_size=3))
    W = _rotation(dim, draw(ANGLES), axis)
    vec = st.lists(COMPONENTS, min_size=dim, max_size=dim)
    return GalileiElement(dim, W, draw(COMPONENTS), draw(vec), draw(vec))


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 3), seed=st.integers(0, 2 ** 16), data=st.data())
def test_substitute_and_imaginary_phases_keep_the_invariant(dim, seed, data):
    f = random_state(seed, dim, poly_degree=seed % 3, n_terms=2)
    r = data.draw(elements(dim))
    shift = np.array(data.draw(st.lists(COMPONENTS, min_size=dim,
                                        max_size=dim)))
    _assert_terms_hold_the_invariant(f.substitute(r.W, shift))
    A = np.array(data.draw(st.lists(COMPONENTS, min_size=dim * dim,
                                    max_size=dim * dim))).reshape(dim, dim)
    g = f.multiply_phase(quad=1j * (A + A.T), lin=1j * shift, const=0.5j)
    _assert_terms_hold_the_invariant(g)


MOMENTUM_REPS = (RepDescriptor("schrodinger2d", gamma=1.3, s=0.7),
                 RepDescriptor("nonabelian2d", gamma=1.1, lam=0.8, s=-0.4),
                 RepDescriptor("bargmann3d", gamma=0.9))


@settings(max_examples=30, deadline=None)
@given(rep=st.sampled_from(MOMENTUM_REPS), seed=st.integers(0, 2 ** 16),
       t=st.floats(-2.0, 2.0), data=st.data())
def test_representation_and_generator_images_keep_the_invariant(rep, seed, t,
                                                                 data):
    f = random_state(seed, rep.dim, poly_degree=1, n_terms=2)
    r = data.draw(elements(rep.dim))
    _assert_terms_hold_the_invariant(apply_time(rep, r, t, f))
    name = data.draw(st.sampled_from(generator_names(rep)))
    _assert_terms_hold_the_invariant(generator(rep, name).apply(f, t=t))


def test_substitute_rejects_a_non_orthogonal_w():
    f = random_state(620, 2, poly_degree=1)
    for W in (2.0 * np.eye(2), np.array([[1.0, 0.3], [0.0, 1.0]]),
              np.array([[math.nan, 0.0], [0.0, 1.0]]),
              np.array([[math.inf, 0.0], [0.0, 1.0]])):
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            f.substitute(W, np.zeros(2))
    reflection = np.array([[1.0, 0.0], [0.0, -1.0]])
    g = f.substitute(reflection, np.zeros(2))
    p = np.array([0.3, -0.8])
    assert abs(g.evaluate(p) - f.evaluate(reflection.T @ p)) < 1e-14


def test_only_a_real_or_asymmetric_quad_is_revalidated():
    f = PolyGaussianState.gaussian(2)
    with pytest.raises(ValueError):
        f.multiply_phase(quad=np.diag([0.6, 0.0]))
    with pytest.raises(ValueError):
        f.multiply_phase(quad=1j * np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        f.multiply_phase(quad=np.diag([1j * math.nan, 0.0]))
    # a real quad that keeps Re(Gamma) negative-definite is accepted
    g = f.multiply_phase(quad=np.diag([0.2, 0.1]))
    assert np.array_equal(g.terms[0].Gamma, np.diag([-0.3, -0.4]) + 0j)


# -- lazy affine substitution ------------------------------------------------

def _reference_subs_affine(poly, M, c):
    """The eager substitution: every line is built, used or not."""
    n = poly.nvars
    lines = []
    for i in range(n):
        coeffs = {}
        for j in range(n):
            if M[i, j] != 0:
                e = [0] * n
                e[j] = 1
                coeffs[tuple(e)] = M[i, j]
        if c[i] != 0:
            coeffs[tuple([0] * n)] = c[i]
        lines.append(Polynomial(n, coeffs))
    powers = [[Polynomial.constant(n, 1.0)] for _ in range(n)]
    result = Polynomial(n)
    for exps, coef in poly.coeffs.items():
        term = Polynomial.constant(n, coef)
        for i, e in enumerate(exps):
            while len(powers[i]) <= e:
                powers[i].append(powers[i][-1] * lines[i])
            if e:
                term = term * powers[i][e]
        result = result + term
    return result


def test_lazy_subs_affine_equals_the_eager_one_exactly():
    rng = np.random.default_rng(630)
    for case in range(60):
        n = 1 + case % 3
        coeffs = {}
        for _ in range(case % 5):
            exps = tuple(int(e) for e in rng.integers(0, 4, size=n))
            coeffs[exps] = complex(rng.normal(), rng.normal())
        if case % 4 == 1:
            # leave the last variable unused
            coeffs = {e[:-1] + (0,): c for e, c in coeffs.items()}
        poly = Polynomial(n, coeffs)
        M = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.7)
        c = (rng.normal(size=n) + 1j * rng.normal(size=n)) \
            * (rng.random(n) < 0.7)
        lazy, eager = poly.subs_affine(M, c), _reference_subs_affine(poly, M, c)
        assert list(lazy.coeffs.items()) == list(eager.coeffs.items())


# -- each multiplier product is built once -----------------------------------

def test_each_multiplier_pair_builds_its_product_once(monkeypatch):
    calls = []
    real_multiply = harness.multiply

    def counting(r, s):
        calls.append(1)
        return real_multiply(r, s)

    monkeypatch.setattr(harness, "multiply", counting)
    monkeypatch.setattr(verify, "multiply", counting)
    cfg = harness.default_config(n_pairs=5, n_exponent_triples=2)
    harness._check_multipliers(cfg)
    n_reps = len(harness._momentum_reps(cfg))
    # the pairs' products are one multiply_batch per chunk; the branch-safe
    # cocycle residual builds rs and sq per triple, as operands of its one
    # 4-row extraction
    assert len(calls) == n_reps * 2 * 2
