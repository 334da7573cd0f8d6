"""Carrier states at array speed: the one pointwise formula, the
transforms that build their result without re-validating it, the array
affine substitution against the dict substitution, dense rows as the one
StateBatch polynomial form, and Polynomial arithmetic that does not
re-normalise what it built.

A state has one pointwise formula, evaluate, kept for tests and tools: no
check evaluates a state at a point, and it is tested against the formula
written out term by term.  The trusted transforms must keep every term's
Gamma symmetric with a negative-definite real part, which the validating
check confirms.  The congruence in real arithmetic and the draws in place
must give what the complex product and the rng.normal draws they replace
give, bit for bit.  An operator acts on the dense rows of a StateBatch, and
each row must match the per-term dict loop it replaces.
"""

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galiray import harness, verify
from galiray.group import GalileiElement, _rodrigues, rotation_2d
from galiray.representations import (RepDescriptor, apply_batch,
                                     apply_time, generator, generator_names)
from galiray.states import (DEFAULT_MAX_DEGREE, DegreeOverflowError,
                            PolyDiffOperator, PolyGaussianState,
                            PolyGaussianTerm, Polynomial, StateBatch,
                            _check_gamma, _cmul, _congruence, _PolyRows,
                            _size, _StateDraws, random_state)

# -- the pointwise formula ---------------------------------------------------


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
def test_evaluate_is_the_pointwise_formula(dim):
    rng = np.random.default_rng(600 + dim)
    f = random_state(rng, dim, poly_degree=2, n_terms=3)
    for p in rng.normal(size=(17, dim)) * 1.5:
        value, want = f.evaluate(p), _reference_evaluate(f, p)
        assert type(value) is complex
        assert abs(value - want) <= 1e-13 * max(1.0, abs(want))


def test_array_arithmetic_rounds_as_the_scalar_arithmetic():
    rng = np.random.default_rng(605)
    a = rng.normal(size=200) + 1j * rng.normal(size=200)
    b = rng.normal(size=200) + 1j * rng.normal(size=200)
    assert [complex(z) for z in _cmul(a, b)] \
        == [complex(u) * complex(w) for u, w in zip(a, b)]


def test_evaluate_rejects_points_of_the_wrong_shape():
    f = random_state(610, 2, poly_degree=1, n_terms=2)
    for bad in (np.zeros(3), np.zeros(1), np.zeros(()), np.zeros((1, 2)),
                np.zeros((2, 2))):
        with pytest.raises(ValueError):
            f.evaluate(bad)
    with pytest.raises(ValueError):
        f.terms[0].poly.eval(np.zeros(3))


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


# -- array affine substitution -----------------------------------------------
# The oracle is the dict substitution that StateBatch used before its term
# polynomials became dense rows: per monomial, the product of the powers of
# the affine lines it uses, all terms adding up in one dict.

def _affine_line(row, shift) -> Polynomial:
    """The polynomial sum_j row[j] q_j + shift."""
    n = len(row)
    coeffs = {}
    for j in range(n):
        if row[j] != 0:
            e = [0] * n
            e[j] = 1
            coeffs[tuple(e)] = row[j]
    if shift != 0:
        coeffs[tuple([0] * n)] = shift
    return Polynomial(n, coeffs)


def _dict_subs_affine(poly, M, c):
    """Substitute variable_i -> sum_j M[i,j] q_j + c[i] in a Polynomial."""
    n = poly.nvars
    lines, powers = [None] * n, [[] for _ in range(n)]
    out = {}
    for exps, coef in poly.coeffs.items():
        term = Polynomial.constant(n, coef)
        for i, e in enumerate(exps):
            if e:
                if lines[i] is None:
                    lines[i] = _affine_line(M[i], c[i])
                    powers[i].append(Polynomial.constant(n, 1.0))
                while len(powers[i]) <= e:
                    powers[i].append(powers[i][-1] * lines[i])
                term = term * powers[i][e]
        for key, c_term in term.coeffs.items():
            out[key] = out.get(key, 0.0) + c_term
    return Polynomial(n, out)


def _array_subs_affine(poly, M, c):
    """The same substitution through the dense rows of a StateBatch."""
    return _PolyRows.of([poly], poly.nvars).substitute(
        np.asarray(M)[None], np.asarray(c, dtype=complex)[None]).row(0)


def _assert_substitution_agrees(poly, M, c, exact: bool):
    """The array substitution equals the dict one: exactly, or within 8 ulp
    of the largest coefficient of any one monomial's substituted term."""
    got, want = _array_subs_affine(poly, M, c), _dict_subs_affine(poly, M, c)
    assert all(type(e) is int for exps in got.coeffs for e in exps)
    assert all(type(v) is complex for v in got.coeffs.values())
    if exact:
        assert got.coeffs == want.coeffs
        return
    largest = max((_dict_subs_affine(Polynomial(poly.nvars, {e: v}), M,
                                     c).max_abs()
                   for e, v in poly.coeffs.items()), default=0.0)
    assert (got - want).max_abs() <= 8 * np.finfo(float).eps * largest


def test_array_substitution_agrees_with_the_dict_substitution():
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
        _assert_substitution_agrees(poly, M, c, exact=False)


def _assert_dense(batch):
    assert all(type(poly) is _PolyRows for poly, *_ in batch.terms)


def test_every_state_batch_polynomial_is_dense_rows():
    rng = np.random.default_rng(640)
    rep = MOMENTUM_REPS[2]
    gaussian = random_state(rng, 3, poly_degree=0, n_terms=2)
    f = random_state(rng, 3, poly_degree=2, n_terms=2)
    r = harness.random_element_batch(rng, 4, 3)
    for state in (gaussian, f):
        F = StateBatch.of(state, 4)
        _assert_dense(F)
        _assert_dense(F.substitute(r.W, rng.normal(size=(4, 3)) + 0j))
        _assert_dense(F.multiply_phase(const=np.ones(4, dtype=complex)))
        _assert_dense(apply_batch(rep, r, 0.4, F))
    _assert_dense(StateBatch.stack([gaussian, f]))
    draws = _StateDraws(3, 3, 2, n_terms=2)
    for i in range(3):
        draws.draw(i, rng, 0)
    _assert_dense(draws.batch())


# -- Polynomial arithmetic without re-normalisation ---------------------------
# The references rebuild every result through the normalising constructor
# Polynomial(nvars, dict), as the arithmetic did before it kept its own
# dicts as they are.

def _ref_add(a, b):
    out = dict(a.coeffs)
    for exps, c in b.coeffs.items():
        out[exps] = out.get(exps, 0.0) + c
    return Polynomial(a.nvars, out)


def _ref_neg(a):
    return Polynomial(a.nvars, {e: -c for e, c in a.coeffs.items()})


def _ref_mul(a, b):
    if not isinstance(b, Polynomial):
        c = complex(b)
        return Polynomial(a.nvars, {e: v * c for e, v in a.coeffs.items()})
    out = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0.0) + c1 * c2
    return Polynomial(a.nvars, out)


def _ref_conj(a):
    return Polynomial(a.nvars, {e: c.conjugate() for e, c in a.coeffs.items()})


def _bits(poly):
    """Keys in dict order and values bit for bit, signed zeros included."""
    assert all(type(e) is int for exps in poly.coeffs for e in exps)
    assert all(type(c) is complex for c in poly.coeffs.values())
    return poly.nvars, [(exps, c.real.hex(), c.imag.hex())
                        for exps, c in poly.coeffs.items()]


# exactly representable values, so that sums cancel exactly
SMALL = (1.0, -1.0, 0.5, -0.5, 2.0, 1j, -1j, 0.5 - 0.5j, -0.0 + 1j)


def _random_poly(rng, n):
    degree = int(rng.integers(0, 4))
    coeffs = {}
    for _ in range(int(rng.integers(0, 7))):
        exps = [0] * n
        for _ in range(int(rng.integers(0, degree + 1))):
            exps[int(rng.integers(0, n))] += 1
        coeffs[tuple(exps)] = (SMALL[rng.integers(len(SMALL))]
                               if rng.random() < 0.5
                               else complex(rng.normal(), rng.normal()))
    return Polynomial(n, coeffs)


def _partner(rng, a):
    """A random polynomial sharing some of a's monomials, some of them with
    the negated coefficient, so that a + b cancels there exactly."""
    b = _random_poly(rng, a.nvars)
    coeffs = dict(b.coeffs)
    for exps, c in a.coeffs.items():
        if rng.random() < 0.5:
            coeffs[exps] = -c if rng.random() < 0.7 else c
    return Polynomial(a.nvars, coeffs)


def test_polynomial_arithmetic_equals_the_normalising_path_bit_for_bit():
    rng = np.random.default_rng(640)
    n_dropped = n_exact = 0
    for case in range(400):
        n = 1 + case % 4
        a = _random_poly(rng, n)
        b = _partner(rng, a)
        scalar = (0.0, 3, -1.0, 1j, 2.5 - 0.25j, np.float64(0.7),
                  complex(rng.normal(), rng.normal()))[case % 7]
        M = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.7)
        c = (rng.normal(size=n) + 1j * rng.normal(size=n)) \
            * (rng.random(n) < 0.7)
        if case % 3 == 0:
            M, c = np.round(M), np.round(c)
        pairs = [(a + b, _ref_add(a, b)), (a - b, _ref_add(a, _ref_neg(b))),
                 (-a, _ref_neg(a)), (a * b, _ref_mul(a, b)),
                 (a * scalar, _ref_mul(a, scalar)),
                 (scalar * a, _ref_mul(a, scalar)),
                 (a.conj(), _ref_conj(a))]
        for fast, ref in pairs:
            assert _bits(fast) == _bits(ref)
        # exact on exactly representable inputs, which sum without rounding
        exact = case % 3 == 0 and all(v in SMALL for v in a.coeffs.values())
        _assert_substitution_agrees(a, M, c, exact)
        n_exact += exact
        n_dropped += len(set(a.coeffs) & set(b.coeffs)) \
            - len(set(a.coeffs) & set((a + b).coeffs))
    assert n_dropped > 0 and n_exact > 0


def test_a_sum_that_cancels_drops_its_monomial_and_keeps_the_order():
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    a = x * 1.5 + y * 2.0 + 1.0
    assert list((a - x * 1.5).coeffs) == [(0, 1), (0, 0)]
    # x -> q1 + 1, y -> -q1 + 1: q1 cancels in x + y, and x^2 adds it back;
    # a row of dense coefficients lists its monomials in ascending order
    poly = x + y + x * x
    M, c = np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, 1.0])
    got = _array_subs_affine(poly, M, c)
    assert got.coeffs == _dict_subs_affine(poly, M, c).coeffs
    assert list(got.coeffs) == [(0, 0), (1, 0), (2, 0)]


def test_the_input_constructor_still_normalises():
    p = Polynomial(2, {(np.int64(1), 0): 2, (0, 1): 0.0, (0, 0): np.float64(3)})
    assert list(p.coeffs) == [(1, 0), (0, 0)]
    assert _bits(p) == (2, [((1, 0), (2.0).hex(), (0.0).hex()),
                            ((0, 0), (3.0).hex(), (0.0).hex())])


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
    # cocycle residual builds rs and sq per triple, as rows of its chunk's
    # one 4n-row extraction, in verify's namespace
    assert len(calls) == n_reps * 2 * 2


# -- the congruence in real arithmetic ---------------------------------------

def _suite_layouts(dim, seed):
    """(W, states) in the layouts the suite hands to substitute: the strided
    rows b[i::k] of a sweep draw against StateBatch.of broadcasts and against
    the composed images built of them, a 1-row view, and _StateDraws rows."""
    rng = np.random.default_rng(seed)
    n = 40
    f = random_state(rng, dim, poly_degree=2, n_terms=2)
    b = harness.random_element_batch(rng, 3 * n, dim)
    F = StateBatch.of(f, n)
    shift = rng.normal(size=(n, dim)) + 0j
    Q = rng.normal(size=(n, dim, dim))
    image = F.substitute(b[1::3].W, shift).multiply_phase(
        quad=1j * (Q + Q.swapaxes(-1, -2)))
    draws = _StateDraws(n, dim, 2, n_terms=2)
    for i in range(n):
        draws.draw(i, rng, i % 3)
    return [(b[0::3].W, F), (b[2::3].W, image), (b[:1].W, StateBatch.of(f)),
            (b.W[5][None], StateBatch.of(f)), (b[1::3].W, draws.batch())]


@pytest.mark.parametrize("dim", (1, 2, 3))
def test_the_real_congruence_is_the_complex_product_bit_for_bit(dim):
    for W, F in _suite_layouts(dim, 700 + dim):
        M = W.swapaxes(-1, -2)
        shift = np.ones((len(W), dim), dtype=complex)
        G = F.substitute(W, shift)
        for (*_, Gamma), (*_, got) in zip(F.terms, G.terms):
            want = (W @ Gamma @ M).tobytes()
            assert _congruence(W, Gamma, M).tobytes() == want
            assert got.tobytes() == want


@pytest.mark.parametrize("where", ("re_gamma", "im_gamma", "nan_w", "inf_w"))
@pytest.mark.parametrize("dim", (1, 2, 3))
def test_a_non_finite_row_stays_non_finite_through_the_congruence(dim, where):
    rng = np.random.default_rng(710 + dim)
    n, k = 4, 2
    W = harness.random_element_batch(rng, n, dim).W
    F = StateBatch.of(random_state(rng, dim, poly_degree=1), n)
    shift = rng.normal(size=(n, dim)) + 0j
    clean = F.substitute(W, shift)
    (poly, alpha, beta, Gamma), = F.terms
    Gamma, W = Gamma.copy(), W.copy()
    if where == "re_gamma":
        Gamma.real[k, 0, 0] = math.nan
    elif where == "im_gamma":
        Gamma.imag[k, 0, 0] = math.inf
    else:
        W[k, 0, 0] = math.nan if where == "nan_w" else math.inf
    with np.errstate(invalid="ignore", over="ignore"):
        G = StateBatch(dim, [(poly, alpha, beta, Gamma)]).substitute(W, shift)
        _, mismatch = verify._term_mismatch(G, clean)
    out = G.terms[0][3]
    assert not np.isfinite(out[k]).all()
    assert np.isfinite(np.delete(out, k, axis=0)).all()
    # the row fails its constancy spread; the other rows match exactly
    assert not mismatch[k] < harness.DEFAULT_TOLERANCES["multiplier_spread"]
    assert (np.delete(mismatch, k) == 0.0).all()
    if where == "re_gamma":
        # unlike the complex product, the split keeps a NaN in its own part
        assert np.isfinite(out[k].imag).all()


# -- state draws in place ----------------------------------------------------

def _draw_by_copies(draws, i, rng, degree):
    """_StateDraws.draw written with rng.normal(size=...) and slice copies:
    the stream that the draws in place must take."""
    draws.degree[i] = degree
    k, end = draws.dim ** 2, 2 * draws.dim * (draws.dim + 1)
    n_coeffs = 2 * (_size(draws.dim, degree) - 1)
    for normal, uniform in zip(draws.normal[:, i], draws.uniform[:, i]):
        normal[:k] = rng.normal(size=k)
        uniform[0] = rng.random()
        normal[k:end] = rng.normal(size=end - k)
        rng.random(out=uniform[1:])
        if n_coeffs:
            normal[end:end + n_coeffs] = rng.normal(size=n_coeffs)


@pytest.mark.parametrize("n_terms", (1, 2))
@pytest.mark.parametrize("dim", (1, 2, 3))
def test_state_draws_in_place_take_the_stream_of_rng_normal(dim, n_terms):
    degrees = (0, 1, 2, 2, 1, 0)
    got = _StateDraws(len(degrees), dim, 2, n_terms)
    want = _StateDraws(len(degrees), dim, 2, n_terms)
    rng, ref = (np.random.default_rng(720 + dim) for _ in range(2))
    for i, degree in enumerate(degrees):
        got.draw(i, rng, degree)
        _draw_by_copies(want, i, ref, degree)
        assert rng.bit_generator.state == ref.bit_generator.state
    assert got.normal.tobytes() == want.normal.tobytes()
    assert got.uniform.tobytes() == want.uniform.tobytes()
    assert np.array_equal(got.degree, want.degree)


# -- the operator action on dense rows ---------------------------------------

def _reference_apply(op, state, t=0.0, max_degree=DEFAULT_MAX_DEGREE):
    """The terms of op applied to state by the per-term dict loop that
    PolyDiffOperator.apply ran before apply_batch: each coefficient fixed at
    t, each derivative d/dp_i taken as poly' + poly (beta_i + 2 (Gamma p)_i),
    and the zero products dropped."""
    dim = op.dim
    out = []
    for coeff, deriv in op.terms:
        coeff_p = Polynomial(dim, {e[:dim]: c for e, c in
                                   coeff.subs_var(dim, t).coeffs.items()})
        for term in state.terms:
            poly = term.poly
            for i in range(dim):
                for _ in range(deriv[i]):
                    lin = {(0,) * dim: term.beta[i]}
                    for j in range(dim):
                        if term.Gamma[i, j] != 0:
                            lin[tuple(int(j == k) for k in range(dim))] = (
                                2.0 * term.Gamma[i, j])
                    poly = poly.diff(i) + poly * Polynomial(dim, lin)
            poly = poly * coeff_p
            if poly.degree() > max_degree:
                raise DegreeOverflowError(poly.degree())
            if not poly.is_zero():
                out.append(PolyGaussianTerm(poly, term.alpha, term.beta,
                                            term.Gamma))
    return out


def _assert_terms_match(got, want):
    """Same term layout, and each coefficient within 1e-15 of the largest
    of its reference term."""
    assert len(got.terms) == len(want)
    for g, w in zip(got.terms, want):
        assert g.alpha == w.alpha
        assert np.array_equal(g.beta, w.beta)
        assert np.array_equal(g.Gamma, w.Gamma)
        assert g.poly.coeffs.keys() == w.poly.coeffs.keys()
        scale = w.poly.max_abs()
        for e, c in w.poly.coeffs.items():
            assert abs(g.poly.coeffs[e] - c) <= 1e-15 * scale


@pytest.mark.parametrize("t", (0.0, 0.8, -1.7))
@pytest.mark.parametrize("rep", harness.default_config().reps,
                         ids=lambda rep: rep.kind)
def test_apply_batch_matches_the_dict_loop_on_every_row(rep, t):
    rng = np.random.default_rng(750)
    degrees = (0, 1, 2, 2, 0, 1, 1, 2, 0)
    for n_terms in (1, 2):
        states = [random_state(rng, rep.dim, poly_degree=d, n_terms=n_terms)
                  for d in degrees]
        batch = StateBatch.stack(states)
        for name in generator_names(rep):
            op = generator(rep, name)
            out = op.apply_batch(batch, t)
            assert len(out) == len(states)
            for i, f in enumerate(states):
                row = out.row(i)
                _assert_terms_match(row, want=_reference_apply(op, f, t))
                # whatever degrees the other rows have, row i is the 1-row
                # call bit for bit
                assert [u.poly.coeffs for u in row.terms] == [
                    u.poly.coeffs for u in op.apply(f, t).terms]


@pytest.mark.parametrize("dim", (1, 2, 3))
def test_degree_overflow_fires_where_the_dict_loop_fired(dim):
    rng = np.random.default_rng(760 + dim)
    for deg, c, k in itertools.product(range(3), repeat=3):
        # p_0^c d^k/dp_0^k on states up to degree deg: degree deg + c + k
        coeff = Polynomial(dim + 1, {(c,) + (0,) * dim: 1.0})
        op = PolyDiffOperator.build(dim, [(coeff, (k,) + (0,) * (dim - 1))])
        states = [random_state(rng, dim, poly_degree=d)
                  for d in range(deg + 1)]
        batch = StateBatch.stack(states)
        need = deg + c + k
        for bound in range(need + 2):
            try:
                _reference_apply(op, states[-1], max_degree=bound)
                overflows = False
            except DegreeOverflowError:
                overflows = True
            assert overflows == (need > bound)
            for call in (lambda: op.apply(states[-1], max_degree=bound),
                         lambda: op.apply_batch(batch, max_degree=bound)):
                if overflows:
                    with pytest.raises(DegreeOverflowError):
                        call()
                else:
                    call()
        # a bound lifted to the degree needed lets the action through
        assert op.apply(states[-1], max_degree=need).max_degree() == need


def test_a_coefficient_that_vanishes_at_t_gives_no_term():
    # (t - 1) p_0 + d/dp_0 at t = 1 keeps only the derivative term; at t = 1
    # the coefficient of t - 1 alone leaves the zero state on every row
    dim = 2
    t_minus_1 = Polynomial(dim + 1, {(1, 0, 1): 1.0, (1, 0, 0): -1.0})
    vanishing = PolyDiffOperator.build(dim, [(t_minus_1, (0, 0))])
    op = vanishing + PolyDiffOperator.derivative(dim, 0)
    rng = np.random.default_rng(770)
    states = [random_state(rng, dim, poly_degree=d, n_terms=2)
              for d in (0, 2, 1)]
    batch = StateBatch.stack(states)
    out = op.apply_batch(batch, t=1.0)
    assert len(out.terms) == 2
    for i, f in enumerate(states):
        _assert_terms_match(out.row(i), _reference_apply(op, f, t=1.0))
    zero = vanishing.apply_batch(batch, t=1.0)
    assert len(zero) == len(states)
    for i in range(len(states)):
        (term,) = zero.row(i).terms
        assert term.poly.is_zero() and term.alpha == 0.0
        assert np.array_equal(term.Gamma, -0.5 * np.eye(dim))


@pytest.mark.parametrize("t", (math.nan, math.inf, -math.inf))
def test_a_non_finite_time_is_rejected(t):
    rep = harness.default_config().reps[0]
    f = random_state(780, rep.dim, poly_degree=1)
    op = generator(rep, "N1")
    for call in (lambda: op.apply(f, t=t),
                 lambda: op.apply_batch(StateBatch.of(f, 2), t=t),
                 lambda: generator(rep, "N1", t),
                 lambda: op.at_time(t)):
        with pytest.raises(ValueError, match="t must be finite"):
            call()
