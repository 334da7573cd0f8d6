"""Carrier states at array speed: the one pointwise formula, the
transforms that build their result without re-validating it, the array
affine substitution against pointwise substitution, the one state layout (a
state is the one-row StateBatch), and the flat monomial map of an operator.

A state has one pointwise formula, evaluate, kept for tests and tools: no
check evaluates a state at a point, and it is tested against the formula
written out term by term.  The trusted transforms must keep every term's
Gamma symmetric with a negative-definite real part, which the validating
check confirms.  The congruence in real arithmetic and the draws in place
must give what the complex product and the rng.normal draws they replace
give, bit for bit.  An operator acts on the dense rows of a StateBatch, row
i as the 1-row call, and its composition must act as the sequential
actions, whatever form either takes.
"""

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galiray import harness, verify
from galiray.group import GalileiElement, _rodrigues, _rotations_2d
from galiray.representations import (RepDescriptor, apply_batch,
                                     apply_time, generator, generator_names)
from galiray.states import (DegreeOverflowError, PolyDiffOperator,
                            PolyGaussianState, StateBatch, _basis,
                            _check_gamma, _congruence, _PolyRows, _size,
                            _state_widths, _states_from_blocks, random_state)

# -- the pointwise formula ---------------------------------------------------


def _reference_evaluate(f, p):
    """The pointwise formula, term by term: poly(p) exp(alpha + <beta, p>
    + p^T Gamma p)."""
    total = 0.0 + 0.0j
    for rows, (alpha,), (beta,), (Gamma,) in f.terms:
        poly = 0.0 + 0.0j
        for exps, c in zip(_basis(f.dim, rows.deg), rows.coef[0]):
            poly += c * math.prod(float(x) ** e for x, e in zip(p, exps))
        total += poly * cmath.exp(alpha + beta @ p + p @ Gamma @ p)
    return total


@pytest.mark.parametrize("dim", (1, 2, 3))
def test_evaluate_is_the_pointwise_formula(dim):
    rng = np.random.default_rng(600 + dim)
    f = random_state(rng, dim, poly_degree=2, n_terms=3)
    for p in rng.normal(size=(17, dim)) * 1.5:
        value, want = f.evaluate(p), _reference_evaluate(f, p)
        assert type(value) is complex
        assert abs(value - want) <= 1e-13 * max(1.0, abs(want))


def test_array_arithmetic_rounds_each_element_alike():
    """numpy's complex product, which the carrier family uses throughout,
    gives each element the bits it has in a one-element product, whatever
    its position, the array's length or its stride; it need not round as
    Python's complex product does, but stays within a few ulps of it."""
    rng = np.random.default_rng(605)
    a = rng.normal(size=203) + 1j * rng.normal(size=203)
    b = rng.normal(size=203) + 1j * rng.normal(size=203)
    ones = [(a[i:i + 1] * b[i:i + 1])[0] for i in range(len(a))]
    for rows in (slice(None), slice(1, None, 3), slice(200, None)):
        assert (a[rows] * b[rows]).tobytes() == np.array(ones)[rows].tobytes()
    # a broadcast factor, as the polynomial products use
    assert (a[:, None] * b[None, :5]).tobytes() == np.array(
        [[(a[i:i + 1] * b[j:j + 1])[0] for j in range(5)]
         for i in range(len(a))]).tobytes()
    for u, w, z in zip(a, b, ones):
        assert abs(z - complex(u) * complex(w)) <= 4e-16 * abs(u) * abs(w)


def test_evaluate_rejects_points_of_the_wrong_shape():
    f = random_state(610, 2, poly_degree=1, n_terms=2)
    for bad in (np.zeros(3), np.zeros(1), np.zeros(()), np.zeros((1, 2)),
                np.zeros((2, 2))):
        with pytest.raises(ValueError):
            f.evaluate(bad)
    with pytest.raises(ValueError):
        f.terms[0][0].at(np.zeros(3))


# -- trusted transforms ------------------------------------------------------

def _assert_terms_hold_the_invariant(state):
    for _, (alpha,), beta, (Gamma,) in state.terms:
        assert np.array_equal(_check_gamma(state.dim, Gamma), Gamma)
        assert np.isfinite(beta).all() and cmath.isfinite(alpha)


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
        return _rotations_2d(np.array([angle]))[0]
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
    assert np.array_equal(g.terms[0][3], [np.diag([-0.3, -0.4]) + 0j])


# -- array affine substitution -----------------------------------------------
# The oracle is the substitution written pointwise: the substituted row at x
# is the row at M x + c.

def test_array_substitution_agrees_with_the_pointwise_substitution():
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
        rows = _PolyRows.of([coeffs], n)
        M = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.7)
        c = (rng.normal(size=n) + 1j * rng.normal(size=n)) \
            * (rng.random(n) < 0.7)
        sub = rows.substitute(M[None], c[None])
        assert sub.deg == rows.deg
        # the size of the largest sum the substitution rounds
        bound = _PolyRows(n, rows.deg, np.abs(rows.coef))
        for x in rng.normal(size=(4, n)):
            y = M @ x + c
            scale = bound.at(np.abs(M) @ np.abs(x) + np.abs(c))[0].real
            assert abs(sub.at(x)[0] - rows.at(y)[0]) <= 1e-13 * scale


def _stack(states):
    """The states as the rows of one batch, each term's polynomial rows
    padded to the highest of their degrees."""
    out = []
    for column in zip(*(f.terms for f in states)):
        polys, *arrays = zip(*column)
        deg = max(poly.deg for poly in polys)
        out.append((_PolyRows(states[0].dim, deg, np.concatenate(
            [poly.padded(deg) for poly in polys])),
            *map(np.concatenate, arrays)))
    return StateBatch(states[0].dim, out)


def _assert_layout(batch, n):
    """Every term of batch is n rows: dense polynomial rows, alpha (n,),
    beta (n, dim) and Gamma (n, dim, dim)."""
    dim = batch.dim
    assert len(batch) == n
    for poly, alpha, beta, Gamma in batch.terms:
        assert type(poly) is _PolyRows and poly.dim == dim
        assert poly.coef.shape == (n, _size(dim, poly.deg))
        assert alpha.shape == (n,) and beta.shape == (n, dim)
        assert Gamma.shape == (n, dim, dim)


def test_every_state_is_the_one_row_layout():
    rng = np.random.default_rng(640)
    rep = MOMENTUM_REPS[2]
    gaussian = random_state(rng, 3, poly_degree=0, n_terms=2)
    f = random_state(rng, 3, poly_degree=2, n_terms=2)
    r = harness.random_element_batch(rng, 4, 3)
    for state in (gaussian, f):
        F = state.repeat(4)
        _assert_layout(F, 4)
        _assert_layout(F.substitute(r.W, rng.normal(size=(4, 3)) + 0j), 4)
        _assert_layout(F.multiply_phase(const=np.ones(4, dtype=complex)), 4)
        _assert_layout(apply_batch(rep, r, 0.4, F), 4)
    _assert_layout(_block_states(rng, 3, (0, 0, 0), 2), 3)
    # a state is a one-row batch, from input, from a batch or from an action
    for state in (f, PolyGaussianState.gaussian(3, poly={(1, 0, 2): 2.0}),
                  _stack([gaussian, f]).row(1),
                  f.substitute(r.W[0], [0.0, 1.0, 0.0]),
                  f.multiply_phase(const=1j),
                  apply_time(rep, r.element(0), 0.3, f),
                  generator(rep, "N1").apply(f, t=0.3)):
        assert type(state) is PolyGaussianState
        _assert_layout(state, 1)


def test_row_is_a_view_and_repeat_makes_rows_of_row_0():
    rng = np.random.default_rng(641)
    batch = _stack([random_state(rng, 2, poly_degree=d, n_terms=2)
                    for d in (0, 2, 1)])
    f = batch.row(-1)
    for (poly, *arrays), (rows, *batch_arrays) in zip(f.terms, batch.terms):
        assert np.shares_memory(poly.coef, rows.coef)
        assert all(np.shares_memory(x, y)
                   for x, y in zip(arrays, batch_arrays))
        assert poly.deg == rows.deg == 2
    assert _same_terms(f, _stack([f]).row(0))
    F = f.repeat(5)
    assert type(F) is StateBatch
    _assert_layout(F, 5)
    for (poly, *arrays), (rows, *repeated) in zip(f.terms, F.terms):
        # the polynomial is broadcast, a read-only view
        assert np.shares_memory(poly.coef, rows.coef)
        assert not rows.coef.flags.writeable
        for x, y in zip((poly.coef, *arrays), (rows.coef, *repeated)):
            assert all(_same(x[0], row) for row in y)


def test_build_normalises_its_input_once():
    op = PolyDiffOperator.build(1, [
        (((np.int64(1),), (0, np.int64(2))), 2),
        (((0,), (1, 0)), np.float64(0.5)),
        (((0,), (3, 0)), 0.0)])
    # int keys, complex values, no zero, and a map no caller can change
    assert dict(op.terms) == {((1,), (0, 2)): 2 + 0j, ((0,), (1, 0)): 0.5 + 0j}
    assert all(type(k) is int for key in op.terms for part in key
               for k in part)
    assert all(type(c) is complex for c in op.terms.values())
    with pytest.raises(TypeError):
        op.terms[((0,), (0, 0))] = 1.0
    # every operation keeps the form, zeros dropped
    for out in (op + op, op - op, op.scale(1j), op.compose(op), op.d_dt(),
                op.at_time(0.5), op.commutator(op)):
        assert all(type(c) is complex and c != 0 for c in out.terms.values())
    assert not (op - op).terms and not op.commutator(op).terms


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
    rows b[i::k] of a sweep draw against a state's repeat and against the
    composed images built of them, a state itself, and block-drawn rows."""
    rng = np.random.default_rng(seed)
    n = 40
    f = random_state(rng, dim, poly_degree=2, n_terms=2)
    b = harness.random_element_batch(rng, 3 * n, dim)
    F = f.repeat(n)
    shift = rng.normal(size=(n, dim)) + 0j
    Q = rng.normal(size=(n, dim, dim))
    image = F.substitute(b[1::3].W, shift).multiply_phase(
        quad=1j * (Q + Q.swapaxes(-1, -2)))
    return [(b[0::3].W, F), (b[2::3].W, image), (b[:1].W, f),
            (b.W[5][None], f),
            (b[1::3].W, _block_states(rng, dim, [i % 3 for i in range(n)],
                                      2))]


@pytest.mark.parametrize("dim", (1, 2, 3))
def test_the_real_congruence_is_the_complex_product_bit_for_bit(dim):
    for W, F in _suite_layouts(dim, 700 + dim):
        M = W.swapaxes(-1, -2)
        shift = np.ones((len(W), dim), dtype=complex)
        # as representations.apply_batch calls it, on a state too
        G = StateBatch.substitute(F, W, shift)
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
    F = random_state(rng, dim, poly_degree=1).repeat(n)
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


# -- block draws of states ---------------------------------------------------

def _block_states(rng, dim, degrees, n_terms):
    """A block of states of the given degrees, as wide as the highest."""
    n_normal, n_uniform = _state_widths(dim, max(degrees), n_terms)
    return _states_from_blocks(rng.standard_normal((len(degrees), n_normal)),
                               rng.random((len(degrees), n_uniform)), dim,
                               np.array(degrees), n_terms)


@pytest.mark.parametrize("n_terms", (1, 2))
@pytest.mark.parametrize("dim", (1, 2, 3))
def test_a_block_row_is_the_one_row_block_of_its_own_degree(dim, n_terms):
    """Row i of a block as wide as degree 2 equals the one-row block of its
    own degree made of the same numbers, each term's unused coefficient
    normals dropped: a state does not depend on its slice's width."""
    degrees = (0, 1, 2, 2, 1, 0)
    rng = np.random.default_rng(720 + dim)
    n_normal, n_uniform = _state_widths(dim, 2, n_terms)
    N = rng.standard_normal((len(degrees), n_normal))
    U = rng.random((len(degrees), n_uniform))
    block = _states_from_blocks(N, U, dim, np.array(degrees), n_terms)
    for i, degree in enumerate(degrees):
        width = _state_widths(dim, degree)[0]
        own = N[i].reshape(n_terms, -1)[:, :width].reshape(1, -1)
        one = _states_from_blocks(own, U[i:i + 1], dim, degree, n_terms)
        assert _same_terms(block.row(i), one.row(0))
        assert block.row(i).terms[0][0].deg == 2


# -- the operator action on dense rows ---------------------------------------

def _same(a, b) -> bool:
    """Equal bit for bit."""
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _same_poly(a, b) -> bool:
    """Equal rows bit for bit over the higher of their degrees, apart from
    the sign of a coefficient that is zero in both."""
    deg = max(a.deg, b.deg)
    x, y = a.padded(deg), b.padded(deg)
    nonzero = (x != 0) | (y != 0)
    return _same(x[nonzero], y[nonzero])


def _same_terms(f, g) -> bool:
    """Equal terms bit for bit (_same_poly for the polynomials)."""
    return len(f.terms) == len(g.terms) and all(
        _same_poly(a[0], b[0]) and all(map(_same, a[1:], b[1:]))
        for a, b in zip(f.terms, g.terms))


@pytest.mark.parametrize("t", (0.0, 0.8, -1.7))
@pytest.mark.parametrize("rep", harness.default_config().reps,
                         ids=lambda rep: rep.kind)
def test_row_i_of_apply_batch_is_the_one_row_call(rep, t):
    rng = np.random.default_rng(750)
    degrees = (0, 1, 2, 2, 0, 1, 1, 2, 0)
    for n_terms in (1, 2):
        states = [random_state(rng, rep.dim, poly_degree=d, n_terms=n_terms)
                  for d in degrees]
        batch = _stack(states)
        for name in generator_names(rep):
            op = generator(rep, name)
            out = op.apply_batch(batch, t)
            assert len(out) == len(states)
            for i, f in enumerate(states):
                # whatever degrees the other rows have, row i is the 1-row
                # call bit for bit
                assert _same_terms(out.row(i), op.apply(f, t))


def _part(op, deriv):
    """The entries of op with the given derivative, as an operator."""
    return PolyDiffOperator.build(op.dim, [(key, c) for key, c
                                           in op.terms.items()
                                           if key[0] == deriv])


def test_apply_batch_lays_out_each_derivative_in_sorted_order():
    # entries built out of order: d/dp_1, then 1, then d/dp_0 p_1 t
    op = PolyDiffOperator.build(2, [(((0, 1), (1, 0, 0)), 0.5),
                                    (((0, 0), (0, 2, 1)), -1.5j),
                                    (((1, 0), (0, 1, 1)), 2.0),
                                    (((0, 0), (0, 0, 0)), 0.25)])
    rng = np.random.default_rng(765)
    batch = _stack([random_state(rng, 2, poly_degree=d, n_terms=2)
                    for d in (0, 2, 1)])
    out = op.apply_batch(batch, t=0.6)
    derivs = sorted({deriv for deriv, _ in op.terms})
    assert derivs == [(0, 0), (0, 1), (1, 0)]
    # one term per derivative and state term, derivative outer
    assert len(out.terms) == len(derivs) * len(batch.terms)
    for k, deriv in enumerate(derivs):
        part = _part(op, deriv).apply_batch(batch, t=0.6)
        for m, term in enumerate(part.terms):
            got = out.terms[k * len(batch.terms) + m]
            assert all(_same(x, y) for x, y in zip((got[0].coef, *got[1:]),
                                                   (term[0].coef, *term[1:])))


@pytest.mark.parametrize("dim", (1, 2, 3))
def test_degree_overflow_fires_past_the_bound(dim):
    rng = np.random.default_rng(760 + dim)
    for deg, c, k in itertools.product(range(3), repeat=3):
        # p_0^c d^k/dp_0^k on states up to degree deg: degree deg + c + k
        op = PolyDiffOperator.build(dim, [(((k,) + (0,) * (dim - 1),
                                            (c,) + (0,) * dim), 1.0)])
        states = [random_state(rng, dim, poly_degree=d)
                  for d in range(deg + 1)]
        batch = _stack(states)
        need = deg + c + k
        for bound in range(need + 2):
            for call in (lambda: op.apply(states[-1], max_degree=bound),
                         lambda: op.apply_batch(batch, max_degree=bound)):
                if need > bound:
                    with pytest.raises(DegreeOverflowError):
                        call()
                else:
                    call()
        # a bound lifted to the degree needed lets the action through
        (poly, *_), = op.apply(states[-1], max_degree=need).terms
        assert poly.deg == need


def test_a_coefficient_that_vanishes_at_t_gives_no_term():
    # (t - 1) p_0 + d/dp_0 at t = 1 keeps only the derivative term; at t = 1
    # the coefficient of t - 1 alone leaves the zero state on every row
    dim = 2
    vanishing = PolyDiffOperator.build(dim, [(((0, 0), (1, 0, 1)), 1.0),
                                             (((0, 0), (1, 0, 0)), -1.0)])
    derivative = PolyDiffOperator.build(dim, [(((1, 0), (0, 0, 0)), 1.0)])
    op = vanishing + derivative
    rng = np.random.default_rng(770)
    states = [random_state(rng, dim, poly_degree=d, n_terms=2)
              for d in (0, 2, 1)]
    batch = _stack(states)
    out = op.apply_batch(batch, t=1.0)
    assert len(out.terms) == 2
    want = derivative.apply_batch(batch)
    for i in range(len(states)):
        assert _same_terms(out.row(i), want.row(i))
    zero = vanishing.apply_batch(batch, t=1.0)
    assert len(zero) == len(states)
    for i in range(len(states)):
        (poly, alpha, _, Gamma), = zero.row(i).terms
        assert not poly.coef.any() and alpha == 0.0
        assert np.array_equal(Gamma, [-0.5 * np.eye(dim)])


# -- composition through the action -------------------------------------------
# The oracle is the action itself, whatever form an operator takes: (A . B) f
# must be A (B f), and [H, R] f must be H (R f) - R (H f), at sample points.

def _values(state, points):
    return np.array([state.evaluate(p) for p in points])


@pytest.mark.parametrize("t", (0.0, 0.8))
@pytest.mark.parametrize("rep", harness.default_config().reps,
                         ids=lambda rep: rep.kind)
def test_compose_acts_as_the_sequential_actions(rep, t):
    rng = np.random.default_rng(790)
    names = generator_names(rep)
    ops = {name: generator(rep, name) for name in names}
    H = ops["H"]
    for degree in (0, 1, 2):
        f = random_state(rng, rep.dim, poly_degree=degree, n_terms=2)
        points = verify.default_sample_points(f, n=6, seed=degree)
        acted = {name: op.apply(f, t) for name, op in ops.items()}
        for a, b in itertools.product(names, repeat=2):
            want = _values(ops[a].apply(acted[b], t), points)
            got = _values(ops[a].compose(ops[b]).apply(f, t), points)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        for name in names:
            first = _values(H.apply(acted[name], t), points)
            second = _values(ops[name].apply(acted["H"], t), points)
            got = _values(H.commutator(ops[name]).apply(f, t), points)
            scale = max(np.max(np.abs(first)), np.max(np.abs(second)))
            assert np.max(np.abs(got - (first - second))) <= 1e-12 * scale


@pytest.mark.parametrize("t", (math.nan, math.inf, -math.inf))
def test_a_non_finite_time_is_rejected(t):
    rep = harness.default_config().reps[0]
    f = random_state(780, rep.dim, poly_degree=1)
    op = generator(rep, "N1")
    for call in (lambda: op.apply(f, t=t),
                 lambda: op.apply_batch(f.repeat(2), t=t),
                 lambda: generator(rep, "N1", t),
                 lambda: op.at_time(t)):
        with pytest.raises(ValueError, match="t must be finite"):
            call()
