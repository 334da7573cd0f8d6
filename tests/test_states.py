"""Polynomial-Gaussian states, exact differential operators, inner products."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from galiray import states
from galiray.group import _dot, _rotations_2d
from galiray.states import (
    DEFAULT_MAX_DEGREE,
    DegreeOverflowError,
    PolyDiffOperator,
    PolyGaussianState,
    StateBatch,
    _basis,
    _complex,
    _gaussian_integrals,
    _integrable_root,
    _moments,
    _monomial_images,
    _PolyRows,
    _size,
    _state_widths,
    _states_from_blocks,
    inner_product,
    inner_product_batch,
    random_state,
)


def _unit(n, i):
    return tuple(int(k == i) for k in range(n))


def _monomial(dim, deriv=None, exps=None):
    """The operator p^exps d^deriv, exps over p and then t; 1 by default."""
    return PolyDiffOperator.build(dim, [((deriv or (0,) * dim,
                                          exps or (0,) * (dim + 1)), 1.0)])


def _identity(dim):
    return _monomial(dim)


def _coordinate(dim, i):
    """Multiplication by p_i."""
    return _monomial(dim, exps=_unit(dim + 1, i))


def _derivative(dim, i):
    return _monomial(dim, deriv=_unit(dim, i))


def _time(dim, power):
    """Multiplication by t**power."""
    return _monomial(dim, exps=(0,) * dim + (power,))


def _degree(state):
    """The highest degree of the state's term polynomials."""
    return max(poly.deg for poly, *_ in state.terms)


def test_dense_rows_of_a_mapping_and_their_values():
    q = {(1, 0): 0.0, (2, 0): 1.0, (1, 1): 2.0 + 1.0j, (0, 0): -3.0,
         (0, 4): 0.0}
    rows = _PolyRows.of([q], 2)
    # the zero coefficients set neither the degree nor a column
    assert rows.deg == 2 and np.count_nonzero(rows.coef) == 3
    pt = np.array([0.7, -1.3])
    want = 0.7 * 0.7 + (2.0 + 1.0j) * 0.7 * (-1.3) - 3.0
    assert abs(rows.at(pt)[0] - want) < 1e-15
    zero = _PolyRows.of([{}], 3)
    assert zero.deg == 0 and zero.coef.tolist() == [[0j]]


def test_dense_affine_substitution_by_evaluation():
    rng = np.random.default_rng(431)
    coeffs = {(2, 0): 1.5, (1, 1): -0.5 + 0.25j, (0, 3): 2.0, (0, 0): -1.0}
    q = _PolyRows.of([coeffs], 2)
    for _ in range(30):
        M = rng.normal(size=(2, 2))
        c = rng.normal(size=2)
        sub = q.substitute(M[None], c[None] + 0j)
        x = rng.normal(size=2)
        assert abs(sub.at(x)[0] - q.at(M @ x + c)[0]) < 1e-12


def test_build_checks_the_variable_counts():
    # a coefficient names dim exponents of p and one of t
    with pytest.raises(ValueError, match="dim\\+1"):
        PolyDiffOperator.build(2, [(((0, 0), (1, 0)), 1.0)])
    with pytest.raises(ValueError, match="multi-index"):
        PolyDiffOperator.build(2, [(((0,), (1, 0, 0)), 1.0)])
    # equal keys add up, and a sum that cancels leaves no entry
    op = PolyDiffOperator.build(1, [(((1,), (0, 2)), 2.0),
                                    (((1,), (0, 2)), -2.0),
                                    (((0,), (1, 0)), 0.5)])
    assert dict(op.terms) == {((0,), (1, 0)): 0.5 + 0j}


# a negative derivative order or exponent: a silent zero compose, a KeyError
# and a ZeroDivisionError in apply, before build rejected them
NEGATIVE_KEYS = {"deriv": ((-1,), (0, 0)), "p_exponent": ((0,), (-1, 0)),
                 "t_exponent": ((0,), (0, -1))}


@pytest.mark.parametrize("key", NEGATIVE_KEYS.values(), ids=NEGATIVE_KEYS)
def test_build_rejects_a_negative_order_or_exponent(key):
    with pytest.raises(ValueError, match="non-negative"):
        PolyDiffOperator.build(1, [(key, 1.0)])


def test_gaussian_evaluation_closed_form():
    Gamma = np.array([[-0.8 + 0.2j, 0.1], [0.1, -0.5 - 0.3j]])
    beta = np.array([0.3 - 0.1j, -0.7])
    alpha = 0.25 + 0.5j
    f = PolyGaussianState.gaussian(2, alpha=alpha, beta=beta, Gamma=Gamma)
    p = np.array([0.9, -0.4])
    want = np.exp(alpha + beta @ p + p @ Gamma @ p)
    assert abs(f.evaluate(p) - want) < 1e-14


def test_substitution_matches_pointwise_composition():
    rng = np.random.default_rng(432)
    f = random_state(rng, 2, poly_degree=2, n_terms=2)
    W = _rotations_2d(np.array([0.7]))[0]
    shift = np.array([0.4, -1.2])
    g = f.substitute(W, shift)
    for _ in range(20):
        p = rng.normal(size=2)
        assert abs(g.evaluate(p) - f.evaluate(W.T @ (p + shift))) < 1e-12


def test_phase_multiplication_pointwise():
    rng = np.random.default_rng(433)
    f = random_state(rng, 2, poly_degree=1)
    quad = 1j * np.array([[0.3, -0.1], [-0.1, 0.2]])
    lin = 1j * np.array([0.5, -0.9])
    const = 0.7j
    g = f.multiply_phase(quad=quad, lin=lin, const=const)
    for _ in range(20):
        p = rng.normal(size=2)
        factor = np.exp(p @ quad @ p + lin @ p + const)
        assert abs(abs(factor) - 1.0) < 1e-15
        assert abs(g.evaluate(p) - f.evaluate(p) * factor) < 1e-12


def test_center_sits_at_the_envelope_maximum():
    rng = np.random.default_rng(435)
    f = random_state(rng, 2)
    c = f.center()
    eps = 1e-6
    for i in range(2):
        dp = np.zeros(2)
        dp[i] = eps
        grad = (np.log(abs(f.evaluate(c + dp)))
                - np.log(abs(f.evaluate(c - dp)))) / (2 * eps)
        assert abs(grad) < 1e-6


def test_gamma_validation():
    with pytest.raises(ValueError):
        PolyGaussianState.gaussian(2, Gamma=np.array([[-1.0, 0.3],
                                                      [0.2, -1.0]]))
    with pytest.raises(ValueError):
        PolyGaussianState.gaussian(2, Gamma=np.array([[1.0, 0.0],
                                                      [0.0, -1.0]]))
    f = PolyGaussianState.gaussian(1, Gamma=np.array([[-0.2]]))
    # a real positive quadratic in the exponent destroys integrability
    with pytest.raises(ValueError):
        f.multiply_phase(quad=np.array([[0.5]]))


def test_a_nan_coefficient_gives_a_nan_norm():
    # the Heisenberg and initial-condition residuals are these norms
    assert _identity(2).scale(3.0 - 4.0j).norm() == 5.0
    op = _identity(2) + PolyDiffOperator.build(
        2, [(((1, 0), (1, 0, 0)), complex(math.nan, 0.0))])
    assert math.isnan(op.norm())
    assert PolyDiffOperator.build(2, []).norm() == 0.0


def test_derivative_operator_matches_finite_differences():
    rng = np.random.default_rng(436)
    f = random_state(rng, 2, poly_degree=2, n_terms=2)
    g = _derivative(2, 0).apply(f)
    eps = 1e-6
    for _ in range(10):
        p = rng.normal(size=2)
        dp = np.array([eps, 0.0])
        fd = (f.evaluate(p + dp) - f.evaluate(p - dp)) / (2 * eps)
        assert abs(g.evaluate(p) - fd) < 1e-7


def test_canonical_commutation_relation():
    for dim in (1, 2, 3):
        d = _derivative(dim, 0)
        x = _coordinate(dim, 0)
        assert (d.commutator(x) - _identity(dim)).norm() == 0.0
        if dim > 1:
            x1 = _coordinate(dim, 1)
            assert d.commutator(x1).norm() == 0.0


def test_composition_obeys_the_leibniz_rule():
    # (p d/dp)^2 = p d/dp + p^2 d^2/dp^2
    x = _coordinate(1, 0)
    d = _derivative(1, 0)
    E = x.compose(d)
    manual = E + x.compose(x).compose(d).compose(d)
    assert (E.compose(E) - manual).norm() == 0.0


def test_composition_is_associative():
    rng = np.random.default_rng(437)
    ops = []
    for k in range(3):
        deriv = _unit(2, k % 2)
        ops.append(PolyDiffOperator.build(
            2, [((deriv, exps), rng.normal())
                for exps in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0))]
            + [(((0, 0), (0, 0, 0)), 1.0)]))
    A, B, C = ops
    assert (A.compose(B).compose(C) - A.compose(B.compose(C))).norm() < 1e-12


def test_time_parameter_handling():
    op = _time(1, 1).compose(_derivative(1, 0)) + _identity(1).scale(2.0)
    # d/dt (t d/dp + 2) = d/dp
    assert (op.d_dt() - _derivative(1, 0)).norm() == 0.0
    frozen = op.at_time(3.0)
    manual = _derivative(1, 0).scale(3.0) + _identity(1).scale(2.0)
    assert (frozen - manual).norm() == 0.0


def test_apply_threads_the_time_parameter():
    rng = np.random.default_rng(438)
    f = random_state(rng, 1)
    op = _time(1, 2)
    g = op.apply(f, t=1.5)
    p = np.array([0.3])
    assert abs(g.evaluate(p) - 2.25 * f.evaluate(p)) < 1e-14


def test_degree_overflow_is_loud():
    f = PolyGaussianState.gaussian(1)
    p5 = PolyDiffOperator.build(1, [(((0,), (5, 0)), 1.0)])
    g = p5.apply(f)
    assert _degree(g) == 5
    assert DEFAULT_MAX_DEGREE == 8
    with pytest.raises(DegreeOverflowError):
        p5.apply(g)
    h = p5.apply(g, max_degree=12)
    assert _degree(h) == 10


def test_gaussian_moments_match_closed_forms():
    # f = exp(-p^2/2): <f, f> = sqrt(pi), <f, p^2 f> = sqrt(pi)/2
    f = PolyGaussianState.gaussian(1, Gamma=np.array([[-0.5]]))
    assert abs(inner_product(f, f) - math.sqrt(math.pi)) < 1e-12
    p2 = PolyDiffOperator.build(1, [(((0,), (2, 0)), 1.0)])
    assert abs(inner_product(f, p2.apply(f)) - math.sqrt(math.pi) / 2.0) < 1e-12


def test_inner_product_against_quadrature_dim1():
    scipy_integrate = pytest.importorskip("scipy.integrate")
    rng = np.random.default_rng(439)
    f = random_state(rng, 1, poly_degree=2, n_terms=2)
    g = random_state(rng, 1, poly_degree=1)

    def value(p):
        return complex(np.conj(f.evaluate([p])) * g.evaluate([p]))

    re, _ = scipy_integrate.quad(lambda p: value(p).real, -12.0, 12.0,
                                 limit=200)
    im, _ = scipy_integrate.quad(lambda p: value(p).imag, -12.0, 12.0,
                                 limit=200)
    assert abs(inner_product(f, g) - (re + 1j * im)) < 1e-8


def test_inner_product_against_quadrature_dim2():
    scipy_integrate = pytest.importorskip("scipy.integrate")
    rng = np.random.default_rng(447)
    f = random_state(rng, 2, poly_degree=1)
    g = random_state(rng, 2)

    def value(px, py):
        return complex(np.conj(f.evaluate([px, py])) * g.evaluate([px, py]))

    re, _ = scipy_integrate.dblquad(lambda y, x: value(x, y).real,
                                    -8.0, 8.0, -8.0, 8.0)
    im, _ = scipy_integrate.dblquad(lambda y, x: value(x, y).imag,
                                    -8.0, 8.0, -8.0, 8.0)
    assert abs(inner_product(f, g) - (re + 1j * im)) < 1e-6


def _values(state, P):
    """The state at each point of P (M, dim): poly(p) exp(alpha + <beta, p>
    + p^T Gamma p) summed over terms, vectorised over the points."""
    total = np.zeros(len(P), dtype=complex)
    for poly, alpha, beta, Gamma in state.terms:
        E = np.array(_basis(state.dim, poly.deg)).reshape(-1, state.dim)
        monomials = np.prod(P[:, None, :] ** E, axis=2)
        total += (monomials @ poly.coef[0]) * np.exp(
            alpha[0] + P @ beta[0] + np.einsum("mi,ij,mj->m", P, Gamma[0], P))
    return total


# dim: (half-width, points per axis).  The trapezoid rule converges
# geometrically in the step on a Gaussian whose tails end inside the grid
QUADRATURE_GRIDS = {1: (14.0, 2801), 2: (10.0, 201)}
QUADRATURE_DEGREES = ((0, 0), (1, 0), (2, 1), (1, 2), (2, 2))


def _worst_quadrature_error():
    """Largest relative distance of inner_product_batch from the trapezoid
    rule, over random states of degrees 0 to 2 with complex Gamma, the
    left one a sum of two terms."""
    rng = np.random.default_rng(901)
    worst = 0.0
    for dim, (half, n) in QUADRATURE_GRIDS.items():
        axis = np.linspace(-half, half, n)
        P = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"),
                     axis=-1).reshape(-1, dim)
        weight = (axis[1] - axis[0]) ** dim
        for df, dg in QUADRATURE_DEGREES:
            f = random_state(rng, dim, df, n_terms=2)
            g = random_state(rng, dim, dg)
            want = weight * np.sum(np.conj(_values(f, P)) * _values(g, P))
            got = inner_product_batch(f, g)[0]
            worst = max(worst, abs(got - want) / abs(want))
    return worst


def test_inner_product_batch_matches_trapezoid_quadrature():
    assert _worst_quadrature_error() < 1e-10


def test_a_conjugated_det_root_misses_the_quadrature(monkeypatch):
    # sqrt(det A) on the other sheet for a complex Gamma: no suite family
    # pins the value of an inner product (tests/test_mutants.py), so this
    # comparison is where the branch shows
    real = states._integrable_root

    def conjugated(A):
        integrable, det_root = real(A)
        return integrable, np.conj(det_root)
    monkeypatch.setattr(states, "_integrable_root", conjugated)
    assert _worst_quadrature_error() > 1e-2


def test_inner_product_symmetry_and_positivity():
    rng = np.random.default_rng(440)
    for dim in (1, 2, 3):
        f = random_state(rng, dim, poly_degree=1, n_terms=2)
        g = random_state(rng, dim, poly_degree=2)
        a = inner_product(f, g)
        b = inner_product(g, f)
        assert abs(a - np.conj(b)) < 1e-10 * max(1.0, abs(a))
        nf = inner_product(f, f)
        assert nf.real > 0.0
        assert abs(nf.imag) < 1e-12 * nf.real


def test_random_state_determinism():
    f = random_state(np.random.default_rng(5), 2, poly_degree=1, n_terms=2)
    g = random_state(np.random.default_rng(5), 2, poly_degree=1, n_terms=2)
    p = np.array([0.3, -0.8])
    assert f.evaluate(p) == g.evaluate(p)


def test_state_and_term_validation():
    with pytest.raises(ValueError):
        _identity(2).apply(PolyGaussianState.gaussian(1))
    for poly in ({(0,): 1.0}, {(0, 0, 0): 1.0}, {(-1, 2): 1.0},
                 _PolyRows.of([{(0,): 1.0}], 1),
                 _PolyRows.of([{(0, 0): 1.0}] * 2, 2)):
        with pytest.raises(ValueError, match="variable count"):
            PolyGaussianState(2, [(poly, 0.0, np.zeros(2),
                                   -0.5 * np.eye(2))])
    # a term is one row: alpha, beta and Gamma of more rows do not reshape
    for parts in (dict(alpha=np.zeros(2)), dict(beta=np.zeros((2, 2))),
                  dict(Gamma=-np.ones((2, 2, 2)) * np.eye(2))):
        with pytest.raises(ValueError):
            PolyGaussianState.gaussian(2, **parts)
    # a term of the one-row layout is taken as it is
    f = PolyGaussianState(2, [({(1, 0): 2.0}, [0.5j], np.zeros((1, 2)),
                               -0.5 * np.eye(2)[None])])
    ((poly, alpha, beta, Gamma),) = f.terms
    assert poly.coef.shape == (1, 3) and alpha.tolist() == [0.5j]
    assert beta.shape == (1, 2) and Gamma.shape == (1, 2, 2) and len(f) == 1
    with pytest.raises(ValueError):
        PolyGaussianState.gaussian(2).evaluate(np.zeros(3))


# name: the gaussian() arguments of a non-finite term
NON_FINITE_STATES = {
    "nan_beta": dict(beta=[math.nan, 0.0]),
    "inf_alpha": dict(alpha=math.inf),
    "nan_poly": dict(poly={(0, 0): 1.0, (1, 0): math.nan}),
    "inf_Gamma": dict(Gamma=np.array([[-math.inf, 0.0], [0.0, -1.0]])),
    "nan_Gamma": dict(Gamma=np.array([[-1.0, math.nan], [math.nan, -1.0]])),
}


@pytest.mark.parametrize("parts", NON_FINITE_STATES.values(),
                         ids=NON_FINITE_STATES)
def test_non_finite_states_are_rejected(parts):
    with pytest.raises(ValueError):
        PolyGaussianState.gaussian(2, **parts)


def _accretive(rng, n, dim, im_scale):
    """n random symmetric matrices with Re A positive-definite and Im A
    symmetric of entries up to about im_scale."""
    B = rng.normal(size=(n, dim, dim))
    C = rng.normal(size=(n, dim, dim)) * im_scale
    return (B @ B.swapaxes(1, 2) + 0.1 * np.eye(dim)
            + 0.5j * (C + C.swapaxes(1, 2)))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_the_pivot_root_is_the_branch_of_the_eigenvalue_roots(dim):
    rng = np.random.default_rng(800 + dim)
    A = np.concatenate([_accretive(rng, 400, dim, s)
                        for s in (0.0, 1.0, 30.0, 1e3)])
    integrable, root = _integrable_root(A)
    want = np.prod(np.sqrt(np.linalg.eigvals(A)), axis=1)
    assert integrable.all()
    assert np.max(np.abs(root - want) / np.abs(want)) < 1e-10
    # where the eigenvalue arguments sum past +-pi, the principal root of
    # det A is the other branch, and the pivot root is still right
    past = np.abs(np.angle(np.linalg.eigvals(A)).sum(axis=1)) > math.pi
    if dim < 3:
        # each argument is below pi/2 in modulus
        assert not past.any()
        return
    assert past.sum() > 10
    principal = np.sqrt(np.linalg.det(A[past]))
    assert np.allclose(principal, -want[past], rtol=1e-8)
    assert np.allclose(root[past], want[past], rtol=1e-10)


def _re_rows():
    """Re A rows of every kind: definite, indefinite, singular, and with a
    NaN or an inf, in dims 2 and 3."""
    rows = {2: [[[2.0, 0.5], [0.5, 1.0]], [[1.0, 2.0], [2.0, 1.0]],
                [[-1.0, 0.0], [0.0, 3.0]], [[1.0, 1.0], [1.0, 1.0]],
                [[1.0, 2.0], [2.0, 4.0]], [[1.0, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [0.0, 1.0]], [[math.nan, 0.0], [0.0, 1.0]],
                [[1.0, math.inf], [math.inf, 1.0]],
                [[math.inf, 0.0], [0.0, 1.0]]],
            3: [[[4.0, 2.0, 2.0], [2.0, 1.0, 1.0], [2.0, 1.0, 3.0]],
                [[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 0.5]],
                [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                [[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]],
                [[1.0, 0.0, 0.0], [0.0, math.nan, 0.0], [0.0, 0.0, 1.0]]]}
    rng = np.random.default_rng(830)
    for dim in (2, 3):
        B = rng.normal(size=(200, dim, dim))
        # from clearly definite to clearly indefinite
        shift = np.linspace(-2.0, 2.0, 200)[:, None, None] * np.eye(dim)
        yield dim, np.concatenate((np.array(rows[dim]),
                                   B @ B.swapaxes(1, 2) / dim + shift))


def test_the_integrability_flag_is_sylvester_on_every_kind_of_row():
    for dim, re_a in _re_rows():
        im_a = np.zeros_like(re_a)
        im_a[:, 0, -1] = im_a[:, -1, 0] = 0.3
        finite = np.isfinite(re_a).all(axis=(1, 2))
        eigs = np.linalg.eigvalsh(np.where(finite[:, None, None], re_a,
                                           np.eye(dim)))
        want = finite & (eigs[:, 0] > 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            integrable, root = _integrable_root(re_a + 1j * im_a)
        assert np.array_equal(integrable, want)
        assert 0 < want.sum() < len(want) - 1
        assert np.isfinite(root).all() and (root[~integrable] == 1.0).all()


def test_a_non_finite_imaginary_part_is_not_integrable():
    A = np.tile(np.eye(2, dtype=complex), (4, 1, 1))
    A.imag[:, 0, 1] = A.imag[:, 1, 0] = (0.5, math.nan, math.inf, -math.inf)
    integrable, _ = _integrable_root(A)
    assert integrable.tolist() == [True, False, False, False]


def test_a_non_integrable_row_gives_nan_without_a_warning():
    Gamma = np.array([-0.5 * np.eye(2), 0.5 * np.eye(2),
                      np.diag([-0.5, 0.0]), np.diag([-0.5, math.nan]),
                      np.full((2, 2), math.nan)], dtype=complex)
    poly = _PolyRows.of([{(2, 0): 1.0}] * len(Gamma), 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, integrable = _gaussian_integrals(
            poly, np.zeros(len(Gamma), dtype=complex),
            np.zeros((len(Gamma), 2), dtype=complex), Gamma)
    assert integrable.tolist() == [True, False, False, False, False]
    # the second moment of N(0, 1) times 2 pi
    assert abs(value[0] - 2.0 * math.pi) < 1e-14
    assert np.isnan(value[1:]).all()


def test_an_infinite_gamma_row_gives_nan_in_its_own_row_only():
    # -2 Gamma is taken part by part: a complex product by -2 would take
    # 0 * inf of the infinite real part, warn, and raise under the tests'
    # filter
    f = random_state(450, 2, poly_degree=1)
    F = f.repeat(3)
    (poly, alpha, beta, Gamma), = F.terms
    Gamma = Gamma.copy()
    Gamma[1] = np.diag([-0.5, -math.inf])
    G = StateBatch(2, [(poly, alpha, beta, Gamma)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = inner_product_batch(F, G)
    assert np.isnan(values[1].real) and np.isnan(values[1].imag)
    want = inner_product(f, f)
    assert values[0] == want and values[2] == want


def test_a_state_needs_a_term():
    # the zero state is one term with a zero polynomial, as apply_batch
    # writes it
    with pytest.raises(ValueError, match="at least one term"):
        PolyGaussianState(2, [])
    with pytest.raises(ValueError, match="at least one term"):
        inner_product(PolyGaussianState(2, iter(())), random_state(451, 2))
    zero = PolyGaussianState.gaussian(2, poly={})
    assert len(zero) == 1
    assert inner_product(zero, random_state(451, 2)) == 0


# -- the moment table against the recursion it replaces ----------------------

def _reference_central_moment(Sigma, exps, cache):
    """E[q^exps] of a centered Gaussian with complex covariance Sigma, per
    matrix of the stack Sigma (N, dim, dim): one product per term of the
    recursion over the first variable exps uses."""
    if exps in cache:
        return cache[exps]
    total_deg = sum(exps)
    total = np.full(len(Sigma), complex(total_deg == 0))
    if total_deg % 2 == 0 and total_deg > 0:
        a = next(i for i, e in enumerate(exps) if e > 0)
        rest = list(exps)
        rest[a] -= 1
        for b, count in enumerate(rest):
            if count > 0:
                nxt = list(rest)
                nxt[b] -= 1
                total = total + count * Sigma[:, a, b] * \
                    _reference_central_moment(Sigma, tuple(nxt), cache)
    cache[exps] = total
    return total


def _reference_substitute(poly, M, c):
    """_PolyRows.substitute with one product per coefficient column."""
    if poly.deg == 0:
        return poly
    lines = np.empty(c.shape + (poly.dim + 1,), dtype=complex)
    lines[..., 0], lines[..., 1:] = c, M
    images = _monomial_images(lines, poly.deg)
    out = np.zeros(images.shape[::2], dtype=complex)
    for k in range(out.shape[1]):
        out += poly.coef[:, k, None] * images[:, k]
    return _PolyRows(poly.dim, poly.deg, out)


def _reference_gaussian_integrals(poly, alpha, beta, Gamma):
    """_gaussian_integrals with one product per monomial of the moment sum
    and the moments from the recursion."""
    n, dim = beta.shape
    A = _complex(-2.0 * Gamma.real, -2.0 * Gamma.imag)
    integrable, det_root = _integrable_root(A)
    eye = np.eye(dim)
    A = np.where(integrable[:, None, None], A, eye)
    m = np.linalg.solve(A, beta[:, :, None])[:, :, 0]
    Sigma = np.linalg.inv(A)
    prefactor = ((2.0 * math.pi) ** (dim / 2.0) / det_root
                 * np.exp(alpha + 0.5 * _dot(beta, m)))
    shifted = _reference_substitute(poly, np.broadcast_to(eye, A.shape),
                                    m).coef
    cache: dict = {}
    total = np.zeros(n, dtype=complex)
    for k, exps in enumerate(_basis(dim, poly.deg)):
        total = total + shifted[:, k] * _reference_central_moment(
            Sigma, exps, cache)
    out = prefactor * total
    out[~integrable] = complex(math.nan, math.nan)
    return out


def _reference_inner_products(F, G):
    total = np.zeros(len(F), dtype=complex)
    for pf, af, bf, Gf in F.terms:
        for pg, ag, bg, Gg in G.terms:
            total = total + _reference_gaussian_integrals(
                pf.conj_times(pg), af.conjugate() + ag, bf.conjugate() + bg,
                Gf.conjugate() + Gg)
    return total


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_the_moment_table_is_the_recursion_bit_for_bit(dim):
    # two degree-8 states reach degree 16 under DEFAULT_MAX_DEGREE
    deg = 2 * DEFAULT_MAX_DEGREE
    rng = np.random.default_rng(460 + dim)
    Sigma = _complex(rng.normal(size=(6, dim, dim)),
                     rng.normal(size=(6, dim, dim)))
    Sigma[2, dim - 1, 0] = complex(math.nan, 0.5)
    Sigma[4, 0, 0] = complex(0.5, math.nan)
    got = _moments(Sigma, deg)
    cache: dict = {}
    for k, exps in enumerate(_basis(dim, deg)):
        want = _reference_central_moment(Sigma, exps, cache)
        assert got[:, k].tobytes() == want.tobytes(), exps
    # every lower degree reads the same table as a prefix
    for d in range(deg):
        assert _moments(Sigma, d).tobytes() == np.ascontiguousarray(
            got[:, :_size(dim, d)]).tobytes()


def _draw_batch(rng, dim, degrees, n_terms):
    n_normal, n_uniform = _state_widths(dim, max(degrees), n_terms)
    return _states_from_blocks(rng.standard_normal((len(degrees), n_normal)),
                               rng.random((len(degrees), n_uniform)), dim,
                               np.array(degrees), n_terms)


@pytest.mark.parametrize("dim, max_degree", [(1, 8), (2, 8), (3, 4)])
@pytest.mark.parametrize("n_terms", [(1, 1), (1, 2), (2, 2)])
def test_inner_products_equal_the_per_monomial_loop(dim, max_degree,
                                                    n_terms):
    """Rows of mixed degrees up to max_degree per side (degree 8 in dim 3
    would take tens of MB per row), a NaN beta and a NaN polynomial
    coefficient among them: every value has the repr it had with one
    product per monomial and the moment recursion."""
    rng = np.random.default_rng(470 + 10 * dim + sum(n_terms))
    degrees = list(range(max_degree + 1))
    F = _draw_batch(rng, dim, degrees, n_terms[0])
    G = _draw_batch(rng, dim, degrees[::-1], n_terms[1])
    (poly, alpha, beta, Gamma), *rest = G.terms
    beta, coef = beta.copy(), poly.coef.copy()
    beta[1, 0] = math.nan
    coef[3, -1] = complex(math.nan, 1.0)
    G = StateBatch(dim, [(_PolyRows(dim, poly.deg, coef), alpha, beta,
                          Gamma), *rest])
    got = inner_product_batch(F, G)
    want = _reference_inner_products(F, G)
    assert list(map(repr, got.tolist())) == list(map(repr, want.tolist()))
    assert np.isnan(got[[1, 3]]).all()
    assert np.isfinite(np.delete(got, [1, 3])).all()


def test_a_degree_8_inner_product_in_dim_3_stays_within_its_memory():
    """One inner product of two degree-8 states in dimension 3 shifts a
    degree-16 polynomial: its substitution forms a (1, 969, 969) complex
    block of monomial images, 15 MB, which the coefficients multiply in
    place.  The traced peak stays below 34.4 MB, what it took before the
    block was formed in one product."""
    f, g = random_state(1, 3, poly_degree=8), random_state(2, 3, poly_degree=8)
    inner_product(f, g)  # the product and moment tables, built once
    tracemalloc.start()
    try:
        inner_product(f, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 34.4e6
