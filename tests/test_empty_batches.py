"""Every public *_batch kernel takes a batch of 0 rows and returns 0 rows,
as it returns N rows for N: an empty batch is not an error."""

import numpy as np
import pytest

from galiray import algebra, cocycles, group, states, verify
from galiray.cocycles import PhaseExponent
from galiray.representations import RepDescriptor, apply_batch
from galiray.states import PolyDiffOperator

REPS = {2: RepDescriptor("nonabelian2d", gamma=1.1, lam=0.8, s=-0.4),
        3: RepDescriptor("bargmann3d", gamma=0.9)}
EXPONENTS = {1: PhaseExponent("xi_eta", 1), 2: PhaseExponent("xi1", 2),
             3: PhaseExponent("xi0", 3)}


def _rows(x) -> int:
    """The row count of a kernel's result: an array's, a batch's, or that
    of each array of a tuple, which must agree."""
    if isinstance(x, tuple):
        (count,) = {len(y) for y in x}
        return count
    return len(x)


@pytest.mark.parametrize("dim", (1, 2, 3))
def test_group_algebra_and_exponent_kernels_take_zero_rows(dim):
    g = group.random_element_batch(1, 0, dim)
    X = algebra.random_algebra_batch(2, 0, dim)
    xi = EXPONENTS[dim]
    results = {
        "random_element_batch": g,
        "identity_batch": group.identity_batch(dim, 0),
        "stack_batches": group.stack_batches([g, g]),
        "multiply_batch": group.multiply_batch(g, g),
        "inverse_batch": group.inverse_batch(g),
        "embed_matrix_batch": group.embed_matrix_batch(g),
        "random_algebra_batch": X,
        "algebra_batch_from_uniforms": algebra.algebra_batch_from_uniforms(
            np.empty((0, (dim + 1) ** 2)), dim),
        "commutator_batch": algebra.commutator_batch(X, X),
        "jacobi_residual_batch": algebra.jacobi_residual_batch(X, X, X),
        "embed_algebra_batch": algebra.embed_algebra_batch(X),
        "exponential_batch": algebra.exponential_batch(X),
        "evaluate_batch": cocycles.evaluate_batch(xi, g, g),
        "cocycle_residual_batch": cocycles.cocycle_residual_batch(xi, g, g,
                                                                  g),
        "infinitesimal_exponent_batch":
            cocycles.infinitesimal_exponent_batch(xi, X, X),
    }
    assert {name: _rows(x) for name, x in results.items()} \
        == dict.fromkeys(results, 0)


@pytest.mark.parametrize("dim", (2, 3))
def test_carrier_and_multiplier_kernels_take_zero_rows(dim):
    rep = REPS[dim]
    g = group.random_element_batch(3, 0, dim)
    f = states.random_state(4, dim, poly_degree=1)
    F = f.repeat(0)
    # p_1 d/dp_1
    H = PolyDiffOperator.build(dim, [(((1,) + (0,) * (dim - 1),
                                       (1,) + (0,) * dim), 1.0)])
    t = np.empty(0)
    results = {
        "apply_batch": apply_batch(rep, g, t, F),
        "StateBatch.substitute": F.substitute(g.W, g.v.astype(complex)),
        "StateBatch.multiply_phase": F.multiply_phase(
            const=np.empty(0, dtype=complex)),
        "PolyDiffOperator.apply_batch": H.apply_batch(F),
        "inner_product_batch": states.inner_product_batch(F, F),
        "extract_multiplier_batch": verify.extract_multiplier_batch(
            rep, g, g, t, f).omega,
        "expected_multiplier_exponent_batch":
            verify.expected_multiplier_exponent_batch(rep, g, g, t)[1],
        "match_exponent_batch": verify.match_exponent_batch(
            rep, g, g, t, verify.extract_multiplier_batch(rep, g, g, t,
                                                          f))[1],
        "exponent_cocycle_residual_batch":
            verify.exponent_cocycle_residual_batch(rep, g, g, g, t, f).T,
        "check_time_multiplier_batch": verify.check_time_multiplier_batch(
            rep, g, g, t, f),
    }
    assert {name: _rows(x) for name, x in results.items()} \
        == dict.fromkeys(results, 0)
