"""Galilei group ray representations: exact construction and verification.

The package builds the (1+1)/(2+1)/(3+1)-dimensional Galilei group, its Lie
algebra, the known projective phase exponents, and the explicit ray
representations on polynomial-Gaussian momentum states, then checks every
algebraic identity they are supposed to satisfy.
"""
from .group import (GalileiBatch, GalileiElement, element_from_dict,
                    element_to_dict, embed_matrix, embed_matrix_batch,
                    identity_batch, inverse, inverse_batch, multiply,
                    multiply_batch, random_element, random_element_batch,
                    stack_batches)
from .algebra import (AlgebraBatch, AlgebraElement,
                      algebra_batch_from_uniforms, basis_element, basis_names,
                      basis_rows, commutator, commutator_batch, embed_algebra,
                      embed_algebra_batch, exponential, exponential_batch,
                      jacobi_residual, jacobi_residual_batch,
                      random_algebra_batch)
from .cocycles import (DEFAULT_TAU_SEQUENCE, InfinitesimalExponentValue,
                       PhaseExponent, cocycle_residual, cocycle_residual_batch,
                       equivalence_transform, evaluate, evaluate_batch,
                       infinitesimal_exponent, infinitesimal_exponent_batch)
from .states import (DEFAULT_MAX_DEGREE, DegreeOverflowError,
                     PolyDiffOperator, PolyGaussianState, StateBatch,
                     inner_product, inner_product_batch, random_state)
from .representations import (KIND_DIMS, MOMENTUM_KINDS, RepDescriptor,
                              apply_batch, apply_time,
                              basis_generator_pairing, generator,
                              generator_names, rep_to_dict, static_generator)
from .verify import (MultiplierBatch, check_initial_condition,
                     check_time_multiplier_batch, default_sample_points,
                     expected_multiplier_exponent_batch,
                     exponent_cocycle_residual_batch, extract_multiplier,
                     extract_multiplier_batch, heisenberg_fit,
                     match_exponent_batch)
from .harness import (SuiteConfig, cocycle_sweep, config_from_dict,
                      config_to_dict, default_config, load_config, report_json,
                      run_suite)

__version__ = "0.1.0"
