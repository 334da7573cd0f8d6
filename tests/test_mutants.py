"""The mutant kill matrix: every formula the paper fixes, and every residual
the suite reduces, can fail the suite.

MUTANTS is the one way a test puts a fault into the suite.  An entry holds
its patches, each (owner, attribute, replace) binding replace(original) in
place of owner.attribute, and the exact set of entries that run_suite on
SMALL then fails (documented exceptions aside); nan names those of them
whose max_residual is NaN, and check, if set, asserts on the report what a
set cannot say.  A patch on a class, or on the module that defines the
attribute, binds wherever a galiray module holds the original, so a
function imported by name (multiply_batch into harness and verify, say) is
replaced there too; a patch on any other module binds that module's name
alone, so that the fault reaches one side of one family.  Every family of
harness.FAMILIES is failed by some entry.

The mutants of SURVIVORS change the action or the generators in a way that
no family of the suite can see yet: they are strict xfails until the action
is tied to the paper's generators (ROADMAP item 5), and the conjugated
sqrt(det A) until a check pins the value of an inner product (item 16).
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from galiray import (algebra, cocycles, group, harness, representations,
                     states, verify)
from galiray.algebra import AlgebraBatch
from galiray.group import (GalileiBatch, GalileiElement, _dot, _matvec,
                           _rotation_angles)
from galiray.representations import MOMENTUM_KINDS, _term
from galiray.states import PolyDiffOperator, StateBatch

MODULES = (group, algebra, cocycles, states, representations, verify,
           harness)

# pairs and time cases past the n_boost = 20 pure boosts, so that every
# kind of case runs
SMALL = dict(n_triples=30, n_pairs=8, n_time_cases=24, n_unitarity_cases=6,
             n_time_zero_cases=3, n_exponent_triples=4)
CFG = harness.default_config(**SMALL)
FAMILIES = {family.name: family for family in harness.FAMILIES}


def _checks(*names) -> frozenset:
    """The checks of each name that is a family of harness.FAMILIES, on
    SMALL, and each other name as a check of its own."""
    return frozenset(check for name in names for check in (
        [check for check, _, _ in FAMILIES[name].subjects(CFG)]
        if name in FAMILIES else [name]))


def _each(prefix) -> tuple:
    """The check prefix_<kind> of each momentum kind."""
    return tuple(f"{prefix}_{kind}" for kind in MOMENTUM_KINDS)


def _mutant(*patches, fails, nan=(), check=None) -> tuple:
    """An entry of MUTANTS, (patches, fails, nan, check); fails and nan name
    families or checks."""
    return patches, _checks(*fails), _checks(*nan), check


def _after(change, at=None):
    """replace: the original, but call number at (from 0, over the whole
    suite), or every call if at is None, returns change(result, *args)."""
    def replace(real):
        calls = itertools.count()

        def mutant(*args, **kwargs):
            out = real(*args, **kwargs)
            return change(out, *args) if at in (None, next(calls)) else out
        return mutant
    return replace


def _before(change):
    """replace: the original, called on change(*args) in place of args."""
    return lambda real: lambda *args, **kwargs: real(*change(*args),
                                                     **kwargs)


# -- the wrong formulas ------------------------------------------------------

def _exponent(change):
    """The patch of evaluate_batch by change(value, xi, r, s)."""
    return cocycles, "evaluate_batch", _after(change)


def _formula(name, wrong):
    """The patch of evaluate_batch with the exponent name computed by
    wrong(xi, r, s)."""
    return _exponent(lambda value, xi, r, s: wrong(xi, r, s)
                     if xi.name == name else value)


def _xi0_eta_sign(xi, r, s):
    # the s.eta term of xi0 with the wrong sign
    Wv = _matvec(r.W, s.v)
    return xi.gamma * 0.5 * (_dot(r.u, Wv) - _dot(r.v, _matvec(r.W, s.u))
                             - s.eta * _dot(r.v, Wv))


def _xi1_unrotated(xi, r, s):
    # v_r ^ v_s without the rotation of v_s
    return xi.lam * 0.5 * (r.v[:, 0] * s.v[:, 1] - r.v[:, 1] * s.v[:, 0])


def _xi2_own_eta(xi, r, s):
    # each angle times its own element's eta
    return xi.S * (_rotation_angles(r.W) * r.eta
                   - _rotation_angles(s.W) * s.eta)


def _xi_eta_printed(xi, r, s):
    # the printed eta_r variant of the a1 part
    ur, vr, er = r.u[:, 0], r.v[:, 0], r.eta
    us, vs, es = s.u[:, 0], s.v[:, 0], s.eta
    return 0.5 * (xi.a1 * (ur * vs - us * vr + er * vr * vs)
                  + xi.a2 * (ur * es - us * er - er * es * vr))


def _xi_t_unrotated(xi, r, s):
    # v_r . v_s without the rotation of v_s
    return -xi.gamma * _dot(r.v, s.v) * xi.t


def _phase_part(k, change):
    """The patch of _phase_parts with its part k (quad, lin, const) changed
    by change(part, r)."""
    return representations, "_phase_parts", _after(
        lambda parts, rep, r: (*parts[:k], change(parts[k], r),
                               *parts[k + 1:]))


def _acted(change):
    """The patch of harness's apply_batch alone by change(out, rep, r, t,
    states): the action as the carrier families see it."""
    return harness, "apply_batch", _after(change)


def _leaking_at_array_t(out, rep, r, t, states):
    # a time phase left on a t of zeros, which time_zero passes as an array
    if np.ndim(t) == 0:
        return out
    return out.multiply_phase(lin=np.full((len(out), out.dim), 1e-6j))


def _diverging_row_0(out, *args):
    quad = np.zeros((len(out), out.dim, out.dim), dtype=complex)
    quad[0] = 3.0 * np.eye(out.dim)
    return out.multiply_phase(quad=quad)


def _alpha_shifted(out, *args):
    return out.multiply_phase(const=np.full(len(out), 1e-6))


def _generator(change, name="_momentum_generator"):
    """The patch of a generator function (rep, name) -> op by change(op,
    rep, name)."""
    return representations, name, _after(change)


def _plus(op, c):
    return op + PolyDiffOperator.build(op.dim, [_term(op.dim, c)])


def _added_to_boosts(term):
    """The operator term(rep, i), a _term entry, added to each N_i."""
    return _generator(lambda op, rep, name: op + PolyDiffOperator.build(
        rep.dim, [term(rep, int(name[1:]) - 1)])
        if name.startswith("N") else op)


def _lambda_flipped(rep, i):
    # minus twice the lambda term of N_i, which only dim 2 has
    if rep.dim != 2:
        return _term(rep.dim, 0.0)
    return _term(2, (1j if i == 0 else -1j) * rep.lam / rep.gamma,
                 p=(1 - i,))


def _composed(change):
    """The patch of verify._term_mismatch with change applied to the
    composed state U_t(r) U_t(s) f, its first argument."""
    return verify, "_term_mismatch", _before(
        lambda composed, direct: (change(composed), direct))


def _beta_shifted(composed):
    (poly, alpha, beta, Gamma), *rest = composed.terms
    return StateBatch(composed.dim, [(poly, alpha, beta + 1e-6, Gamma), *rest])


def _zeros(real):
    # a zero per row of the last argument, a batch of elements
    return lambda *args: np.zeros(len(args[-1]))


# -- non-finite inputs and results --------------------------------------------

def _nan_eta_of_r(rep, r, *args):
    r = r[:]
    r.eta = _row(r.eta)
    return (rep, r, *args)


def _nan_mid_row(b, *args):
    """An element or algebra draw with NaN in its middle row: eta and v of
    an element, the time of an algebra element."""
    mid = len(b) // 2
    if isinstance(b, AlgebraBatch):
        b.time[mid] = math.nan
        return b
    eta, v = b.eta.copy(), b.v.copy()
    eta[mid] = v[mid] = math.nan
    return GalileiBatch(b.W, eta, v, b.u)


# a validated element cannot hold a NaN: build the rows unvalidated, and the
# products of multiply, which check that they are finite, too
UNVALIDATED = ((GalileiElement, "__post_init__",
                lambda real: lambda self: None),
               (group, "_trusted", lambda real: lambda b: b.element(0)))


def _nan_constant(state, *args):
    """A state with NaN for the constant coefficient of its first term's
    polynomial."""
    poly = state.terms[0][0]
    poly.coef = poly.coef.copy()
    poly.coef[:, 0] = np.nan
    return state


def _row(values, i=0, x=math.nan):
    values = values.copy()
    values[i] = x
    return values


def _part(k, i=0, x=math.nan):
    """A change of a result of parts, a tuple or the rows of an array: its
    part k with x in row i."""
    return lambda out, *args: (*out[:k], _row(out[k], i, x), *out[k + 1:])


def _field(name):
    """A change of a dataclass result: its field name with NaN in row 0."""
    return lambda out, *args: dataclasses.replace(
        out, **{name: _row(getattr(out, name))})


def _underflow_then_nan(z, *args):
    # an exp that underflows leaves errno at ERANGE, after which Python's
    # abs of a NaN complex raises OverflowError; the residual of a NaN row
    # must come out NaN all the same
    np.exp(np.array([-1000 + 1j]))
    return _row(z)


def _nan_in(family, owner, attribute, change, at=0):
    """The entry of the patch by change at call number at, whose NaN fails
    the first check of family alone."""
    first = FAMILIES[family].subjects(CFG)[0][0]
    return _mutant((owner, attribute, _after(change, at)), fails=(first,),
                   nan=(first,))


# -- what a set cannot say ----------------------------------------------------

DETAIL_TOLS = {"max_constancy_spread": "multiplier_spread",
               "max_modulus_error": "multiplier_modulus",
               "max_matched_exponent_residual": "multiplier_match",
               "max_exponent_cocycle_residual": "exponent_cocycle"}


def _multiplier_details(*failing):
    """check: each multiplier entry fails exactly the named details."""
    def check(entries):
        for name in _each("multiplier"):
            details = entries[name]["details"]
            assert {key for key, tol in DETAIL_TOLS.items()
                    if not details[key] < harness.DEFAULT_TOLERANCES[tol]
                    } == set(failing)
    return check


def _nan_triples(entries):
    # r's eta enters a 2D triple only through the quadratic phase of the
    # outermost operator: its residual stays finite, and the check fails
    # on the triple's constancy spread, held to the pairs' tolerance
    for kind in MOMENTUM_KINDS:
        details = entries[f"multiplier_{kind}"]["details"]
        assert math.isnan(details["max_constancy_spread"])
        assert math.isnan(details["max_exponent_cocycle_residual"]) == (
            kind == "bargmann3d")


def _infinitesimal(n_unconverged, failing_pairs):
    def check(entries):
        details = entries["infinitesimal_exponents"]["details"]
        assert details["n_unconverged"] == n_unconverged
        assert sorted((p["x"], p["y"]) for p in details["failing_pairs"]) \
            == sorted(failing_pairs)
    return check


def _raising(real):
    def raises(*args, **kwargs):
        raise RuntimeError("injected fault")
    return raises


def _errors(entries):
    # the entry of a check whose run raised names the exception; the
    # documented exception heisenberg_position1d is none then
    for name in _checks("heisenberg"):
        assert entries[name]["details"] == {
            "error": "RuntimeError: injected fault"}
        assert entries[name]["documented_exception"] is False


def _time_dependent_p1(entries):
    # only the demand that a momentum kind's P_i be free of t sees it
    for name in _each("heisenberg"):
        assert entries[name]["max_residual"] == 0.0
        assert entries[name]["details"]["time_independent"]["P1"] is False


XI_T_COCYCLES = tuple(check for check in _checks("cocycles")
                      if check.startswith("cocycle_xi_t_"))
SWEEPS = ("group_axioms", "algebra", "cocycles", "multipliers")

MUTANTS = {
    # the exponents
    "xi0_eta_sign": _mutant(_formula("xi0", _xi0_eta_sign),
                            fails=("multipliers", "cocycle_xi0_dim3")),
    "xi1_unrotated": _mutant(_formula("xi1", _xi1_unrotated), fails=(
        "multiplier_nonabelian2d", "cocycle_xi1_dim2")),
    "xi1_negated": _mutant(_exponent(
        lambda value, xi, r, s: -value if xi.name == "xi1" else value),
        fails=("multiplier_nonabelian2d",)),
    "xi2_own_eta": _mutant(_formula("xi2", _xi2_own_eta),
                           fails=("cocycle_xi2_dim2",)),
    "xi_eta_printed": _mutant(_formula("xi_eta", _xi_eta_printed),
                              fails=("cocycle_xi_eta_dim1",)),
    "xi_t_unrotated": _mutant(_formula("xi_t", _xi_t_unrotated),
                              fails=("time_multiplier", *XI_T_COCYCLES)),
    "exponents_scaled": _mutant(
        _exponent(lambda value, *args: 1.01 * value),
        fails=("infinitesimal", "multipliers", "time_multiplier"),
        check=_infinitesimal(0, [(f"{a}{i}", f"{b}{i}") for i in (1, 2, 3)
                                 for a, b in (("b", "d"), ("d", "b"))])),
    # the phases of the action
    "phase_quad_doubled": _mutant(
        _phase_part(0, lambda quad, r: 2.0 * quad),
        fails=("multipliers", "time_multiplier")),
    "phase_lin_boosted": _mutant(
        _phase_part(1, lambda lin, r: lin + 0.37 * r.v),
        fails=("multipliers",)),
    "phase_const_scaled": _mutant(
        _phase_part(2, lambda const, r: 1.5 * const),
        fails=("multipliers",)),
    "time_phase_doubled": _mutant(
        (representations, "_time_phase", _before(
            lambda r, t, states: (r, 2.0 * np.asarray(t, dtype=float),
                                  states))),
        fails=("time_multiplier",)),
    "acted_state_diverging": _mutant(_acted(_diverging_row_0),
                                     fails=("unitarity",),
                                     nan=("unitarity",)),
    "acted_alpha_shifted": _mutant(_acted(_alpha_shifted),
                                   fails=("unitarity",)),
    "time_phase_left_at_t_zero": _mutant(_acted(_leaking_at_array_t),
                                         fails=("time_zero",)),
    # the group and the algebra
    "multiply_unrotated": _mutant(
        # v_rs = v_s + v_r, the rotation of v_s dropped
        (group, "multiply_batch", _after(
            lambda rs, r, s: GalileiBatch(rs.W, rs.eta, s.v + r.v, rs.u))),
        fails=("multipliers", "time_multiplier", *XI_T_COCYCLES,
               "cocycle_xi0_dim3", "cocycle_xi1_dim2", "group_axioms_dim2",
               "group_axioms_dim3", "algebra_dim2", "algebra_dim3")),
    "exponential_quadratic": _mutant(
        # a translation that grows with the square of the flow parameter
        (algebra, "exponential_batch", _after(lambda g, X: GalileiBatch(
            g.W, g.eta, g.v, g.u + 0.1 * X.time[:, None] * X.trans))),
        fails=("algebra",)),
    "exponential_driftless": _mutant(
        # u without tau phi_2(R) d (tau d / 2 in dim 1), which is u of the
        # same X with trans zeroed, taken from the unpatched exponential
        (harness, "exponential_batch", _after(lambda g, X: GalileiBatch(
            g.W, g.eta, g.v, g.u - algebra.exponential_batch(AlgebraBatch(
                X.rot, 0.0 * X.trans, X.boost, X.time)).u))),
        fails=("algebra",)),
    # the Gaussian integral and the polynomial substitution
    "det_root_pivot_branch": _mutant(
        # sqrt(det A) as the product of the pivots' roots, each taken on
        # the branch cut along the negative imaginary axis: a root that
        # jumps inside the set Re A > 0, where the true one is continuous
        (states, "_integrable_root", _after(lambda out, A: (out[0], np.where(
            A[:, 0, 0].imag < 0.0, -1.0, 1.0) * out[1]))),
        fails=("unitarity",)),
    # every polynomial substitution q -> M q + c without its shift c
    "g_substitution_unshifted": _mutant(
        (states._PolyRows, "substitute", _before(
            lambda poly, M, c: (poly, M, 0 * c))),
        fails=("unitarity",)),
    # the multiplier's prediction and extraction
    "rotation_wrap_dropped": _mutant(
        (verify, "_rotation_wrap", _zeros),
        fails=("multiplier_schrodinger2d", "multiplier_nonabelian2d")),
    "xi_t_negated": _mutant(
        (verify, "_xi_t", _after(lambda value, *args: -value)),
        fails=("time_multiplier",)),
    "coboundary_dropped_from_the_prediction": _mutant(
        (verify, "_coboundary_phi", _zeros),
        fails=("multiplier_bargmann3d",)),
    "composed_beta_shifted": _mutant(
        _composed(_beta_shifted),
        fails=("time_zero", "multipliers", "time_multiplier"),
        check=_multiplier_details("max_constancy_spread")),
    # a scale changes |omega|, so the match fails with the modulus; it
    # cancels in the time multiplier's omega_t / omega_0
    "composed_scaled": _mutant(
        _composed(_alpha_shifted), fails=("time_zero", "multipliers"),
        check=_multiplier_details("max_modulus_error",
                                  "max_matched_exponent_residual")),
    "product_as_s_r": _mutant(
        (verify, "multiply_batch", _before(lambda r, s: (s, r))),
        fails=("multipliers", "time_multiplier")),
    "rs_and_sq_as_s_r": _mutant(
        (verify, "multiply", _before(lambda r, s: (s, r))),
        fails=("multipliers",),
        check=_multiplier_details("max_exponent_cocycle_residual")),
    # the generators: each term of N_i, H, P_i's freedom of t, and the
    # static N_i
    "boost_time_term_doubled": _mutant(
        _added_to_boosts(lambda rep, i: _term(rep.dim, -1j, p=(i,), t=1)),
        fails=_each("heisenberg")),
    "boost_gamma_term_scaled": _mutant(
        _added_to_boosts(lambda rep, i: _term(rep.dim, 0.1 * rep.gamma,
                                              d=(i,))),
        fails=_each("heisenberg") + _each("initial_conditions")),
    "boost_lambda_term_flipped": _mutant(
        _added_to_boosts(_lambda_flipped),
        fails=("initial_conditions_nonabelian2d",)),
    "hamiltonian_scaled": _mutant(
        _generator(lambda op, rep, name: op.scale(1.1) if name == "H"
                   else op),
        fails=_each("heisenberg")),
    "momentum_time_dependent": _mutant(
        # P1 + N1 obeys the linear law as N1 does; the patched generator
        # gives N1 unchanged
        _generator(lambda op, rep, name: op + representations
                   ._momentum_generator(rep, "N1") if name == "P1" else op),
        fails=_each("heisenberg") + _each("initial_conditions"),
        check=_time_dependent_p1),
    "static_boosts_scaled": _mutant(
        _generator(lambda op, rep, name: op.scale(1.1)
                   if name.startswith("N") else op, "static_generator"),
        fails=("initial_conditions",)),
    # an exception inside one family fails each of its checks alone
    "heisenberg_fit_raises": _mutant(
        (harness, "heisenberg_fit", _raising), fails=("heisenberg",),
        nan=("heisenberg",), check=_errors),
    # NaN inputs
    "nan_eta_of_r_in_the_triples": _mutant(
        (harness, "exponent_cocycle_residual_batch", _before(_nan_eta_of_r)),
        *UNVALIDATED, fails=("multipliers",), nan=("multipliers",),
        check=_nan_triples),
    "nan_rows_in_the_sweeps": _mutant(
        (harness, "random_element_batch", _after(_nan_mid_row)),
        (harness, "algebra_batch_from_uniforms", _after(_nan_mid_row)),
        *UNVALIDATED, fails=SWEEPS, nan=SWEEPS),
    # the drawn state is the one state of the multiplier families; its
    # degree-0 polynomial passes substitution as the same object, which
    # must not hide a NaN
    "nan_in_the_drawn_state": _mutant(
        (harness, "random_state", _after(_nan_constant)),
        fails=("multipliers", "time_multiplier"),
        nan=("multipliers", "time_multiplier")),
    # NaN and unconverged results of the reductions, each in row 0 of the
    # first call unless it says otherwise
    "nan_infinitesimal": _nan_in("infinitesimal", cocycles,
                                 "infinitesimal_exponent_batch", _part(0)),
    "unconverged_pair": _mutant(
        (cocycles, "infinitesimal_exponent_batch", _after(
            _part(2, 7, False))),
        fails=("infinitesimal",), check=_infinitesimal(1, [])),
    "nan_unitarity": _nan_in("unitarity", harness, "inner_product_batch",
                             lambda z, *args: _row(z)),
    # every call
    "nan_inner_product_after_an_underflow": _mutant(
        (harness, "inner_product_batch", _after(_underflow_then_nan)),
        fails=("unitarity",), nan=("unitarity",)),
    "nan_time_zero": _nan_in("time_zero", harness, "_term_mismatch",
                             _part(1)),
    "nan_multiplier_spread": _nan_in(
        "multipliers", harness, "extract_multiplier_batch",
        _field("constancy_spread")),
    "nan_multiplier_modulus": _nan_in(
        "multipliers", harness, "extract_multiplier_batch",
        _field("modulus_error")),
    "nan_multiplier_match": _nan_in(
        "multipliers", harness, "match_exponent_batch", _part(1)),
    # the rows of the triples' residuals: cocycle, spread and modulus
    "nan_multiplier_cocycle": _nan_in(
        "multipliers", harness, "exponent_cocycle_residual_batch",
        _part(0)),
    "nan_multiplier_cocycle_spread": _nan_in(
        "multipliers", harness, "exponent_cocycle_residual_batch",
        _part(1)),
    "nan_multiplier_cocycle_modulus": _nan_in(
        "multipliers", harness, "exponent_cocycle_residual_batch",
        _part(2)),
    # case 0 is a pure boost, case 20 the first general pair
    "nan_time_multiplier_boost": _nan_in(
        "time_multiplier", harness, "check_time_multiplier_batch",
        lambda out, *args: _row(out, 0)),
    "nan_time_multiplier_general": _nan_in(
        "time_multiplier", harness, "check_time_multiplier_batch",
        lambda out, *args: _row(out, 20)),
    # both residuals are the largest coefficient of an operator difference:
    # the heisenberg family takes the suite's first 50 norms, and the
    # initial conditions the rest
    "nan_heisenberg": _nan_in("heisenberg", PolyDiffOperator, "norm",
                              lambda *args: math.nan),
    "nan_initial_condition_points": _nan_in(
        "initial_conditions", PolyDiffOperator, "norm",
        lambda *args: math.nan, at=50),
    "nan_initial_conditions": _nan_in(
        "initial_conditions", harness, "check_initial_condition",
        lambda *args: math.nan),
}

ITEM_5 = ("ROADMAP item 5: no check ties the action to the paper's "
          "generators yet")
SURVIVORS = {
    # every action times e^{0.37 i eta_r}, a character of the group
    "a_action_character": (representations, "apply_batch", _after(
        lambda out, rep, r, t, states: out.multiply_phase(
            const=0.37j * r.eta))),
    "b_energy_shift": _generator(
        lambda op, rep, name: _plus(op, 0.37) if name == "H" else op),
    "c_momentum_negated": _generator(
        lambda op, rep, name: op.scale(-1.0) if name.startswith("P")
        else op),
    "d_spin_shift": _generator(
        lambda op, rep, name: _plus(op, 1.3j) if name == "M" else op),
    "e_rotations_negated_3d": _generator(
        lambda op, rep, name: op.scale(-1.0)
        if rep.dim == 3 and name.startswith("M") else op),
    # sqrt(det A) on the other sheet wherever A is complex: every inner
    # product moves, which tests/test_states.py sees against quadrature
    "f_det_root_conjugated": (states, "_integrable_root", _after(
        lambda out, A: (out[0], np.conj(out[1])))),
}
# the survivors that item 5 will not catch, each with the item that will
ITEM_16 = ("ROADMAP item 16: no family pins the value of an inner product; "
           "its Plancherel check will")
REASONS = {"f_det_root_conjugated": ITEM_16}


def _install(monkeypatch, owner, attribute, replace):
    """Bind replace(original) in place of owner.attribute: in every galiray
    module that holds the original if owner is the module that defines it,
    else on owner alone (a class, or a module that imported the name).  A
    target that owner does not hold is a LookupError, not an
    AssertionError, so that a stale survivor fails its strict xfail instead
    of passing it."""
    real = getattr(owner, attribute, None)
    if real is None:
        raise LookupError(f"{owner.__name__} holds no {attribute}")
    holders = ([module for module in MODULES
                if getattr(module, attribute, None) is real]
               if getattr(real, "__module__", None) == owner.__name__
               else [owner])
    mutant = replace(real)
    for holder in holders:
        monkeypatch.setattr(holder, attribute, mutant)


def run_mutant(patches) -> dict:
    """The report of run_suite on SMALL under the patches."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        for patch in patches:
            _install(monkeypatch, *patch)
        return harness.run_suite(CFG)


def _failing(report) -> set:
    return {c["check"] for c in report["checks"]
            if not c["pass"] and not c["documented_exception"]}


def test_the_unmutated_suite_passes_the_small_config():
    assert _failing(harness.run_suite(CFG)) == set()


@pytest.mark.parametrize("name", MUTANTS)
def test_every_mutant_fails_the_suite(name):
    patches, fails, nan, check = MUTANTS[name]
    report = run_mutant(patches)
    assert _failing(report) == fails
    assert {c["check"] for c in report["checks"]
            if math.isnan(c["max_residual"])} == nan
    if check is not None:
        check({c["check"]: c for c in report["checks"]})


def test_every_family_is_failed_by_some_mutant():
    failed = frozenset().union(*(fails for _, fails, *_ in MUTANTS.values()))
    assert [name for name in FAMILIES if not failed & _checks(name)] == []


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason=REASONS.get(name, ITEM_5)))
    for name in SURVIVORS])
def test_every_survivor_fails_the_suite(name):
    assert _failing(run_mutant([SURVIVORS[name]])), \
        f"mutant {name} passes every check"


def test_the_coboundary_is_a_convention_the_prediction_must_follow():
    # bargmann3d and the 2D kinds use representatives that differ by the
    # coboundary phi: without it in both the action and the prediction
    # bargmann3d passes as well; without it in the prediction alone it
    # fails (the entry coboundary_dropped_from_the_prediction)
    no_coboundary = representations._PRESETS["bargmann3d"]._replace(
        coboundary=False)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setitem(representations._PRESETS, "bargmann3d",
                            no_coboundary)
        assert _failing(harness.run_suite(CFG)) == set()
