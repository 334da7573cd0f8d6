"""The mutant kill matrix: every formula the paper fixes can fail the suite.

Each mutant of MUTANTS replaces one formula, owner.attribute, by a wrong
variant built from the original, and run_suite on a small config must then
report at least one failing entry.  The replacement is bound wherever a
galiray module holds the original under that name, so a function imported
by name (multiply_batch into harness and verify, say) is replaced there
too.  The mutants of SURVIVORS change the action or the generators in a way
that no family of the suite can see yet: they are strict xfails until the
action is tied to the paper's generators (ROADMAP item 5).
"""

import numpy as np
import pytest

from galiray import (algebra, cocycles, group, harness, representations,
                     states, verify)
from galiray.group import GalileiBatch, _dot, _matvec, _rotation_angles
from galiray.representations import _term
from galiray.states import PolyDiffOperator, StateBatch

MODULES = (group, algebra, cocycles, states, representations, verify,
           harness)

# pairs and time cases past the n_boost = 20 pure boosts, so that every
# kind of case runs
SMALL = dict(n_triples=30, n_pairs=8, n_time_cases=24, n_unitarity_cases=6,
             n_time_zero_cases=3, n_exponent_triples=4)


# -- the wrong formulas ------------------------------------------------------

def _exponent(name, wrong):
    """evaluate_batch with the exponent name computed by wrong(xi, r, s)."""
    def replace(real):
        def mutant(xi, r, s):
            return wrong(xi, r, s) if xi.name == name else real(xi, r, s)
        return mutant
    return replace


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
    """_phase_parts with its part k (quad, lin, const) changed."""
    def replace(real):
        def mutant(rep, r):
            parts = list(real(rep, r))
            parts[k] = change(parts[k], r)
            return tuple(parts)
        return mutant
    return replace


def _time_phase_doubled(real):
    def mutant(r, t, states):
        return real(r, 2.0 * np.asarray(t, dtype=float), states)
    return mutant


def _multiply_unrotated(real):
    # v_rs = v_s + v_r, the rotation of v_s dropped
    def mutant(r, s):
        out = real(r, s)
        return GalileiBatch(out.W, out.eta, s.v + r.v, out.u)
    return mutant


def _exponential_quadratic(real):
    # a translation that grows with the square of the flow parameter
    def mutant(X):
        out = real(X)
        return GalileiBatch(out.W, out.eta, out.v,
                            out.u + 0.1 * X.time[:, None] * X.trans)
    return mutant


def _pivot_branch(real):
    """sqrt(det A) as the product of the pivots' roots, each taken on the
    branch cut along the negative imaginary axis: a root that jumps inside
    the set Re A > 0, where the true one is continuous."""
    def mutant(A):
        integrable, det_root = real(A)
        p00 = A[:, 0, 0]
        flip = np.where(p00.imag < 0.0, -1.0, 1.0)
        return integrable, flip * det_root
    return mutant


def _action_character(real):
    # (a): every action times e^{0.37 i eta_r}, a character of the group
    def mutant(rep, r, t, states):
        return StateBatch.multiply_phase(real(rep, r, t, states),
                                         const=0.37j * r.eta)
    return mutant


def _generator(change):
    """_momentum_generator with change(rep, name, op) applied to its
    output."""
    def replace(real):
        def mutant(rep, name):
            return change(rep, name, real(rep, name))
        return mutant
    return replace


def _plus(op, c):
    return op + PolyDiffOperator.build(op.dim, [_term(op.dim, c)])


MUTANTS = {
    "xi0_eta_sign": (cocycles, "evaluate_batch",
                     _exponent("xi0", _xi0_eta_sign)),
    "xi1_unrotated": (cocycles, "evaluate_batch",
                      _exponent("xi1", _xi1_unrotated)),
    "xi2_own_eta": (cocycles, "evaluate_batch",
                    _exponent("xi2", _xi2_own_eta)),
    "xi_eta_printed": (cocycles, "evaluate_batch",
                       _exponent("xi_eta", _xi_eta_printed)),
    "xi_t_unrotated": (cocycles, "evaluate_batch",
                       _exponent("xi_t", _xi_t_unrotated)),
    "phase_quad_doubled": (representations, "_phase_parts",
                           _phase_part(0, lambda quad, r: 2.0 * quad)),
    "phase_lin_boosted": (representations, "_phase_parts",
                          _phase_part(1, lambda lin, r: lin + 0.37 * r.v)),
    "phase_const_scaled": (representations, "_phase_parts",
                           _phase_part(2, lambda const, r: 1.5 * const)),
    "time_phase_doubled": (representations, "_time_phase",
                           _time_phase_doubled),
    "multiply_unrotated": (group, "multiply_batch", _multiply_unrotated),
    "exponential_quadratic": (algebra, "exponential_batch",
                              _exponential_quadratic),
    "det_root_pivot_branch": (states, "_integrable_root", _pivot_branch),
}

ITEM_5 = ("ROADMAP item 5: no check ties the action to the paper's "
          "generators yet")
SURVIVORS = {
    "a_action_character": (representations, "apply_batch",
                           _action_character),
    "b_energy_shift": (representations, "_momentum_generator", _generator(
        lambda rep, name, op: _plus(op, 0.37) if name == "H" else op)),
    "c_momentum_negated": (representations, "_momentum_generator",
                           _generator(lambda rep, name, op: op.scale(-1.0)
                                      if name.startswith("P") else op)),
    "d_spin_shift": (representations, "_momentum_generator", _generator(
        lambda rep, name, op: _plus(op, 1.3j) if name == "M" else op)),
    "e_rotations_negated_3d": (representations, "_momentum_generator",
                               _generator(
        lambda rep, name, op: op.scale(-1.0)
        if rep.dim == 3 and name.startswith("M") else op)),
}


def _install(monkeypatch, owner, attribute, replace):
    """Bind replace(original) to every galiray module name that holds the
    original owner.attribute.  A target that no module holds is a
    LookupError, not an AssertionError, so that a stale survivor fails
    its strict xfail instead of passing it."""
    real = getattr(owner, attribute, None)
    holders = [module for module in MODULES if real is not None
               and getattr(module, attribute, None) is real]
    if not holders:
        raise LookupError(f"no galiray module holds {owner.__name__}."
                          f"{attribute}")
    mutant = replace(real)
    for module in holders:
        monkeypatch.setattr(module, attribute, mutant)


def _failing(report) -> list:
    return [c["check"] for c in report["checks"]
            if not c["pass"] and not c["documented_exception"]]


def failing_checks(name) -> list:
    """The entries that fail run_suite on SMALL under the named mutant."""
    owner, attribute, replace = {**MUTANTS, **SURVIVORS}[name]
    with pytest.MonkeyPatch.context() as monkeypatch:
        _install(monkeypatch, owner, attribute, replace)
        return _failing(harness.run_suite(harness.default_config(**SMALL)))


def test_the_unmutated_suite_passes_the_small_config():
    assert _failing(harness.run_suite(harness.default_config(**SMALL))) == []


@pytest.mark.parametrize("name", [
    *MUTANTS,
    *(pytest.param(name, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=ITEM_5))
      for name in SURVIVORS)])
def test_every_mutant_fails_the_suite(name):
    assert failing_checks(name), f"mutant {name} passes every check"


def _zero_coboundary(gamma, r):
    return np.zeros(len(r))


def test_the_coboundary_is_a_convention_the_prediction_must_follow():
    # bargmann3d and the 2D kinds use representatives that differ by the
    # coboundary phi: without it in both the action and the prediction
    # bargmann3d passes as well, without it in the prediction only it fails
    no_coboundary = representations._PRESETS["bargmann3d"]._replace(
        coboundary=False)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setitem(representations._PRESETS, "bargmann3d",
                            no_coboundary)
        assert _failing(harness.run_suite(
            harness.default_config(**SMALL))) == []
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(verify, "_coboundary_phi", _zero_coboundary)
        assert "multiplier_bargmann3d" in _failing(harness.run_suite(
            harness.default_config(**SMALL)))
