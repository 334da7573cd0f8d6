"""Momentum-space and position-space representations: the unitary maps,
their generators, and the convention constants tying the two together."""

import numpy as np
import pytest

from galiray.algebra import basis_names, basis_rows, exponential_batch
from galiray.group import (
    GalileiElement,
    _rotations_2d,
    identity_batch,
    random_element,
)
from galiray.representations import (
    KIND_DIMS,
    MOMENTUM_KINDS,
    RepDescriptor,
    apply_time,
    basis_generator_pairing,
    generator,
    generator_names,
    rep_to_dict,
    static_generator,
)
from galiray.states import (
    PolyDiffOperator,
    inner_product,
    random_state,
)

REPS = {
    "schrodinger2d": RepDescriptor("schrodinger2d", gamma=1.3, s=0.7),
    "nonabelian2d": RepDescriptor("nonabelian2d", gamma=1.1, lam=0.8, s=-0.4),
    "bargmann3d": RepDescriptor("bargmann3d", gamma=0.9),
    "position1d": RepDescriptor("position1d", m=1.0, hbar=1.0,
                                force_f=0.5, V0=0.25),
}


def test_descriptor_validation():
    with pytest.raises(ValueError):
        RepDescriptor("plane_wave")
    with pytest.raises(ValueError):
        RepDescriptor("schrodinger2d", gamma=0.0)
    with pytest.raises(ValueError):
        RepDescriptor("position1d", hbar=0.0)
    with pytest.raises(ValueError):
        RepDescriptor("position1d", m=-1.0)
    assert RepDescriptor("bargmann3d").dim == 3
    assert KIND_DIMS["schrodinger2d"] == 2


# (kind, label): every label of RepDescriptor
LABELS = (("bargmann3d", "gamma"), ("nonabelian2d", "lam"),
          ("schrodinger2d", "s"), ("position1d", "hbar"), ("position1d", "m"),
          ("position1d", "force_f"), ("position1d", "V0"))


@pytest.mark.parametrize("value", (True, "0.9"), ids=("bool", "string"))
@pytest.mark.parametrize("kind, label", LABELS,
                         ids=[label for _, label in LABELS])
def test_a_label_that_is_not_a_number_is_rejected(kind, label, value):
    with pytest.raises(ValueError, match=f"{label} must be a finite number"):
        RepDescriptor(kind, **{label: value})


def test_rep_to_dict_writes_every_label_by_its_document_key():
    assert rep_to_dict(REPS["nonabelian2d"]) == {
        "kind": "nonabelian2d", "gamma": 1.1, "lambda": 0.8, "s": -0.4,
        "hbar": 1.0, "m": 1.0, "f": 0.0, "V0": 0.0}
    assert rep_to_dict(REPS["position1d"]) == {
        "kind": "position1d", "gamma": 1.0, "lambda": 0.0, "s": 0.0,
        "hbar": 1.0, "m": 1.0, "f": 0.5, "V0": 0.25}


def test_identity_element_acts_trivially():
    rng = np.random.default_rng(451)
    for kind in MOMENTUM_KINDS:
        rep = REPS[kind]
        f = random_state(rng, rep.dim, poly_degree=1)
        g = apply_time(rep, identity_batch(rep.dim, 1).element(0), 0.0, f)
        for _ in range(8):
            p = rng.normal(size=rep.dim)
            assert abs(g.evaluate(p) - f.evaluate(p)) < 1e-14


def test_schrodinger_pure_boost_is_a_pure_shift():
    rep = REPS["schrodinger2d"]
    v = np.array([0.6, -0.3])
    r = GalileiElement(2, np.eye(2), 0.0, v, np.zeros(2))
    rng = np.random.default_rng(452)
    f = random_state(rng, 2)
    g = apply_time(rep, r, 0.0, f)
    for _ in range(10):
        p = rng.normal(size=2)
        assert abs(g.evaluate(p) - f.evaluate(p + rep.gamma * v)) < 1e-13


def test_nonabelian_pure_boost_carries_a_wedge_phase():
    rep = REPS["nonabelian2d"]
    v = np.array([0.6, -0.3])
    r = GalileiElement(2, np.eye(2), 0.0, v, np.zeros(2))
    rng = np.random.default_rng(453)
    f = random_state(rng, 2)
    g = apply_time(rep, r, 0.0, f)
    k = rep.lam / (2.0 * rep.gamma)
    for _ in range(10):
        p = rng.normal(size=2)
        wedge = v[0] * p[1] - v[1] * p[0]
        want = np.exp(-1j * k * wedge) * f.evaluate(p + rep.gamma * v)
        assert abs(g.evaluate(p) - want) < 1e-13


def test_translation_phase_is_linear_in_p():
    rep = REPS["bargmann3d"]
    u = np.array([0.2, -0.5, 0.9])
    r = GalileiElement(3, np.eye(3), 0.0, np.zeros(3), u)
    rng = np.random.default_rng(454)
    f = random_state(rng, 3)
    g = apply_time(rep, r, 0.0, f)
    for _ in range(10):
        p = rng.normal(size=3)
        want = np.exp(1j * float(u @ p)) * f.evaluate(p)
        assert abs(g.evaluate(p) - want) < 1e-13


def test_schrodinger_full_phase_formula():
    rep = REPS["schrodinger2d"]
    theta = 0.8
    r = GalileiElement(2, _rotations_2d(np.array([theta]))[0], 0.7,
                       [0.4, -0.2], [-0.6, 0.3])
    rng = np.random.default_rng(455)
    f = random_state(rng, 2)
    g = apply_time(rep, r, 0.0, f)
    gamma, s = rep.gamma, rep.s
    u, v, eta = r.u[0], r.v[0], r.eta[0]
    for _ in range(10):
        p = rng.normal(size=2)
        phase = (u @ p + 0.5 * gamma * (u @ v)
                 + (eta / (2.0 * gamma)) * (p @ p) + s * theta)
        want = np.exp(1j * phase) * f.evaluate(r.W[0].T @ (p + gamma * v))
        assert abs(g.evaluate(p) - want) < 1e-12


def _static_phase(rep, r, p):
    """phi_r(p) of the plain action (U(r) f)(p) = e^{i phi_r(p)}
    f(W^{-1}(p + gamma v)), written out per kind."""
    gamma, u, v, eta = rep.gamma, r.u[0], r.v[0], r.eta[0]
    phase = eta / (2.0 * gamma) * (p @ p) + u @ p
    if rep.kind == "bargmann3d":
        return phase + gamma * (u @ v) - 0.5 * eta * gamma * (v @ v)
    if rep.kind == "nonabelian2d":
        phase -= rep.lam / (2.0 * gamma) * (v[0] * p[1] - v[1] * p[0])
    theta = np.arctan2(r.W[0, 1, 0], r.W[0, 0, 0])
    return phase + 0.5 * gamma * (u @ v) + rep.s * theta


def test_time_zero_reduces_to_the_static_map():
    rng = np.random.default_rng(456)
    for kind in MOMENTUM_KINDS:
        rep = REPS[kind]
        for k in range(10):
            r = random_element(rng, rep.dim)
            f = random_state(rng, rep.dim, poly_degree=k % 3)
            a = apply_time(rep, r, 0.0, f)
            for _ in range(5):
                p = rng.normal(size=rep.dim)
                want = (np.exp(1j * _static_phase(rep, r, p))
                        * f.evaluate(r.W[0].T @ (p + rep.gamma * r.v[0])))
                assert abs(a.evaluate(p) - want) < 1e-12


def test_time_factor_is_a_boost_plane_wave():
    rep = REPS["schrodinger2d"]
    r = GalileiElement(2, np.eye(2), 0.0, [0.5, 0.2], np.zeros(2))
    rng = np.random.default_rng(457)
    f = random_state(rng, 2)
    t = 1.3
    g = apply_time(rep, r, t, f)
    h = apply_time(rep, r, 0.0, f)
    for _ in range(10):
        p = rng.normal(size=2)
        factor = np.exp(-1j * t * float(r.v[0] @ p))
        assert abs(g.evaluate(p) - factor * h.evaluate(p)) < 1e-13


def test_position_representation_has_no_pointwise_action():
    rep = REPS["position1d"]
    f = random_state(np.random.default_rng(0), 1)
    r = random_element(3, 1)
    with pytest.raises(ValueError):
        apply_time(rep, r, 0.0, f)
    with pytest.raises(ValueError):
        apply_time(rep, r, 0.5, f)


def test_apply_rejects_dimension_mismatch():
    rep = REPS["bargmann3d"]
    with pytest.raises(ValueError):
        apply_time(rep, random_element(4, 2), 0.0,
                   random_state(np.random.default_rng(1), 3))
    with pytest.raises(ValueError):
        apply_time(rep, random_element(4, 3), 0.0,
                   random_state(np.random.default_rng(1), 2))


def test_unitarity_of_the_momentum_maps():
    rng = np.random.default_rng(458)
    for kind in MOMENTUM_KINDS:
        rep = REPS[kind]
        for k in range(12):
            r = random_element(rng, rep.dim)
            f = random_state(rng, rep.dim, poly_degree=k % 2)
            g = random_state(rng, rep.dim, poly_degree=(k + 1) % 2)
            before = inner_product(f, g)
            after = inner_product(apply_time(rep, r, 0.7, f),
                                  apply_time(rep, r, 0.7, g))
            assert abs(after - before) < 1e-9 * max(1.0, abs(before))


def test_generator_names_by_kind():
    assert generator_names(REPS["schrodinger2d"]) == \
        ("H", "P1", "P2", "M", "N1", "N2")
    assert generator_names(REPS["bargmann3d"]) == \
        ("H", "P1", "P2", "P3", "M12", "M13", "M23", "N1", "N2", "N3")
    assert generator_names(REPS["position1d"]) == ("H", "P", "N")
    with pytest.raises(ValueError):
        generator(REPS["schrodinger2d"], "Q")


def _op(dim, *terms):
    """The operator of (deriv, exps, c) terms, exps over p and then t."""
    return PolyDiffOperator.build(dim, [((d, e), c) for d, e, c in terms])


def test_generator_operator_content_2d():
    rep = REPS["schrodinger2d"]
    g = rep.gamma
    H = generator(rep, "H")
    wantH = _op(2, ((0, 0), (2, 0, 0), 1.0 / (2.0 * g)),
                ((0, 0), (0, 2, 0), 1.0 / (2.0 * g)))
    assert (H - wantH).norm() == 0.0
    P2 = generator(rep, "P2")
    wantP2 = _op(2, ((0, 0), (0, 1, 0), 1.0))
    assert (P2 - wantP2).norm() == 0.0
    N1 = generator(rep, "N1")
    wantN1 = _op(2, ((0, 0), (1, 0, 1), -1j),
                    ((1, 0), (0, 0, 0), g))
    assert (N1 - wantN1).norm() == 0.0
    M = generator(rep, "M")
    wantM = _op(2, ((0, 0), (0, 0, 0), 1j * rep.s),
                   ((1, 0), (0, 1, 0), 1.0),
                   ((0, 1), (1, 0, 0), -1.0))
    assert (M - wantM).norm() == 0.0


def test_nonabelian_generators_pick_up_lambda_terms():
    rep = REPS["nonabelian2d"]
    g, lam = rep.gamma, rep.lam
    k = lam / (2.0 * g)
    N1 = generator(rep, "N1")
    want1 = _op(2, ((0, 0), (1, 0, 1), -1j),
                   ((1, 0), (0, 0, 0), g),
                   ((0, 0), (0, 1, 0), -1j * k))
    assert (N1 - want1).norm() == 0.0
    N2 = generator(rep, "N2")
    want2 = _op(2, ((0, 0), (0, 1, 1), -1j),
                   ((0, 1), (0, 0, 0), g),
                   ((0, 0), (1, 0, 0), 1j * k))
    assert (N2 - want2).norm() == 0.0


def test_position_generator_content():
    rep = REPS["position1d"]   # m = 1, hbar = 1, f = 0.5, V0 = 0.25
    H = generator(rep, "H")
    wantH = _op(1, ((2,), (0, 0), -0.5),
                   ((0,), (1, 0), 0.5),
                   ((0,), (0, 0), 0.25))
    assert (H - wantH).norm() == 0.0
    P = generator(rep, "P")
    wantP = _op(1, ((1,), (0, 0), 1j),
                   ((0,), (0, 1), -0.5))
    assert (P - wantP).norm() == 0.0
    N = generator(rep, "N")
    wantN = _op(1, ((0,), (1, 0), 1.0),
                   ((1,), (0, 1), -1j),
                   ((0,), (0, 2), -0.25))
    assert (N - wantN).norm() == 0.0


def test_static_generators_match_time_zero():
    for rep in REPS.values():
        for name in generator_names(rep):
            full = generator(rep, name, t=0.0)
            static = static_generator(rep, name)
            assert (full - static).norm() == 0.0


def test_heisenberg_identity_holds_exactly():
    for kind in MOMENTUM_KINDS:
        rep = REPS[kind]
        H = generator(rep, "H")
        for name in generator_names(rep):
            G = generator(rep, name)
            lhs = G.d_dt() - H.commutator(G).scale(1j)
            assert lhs.norm() == 0.0


def test_central_charge_appears_in_the_boost_translation_bracket():
    for kind in MOMENTUM_KINDS:
        rep = REPS[kind]
        N1 = static_generator(rep, "N1")
        P1 = static_generator(rep, "P1")
        want = _op(rep.dim, ((0,) * rep.dim, (0,) * (rep.dim + 1),
                               rep.gamma))
        assert (N1.commutator(P1) - want).norm() == 0.0


def test_rotation_rotates_the_boost_generators():
    for kind in ("schrodinger2d", "nonabelian2d"):
        rep = REPS[kind]
        M = static_generator(rep, "M")
        N1 = static_generator(rep, "N1")
        N2 = static_generator(rep, "N2")
        assert (M.commutator(N1) - N2).norm() < 1e-12


def _one_parameter_derivative(rep, basis_name, t, state, step=1e-5):
    """Central difference in tau of apply_time(exponential(tau X), t) at 0,
    as a function of the point p: the oracle that fixes the convention
    constant of each basis direction against the exact generators."""
    X = basis_rows([basis_name], rep.dim)
    plus, minus = (apply_time(rep, exponential_batch(X.scale(c)).element(0),
                              t, state) for c in (step, -step))
    return lambda p: (plus.evaluate(p) - minus.evaluate(p)) / (2.0 * step)


def test_one_parameter_flows_differentiate_to_the_generators():
    rng = np.random.default_rng(459)
    for kind in MOMENTUM_KINDS:
        rep = REPS[kind]
        f = random_state(rng, rep.dim)
        for t in (0.0, 0.8):
            for name in basis_names(rep.dim):
                dstate = _one_parameter_derivative(rep, name, t, f)
                gen_name, c = basis_generator_pairing(rep, name)
                want = generator(rep, gen_name).apply(f, t=t)
                for _ in range(5):
                    p = rng.normal(size=rep.dim)
                    assert abs(dstate(p) - c * want.evaluate(p)) < 5e-6


def test_basis_generator_pairing_constants():
    rep = REPS["bargmann3d"]
    assert basis_generator_pairing(rep, "b1") == ("P1", 1j)
    assert basis_generator_pairing(rep, "d2") == ("N2", 1.0)
    assert basis_generator_pairing(rep, "f") == ("H", 1j)
    assert basis_generator_pairing(rep, "a13") == ("M13", -1.0)
    assert basis_generator_pairing(REPS["schrodinger2d"], "a12") == ("M", -1.0)
    with pytest.raises(ValueError):
        basis_generator_pairing(rep, "q1")
