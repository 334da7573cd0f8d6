"""The batched carrier action and multiplier core.

apply_batch, extract_multiplier_batch, match_exponent_batch and
check_time_multiplier_batch are written once, and apply_time and
extract_multiplier are 1-row views, so row i of an N-row call must equal the
1-row call on pair i bit for bit.  The multiplier is read off the term
parameters of the two states, and must agree with a pointwise ratio of their
values.  The
suite's multiplier checks run the core in chunks, and their reports must not
depend on the chunk size.  Each negative control breaks one piece of the
prediction or the extraction and the check must fail; at scale 10 the
multiplier checks must still pass.
"""

import json
import math

import numpy as np
import pytest

from galiray import cocycles, group, harness, verify
from galiray.cli import main
from galiray.group import (GalileiBatch, GalileiElement, _from_raw,
                           _raw_width, _row, identity_batch, multiply_batch,
                           random_element, random_element_batch)
from galiray.harness import config_to_dict, default_config, report_json
from galiray.representations import (RepDescriptor, _time_phase,
                                     apply_batch, apply_time)
from galiray.states import (PolyGaussianState, StateBatch, _PolyRows,
                            random_state)
from galiray.verify import (check_time_multiplier_batch,
                            default_sample_points,
                            exponent_cocycle_residual_batch,
                            extract_multiplier, extract_multiplier_batch,
                            match_exponent_batch)

REPS = (
    RepDescriptor("schrodinger2d", gamma=1.3, s=0.7),
    RepDescriptor("nonabelian2d", gamma=1.1, lam=0.8, s=-0.4),
    RepDescriptor("bargmann3d", gamma=0.9),
)
STATES = {"gaussian": dict(poly_degree=0), "two_terms": dict(n_terms=2),
          "degree_2": dict(poly_degree=2, n_terms=2)}


def _same(a, b) -> bool:
    """Equal bit for bit, NaN included."""
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _cases(rep, n, seed, **state_kw):
    rng = np.random.default_rng(seed)
    state = random_state(rng, rep.dim, **state_kw)
    b = random_element_batch(rng, 2 * n, rep.dim)
    t = np.where(np.arange(n) % 3 == 0, 0.0, rng.uniform(-2.0, 2.0, n))
    return state, b[0::2], b[1::2], t


@pytest.mark.parametrize("n", (1, 6))
@pytest.mark.parametrize("kind", STATES)
@pytest.mark.parametrize("rep", REPS, ids=lambda rep: rep.kind)
def test_row_i_of_the_batched_core_is_the_one_row_call(rep, kind, n):
    state, r, s, t = _cases(rep, n, 40 + n, **STATES[kind])
    acted = apply_batch(rep, r, t, state.repeat(n))
    rows = extract_multiplier_batch(rep, r, s, t, state)
    name, match = match_exponent_batch(rep, r, s, t, rows)
    timed = check_time_multiplier_batch(rep, r, s, t, state)
    for i in range(n):
        ri, si, ti = r.element(i), s.element(i), float(t[i])
        assert _same_states(acted.row(i), apply_time(rep, ri, ti, state))
        one = extract_multiplier(rep, ri, si, ti, state)
        assert len(one.omega) == 1
        assert rows.omega[i] == one.omega[0]
        assert rows.constancy_spread[i] == one.constancy_spread[0]
        assert rows.modulus_error[i] == one.modulus_error[0]
        one_name, one_match = match_exponent_batch(rep, r[[i]], s[[i]], ti,
                                                   one)
        assert name == one_name and _same(match[i], one_match[0])
        assert timed[i] == check_time_multiplier_batch(
            rep, r[[i]], s[[i]], t[i], state)[0]


def _same_states(a: StateBatch, b: StateBatch) -> bool:
    """Every term array of a and b equal bit for bit, signed zeros too, and
    each polynomial of one degree."""
    return len(a.terms) == len(b.terms) and all(
        ta[0].deg == tb[0].deg
        and all(_same(x, y) for x, y in zip((ta[0].coef, *ta[1:]),
                                             (tb[0].coef, *tb[1:])))
        for ta, tb in zip(a.terms, b.terms))


@pytest.mark.parametrize("kind", STATES)
@pytest.mark.parametrize("rep", REPS, ids=lambda rep: rep.kind)
def test_the_action_at_t_is_the_time_phase_of_the_static_action(rep, kind):
    state, r, s, t = _cases(rep, 9, 80, **STATES[kind])
    # rows of identities keep exact zeros of beta, and a signed zero of the
    # state's beta, as they are
    zero = PolyGaussianState.gaussian(rep.dim, beta=[-0.0] + [0.0] * (
        rep.dim - 1))
    for f, b in ((state.repeat(9), r),
                 (zero.repeat(4), identity_batch(rep.dim, 4))):
        ts = t[:len(b)]
        static = apply_batch(rep, b, 0.0, f)
        assert _same_states(apply_batch(rep, b, ts, f),
                            _time_phase(b, ts, static))
        assert _same_states(apply_batch(rep, b, 0.7, f),
                            _time_phase(b, 0.7, static))
        assert _time_phase(b, np.zeros(len(b)), static) is static


def _time_multiplier_of_two_extractions(rep, r, s, t, state):
    """check_time_multiplier_batch as one 2n-row extraction at t and at 0,
    each applying U(s) f and U(rs) f again."""
    n = len(r)
    t = np.broadcast_to(np.asarray(t, dtype=float), (n,))
    twice = np.tile(np.arange(n), 2)
    rows = extract_multiplier_batch(rep, r[twice], s[twice],
                                    np.concatenate((t, np.zeros(n))), state)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = rows.omega[:n] / rows.omega[n:]
    spread = rows.constancy_spread
    return np.maximum(verify._phase_mismatch(ratio,
                                             verify._xi_t(rep, r, s, t)),
                      np.maximum(spread[:n], spread[n:]))


@pytest.mark.parametrize("kind", STATES)
@pytest.mark.parametrize("rep", REPS, ids=lambda rep: rep.kind)
def test_the_time_multiplier_equals_its_two_extractions(rep, kind):
    state, r, s, t = _cases(rep, 12, 85, **STATES[kind])
    for ts in (t, 0.0, -1.3):
        assert _same(check_time_multiplier_batch(rep, r, s, ts, state),
                     _time_multiplier_of_two_extractions(rep, r, s, ts,
                                                         state))


def _time_cases_one_by_one(dim, scale, t_samples, n_boost):
    """harness._time_cases as a loop over every case: t (a t_samples entry
    or rng.uniform(-2, 2)), then rng.normal for a pure boost's two v or
    rng.random for the raw rows of r and s."""
    def draw(rng, cases):
        t = np.empty(len(cases))
        raw = np.zeros((2 * len(cases), _raw_width(dim)))
        v = np.zeros((2 * len(cases), dim))
        for j, i in enumerate(cases):
            t[j] = (t_samples[i] if i < len(t_samples)
                    else rng.uniform(-2.0, 2.0))
            if i < n_boost:
                v[2 * j:2 * j + 2] = rng.normal(size=(2, dim))
            else:
                rng.random(out=raw[2 * j:2 * j + 2])
        b = _from_raw(raw, dim, scale)
        boost = np.array(cases) < n_boost
        pure = boost.repeat(2)
        b.W[pure], b.eta[pure], b.u[pure] = np.eye(dim), 0.0, 0.0
        b.v[pure] = v[pure]
        return t, b[0::2], b[1::2], boost
    return draw


@pytest.mark.parametrize("t_samples", [(0.5, 1.7), tuple(range(-12, 13))],
                         ids=["two", "past_the_boosts"])
@pytest.mark.parametrize("n", (1, 19, 20, 21, 530))
@pytest.mark.parametrize("dim", (2, 3))
def test_the_time_case_draw_is_the_case_by_case_loop(dim, n, t_samples):
    # 530 cases cross a sweep chunk of 512
    draws = (harness._time_cases(dim, 3.0, t_samples, 20),
             _time_cases_one_by_one(dim, 3.0, t_samples, 20))
    rngs = [np.random.default_rng(97 + n) for _ in draws]
    for start in range(0, n, harness._SWEEP_CHUNK):
        cases = range(start, min(start + harness._SWEEP_CHUNK, n))
        (t, r, s, boost), (t1, r1, s1, boost1) = (
            draw(rng, cases) for draw, rng in zip(draws, rngs))
        assert _same(t, t1) and _same(boost, boost1)
        for f in GalileiBatch.__slots__:
            assert _same(getattr(r, f), getattr(r1, f))
            assert _same(getattr(s, f), getattr(s1, f))
    # and both leave the stream at one position
    assert rngs[0].random() == rngs[1].random()


def test_the_term_mismatch_sees_each_term_parameter():
    rng = np.random.default_rng(67)
    state = random_state(rng, 2, poly_degree=1, n_terms=2)
    direct = apply_batch(REPS[0], random_element_batch(rng, 3, 2), 0.5,
                         state.repeat(3))
    c = np.array([0.1 + 0.2j, -0.3j, 0.0])
    composed = direct.multiply_phase(const=c)
    dalpha, mismatch = verify._term_mismatch(composed, direct)
    assert np.abs(dalpha - c).max() < 1e-15 and mismatch.max() < 1e-15

    eps = 1e-7

    def bump_row_0(p):
        coef = p.coef.copy()
        coef[0, 0] += eps
        return type(p)(p.dim, p.deg, coef)

    # (term, parameter index, change): term 1's alpha, a beta, a Gamma, and
    # the constant coefficient of row 0's polynomial
    for k, j, change in ((1, 1, lambda a: a + eps),
                         (1, 2, lambda b: b + eps),
                         (0, 3, lambda G: G + eps),
                         (1, 0, bump_row_0)):
        terms = [list(term) for term in composed.terms]
        terms[k][j] = change(terms[k][j])
        wrong = verify._term_mismatch(StateBatch(2, terms), direct)[1]
        assert 0.5 * eps < wrong[0] < 2.0 * eps
        if j == 0:  # the other rows keep their polynomials
            assert wrong[1:].max() < 1e-15


@pytest.mark.parametrize("rep", REPS, ids=lambda rep: rep.kind)
def test_omega_is_the_mean_pointwise_ratio(rep):
    # the pointwise estimate the coefficient comparison replaced, as an
    # oracle: per pair, the mean of (U_t(r) U_t(s) f)(p) / (U_t(rs) f)(p)
    # over 16 points around the centre of U_t(rs) f
    rng = np.random.default_rng(61)
    n = 8
    for degree in (0, 1, 2):
        for n_terms in (1, 2):
            state = random_state(rng, rep.dim, poly_degree=degree,
                                 n_terms=n_terms)
            b = random_element_batch(rng, 2 * n, rep.dim)
            r, s, t = b[0::2], b[1::2], rng.uniform(-2.0, 2.0, n)
            f = state.repeat(n)
            composed = apply_batch(rep, r, t, apply_batch(rep, s, t, f))
            direct = apply_batch(rep, multiply_batch(r, s), t, f)
            omega = extract_multiplier_batch(rep, r, s, t, state).omega
            for i in range(n):
                points = default_sample_points(direct.row(i), seed=i)
                ratio = [composed.row(i).evaluate(p)
                         / direct.row(i).evaluate(p) for p in points]
                assert abs(omega[i] - np.mean(ratio)) < 1e-12


# at a chunk size of 3 the pairs, the time cases and the exponent triples
# each span several chunks
CHUNKED = dict(n_triples=3, n_pairs=7, n_time_cases=23, n_unitarity_cases=1,
               n_time_zero_cases=1, n_exponent_triples=7)


@pytest.mark.parametrize("family", ("_check_multipliers",
                                    "_check_time_multiplier"))
def test_multiplier_reports_do_not_depend_on_the_chunk_size(family,
                                                            monkeypatch):
    cfg = default_config(**CHUNKED)
    whole = getattr(harness, family)(cfg)
    monkeypatch.setattr(harness, "_SWEEP_CHUNK", 3)
    assert report_json(getattr(harness, family)(cfg)) == report_json(whole)


def test_exponent_cocycle_residual_matches_the_case_by_case_loop():
    # the loop the triple sweep replaced: after the state and the pairs, one
    # random_element call per element of each triple, on the check's stream
    cfg = default_config(**CHUNKED)
    for report, rep in zip(harness._check_multipliers(cfg), REPS):
        rng = np.random.default_rng(report["seed"])
        state = random_state(rng, rep.dim)
        random_element_batch(rng, 2 * cfg.n_pairs, rep.dim, cfg.scale)
        worst = 0.0
        for _ in range(cfg.n_exponent_triples):
            r, s, q = (random_element(rng, rep.dim, cfg.scale)
                       for _ in range(3))
            residual = exponent_cocycle_residual_batch(
                rep, _row(r), _row(s), _row(q), 0.0, state)[0, 0]
            worst = max(worst, float(residual))
        assert report["details"]["max_exponent_cocycle_residual"] == worst
        assert report["rep"] == rep.kind
        assert report["details"]["n_exponent_triples"] == 7


def test_the_multiplier_check_extracts_once_per_sweep_chunk(monkeypatch):
    calls = []
    real = verify.extract_multiplier_batch

    def counting(rep, r, s, t, state):
        calls.append(len(r))
        return real(rep, r, s, t, state)

    for owner in (harness, verify):
        monkeypatch.setattr(owner, "extract_multiplier_batch", counting)
    # the carrier_heavy counts of perfbench/workloads.py, one chunk each:
    # per rep, one extraction of the pairs and one of the triples' 4n rows
    cfg = default_config(n_pairs=340, n_exponent_triples=42)
    harness._check_multipliers(cfg)
    assert calls == [340, 4 * 42] * 3


# -- negative controls: each fault must fail its check -----------------------

FAULT_CFG = dict(n_triples=3, n_pairs=30, n_time_cases=24,
                 n_unitarity_cases=1, n_time_zero_cases=1,
                 n_exponent_triples=1)


def _verdicts(family) -> dict:
    return {c["rep"]: c["pass"]
            for c in getattr(harness, family)(default_config(**FAULT_CFG))}


def _all_pass(family):
    return {rep.kind: True for rep in REPS} == _verdicts(family)


def test_the_multiplier_families_evaluate_no_state(monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("a state was evaluated at a point")

    for owner, attr in ((PolyGaussianState, "evaluate"),
                        (_PolyRows, "at"),
                        (verify, "default_sample_points")):
        monkeypatch.setattr(owner, attr, forbidden)
    cfg = default_config(**FAULT_CFG)
    for family in ("_check_multipliers", "_check_time_multiplier"):
        assert all(c["pass"] for c in getattr(harness, family)(cfg))
    assert main(["multiplier", "--rep", "bargmann3d", "--t", "0.9"]) == 0
    capsys.readouterr()


def test_a_sign_flipped_xi1_fails_the_nonabelian_multiplier(monkeypatch):
    assert _all_pass("_check_multipliers")
    real = cocycles.evaluate_batch

    def flipped(xi, r, s):
        value = real(xi, r, s)
        return -value if xi.name == "xi1" else value

    monkeypatch.setattr(cocycles, "evaluate_batch", flipped)
    assert _verdicts("_check_multipliers") == {
        "schrodinger2d": True, "nonabelian2d": False, "bargmann3d": True}


def test_a_dropped_rotation_wrap_fails_the_2d_multipliers(monkeypatch):
    assert _all_pass("_check_multipliers")
    monkeypatch.setattr(verify, "_rotation_wrap",
                        lambda r, s, rs: np.zeros(len(r)))
    assert _verdicts("_check_multipliers") == {
        "schrodinger2d": False, "nonabelian2d": False, "bargmann3d": True}


def test_a_sign_flipped_xi_t_fails_the_time_multiplier(monkeypatch):
    assert _all_pass("_check_time_multiplier")
    real = verify._xi_t
    monkeypatch.setattr(verify, "_xi_t", lambda *args: -real(*args))
    assert not any(_verdicts("_check_time_multiplier").values())


def _wrong_beta(composed):
    (poly, alpha, beta, Gamma), *rest = composed.terms
    return StateBatch(composed.dim, [(poly, alpha, beta + 1e-6, Gamma), *rest])


def _scaled(composed):
    return composed.multiply_phase(const=np.full(len(composed.terms[0][1]),
                                                 1e-6))


# a fault in the composed state U_t(r) U_t(s) f, and the multiplier details it
# must fail (a scale changes |omega|, so the match fails with the modulus)
COMPOSED_FAULTS = {
    "wrong_beta": (_wrong_beta, {"max_constancy_spread"}),
    "scaled": (_scaled, {"max_modulus_error",
                         "max_matched_exponent_residual"}),
}
DETAIL_TOLS = {"max_constancy_spread": "multiplier_spread",
               "max_modulus_error": "multiplier_modulus",
               "max_matched_exponent_residual": "multiplier_match",
               "max_exponent_cocycle_residual": "exponent_cocycle"}


@pytest.mark.parametrize("fault", COMPOSED_FAULTS)
def test_a_faulty_composed_state_fails_its_details_alone(fault, monkeypatch):
    assert _all_pass("_check_multipliers")
    change, failing = COMPOSED_FAULTS[fault]
    real = verify._term_mismatch
    monkeypatch.setattr(verify, "_term_mismatch",
                        lambda composed, direct: real(change(composed),
                                                      direct))
    cfg = default_config(**FAULT_CFG)
    for entry in harness._check_multipliers(cfg):
        assert entry["pass"] is False
        assert {key for key, tol in DETAIL_TOLS.items()
                if not entry["details"][key] < cfg.tol(tol)} == failing
    # the time multiplier takes in the term mismatch of its extractions; a
    # scale of both cancels in omega_t / omega_0
    time_verdicts = set(_verdicts("_check_time_multiplier").values())
    assert time_verdicts == {fault == "scaled"}


def test_a_product_built_as_s_r_fails_every_multiplier(monkeypatch):
    assert _all_pass("_check_multipliers")
    monkeypatch.setattr(verify, "multiply_batch",
                        lambda r, s: multiply_batch(s, r))
    assert not any(_verdicts("_check_multipliers").values())


def test_rs_and_sq_built_as_s_r_fail_the_exponent_cocycle_alone(
        monkeypatch):
    assert _all_pass("_check_multipliers")
    real = verify.multiply
    monkeypatch.setattr(verify, "multiply", lambda r, s: real(s, r))
    cfg = default_config(**FAULT_CFG)
    for entry in harness._check_multipliers(cfg):
        assert entry["pass"] is False
        assert {key for key, tol in DETAIL_TOLS.items()
                if not entry["details"][key] < cfg.tol(tol)} == {
            "max_exponent_cocycle_residual"}


def test_a_nan_eta_of_r_fails_the_triples_of_every_rep(monkeypatch):
    # r's eta enters a 2D triple only through the quadratic phase of the
    # outermost operator: its residual stays finite, and the check fails on
    # the triple's constancy spread, which it holds to the pairs' tolerance
    assert _all_pass("_check_multipliers")
    real = harness.exponent_cocycle_residual_batch

    def poisoned(rep, r, s, q, t, state):
        r = r[:]
        r.eta = r.eta.copy()
        r.eta[0] = math.nan
        return real(rep, r, s, q, t, state)

    monkeypatch.setattr(harness, "exponent_cocycle_residual_batch", poisoned)
    # a validated element cannot hold a NaN: build the rows unvalidated, and
    # the products of multiply, which check that they are finite, too
    monkeypatch.setattr(GalileiElement, "__post_init__", lambda self: None)
    monkeypatch.setattr(group, "_trusted", lambda b: b.element(0))
    for entry in harness._check_multipliers(default_config(**FAULT_CFG)):
        assert entry["pass"] is False
        assert math.isnan(entry["details"]["max_constancy_spread"])
        cocycle = entry["details"]["max_exponent_cocycle_residual"]
        assert math.isnan(cocycle) == (entry["rep"] == "bargmann3d")


# -- scale 10 -------------------------------------------------------------

def test_scale_10_fails_closed_with_the_reason(tmp_path, capsys):
    # the multiplier families pass at their default counts; the one failure
    # is the round-off of algebra_dim3 against its absolute tolerance
    cfg = default_config(scale=10.0, n_triples=150, n_unitarity_cases=2,
                         n_time_zero_cases=2)
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    out = tmp_path / "report.json"
    code = main(["verify-all", "--config", str(path), "--json", str(out)])
    capsys.readouterr()
    assert code == 1
    report = json.loads(out.read_text())
    assert report["suite_pass"] is False
    failed = {c["check"] for c in report["checks"]
              if not c["pass"] and not c["documented_exception"]}
    assert failed == {"algebra_dim3"}
    for c in report["checks"]:
        assert not (isinstance(c["details"], dict) and "error" in c["details"])
        if c["check"].startswith(("multiplier_", "time_multiplier_")):
            assert math.isfinite(c["max_residual"]) and c["pass"] is True
