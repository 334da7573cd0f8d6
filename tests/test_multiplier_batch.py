"""The batched carrier action and multiplier core.

apply_batch, extract_multiplier_batch, match_exponent_batch and
check_time_multiplier_batch are written once, and apply_time and
extract_multiplier are 1-row views, so row i of an N-row call must equal the
1-row call on pair i bit for bit.  The multiplier is read off the term
parameters of the two states, and must agree with a pointwise ratio of their
values.  The
suite's multiplier checks run the core in chunks, and their reports must not
depend on the chunk size, nor evaluate a state at a point.  At scale 10
the multiplier checks must still pass.  The faults in the prediction or
the extraction that each check must fail on are entries of the mutant
registry (tests/test_mutants.py).
"""

import json
import math

import numpy as np
import pytest

from galiray import harness, verify
from galiray.cli import main
from galiray.group import (GalileiBatch, GalileiElement,
                           identity_batch, multiply_batch, random_element,
                           random_element_batch, stack_batches)
from galiray.harness import config_to_dict, default_config
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


def _time_cases_one_by_one(normal, dim, scale, t_samples, n_boost):
    """harness._time_cases as a loop over every case, through the scalar
    draws: t's uniform (rng.uniform(-2, 2)), kept unless t_samples has an
    entry for the case, then r and s (random_element on rng); a pure boost
    replaces r and s by boosts of two velocities from normal."""
    def draw(rng, cases):
        t, rows = [], []
        for i in cases:
            t.append(rng.uniform(-2.0, 2.0))
            if i < len(t_samples):
                t[-1] = t_samples[i]
            pair = [random_element(rng, dim, scale) for _ in range(2)]
            if i < n_boost:
                pair = [GalileiElement(dim, np.eye(dim), 0.0, v, np.zeros(dim))
                        for v in normal.standard_normal((2, dim))]
            rows += pair
        b = stack_batches(rows)
        return (np.array(t, dtype=float), b[0::2], b[1::2],
                np.array(cases) < n_boost)
    return draw


@pytest.mark.parametrize("t_samples", [(0.5, 1.7), tuple(range(-12, 13))],
                         ids=["two", "past_the_boosts"])
@pytest.mark.parametrize("n", (1, 19, 20, 21, 530))
@pytest.mark.parametrize("dim", (2, 3))
def test_the_time_case_draw_is_the_case_by_case_loop(dim, n, t_samples):
    """Each case takes a fixed slice of the two sub-streams, so the chunked
    draw equals the loop at any chunk size; 530 cases cross a sweep chunk
    of 512, and a chunk of 3 splits the boosts."""
    for chunk in (harness._SWEEP_CHUNK, 3):
        streams = [[np.random.default_rng(97 + n),
                    np.random.default_rng(98 + n)] for _ in range(2)]
        draws = (harness._time_cases(streams[0][1], dim, 3.0, t_samples, 20),
                 _time_cases_one_by_one(streams[1][1], dim, 3.0, t_samples,
                                        20))
        got = []
        for draw, (rng, _) in zip(draws, streams):
            got.append([draw(rng, range(start, min(start + chunk, n)))
                        for start in range(0, n, chunk)])
        for (t, r, s, boost), (t1, r1, s1, boost1) in zip(*got):
            assert _same(t, t1) and _same(boost, boost1)
            for f in GalileiBatch.__slots__:
                assert _same(getattr(r, f), getattr(r1, f))
                assert _same(getattr(s, f), getattr(s1, f))
        # and both leave each sub-stream at one position
        for a, b in zip(*streams):
            assert a.random() == b.random()


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


# small counts, with seven exponent triples
CHUNKED = dict(n_triples=3, n_pairs=7, n_time_cases=23, n_unitarity_cases=1,
               n_time_zero_cases=1, n_exponent_triples=7)


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
                rep, r, s, q, 0.0, state)[0, 0]
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


# -- no state is evaluated at a point -----------------------------------------

def test_the_multiplier_families_evaluate_no_state(monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("a state was evaluated at a point")

    for owner, attr in ((PolyGaussianState, "evaluate"),
                        (_PolyRows, "at"),
                        (verify, "default_sample_points")):
        monkeypatch.setattr(owner, attr, forbidden)
    cfg = default_config(n_pairs=30, n_time_cases=24, n_exponent_triples=1)
    for family in ("_check_multipliers", "_check_time_multiplier"):
        assert all(c["pass"] for c in getattr(harness, family)(cfg))
    assert main(["multiplier", "--rep", "bargmann3d", "--t", "0.9"]) == 0
    capsys.readouterr()


# -- scale 10 -------------------------------------------------------------

def test_scale_10_fails_closed_with_the_reason(tmp_path, capsys):
    # the multiplier families pass at their default counts; the one failure
    # is the round-off of algebra_dim3 against its absolute tolerance
    cfg = default_config(scale=10.0, n_triples=150, n_unitarity_cases=2,
                         n_time_zero_cases=2)
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    code = main(["verify-all", "--config", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["suite_pass"] is False
    failed = {c["check"] for c in report["checks"]
              if not c["pass"] and not c["documented_exception"]}
    assert failed == {"algebra_dim3"}
    for c in report["checks"]:
        assert not (isinstance(c["details"], dict) and "error" in c["details"])
        if c["check"].startswith(("multiplier_", "time_multiplier_")):
            assert math.isfinite(c["max_residual"]) and c["pass"] is True
