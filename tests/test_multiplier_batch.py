"""The batched carrier action and multiplier core.

apply_batch, extract_multiplier_batch, match_exponent_batch and
check_time_multiplier_batch are written once, and the scalar functions are
their 1-row views, so row i of an N-row call must equal the 1-row call on
pair i bit for bit.  The suite's multiplier checks run them in chunks, and
their reports must not depend on the chunk size.  Each negative control
breaks one piece of the prediction or the extraction and the check must
fail; at scale 10 the suite must fail closed instead of aborting.
"""

import json
import math

import numpy as np
import pytest

from galiray import cocycles, harness, verify
from galiray.cli import main
from galiray.group import (identity, identity_batch, multiply_batch,
                           random_element_batch)
from galiray.harness import config_to_dict, default_config, report_json
from galiray.representations import RepDescriptor, apply_batch, apply_time
from galiray.states import (PolyGaussianState, Polynomial, StateBatch,
                            random_state)
from galiray.verify import (check_time_multiplier,
                            check_time_multiplier_batch,
                            default_sample_points, extract_multiplier,
                            extract_multiplier_batch, match_exponent,
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
    points = np.stack([default_sample_points(state, seed=seed + i)
                       for i in range(n)])
    return state, b[0::2], b[1::2], t, points


@pytest.mark.parametrize("n", (1, 6))
@pytest.mark.parametrize("kind", STATES)
@pytest.mark.parametrize("rep", REPS, ids=lambda rep: rep.kind)
def test_row_i_of_the_batched_core_is_the_one_row_call(rep, kind, n):
    state, r, s, t, points = _cases(rep, n, 40 + n, **STATES[kind])
    acted = apply_batch(rep, r, t, StateBatch.of(state, n))
    rows = match_exponent_batch(
        rep, r, s, t, extract_multiplier_batch(rep, r, s, t, state, points))
    timed, _ = check_time_multiplier_batch(rep, r, s, t, state, points)
    for i in range(n):
        ri, si, ti = r.element(i), s.element(i), float(t[i])
        one = apply_time(rep, ri, ti, state)
        for got, want in zip(acted.row(i).terms, one.terms):
            assert got.alpha == want.alpha
            assert _same(got.beta, want.beta) and _same(got.Gamma, want.Gamma)
            assert got.poly.coeffs == want.poly.coeffs
        report = match_exponent(rep, ri, si, ti, extract_multiplier(
            rep, ri, si, ti, state, points[i]))
        assert rows.omega[i] == report.omega
        assert rows.constancy_spread[i] == report.constancy_spread
        assert rows.modulus_error[i] == report.modulus_error
        assert (rows.n_points[i], rows.n_skipped[i]) == (16, 0)
        assert rows.matched_exponent[0] == report.matched_exponent[0]
        assert rows.matched_exponent[1][i] == report.matched_exponent[1]
        assert timed[i] == check_time_multiplier(rep, ri, si, ti, state,
                                                 points[i])


def test_rows_with_skipped_points_match_the_one_row_call():
    # the state vanishes on the axis p1 = 0, where identity pairs put it
    rep = REPS[0]
    state = PolyGaussianState.gaussian(2, poly=Polynomial.variable(2, 0))
    off_axis = default_sample_points(state, n=8, seed=3)
    some_on_axis = off_axis.copy()
    some_on_axis[:2, 0] = 0.0
    all_on_axis = off_axis.copy()
    all_on_axis[:6, 0] = 0.0
    e, r = identity(2), identity_batch(2, 3)
    points = np.stack((off_axis, some_on_axis, all_on_axis))
    rows = extract_multiplier_batch(rep, r, r, 0.4, state, points)
    assert rows.n_skipped.tolist() == [0, 2, 6]
    assert rows.n_points.tolist() == [8, 6, 2]
    for i in (0, 1):
        report = extract_multiplier(rep, e, e, 0.4, state, points[i])
        assert rows.omega[i] == report.omega
        assert rows.constancy_spread[i] == report.constancy_spread
        assert rows.modulus_error[i] == report.modulus_error
    # too few usable points: NaN in the batch, an error in the 1-row call
    assert all(math.isnan(x) for x in (rows.omega[2].real,
                                       rows.constancy_spread[2],
                                       rows.modulus_error[2]))
    with pytest.raises(ValueError):
        extract_multiplier(rep, e, e, 0.4, state, points[2])
    residuals, n_points = check_time_multiplier_batch(rep, r, r, 0.4, state,
                                                      points)
    assert math.isnan(residuals[2]) and n_points[2] == 2
    with pytest.raises(ValueError):
        check_time_multiplier(rep, e, e, 0.4, state, points[2])


CHUNKED = dict(n_triples=3, n_pairs=7, n_time_cases=23, n_unitarity_cases=1,
               n_time_zero_cases=1, n_exponent_triples=1)


@pytest.mark.parametrize("family", ("_check_multipliers",
                                    "_check_time_multiplier"))
def test_multiplier_reports_do_not_depend_on_the_chunk_size(family,
                                                            monkeypatch):
    cfg = default_config(**CHUNKED)
    whole = getattr(harness, family)(cfg)
    monkeypatch.setattr(harness, "_SWEEP_CHUNK", 3)
    assert report_json(getattr(harness, family)(cfg)) == report_json(whole)


# -- negative controls: each fault must fail its check -----------------------

FAULT_CFG = dict(n_triples=3, n_pairs=30, n_time_cases=24,
                 n_unitarity_cases=1, n_time_zero_cases=1,
                 n_exponent_triples=1)


def _verdicts(family) -> dict:
    return {c["rep"]: c["pass"]
            for c in getattr(harness, family)(default_config(**FAULT_CFG))}


def _all_pass(family):
    return {rep.kind: True for rep in REPS} == _verdicts(family)


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


def test_a_product_built_as_s_r_fails_every_multiplier(monkeypatch):
    assert _all_pass("_check_multipliers")
    monkeypatch.setattr(harness, "multiply_batch",
                        lambda r, s: multiply_batch(s, r))
    assert not any(_verdicts("_check_multipliers").values())


# -- fail closed at scale 10 -------------------------------------------------

def test_scale_10_fails_closed_with_the_reason(tmp_path, capsys):
    cfg = default_config(scale=10.0, n_triples=6, n_pairs=40, n_time_cases=40,
                         n_unitarity_cases=2, n_time_zero_cases=2,
                         n_exponent_triples=4)
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    out = tmp_path / "report.json"
    code = main(["verify-all", "--config", str(path), "--json", str(out)])
    capsys.readouterr()
    assert code == 1
    report = json.loads(out.read_text())
    assert report["suite_pass"] is False
    short = [c for c in report["checks"]
             if isinstance(c["details"], dict) and "error" in c["details"]]
    assert {c["check"] for c in short} >= {"multiplier_bargmann3d"}
    for c in short:
        assert c["details"]["error"].startswith(
            "too few usable sample points")
        assert c["pass"] is False and math.isnan(c["max_residual"])
