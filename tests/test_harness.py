"""Suite configuration, report document shape, determinism, fail-closed
reductions, and the CLI."""

import dataclasses
import json
import math

import numpy as np
import pytest

from galiray import cocycles, harness, verify
from galiray.cli import main
from galiray.group import GalileiElement, element_to_dict, identity
from galiray.representations import rep_from_dict
from galiray.harness import (
    DEFAULT_TOLERANCES,
    config_from_dict,
    config_to_dict,
    default_config,
    load_config,
    report_json,
    run_suite,
)

# small case counts so the whole battery runs in well under a second per call
TINY = dict(n_triples=6, n_pairs=3, n_time_cases=3, n_unitarity_cases=2,
            n_time_zero_cases=2, n_exponent_triples=1)


def test_default_config_is_valid():
    cfg = default_config()
    assert cfg.seed == 12345
    assert cfg.n_triples == 1000
    assert cfg.n_pairs == 500
    assert set(cfg.tolerances) == set(DEFAULT_TOLERANCES)
    assert cfg.expected_divergences == ("heisenberg_position1d",)
    assert tuple(r.kind for r in cfg.reps) == (
        "schrodinger2d", "nonabelian2d", "bargmann3d", "position1d")


def test_config_validation_rejects_bad_values():
    with pytest.raises(ValueError):
        default_config(n_triples=0)
    with pytest.raises(ValueError):
        default_config(scale=0.0)
    with pytest.raises(ValueError):
        default_config(tau_sequence=(0.1, 0.05))
    with pytest.raises(ValueError):
        default_config(t_samples=())
    with pytest.raises(ValueError):
        default_config(n_time_cases=0)
    with pytest.raises(ValueError):
        default_config(tolerances={**DEFAULT_TOLERANCES, "group": -1.0})


NON_FINITE = {
    "nan_scale": {"scale": math.nan},
    "inf_scale": {"scale": math.inf},
    "nan_tau": {"tau_sequence": [0.1, math.nan, 0.025]},
    "nan_t_sample": {"t_samples": [0.5, math.nan]},
    "inf_tolerance": {"tolerances": {"group": math.inf}},
}


@pytest.mark.parametrize("overrides", NON_FINITE.values(), ids=NON_FINITE)
def test_config_rejects_non_finite_values(overrides, tmp_path):
    with pytest.raises(ValueError):
        default_config(**overrides)
    # json writes NaN and Infinity literals, which json.loads accepts
    as_json = tmp_path / "suite.json"
    as_json.write_text(json.dumps(overrides))
    with pytest.raises(ValueError):
        load_config(str(as_json))
    as_lines = tmp_path / "suite.cfg"
    as_lines.write_text("".join(f"{k} = {json.dumps(v)}\n"
                                for k, v in overrides.items()))
    with pytest.raises(ValueError):
        load_config(str(as_lines))


NON_FINITE_REPS = {
    "nan_gamma": {"kind": "bargmann3d", "gamma": math.nan},
    "inf_lambda": {"kind": "nonabelian2d", "lambda": math.inf},
    "nan_s": {"kind": "schrodinger2d", "s": math.nan},
    "nan_m": {"kind": "position1d", "m": math.nan},
    "inf_f": {"kind": "position1d", "f": -math.inf},
}


@pytest.mark.parametrize("rep", NON_FINITE_REPS.values(), ids=NON_FINITE_REPS)
def test_config_rejects_non_finite_rep_labels(rep, tmp_path):
    with pytest.raises(ValueError):
        default_config(reps=(rep_from_dict(rep),))
    as_json = tmp_path / "suite.json"
    as_json.write_text(json.dumps({"reps": [rep]}))
    with pytest.raises(ValueError):
        load_config(str(as_json))
    as_lines = tmp_path / "suite.cfg"
    as_lines.write_text(f"reps = {json.dumps([rep])}\n")
    with pytest.raises(ValueError):
        load_config(str(as_lines))


def test_config_dict_round_trip():
    cfg = default_config(seed=99, **TINY)
    assert config_from_dict(config_to_dict(cfg)) == cfg
    with pytest.raises(ValueError):
        config_from_dict({"n_tripels": 5})


def test_load_config_line_format(tmp_path):
    path = tmp_path / "suite.cfg"
    path.write_text("# comment\n\nseed = 7\nt_samples = [0.5, 1.0]\n"
                    "n_triples = 6\n")
    cfg = load_config(str(path))
    assert cfg.seed == 7
    assert cfg.t_samples == (0.5, 1.0)
    assert cfg.n_triples == 6


def test_load_config_json_format(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"seed": 42, "n_triples": 6}))
    assert load_config(str(path)).seed == 42


def test_load_config_rejects_garbage(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("seed 7\n")
    with pytest.raises(ValueError):
        load_config(str(path))
    path.write_text("seed = nope\n")
    with pytest.raises(ValueError):
        load_config(str(path))


def test_suite_report_shape_and_documented_exception():
    report = run_suite(default_config(**TINY))
    assert report["schema"] == 1
    assert report["suite_pass"] is True
    assert report["n_failed"] == 0
    assert report["n_documented_exceptions"] == 1
    assert report["seed"] == 12345
    assert report["n_checks"] == len(report["checks"])
    assert report["config"]["n_triples"] == 6

    names = [c["check"] for c in report["checks"]]
    assert names == sorted(names)
    expected = {
        "group_axioms_dim1", "group_axioms_dim2", "group_axioms_dim3",
        "algebra_dim1", "algebra_dim2", "algebra_dim3",
        "cocycle_xi0_dim3", "cocycle_xi1_dim2", "cocycle_xi2_dim2",
        "cocycle_xi_eta_dim1", "cocycle_xi_t_dim2_t0.5",
        "cocycle_xi_t_dim3_t1.7", "infinitesimal_exponents",
        "unitarity_schrodinger2d", "time_zero_bargmann3d",
        "multiplier_nonabelian2d", "time_multiplier_schrodinger2d",
        "heisenberg_position1d", "initial_conditions_position1d",
    }
    assert expected <= set(names)

    for entry in report["checks"]:
        assert set(entry) == {"check", "rep", "seed", "n_cases",
                              "max_residual", "pass", "details",
                              "documented_exception"}

    by_name = {c["check"]: c for c in report["checks"]}
    diverging = by_name["heisenberg_position1d"]
    assert diverging["pass"] is False
    assert diverging["documented_exception"] is True
    assert "sign flips" in diverging["details"]["note"]
    passing = [c for c in report["checks"] if c["check"] != "heisenberg_position1d"]
    assert all(c["pass"] for c in passing)

    # complex values render as [re, im] so the report is plain JSON
    K = by_name["heisenberg_schrodinger2d"]["details"]["K"]
    assert abs(K[0]) < 1e-12 and abs(K[1] - 1.0) < 1e-12
    mult = by_name["multiplier_bargmann3d"]["details"]
    assert mult["n_exponent_triples"] == 1
    assert mult["n_skipped_points"] == 0
    tm = by_name["time_multiplier_bargmann3d"]["details"]
    assert tm["n_pure_boost"] == 20
    assert tm["pure_boost_max"] < 1e-9


def test_suite_is_deterministic():
    a = run_suite(default_config(**TINY))
    b = run_suite(default_config(**TINY))
    a.pop("generated_at")
    b.pop("generated_at")
    assert report_json(a) == report_json(b)
    json.loads(report_json(a))


# -- fail closed: a NaN residual in any one case fails its check ------------

def _poison_call(fn, at, poison):
    """fn, but call number `at` returns poison(result)."""
    calls = [0]

    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls[0] += 1
        return poison(out) if calls[0] == at + 1 else out
    return wrapper


def _nan_row(values, i):
    values = values.copy()
    values[i] = math.nan
    return values


def _nan_first_point(points):
    points = points.copy()
    points[0] = math.nan
    return points


# (check family, namespace, attribute, poisoned call, poison); the harness
# rows hit its own reductions, the verify rows those inside verify; a batched
# entry point is poisoned in one row of its first chunk
NAN_INJECTIONS = {
    "infinitesimal": ("_check_infinitesimal", cocycles,
                      "infinitesimal_exponent", 0,
                      lambda v: dataclasses.replace(v, value=math.nan)),
    "unitarity": ("_check_unitarity", harness, "inner_product", 0,
                  lambda z: complex(math.nan, 0.0)),
    "time_zero": ("_check_time_zero", harness, "default_sample_points", 0,
                  _nan_first_point),
    "multiplier_spread": ("_check_multipliers", harness,
                          "extract_multiplier_batch", 0,
                          lambda b: dataclasses.replace(
                              b, constancy_spread=_nan_row(
                                  b.constancy_spread, 0))),
    "multiplier_modulus": ("_check_multipliers", harness,
                           "extract_multiplier_batch", 0,
                           lambda b: dataclasses.replace(
                               b, modulus_error=_nan_row(b.modulus_error, 0))),
    "multiplier_match": ("_check_multipliers", harness,
                         "match_exponent_batch", 0,
                         lambda b: dataclasses.replace(
                             b, matched_exponent=(
                                 b.matched_exponent[0],
                                 _nan_row(b.matched_exponent[1], 0)))),
    "multiplier_cocycle": ("_check_multipliers", harness,
                           "exponent_cocycle_residual", 0,
                           lambda x: math.nan),
    # case 0 is a pure boost, case 20 the first general pair
    "time_multiplier_boost": ("_check_time_multiplier", harness,
                              "check_time_multiplier_batch", 0,
                              lambda out: (_nan_row(out[0], 0), out[1])),
    "time_multiplier_general": ("_check_time_multiplier", harness,
                                "check_time_multiplier_batch", 0,
                                lambda out: (_nan_row(out[0], 20), out[1])),
    "initial_conditions": ("_check_initial_conditions", harness,
                           "check_initial_condition", 0, lambda x: math.nan),
    "heisenberg_battery": ("_check_heisenberg", verify,
                           "default_sample_points", 0, _nan_first_point),
    "initial_condition_points": ("_check_initial_conditions", verify,
                                 "default_sample_points", 0,
                                 _nan_first_point),
}


@pytest.mark.parametrize("case", NAN_INJECTIONS.values(), ids=NAN_INJECTIONS)
def test_a_nan_residual_fails_its_check(case, monkeypatch):
    family, owner, attr, at, poison = case
    cfg = default_config(**{**TINY, "n_time_cases": 21})
    monkeypatch.setattr(owner, attr,
                        _poison_call(getattr(owner, attr), at, poison))
    first = getattr(harness, family)(cfg)[0]
    assert first["pass"] is False
    assert math.isnan(first["max_residual"])


def test_cli_verify_all(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(config_to_dict(default_config(**TINY))))
    out_path = tmp_path / "report.json"

    monkeypatch.delenv("GALIRAY_SEED", raising=False)
    code = main(["verify-all", "--config", str(cfg_path),
                 "--json", str(out_path)])
    capsys.readouterr()
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["suite_pass"] is True
    assert report["seed"] == 12345

    monkeypatch.setenv("GALIRAY_SEED", "777")
    code = main(["verify-all", "--config", str(cfg_path),
                 "--json", str(out_path)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(out_path.read_text())["seed"] == 777

    code = main(["verify-all", "--config", str(cfg_path), "--seed", "888",
                 "--json", str(out_path)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(out_path.read_text())["seed"] == 888


def test_cli_cocycle(capsys):
    code = main(["cocycle", "xi1", "--triples", "50", "--lam", "0.8",
                 "--seed", "3"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["name"] == "xi1"
    assert doc["params"]["lambda"] == 0.8
    assert doc["n_triples"] == 50
    assert doc["max_residual"] < 1e-10
    assert doc["pass"] is True


def test_cli_infexp(capsys):
    code = main(["infexp", "xi0", "--x", "b1", "--y", "d1",
                 "--gamma", "1.5"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(doc["value"] - 1.5) < 1e-6
    assert doc["converged"] is True


def test_cli_multiplier_with_pair_file(tmp_path, capsys):
    pair = {"r": element_to_dict(identity(2)),
            "s": element_to_dict(identity(2))}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))
    code = main(["multiplier", "--rep", "schrodinger2d",
                 "--pair", str(path)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(doc["omega"][0] - 1.0) < 1e-12
    assert abs(doc["omega"][1]) < 1e-12
    assert doc["pass"] is True


def test_cli_rejects_a_non_finite_pair_file(tmp_path, capsys):
    pair = {"r": element_to_dict(identity(2)),
            "s": element_to_dict(identity(2))}
    pair["s"]["v"][1] = math.nan
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))  # a JSON NaN literal
    assert main(["multiplier", "--rep", "schrodinger2d",
                 "--pair", str(path)]) == 2
    assert "finite" in capsys.readouterr().err
    assert main(["action", "--gamma", "1.0", "--t", "1.0",
                 "--pair", str(path)]) == 2


def test_cli_multiplier_random_pair(capsys):
    code = main(["multiplier", "--rep", "bargmann3d", "--seed", "5",
                 "--t", "0.9"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["matched_exponent"]["residual"] < 1e-9


def test_cli_action(tmp_path, capsys):
    va, vb = np.array([0.4, -0.1]), np.array([0.3, 0.8])
    r = GalileiElement(2, np.eye(2), 0.0, va, np.zeros(2))
    s = GalileiElement(2, np.eye(2), 0.0, vb, np.zeros(2))
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"r": element_to_dict(r),
                                "s": element_to_dict(s)}))
    code = main(["action", "--gamma", "1.3", "--t", "0.7",
                 "--pair", str(path)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    want = -1.3 * float(va @ vb) * 0.7
    assert abs(doc["value"] - want) < 1e-12
    assert abs(doc["multiplier"][0] - np.cos(want)) < 1e-12
    assert abs(doc["multiplier"][1] - np.sin(want)) < 1e-12


def test_cli_heisenberg(capsys):
    code = main(["heisenberg", "--rep", "schrodinger2d"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["uniform"] is True
    assert abs(doc["K"][0]) < 1e-12 and abs(doc["K"][1] - 1.0) < 1e-12

    code = main(["heisenberg", "--rep", "position1d"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["uniform"] is False
    assert "sign flips" in doc["note"]


def test_cli_error_paths(tmp_path, capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
    assert main(["multiplier", "--rep", "position1d"]) == 2
    capsys.readouterr()

    bad = tmp_path / "bad.cfg"
    bad.write_text("seed 7\n")
    assert main(["verify-all", "--config", str(bad)]) == 2
    assert "error" in capsys.readouterr().err

    assert main(["action", "--gamma", "1.0", "--t", "1.0",
                 "--pair", str(tmp_path / "missing.json")]) == 2
