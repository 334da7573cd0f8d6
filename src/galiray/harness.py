"""Suite configuration, the check battery, and JSON report emission.

Every check is pure given (config, seed), so identical configurations give
byte-identical reports apart from the generated_at timestamp.

The battery is one table, FAMILIES: each family names its checks, and one
routine (_Family.__call__) runs each check and builds its report entry.
Seeds: the k-th check of a family (k from 0, in the order the family lists
its subjects) draws from the seed cfg.seed + 1009 (offset + k), where the
family's offset is group_axioms 1, algebra 11, cocycles 30, infinitesimal
50, unitarity 60, time_zero 70, multipliers 80, time_multiplier 90,
heisenberg 100 and initial_conditions 110 (the offsets of FAMILIES).  A
check's seed depends on its family and k alone, so a rep appended to
cfg.reps, or the last one dropped, leaves every other entry
byte-identical.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
from collections.abc import Mapping
from dataclasses import dataclass, field
from datetime import datetime, timezone
from types import MappingProxyType

import numpy as np

from . import cocycles
from .algebra import (algebra_batch_from_uniforms, basis_names, basis_rows,
                      commutator_batch, embed_algebra_batch,
                      exponential_batch, jacobi_residual_batch)
from .cocycles import PhaseExponent, cocycle_residual_batch
# multiply is not called here (rs and sq of exponent_cocycle_residual_batch
# are the suite's scalar products): perfbench/test_perfbench.py reads it here
from .group import (_from_raw, _is_number, _raw_width, _uniform,
                    embed_matrix_batch, identity_batch, inverse_batch,
                    multiply, multiply_batch, random_element_batch,
                    stack_batches)
from .representations import (MOMENTUM_KINDS, RepDescriptor, apply_batch,
                              generator_names, rep_from_dict, rep_to_dict)
from .states import (_state_widths, _states_from_blocks, inner_product_batch,
                     random_state)
from .verify import (_modulus, _term_mismatch, check_initial_condition,
                     check_time_multiplier_batch,
                     exponent_cocycle_residual_batch, extract_multiplier_batch,
                     heisenberg_fit, match_exponent_batch)

__all__ = [
    "SuiteConfig",
    "default_config",
    "config_to_dict",
    "config_from_dict",
    "load_config",
    "run_suite",
    "report_json",
    "cocycle_sweep",
]

DEFAULT_TOLERANCES = MappingProxyType({
    "group": 1e-12,
    "algebra": 1e-12,
    "cocycle": 1e-10,
    "infexp": 1e-6,
    "unitarity": 1e-9,
    "time_zero": 1e-12,
    "multiplier_spread": 1e-9,
    "multiplier_modulus": 1e-10,
    "multiplier_match": 1e-9,
    "exponent_cocycle": 1e-8,
    "time_multiplier": 1e-9,
    "heisenberg": 1e-12,
    "initial_condition": 1e-12,
})

_SWEEP_CHUNK = 512  # cases per batch: bounds the temporaries at any count
_CHECK_SEED_STRIDE = 1009  # distinct rng stream per check, still seed-derived
# the version of the carrier checks' draws and arithmetic, stamped in every
# report: 2 since the carrier cases are block draws of fixed-width slices
STREAM = 2


# each count field and its least value: numpy needs every seed that the
# families derive from the suite seed non-negative
_COUNTS = {"seed": 0, "n_triples": 1, "n_pairs": 1, "n_time_cases": 1,
           "n_unitarity_cases": 1, "n_time_zero_cases": 1,
           "n_exponent_triples": 1}


def _worst(residuals) -> float:
    """Largest of the residuals, 0.0 for none.  A NaN residual gives NaN, so
    the check fails; Python's max(0.0, nan) would return 0.0 and pass."""
    return float(np.max(np.asarray(residuals, dtype=float), initial=0.0))


def _finite_positive(x) -> bool:
    return _is_number(x) and math.isfinite(x) and x > 0


def _default_reps():
    return (
        RepDescriptor("schrodinger2d", gamma=1.3, s=0.7),
        RepDescriptor("nonabelian2d", gamma=1.1, lam=0.8, s=-0.4),
        RepDescriptor("bargmann3d", gamma=0.9),
        RepDescriptor("position1d", m=1.0, force_f=0.5, V0=0.25, hbar=1.0),
    )


@dataclass(frozen=True)
class SuiteConfig:
    """The seed, scale, case counts and reps of one run of the battery.

    The battery itself is fixed: the times at which xi_t and the carrier
    families are checked (t_samples), the check that is expected to fail
    (expected_divergences), the tolerances (DEFAULT_TOLERANCES) and the
    Richardson taus (cocycles.DEFAULT_TAU_SEQUENCE) are constants, not
    fields."""

    seed: int = 12345
    scale: float = 1.0
    n_triples: int = 1000
    n_pairs: int = 500
    reps: tuple = field(default_factory=_default_reps)
    n_time_cases: int = 200
    n_unitarity_cases: int = 100
    n_time_zero_cases: int = 100
    n_exponent_triples: int = 60

    t_samples = (0.5, 1.7)
    expected_divergences = ("heisenberg_position1d",)

    def __post_init__(self):
        self.validate()

    def validate(self):
        """ValueError for a config the suite cannot run; every SuiteConfig
        runs this when it is built."""
        for name, least in _COUNTS.items():
            n = getattr(self, name)
            # _is_number: not a bool, nor an integer beyond every float
            if not (isinstance(n, int) and _is_number(n) and n >= least):
                kind = "non-negative" if least == 0 else "positive"
                raise ValueError(f"{name} must be a {kind} integer, "
                                 f"got {n!r}")
        if not _finite_positive(self.scale):
            raise ValueError(f"scale must be finite and positive, "
                             f"got {self.scale!r}")
        if not (isinstance(self.reps, (tuple, list)) and all(
                isinstance(rep, RepDescriptor) for rep in self.reps)):
            raise ValueError(f"reps has the wrong type: {self.reps!r}")
        kinds = [rep.kind for rep in self.reps]
        repeated = sorted({k for k in kinds if kinds.count(k) > 1})
        if repeated:
            raise ValueError(f"reps must give distinct check names: kinds "
                             f"{repeated} appear more than once")


def default_config(**overrides) -> SuiteConfig:
    return SuiteConfig(**overrides)


def config_to_dict(cfg: SuiteConfig) -> dict:
    """cfg as the JSON document that config_from_dict reads back."""
    return {f.name: _json_safe(getattr(cfg, f.name))
            for f in dataclasses.fields(cfg)}


def config_from_dict(data: dict) -> SuiteConfig:
    """The config of a JSON document.  Only JSON forms are converted here: a
    number to a float, a count written as a whole float to an int, and the
    list of rep documents to a tuple of RepDescriptors; SuiteConfig rejects
    any value still of the wrong type or out of range, as it does from
    Python."""
    types = typing.get_type_hints(SuiteConfig)
    unknown = set(data) - set(types)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        kind = types[key]
        if kind is int and isinstance(value, float) and value.is_integer():
            value = int(value)
        elif kind is float and _is_number(value):
            value = float(value)
        elif key == "reps" and isinstance(value, list):
            value = tuple(map(rep_from_dict, value))
        kwargs[key] = value
    return SuiteConfig(**kwargs)


def _read_json(path: str):
    """The JSON document of the file at path.  A file json.load cannot read,
    malformed or nested deeper than the parser recurses, is a ValueError
    that names it: an input error, not a fault of the program."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: cannot read as JSON: nested too "
                             f"deeply") from None
        except ValueError as exc:
            raise ValueError(f"{path}: cannot read as JSON: {exc}") from None


def load_config(path: str) -> SuiteConfig:
    """The config of a JSON file: one object whose keys are SuiteConfig
    fields (config_to_dict writes one)."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: the top level must be a JSON object of "
                         f"config fields")
    return config_from_dict(doc)


# a float that is not finite, as a string that float() reads back
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_safe(obj):
    """obj as standard JSON values: a numpy scalar as a Python one, a rep as
    its document, a complex number as [re, im], and a float that is not
    finite as the string "NaN", "Infinity" or "-Infinity"."""
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, RepDescriptor):
        return rep_to_dict(obj)
    if isinstance(obj, Mapping):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, complex):
        return _json_safe([obj.real, obj.imag])
    if isinstance(obj, float) and not math.isfinite(obj):
        return _NON_FINITE[repr(obj)]
    return obj


@dataclass(frozen=True)
class _Family:
    """A check family.  subjects(cfg) lists its checks, each as (check name,
    rep label, subject), and run(cfg, subject, seed) runs one check and
    returns (n_cases, max_residual, ok, details), details of plain Python
    JSON values (a float may be NaN) or None.  The k-th check has the
    seed cfg.seed + 1009 (offset + k).  A check passes if ok holds and
    max_residual is below the tolerance tol_key (if not None); a failing
    check that SuiteConfig.expected_divergences lists is a documented
    exception.  A run that raises gives a failing entry, never a documented
    exception, of NaN residual, 0 cases and details {"error": "<Type>:
    <message>"}.  Called on cfg, a family returns its checks' report
    entries."""

    name: str
    offset: int
    tol_key: str | None
    subjects: typing.Callable
    run: typing.Callable

    def __call__(self, cfg: SuiteConfig) -> list:
        tol = (math.inf if self.tol_key is None
               else DEFAULT_TOLERANCES[self.tol_key])
        entries = []
        for k, (check, rep, subject) in enumerate(self.subjects(cfg)):
            seed = cfg.seed + _CHECK_SEED_STRIDE * (self.offset + k)
            try:
                n_cases, worst, ok, details = self.run(cfg, subject, seed)
                expected = check in cfg.expected_divergences
            except Exception as exc:  # one check's fault, not the suite's
                n_cases, worst, ok, expected = 0, math.nan, False, False
                details = {"error": f"{type(exc).__name__}: {exc}"}
            passed = bool(ok and worst < tol)
            entries.append({
                "check": check, "rep": rep, "seed": seed, "n_cases": n_cases,
                "max_residual": float(worst), "pass": passed,
                "documented_exception": not passed and expected,
                "details": [] if details is None else details})
        return entries


def _per_dim(prefix: str):
    """subjects: the checks prefix_dim<d> of the dimensions 1, 2 and 3."""
    return lambda cfg: [(f"{prefix}_dim{dim}", None, dim) for dim in (1, 2, 3)]


def _momentum_reps(cfg: SuiteConfig):
    return [r for r in cfg.reps if r.kind in MOMENTUM_KINDS]


def _per_rep(prefix: str, reps=_momentum_reps):
    """subjects: the check prefix_<kind> of each rep that reps(cfg) lists."""
    return lambda cfg: [(f"{prefix}_{r.kind}", r.kind, r) for r in reps(cfg)]


def _mat_diff(A, B) -> np.ndarray:
    """Per-row max |A - B| over stacks of matrices."""
    return np.max(np.abs(A - B), axis=(1, 2))


def _sweep(rng, n_cases: int, draw, residuals):
    """Worst residual over n_cases random cases drawn from rng, a seed or a
    numpy Generator whose stream the sweep continues.

    draw(rng, cases) returns the batched operands of the cases in the range
    cases of global case indices, taking from rng what case-by-case draws
    would take, so cases do not depend on the batch size.
    residuals(*operands) returns one residual per case, or a (k, n) stack of
    k residual kinds, each reduced on its own to a list of k worsts.  The
    maximum propagates NaN: a case that overflows fails its check.
    """
    if n_cases < 1:
        raise ValueError("a sweep needs at least one case")
    rng = np.random.default_rng(rng)
    worst = []
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_cases, _SWEEP_CHUNK):
            cases = range(start, min(start + _SWEEP_CHUNK, n_cases))
            worst.append(np.max(residuals(*draw(rng, cases)), axis=-1,
                                initial=0.0))
    return np.max(worst, axis=0).tolist()


def _elements(k: int, dim: int, scale: float, max_angle: float = math.pi):
    """draw for _sweep: k elements per case, drawn one after another."""
    def draw(rng, cases):
        b = random_element_batch(rng, k * len(cases), dim, scale, max_angle)
        return tuple(b[i::k] for i in range(k))
    return draw


def _group_residuals(r, s, q) -> np.ndarray:
    """Associativity, two-sided inverse, homomorphism and neutral element."""
    e, E = identity_batch(r.dim, len(r)), np.eye(r.dim + 2)
    Er, ri = embed_matrix_batch(r), inverse_batch(r)
    return np.max([
        _mat_diff(embed_matrix_batch(multiply_batch(multiply_batch(r, s), q)),
                  embed_matrix_batch(multiply_batch(r, multiply_batch(s, q)))),
        _mat_diff(embed_matrix_batch(multiply_batch(r, ri)), E),
        _mat_diff(embed_matrix_batch(multiply_batch(ri, r)), E),
        _mat_diff(embed_matrix_batch(multiply_batch(r, s)),
                  Er @ embed_matrix_batch(s)),
        _mat_diff(embed_matrix_batch(multiply_batch(e, r)), Er),
    ], axis=0)


def _run_group_axioms(cfg: SuiteConfig, dim: int, seed: int):
    n = max(1, cfg.n_triples // 3)
    worst = _sweep(seed, n, _elements(3, dim, cfg.scale), _group_residuals)
    return n, worst, True, None


def _algebra_cases(dim: int, scale: float):
    """draw for _sweep: per case the elements X, Y, Z and then two flow
    parameters a, b uniform in [-1, 1]."""
    k = (dim + 1) ** 2

    def draw(rng, cases):
        U = rng.random((len(cases), 3 * k + 2))
        X, Y, Z = (algebra_batch_from_uniforms(U[:, i * k:(i + 1) * k], dim,
                                               scale) for i in range(3))
        a, b = _uniform(U[:, 3 * k:], 1.0).T
        return X, Y, Z, a, b
    return draw


def _algebra_residuals(X, Y, Z, a, b) -> np.ndarray:
    """Jacobi identity, bracket = matrix commutator, one-parameter
    homomorphism of the exponential map, and exp(X) exp(-X) = 1."""
    n = len(X)
    MX, MY = embed_algebra_batch(X), embed_algebra_batch(Y)
    # exp(aX), exp(X), exp(bX), exp(-X), exp((a+b)X) as one batch (1 and -1
    # scale exactly); then both products, and all three matrices, as one
    E = exponential_batch(X[np.tile(np.arange(n), 5)].scale(
        np.concatenate((a, np.ones(n), b, np.full(n, -1.0), a + b))))
    M = embed_matrix_batch(stack_batches(
        (multiply_batch(E[:2 * n], E[2 * n:4 * n]), E[4 * n:])))
    return np.max([
        jacobi_residual_batch(X, Y, Z),
        _mat_diff(embed_algebra_batch(commutator_batch(X, Y)),
                  MX @ MY - MY @ MX),
        _mat_diff(M[2 * n:], M[:n]),
        _mat_diff(M[n:2 * n], np.eye(X.dim + 2)),
    ], axis=0)


def _run_algebra(cfg: SuiteConfig, dim: int, seed: int):
    n = max(1, cfg.n_triples // 3)
    worst = _sweep(seed, n, _algebra_cases(dim, cfg.scale), _algebra_residuals)
    return n, worst, True, None


def _cocycle_cases(cfg: SuiteConfig):
    """subjects: the cocycle checks, each of one exponent."""
    cases = [
        ("cocycle_xi0_dim3", None, PhaseExponent("xi0", 3, gamma=1.3)),
        ("cocycle_xi1_dim2", None, PhaseExponent("xi1", 2, lam=0.8)),
        ("cocycle_xi2_dim2", None, PhaseExponent("xi2", 2, S=0.6)),
        ("cocycle_xi_eta_dim1", None,
         PhaseExponent("xi_eta", 1, a1=0.9, a2=0.7)),
    ]
    for dim in (2, 3):
        for t in cfg.t_samples:
            cases.append((f"cocycle_xi_t_dim{dim}_t{t:g}", None,
                          PhaseExponent("xi_t", dim, gamma=1.1, t=float(t))))
    return cases


def cocycle_sweep(xi: PhaseExponent, seed: int, n_triples: int,
                  scale: float = 1.0) -> float:
    """Worst cocycle residual of xi over n_triples random triples drawn from
    the stream of seed, with rotations capped so that principal-branch
    angles never wrap inside a triple."""
    max_angle = min(scale, math.pi / 3.5)
    return _sweep(seed, n_triples, _elements(3, xi.dim, scale, max_angle),
                  functools.partial(cocycle_residual_batch, xi))


def _run_cocycle(cfg: SuiteConfig, xi: PhaseExponent, seed: int):
    worst = cocycle_sweep(xi, seed, cfg.n_triples, cfg.scale)
    return cfg.n_triples, worst, True, {"params": xi.params()}


def _pairing(x: str, y: str) -> float:
    """Infinitesimal xi0 (gamma 1) of the basis directions x, y."""
    if x[1:] != y[1:]:
        return 0.0
    return {("b", "d"): 1.0, ("d", "b"): -1.0}.get((x[0], y[0]), 0.0)


def _run_infinitesimal(cfg: SuiteConfig, xi: PhaseExponent, seed: int):
    """[X, Y] pairing of xi (xi0, gamma 1) over every pair of dim-3 basis
    directions: gamma = 1 for (b_i, d_i), -1 for (d_i, b_i), 0 otherwise;
    it seeds nothing."""
    names = basis_names(3)
    pairs = [(xn, yn) for xn in names for yn in names]
    tol = DEFAULT_TOLERANCES["infexp"]
    X, Y = (basis_rows(column, 3) for column in zip(*pairs))
    value, _, converged = cocycles.infinitesimal_exponent_batch(xi, X, Y)
    expected = np.array([_pairing(x, y) for x, y in pairs])
    residuals = np.abs(value - expected)
    failing = [{"x": x, "y": y, "value": float(v), "expected": float(e)}
               for (x, y), v, e, bad in zip(pairs, value, expected,
                                            ~(residuals < tol)) if bad]
    n_unconverged = int(np.sum(~converged))
    return (len(pairs), _worst(residuals), n_unconverged == 0,
            {"n_unconverged": n_unconverged, "failing_pairs": failing})


def _streams(seed: int) -> tuple:
    """The two sub-streams of a carrier check's cases: the stream of seed
    gives their uniforms, and its first spawned child their normals."""
    child = np.random.SeedSequence(seed).spawn(1)[0]
    return np.random.default_rng(seed), np.random.default_rng(child)


def _carrier_cases(normal, dim: int, scale: float, degrees, ts):
    """draw for _sweep: case i takes one random state per entry of
    degrees[i % len(degrees)], of that polynomial degree, then one element
    r, and runs at t = ts[i % len(ts)].  Returns one StateBatch per state
    slot, r as one GalileiBatch, and t.

    Each case takes a fixed-width slice of two sub-streams: its states'
    normals from normal, and its states' uniforms and then r's from the
    sweep's rng.  A slot is as wide as a state of its highest degree
    (_state_widths), whatever the case's own, so case i takes the same
    numbers at any chunk size.  The chunk's states and elements are built
    from one block per sub-stream, in one array pass each."""
    slots = [_state_widths(dim, max(d[k] for d in degrees))
             for k in range(len(degrees[0]))]
    n_normal = sum(w for w, _ in slots)
    n_uniform = sum(w for _, w in slots) + _raw_width(dim)
    degrees, ts = np.array(degrees), np.array(ts, dtype=float)

    def draw(rng, cases):
        i = np.arange(cases.start, cases.stop)
        N = normal.standard_normal((len(i), n_normal))
        U = rng.random((len(i), n_uniform))
        states, a, b = [], 0, 0
        for k, (wn, wu) in enumerate(slots):
            states.append(_states_from_blocks(
                N[:, a:a + wn], U[:, b:b + wu], dim,
                degrees[i % len(degrees), k]))
            a, b = a + wn, b + wu
        return (*states, _from_raw(U[:, b:], dim, scale), ts[i % len(ts)])
    return draw


def _carrier_sweep(cfg: SuiteConfig, rep, seed: int, n: int, degrees, ts,
                   residuals):
    """run of a check that is a sweep of n _carrier_cases of rep from the
    two _streams of seed; residuals takes the rep first."""
    rng, normal = _streams(seed)
    draw = _carrier_cases(normal, rep.dim, cfg.scale, degrees, ts)
    worst = _sweep(rng, n, draw, functools.partial(residuals, rep))
    return n, worst, True, None


def _unitarity_residuals(rep, F, G, r, t):
    after = inner_product_batch(apply_batch(rep, r, t, F),
                                apply_batch(rep, r, t, G))
    return _modulus(after - inner_product_batch(F, G))


def _run_unitarity(cfg: SuiteConfig, rep, seed: int):
    """|<U_t(r) f, U_t(r) g> - <f, g>| over random states and elements;
    t cycles through 0 and the t_samples."""
    # f and g: one of degree 0, the other of degree 1
    return _carrier_sweep(cfg, rep, seed, cfg.n_unitarity_cases,
                          ((0, 1), (1, 0)), (0.0, *cfg.t_samples),
                          _unitarity_residuals)


def _time_zero_residuals(rep, F, r, t):
    # t is an array of zeros; apply_batch skips the time phase of every row
    # at t = 0, so both sides run the same code
    dalpha, mismatch = _term_mismatch(apply_batch(rep, r, t, F),
                                      apply_batch(rep, r, 0.0, F))
    return np.maximum(_modulus(dalpha), mismatch)


def _run_time_zero(cfg: SuiteConfig, rep, seed: int):
    """U_t(r) f with a per-row t of zeros against the plain action U(r) f,
    term by term: the residual is |dalpha| of term 0 or the term mismatch
    (verify._term_mismatch), whichever is larger.

    apply_batch skips the time phase of every row with t = 0, so both sides
    run the same code and this shows little more than determinism; a
    spurious phase common to every U_t(r) passes it.
    """
    return _carrier_sweep(cfg, rep, seed, cfg.n_time_zero_cases, ((0,),),
                          (0.0,), _time_zero_residuals)


def _multiplier_residuals(rep, state, r, s):
    """(constancy spread, modulus error, matched-exponent residual) of the
    multiplier of each pair (r, s) at t = 0."""
    rows = extract_multiplier_batch(rep, r, s, 0.0, state)
    _, match = match_exponent_batch(rep, r, s, 0.0, rows)
    return np.stack([rows.constancy_spread, rows.modulus_error, match])


def _multipliers_pass(spread, modulus, match) -> bool:
    """The verdict on multipliers of pairs with these worst constancy
    spread, modulus error and matched-exponent residual; NaN fails."""
    return (spread < DEFAULT_TOLERANCES["multiplier_spread"]
            and modulus < DEFAULT_TOLERANCES["multiplier_modulus"]
            and match < DEFAULT_TOLERANCES["multiplier_match"])


def _run_multiplier(cfg: SuiteConfig, rep, seed: int):
    """The pairs' multipliers and the exponent triples' cocycle residual,
    each held to its own tolerance (the family has no single one)."""
    rng = np.random.default_rng(seed)
    # the state, then the pairs, then the exponent triples: one stream
    state = random_state(rng, rep.dim)
    max_spread, max_modulus, max_match = _sweep(
        rng, cfg.n_pairs, _elements(2, rep.dim, cfg.scale),
        functools.partial(_multiplier_residuals, rep, state))
    max_cocycle, triple_spread, triple_modulus = _sweep(
        rng, cfg.n_exponent_triples, _elements(3, rep.dim, cfg.scale),
        functools.partial(exponent_cocycle_residual_batch, rep, t=0.0,
                          state=state))
    # the triples' extractions are held to the pairs' tolerances
    max_spread = _worst((max_spread, triple_spread))
    max_modulus = _worst((max_modulus, triple_modulus))
    ok = (_multipliers_pass(max_spread, max_modulus, max_match)
          and max_cocycle < DEFAULT_TOLERANCES["exponent_cocycle"])
    details = {
        "max_constancy_spread": max_spread,
        "max_modulus_error": max_modulus,
        "max_matched_exponent_residual": max_match,
        "max_exponent_cocycle_residual": max_cocycle,
        "n_exponent_triples": cfg.n_exponent_triples,
    }
    worst = _worst((max_spread, max_modulus, max_match, max_cocycle))
    return cfg.n_pairs, worst, ok, details


def _time_cases(normal, dim: int, scale: float, t_samples, n_boost: int):
    """draw for _sweep: per case t, t_samples[i] for the first cases, then r
    and s, pure boosts for the first n_boost cases; returns t, r, s and which
    cases are pure boosts.

    Each case takes 1 + 2 width uniforms of the sweep's rng: t's, mapped as
    rng.uniform(-2, 2) maps its draw, then the raw rows of r and s.  A pure
    boost takes its two velocities, 2 dim normals, from normal instead; the
    boosts come first, so case i takes the same numbers at any chunk
    size."""
    width = _raw_width(dim)
    t_samples = np.array(t_samples, dtype=float)

    def draw(rng, cases):
        i = np.arange(cases.start, cases.stop)
        U = rng.random((len(i), 1 + 2 * width))
        t = _uniform(U[:, 0], 2.0)
        sampled = i < len(t_samples)
        t[sampled] = t_samples[i[sampled]]
        b = _from_raw(U[:, 1:].reshape(-1, width), dim, scale)
        boost = i < n_boost
        pure = boost.repeat(2)
        b.W[pure], b.eta[pure], b.u[pure] = np.eye(dim), 0.0, 0.0
        b.v[pure] = normal.standard_normal((2 * np.count_nonzero(boost),
                                            dim))
        return t, b[0::2], b[1::2], boost
    return draw


def _run_time_multiplier(cfg: SuiteConfig, rep, seed: int):
    """|omega_t / omega_0 - e^{i xi_t}| over the cases of _time_cases; the
    worst of the pure boosts is reported apart from the rest."""
    n_boost = 20

    def residuals(rep, state, t, r, s, boost):
        # one row per kind, 0 where the case is of the other kind
        return np.where([boost, ~boost],
                        check_time_multiplier_batch(rep, r, s, t, state), 0.0)

    rng, normal = _streams(seed)
    state = random_state(rng, rep.dim)
    worst_boost, worst_general = _sweep(
        rng, cfg.n_time_cases,
        _time_cases(normal, rep.dim, cfg.scale, cfg.t_samples, n_boost),
        functools.partial(residuals, rep, state))
    details = {"pure_boost_max": worst_boost,
               "general_max": worst_general,
               "n_pure_boost": n_boost}
    return (cfg.n_time_cases, _worst((worst_boost, worst_general)), True,
            details)


def _run_heisenberg(cfg: SuiteConfig, rep, seed: int):
    """The Heisenberg law of each of rep's generators at K = i/hbar
    (verify.heisenberg_fit); a momentum kind's H, P_i and M must also be
    free of t.  It seeds nothing.  position1d as printed breaks the law for
    P alone, by 2|f|: the sign of P's force term (ROADMAP item 8)."""
    residuals, time_independent = heisenberg_fit(rep)
    ok = rep.kind not in MOMENTUM_KINDS or all(
        free for name, free in time_independent.items()
        if not name.startswith("N"))
    details = {"per_generator": {name: {"residual": r}
                                 for name, r in residuals.items()},
               "time_independent": time_independent}
    return len(residuals), _worst(list(residuals.values())), ok, details


def _run_initial_conditions(cfg: SuiteConfig, rep, seed: int):
    """Each generator at t = 0 against its static form; it seeds nothing.
    Of the momentum kinds only N_i has a static form of its own: for H,
    P_i and M the check compares one formula with itself (ROADMAP item
    5)."""
    names = generator_names(rep)
    worst = _worst([check_initial_condition(rep, name) for name in names])
    return len(names), worst, True, None


# the battery, in the order run_suite runs it
FAMILIES = (
    _Family("group_axioms", 1, "group", _per_dim("group_axioms"),
            _run_group_axioms),
    _Family("algebra", 11, "algebra", _per_dim("algebra"), _run_algebra),
    _Family("cocycles", 30, "cocycle", _cocycle_cases, _run_cocycle),
    _Family("infinitesimal", 50, "infexp", lambda cfg: [(
        "infinitesimal_exponents", None, PhaseExponent("xi0", 3, gamma=1.0))],
            _run_infinitesimal),
    _Family("unitarity", 60, "unitarity", _per_rep("unitarity"),
            _run_unitarity),
    _Family("time_zero", 70, "time_zero", _per_rep("time_zero"),
            _run_time_zero),
    _Family("multipliers", 80, None, _per_rep("multiplier"),
            _run_multiplier),
    _Family("time_multiplier", 90, "time_multiplier",
            _per_rep("time_multiplier"), _run_time_multiplier),
    _Family("heisenberg", 100, "heisenberg",
            _per_rep("heisenberg", lambda cfg: cfg.reps), _run_heisenberg),
    _Family("initial_conditions", 110, "initial_condition",
            _per_rep("initial_conditions", lambda cfg: cfg.reps),
            _run_initial_conditions),
)
# each family's entry point, which perfbench/layers.py traces by this name
globals().update((f"_check_{family.name}", family) for family in FAMILIES)


def _fails(report: dict) -> bool:
    """Whether a report entry fails its suite: it fails, and is not a
    documented exception."""
    return not report["pass"] and not report["documented_exception"]


def run_suite(cfg: SuiteConfig = None) -> dict:
    """Run every check; returns the report document, of plain Python JSON
    values with any NaN residual kept a float (report_json writes it)."""
    cfg = cfg or default_config()
    # each family through its module name, so that a wrapper bound to the
    # name (a tracer's) sees the call
    checks = [report for family in FAMILIES
              for report in globals()[f"_check_{family.name}"](cfg)]
    checks.sort(key=lambda r: r["check"])
    n_failed = sum(map(_fails, checks))
    return {
        "schema": 1,
        "stream": STREAM,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "seed": cfg.seed,
        "suite_pass": n_failed == 0,
        "n_checks": len(checks),
        "n_failed": n_failed,
        "n_documented_exceptions": sum(r["documented_exception"]
                                       for r in checks),
        "checks": checks,
        "config": config_to_dict(cfg),
    }


def report_json(doc: dict) -> str:
    """doc as standard JSON text (_json_safe), the one writer of every
    document galiray prints.  A non-finite value that escapes the conversion
    is a ValueError, not a bare NaN token."""
    return json.dumps(_json_safe(doc), indent=2, sort_keys=True,
                      allow_nan=False)
