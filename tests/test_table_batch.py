"""The batched infinitesimal-exponent table, unitarity inner products and
time-zero comparison.

infinitesimal_exponent_batch, StateBatch.substitute and inner_product_batch
are written once, and infinitesimal_exponent, PolyGaussianState.substitute
and inner_product are their 1-row views, so row i of an N-row call must
equal the 1-row call on row i bit for bit, whatever polynomial degrees the
other rows have.  The suite's unitarity and time-zero checks draw their
cases as arrays and run in chunks: the drawn cases must equal a
case-by-case random_state and random_element loop on the check's two
sub-streams, each case its fixed slice of both, no polynomial mapping
becomes rows and no row becomes a state per case, and the reports must not
depend on the chunk size; each must equal a case-by-case loop that draws
the same cases.  No family of the suite evaluates a state at a point.  The
faults that each check must fail on, a row whose Gaussian does not
converge among them, are entries of the mutant registry
(tests/test_mutants.py).
"""

import math

import numpy as np
import pytest

from galiray import algebra, cocycles, harness, verify
from galiray.algebra import basis_element, basis_names, basis_rows
from galiray.cocycles import (PhaseExponent, equivalence_transform,
                              infinitesimal_exponent,
                              infinitesimal_exponent_batch)
from galiray.group import random_element, random_element_batch
from galiray.harness import default_config, report_json, run_suite
from galiray.representations import RepDescriptor, apply_batch, apply_time
from galiray.states import (PolyGaussianState, StateBatch, _monomials_up_to,
                            _PolyRows, _states_from_blocks, inner_product,
                            inner_product_batch, random_state)
from galiray.verify import default_sample_points

TINY = dict(n_triples=6, n_pairs=3, n_time_cases=3, n_unitarity_cases=2,
            n_time_zero_cases=2, n_exponent_triples=1)
TIME_ZERO = ("time_zero_schrodinger2d", "time_zero_nonabelian2d",
             "time_zero_bargmann3d")


def _same(a, b) -> bool:
    """Equal bit for bit, NaN included."""
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


# -- infinitesimal exponents -------------------------------------------------

EXPONENTS = {
    "xi0": PhaseExponent("xi0", 3, gamma=1.3),
    "xi1": PhaseExponent("xi1", 2, lam=0.8),
    "xi_eta": PhaseExponent("xi_eta", 1, a1=0.9, a2=0.7),
    "coboundary": equivalence_transform(
        PhaseExponent("xi0", 2, gamma=0.7),
        lambda r: 0.7 * r.eta ** 2 + 0.3 * r.u[:, 0] * r.v[:, 1]),
}


def _basis_pairs(dim):
    names = basis_names(dim)
    pairs = [(x, y) for x in names for y in names]
    X, Y = ([basis_element(p[k], dim) for p in pairs] for k in (0, 1))
    stack = [basis_rows([p[k] for p in pairs], dim) for k in (0, 1)]
    return X, Y, stack


@pytest.mark.parametrize("name", EXPONENTS)
def test_row_i_of_the_infinitesimal_batch_is_the_one_row_call(name):
    xi = EXPONENTS[name]
    X, Y, (XB, YB) = _basis_pairs(xi.dim)
    value, err, converged = infinitesimal_exponent_batch(xi, XB, YB)
    assert len(value) == len(X)
    for i, (x, y) in enumerate(zip(X, Y)):
        one = infinitesimal_exponent(xi, x, y)
        assert _same(value[i], one.value)
        assert _same(err[i], one.extrapolation_error)
        assert bool(converged[i]) is one.converged


@pytest.mark.parametrize("name", ["xi0", "xi1"])
def test_repeated_and_permuted_rows_keep_their_one_row_values(name):
    xi = EXPONENTS[name]
    pool = algebra.random_algebra_batch(60, 5, xi.dim, 0.8)
    rows_x, rows_y = np.random.default_rng(61).integers(0, 5, (2, 40))
    value, err, converged = infinitesimal_exponent_batch(xi, pool[rows_x],
                                                         pool[rows_y])
    for i, (x, y) in enumerate(zip(rows_x, rows_y)):
        one = infinitesimal_exponent(xi, pool.element(x), pool.element(y))
        assert _same(value[i], one.value)
        assert _same(err[i], one.extrapolation_error)
        assert bool(converged[i]) is one.converged


def test_the_table_exponentiates_each_distinct_row_once(monkeypatch):
    rows = []
    exponential_batch = algebra.exponential_batch

    def counted(X):
        rows.append(len(X))
        return exponential_batch(X)

    monkeypatch.setattr(algebra, "exponential_batch", counted)
    (entry,) = harness._check_infinitesimal(default_config(**TINY))
    assert entry["pass"] is True
    # 100 pairs of the 10 dim-3 basis directions, at 5 taus
    assert rows == [10 * len(cocycles.DEFAULT_TAU_SEQUENCE)]


def test_rows_merge_only_when_equal_bit_for_bit():
    X = algebra.random_algebra_batch(70, 1, 2, 0.8)[[0] * 5]
    X.trans[1, 0] = 0.0
    X.trans[2, 0] = -0.0
    X.time[3] = X.time[4] = math.nan
    Y = X[[4, 0, 2, 1, 3]]
    U, ix, iy = cocycles._distinct_rows(X, Y)
    # rows 3 and 4 hold the same NaN, so they are one row; 1 and 2 differ
    # in the sign of a zero
    assert len(U) == 4
    assert len(set(ix[[0, 1, 2, 3]])) == 4 and ix[3] == ix[4]
    assert iy.tolist() == ix[[4, 0, 2, 1, 3]].tolist()
    stacked = {f: np.concatenate((getattr(X, f), getattr(Y, f)))
               for f in algebra.AlgebraBatch.__slots__}
    for f, rows in stacked.items():
        assert _same(getattr(U, f)[np.concatenate((ix, iy))], rows)
    value, _, converged = infinitesimal_exponent_batch(
        PhaseExponent("xi0", 2), X, Y)
    # pair 0 meets the NaN row of Y, pairs 3 and 4 that of X
    assert np.isnan(value[[0, 3, 4]]).all() and not converged[[0, 3, 4]].any()
    for i in (1, 2):
        one = infinitesimal_exponent(PhaseExponent("xi0", 2), X.element(i),
                                     Y.element(i))
        assert _same(value[i], one.value)


def test_a_limit_that_does_not_exist_is_unconverged():
    # the bracket combination grows as tau^0.5, so F diverges as tau^-1.5
    def rough(r, s):
        return np.sqrt(np.abs(r.u[:, 0]) + np.abs(r.v[:, 0]))

    _, _, (XB, YB) = _basis_pairs(1)
    value, err, converged = infinitesimal_exponent_batch(rough, XB, YB)
    assert np.all(np.isfinite(value))
    assert not converged.all()
    assert np.all(converged == (err < 1e-7))


# -- inner products ----------------------------------------------------------

def _states(rng, dim, n, n_terms, degrees):
    """n states of one term count, cycling through the given degrees."""
    return [random_state(rng, dim, poly_degree=degrees[i % len(degrees)],
                         n_terms=n_terms) for i in range(n)]


def _stack(states):
    """The states as the rows of one batch, each term's polynomial rows
    padded to the highest of their degrees."""
    out = []
    for column in zip(*(f.terms for f in states)):
        polys, *arrays = zip(*column)
        deg = max(poly.deg for poly in polys)
        out.append((_PolyRows(states[0].dim, deg, np.concatenate(
            [poly.padded(deg) for poly in polys])),
            *map(np.concatenate, arrays)))
    return StateBatch(states[0].dim, out)


@pytest.mark.parametrize("terms", ((1, 1), (1, 2), (2, 2)))
@pytest.mark.parametrize("degrees", ((0,), (1,), (2,), (0, 1, 2)))
@pytest.mark.parametrize("dim", (1, 2, 3))
def test_row_i_of_inner_product_batch_is_the_one_row_call(dim, degrees,
                                                          terms):
    rng = np.random.default_rng(100 * dim + 10 * len(degrees) + sum(terms))
    n = 5
    F = _stack(_states(rng, dim, n, terms[0], degrees))
    G = _stack(_states(rng, dim, n, terms[1], degrees[::-1]))
    values = inner_product_batch(F, G)
    assert values.shape == (n,)
    for i in range(n):
        assert _same(values[i], inner_product(F.row(i), G.row(i)))


@pytest.mark.parametrize("terms", (1, 2))
@pytest.mark.parametrize("degrees", ((0,), (2,), (0, 1, 2), (2, 0, 1)))
@pytest.mark.parametrize("dim", (1, 2, 3))
def test_row_i_of_substitute_is_the_one_row_call(dim, degrees, terms):
    rng = np.random.default_rng(200 + 10 * dim + len(degrees) + terms)
    n = 6
    fs = _states(rng, dim, n, terms, degrees)
    W = random_element_batch(rng, n, dim).W
    shift = rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim))
    rows = _stack(fs).substitute(W, shift)
    for i in range(n):
        assert _same_state(rows.row(i), fs[i].substitute(W[i], shift[i]))


def _same_poly(a, b) -> bool:
    """Equal rows bit for bit over the higher of their degrees, apart from
    the sign of a coefficient that is zero in both."""
    deg = max(a.deg, b.deg)
    x, y = a.padded(deg), b.padded(deg)
    nonzero = (x != 0) | (y != 0)
    return _same(x[nonzero], y[nonzero])


@pytest.mark.parametrize("degree", (0, 2))
def test_acted_rows_of_a_shared_state_match_the_one_row_call(degree):
    rep = RepDescriptor("bargmann3d", gamma=0.9)
    rng = np.random.default_rng(31 + degree)
    f = random_state(rng, 3, poly_degree=degree, n_terms=2)
    g = random_state(rng, 3, poly_degree=1)
    r = random_element_batch(rng, 4, 3)
    t = np.array([0.0, 0.5, -1.2, 0.0])
    F = apply_batch(rep, r, t, f.repeat(4))
    G = apply_batch(rep, r, t, g.repeat(4))
    values = inner_product_batch(F, G)
    for i in range(4):
        assert _same(values[i], inner_product(F.row(i), G.row(i)))
    assert _same(inner_product_batch(f, g), [inner_product(f, g)])


def _diverging(state: PolyGaussianState) -> PolyGaussianState:
    """state with Re Gamma made positive-definite, by the StateBatch
    transform, which does not check it: its inner products with the random
    states do not converge."""
    return StateBatch.multiply_phase(state, quad=[3.0 * np.eye(state.dim)])


def test_a_diverging_row_is_nan_in_the_batch_and_raises_in_the_row():
    rng = np.random.default_rng(5)
    fs = _states(rng, 2, 4, 1, (0, 1))
    gs = _states(rng, 2, 4, 1, (1, 0))
    gs[2] = _diverging(gs[2])
    values = inner_product_batch(_stack(fs), _stack(gs))
    assert np.isnan(values[2])
    for i in (0, 1, 3):
        assert _same(values[i], inner_product(fs[i], gs[i]))
    with pytest.raises(ValueError, match="non-integrable"):
        inner_product(fs[2], gs[2])


def _sub_streams(seed):
    """A carrier check's two sub-streams, (uniform, normal): the stream of
    seed and its first spawned child."""
    child = np.random.SeedSequence(seed).spawn(1)[0]
    return np.random.default_rng(seed), np.random.default_rng(child)


def _slot_state(normal, uniform, dim, degree, slot_degree):
    """The state of a case's slot, as one row from the two sub-streams: the
    normals of a state of degree slot_degree, of which a state of degree
    degree reads the first coefficient pairs, then its 3 uniforms."""
    width = 2 * dim * (dim + 1) + 2 * (math.comb(dim + slot_degree, dim) - 1)
    return _states_from_blocks(normal.standard_normal((1, width)),
                               uniform.random((1, 3)), dim, degree).row(0)


def test_unitarity_matches_a_case_by_case_loop():
    """The draws and residuals of the check, one case at a time through
    random_state, random_element, apply_time and inner_product: case i
    takes the normals of f and then of g, each slot as wide as a degree-1
    state, and the uniforms of f, g and then r."""
    cfg = default_config(**{**TINY, "n_unitarity_cases": 12})
    ts = (0.0,) + tuple(cfg.t_samples)
    entries = harness._check_unitarity(cfg)
    for entry, rep in zip(entries, harness._momentum_reps(cfg)):
        uniform, normal = _sub_streams(entry["seed"])
        worst = 0.0
        for i in range(cfg.n_unitarity_cases):
            f = _slot_state(normal, uniform, rep.dim, i % 2, 1)
            g = _slot_state(normal, uniform, rep.dim, (i + 1) % 2, 1)
            r = random_element(uniform, rep.dim, cfg.scale)
            t = ts[i % len(ts)]
            after = inner_product(apply_time(rep, r, t, f),
                                  apply_time(rep, r, t, g))
            worst = max(worst, abs(after - inner_product(f, g)))
        assert entry["max_residual"] == worst


# -- the array draw ----------------------------------------------------------

def _dict_random_state(rng, dim, poly_degree=0, n_terms=1):
    """random_state drawn term by term into dicts: every term's normals
    (B, C, Re beta, Im beta, then a pair per non-constant monomial), then
    every term's uniforms (the shift of Re Gamma, Re alpha, Im alpha)."""
    normals = []
    for _ in range(n_terms):
        B = rng.normal(size=(dim, dim))
        C = rng.normal(size=(dim, dim)) * 0.25
        beta = rng.normal(size=dim) * 0.5 + 1j * rng.normal(size=dim) * 0.5
        coeffs = {tuple([0] * dim): 1.0 + 0.0j}
        if poly_degree > 0:
            for exps in _monomials_up_to(dim, poly_degree):
                if sum(exps) > 0:
                    coeffs[exps] = complex(rng.normal(), rng.normal()) * 0.3
        normals.append((B, C, beta, coeffs))
    terms = []
    for B, C, beta, coeffs in normals:
        re_g = -(0.5 * B @ B.T + (0.4 + rng.uniform(0, 0.3)) * np.eye(dim))
        Gamma = re_g + 1j * (C + C.T) / 2.0
        alpha = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
        terms.append((_PolyRows.of([coeffs], dim), np.array([alpha]),
                      beta[None], Gamma[None]))
    return StateBatch(dim, terms)


def _same_state(f, g) -> bool:
    """Equal terms bit for bit (_same_poly for the polynomials)."""
    return len(f.terms) == len(g.terms) and all(
        _same_poly(a[0], b[0]) and all(map(_same, a[1:], b[1:]))
        for a, b in zip(f.terms, g.terms))


def test_random_state_equals_the_dict_draw():
    for case in range(96):
        dim, degree, n_terms = 1 + case % 3, (case // 3) % 4, 1 + case // 48
        rng, oracle = (np.random.default_rng(case) for _ in range(2))
        for _ in range(3):
            assert _same_state(random_state(rng, dim, degree, n_terms),
                               _dict_random_state(oracle, dim, degree,
                                                  n_terms))
        assert rng.random() == oracle.random()


@pytest.mark.parametrize("chunk", (3, 512))
@pytest.mark.parametrize("degrees", (((0, 1), (1, 0)), ((0,),), ((2, 0),)))
@pytest.mark.parametrize("dim", (2, 3))
def test_carrier_cases_equal_the_case_by_case_draw(dim, degrees, chunk,
                                                   monkeypatch):
    monkeypatch.setattr(harness, "_SWEEP_CHUNK", chunk)
    n, scale, ts = 10, 1.5, (0.0, 0.5, 1.7)
    drawn = []

    def record(*operands):
        drawn.append(operands)
        return np.zeros(len(operands[-1]))

    harness._sweep(91, n, harness._carrier_cases(
        _sub_streams(91)[1], dim, scale, degrees, ts), record)
    uniform, normal = _sub_streams(91)
    tops = [max(d[k] for d in degrees) for k in range(len(degrees[0]))]
    for i in range(n):
        *slots, r, t = drawn[i // chunk]
        j = i % chunk
        for batch, degree, top in zip(slots, degrees[i % len(degrees)],
                                      tops):
            assert _same_state(batch.row(j), _slot_state(
                normal, uniform, dim, degree, top))
        one = random_element_batch(uniform, 1, dim, scale)
        for x in ("W", "eta", "v", "u"):
            assert _same(getattr(r, x)[j], getattr(one, x)[0])
        assert t[j] == ts[i % len(ts)]


def test_the_carrier_families_build_no_polynomial_per_case(monkeypatch):
    built = []
    of, row = _PolyRows.of.__func__, StateBatch.row

    def counting_of(cls, *args):
        built.append(1)
        return of(cls, *args)

    def counting_row(self, i):
        built.append(1)
        return row(self, i)

    monkeypatch.setattr(_PolyRows, "of", classmethod(counting_of))
    monkeypatch.setattr(StateBatch, "row", counting_row)
    counts = []
    for n in (6, 60):
        cfg = default_config(**{**TINY, "n_unitarity_cases": n,
                                "n_time_zero_cases": n})
        built.clear()
        harness._check_unitarity(cfg)
        harness._check_time_zero(cfg)
        counts.append(len(built))
    assert counts[0] == counts[1]


# -- time zero ---------------------------------------------------------------

def test_time_zero_matches_a_case_by_case_loop(monkeypatch):
    """The draws and verdicts of the check, one case at a time through
    random_state and random_element on the two sub-streams, and apply_time
    at t = 0 against the plain action apply_batch gives at the single
    t = 0.0, compared at sample points."""
    cfg = default_config(**{**TINY, "n_time_zero_cases": 7})
    calls = []

    def recording(rep, r, t, states):
        calls.append((r, states))
        return apply_batch(rep, r, t, states)

    monkeypatch.setattr(harness, "apply_batch", recording)
    entries = harness._check_time_zero(cfg)
    reps = harness._momentum_reps(cfg)
    assert [e["check"] for e in entries] == list(TIME_ZERO)
    # one chunk: the per-row-t call, then the plain one
    assert len(calls) == 2 * len(reps)
    for k, (entry, rep) in enumerate(zip(entries, reps)):
        (R, F), (R_plain, F_plain) = calls[2 * k], calls[2 * k + 1]
        assert R is R_plain and F is F_plain
        uniform, normal = _sub_streams(entry["seed"])
        worst = 0.0
        for i in range(cfg.n_time_zero_cases):
            f = _slot_state(normal, uniform, rep.dim, 0, 0)
            r = random_element(uniform, rep.dim, cfg.scale)
            assert all(_same(getattr(R, x)[i], getattr(r, x))
                       for x in ("W", "eta", "v", "u"))
            assert _same_state(F.row(i), f)
            points = default_sample_points(f, n=8, seed=entry["seed"] + i)
            timed = apply_time(rep, r, 0.0, f)
            plain = apply_batch(rep, r, 0.0, f)
            worst = max([worst] + [abs(timed.evaluate(p) - plain.evaluate(p))
                                   for p in points])
        assert entry["pass"] is True
        assert entry["max_residual"] == worst == 0.0


def test_the_suite_evaluates_no_state_at_a_point(monkeypatch):
    cfg = default_config(**TINY)
    want = run_suite(cfg)

    def forbidden(*args, **kwargs):
        raise AssertionError("a state was evaluated at a point")

    for owner, attr in ((PolyGaussianState, "evaluate"),
                        (_PolyRows, "at"),
                        (verify, "default_sample_points")):
        monkeypatch.setattr(owner, attr, forbidden)
    got = run_suite(cfg)
    for report in (want, got):
        report.pop("generated_at")
    assert report_json(got) == report_json(want)


def test_random_states_pass_the_validating_constructor():
    rng = np.random.default_rng(77)
    for i in range(300):
        dim, degree = 1 + i % 3, (i // 3) % 3
        f = random_state(rng, dim, poly_degree=degree, n_terms=1 + i % 2)
        assert _same_state(PolyGaussianState(f.dim, f.terms), f)
