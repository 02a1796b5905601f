"""Assignment LP and dependent rounding for the interest-set model."""

import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from seqsub import core, coverage, oracle
from seqsub.coverage import (
    AssignmentLpSolution,
    CoverageInstance,
    as_instance,
    clicks,
    coverage_best_of,
    coverage_from_json,
    hits,
    load_coverage,
    round_assignment,
    save_coverage,
    solve_assignment_lp,
)
from seqsub.errors import ValidationError
from seqsub.generators import random_coverage_instance
from seqsub.revenue import ROUND_BLOCK
from seqsub.util import iter_bits

from auditors import raw_draw, seeded_uniforms, walk_hits

ONE_MINUS_INV_E = 1.0 - 1.0 / math.e


def test_lp_everyone_interested_in_everything():
    ci = CoverageInstance(3, (0b111,) * 3)
    sol = solve_assignment_lp(ci)
    assert sol.value == pytest.approx(3.0, abs=1e-9)
    np.testing.assert_allclose(sol.y, np.ones(3), atol=1e-9)


def test_lp_disjoint_singletons_need_identity():
    ci = CoverageInstance(2, (0b01, 0b10))
    sol = solve_assignment_lp(ci)
    assert sol.value == pytest.approx(2.0, abs=1e-9)


def test_lp_upper_bounds_brute_force():
    rng = np.random.default_rng(3)
    for trial in range(5):
        ci = random_coverage_instance(6, rng)
        sol = solve_assignment_lp(ci)
        brute = oracle.brute_force_engagement_opt(as_instance(ci))
        # the adapter weighs each user type 1/n
        assert sol.value >= 6 * brute.best_value - 1e-7


def test_lp_solution_is_doubly_stochastic():
    rng = np.random.default_rng(9)
    ci = random_coverage_instance(7, rng)
    sol = solve_assignment_lp(ci)
    np.testing.assert_allclose(sol.x.sum(axis=0), np.ones(7), atol=1e-9)
    np.testing.assert_allclose(sol.x.sum(axis=1), np.ones(7), atol=1e-9)
    for k in range(7):
        cover = sum(sol.x[i, j] for i in range(k + 1) for j in iter_bits(ci.interest_sets[k]))
        assert cover >= sol.y[k] - 1e-9


def test_assignment_lp_duals_satisfy_strong_duality(monkeypatch):
    """Row sums and column sums both total n, so phase 1 drops one equality
    row of every assignment LP and prices it 0."""
    solved = []
    real = coverage.simplex_solve

    def spy(p):
        solved.append((p, real(p)))
        return solved[-1][1]

    monkeypatch.setattr(coverage, "simplex_solve", spy)
    for n in range(2, 16):
        solve_assignment_lp(random_coverage_instance(n, n))
    for p, res in solved:
        assert float(res.duals @ p.b) == pytest.approx(res.value, abs=1e-7)


def test_rounding_keeps_permutation_matrices():
    ci = CoverageInstance(3, (0b001, 0b010, 0b100))
    sol = solve_assignment_lp(ci)
    perm = np.eye(3)
    sol.x = perm  # already integral: rounding must return it unchanged
    orders = round_assignment(ci, sol, seeded_uniforms([0], 3))
    assert orders.tolist() == [[0, 1, 2]]


def test_rounding_symmetric_two_products():
    ci = CoverageInstance(2, (0b01, 0b11))
    sol = solve_assignment_lp(ci)
    sol.x = np.full((2, 2), 0.5)
    trials = 10_000
    orders = round_assignment(ci, sol, seeded_uniforms(np.random.SeedSequence(4).spawn(trials), 2))
    assert np.all(np.sort(orders, axis=1) == [0, 1])
    heads = np.sum(orders[:, 0] == 0)
    assert abs(heads / trials - 0.5) < 0.02


def test_repair_never_loses_clicks_and_outputs_permutations():
    rng = np.random.default_rng(17)
    for trial in range(6):
        ci = random_coverage_instance(8, rng)
        sol = solve_assignment_lp(ci)
        u = seeded_uniforms(np.random.SeedSequence(trial).spawn(300), 8)
        orders = round_assignment(ci, sol, u)
        assert np.all(np.sort(orders, axis=1) == np.arange(8))
        y_tilde = hits(ci, orders)
        assert np.all(y_tilde >= hits(ci, raw_draw(sol.x, u)))
        assert y_tilde.sum(axis=1).tolist() == [clicks(ci, order) for order in orders]


#: sha256 of the order and y_hat of 300 successive round_assignment draws
#: from default_rng(5), cycling through three fractional points: for n = 5,
#: 10 and 20, x mixes four random permutation matrices with Dirichlet weights
#: (all from default_rng(n)), on the interest sets of random_coverage_instance(n, 1).
PINNED_ROUNDING_DIGEST = "85307753de42535837e5fb281f076a73a777e0095075983c11a5e4b21f551a11"


def test_rounding_draws_are_pinned():
    cases = []
    for n in (5, 10, 20):
        rng = np.random.default_rng(n)
        x = sum(w * np.eye(n)[rng.permutation(n)] for w in rng.dirichlet(np.ones(4)))
        cases.append((random_coverage_instance(n, 1), AssignmentLpSolution(x, np.zeros(n), 0.0)))
    rng = np.random.default_rng(5)
    draws = []
    for t in range(300):
        ci, sol = cases[t % 3]
        u = rng.random((1, ci.n))
        draws.append((tuple(round_assignment(ci, sol, u)[0].tolist()),
                      hits(ci, raw_draw(sol.x, u))[0].astype(int).tolist()))
    assert hashlib.sha256(repr(draws).encode()).hexdigest() == PINNED_ROUNDING_DIGEST


def test_rounding_mean_clears_lp_fraction():
    rng = np.random.default_rng(23)
    ci = random_coverage_instance(8, rng)
    sol = solve_assignment_lp(ci)
    u = seeded_uniforms(np.random.SeedSequence(5).spawn(1500), 8)
    vals = hits(ci, round_assignment(ci, sol, u)).sum(axis=1)
    stderr = vals.std(ddof=1) / math.sqrt(len(vals))
    assert vals.mean() >= ONE_MINUS_INV_E * sol.value - 2 * stderr


def test_per_type_click_probability_bound():
    """The per-user analysis: P[type k clicks] >= 1 - (1 - y_k/(k+1))^(k+1)
    >= (1 - 1/e) y_k, checked empirically with 2-sigma slack."""
    rng = np.random.default_rng(31)
    ci = random_coverage_instance(6, rng)
    sol = solve_assignment_lp(ci)
    trials = 4000
    u = seeded_uniforms(np.random.SeedSequence(9).spawn(trials), 6)
    hits = coverage.hits(ci, round_assignment(ci, sol, u)).sum(axis=0)
    freq = hits / trials
    for k in range(6):
        sigma = math.sqrt(max(freq[k] * (1 - freq[k]), 1e-4) / trials)
        am_gm = 1.0 - (1.0 - sol.y[k] / (k + 1)) ** (k + 1)
        assert freq[k] >= am_gm - 2 * sigma
        assert freq[k] >= ONE_MINUS_INV_E * sol.y[k] - 2 * sigma


def test_best_of_single_trial_matches_single_rounding():
    rng = np.random.default_rng(2)
    ci = random_coverage_instance(5, rng)
    best = coverage_best_of(ci, trials=1, seed=8)
    sol = solve_assignment_lp(ci)
    single = tuple(round_assignment(ci, sol, seeded_uniforms([8], 5))[0].tolist())
    assert best.order == single
    assert best.clicks == clicks(ci, single)


def _unblocked_best_of(ci, sol, u):
    """(order, clicks) of the first best row of u, rounded in one call."""
    orders = round_assignment(ci, sol, u)
    counts = hits(ci, orders).sum(axis=1)
    t = int(counts.argmax())
    return tuple(orders[t].tolist()), int(counts[t])


def test_best_of_keeps_the_best_of_successive_draws():
    """Trial t is draw t of one generator: the first k trials of an N-trial
    run are the k-trial run, and a Generator seed is drawn from as-is. The
    instance is the first seed at n = 10 whose LP vertex is fractional and
    whose first draw falls below its best of 30."""
    ci = random_coverage_instance(10, 1)
    sol = solve_assignment_lp(ci)
    assert np.any((sol.x > 0.01) & (sol.x < 0.99))
    u = np.random.default_rng(11).random((30, 10))
    bests = []
    for k in (1, 4, 30):
        best = _unblocked_best_of(ci, sol, u[:k])  # the first of any ties
        bests.append(best[1])
        for seed in (11, np.random.default_rng(11)):
            got = coverage_best_of(ci, trials=k, seed=seed)
            assert (got.order, got.clicks) == best
    assert bests[0] < bests[-1]


def test_best_of_blocks_join_seamlessly():
    """Around ROUND_BLOCK, the blocked best-of equals one unblocked call over
    the same rng.random((trials, n)), and a Generator passed as the seed
    carries on across a block."""
    ci = random_coverage_instance(10, 1)
    sol = solve_assignment_lp(ci)
    u = np.random.default_rng(6).random((ROUND_BLOCK + 1, 10))
    for k in (ROUND_BLOCK - 1, ROUND_BLOCK, ROUND_BLOCK + 1):
        got = coverage_best_of(ci, trials=k, seed=6)
        assert (got.order, got.clicks) == _unblocked_best_of(ci, sol, u[:k])
    rng = np.random.default_rng(6)
    coverage_best_of(ci, trials=ROUND_BLOCK - 1, seed=rng)
    got = coverage_best_of(ci, trials=2, seed=rng)
    assert (got.order, got.clicks) == _unblocked_best_of(ci, sol, u[ROUND_BLOCK - 1 :])


def test_hits_matches_the_scalar_walk():
    """Every permutation at n <= 6, raw draws with duplicates at n = 8 and 50,
    and clicks past 63 products, where masks outgrow int64."""
    for n in range(1, 7):
        ci = random_coverage_instance(n, n)
        perms = np.array(list(itertools.permutations(range(n))))
        expected = [walk_hits(ci.interest_sets, p) for p in perms]
        np.testing.assert_array_equal(hits(ci, perms), expected)
    rng = np.random.default_rng(4)
    for n in (8, 50):
        ci = random_coverage_instance(n, rng)
        draws = rng.integers(0, n, size=(200, n))
        assert any(len(set(d)) < n for d in draws)
        expected = [walk_hits(ci.interest_sets, d) for d in draws]
        np.testing.assert_array_equal(hits(ci, draws), expected)
    ci = random_coverage_instance(70, rng)
    assert max(ci.interest_sets).bit_length() > 63
    for _ in range(20):
        order = rng.permutation(70)
        assert clicks(ci, order) == walk_hits(ci.interest_sets, order).sum()


def test_best_of_hits_optimum_on_disjoint_singletons():
    ci = CoverageInstance(4, tuple(1 << j for j in range(4)))
    best = coverage_best_of(ci, trials=50, seed=3)
    assert best.clicks == 4
    assert best.lp_value == pytest.approx(4.0, abs=1e-9)


def test_amplification_usually_clears_fraction():
    rng = np.random.default_rng(5)
    ci = random_coverage_instance(8, rng)
    sol = solve_assignment_lp(ci)
    hits = 0
    for rep in range(40):
        best = coverage_best_of(ci, trials=60, seed=rep)
        hits += best.clicks >= ONE_MINUS_INV_E * sol.value
    assert hits >= 38  # 95%


def test_adapter_matches_click_counting():
    rng = np.random.default_rng(13)
    ci = random_coverage_instance(6, rng)
    inst = as_instance(ci)
    for trial in range(10):
        order = tuple(int(p) for p in rng.permutation(6))
        assert core.engagement(inst, order) * 6 == pytest.approx(
            clicks(ci, order), abs=1e-9
        )


def test_coverage_json_roundtrip(tmp_path):
    ci = CoverageInstance(3, (0b101, 0b010, 0b001))
    path = tmp_path / "cov.json"
    save_coverage(ci, path)
    assert json.loads(path.read_text())["interest_sets"] == [[1, 3], [2], [1]]
    assert load_coverage(path) == ci
    data = {"n": 2, "interest_sets": [[1], [1, 2]]}
    back = coverage_from_json(data)
    assert back.interest_sets == (0b01, 0b11)


@pytest.mark.parametrize("raw", [[[0], [1]], [[1], [3]], [[1], [-1]], [[1], [10**30]]])
def test_interest_set_outside_the_products_is_rejected(raw):
    with pytest.raises(ValidationError, match="unknown product"):
        coverage_from_json({"n": 2, "interest_sets": raw})


@pytest.mark.parametrize("sets", [(0b01, 0b100), (-1, 0b01)])
def test_interest_mask_outside_the_products_is_rejected(sets):
    with pytest.raises(ValidationError, match="unknown product"):
        CoverageInstance(2, sets)
