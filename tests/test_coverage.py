"""Assignment LP and dependent rounding for the interest-set model."""

import math

import numpy as np
import pytest

from seqsub import core, coverage, oracle
from seqsub.coverage import (
    CoverageInstance,
    as_instance,
    clicks,
    coverage_best_of,
    coverage_from_json,
    load_coverage,
    round_assignment,
    save_coverage,
    solve_assignment_lp,
)
from seqsub.generators import random_coverage_instance
from seqsub.util import split_seeds

ONE_MINUS_INV_E = 1.0 - 1.0 / math.e


def test_lp_everyone_interested_in_everything():
    ci = CoverageInstance(3, (frozenset({0, 1, 2}),) * 3)
    sol = solve_assignment_lp(ci)
    assert sol.value == pytest.approx(3.0, abs=1e-9)
    np.testing.assert_allclose(sol.y, np.ones(3), atol=1e-9)


def test_lp_disjoint_singletons_need_identity():
    ci = CoverageInstance(2, (frozenset({0}), frozenset({1})))
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
        cover = sum(sol.x[i, j] for i in range(k + 1) for j in ci.interest_sets[k])
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
    ci = CoverageInstance(3, (frozenset({0}), frozenset({1}), frozenset({2})))
    sol = solve_assignment_lp(ci)
    perm = np.eye(3)
    sol.x = perm  # already integral: rounding must return it unchanged
    rounded = round_assignment(ci, sol, seed=0)
    assert rounded.order == (0, 1, 2)


def test_rounding_symmetric_two_products():
    ci = CoverageInstance(2, (frozenset({0}), frozenset({0, 1})))
    sol = solve_assignment_lp(ci)
    sol.x = np.full((2, 2), 0.5)
    heads = 0
    trials = 10_000
    for s in split_seeds(4, trials):
        rounded = round_assignment(ci, sol, seed=s)
        assert sorted(rounded.order) == [0, 1]
        heads += rounded.order[0] == 0
    assert abs(heads / trials - 0.5) < 0.02


def test_repair_never_loses_clicks_and_outputs_permutations():
    rng = np.random.default_rng(17)
    for trial in range(6):
        ci = random_coverage_instance(8, rng)
        sol = solve_assignment_lp(ci)
        for s in split_seeds(trial, 300):
            rounded = round_assignment(ci, sol, seed=s)
            assert sorted(rounded.order) == list(range(8))
            assert np.all(rounded.y_tilde >= rounded.y_hat)
            assert rounded.clicks == clicks(ci, rounded.order)


def test_rounding_mean_clears_lp_fraction():
    rng = np.random.default_rng(23)
    ci = random_coverage_instance(8, rng)
    sol = solve_assignment_lp(ci)
    vals = np.array(
        [round_assignment(ci, sol, seed=s).clicks for s in split_seeds(5, 1500)]
    )
    stderr = vals.std(ddof=1) / math.sqrt(len(vals))
    assert vals.mean() >= ONE_MINUS_INV_E * sol.value - 2 * stderr


def test_per_type_click_probability_bound():
    """The per-user analysis: P[type k clicks] >= 1 - (1 - y_k/(k+1))^(k+1)
    >= (1 - 1/e) y_k, checked empirically with 2-sigma slack."""
    rng = np.random.default_rng(31)
    ci = random_coverage_instance(6, rng)
    sol = solve_assignment_lp(ci)
    trials = 4000
    hits = np.zeros(6)
    for s in split_seeds(9, trials):
        hits += round_assignment(ci, sol, seed=s).y_tilde
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
    single = round_assignment(ci, sol, seed=split_seeds(8, 1)[0])
    assert best.order == single.order
    assert best.clicks == single.clicks


def test_best_of_hits_optimum_on_disjoint_singletons():
    ci = CoverageInstance(4, tuple(frozenset({j}) for j in range(4)))
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
    ci = CoverageInstance(3, (frozenset({0, 2}), frozenset({1}), frozenset({0})))
    path = tmp_path / "cov.json"
    save_coverage(ci, path)
    assert load_coverage(path) == ci
    data = {"n": 2, "interest_sets": [[1], [1, 2]]}
    back = coverage_from_json(data)
    assert back.interest_sets == (frozenset({0}), frozenset({0, 1}))
