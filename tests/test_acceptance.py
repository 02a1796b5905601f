"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each test prints a single PASS line (visible under `pytest -s` or `-v
--capture=no`) including the measured quantity and elapsed time, and also
asserts the criterion's runtime budget.
"""

import itertools
import math
import time

import numpy as np
import pytest

from seqsub import core, oracle
from seqsub.coverage import hits, round_assignment, solve_assignment_lp
from seqsub.engagement import LiftedObjective, extract_permutation, greedy_rank, rank_cg
from seqsub.generators import random_coverage_instance, random_instance, random_policy_mixture
from seqsub.policy import check_implementable
from seqsub.revenue import build_policy_lp, run_bicriteria, solve_policy_lp
from seqsub.util import mask_of

from auditors import (
    correlation_gap_ratio,
    exact_multilinear,
    iter_independent_sets,
    raw_draw,
    seeded_uniforms,
)
from conftest import matrix_of, random_subset_distribution

GAP = 1.0 - 1.0 / math.e


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds
        self.start = time.perf_counter()

    def done(self, detail: str) -> None:
        elapsed = time.perf_counter() - self.start
        print(f"ACCEPTANCE {self.name}: PASS — {detail} ({elapsed:.2f}s)")
        assert elapsed < self.seconds, f"{self.name} exceeded {self.seconds}s budget"


def test_criterion_1_golden_values(appendix_c):
    budget = Budget("1 golden instance", 1.0)
    brute = oracle.brute_force_revenue_opt(appendix_c)
    assert brute.best_value == pytest.approx(47.75, abs=1e-9)
    lp = solve_policy_lp(build_policy_lp(appendix_c))
    assert lp.value >= 47.875 - 1e-9
    assert lp.value > brute.best_value  # the relaxation strictly dominates
    budget.done(f"brute 47.75, LP {lp.value:.6f} >= 47.875")


def test_criterion_2_implementability(worked_policy_vector):
    budget = Budget("2 implementability", 10.0)
    report = check_implementable(worked_policy_vector)
    assert not report.feasible and report.failing_layer == 3
    assert abs(report.certs[2].flow_value - 0.5) <= 1e-9
    assert (2, 0b1001) in report.cut_nodes  # prefix {products 1,4}
    rng = np.random.default_rng(2024)
    accepted = 0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        pv = random_policy_mixture(n, int(rng.integers(1, 6)), rng)
        rep = check_implementable(pv)
        assert rep.feasible
        assert all(abs(c.flow_value - 1.0) <= 1e-9 for c in rep.certs)
        accepted += 1
    budget.done(f"worked vector rejected at layer 3 (flow 0.5); {accepted}/100 mixtures accepted")


def test_criterion_3_greedy_guarantee(example_1):
    budget = Budget("3 greedy 1/2 bound", 60.0)
    rng = np.random.default_rng(77)
    kinds = ("mnl", "coverage", "explicit")
    violations = 0
    worst = 1.0
    for trial in range(500):
        n = int(rng.integers(2, 8))
        inst = random_instance(kinds[trial % 3], n, rng)
        val = core.engagement(inst, greedy_rank(inst))
        opt = oracle.brute_force_engagement_opt(inst).best_value
        if opt > 0:
            worst = min(worst, val / opt)
        if val < 0.5 * opt - 1e-9:
            violations += 1
    assert violations == 0
    ratio = core.engagement(example_1, greedy_rank(example_1)) / 1.05
    assert ratio == pytest.approx(1.1 / 2.1, abs=1e-12)
    assert ratio <= 0.524
    budget.done(f"500 instances, worst ratio {worst:.4f}; tight example {ratio:.4f}")


def test_criterion_4_cg_pipeline():
    budget = Budget("4 lift-optimize-extract", 600.0)
    rng = np.random.default_rng(4040)
    kinds = ("mnl", "coverage", "explicit")
    means, clears = [], 0
    for trial in range(100):
        n = int(rng.integers(2, 7))
        inst = random_instance(kinds[trial % 3], n, rng)
        opt = oracle.brute_force_engagement_opt(inst).best_value
        vals = [
            rank_cg(inst, steps=40, samples=200, seed=s).engagement
            for s in np.random.SeedSequence(trial).spawn(20)
        ]
        mean = float(np.mean(vals))
        assert mean >= GAP * opt - 0.02, f"instance {trial}: mean {mean} vs opt {opt}"
        means.append(mean / opt if opt > 0 else 1.0)
        clears += mean >= GAP * opt
    assert clears >= 95
    budget.done(f"100 instances, mean-of-means ratio {np.mean(means):.4f}, {clears} cleared the exact bound")


def test_criterion_5_structural_claims():
    budget = Budget("5 structural claims", 60.0)
    rng = np.random.default_rng(551)

    # lifted objective is monotone submodular: all 512 subsets at n = 3
    from seqsub.util import iter_bits

    for trial in range(3):
        inst = random_instance("explicit", 3, rng)
        obj = LiftedObjective(inst)

        def fn(mask):
            return obj.value(matrix_of(((b // 3, b % 3) for b in iter_bits(mask)), 3) > 0)

        assert oracle.verify_monotone_submodular(fn, 9).ok

    # exhaustive lift equality and extraction dominance at n <= 4
    for trial in range(6):
        n = int(rng.integers(2, 5))
        kind = ("mnl", "coverage", "explicit")[trial % 3]
        inst = random_instance(kind, n, rng)
        obj = LiftedObjective(inst)
        best = -math.inf
        sets = list(iter_independent_sets(n))
        orders = extract_permutation(np.array(sets), n)
        for R, order in zip(sets, orders):
            val = obj.value(R)
            best = max(best, val)
            assert core.engagement(inst, order) >= val - 1e-9  # extraction dominance
        opt = oracle.brute_force_engagement_opt(inst)
        assert best == pytest.approx(opt.best_value, abs=1e-9)
        shaped = matrix_of(((i, opt.best_witness[i]) for i in range(n)), n) > 0
        assert obj.value(shaped) == pytest.approx(best, abs=1e-9)
    budget.done("monotone+submodular lift (512 subsets), lift equality and extraction dominance exhaustive at n <= 4")


def test_criterion_6_correlation_gap():
    budget = Budget("6 correlation gap", 60.0)
    rng = np.random.default_rng(660)
    worst = math.inf
    for trial in range(100):
        kind = ("coverage", "mnl", "explicit")[trial % 3]
        inst = random_instance(kind, 8, rng)
        model = inst.models[0]
        assert oracle.verify_monotone_submodular(model, 8).ok
        f = lambda S: model.value(mask_of(S))
        dist = random_subset_distribution(8, rng)
        ratio = correlation_gap_ratio(f, dist)
        if math.isfinite(ratio):
            worst = min(worst, ratio)
        assert ratio >= GAP - 1e-9
    budget.done(f"100 functions, worst exact ratio {worst:.6f} >= 1 - 1/e")


def test_criterion_7_bicriteria():
    budget = Budget("7 bi-criteria pipeline", 600.0)
    rng = np.random.default_rng(770)
    worst_alpha, worst_beta = math.inf, math.inf
    for trial in range(50):
        n = int(rng.integers(2, 6))
        kind = ("mnl", "coverage", "explicit")[trial % 3]
        inst = random_instance(kind, n, rng, with_payments=True)
        opt = oracle.brute_force_revenue_opt(inst)
        T = 0.5 * core.engagement(inst, opt.best_witness)
        report = run_bicriteria(inst.with_threshold(T), trials=200, seed=trial)
        assert report.mean_revenue >= 0.25 * report.lp_value
        if T > 0:
            assert report.mean_engagement >= 0.25 * T
            worst_beta = min(worst_beta, report.mean_engagement / T)
        if report.lp_value > 0:
            worst_alpha = min(worst_alpha, report.mean_revenue / report.lp_value)
    budget.done(
        f"50 instances x 200 seeds, worst measured alpha {worst_alpha:.4f},"
        f" beta {worst_beta:.4f} (bound 0.25)"
    )


def test_criterion_8_coverage_rounding():
    budget = Budget("8 coverage rounding", 300.0)
    rng = np.random.default_rng(880)
    for trial in range(50):
        ci = random_coverage_instance(8, rng)
        sol = solve_assignment_lp(ci)
        u = seeded_uniforms(np.random.SeedSequence(trial).spawn(1000), 8)
        orders = round_assignment(ci, sol, u)
        assert np.all(np.sort(orders, axis=1) == np.arange(8))
        y_tilde = hits(ci, orders)
        assert np.all(y_tilde >= hits(ci, raw_draw(sol.x, u)))
        clicks = y_tilde.sum(axis=1)
        stderr = clicks.std(ddof=1) / math.sqrt(len(clicks))
        assert clicks.mean() >= GAP * sol.value - 2 * stderr
    budget.done("50 instances x 1000 roundings: permutations, repair dominance, mean >= (1-1/e) LP - 2se")


def test_criterion_9_matching_point(matching_instance, matching_point):
    budget = Budget("9 fractional matching point", 1.0)
    g = LiftedObjective(matching_instance)
    value = lambda R: g.value(matrix_of(R, 4) > 0)
    orders = matching_point["orders"]
    m1 = frozenset((i, orders[0][i]) for i in range(4))
    m2 = frozenset((i, orders[1][i]) for i in range(4))
    g1, g2 = value(m1), value(m2)
    x = {
        (i, j): matching_point["x"][i][j]
        for i in range(4)
        for j in range(4)
        if matching_point["x"][i][j] > 0
    }
    frac = exact_multilinear(value, x)
    # independent-inclusion expectation, derived by hand from coverage odds
    closed_form = ((1 - 0.5**3) + 0.5) / 4
    assert frac == pytest.approx(closed_form, abs=1e-12)
    assert g1 == pytest.approx(0.25, abs=1e-12)
    assert g2 == pytest.approx(0.5, abs=1e-12)
    relation = "between" if g1 < frac < g2 else "NOT between"
    budget.done(
        f"g(M1)={g1:.4f}, g(M2)={g2:.4f}, fractional={frac:.6f} (= 11/32, {relation} the matchings)"
    )


def test_criterion_10_numerics():
    budget = Budget("10 numerics kernels", 30.0)
    from test_numerics import lp_vertex_oracle, min_cut_oracle, random_lp, random_network
    from seqsub.numerics import max_flow, simplex_solve

    rng = np.random.default_rng(1010)
    optimal = 0
    for _ in range(200):
        p = random_lp(rng)
        res = simplex_solve(p)
        status, value = lp_vertex_oracle(p)
        assert res.status == status
        if status == "optimal":
            assert res.value == pytest.approx(value, abs=1e-7)
            optimal += 1
    assert optimal >= 80  # most draws must exercise the optimal path
    for _ in range(200):
        net = random_network(rng)
        res = max_flow(net)
        assert res.value == pytest.approx(min_cut_oracle(net), abs=1e-9)
    budget.done(f"200 LPs ({optimal} optimal) and 200 flow networks match enumeration")
