"""The explicit relaxation, scaling, CRS rounding, and the bi-criteria audit."""

import itertools
import math

import numpy as np
import pytest

from seqsub import core, oracle
from seqsub.core import ExplicitModel, Instance, MnlModel
from seqsub.errors import InfeasibleError, SeqsubError
from seqsub.generators import random_instance
from seqsub.matroid import LaminarMatroid, in_matroid_polytope
from seqsub.revenue import (
    PolicyLpSolution,
    build_policy_lp,
    round_to_permutation,
    run_bicriteria,
    scale_solution,
    solve_policy_lp,
)

from conftest import matrix_of

ZEROS2 = ((0.0, 0.0), (0.0, 0.0))

#: Feasibility-repair factor of the polynomial-time path, emulated by scaling.
ONE_MINUS_INV_E = 1.0 - 1.0 / math.e


def engagement_term(inst, sol):
    """The relaxation's engagement, sum of lam_k * f_k(S) * x[k][S]."""
    return sum(
        inst.lam[k] * inst.models[k].value(mask) * p for (k, mask), p in sol.subset.items()
    )


def test_build_counts_small():
    model = MnlModel(2, (1.0, 1.0), 1.0)
    inst = Instance(2, (0.5, 0.5), (model,) * 2, ZEROS2, K=1.0)
    lp = build_policy_lp(inst)
    assert len(lp.subset_vars) == 3  # {0}, {1}, {0,1}
    assert lp.problem.A.shape[1] - len(lp.subset_vars) == 4  # marginal columns
    # 4 marginal rows + 1 floor + 2 layer budgets
    assert lp.problem.A.shape == (7, 7)
    assert lp.problem.senses == ("<=",) * 4 + (">=",) + ("<=",) * 2


def test_build_counts_worked_instance(appendix_c):
    lp = build_policy_lp(appendix_c)
    assert len(lp.subset_vars) == 15
    assert lp.problem.A.shape[1] - len(lp.subset_vars) == 16


def test_relaxation_beats_best_policy_on_worked_instance(appendix_c):
    sol = solve_policy_lp(build_policy_lp(appendix_c))
    assert sol.value >= 191.5 / 4 - 1e-9
    brute = oracle.brute_force_revenue_opt(appendix_c).best_value
    assert brute == pytest.approx(191.0 / 4, abs=1e-9)
    assert sol.value >= brute + 0.1  # strict dominance with a visible gap


def test_relaxation_marginals_live_in_polytope(appendix_c):
    rng = np.random.default_rng(3)
    instances = [appendix_c] + [
        random_instance("mnl", 4, rng, with_payments=True) for _ in range(5)
    ]
    for inst in instances:
        sol = solve_policy_lp(build_policy_lp(inst))
        assert in_matroid_polytope(LaminarMatroid(inst.n), sol.marginals)
        assert np.all(sol.marginals >= 0.0) and np.all(sol.marginals <= 1.0)


def test_infeasible_floor_raises():
    model = MnlModel(2, (1.0, 1.0), 1.0)
    inst = Instance(2, (0.5, 0.5), (model,) * 2, ZEROS2, K=1.0, T=0.9)
    with pytest.raises(InfeasibleError):
        solve_policy_lp(build_policy_lp(inst))


def test_relaxation_dominates_brute_force():
    rng = np.random.default_rng(11)
    for trial in range(8):
        n = int(rng.integers(2, 4))
        inst = random_instance("mnl", n, rng, with_payments=True)
        sol = solve_policy_lp(build_policy_lp(inst))
        brute = oracle.brute_force_revenue_opt(inst).best_value
        assert sol.value >= brute - 1e-7


def test_linear_only_relaxation_upper_bounds_assignment():
    # all click value suppressed: LP must dominate the best placement sum
    table = {m: 0.0 for m in range(16)}
    model = ExplicitModel(4, table)
    rng = np.random.default_rng(5)
    r = np.sort(rng.uniform(0, 1, size=(4, 4)), axis=0)[::-1]
    inst = Instance(4, (0.25,) * 4, (model,) * 4, tuple(map(tuple, r)), K=100.0)
    sol = solve_policy_lp(build_policy_lp(inst))
    best_assignment = max(
        sum(r[i][order[i]] for i in range(4))
        for order in itertools.permutations(range(4))
    )
    assert sol.value >= best_assignment - 1e-9


def test_scale_solution_identity_and_budgets(appendix_c):
    sol = solve_policy_lp(build_policy_lp(appendix_c))
    assert scale_solution(sol, 1.0) is sol
    scaled = scale_solution(sol, ONE_MINUS_INV_E)
    assert engagement_term(appendix_c, scaled) == pytest.approx(
        ONE_MINUS_INV_E * engagement_term(appendix_c, sol)
    )
    assert scaled.value == pytest.approx(ONE_MINUS_INV_E * sol.value)
    half = scale_solution(sol, 0.5)
    for k in range(4):
        layer = sum(p for (kk, _), p in half.subset.items() if kk == k)
        assert layer <= 0.5 + 1e-9
    with pytest.raises(SeqsubError):
        scale_solution(sol, 0.0)


def test_scaled_engagement_term_on_worked_instance(appendix_c):
    # the relaxation's engagement value scales linearly with the repair factor
    sol = solve_policy_lp(build_policy_lp(appendix_c))
    scaled = scale_solution(sol, ONE_MINUS_INV_E)
    assert engagement_term(appendix_c, sol) == pytest.approx(191.5 / 400, abs=1e-9)
    assert engagement_term(appendix_c, scaled) == pytest.approx(
        ONE_MINUS_INV_E * 191.5 / 400, abs=1e-9
    )


def test_round_point_mass_returns_that_permutation():
    model = MnlModel(3, (1.0, 0.5, 0.2), 1.0)
    inst = Instance(3, (1 / 3,) * 3, (model,) * 3, tuple((0.0,) * 3 for _ in range(3)))
    order0 = (2, 0, 1)
    sol = PolicyLpSolution(
        value=1.0,
        subset={},
        marginals=matrix_of({(i, order0[i]) for i in range(3)}, 3),
    )
    for s in range(5):
        assert round_to_permutation(inst, sol, seed=s) == order0


def test_round_zero_assignment_is_identity():
    model = MnlModel(3, (1.0, 1.0, 1.0), 1.0)
    inst = Instance(3, (1 / 3,) * 3, (model,) * 3, tuple((0.0,) * 3 for _ in range(3)))
    sol = PolicyLpSolution(1.0, {}, np.zeros((3, 3)))
    assert round_to_permutation(inst, sol, seed=4) == (0, 1, 2)


def test_rounding_sweep_always_permutes(appendix_c):
    sol = solve_policy_lp(build_policy_lp(appendix_c))
    total_f = 0.0
    trials = 10_000
    for s in range(trials):
        order = round_to_permutation(appendix_c, sol, seed=s)
        assert sorted(order) == [0, 1, 2, 3]
        total_f += core.engagement(appendix_c, order)
    assert total_f / trials > 0.0


def test_round_rejects_marginals_outside_polytope():
    from seqsub.errors import PolytopeError

    model = MnlModel(2, (1.0, 1.0), 1.0)
    inst = Instance(2, (0.5, 0.5), (model,) * 2, ZEROS2)
    bad = PolicyLpSolution(1.0, {}, np.array([[0.9, 0.9], [0.0, 0.0]]))
    with pytest.raises(PolytopeError):
        round_to_permutation(inst, bad, seed=0)


def test_impression_accounting(appendix_c):
    """Kept element (i, j) forces product j to land at position <= i, so the
    realized placement sum dominates the kept elements' payments when r is
    non-increasing down columns."""
    rng = np.random.default_rng(9)
    r = np.sort(rng.uniform(0, 1, size=(4, 4)), axis=0)[::-1]
    inst = Instance(
        4, appendix_c.lam, appendix_c.models, tuple(map(tuple, r)), K=appendix_c.K
    )
    sol = solve_policy_lp(build_policy_lp(inst))
    from seqsub.matroid import crs_round, sample_independent_point
    from seqsub.engagement import extract_permutation
    from seqsub.util import split_seeds

    M = LaminarMatroid(4)
    for s in range(500):
        s1, s2 = split_seeds(s, 2)
        A = sample_independent_point(sol.marginals, s1)
        kept = crs_round(M, sol.marginals, A, s2)
        order = extract_permutation(kept, 4)
        position_of = {j: i for i, j in enumerate(order)}
        for i, j in kept:
            assert position_of[j] <= i
        realized = sum(r[i][order[i]] for i in range(4))
        assert realized >= sum(r[i][j] for i, j in kept) - 1e-9


def test_bicriteria_on_worked_instance(appendix_c):
    report = run_bicriteria(appendix_c, seeds=200, root_seed=1)
    assert report.lp_value >= 191.5 / 4 - 1e-9
    assert report.mean_revenue >= 0.25 * report.lp_value
    assert report.revenue_ok and report.engagement_ok
    assert report.beta_ratio == math.inf  # T = 0 is vacuous
    assert core.revenue(appendix_c, report.best.order) == pytest.approx(
        report.best.revenue
    )


def test_bicriteria_trivial_zero_instance():
    table = {m: 0.0 for m in range(4)}
    model = ExplicitModel(2, table)
    inst = Instance(2, (0.5, 0.5), (model,) * 2, ZEROS2, K=0.0)
    report = run_bicriteria(inst, seeds=20, root_seed=0)
    assert report.lp_value == pytest.approx(0.0, abs=1e-9)
    assert report.mean_revenue == pytest.approx(0.0, abs=1e-12)
    assert report.revenue_ok and report.engagement_ok
    assert report.alpha_ratio == math.inf


def test_bicriteria_with_active_floor():
    rng = np.random.default_rng(21)
    for trial in range(3):
        inst = random_instance("mnl", 4, rng, with_payments=True)
        opt = oracle.brute_force_revenue_opt(inst)
        T = 0.5 * core.engagement(inst, opt.best_witness)
        report = run_bicriteria(inst, seeds=100, threshold=T, root_seed=trial)
        assert report.revenue_ok and report.engagement_ok
        assert report.mean_engagement >= 0.25 * T - 3 * report.stderr_engagement
        assert report.mean_revenue >= 0.25 * report.lp_value - 3 * report.stderr_revenue


def test_bicriteria_emulated_repair_factor(appendix_c):
    report = run_bicriteria(
        appendix_c, seeds=100, factor=ONE_MINUS_INV_E, root_seed=3
    )
    assert report.scaled_value == pytest.approx(ONE_MINUS_INV_E * report.lp_value)
    assert report.revenue_ok  # the paper constant still clears easily


def test_bicriteria_reports_reevaluate(appendix_c):
    report = run_bicriteria(appendix_c, seeds=25, root_seed=7)
    for t in report.trials:
        assert core.engagement(appendix_c, t.order) == pytest.approx(t.engagement)
        assert core.revenue(appendix_c, t.order) == pytest.approx(t.revenue)
