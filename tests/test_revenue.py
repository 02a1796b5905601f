"""The explicit relaxation, scaling, CRS rounding, and the bi-criteria audit."""

import itertools
import math

import numpy as np
import pytest

from seqsub import core, oracle, revenue
from seqsub.core import ExplicitModel, Instance, MnlModel
from seqsub.errors import InfeasibleError, SeqsubError
from seqsub.generators import random_instance
from seqsub.matroid import in_matroid_polytope
from seqsub.numerics import simplex_solve
from seqsub.policy import PolicyVector
from seqsub.revenue import (
    ROUND_BLOCK,
    build_policy_lp,
    round_to_permutation,
    run_bicriteria,
    solve_policy_lp,
)

from auditors import marginals
from conftest import matrix_of

ZEROS2 = ((0.0, 0.0), (0.0, 0.0))

#: Feasibility-repair factor of the polynomial-time path, emulated by scaling.
ONE_MINUS_INV_E = 1.0 - 1.0 / math.e


def engagement_term(lp, x):
    """The relaxation's engagement at x, read off the floor row:
    sum of lam_k * f_k(S) * x[k][S]."""
    return float(lp.problem.A[lp.inst.n ** 2] @ x)


def test_build_counts_small():
    model = MnlModel(2, (1.0, 1.0), 1.0)
    inst = Instance(2, (0.5, 0.5), (model,) * 2, ZEROS2, K=1.0)
    lp = build_policy_lp(inst)
    assert len(lp.subset_vars) == 3  # {0}, {1}, {0,1}
    # 4 marginal rows + 1 floor + 2 layer budgets over the 2^n - 1 subset columns
    assert lp.problem.A.shape == (7, 3)
    assert lp.problem.senses == ("<=",) * 4 + (">=",) + ("<=",) * 2


def test_build_counts_worked_instance(appendix_c):
    lp = build_policy_lp(appendix_c)
    assert len(lp.subset_vars) == 15
    assert lp.problem.A.shape == (16 + 1 + 4, 15)


def test_payments_enter_through_the_marginals():
    """Column (k, S) earns K * lam_k * f_k(S) + sum_{j in S} (r[k][j] - r[k+1][j])."""
    inst = random_instance("explicit", 4, 3, with_payments=True)
    lp = build_policy_lp(inst)
    r = np.vstack([inst.r, np.zeros(4)])
    for t, (k, mask) in enumerate(lp.subset_vars):
        pay = sum(r[k][j] - r[k + 1][j] for j in range(4) if mask >> j & 1)
        expected = inst.K * inst.lam[k] * inst.models[k].value(mask) + pay
        assert lp.problem.c[t] == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_marginals_are_read_off_the_marginal_rows(appendix_c):
    """The solution's marginals equal those of the policy vector the LP's
    subset masses form, computed independently by walking their bits."""
    instances = [appendix_c] + [
        random_instance(kind, 4, 2, with_payments=True) for kind in ("mnl", "explicit")
    ]
    for inst in instances:
        lp = build_policy_lp(inst)
        x = simplex_solve(lp.problem).x
        layers = tuple({} for _ in range(inst.n))
        for (k, mask), p in zip(lp.subset_vars, x):
            layers[k][mask] = max(float(p), 0.0)
        expected = np.clip(marginals(PolicyVector(inst.n, layers)), 0.0, 1.0)
        sol = solve_policy_lp(lp)
        np.testing.assert_allclose(sol.marginals, expected, rtol=0.0, atol=1e-12)


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
        assert in_matroid_polytope(inst.n, sol.marginals)
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


def test_scaled_marginals_and_budgets(appendix_c):
    lp = build_policy_lp(appendix_c)
    sol = solve_policy_lp(lp)
    # the scaled marginals are those of the scaled point
    x = ONE_MINUS_INV_E * simplex_solve(lp.problem).x
    np.testing.assert_allclose(
        sol.marginals * ONE_MINUS_INV_E, -(lp.problem.A[:16] @ x).reshape(4, 4),
        rtol=0.0, atol=1e-12,
    )
    # prefix i of the marginals holds i + 1 times layer i's mass
    layer_sums = np.cumsum((sol.marginals * 0.5).sum(axis=1)) / np.arange(1, 5)
    assert layer_sums.max() <= 0.5 + 1e-9


@pytest.mark.parametrize(
    "trials, factor, message",
    [
        (0, 1.0, "revenue: need at least one rounding trial"),
        (-3, 1.0, "revenue: need at least one rounding trial"),
        (20, 0.0, "revenue: scale factor 0.0 outside (0, 1]"),
        (20, 1.5, "revenue: scale factor 1.5 outside (0, 1]"),
    ],
)
def test_run_bicriteria_checks_its_arguments_before_the_lp(
    trials, factor, message, appendix_c, monkeypatch
):
    def no_lp(inst):
        raise AssertionError("built the relaxation")

    monkeypatch.setattr(revenue, "build_policy_lp", no_lp)
    with pytest.raises(SeqsubError) as exc:
        run_bicriteria(appendix_c, trials, factor=factor, seed=0)
    assert str(exc.value) == message


def test_scaled_engagement_term_on_worked_instance(appendix_c):
    # the relaxation's engagement value scales linearly with the repair factor
    lp = build_policy_lp(appendix_c)
    x = simplex_solve(lp.problem).x
    assert engagement_term(lp, x) == pytest.approx(191.5 / 400, abs=1e-9)
    assert engagement_term(lp, ONE_MINUS_INV_E * x) == pytest.approx(
        ONE_MINUS_INV_E * 191.5 / 400, abs=1e-9
    )


def test_round_point_mass_returns_that_permutation():
    model = MnlModel(3, (1.0, 0.5, 0.2), 1.0)
    inst = Instance(3, (1 / 3,) * 3, (model,) * 3, tuple((0.0,) * 3 for _ in range(3)))
    order0 = (2, 0, 1)
    x = matrix_of({(i, order0[i]) for i in range(3)}, 3)
    for s in range(5):
        assert round_to_permutation(inst, x, 5, seed=s) == [order0] * 5


def test_round_zero_assignment_is_identity():
    model = MnlModel(3, (1.0, 1.0, 1.0), 1.0)
    inst = Instance(3, (1 / 3,) * 3, (model,) * 3, tuple((0.0,) * 3 for _ in range(3)))
    assert round_to_permutation(inst, np.zeros((3, 3)), 1, seed=4) == [(0, 1, 2)]


def test_rounding_sweep_always_permutes(appendix_c):
    sol = solve_policy_lp(build_policy_lp(appendix_c))
    total_f = 0.0
    trials = 10_000
    orders = round_to_permutation(appendix_c, sol.marginals, trials, seed=0)
    assert len(orders) == trials
    for order in orders:
        assert sorted(order) == [0, 1, 2, 3]
        total_f += core.engagement(appendix_c, order)
    assert total_f / trials > 0.0


def test_round_rejects_marginals_outside_polytope():
    from seqsub.errors import PolytopeError

    model = MnlModel(2, (1.0, 1.0), 1.0)
    inst = Instance(2, (0.5, 0.5), (model,) * 2, ZEROS2)
    bad = np.array([[0.9, 0.9], [0.0, 0.0]])
    with pytest.raises(PolytopeError):
        round_to_permutation(inst, bad, 1, seed=0)


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

    u = np.random.default_rng(0).random((500, 2, 4, 4))  # the pipeline's draw layout
    A = sample_independent_point(sol.marginals, u[:, 0])
    kept_sets = crs_round(4, sol.marginals, A, u[:, 1])
    for kept, order in zip(kept_sets, extract_permutation(kept_sets, 4).tolist()):
        kept = list(zip(*np.nonzero(kept)))
        position_of = {j: i for i, j in enumerate(order)}
        for i, j in kept:
            assert position_of[j] <= i
        realized = sum(r[i][order[i]] for i in range(4))
        assert realized >= sum(r[i][j] for i, j in kept) - 1e-9


def test_bicriteria_on_worked_instance(appendix_c):
    report = run_bicriteria(appendix_c, trials=200, seed=1)
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
    report = run_bicriteria(inst, trials=20, seed=0)
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
        report = run_bicriteria(inst.with_threshold(T), trials=100, seed=trial)
        assert report.revenue_ok and report.engagement_ok
        assert report.mean_engagement >= 0.25 * T - 3 * report.stderr_engagement
        assert report.mean_revenue >= 0.25 * report.lp_value - 3 * report.stderr_revenue


def test_bicriteria_emulated_repair_factor(appendix_c):
    report = run_bicriteria(
        appendix_c, trials=100, factor=ONE_MINUS_INV_E, seed=3
    )
    assert report.scaled_value == pytest.approx(ONE_MINUS_INV_E * report.lp_value)
    assert report.revenue_ok  # the paper constant still clears easily


def test_bicriteria_reports_reevaluate(appendix_c):
    report = run_bicriteria(appendix_c, trials=25, seed=7)
    for t in report.trials:
        assert core.engagement(appendix_c, t.order) == pytest.approx(t.engagement)
        assert core.revenue(appendix_c, t.order) == pytest.approx(t.revenue)


def test_bicriteria_trials_carry_exact_values_per_order():
    """The trials are successive roundings on one generator, and each
    distinct order's engagement and revenue are exactly what core computes
    for it."""
    inst = random_instance("mnl", 5, 1, full_mass=True, with_payments=True)
    seed, trials = 5, 300
    report = run_bicriteria(inst, trials=trials, factor=ONE_MINUS_INV_E, seed=seed)
    scaled = solve_policy_lp(build_policy_lp(inst)).marginals * ONE_MINUS_INV_E
    orders = round_to_permutation(inst, scaled, trials, seed)
    assert [t.order for t in report.trials] == orders
    assert 1 < len(set(orders)) < trials  # values are shared between trials
    for t in report.trials:
        assert t.engagement == core.engagement(inst, t.order)
        assert t.revenue == core.revenue(inst, t.order)


def test_first_trials_are_the_shorter_run():
    """The first k trials of an N-trial run are exactly the k-trial run, and
    a Generator passed as the seed is drawn from as-is."""
    inst = random_instance("explicit", 5, 2, full_mass=True, with_payments=True)
    full = run_bicriteria(inst, trials=60, factor=ONE_MINUS_INV_E, seed=4).trials
    assert len({t.order for t in full}) > 1
    for k in (1, 7, 59):
        short = run_bicriteria(inst, trials=k, factor=ONE_MINUS_INV_E, seed=4).trials
        assert short == full[:k]
    rng = np.random.default_rng(4)
    assert run_bicriteria(inst, trials=60, factor=ONE_MINUS_INV_E, seed=rng).trials == full


def test_round_blocks_join_seamlessly():
    """Around the block size, the first k trials are the k-trial rounding,
    and a Generator passed as the seed is drawn from as-is, block after
    block."""
    inst = random_instance("explicit", 4, 2, full_mass=True, with_payments=True)
    x = solve_policy_lp(build_policy_lp(inst)).marginals * ONE_MINUS_INV_E
    full = round_to_permutation(inst, x, ROUND_BLOCK + 1, seed=6)
    assert len(set(full)) > 1
    for k in (ROUND_BLOCK - 1, ROUND_BLOCK, ROUND_BLOCK + 1):
        assert round_to_permutation(inst, x, k, seed=6) == full[:k]
    rng = np.random.default_rng(6)
    head = round_to_permutation(inst, x, ROUND_BLOCK - 1, seed=rng)
    assert head + round_to_permutation(inst, x, 2, seed=rng) == full
