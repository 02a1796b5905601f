"""Exact optima, verification, exact multilinear values, correlation gap."""

import ast
import itertools
import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from seqsub import core, oracle
from seqsub.core import ExplicitModel, Instance, MnlModel
from seqsub.engagement import LiftedObjective, greedy_rank
from seqsub.errors import InfeasibleError, TooLargeError, ValidationError
from seqsub.generators import random_explicit_model, random_instance
from seqsub.util import mask_of

from auditors import (
    MAX_VERIFY_N,
    correlation_gap_ratio,
    exact_multilinear,
    max_independent_value,
    verify_monotone_submodular,
)
from conftest import matrix_of, random_subset_distribution

INV_E_GAP = 1.0 - 1.0 / math.e

# What the oracle module may import from the package: the instance type and
# the error types. None of the pipelines.
ORACLE_IMPORTS = {
    "core": {"Instance"},
    "errors": {"InfeasibleError", "TooLargeError", "ValidationError"},
}


def test_oracle_imports_nothing_it_audits():
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "seqsub" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                assert node.module.split(".")[0] != "seqsub", node.module
                continue
            assert node.level == 1 and node.module in ORACLE_IMPORTS, node.module
            names = {a.name for a in node.names}
            assert names <= ORACLE_IMPORTS[node.module], (node.module, names)


def test_engagement_opt_on_worked_instance(appendix_c):
    rep = oracle.brute_force_engagement_opt(appendix_c)
    # best chain of prefix values: (20 + 39 + 58 + 74) / 100, weighted by 1/4
    assert rep.best_value == pytest.approx(1.91 / 4, abs=1e-9)
    assert rep.enumerated_count == 16
    assert core.engagement(appendix_c, rep.best_witness) == pytest.approx(rep.best_value)


def test_engagement_opt_single_product():
    model = MnlModel(1, (2.0,), 1.0)
    inst = Instance(1, (0.8,), (model,), ((0.0,),))
    rep = oracle.brute_force_engagement_opt(inst)
    assert rep.best_witness == (0,)
    assert rep.best_value == pytest.approx(0.8 * (2.0 / 3.0))
    assert rep.enumerated_count == 2


def test_engagement_opt_two_product_worked_example(example_1):
    # additive tables with values (1, 0) at level 1 and (0, 1.1) at level 2:
    # order (0, 1) collects both users, (1, 0) only the second
    rep = oracle.brute_force_engagement_opt(example_1)
    assert rep.best_witness == (0, 1)
    assert rep.best_value == pytest.approx(1.05, abs=1e-12)
    assert core.engagement(example_1, (1, 0)) == pytest.approx(0.55, abs=1e-12)


def test_engagement_opt_size_cap():
    model = MnlModel(15, (1.0,) * 15, 1.0)
    inst = Instance(
        15, (1.0 / 15,) * 15, (model,) * 15, tuple((0.0,) * 15 for _ in range(15))
    )
    with pytest.raises(TooLargeError):
        oracle.brute_force_engagement_opt(inst)


def test_engagement_opt_reaches_the_size_cap():
    """At the cap n = 14 the witness re-evaluates to the same float bits and
    is no worse than greedy; one label per prefix mask."""
    inst = random_instance("mnl", oracle.MAX_BRUTE_N, 3, full_mass=True, with_payments=True)
    rep = oracle.brute_force_engagement_opt(inst)
    assert core.engagement(inst, rep.best_witness).hex() == rep.best_value.hex()
    assert rep.best_value >= core.engagement(inst, greedy_rank(inst))
    assert rep.enumerated_count == 2**oracle.MAX_BRUTE_N


def test_revenue_opt_on_worked_instance(appendix_c):
    rep = oracle.brute_force_revenue_opt(appendix_c)
    assert rep.best_value == pytest.approx(47.75, abs=1e-9)
    assert core.revenue(appendix_c, rep.best_witness) == pytest.approx(rep.best_value)


def test_revenue_opt_breaks_exact_ties_toward_the_first_order():
    """(0, 1) pays 0.25 + 0.25 and (1, 0) pays 0.0 + 0.5: an exact tie between
    two Pareto labels, where the later-sorted label has the smaller order."""
    model = ExplicitModel(2, {0: 0.0, 1: 0.25, 2: 0.5, 3: 0.5})
    inst = Instance(2, (1.0, 0.0), (model, model), ((0.25, 0.0), (0.0, 0.0)), K=1.0)
    assert core.revenue(inst, (0, 1)) == core.revenue(inst, (1, 0)) == 0.5
    rep = oracle.brute_force_revenue_opt(inst)
    assert (rep.best_value, rep.best_witness, rep.enumerated_count) == (0.5, (0, 1), 5)


def test_revenue_opt_infeasible_floor(appendix_c):
    hard = appendix_c.with_threshold(0.9)  # max engagement is 0.4775
    with pytest.raises(InfeasibleError):
        oracle.brute_force_revenue_opt(hard)


def _audit_instance(kind: str, n: int) -> Instance:
    """Payments, a patience deficit, a zero level when n > 1, and for
    explicit tables one table per level."""
    rng = np.random.default_rng(100 + n)
    inst = random_instance(kind, n, rng, full_mass=False, with_payments=True)
    lam = inst.lam[:-1] + (0.0,) if n > 1 else inst.lam
    models = inst.models
    if kind == "explicit":
        models = tuple(random_explicit_model(n, rng) for _ in range(n))
    return replace(inst, lam=lam, models=models)


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("kind", ["mnl", "coverage", "explicit"])
@pytest.mark.parametrize(
    "search, objective",
    [
        (oracle.brute_force_revenue_opt, core.revenue),
        (oracle.brute_force_engagement_opt, core.engagement),
    ],
    ids=["revenue", "engagement"],
)
def test_revenue_opt_unconstrained_equals_max_revenue(search, objective, kind, n):
    """Both oracles (T = 0) against itertools.permutations: the same float
    bits and the first lexicographic maximiser. The engagement search builds
    one label per prefix mask, the revenue search at least one."""
    inst = _audit_instance(kind, n)
    assert sum(inst.lam) < 1.0
    best, first = -math.inf, None
    for order in itertools.permutations(range(n)):
        value = objective(inst, order)
        if value > best:
            best, first = value, order
    rep = search(inst)
    assert rep.best_value.hex() == best.hex()
    assert rep.best_witness == first
    if search is oracle.brute_force_engagement_opt:
        assert rep.enumerated_count == 2**n
    else:
        assert rep.enumerated_count >= 2**n


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("kind", ["mnl", "coverage", "explicit"])
def test_revenue_opt_under_a_floor_equals_enumeration(kind, n):
    """Floors of 0.9 and 0.97 x the best engagement, against
    itertools.permutations: the same float bits and the first lexicographic
    maximiser among the orders that reach the floor."""
    inst = _audit_instance(kind, n)
    scored = [
        (order, core.engagement(inst, order), core.revenue(inst, order))
        for order in itertools.permutations(range(n))
    ]
    top = max(eng for _, eng, _ in scored)
    for factor in (0.9, 0.97):
        floor = factor * top
        best, first = -math.inf, None
        for order, eng, value in scored:
            if eng >= floor - 1e-9 and value > best:
                best, first = value, order
        rep = oracle.brute_force_revenue_opt(inst.with_threshold(floor))
        assert rep.best_value.hex() == best.hex()
        assert rep.best_witness == first


class _CountingModel:
    """A click model that counts value() calls per mask."""

    def __init__(self, model):
        self.n, self.model, self.calls = model.n, model, Counter()

    def value(self, mask):
        self.calls[mask] += 1
        return self.model.value(mask)


@pytest.mark.parametrize("kind", ["mnl", "coverage", "explicit"])
@pytest.mark.parametrize(
    "search", [oracle.brute_force_engagement_opt, oracle.brute_force_revenue_opt]
)
def test_oracle_evaluates_each_prefix_mask_once(search, kind):
    """The search extends every prefix mask from each of its predecessors,
    but each level queries its click model at most once per mask, and only
    on masks of its own size."""
    inst = _audit_instance(kind, 6)
    counting = tuple(_CountingModel(m) for m in inst.models)
    rep, ref = search(replace(inst, models=counting)), search(inst)
    assert (rep.best_value.hex(), rep.best_witness) == (ref.best_value.hex(), ref.best_witness)
    assert rep.enumerated_count == ref.enumerated_count
    if search is oracle.brute_force_engagement_opt:
        assert rep.enumerated_count == 64
    else:
        assert rep.enumerated_count >= 64
    for level, model in enumerate(counting):
        assert set(model.calls.values()) <= {1}
        if inst.lam[level]:
            assert sorted(model.calls) == [m for m in range(64) if m.bit_count() == level + 1]
        else:
            assert not model.calls


def test_verify_worked_table_passes(appendix_c):
    assert verify_monotone_submodular(appendix_c.models[0], 4).ok


def test_verify_mnl_passes():
    rng = np.random.default_rng(3)
    model = MnlModel(6, tuple(rng.uniform(0, 2, size=6)), 0.7)
    assert verify_monotone_submodular(model, 6).ok


def test_verify_reaches_its_cap():
    """At n = MAX_VERIFY_N every one of the 4,096 subsets is scanned: an mnl
    model passes, and raising its full-set value is caught as a submodularity
    violation at a set two products short of full."""
    n = MAX_VERIFY_N
    rng = np.random.default_rng(12)
    model = MnlModel(n, tuple(rng.uniform(0, 2, size=n)), 0.7)
    assert verify_monotone_submodular(model, n).ok
    full = (1 << n) - 1
    vals = [model.value(m) for m in range(1 << n)]
    vals[full] += 0.5
    check = verify_monotone_submodular(vals.__getitem__, n)
    assert not check.ok and check.kind == "submodular"
    assert check.mask | 1 << check.x | 1 << check.y == full


def test_verify_catches_monotonicity_violation():
    fn = {0: 0.0, 1: 0.5, 2: 0.2, 3: 0.4}.__getitem__
    check = verify_monotone_submodular(fn, 2)
    assert not check.ok
    assert check.kind == "monotone"
    assert check.mask == 1 and check.x == 1  # f({0}) = 0.5 > 0.4 = f({0,1})


def test_verify_catches_submodularity_violation():
    fn = {0: 0.0, 1: 0.0, 2: 0.0, 3: 1.0}.__getitem__  # pure AND: supermodular
    check = verify_monotone_submodular(fn, 2)
    assert not check.ok
    assert check.kind == "submodular"
    assert check.mask == 0


def test_exact_multilinear_integral_point():
    g = lambda S: float(len(S)) ** 1.5
    x = {e: 1.0 if e % 2 == 0 else 0.0 for e in range(6)}
    assert exact_multilinear(g, x) == pytest.approx(3.0**1.5)


def test_exact_multilinear_zero_point():
    g = lambda S: 2.0 + len(S)
    assert exact_multilinear(g, {0: 0.0, 1: 0.0}) == pytest.approx(2.0)


def test_exact_multilinear_support_cap():
    g = len
    with pytest.raises(TooLargeError):
        exact_multilinear(g, {e: 0.5 for e in range(21)})


def test_matching_point_values(matching_instance, matching_point):
    """All three values of the worked doubly stochastic point.

    Independent derivation: only level 2 (weight 1/4) contributes. Under
    independent 0.5 sampling of the eight support cells, the first ground
    element is covered unless all of (0,0), (0,2), (1,2) are absent
    (prob 7/8), the second iff (1,1) is present (prob 1/2), so the exact
    extension value is (7/8 + 1/2) / 4 = 11/32. The two matchings give
    1/4 and 1/2: the fractional point sits strictly BETWEEN them.
    """
    g = LiftedObjective(matching_instance)
    value = lambda R: g.value(matrix_of(R, 4) > 0)
    orders = matching_point["orders"]
    m_sets = [frozenset((i, order[i]) for i in range(4)) for order in orders]
    g1, g2 = value(m_sets[0]), value(m_sets[1])
    assert g1 == pytest.approx(1.0 / 4.0, abs=1e-12)
    assert g2 == pytest.approx(2.0 / 4.0, abs=1e-12)

    x = {
        (i, j): matching_point["x"][i][j]
        for i in range(4)
        for j in range(4)
        if matching_point["x"][i][j] > 0
    }
    frac = exact_multilinear(value, x)
    assert frac == pytest.approx(11.0 / 32.0, abs=1e-12)
    # observed relation, recorded: strictly between the matchings
    assert g1 < frac < g2

    # integral consistency: the multilinear extension at each matching
    # equals direct evaluation
    for m_set, val in zip(m_sets, (g1, g2)):
        point = {e: 1.0 for e in m_set}
        assert exact_multilinear(value, point) == pytest.approx(val, abs=1e-12)


def test_correlation_gap_additive_is_one():
    w = {0: 0.3, 1: 1.1, 2: 0.6}
    f = lambda S: sum(w[e] for e in S)
    dist = [(frozenset({0, 1}), 0.5), (frozenset({2}), 0.3), (frozenset(), 0.2)]
    assert correlation_gap_ratio(f, dist) == pytest.approx(1.0, abs=1e-12)


def test_correlation_gap_point_mass_is_one():
    f = lambda S: min(len(S), 2.0)
    dist = [(frozenset({0, 2, 3}), 1.0)]
    assert correlation_gap_ratio(f, dist) == pytest.approx(1.0, abs=1e-12)


def test_correlation_gap_zero_denominator_is_inf():
    f = lambda S: float(len(S))
    dist = [(frozenset(), 1.0)]
    assert correlation_gap_ratio(f, dist) == math.inf


def test_correlation_gap_respects_lower_bound_quick():
    rng = np.random.default_rng(13)
    for trial in range(15):
        inst = random_instance("coverage" if trial % 2 else "mnl", 8, rng)
        model = inst.models[0]
        f = lambda S: model.value(mask_of(S))
        dist = random_subset_distribution(8, rng)
        ratio = correlation_gap_ratio(f, dist)
        assert ratio >= INV_E_GAP - 1e-9


def test_correlation_gap_invalid_distribution():
    f = len
    with pytest.raises(ValidationError):
        correlation_gap_ratio(f, [(frozenset({0}), 0.7)])


def test_max_independent_value_matches_permutation_optimum():
    """Exhaustive check that the lifted relaxation is tight: the best
    independent set value equals the best permutation engagement, attained
    at a permutation-shaped witness."""
    rng = np.random.default_rng(29)
    for n in (2, 3, 4):
        inst = random_instance("explicit", n, rng)
        g = LiftedObjective(inst)
        over_sets = max_independent_value(g.value, n, bases_only=False)
        opt = oracle.brute_force_engagement_opt(inst)
        assert over_sets.best_value == pytest.approx(opt.best_value, abs=1e-9)
        shaped = matrix_of(((i, opt.best_witness[i]) for i in range(n)), n) > 0
        assert g.value(shaped) == pytest.approx(opt.best_value, abs=1e-12)


@pytest.mark.parametrize("n", [5, 6])
def test_max_independent_value_bases_only_agrees(n):
    rng = np.random.default_rng(31 + n)
    inst = random_instance("mnl", n, rng)
    g = LiftedObjective(inst)
    bases = max_independent_value(g.value, n, bases_only=True)
    opt = oracle.brute_force_engagement_opt(inst)
    # monotone g: restricting to bases loses nothing
    assert bases.best_value == pytest.approx(opt.best_value, abs=1e-9)


def test_oracle_reports_reevaluate(appendix_c):
    eng = oracle.brute_force_engagement_opt(appendix_c)
    rev = oracle.brute_force_revenue_opt(appendix_c)
    assert core.engagement(appendix_c, eng.best_witness) == pytest.approx(eng.best_value)
    assert core.revenue(appendix_c, rev.best_witness) == pytest.approx(rev.best_value)
