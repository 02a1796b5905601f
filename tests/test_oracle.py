"""Brute-force optima, verification, exact multilinear values, correlation gap."""

import ast
import itertools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from seqsub import core, oracle
from seqsub.core import ExplicitModel, Instance, MnlModel
from seqsub.engagement import LiftedObjective
from seqsub.errors import InfeasibleError, TooLargeError, ValidationError
from seqsub.generators import random_explicit_model, random_instance
from seqsub.matroid import LaminarMatroid
from seqsub.util import mask_of

from conftest import random_subset_distribution

INV_E_GAP = 1.0 - 1.0 / math.e

# What the oracle module may import from the package: the instance type, the
# error types, and the matroid's enumerators and types. None of the pipelines.
ORACLE_IMPORTS = {
    "core": {"Instance"},
    "errors": {"InfeasibleError", "TooLargeError", "ValidationError"},
    "matroid": {"LaminarMatroid", "LiftedSet", "iter_bases", "iter_independent_sets"},
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
    assert rep.enumerated_count == 24
    assert core.engagement(appendix_c, rep.best_witness) == pytest.approx(rep.best_value)


def test_engagement_opt_single_product():
    model = MnlModel(1, (2.0,), 1.0)
    inst = Instance(1, (0.8,), (model,), ((0.0,),))
    rep = oracle.brute_force_engagement_opt(inst)
    assert rep.best_witness == (0,)
    assert rep.best_value == pytest.approx(0.8 * (2.0 / 3.0))
    assert rep.enumerated_count == 1


def test_engagement_opt_two_product_worked_example(example_1):
    # additive tables with values (1, 0) at level 1 and (0, 1.1) at level 2:
    # order (0, 1) collects both users, (1, 0) only the second
    rep = oracle.brute_force_engagement_opt(example_1)
    assert rep.best_witness == (0, 1)
    assert rep.best_value == pytest.approx(1.05, abs=1e-12)
    assert core.engagement(example_1, (1, 0)) == pytest.approx(0.55, abs=1e-12)


def test_engagement_opt_size_cap():
    model = MnlModel(11, (1.0,) * 11, 1.0)
    inst = Instance(
        11, (1.0 / 11,) * 11, (model,) * 11, tuple((0.0,) * 11 for _ in range(11))
    )
    with pytest.raises(TooLargeError):
        oracle.brute_force_engagement_opt(inst)


def test_revenue_opt_on_worked_instance(appendix_c):
    rep = oracle.brute_force_revenue_opt(appendix_c)
    assert rep.best_value == pytest.approx(47.75, abs=1e-9)
    assert core.revenue(appendix_c, rep.best_witness) == pytest.approx(rep.best_value)


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


@pytest.mark.parametrize("n", range(1, 7))
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
    bits, the first lexicographic maximiser, and n! orders enumerated."""
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
    assert rep.enumerated_count == math.factorial(n)


def test_verify_worked_table_passes(appendix_c):
    assert oracle.verify_monotone_submodular(appendix_c.models[0], 4).ok


def test_verify_mnl_passes():
    rng = np.random.default_rng(3)
    model = MnlModel(6, tuple(rng.uniform(0, 2, size=6)), 0.7)
    assert oracle.verify_monotone_submodular(model, 6).ok


def test_verify_catches_monotonicity_violation():
    fn = {0: 0.0, 1: 0.5, 2: 0.2, 3: 0.4}.__getitem__
    check = oracle.verify_monotone_submodular(fn, 2)
    assert not check.ok
    assert check.kind == "monotone"
    assert check.mask == 1 and check.x == 1  # f({0}) = 0.5 > 0.4 = f({0,1})


def test_verify_catches_submodularity_violation():
    fn = {0: 0.0, 1: 0.0, 2: 0.0, 3: 1.0}.__getitem__  # pure AND: supermodular
    check = oracle.verify_monotone_submodular(fn, 2)
    assert not check.ok
    assert check.kind == "submodular"
    assert check.mask == 0


def test_exact_multilinear_integral_point():
    g = lambda S: float(len(S)) ** 1.5
    x = {e: 1.0 if e % 2 == 0 else 0.0 for e in range(6)}
    assert oracle.exact_multilinear(g, x) == pytest.approx(3.0**1.5)


def test_exact_multilinear_zero_point():
    g = lambda S: 2.0 + len(S)
    assert oracle.exact_multilinear(g, {0: 0.0, 1: 0.0}) == pytest.approx(2.0)


def test_exact_multilinear_support_cap():
    g = len
    with pytest.raises(TooLargeError):
        oracle.exact_multilinear(g, {e: 0.5 for e in range(21)})


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
    orders = matching_point["orders"]
    m_sets = [frozenset((i, order[i]) for i in range(4)) for order in orders]
    g1, g2 = g.value(m_sets[0]), g.value(m_sets[1])
    assert g1 == pytest.approx(1.0 / 4.0, abs=1e-12)
    assert g2 == pytest.approx(2.0 / 4.0, abs=1e-12)

    x = {
        (i, j): matching_point["x"][i][j]
        for i in range(4)
        for j in range(4)
        if matching_point["x"][i][j] > 0
    }
    frac = oracle.exact_multilinear(g.value, x)
    assert frac == pytest.approx(11.0 / 32.0, abs=1e-12)
    # observed relation, recorded: strictly between the matchings
    assert g1 < frac < g2

    # integral consistency: the multilinear extension at each matching
    # equals direct evaluation
    for m_set, val in zip(m_sets, (g1, g2)):
        point = {e: 1.0 for e in m_set}
        assert oracle.exact_multilinear(g.value, point) == pytest.approx(val, abs=1e-12)


def test_correlation_gap_additive_is_one():
    w = {0: 0.3, 1: 1.1, 2: 0.6}
    f = lambda S: sum(w[e] for e in S)
    dist = [(frozenset({0, 1}), 0.5), (frozenset({2}), 0.3), (frozenset(), 0.2)]
    assert oracle.correlation_gap_ratio(f, dist) == pytest.approx(1.0, abs=1e-12)


def test_correlation_gap_point_mass_is_one():
    f = lambda S: min(len(S), 2.0)
    dist = [(frozenset({0, 2, 3}), 1.0)]
    assert oracle.correlation_gap_ratio(f, dist) == pytest.approx(1.0, abs=1e-12)


def test_correlation_gap_zero_denominator_is_inf():
    f = lambda S: float(len(S))
    dist = [(frozenset(), 1.0)]
    assert oracle.correlation_gap_ratio(f, dist) == math.inf


def test_correlation_gap_respects_lower_bound_quick():
    rng = np.random.default_rng(13)
    for trial in range(15):
        inst = random_instance("coverage" if trial % 2 else "mnl", 8, rng)
        model = inst.models[0]
        f = lambda S: model.value(mask_of(S))
        dist = random_subset_distribution(8, rng)
        ratio = oracle.correlation_gap_ratio(f, dist)
        assert ratio >= INV_E_GAP - 1e-9


def test_correlation_gap_invalid_distribution():
    f = len
    with pytest.raises(ValidationError):
        oracle.correlation_gap_ratio(f, [(frozenset({0}), 0.7)])


def test_max_independent_value_matches_permutation_optimum():
    """Exhaustive check that the lifted relaxation is tight: the best
    independent set value equals the best permutation engagement, attained
    at a permutation-shaped witness."""
    rng = np.random.default_rng(29)
    for n in (2, 3, 4):
        inst = random_instance("explicit", n, rng)
        g = LiftedObjective(inst)
        M = LaminarMatroid(n)
        over_sets = oracle.max_independent_value(g.value, M, bases_only=False)
        opt = oracle.brute_force_engagement_opt(inst)
        assert over_sets.best_value == pytest.approx(opt.best_value, abs=1e-9)
        shaped = frozenset((i, opt.best_witness[i]) for i in range(n))
        assert g.value(shaped) == pytest.approx(opt.best_value, abs=1e-12)


@pytest.mark.parametrize("n", [5, 6])
def test_max_independent_value_bases_only_agrees(n):
    rng = np.random.default_rng(31 + n)
    inst = random_instance("mnl", n, rng)
    g = LiftedObjective(inst)
    M = LaminarMatroid(n)
    bases = oracle.max_independent_value(g.value, M, bases_only=True)
    opt = oracle.brute_force_engagement_opt(inst)
    # monotone g: restricting to bases loses nothing
    assert bases.best_value == pytest.approx(opt.best_value, abs=1e-9)


def test_oracle_reports_reevaluate(appendix_c):
    eng = oracle.brute_force_engagement_opt(appendix_c)
    rev = oracle.brute_force_revenue_opt(appendix_c)
    assert core.engagement(appendix_c, eng.best_witness) == pytest.approx(eng.best_value)
    assert core.revenue(appendix_c, rev.best_witness) == pytest.approx(rev.best_value)
