"""Prefix matroid structure and the randomized rounding machinery."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqsub import matroid, oracle
from seqsub.engagement import LiftedObjective
from seqsub.errors import PolytopeError
from seqsub.generators import random_instance
from seqsub.matroid import (
    LaminarMatroid,
    continuous_greedy,
    crs_round,
    estimate_multilinear,
    in_matroid_polytope,
    is_independent,
    iter_bases,
    iter_independent_sets,
    max_weight_base,
    pipage_round,
    sample_independent_point,
    set_from_matrix,
)

from conftest import matrix_of

M4 = LaminarMatroid(4)


class Modular:
    """Batched modular objective g(R) = c + sum of w[e] over e in R."""

    def __init__(self, w, c=0.0):
        self.w, self.c = np.asarray(w, dtype=float), c

    def batch_value(self, incl):
        return self.c + (incl * self.w).sum(axis=(1, 2))

    def batch_marginal_weights(self, incl):
        return np.broadcast_to(self.w, incl.shape)


def test_permutation_shaped_sets_are_independent():
    for order in itertools.permutations(range(4)):
        R = frozenset((i, order[i]) for i in range(4))
        assert is_independent(M4, R)


def test_two_elements_at_the_top_position_are_dependent():
    assert not is_independent(LaminarMatroid(2), {(0, 0), (0, 1)})


def test_capacity_check_example_n3():
    M = LaminarMatroid(3)
    assert is_independent(M, {(1, 0), (1, 1), (2, 2)})
    assert not is_independent(M, {(1, 0), (1, 1), (1, 2)})


def test_downward_closure_exhaustive_n3():
    M = LaminarMatroid(3)
    for R in iter_independent_sets(M):
        elems = sorted(R)
        for r in range(len(elems) + 1):
            for sub in itertools.combinations(elems, r):
                assert is_independent(M, frozenset(sub))


@settings(max_examples=200, deadline=None)
@given(
    st.frozensets(
        st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=0, max_size=8
    )
)
def test_downward_closure_one_step(R):
    M = LaminarMatroid(5)
    if is_independent(M, R):
        for e in R:
            assert is_independent(M, R - {e})


def test_independent_set_and_base_counts_small():
    # n = 2: by direct count there are 2 + 4 + 6 = 12 nonempty independent
    # sets plus the empty one; bases split as one-per-position (4 choices
    # of position-0 element x 2 remaining... enumerated by hand: 10)
    M2 = LaminarMatroid(2)
    sets = list(iter_independent_sets(M2))
    assert len(sets) == len(set(sets))  # no duplicates
    ground = list(itertools.product(range(2), repeat=2))
    by_hand = [R for r in range(5) for R in itertools.combinations(ground, r)
               if is_independent(M2, frozenset(R))]
    assert len(sets) == len(by_hand)
    bases = list(iter_bases(M2))
    assert all(len(B) == 2 and is_independent(M2, B) for B in bases)
    assert set(bases) == {R for R in sets if len(R) == 2}


def test_max_weight_base_equal_weights_deterministic():
    w = np.ones((3, 3))
    base = max_weight_base(LaminarMatroid(3), w)
    # lexicographic scan admits product 0 at every position
    assert base == frozenset({(0, 0), (1, 0), (2, 0)})
    assert base == max_weight_base(LaminarMatroid(3), w)


def test_max_weight_base_picks_the_heavy_element():
    w = np.zeros((2, 2))
    w[0, 0] = 5.0
    assert (0, 0) in max_weight_base(LaminarMatroid(2), w)


def test_max_weight_base_matches_exhaustive_search():
    rng = np.random.default_rng(11)
    for _ in range(10):
        w = rng.uniform(-0.5, 1.0, size=(4, 4))
        greedy_val = sum(w[e] for e in max_weight_base(M4, w))
        best = max(sum(w[e] for e in B) for B in iter_bases(M4))
        assert greedy_val == pytest.approx(best, abs=1e-12)


def test_polytope_membership():
    x = np.full((4, 4), 0.25)  # doubly stochastic: prefix sums hit k exactly
    assert in_matroid_polytope(M4, x)
    bad = x.copy()
    bad[0] = [0.5, 0.5, 0.25, 0.25]
    assert not in_matroid_polytope(M4, bad)


def test_estimate_multilinear_integral_is_exact():
    g = Modular(np.arange(16.0).reshape(4, 4))
    x = matrix_of({(0, 1), (2, 3)}, 4)
    est = estimate_multilinear(g, x, samples=50, seed=0)
    assert est.mean == pytest.approx(1.0 + 11.0)
    assert est.stderr == 0.0


def test_estimate_multilinear_zero_point():
    g = Modular(np.ones((3, 3)), c=1.0)
    est = estimate_multilinear(g, np.zeros((3, 3)), samples=10, seed=1)
    assert est.mean == pytest.approx(1.0)


def test_estimate_multilinear_matches_exact_extension(matching_instance, matching_point):
    g = LiftedObjective(matching_instance)
    x = np.array(matching_point["x"])
    est = estimate_multilinear(g, x, samples=100_000, seed=7)
    assert abs(est.mean - 11.0 / 32.0) <= 3.0 * est.stderr


def test_continuous_greedy_single_step_is_one_base():
    rng = np.random.default_rng(5)
    w = rng.uniform(0, 1, size=(3, 3))
    y = continuous_greedy(Modular(w), LaminarMatroid(3), steps=1, samples_per_step=20, seed=2)
    assert sorted(y.flatten())[-3:] == [1.0, 1.0, 1.0]
    assert y.sum() == pytest.approx(3.0)
    assert is_independent(LaminarMatroid(3), set_from_matrix(y > 0.5))


def test_continuous_greedy_solves_modular_objectives():
    rng = np.random.default_rng(0)
    for trial in range(5):
        w = rng.uniform(0, 1, size=(4, 4))
        opt = sum(w[e] for e in max_weight_base(M4, w))
        y = continuous_greedy(Modular(w), M4, steps=40, samples_per_step=30, seed=trial)
        assert float((w * y).sum()) >= (1.0 - 1e-2) * opt
        assert in_matroid_polytope(M4, y)


def test_continuous_greedy_output_in_polytope_batched():
    rng = np.random.default_rng(1)
    for trial in range(5):
        inst = random_instance("mnl", 5, rng, full_mass=False)
        y = continuous_greedy(
            LiftedObjective(inst), LaminarMatroid(5), steps=15, samples_per_step=60,
            seed=trial,
        )
        assert in_matroid_polytope(LaminarMatroid(5), y)
        assert y.min() >= 0.0 and y.max() <= 1.0


def test_continuous_greedy_beats_fraction_of_optimum_on_worked_instance(appendix_c):
    g = LiftedObjective(appendix_c)
    y = continuous_greedy(g, M4, steps=40, samples_per_step=200, seed=3)
    x = {(i, j): y[i, j] for i in range(4) for j in range(4) if y[i, j] > 0}
    exact = oracle.exact_multilinear(g.value, x)
    # the fractional point must already clear the guarantee for OPT = 0.4775
    assert exact >= (1.0 - 1.0 / math.e) * 0.4775 - 1e-9


def test_pipage_returns_integral_input_unchanged():
    x = matrix_of({(0, 2), (1, 0), (3, 3)}, 4)
    assert pipage_round(M4, x, seed=0) == {(0, 2), (1, 0), (3, 3)}


def test_pipage_rejects_points_outside_polytope():
    x = np.zeros((3, 3))
    x[0] = [0.9, 0.9, 0.0]
    with pytest.raises(PolytopeError):
        pipage_round(LaminarMatroid(3), x, seed=0)


def test_pipage_preserves_expectation_on_two_base_mixture(
    matching_instance, matching_point
):
    g = LiftedObjective(matching_instance)
    x = np.array(matching_point["x"])
    exact = 11.0 / 32.0
    vals = []
    for t in range(2000):
        R = pipage_round(M4, x, seed=t)
        vals.append(g.value(R))
    vals = np.asarray(vals)
    stderr = vals.std(ddof=1) / math.sqrt(len(vals))
    assert vals.mean() >= exact - 3.0 * stderr


def random_polytope_point(n, rng):
    """Convex combination of a few bases, optionally shrunk."""
    M = LaminarMatroid(n)
    k = int(rng.integers(1, 4))
    weights = rng.dirichlet(np.ones(k))
    x = np.zeros((n, n))
    for t in range(k):
        x += weights[t] * matrix_of(max_weight_base(M, rng.uniform(0, 1, (n, n))), n)
    if rng.random() < 0.3:
        x *= rng.uniform(0.4, 1.0)
    return x


def test_pipage_output_always_independent_sweep():
    rng = np.random.default_rng(23)
    for trial in range(10_000):
        n = int(rng.integers(2, 7))
        x = random_polytope_point(n, rng)
        R = pipage_round(LaminarMatroid(n), x, seed=rng.integers(2**63))
        assert is_independent(LaminarMatroid(n), R)


def test_pipage_coordinate_means_match_input():
    # expectation preservation coordinate-wise on a fixed fractional point
    rng = np.random.default_rng(4)
    x = random_polytope_point(3, rng)
    acc = np.zeros((3, 3))
    trials = 4000
    for t in range(trials):
        acc += matrix_of(pipage_round(LaminarMatroid(3), x, seed=t), 3)
    np.testing.assert_allclose(acc / trials, x, atol=0.035)


def test_sample_independent_point_degenerate():
    assert sample_independent_point(np.ones((3, 3)), seed=0) == set(
        itertools.product(range(3), repeat=2)
    )
    assert sample_independent_point(np.zeros((3, 3)), seed=0) == frozenset()


def test_sample_independent_point_frequencies():
    x = np.full((4, 4), 0.5)
    counts = np.zeros((4, 4))
    trials = 100_000
    rng_seeds = np.random.SeedSequence(77).spawn(trials)
    for s in rng_seeds:
        for e in sample_independent_point(x, s):
            counts[e] += 1.0
    np.testing.assert_allclose(counts / trials, x, atol=0.005)


def test_crs_keeps_independent_inputs():
    x = np.full((3, 3), 1.0 / 3.0)
    A = frozenset({(0, 1), (1, 0), (2, 2)})
    assert crs_round(LaminarMatroid(3), x, A, seed=9) == A


def test_crs_breaks_symmetric_tie_evenly():
    M = LaminarMatroid(2)
    x = np.array([[0.5, 0.5], [0.0, 0.0]])
    A = frozenset({(0, 0), (0, 1)})
    keep0 = 0
    trials = 10_000
    for i, s in enumerate(np.random.SeedSequence(3).spawn(trials)):
        kept = crs_round(M, x, A, seed=s)
        assert len(kept) == 1
        keep0 += (0, 0) in kept
    assert abs(keep0 / trials - 0.5) < 0.02


def test_crs_composed_with_sampling_is_always_independent():
    rng = np.random.default_rng(31)
    for trial in range(2000):
        n = int(rng.integers(2, 6))
        M = LaminarMatroid(n)
        x = random_polytope_point(n, rng)
        A = sample_independent_point(x, rng.integers(2**63))
        kept = crs_round(M, x, A, seed=rng.integers(2**63))
        assert is_independent(M, kept)
        assert kept <= A


def test_crs_requires_polytope_membership():
    x = np.ones((2, 2))  # prefix sum 2 > 1 at the first position
    with pytest.raises(PolytopeError):
        crs_round(LaminarMatroid(2), x, frozenset({(0, 0)}), seed=0)


def test_crs_per_element_retention_at_least_half():
    """Empirical per-element retention of random-order greedy, measured at
    polytope points: kept-given-sampled frequency stays above 1/2 (the
    scheme typically clears 1 - 1/e; that stronger constant is recorded by
    this measurement, not asserted)."""
    rng = np.random.default_rng(41)
    for trial in range(2):
        n = int(rng.integers(4, 6))
        M = LaminarMatroid(n)
        x = random_polytope_point(n, rng)
        support = [(i, j) for i in range(n) for j in range(n) if x[i, j] > 1e-9]
        sampled = {e: 0 for e in support}
        kept_count = {e: 0 for e in support}
        trials = 100_000
        seeds = np.random.SeedSequence(trial).spawn(trials)
        for s in seeds:
            a, b = s.spawn(2)
            A = sample_independent_point(x, a)
            kept = crs_round(M, x, A, seed=b)
            for e in A:
                sampled[e] += 1
            for e in kept:
                kept_count[e] += 1
        for e in support:
            if sampled[e] >= 500:
                assert kept_count[e] / sampled[e] >= 0.5
