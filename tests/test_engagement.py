"""Greedy ranking, the lifted objective, extraction, and the full pipeline."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqsub import core, oracle
from seqsub.core import Instance, MnlModel
from seqsub.engagement import (
    LiftedObjective,
    extract_permutation,
    greedy_rank,
    rank_cg,
)
from seqsub.generators import random_explicit_model, random_instance
from seqsub.matroid import continuous_greedy, is_independent
from seqsub.util import iter_bits, mask_of

from auditors import greedy_by_value, iter_independent_sets
from conftest import matrix_of

ONE_MINUS_INV_E = 1.0 - 1.0 / math.e


def test_greedy_picks_the_myopic_head(example_1):
    # the second product looks better in isolation (0.55 vs 0.5), so greedy
    # leads with it and forfeits the first user's click
    order = greedy_rank(example_1)
    assert order == (1, 0)
    ratio = core.engagement(example_1, order) / 1.05
    assert ratio == pytest.approx(1.1 / 2.1, abs=1e-12)


def test_greedy_single_product():
    inst = Instance(1, (1.0,), (MnlModel(1, (1.0,), 1.0),), ((0.0,),))
    assert greedy_rank(inst) == (0,)


@pytest.mark.parametrize("kind", ["mnl", "coverage", "explicit"])
def test_greedy_matches_the_per_set_reference(kind):
    """greedy_rank reads its gains from batch_gain, greedy_by_value from
    value() alone; the orders agree on seeds 1000-1003 at every n up to 12,
    with and without payments. Coverage at n = 6, seed 1002, with payments
    saturates by position 3: every remaining gain is 0, but the kernel gives
    products 3 and 4 -1.0e-16, so a plain argmax would put product 5 first."""
    for n in range(1, 13):
        for with_payments in (False, True):
            for seed in range(1000, 1004):
                inst = random_instance(kind, n, seed, with_payments=with_payments)
                assert greedy_rank(inst) == greedy_by_value(inst), (n, with_payments, seed)
    tie = random_instance("coverage", 6, 1002, with_payments=True)
    assert greedy_rank(tie) == (0, 1, 2, 3, 4, 5)


@pytest.mark.parametrize("kind, n", [("mnl", 50), ("coverage", 30)])
def test_greedy_matches_the_per_set_reference_at_scale(kind, n):
    for seed in range(2):
        inst = random_instance(kind, n, seed, full_mass=True, with_payments=True)
        assert greedy_rank(inst) == greedy_by_value(inst), seed


class CountingModel:
    """A click model that records the calls made to it: the rows of each
    batch_gain call, their prefix sizes, and how many value() calls."""

    def __init__(self, model):
        self.model, self.n = model, model.n
        self.value_calls, self.gain_prefixes, self.gain_calls = 0, [], []

    def value(self, mask):
        self.value_calls += 1
        return self.model.value(mask)

    def batch_gain(self, members):
        self.gain_calls.append(members.copy())
        self.gain_prefixes += [int(row.sum()) for row in members]
        return self.model.batch_gain(members)


def test_greedy_calls_each_model_once_per_position():
    """Two explicit tables shared across five levels, one level with no
    patience mass: no value() call, and each distinct model sees at most one
    batch_gain row per prefix size."""
    rng = np.random.default_rng(5)
    n = 5
    a, b = random_explicit_model(n, rng), random_explicit_model(n, rng)
    lam = (0.3, 0.2, 0.0, 0.25, 0.15)
    inst = Instance(n, lam, (a, b, a, b, a), tuple((0.0,) * n for _ in range(n)))
    ca, cb = CountingModel(a), CountingModel(b)
    counted = replace(inst, models=(ca, cb, ca, cb, ca))
    assert greedy_rank(counted) == greedy_by_value(inst)
    for model in (ca, cb):
        assert model.value_calls == 0
        assert len(set(model.gain_prefixes)) == len(model.gain_prefixes) <= n


@pytest.mark.parametrize("kind", ["mnl", "coverage", "explicit"])
def test_greedy_half_approximation_quick(kind):
    rng = np.random.default_rng(hash(kind) % 2**32)
    for trial in range(25):
        n = int(rng.integers(2, 8))
        inst = random_instance(kind, n, rng)
        val = core.engagement(inst, greedy_rank(inst))
        opt = oracle.brute_force_engagement_opt(inst).best_value
        assert val >= 0.5 * opt - 1e-9


def test_lifted_value_of_permutation_shape_equals_engagement():
    rng = np.random.default_rng(3)
    for trial in range(5):
        inst = random_instance("mnl", 5, rng, full_mass=False)
        obj = LiftedObjective(inst)
        order = tuple(int(p) for p in rng.permutation(5))
        shaped = matrix_of(((i, order[i]) for i in range(5)), 5) > 0
        assert obj.value(shaped) == pytest.approx(
            core.engagement(inst, order), abs=1e-12
        )


def test_lifted_value_past_one_mask_word():
    """At n = 70 the product masks of the rows pass 63 bits: a
    permutation-shaped set is worth its engagement bit for bit, a sparse set
    what its prefix sets give, and the empty set the empty prefix's value."""
    rng = np.random.default_rng(71)
    n = 70
    inst = random_instance("mnl", n, rng, full_mass=False)
    obj = LiftedObjective(inst)
    for _ in range(3):
        order = tuple(int(p) for p in rng.permutation(n))
        shaped = matrix_of(((i, order[i]) for i in range(n)), n) > 0
        assert obj.value(shaped) == core.engagement(inst, order)
        members = rng.random((n, n)) < 1.0 / n
        prefixes = independent_prefix_products(np.argwhere(members).tolist(), n)
        total = sum(
            inst.lam[i] * inst.models[i].value(mask_of(prefixes[i])) for i in range(n)
        )
        assert obj.value(members) == pytest.approx(total, rel=1e-12)
    empty = 0.0
    for i in range(n):
        if inst.lam[i]:
            empty += inst.lam[i] * inst.models[i].value(0)
    assert obj.value(np.zeros((n, n), dtype=bool)) == empty


def test_lifted_value_of_empty_set():
    table = {m: 0.1 + 0.2 * bin(m).count("1") for m in range(4)}
    model = core.ExplicitModel(2, table)
    inst = Instance(2, (0.5, 0.25), (model,) * 2, ((0.0, 0.0), (0.0, 0.0)))
    obj = LiftedObjective(inst)
    assert obj.value(np.zeros((2, 2), dtype=bool)) == pytest.approx(0.75 * 0.1)


@pytest.mark.parametrize("kind", ["mnl", "coverage", "explicit"])
def test_batch_kernels_match_value_definition(kind):
    """The batched kernels the matroid layer calls, against g set by set:
    batch_value gives g(R) and batch_marginal_weights g(R\\e + e) - g(R\\e)."""
    rng = np.random.default_rng(43)
    n, B = 4, 12
    obj = LiftedObjective(random_instance(kind, n, rng, full_mass=False))
    incl = rng.random((B, n, n)) < rng.random((B, 1, 1))  # sparse to dense sets
    values = obj.batch_value(incl)
    weights = obj.batch_marginal_weights(incl)
    for b in range(B):
        R = incl[b]
        assert values[b] == pytest.approx(obj.value(R), abs=1e-12)
        for e in np.ndindex(n, n):
            rest, with_e = R.copy(), R.copy()
            rest[e], with_e[e] = False, True
            gain = obj.value(with_e) - obj.value(rest)
            assert weights[b][e] == pytest.approx(gain, abs=1e-12), (b, e)


def two_sided_marginal_weights(obj, incl):
    """batch_marginal_weights as first written: f at T+j and at T-j through
    two batch_value calls per level, occurrence rows from masked minima."""
    inst, (B, n) = obj.inst, incl.shape[:2]
    cum = np.logical_or.accumulate(incl, axis=1)
    eye = np.eye(n, dtype=bool)
    lam_gain = np.zeros((B, n, n))
    for i in range(n):
        if inst.lam[i] > 0.0:
            with_j = (cum[:, i, None, :] | eye).reshape(B * n, n)
            without_j = (cum[:, i, None, :] & ~eye).reshape(B * n, n)
            v_with = inst.models[i].batch_value(with_j).reshape(B, n)
            v_without = inst.models[i].batch_value(without_j).reshape(B, n)
            lam_gain[:, i, :] = inst.lam[i] * (v_with - v_without)
    C = np.zeros((B, n + 1, n))
    np.cumsum(lam_gain, axis=1, out=C[:, 1:, :])
    rows = np.arange(n)
    idx = np.where(incl, rows[None, :, None], n)
    m1 = idx.min(axis=1)
    m2 = np.where(idx == m1[:, None, :], n, idx).min(axis=1)
    p_grid = rows[None, :, None]
    fo = np.where(p_grid == m1[:, None, :], m2[:, None, :], m1[:, None, :])
    fo = np.maximum(fo, p_grid)
    return np.take_along_axis(C, fo, axis=1) - C[:, :n, :]


@pytest.mark.parametrize("kind", ["mnl", "coverage", "explicit"])
def test_batch_marginal_weights_match_two_sided_reference(kind):
    """The gain kernels evaluate f on T and T xor j instead of T+j and T-j.
    That is the same floats whenever B*n and B*(n+1) are multiples of 4; at
    other batch sizes BLAS may sum the tail rows in another order."""
    rng = np.random.default_rng(67)
    for n in range(1, 9):
        inst = random_instance(kind, n, rng, full_mass=False)
        if kind == "explicit":  # one table per patience level
            inst = replace(inst, models=tuple(random_explicit_model(n, rng) for _ in range(n)))
        lam = list(inst.lam)
        lam[n // 2] = 0.0
        for case in (inst, replace(inst, lam=tuple(lam))):
            obj = LiftedObjective(case)
            for B in (200, 16, 7, 50):
                incl = rng.random((B, n, n)) < rng.random((B, 1, 1))  # sparse to dense
                got, want = obj.batch_marginal_weights(incl), two_sided_marginal_weights(obj, incl)
                if B % 4 == 0:
                    assert np.array_equal(got, want), (n, B)
                else:
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


class RecordingObjective(LiftedObjective):
    """The lifted objective, keeping the sample tensor of each gradient call."""

    def __init__(self, inst):
        super().__init__(inst)
        self.incls = []

    def batch_marginal_weights(self, incl):
        self.incls.append(incl.copy())
        return super().batch_marginal_weights(incl)


def test_gradient_evaluates_each_distinct_prefix_once():
    """Each continuous-greedy step makes one batch_gain call per distinct
    click model, on that model's distinct prefix rows over all its levels
    with patience mass, padded to a multiple of 8 rows."""
    rng = np.random.default_rng(13)
    n, steps = 6, 5
    a, b = random_explicit_model(n, rng), random_explicit_model(n, rng)
    lam = (0.2, 0.2, 0.0, 0.2, 0.15, 0.1)
    ca, cb = CountingModel(a), CountingModel(b)
    inst = Instance(n, lam, (ca, cb, ca, cb, ca, ca), tuple((0.0,) * n for _ in range(n)))
    obj = RecordingObjective(inst)
    continuous_greedy(obj, n, steps=steps, samples_per_step=50, seed=3)
    assert len(obj.incls) == len(ca.gain_calls) == len(cb.gain_calls) == steps
    for model, levels in ((ca, (0, 4, 5)), (cb, (1, 3))):
        for incl, rows in zip(obj.incls, model.gain_calls):
            cum = np.logical_or.accumulate(incl, axis=1)
            want = {tuple(row) for i in levels for row in cum[:, i, :]}
            k = len(want)
            assert len(rows) == k + (-k % 8)
            assert {tuple(row) for row in rows[:k]} == want


def per_level_value(obj, incl):
    """batch_value as first written: one batch_value call per level on all
    B prefix rows, summed level by level."""
    cum = np.logical_or.accumulate(incl, axis=1)
    total = np.zeros(incl.shape[0])
    for i in range(obj.n):
        if obj.inst.lam[i] > 0.0:
            total += obj.inst.lam[i] * obj.inst.models[i].batch_value(cum[:, i, :])
    return total


@pytest.mark.parametrize("kind", ["mnl", "coverage", "explicit"])
def test_batch_value_matches_per_level_reference(kind):
    """Deduplicated prefix rows give the same floats as one call per level
    on every row, whenever B is a multiple of 4 (see the two-sided test)."""
    rng = np.random.default_rng(89)
    for n in range(1, 13):
        inst = random_instance(kind, n, rng, full_mass=False)
        lam = list(inst.lam)
        lam[n // 2] = 0.0
        obj = LiftedObjective(replace(inst, lam=tuple(lam)))
        for B in (200, 64, 7):
            incl = rng.random((B, n, n)) < rng.random((B, 1, 1))
            got, want = obj.batch_value(incl), per_level_value(obj, incl)
            if B % 4 == 0:
                assert np.array_equal(got, want), (n, B)
            else:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("kind", ["mnl", "coverage"])
def test_batch_marginal_weights_past_one_key_word(kind):
    """At n = 70 a prefix row spans two 63-bit key words. Sample 1 copies
    sample 0 but for product 66 at level 3, so their prefix rows differ only
    past bit 63, and a key that lost those bits would merge them."""
    rng = np.random.default_rng(71)
    n, B = 70, 8
    obj = LiftedObjective(random_instance(kind, n, rng, full_mass=False))
    incl = rng.random((B, n, n)) < rng.random((B, 1, 1)) / n
    incl[:2, :, 63:] = False
    incl[1, 3, 66] = True
    got = obj.batch_marginal_weights(incl)
    assert np.array_equal(got, two_sided_marginal_weights(obj, incl))
    assert not np.array_equal(got[0], got[1])
    res = rank_cg(obj.inst, steps=2, samples=8, seed=0)
    assert sorted(res.order) == list(range(n))


def independent_prefix_products(R, n):
    """Second implementation of the cumulative first-appearance sets."""
    out = []
    for i in range(n):
        seen = set()
        for p, j in R:
            if p <= i:
                seen.add(j)
        out.append(frozenset(seen))
    return out


def test_lifted_prefixes_match_independent_builder():
    rng = np.random.default_rng(9)
    inst = random_instance("mnl", 4, rng)
    obj = LiftedObjective(inst)
    for trial in range(50):
        members = rng.random((4, 4)) < 0.3
        R = frozenset((int(i), int(j)) for i, j in np.argwhere(members))
        prefixes = independent_prefix_products(R, 4)
        total = sum(
            inst.lam[i] * inst.models[i].value(mask_of(prefixes[i])) for i in range(4)
        )
        assert obj.value(members) == pytest.approx(total, abs=1e-12)


def test_extract_permutation_worked_example():
    # earliest positions: product 2 at 0, product 0 at 1, product 1 absent
    assert extract_permutation(matrix_of({(0, 2), (1, 0)}, 3), 3).tolist() == [2, 0, 1]


def test_extract_permutation_empty_set_is_identity():
    assert extract_permutation(np.zeros((4, 4), dtype=bool), 4).tolist() == [0, 1, 2, 3]


def test_extract_permutation_batch_matches_per_set_sort():
    """Each (n,) order of a (..., n, n) batch sorts the products by their
    earliest position in that set, ties by product index, absent ones last."""
    rng = np.random.default_rng(29)
    n = 5
    R = rng.random((4, 50, n, n)) < rng.random((4, 50, 1, 1)) * 0.5
    orders = extract_permutation(R, n)
    assert orders.shape == (4, 50, n)
    for idx in np.ndindex(4, 50):
        earliest = [min((i for i in range(n) if R[idx][i, j]), default=n) for j in range(n)]
        expected = sorted(range(n), key=lambda j: (earliest[j], j))
        assert orders[idx].tolist() == expected


@settings(max_examples=300, deadline=None)
@given(
    st.frozensets(
        st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=0, max_size=12
    )
)
def test_extract_permutation_is_always_a_permutation(R):
    order = extract_permutation(matrix_of(R, 6), 6)
    assert sorted(order.tolist()) == list(range(6))


def test_extraction_never_loses_lifted_value():
    """Claim-3 property sweep: for independent R, the extracted permutation's
    engagement dominates g(R)."""
    rng = np.random.default_rng(17)
    for trial in range(40):
        n = int(rng.integers(2, 7))
        inst = random_instance("coverage" if trial % 2 else "explicit", n, rng)
        obj = LiftedObjective(inst)
        elements = [(i, j) for i in range(n) for j in range(n)]
        for _ in range(250):
            rng.shuffle(elements)
            R = set()
            budget = int(rng.integers(0, n + 1))
            for e in elements:
                if len(R) >= budget:
                    break
                if is_independent(matrix_of(R | {e}, n) > 0):
                    R.add(e)
            R = matrix_of(R, n) > 0
            order = extract_permutation(R, n)
            assert core.engagement(inst, order) >= obj.value(R) - 1e-9


def test_lifted_objective_is_monotone_submodular_small():
    """Ground set of 9 lifted elements, all 512 subsets checked."""
    rng = np.random.default_rng(21)
    for trial in range(3):
        inst = random_instance("explicit", 3, rng, full_mass=False)
        obj = LiftedObjective(inst)

        def as_mask_function(mask):
            R = matrix_of(((b // 3, b % 3) for b in iter_bits(mask)), 3) > 0
            return obj.value(R)

        check = oracle.verify_monotone_submodular(as_mask_function, 9)
        assert check.ok, check


def test_exhaustive_lift_equality_n4():
    """max over independent sets == max over permutations, witnessed by a
    permutation-shaped set (full enumeration)."""
    rng = np.random.default_rng(25)
    inst = random_instance("coverage", 4, rng)
    obj = LiftedObjective(inst)
    best = max(obj.value(R) for R in iter_independent_sets(4))
    opt = oracle.brute_force_engagement_opt(inst)
    assert best == pytest.approx(opt.best_value, abs=1e-9)


def test_rank_cg_puts_dominant_product_first():
    # one product already achieves the full-set value at every level
    table = {}
    for m in range(16):
        table[m] = 0.8 if m & 0b0100 else 0.1 * min(bin(m).count("1"), 2)
    model = core.ExplicitModel(4, table)
    inst = Instance(4, (0.25,) * 4, (model,) * 4, tuple((0.0,) * 4 for _ in range(4)))
    assert oracle.verify_monotone_submodular(model, 4).ok
    res = rank_cg(inst, steps=25, samples=120, seed=2)
    assert res.order[0] == 2
    opt = oracle.brute_force_engagement_opt(inst).best_value
    assert res.engagement == pytest.approx(opt, abs=1e-9)


def test_rank_cg_chains_extraction_dominance(appendix_c):
    res = rank_cg(appendix_c, steps=30, samples=150, seed=11)
    assert res.engagement >= res.lifted_value - 1e-9
    assert sorted(res.order) == [0, 1, 2, 3]
    assert res.engagement >= ONE_MINUS_INV_E * 0.4775 - 0.02


def test_rank_cg_deterministic_given_seed(appendix_c):
    """A seed fixes the result, and a Generator is drawn from as-is."""
    r1 = rank_cg(appendix_c, steps=10, samples=50, seed=123)
    r2 = rank_cg(appendix_c, steps=10, samples=50, seed=123)
    r3 = rank_cg(appendix_c, steps=10, samples=50, seed=np.random.default_rng(123))
    assert r1 == r2 == r3


BLAS_THREADS_CHILD = """
from seqsub.engagement import rank_cg
from seqsub.generators import random_instance
for kind in ("mnl", "coverage"):
    for n in (16, 20):
        r = rank_cg(random_instance(kind, n, 1, full_mass=True), steps=20, samples=64, seed=2)
        print(repr((kind, n, r.order, r.engagement, r.fractional_estimate, r.fractional_stderr)))
"""


def test_rank_cg_does_not_depend_on_the_blas_thread_count():
    """The click models' kernels run BLAS matrix-vector products, whose row
    sums could depend on how BLAS splits the rows between threads. Two
    processes, one under one OpenBLAS thread and one under four, give the
    same seeded results on mnl and coverage at n = 16 and 20."""
    path = os.pathsep.join([str(Path(core.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    outputs = []
    for threads in ("1", "4"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        run = subprocess.run(
            [sys.executable, "-c", BLAS_THREADS_CHILD],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.append(run.stdout)
    assert outputs[0].count("\n") == 4
    assert outputs[0] == outputs[1]


def test_rank_cg_mean_clears_guarantee_on_worked_instance(appendix_c):
    vals = [
        rank_cg(appendix_c, steps=40, samples=200, seed=s).engagement
        for s in range(50)
    ]
    # mean over 50 seeds must clear (1 - 1/e) x the brute-force optimum
    assert np.mean(vals) >= ONE_MINUS_INV_E * 0.4775
