"""Engagement maximizers: suffix-marginal greedy and the lifted pipeline.

The lifted objective g assigns to a set R of (position, product) pairs the
engagement of the "best case" prefix structure it induces: T_i collects every
product that appears in R at position i or earlier, and

    g(R) = sum_i lam[i] * f_i(T_i).

g is monotone submodular whenever the f_i are, permutation-shaped sets
{(i, order[i])} satisfy g = engagement(order), and any independent R can be
collapsed back to a permutation without losing value by sorting products on
their earliest position in R. That makes maximizing g over the prefix
matroid of rank n a faithful relaxation of maximizing engagement over
permutations, solved here with continuous greedy plus pipage rounding; every
random draw comes from the one seed rank_cg requires.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Instance, Permutation, _prefix_value, engagement
from .errors import SeqsubError
from .matroid import LiftedSet, continuous_greedy, estimate_multilinear, pipage_round
from .numerics import TOL


class LiftedObjective:
    """g over (position, product) pairs: per-set `value`, plus the batched
    kernels that the matroid layer's Monte Carlo routines call."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self.n = inst.n
        self._active = [i for i in range(inst.n) if inst.lam[i] > 0.0]

    def value(self, R: LiftedSet) -> float:
        levels = [0] * self.n
        for i, j in R:
            levels[i] |= 1 << j
        return _prefix_value(self.inst, levels)

    def batch_value(self, incl: np.ndarray) -> np.ndarray:
        cum = np.logical_or.accumulate(incl, axis=1)
        total = np.zeros(incl.shape[0])
        for i in self._active:
            total += self.inst.lam[i] * self.inst.models[i].batch_value(cum[:, i, :])
        return total

    def batch_marginal_weights(self, incl: np.ndarray) -> np.ndarray:
        """Element-excluded marginals g(R\\e + e) - g(R\\e), per sample.

        This is the exact multilinear gradient (sampling R with e's own
        coordinate ignored), not the damped form g(R+e) - g(R) whose
        expectation carries a spurious (1 - y_e) factor. For element
        e = (p, j) the sets R\\e + e and R\\e differ exactly on the levels
        from p up to the next occurrence of product j in R (excluding p
        itself), where they are T_i + j versus T_i - j, so

            W[p, j] = sum over those levels of lam_i (f_i(T_i+j) - f_i(T_i-j)).
        """
        B, n = incl.shape[0], self.n
        cnt = np.cumsum(incl, axis=1, dtype=np.int16)  # occurrences at levels <= i
        cum = cnt >= 1
        lam_gain = np.zeros((B, n, n))
        for i in self._active:
            lam_gain[:, i, :] = self.inst.lam[i] * self.inst.models[i].batch_gain(cum[:, i, :])
        # prefix sums over levels, padded so C[:, p, :] = sum of levels < p
        C = np.zeros((B, n + 1, n))
        np.cumsum(lam_gain, axis=1, out=C[:, 1:, :])
        # first and second occurrence row of each product, n = never: the
        # levels before an occurrence are those whose running count is short
        m1 = n - cum.sum(axis=1)
        m2 = n - (cnt >= 2).sum(axis=1)
        p_grid = np.arange(n)[None, :, None]
        fo = np.where(p_grid == m1[:, None, :], m2[:, None, :], m1[:, None, :])
        fo = np.maximum(fo, p_grid)  # empty level range contributes 0
        return np.take_along_axis(C, fo, axis=1) - C[:, :n, :]


def greedy_rank(inst: Instance) -> Permutation:
    """Fill positions in order, each time adding the unused product with the
    largest marginal gain to the remaining engagement terms.

    The gains come from the batch_gain kernel that continuous greedy reads:
    one call per distinct click model per position, weighted by the lam
    that model still carries. Gains within TOL of the best tie, since the
    kernel may round an exact tie to a few ulps, and ties break toward the
    smallest product index. Only unused products are considered: with
    monotone click functions a repeat is never strictly better, and the
    output must be a permutation.
    """
    n = inst.n
    prefix = np.zeros((1, n), dtype=bool)
    order: list[int] = []
    for pos in range(n):
        gain = np.zeros(n)
        for f in {id(f): f for f in inst.models[pos:]}.values():
            w = sum(inst.lam[i] for i in range(pos, n) if inst.models[i] is f)
            if w > 0.0:
                gain += w * f.batch_gain(prefix)[0]
        gain[prefix[0]] = -np.inf
        best = int(np.flatnonzero(gain >= gain.max() - TOL)[0])
        order.append(best)
        prefix[0, best] = True
    return tuple(order)


def extract_permutation(R: LiftedSet, n: int) -> Permutation:
    """Sort products by their earliest position in R (ties by product index).

    Products absent from R rank last. When R is independent, the capacity
    constraints force each product to land at or above its earliest position,
    so engagement(result) >= g(R).
    """
    earliest = [n] * n
    for i, j in R:
        if i < earliest[j]:
            earliest[j] = i
    return tuple(sorted(range(n), key=lambda j: (earliest[j], j)))


@dataclass
class RankResult:
    order: Permutation
    engagement: float
    lifted_value: float  # g of the rounded independent set
    fractional_estimate: float  # estimated g-extension value at the fractional point
    fractional_stderr: float
    rounded_size: int


def rank_cg(inst: Instance, steps: int = 40, samples: int = 200, *, seed) -> RankResult:
    """Lift, run continuous greedy, pipage-round, extract a permutation.

    Diagnostics separate Monte Carlo noise from algorithmic loss: the
    fractional estimate tracks the continuous optimum, lifted_value the
    rounded set, and engagement the final permutation (always >= lifted_value).
    """
    obj = LiftedObjective(inst)
    rng = np.random.default_rng(seed)
    y = continuous_greedy(obj, inst.n, steps=steps, samples_per_step=samples, seed=rng)
    est = estimate_multilinear(obj, y, samples=max(samples, 64), seed=rng)
    rounded = pipage_round(inst.n, y, seed=rng)
    order = extract_permutation(rounded, inst.n)
    g_val = obj.value(rounded)
    f_val = engagement(inst, order)
    if f_val < g_val - TOL:  # pragma: no cover - structural guarantee
        raise SeqsubError("engagement: extraction lost lifted value")
    return RankResult(order, f_val, g_val, est.mean, est.stderr, len(rounded))
