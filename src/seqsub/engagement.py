"""Engagement maximizers: suffix-marginal greedy and the lifted pipeline.

The lifted objective g assigns to a set R of (position, product) pairs, a
boolean (n, n) array as everywhere in the matroid module, the engagement of
the "best case" prefix structure it induces: T_i collects every product that
appears in R at position i or earlier, and

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
from .matroid import continuous_greedy, estimate_multilinear, pipage_round
from .numerics import TOL

_DIGITS = bytes.maketrans(b"\0\1", b"01")  # a bool's byte as a binary digit


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One int64 per boolean row (last axis), equal iff the rows are equal.

    Products go into 63-bit words. Past the first word, the key so far and
    the next word are each replaced by their rank among the distinct
    values, so the combined key stays below the square of the row count.
    """
    n = rows.shape[-1]
    rows = rows.reshape(-1, n)
    keys = None
    for start in range(0, n, 63):
        bits = rows[:, start : start + 63]
        word = bits.astype(np.int64) @ (1 << np.arange(bits.shape[-1], dtype=np.int64))
        if keys is None:
            keys = word
        else:
            _, kr = np.unique(keys, return_inverse=True)
            _, wr = np.unique(word, return_inverse=True)
            keys = kr * (wr.max() + 1) + wr
    return keys


def _running_sum(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i] = a[0] + ... + a[i] along the outer (level) axis; a bool out
    makes it a running OR. np.cumsum walks an outer axis with a stride per
    element; adding whole levels is several times faster, same floats."""
    out[0] = a[0]
    for i in range(1, len(a)):
        np.add(out[i - 1], a[i], out=out[i])
    return out


class LiftedObjective:
    """g over (position, product) pairs: per-set `value`, plus the batched
    kernels that the matroid layer's Monte Carlo routines call."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self.n = inst.n
        self._active = [i for i in range(inst.n) if inst.lam[i] > 0.0]
        by_model: dict[int, list[int]] = {}
        for i in self._active:
            by_model.setdefault(id(inst.models[i]), []).append(i)
        self._groups = [(inst.models[ls[0]], np.array(ls)) for ls in by_model.values()]

    def value(self, R: np.ndarray) -> float:
        """g of one lifted set, from the product mask of each of its rows."""
        n = self.n
        # R's bytes, last first, read as binary digits: bit i * n + j is R[i, j]
        bits = int(np.asarray(R, dtype=bool).tobytes()[::-1].translate(_DIGITS), 2)
        row = (1 << n) - 1
        return _prefix_value(self.inst, [(bits >> n * i) & row for i in range(n)])

    def _level_terms(self, cum: np.ndarray, kernel: str, out: np.ndarray) -> np.ndarray:
        """out[i] = lam_i * f_i.kernel(cum[i]) at each active level i.

        cum is level-major, (n, B, n). Each distinct click model's kernel
        runs once, on the distinct prefix rows of all its levels, and the
        result is scattered back per (level, sample). The distinct rows are
        padded with empty rows to a multiple of 8: BLAS computes a
        matrix-vector product four rows at a time, sums the tail rows in
        another order, and with two threads splits the rows in half. With
        the padding no row is a tail row, so a row's floats do not depend on
        how many rows are distinct.
        """
        n, B = cum.shape[:2]
        keys = _row_keys(cum).reshape(n, B)
        for f, levels in self._groups:
            _, first, inv = np.unique(keys[levels].ravel(), return_index=True, return_inverse=True)
            rows = cum[levels[first // B], first % B]
            rows = np.concatenate([rows, np.zeros((-len(rows) % 8, n), dtype=bool)])
            vals = np.take(getattr(f, kernel)(rows), inv.reshape(len(levels), B), axis=0)
            for i, level_vals in zip(levels, vals):
                np.multiply(self.inst.lam[i], level_vals, out=out[i])
        return out

    def batch_value(self, incl: np.ndarray) -> np.ndarray:
        B, n = incl.shape[0], self.n
        cum = _running_sum(incl.transpose(1, 0, 2), np.empty((n, B, n), dtype=bool))
        terms = self._level_terms(cum, "batch_value", np.zeros((n, B)))
        total = np.zeros(B)
        for i in self._active:
            total += terms[i]
        return total

    def batch_marginal_weights(self, incl: np.ndarray) -> np.ndarray:
        """Element-excluded marginals g(R\\e + e) - g(R\\e), per sample: (B, n, n).

        This is the exact multilinear gradient (sampling R with e's own
        coordinate ignored), not the damped form g(R+e) - g(R) whose
        expectation carries a spurious (1 - y_e) factor. For element
        e = (p, j) the sets R\\e + e and R\\e differ exactly on the levels
        from p up to the next occurrence of product j in R (excluding p
        itself), where they are T_i + j versus T_i - j, so

            W[p, j] = sum over those levels of lam_i (f_i(T_i+j) - f_i(T_i-j)).

        The work runs level-major, on (level, sample, product) arrays.
        """
        B, n = incl.shape[0], self.n
        # occurrences of each product at levels <= i
        cnt = _running_sum(incl.transpose(1, 0, 2), np.empty((n, B, n), dtype=np.int16))
        cum = cnt >= 1
        lam_gain = self._level_terms(cum, "batch_gain", np.zeros((n, B, n)))
        # prefix sums over levels, padded so C[p] = sum of levels < p
        C = np.zeros((n + 1, B, n))
        _running_sum(lam_gain, C[1:])
        # first and second occurrence row of each product, n = never: the
        # levels before an occurrence are those whose running count is short
        m1 = n - cum.sum(axis=0)
        m2 = n - (cnt >= 2).sum(axis=0)
        p_grid = np.arange(n)[:, None, None]
        # W[p] = C[end] - C[p], with end = m1 before the first occurrence,
        # m2 at it, and p after it (an empty level range contributes 0)
        ends = np.where(p_grid < m1, np.take_along_axis(C, m1[None], axis=0), C[:n])
        ends = np.where(p_grid == m1, np.take_along_axis(C, m2[None], axis=0), ends)
        W = np.empty((B, n, n))
        np.subtract(ends, C[:n], out=W.transpose(1, 0, 2))
        return W


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
    groups = LiftedObjective(inst)._groups
    prefix = np.zeros((1, n), dtype=bool)
    order: list[int] = []
    for pos in range(n):
        gain = np.zeros(n)
        for f, levels in groups:
            w = sum(inst.lam[i] for i in levels if i >= pos)
            if w > 0.0:
                gain += w * f.batch_gain(prefix)[0]
        gain[prefix[0]] = -np.inf
        best = int(np.flatnonzero(gain >= gain.max() - TOL)[0])
        order.append(best)
        prefix[0, best] = True
    return tuple(order)


def extract_permutation(R, n: int) -> np.ndarray:
    """Order products by their earliest position in R (ties by product index).

    R is a boolean (..., n, n) array of lifted sets, and the result holds one
    (n,) order per set. Products absent from a set rank last. When R is
    independent, the capacity constraints force each product to land at or
    above its earliest position, so engagement(result) >= g(R).
    """
    R = np.asarray(R, dtype=bool)
    earliest = np.where(R.any(axis=-2), R.argmax(axis=-2), n)
    return np.argsort(earliest, axis=-1, kind="stable")


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
    order = tuple(extract_permutation(rounded, inst.n).tolist())
    g_val = obj.value(rounded)
    f_val = engagement(inst, order)
    if f_val < g_val - TOL:  # pragma: no cover - structural guarantee
        raise SeqsubError("engagement: extraction lost lifted value")
    return RankResult(order, f_val, g_val, est.mean, est.stderr, int(rounded.sum()))
