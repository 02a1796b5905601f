"""Laminar matroid over position-product pairs, and generic rounding machinery.

The ground set has n^2 elements (i, j) = "product j occupies position i",
both 0-based. Independence is capacity-constrained on the nested prefix sets
A_k = {(i, j) : i < k} with capacity k for k = 1..n, so a set is independent
iff it never crowds more elements into the top k positions than k. The
matroid has rank n and its polytope (within the unit box) is exactly the
family of prefix-sum constraints.

The Monte Carlo routines take an objective g that evaluates boolean
membership tensors of shape (B, n, n): `g.batch_value(incl)` gives g of each
of the B sets, and `g.batch_marginal_weights(incl)` the per-element marginals
g(R\\e + e) - g(R\\e). Every randomized operation takes an explicit seed and
is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Iterator

import numpy as np

from .errors import PolytopeError, SeqsubError, ValidationError
from .numerics import TOL

LiftedSet = frozenset  # of (position, product) pairs


@dataclass(frozen=True)
class LaminarMatroid:
    """Prefix-capacity matroid: |R restricted to positions < k| <= k."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("matroid: n must be positive")


def is_independent(M: LaminarMatroid, R: Iterable[tuple[int, int]]) -> bool:
    """True iff every prefix-capacity constraint holds."""
    counts = [0] * M.n
    total = 0
    for i, j in R:
        if not (0 <= i < M.n and 0 <= j < M.n):
            raise ValidationError(f"matroid: element {(i, j)} outside ground set")
        counts[i] += 1
        total += 1
    if total > M.n:
        return False
    c = 0
    for k in range(M.n):
        c += counts[k]
        if c > k + 1:
            return False
    return True


def _prefix_compositions(n: int, total: int | None) -> Iterator[tuple[int, ...]]:
    """Per-position pick counts with running sums <= position index + 1."""
    acc: list[int] = []

    def rec(p: int, c: int):
        if p == n:
            if total is None or c == total:
                yield tuple(acc)
            return
        cap = p + 1 - c
        if total is not None:
            cap = min(cap, total - c)
        for s in range(cap + 1):
            acc.append(s)
            yield from rec(p + 1, c + s)
            acc.pop()

    yield from rec(0, 0)


def _sets_for_counts(n: int, counts: tuple[int, ...]) -> Iterator[LiftedSet]:
    pools = [combinations(range(n), s) for s in counts]
    for chosen in product(*pools):
        yield frozenset((p, j) for p, js in enumerate(chosen) for j in js)


def iter_independent_sets(M: LaminarMatroid) -> Iterator[LiftedSet]:
    """All independent sets, grouped by per-position pick counts."""
    for counts in _prefix_compositions(M.n, None):
        yield from _sets_for_counts(M.n, counts)


def iter_bases(M: LaminarMatroid) -> Iterator[LiftedSet]:
    """All bases (independent sets of full rank n)."""
    for counts in _prefix_compositions(M.n, M.n):
        yield from _sets_for_counts(M.n, counts)


def _keep_independent(n: int, elems: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Scan elems in order, keeping each one iff the kept set stays independent.

    Stops at rank n, when every prefix capacity is used up.
    """
    slack = np.arange(1, n + 1, dtype=np.int64)  # k - |R restricted to A_k|
    kept = []
    for i, j in elems:
        if slack[i:].min() >= 1:
            kept.append((i, j))
            slack[i:] -= 1
            if len(kept) == n:
                break
    return kept


def max_weight_base(M: LaminarMatroid, w) -> LiftedSet:
    """Greedy maximum-weight base; ties broken by (position, product).

    Elements are scanned in descending weight; negative-weight elements are
    taken only when needed to complete a base, which the exchange property
    makes optimal among bases.
    """
    n = M.n
    w = np.asarray(w, dtype=float)
    if w.shape != (n, n) or not np.all(np.isfinite(w)):
        raise ValidationError("matroid: weights must be a finite n x n matrix")
    order = sorted(((i, j) for i in range(n) for j in range(n)), key=lambda e: (-w[e], e))
    return frozenset(_keep_independent(n, order))


def in_matroid_polytope(M: LaminarMatroid, x) -> bool:
    """Prefix-sum test: sum over the top k positions <= k + TOL for all k.

    For this laminar matroid the prefix constraints (with entries already in
    [0, 1]) describe the full independent-set polytope.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (M.n, M.n):
        raise ValidationError("matroid: point must be an n x n matrix")
    prefix = np.cumsum(x.sum(axis=1))
    return bool(np.all(prefix <= np.arange(1, M.n + 1) + TOL))


def set_from_matrix(members: np.ndarray) -> LiftedSet:
    idx = np.argwhere(members)
    return frozenset((int(i), int(j)) for i, j in idx)


def _check_unit_box(x: np.ndarray) -> np.ndarray:
    if np.any(x < -TOL) or np.any(x > 1.0 + TOL):
        raise ValidationError("matroid: coordinates must lie in [0, 1]")
    return np.clip(x, 0.0, 1.0)


@dataclass
class MultilinearEstimate:
    mean: float
    stderr: float


def estimate_multilinear(
    g,
    x,
    samples: int,
    seed=None,
) -> MultilinearEstimate:
    """Monte Carlo estimate of E[g(R(x))] under independent inclusion."""
    if samples < 1:
        raise ValidationError("matroid: need at least one sample")
    x = _check_unit_box(np.asarray(x, dtype=float))
    rng = np.random.default_rng(seed)
    incl = rng.random((samples,) + x.shape) < x
    vals = np.asarray(g.batch_value(incl), dtype=float)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return MultilinearEstimate(mean, stderr)


def continuous_greedy(
    g,
    M: LaminarMatroid,
    steps: int = 40,
    samples_per_step: int = 200,
    seed=None,
) -> np.ndarray:
    """Continuous greedy for monotone g: ascend along max-weight bases.

    Each step estimates per-element gradients E[g(R\\e + e) - g(R\\e)] with
    common random draws R across elements (the element's own coordinate is
    ignored, making this the exact multilinear gradient rather than the
    (1 - y_e)-damped marginal), takes the max-weight base under those
    weights, and moves 1/steps toward its indicator. The output always lies
    in the matroid polytope.
    """
    if steps < 1 or samples_per_step < 1:
        raise ValidationError("matroid: steps and samples_per_step must be >= 1")
    n = M.n
    rng = np.random.default_rng(seed)
    y = np.zeros((n, n))
    for _ in range(steps):
        incl = rng.random((samples_per_step, n, n)) < y
        w = np.asarray(g.batch_marginal_weights(incl), dtype=float).mean(axis=0)
        base = max_weight_base(M, w)
        for i, j in base:
            y[i, j] += 1.0 / steps
    np.clip(y, 0.0, 1.0, out=y)
    return y


def sample_independent_point(x, seed=None) -> LiftedSet:
    """Include each element independently with probability x[i, j].

    The draw is statistically independent per coordinate; the result need
    not be matroid-independent.
    """
    x = _check_unit_box(np.asarray(x, dtype=float))
    rng = np.random.default_rng(seed)
    return set_from_matrix(rng.random(x.shape) < x)


def pipage_round(M: LaminarMatroid, x, seed=None) -> LiftedSet:
    """Round a polytope point to an independent integral set.

    Repeatedly takes the two lexicographically smallest fractional
    coordinates; they always admit movement along +/-(e_a - e_b) within the
    polytope (the chain structure leaves at most one fractional coordinate
    below the second one, so no intermediate prefix constraint can be tight).
    The direction is drawn with probabilities that preserve the expected
    point, so E[g(output)] >= E[g(R(x))] for submodular g. A final lone
    fractional coordinate is rounded up with its own probability, which
    capacity integrality keeps feasible. Integral inputs are returned
    unchanged.
    """
    x = np.asarray(x, dtype=float)
    if not in_matroid_polytope(M, _check_unit_box(x)):
        raise PolytopeError("matroid: pipage input outside the matroid polytope")
    x = np.clip(x.copy(), 0.0, 1.0)
    n = M.n
    rng = np.random.default_rng(seed)

    def fractional():
        idx = np.argwhere((x > TOL) & (x < 1.0 - TOL))
        return [(int(i), int(j)) for i, j in idx]

    rounds = 0
    while True:
        frac = fractional()
        if not frac:
            break
        rounds += 1
        if rounds > 2 * n * n + 8:  # pragma: no cover - defensive
            raise SeqsubError("matroid: pipage failed to make progress")
        if len(frac) == 1:
            a = frac[0]
            x[a] = 1.0 if rng.random() < x[a] else 0.0
            continue
        a, b = frac[0], frac[1]
        pa, pb = a[0], b[0]
        d_plus = min(1.0 - x[a], x[b])
        if pa != pb:
            prefix = np.cumsum(x.sum(axis=1))
            for k in range(pa + 1, pb + 1):
                d_plus = min(d_plus, k - prefix[k - 1])
        d_minus = min(x[a], 1.0 - x[b])
        d_plus = max(d_plus, 0.0)
        if d_plus <= 0.0:
            # numerically tight capacity from sub-TOL dust; forced move
            go_plus = False
        else:
            go_plus = rng.random() < d_minus / (d_plus + d_minus)
        if go_plus:
            x[a] += d_plus
            x[b] -= d_plus
        else:
            x[a] -= d_minus
            x[b] += d_minus
        x[x < TOL] = 0.0
        x[x > 1.0 - TOL] = 1.0

    result = set_from_matrix(x > 0.5)
    if not is_independent(M, result):  # pragma: no cover - structural guarantee
        raise SeqsubError("matroid: pipage produced a dependent set")
    return result


def crs_round(M: LaminarMatroid, x, A: Iterable[tuple[int, int]], seed=None) -> LiftedSet:
    """Random-order greedy contention resolution.

    Iterates the elements of A that carry positive mass in x in a uniformly
    random order, keeping an element iff the kept set stays independent.
    The output is always independent and the scheme is monotone (an element
    survives a superset A only if it survives A). Its per-element retention
    constant is measured empirically by the test suite rather than assumed.
    """
    x = _check_unit_box(np.asarray(x, dtype=float))
    if not in_matroid_polytope(M, x):
        raise PolytopeError("matroid: contention resolution needs x in the polytope")
    rng = np.random.default_rng(seed)
    elems = sorted(e for e in A if x[e] > 0.0)
    order = rng.permutation(len(elems))
    result = frozenset(_keep_independent(M.n, (elems[idx] for idx in order)))
    if not is_independent(M, result):  # pragma: no cover - structural guarantee
        raise SeqsubError("matroid: contention resolution produced a dependent set")
    return result
