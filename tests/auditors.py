"""Exhaustive auditors that only the tests call: exact multilinear
extensions, correlation-gap ratios, enumeration of the prefix matroid's
independent sets and bases, the matroid greedy scans (max-weight base and
contention resolution) one element at a time, a policy vector's marginals,
an LP's optimum from HiGHS, greedy's order from per-set values, and the
coverage rounding's raw draw and click walk one position at a time. Test
modules import them as they import the helpers in conftest. Lifted sets are
boolean (n, n) arrays, as in the package."""

from __future__ import annotations

import math
from itertools import combinations
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np
import pytest

from seqsub.core import Instance, Permutation
from seqsub.errors import TooLargeError, ValidationError
from seqsub.matroid import is_independent
from seqsub.numerics import LpProblem
from seqsub.oracle import MAX_VERIFY_N, OracleReport
from seqsub.policy import PolicyVector
from seqsub.util import iter_bits

MAX_MULTILINEAR_SUPPORT = 20


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


def _sets_for_counts(n: int, counts: tuple[int, ...]) -> Iterator[np.ndarray]:
    """Each lifted set with counts[p] products at position p, in the order
    of itertools.product over each position's combinations, all built as
    one array."""
    pools = [np.array([np.isin(np.arange(n), js) for js in combinations(range(n), s)])
             for s in counts]
    picks = np.indices([len(pool) for pool in pools]).reshape(n, -1)
    yield from np.stack([pool[k] for pool, k in zip(pools, picks)], axis=1)


def iter_independent_sets(n: int) -> Iterator[np.ndarray]:
    """All independent sets of the rank-n prefix matroid, grouped by
    per-position pick counts."""
    for counts in _prefix_compositions(n, None):
        yield from _sets_for_counts(n, counts)


def iter_bases(n: int) -> Iterator[np.ndarray]:
    """All bases (independent sets of full rank n)."""
    for counts in _prefix_compositions(n, n):
        yield from _sets_for_counts(n, counts)


def scan_independent(n: int, elems: Iterable[tuple[int, int]]) -> np.ndarray:
    """The matroid greedy scan in its plainest form: elems in order, each
    added and kept iff the set still passes is_independent's prefix counts."""
    R = np.zeros((n, n), dtype=bool)
    for e in elems:
        R[e] = True
        R[e] = is_independent(R)
    return R


def max_weight_base_by_scan(n: int, w) -> np.ndarray:
    """matroid.max_weight_base from a sort of the elements by (-weight,
    element), so ties go to the smaller (position, product) and -0.0 ties
    0.0."""
    return scan_independent(n, sorted(np.ndindex(n, n), key=lambda e: (-w[e], e)))


def crs_by_scan(n: int, x, A: np.ndarray, priority: np.ndarray) -> np.ndarray:
    """matroid.crs_round one set at a time: each set's elements that carry
    positive mass in x, sorted by (priority, element), each kept iff the
    kept set stays independent. No shortcut for sets already independent."""
    x = np.asarray(x, dtype=float)
    kept = np.zeros(np.shape(A), dtype=bool)
    for b in range(len(A)):
        live = [(int(i), int(j)) for i, j in np.argwhere(A[b] & (x > 0.0))]
        kept[b] = scan_independent(n, sorted(live, key=lambda e: (priority[b][e], e)))
    return kept


def exact_multilinear(g: Callable[[frozenset], float], x: Mapping) -> float:
    """Exact expectation of g under independent inclusion probabilities x.

    Elements with x = 0 are excluded, x = 1 forced in; the remaining support
    (at most 20 elements) is enumerated exhaustively.
    """
    forced = []
    support = []
    for e in sorted(x):
        v = float(x[e])
        if not -1e-12 <= v <= 1.0 + 1e-12:
            raise ValidationError(f"oracle: inclusion probability {v} outside [0,1]")
        if v >= 1.0:
            forced.append(e)
        elif v > 0.0:
            support.append(e)
    m = len(support)
    if m > MAX_MULTILINEAR_SUPPORT:
        raise TooLargeError(
            f"oracle: support {m} exceeds exact-multilinear cap {MAX_MULTILINEAR_SUPPORT}"
        )
    probs = [float(x[e]) for e in support]
    total = 0.0
    for mask in range(1 << m):
        p = 1.0
        chosen = list(forced)
        for k in range(m):
            if mask & (1 << k):
                p *= probs[k]
                chosen.append(support[k])
            else:
                p *= 1.0 - probs[k]
        total += p * g(frozenset(chosen))
    return total


def correlation_gap_ratio(
    f: Callable[[frozenset], float],
    dist: Sequence[tuple[Iterable, float]],
) -> float:
    """Exact E[f] under independent marginals divided by E[f] under dist.

    dist is an explicit (subset, probability) list summing to 1. Returns
    +inf when the denominator is 0. For monotone submodular f the ratio is
    at least 1 - 1/e.
    """
    pairs = [(frozenset(s), float(p)) for s, p in dist]
    mass = sum(p for _, p in pairs)
    if any(p < -1e-12 for _, p in pairs) or abs(mass - 1.0) > 1e-9:
        raise ValidationError("oracle: subset distribution must be nonnegative, sum 1")
    ground = frozenset().union(*(s for s, _ in pairs)) if pairs else frozenset()
    if len(ground) > MAX_VERIFY_N:
        raise TooLargeError(f"oracle: ground set {len(ground)} exceeds cap {MAX_VERIFY_N}")
    base = sum(p * f(s) for s, p in pairs)
    marginals = {e: sum(p for s, p in pairs if e in s) for e in sorted(ground)}
    independent = exact_multilinear(f, marginals)
    if base <= 0.0:
        return math.inf
    return independent / base


def max_independent_value(
    g: Callable[[np.ndarray], float],
    n: int,
    bases_only: bool = True,
) -> OracleReport:
    """Exhaustive max of g over the rank-n prefix matroid's independence family.

    With bases_only=True only bases are enumerated, which is exact whenever
    g is monotone (every independent set extends to a base without losing
    value) and far cheaper. Ties resolve to the first set in the DFS order.
    """
    sets = iter_bases(n) if bases_only else iter_independent_sets(n)
    best, witness, count = -math.inf, None, 0
    for R in sets:
        count += 1
        v = g(R)
        if v > best:
            best, witness = v, R
    return OracleReport(best, witness, count)


def marginals(pv: PolicyVector) -> np.ndarray:
    """Position-product marginals x[i][j]; may go negative for vectors that
    no policy implements (callers check)."""
    inside = np.zeros((pv.n, pv.n))  # inside[k][j]: layer-k mass of sets holding j
    for k, layer in enumerate(pv.layers):
        for mask, p in layer.items():
            for j in iter_bits(mask):
                inside[k, j] += p
    x = inside.copy()
    x[1:] -= inside[:-1]
    return x


def highs_value(p: LpProblem) -> float:
    """The optimum of p from scipy's HiGHS; skips the calling test without scipy."""
    optimize = pytest.importorskip("scipy.optimize")
    senses = np.array(p.senses)
    sign = np.where(senses == ">=", -1.0, 1.0)
    eq = senses == "="
    ref = optimize.linprog(
        -p.c,
        A_ub=(sign[:, None] * p.A)[~eq],
        b_ub=(sign * p.b)[~eq],
        A_eq=p.A[eq],
        b_eq=p.b[eq],
        method="highs",
    )
    assert ref.status == 0, ref.message
    return -ref.fun


def greedy_by_value(inst: Instance) -> Permutation:
    """engagement.greedy_rank from the click models' value() alone: for each
    position, each unused product's gain sum_{i >= pos} lam[i] (f_i(T + p) -
    f_i(T)) from two value() calls per level, the first strict maximum kept."""
    n = inst.n
    order: list[int] = []
    used = [False] * n
    mask = 0
    for pos in range(n):
        suffix = [i for i in range(pos, n) if inst.lam[i] > 0.0]
        best_gain, best_p = -np.inf, -1
        for p in range(n):
            if used[p]:
                continue
            m2 = mask | (1 << p)
            gain = sum(
                inst.lam[i] * (inst.models[i].value(m2) - inst.models[i].value(mask))
                for i in suffix
            )
            if gain > best_gain:
                best_gain, best_p = gain, p
        order.append(best_p)
        used[best_p] = True
        mask |= 1 << best_p
    return tuple(order)


def seeded_uniforms(seeds: Iterable, n: int) -> np.ndarray:
    """One row of default_rng(seed).random(n) per seed: the (trials, n)
    block that rounds each seed's draw."""
    return np.array([np.random.default_rng(s).random(n) for s in seeds])


def raw_draw(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The coverage rounding's draws before repair: position i of row t takes
    the count of cumulative sums of x's normalised row i that are <= u[t, i],
    capped at n - 1, one position at a time."""
    n = len(x)
    rows = np.maximum(x, 0.0)
    cum = np.cumsum(rows / rows.sum(axis=1)[:, None], axis=1)
    counts = [(cum[i] <= u[:, i, None]).sum(axis=1) for i in range(n)]
    return np.minimum(np.stack(counts, axis=1), n - 1)


def walk_hits(interest_sets: Sequence[int], order: Sequence[int]) -> np.ndarray:
    """hits[k] = 1 iff bitmask interest_sets[k] meets the first k+1 entries
    of order, walked one position at a time with a Python-int seen set."""
    hits = np.zeros(len(order), dtype=np.int64)
    seen = 0
    for k, p in enumerate(order):
        seen |= 1 << int(p)
        hits[k] = bool(interest_sets[k] & seen)
    return hits
