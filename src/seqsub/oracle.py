"""Brute-force ground truth for small instances.

Everything here is exhaustive and exact: optimal permutations by full
enumeration, monotonicity/submodularity verification over all subsets, exact
multilinear extensions, and exact correlation-gap ratios. Size cutoffs are
hard errors, never silent truncation. These are the independent auditors the
rest of the library is tested against, so nothing in this module may call
the approximation pipelines.

Generic set functions are callables over frozensets; click models are
queried through their bitmask interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .core import Instance
from .errors import InfeasibleError, TooLargeError, ValidationError
from .matroid import LaminarMatroid, LiftedSet, iter_bases, iter_independent_sets

_TOL = 1e-9

MAX_BRUTE_N = 10
MAX_VERIFY_N = 12
MAX_MULTILINEAR_SUPPORT = 20


@dataclass
class OracleReport:
    """Result of an exhaustive search; the witness re-evaluates to best_value."""

    best_value: float
    best_witness: object
    enumerated_count: int


def _best_order(inst: Instance, pay, K: float, floor: float | None) -> OracleReport:
    """Maximize sum_i pay[i][order[i]] + K * engagement over all n! permutations
    whose engagement reaches floor (every permutation when floor is None).

    Prefix sums are accumulated along a depth-first walk in lexicographic
    order, so ties resolve to the lexicographically smallest permutation. The
    witness is None when no permutation qualifies. A prefix mask fixes its
    level, so each level term lam[k] * f_k(mask), k = |mask| - 1, is tabulated
    once per mask before the walk; zero-lam levels are never queried.
    """
    if inst.n > MAX_BRUTE_N:
        raise TooLargeError(f"oracle: n={inst.n} exceeds brute-force cap {MAX_BRUTE_N}")
    n, lam, models = inst.n, inst.lam, inst.models
    best, best_order = -math.inf, None
    count = 0
    order = [0] * n
    used = [False] * n
    terms = [0.0] * (1 << n)
    for m in range(1, 1 << n):
        k = m.bit_count() - 1
        if lam[k]:
            terms[m] = lam[k] * models[k].value(m)

    def rec(depth: int, mask: int, eng: float, lin: float) -> None:
        nonlocal best, best_order, count
        if depth == n:
            count += 1
            if floor is None or eng >= floor - _TOL:
                val = lin + K * eng
                if val > best:
                    best, best_order = val, tuple(order)
            return
        for p in range(n):
            if used[p]:
                continue
            used[p] = True
            order[depth] = p
            m2 = mask | (1 << p)
            rec(depth + 1, m2, eng + terms[m2], lin + pay[depth][p])
            used[p] = False

    rec(0, 0, 0.0, 0.0)
    return OracleReport(best, best_order, count)


def brute_force_engagement_opt(inst: Instance) -> OracleReport:
    """Maximize engagement over all n! permutations (ties: lexicographically first)."""
    return _best_order(inst, ((0.0,) * inst.n,) * inst.n, 1.0, None)


def brute_force_revenue_opt(inst: Instance) -> OracleReport:
    """Maximize revenue over permutations with engagement >= T.

    Exact for deterministic policies only: randomized mixtures can strictly
    beat this value when T > 0, because the floor then binds per-permutation
    rather than in expectation.
    """
    rep = _best_order(inst, inst.r, inst.K, inst.T)
    if rep.best_witness is None:
        raise InfeasibleError(f"oracle: no permutation reaches engagement floor {inst.T}")
    return rep


@dataclass
class SubmodularityCheck:
    ok: bool
    kind: str | None = None  # "monotone" | "submodular"
    mask: int | None = None
    x: int | None = None
    y: int | None = None


def verify_monotone_submodular(fn, n: int) -> SubmodularityCheck:
    """Exhaustively check monotonicity and submodularity over all 2^n subsets.

    `fn` is a click model or a callable taking a bitmask. Submodularity uses
    the standard pairwise characterization, equivalent to the full marginal
    one: f(S+x) + f(S+y) >= f(S+x+y) + f(S) for all S and x < y outside S.
    Monotonicity violations are reported first, each scan in ascending mask
    order.
    """
    if n > MAX_VERIFY_N:
        raise TooLargeError(f"oracle: n={n} exceeds verification cap {MAX_VERIFY_N}")
    value = fn.value if hasattr(fn, "value") else fn
    vals = [value(m) for m in range(1 << n)]
    for m in range(1 << n):
        for j in range(n):
            if not m & (1 << j) and vals[m | (1 << j)] < vals[m] - _TOL:
                return SubmodularityCheck(False, "monotone", m, j)
    for m in range(1 << n):
        out = [j for j in range(n) if not m & (1 << j)]
        for a in range(len(out)):
            x = out[a]
            for y in out[a + 1 :]:
                lhs = vals[m | (1 << x)] + vals[m | (1 << y)]
                rhs = vals[m | (1 << x) | (1 << y)] + vals[m]
                if lhs < rhs - _TOL:
                    return SubmodularityCheck(False, "submodular", m, x, y)
    return SubmodularityCheck(True)


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
    g: Callable[[LiftedSet], float],
    matroid: LaminarMatroid,
    bases_only: bool = True,
) -> OracleReport:
    """Exhaustive max of g over the matroid's independence family.

    With bases_only=True only bases are enumerated, which is exact whenever
    g is monotone (every independent set extends to a base without losing
    value) and far cheaper. Ties resolve to the first set in the DFS order.
    """
    sets = iter_bases(matroid) if bases_only else iter_independent_sets(matroid)
    best, witness, count = -math.inf, None, 0
    for R in sets:
        count += 1
        v = g(R)
        if v > best:
            best, witness = v, R
    return OracleReport(best, witness, count)
