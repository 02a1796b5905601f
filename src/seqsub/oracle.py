"""Exact optima for small instances.

Optimal permutations, for engagement and for revenue under the floor, by a
dynamic program over the 2^n prefix sets. The size cutoff is a hard error,
never silent truncation. These optima are the independent auditors the rest
of the library is tested against, so nothing in this module may call the
approximation pipelines or the batch kernels; click models are queried one
mask at a time through `value()`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Instance
from .errors import InfeasibleError, TooLargeError

_TOL = 1e-9

MAX_BRUTE_N = 14


@dataclass
class OracleReport:
    """Result of an exact search; the witness re-evaluates to best_value.

    enumerated_count is the number of candidates the search kept: for the
    permutation optima, the prefix-set labels built (2^n for engagement).
    """

    best_value: float
    best_witness: object
    enumerated_count: int


def _best_order(inst: Instance, pay, K: float, floor: float | None) -> OracleReport:
    """Maximize sum_i pay[i][order[i]] + K * engagement over all permutations
    whose engagement reaches floor (every permutation when floor is None).

    Both sums depend on an order only through its chain of prefix sets, so
    this is a dynamic program over the 2^n prefix masks (Held and Karp, 1962).
    labels[m] is the Pareto front of (eng, lin, order) over the orders of
    mask m; of two labels with equal sums the lexicographically smaller order
    stays. Sums are accumulated in position order, as `core.engagement` and
    `core.revenue` do, so the optimum keeps their float bits, and exact ties
    at the full mask go to the smaller order. The witness is None when no
    permutation qualifies. Fronts are kept for one level (mask size) at a
    time. Each level term lam[k] * f_k(m), k = |m| - 1, is tabulated once per
    mask; zero-lam levels are never queried.
    """
    if inst.n > MAX_BRUTE_N:
        raise TooLargeError(f"oracle: n={inst.n} exceeds brute-force cap {MAX_BRUTE_N}")
    n, lam, models = inst.n, inst.lam, inst.models
    labels, count = {0: [(0.0, 0.0, ())]}, 1
    for k in range(n):
        prev, labels = labels, {}
        for m in (m for m in range(1 << n) if m.bit_count() == k + 1):
            term = lam[k] * models[k].value(m) if lam[k] else 0.0
            cands = [
                (eng + term, lin + pay[k][j], order + (j,))
                for j in range(n)
                if m >> j & 1
                for eng, lin, order in prev[m ^ (1 << j)]
            ]
            cands.sort(key=lambda c: (-c[0], -c[1], c[2]))
            front, top = [], -math.inf
            for c in cands:
                if c[1] > top:
                    front.append(c)
                    top = c[1]
            labels[m] = front
            count += len(front)
    best, best_order = -math.inf, None
    for eng, lin, order in labels[(1 << n) - 1]:
        if floor is None or eng >= floor - _TOL:
            val = lin + K * eng
            if val > best or (val == best and order < best_order):
                best, best_order = val, order
    return OracleReport(best, best_order, count)


def brute_force_engagement_opt(inst: Instance) -> OracleReport:
    """Maximize engagement over all permutations (ties: lexicographically first)."""
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
