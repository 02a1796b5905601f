"""Interest-set click model: assignment LP plus dependent rounding with repair.

Users come in n types with uniform weight; a type-k user inspects the top k
positions and clicks iff some product from their interest set P_k shows up
there. The LP relaxes the permutation to a doubly stochastic matrix x and a
clipped click indicator y per type:

    max  sum_k y_k
    s.t. sum_{i <= k} sum_{j in P_k} x[i][j] >= y_k
         row and column sums of x equal 1,  0 <= y <= 1,  x >= 0

solve_assignment_lp builds the constraint matrix with np.block: a prefix x
interest incidence block for the click rows and Kronecker products for the
row- and column-sum rows.

Rounding draws one product per position from that position's row of x
(independently across positions, possibly duplicating products; one order
per row of a (trials, n) block of uniforms), then repairs: every product
keeps only its first occurrence, and unplaced products fill the vacated
slots in index order. Repair never loses a click, because a click only
depends on some interesting product appearing at or above position k, and
first occurrences only move products up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import CoverageModel, Instance, Permutation, validate_permutation
from .errors import TooLargeError, ValidationError
from .numerics import SUM_TOL, LpProblem, simplex_solve
from .revenue import ROUND_BLOCK
from .util import iter_bits, json_field, mask_of, read_json, write_json

MAX_LP3_N = 50


@dataclass(frozen=True)
class CoverageInstance:
    """n products; type k (0-based) has patience k+1 and interest set P_k,
    a bitmask over products."""

    n: int
    interest_sets: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"coverage: n must be at least 1, got {self.n}")
        if len(self.interest_sets) != self.n:
            raise ValidationError("coverage: one interest set per user type required")
        sets = tuple(int(s) for s in self.interest_sets)
        if any(not 0 <= s < 1 << self.n for s in sets):
            raise ValidationError("coverage: interest set references unknown product")
        object.__setattr__(self, "interest_sets", sets)


def _interest(ci: CoverageInstance) -> np.ndarray:
    """(types, products) bool: entry [k, j] iff product j is in P_k, at any n."""
    sets = np.array(ci.interest_sets, dtype=object)
    return (sets[:, None] >> np.arange(ci.n) & 1).astype(bool)


def hits(ci: CoverageInstance, orders: np.ndarray) -> np.ndarray:
    """(trials, n) bool: [t, k] iff type k's interest set meets the first k+1
    entries of orders[t]. A product counts from its first position on, so
    raw draws with duplicates are scored too."""
    seen = np.logical_or.accumulate(orders[:, :, None] == np.arange(ci.n), axis=1)
    return (seen & _interest(ci)).any(axis=2)


def clicks(ci: CoverageInstance, order: Sequence[int]) -> int:
    """Number of user types whose interest set meets their inspected prefix."""
    return int(hits(ci, np.array([validate_permutation(order, ci.n)])).sum())


def as_instance(ci: CoverageInstance) -> Instance:
    """Adapter to the general model: lam uniform, f_k the type-k click indicator."""
    models = []
    for s in ci.interest_sets:
        covers = tuple((0,) if s >> j & 1 else () for j in range(ci.n))
        models.append(CoverageModel(ci.n, (1.0,), covers))
    zeros = tuple((0.0,) * ci.n for _ in range(ci.n))
    return Instance(ci.n, (1.0 / ci.n,) * ci.n, tuple(models), zeros)


@dataclass
class AssignmentLpSolution:
    x: np.ndarray  # (n, n) doubly stochastic, row = position
    y: np.ndarray  # (n,) clipped click indicators
    value: float


def solve_assignment_lp(ci: CoverageInstance) -> AssignmentLpSolution:
    """Solve the relaxation; its value upper-bounds the best click count."""
    n = ci.n
    if n > MAX_LP3_N:
        raise TooLargeError(f"coverage: LP capped at n = {MAX_LP3_N}")
    # variables: x row-major, then y; rows: clicks, row sums, column sums, y <= 1
    prefix = np.tri(n)  # prefix[k, i] = 1 iff position i <= k
    eye, ones, zeros = np.eye(n), np.ones(n), np.zeros((n, n))
    A = np.block([
        [(prefix[:, :, None] * _interest(ci)[:, None, :]).reshape(n, n * n), np.diag(-ones)],
        [np.kron(eye, ones), zeros],
        [np.kron(ones, eye), zeros],
        [np.zeros((n, n * n)), eye],
    ])
    c = np.concatenate([np.zeros(n * n), ones])
    b = np.concatenate([np.zeros(n), np.ones(3 * n)])
    senses = (">=",) * n + ("=",) * (2 * n) + ("<=",) * n
    res = simplex_solve(LpProblem(c, A, b, senses))
    if res.status != "optimal":  # pragma: no cover - always feasible and bounded
        raise ValidationError(f"coverage: unexpected LP status {res.status}")
    x = np.clip(res.x[: n * n].reshape(n, n), 0.0, 1.0)
    y = np.clip(res.x[n * n :], 0.0, 1.0)
    return AssignmentLpSolution(x, y, float(res.value))


def round_assignment(ci: CoverageInstance, sol: AssignmentLpSolution, u: np.ndarray) -> np.ndarray:
    """The (trials, n) repaired orders, one per row of the uniforms u.

    Position i takes the first product whose cumulative row mass exceeds its
    draw u[t, i], i.e. the count of cumulative sums <= the draw. Vacated
    slots (a product's later positions) and unplaced products both run in
    ascending order row by row, so one row-major fill pairs them up.
    """
    n = ci.n
    rows = np.maximum(sol.x, 0.0)
    totals = rows.sum(axis=1)
    bad = np.abs(totals - 1.0) > SUM_TOL
    if bad.any():
        i = int(bad.argmax())
        raise ValidationError(f"coverage: row {i} of x sums to {totals[i]}, not 1")
    cum = np.cumsum(rows / totals[:, None], axis=1)
    orders = np.minimum((cum <= u[:, :, None]).sum(axis=2), n - 1)
    dup = ((orders[:, :, None] == orders[:, None, :]) & np.tri(n, k=-1, dtype=bool)).any(axis=2)
    unplaced = ~(orders[:, :, None] == np.arange(n)).any(axis=1)
    orders[dup] = np.nonzero(unplaced)[1]
    return orders


@dataclass
class BestOfResult:
    order: Permutation
    clicks: int
    lp_value: float


def coverage_best_of(ci: CoverageInstance, trials: int, seed) -> BestOfResult:
    """Round `trials` times from one generator, keep the first order with the
    most clicks. Trial t rounds the t-th rng.random(n), drawn in blocks of at
    most ROUND_BLOCK trials."""
    if trials < 1:
        raise ValidationError("coverage: need at least one trial")
    sol = solve_assignment_lp(ci)
    rng = np.random.default_rng(seed)
    best_order, best_clicks = None, -1
    for start in range(0, trials, ROUND_BLOCK):
        orders = round_assignment(ci, sol, rng.random((min(ROUND_BLOCK, trials - start), ci.n)))
        counts = hits(ci, orders).sum(axis=1)
        t = int(counts.argmax())
        if counts[t] > best_clicks:
            best_order, best_clicks = tuple(orders[t].tolist()), int(counts[t])
    return BestOfResult(best_order, best_clicks, sol.value)


def coverage_to_json(ci: CoverageInstance) -> dict:
    return {
        "n": ci.n,
        "interest_sets": [[j + 1 for j in iter_bits(s)] for s in ci.interest_sets],
    }


def coverage_from_json(data) -> CoverageInstance:
    n = json_field(data, "n", int, "coverage")
    sets = json_field(
        data, "interest_sets", lambda raw: [[int(j) - 1 for j in s] for s in raw], "coverage"
    )
    if any(not 0 <= j < n for s in sets for j in s):
        raise ValidationError("coverage: interest set references unknown product")
    return CoverageInstance(n, tuple(map(mask_of, sets)))


def save_coverage(ci: CoverageInstance, path) -> None:
    write_json(path, coverage_to_json(ci))


def load_coverage(path) -> CoverageInstance:
    return coverage_from_json(read_json(path))
