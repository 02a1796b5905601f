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
(independently across positions, possibly duplicating products), then
repairs: every product keeps only its first occurrence, and unplaced
products fill the vacated slots in index order. Repair never loses a click,
because a click only depends on some interesting product appearing at or
above position k, and first occurrences only move products up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import CoverageModel, Instance, Permutation, validate_permutation
from .errors import TooLargeError, ValidationError
from .numerics import SUM_TOL, LpProblem, simplex_solve
from .util import json_field, read_json, split_seeds

MAX_LP3_N = 50


@dataclass(frozen=True)
class CoverageInstance:
    """n products; type k (0-based) has patience k+1 and interest set P_k."""

    n: int
    interest_sets: tuple[frozenset, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"coverage: n must be at least 1, got {self.n}")
        if len(self.interest_sets) != self.n:
            raise ValidationError("coverage: one interest set per user type required")
        sets = tuple(frozenset(int(j) for j in s) for s in self.interest_sets)
        for s in sets:
            if any(not 0 <= j < self.n for j in s):
                raise ValidationError("coverage: interest set references unknown product")
        object.__setattr__(self, "interest_sets", sets)


def _hits(ci: CoverageInstance, order: Sequence[int]) -> np.ndarray:
    """hits[k] = 1 iff type k's interest set meets the first k+1 entries of order."""
    hits = np.zeros(ci.n, dtype=np.int64)
    seen: set[int] = set()
    for k in range(ci.n):
        seen.add(int(order[k]))
        if ci.interest_sets[k] & seen:
            hits[k] = 1
    return hits


def clicks(ci: CoverageInstance, order: Sequence[int]) -> int:
    """Number of user types whose interest set meets their inspected prefix."""
    return int(_hits(ci, validate_permutation(order, ci.n)).sum())


def as_instance(ci: CoverageInstance) -> Instance:
    """Adapter to the general model: lam uniform, f_k the type-k click indicator."""
    models = []
    for s in ci.interest_sets:
        covers = tuple((0,) if j in s else () for j in range(ci.n))
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
    interest = np.array([[j in s for j in range(n)] for s in ci.interest_sets], dtype=float)
    prefix = np.tri(n)  # prefix[k, i] = 1 iff position i <= k
    eye, ones, zeros = np.eye(n), np.ones(n), np.zeros((n, n))
    A = np.block([
        [(prefix[:, :, None] * interest[:, None, :]).reshape(n, n * n), np.diag(-ones)],
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


@dataclass
class RoundedAssignment:
    order: Permutation
    y_tilde: np.ndarray  # clicks realized by the repaired assignment
    y_hat: np.ndarray  # clicks realized by the raw (possibly duplicated) draw
    clicks: int


def round_assignment(
    ci: CoverageInstance, sol: AssignmentLpSolution, seed=None
) -> RoundedAssignment:
    """One dependent-rounding draw plus duplicate repair."""
    n = ci.n
    rng = np.random.default_rng(seed)
    chosen = np.empty(n, dtype=np.int64)
    for i in range(n):
        row = np.maximum(sol.x[i], 0.0)
        total = row.sum()
        if abs(total - 1.0) > SUM_TOL:
            raise ValidationError(f"coverage: row {i} of x sums to {total}, not 1")
        cum = np.cumsum(row / total)
        chosen[i] = int(np.searchsorted(cum, rng.random(), side="right").clip(0, n - 1))

    y_hat = _hits(ci, chosen)

    first: dict[int, int] = {}
    for i in range(n):
        j = int(chosen[i])
        if j not in first:
            first[j] = i
    assign = [-1] * n
    for j, i in first.items():
        assign[i] = j
    vacated = [i for i in range(n) if assign[i] < 0]
    unused = [j for j in range(n) if j not in first]
    for slot, j in zip(vacated, unused):
        assign[slot] = j
    order = tuple(assign)

    y_tilde = _hits(ci, order)
    return RoundedAssignment(order, y_tilde, y_hat, int(y_tilde.sum()))


@dataclass
class BestOfResult:
    order: Permutation
    clicks: int
    lp_value: float


def coverage_best_of(ci: CoverageInstance, trials: int, seed=None) -> BestOfResult:
    """Round `trials` times, keep the permutation with the most realized clicks."""
    if trials < 1:
        raise ValidationError("coverage: need at least one trial")
    sol = solve_assignment_lp(ci)
    best_order, best_clicks = None, -1
    for child in split_seeds(seed, trials):
        rounded = round_assignment(ci, sol, child)
        if rounded.clicks > best_clicks:
            best_order, best_clicks = rounded.order, rounded.clicks
    return BestOfResult(best_order, best_clicks, sol.value)


def coverage_to_json(ci: CoverageInstance) -> dict:
    return {
        "n": ci.n,
        "interest_sets": [sorted(j + 1 for j in s) for s in ci.interest_sets],
    }


def coverage_from_json(data) -> CoverageInstance:
    n = json_field(data, "n", int, "coverage")
    sets = json_field(
        data,
        "interest_sets",
        lambda raw: tuple(frozenset(int(j) - 1 for j in s) for s in raw),
        "coverage",
    )
    return CoverageInstance(n, sets)


def save_coverage(ci: CoverageInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(coverage_to_json(ci), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_coverage(path) -> CoverageInstance:
    return coverage_from_json(read_json(path))
