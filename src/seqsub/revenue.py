"""Bi-criteria revenue pipeline: explicit LP relaxation, scaling, CRS rounding.

The relaxation keeps one variable per (layer, subset) pair and one per
(position, product) marginal:

    max  sum r[i][j] * m[i][j] + K * sum lam_i * f_i(S) * x[i][S]
    s.t. m[i][j] <= sum_{S of size i+1 containing j} x[i][S]
                    - sum_{S of size i containing j} x[i-1][S]
         sum_i sum_S lam_i * f_i(S) * x[i][S] >= T
         sum_{|S|=i+1} x[i][S] <= 1  per layer
         all variables >= 0

Its optimum upper-bounds the revenue of every feasible (even randomized)
policy meeting the engagement floor. At desk scale (n <= 12) the subset
variables are enumerated explicitly and the LP is solved exactly, which
upper-bounds what the polynomial-time path achieves; scale_solution keeps
the multiply-by-(1 - 1/e) feasibility repair exercisable for tests that
emulate that path. Rounding samples each lifted element (i, j) with its
marginal probability (the marginals always lie in the prefix-matroid
polytope), prunes to an independent set by contention resolution, and sorts
products by earliest position.

build_policy_lp stacks these rows as array blocks built from one (layer,
product, subset) incidence array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .core import Instance, Permutation, engagement, revenue
from .errors import (
    InfeasibleError,
    NumericalInstabilityError,
    PolytopeError,
    SeqsubError,
    TooLargeError,
)
from .matroid import LaminarMatroid, crs_round, in_matroid_polytope, sample_independent_point
from .engagement import extract_permutation
from .numerics import SUM_TOL, TOL, LpProblem, simplex_solve
from .policy import PolicyVector, marginals
from .util import mask_of, split_seeds

MAX_LP_N = 12

_PAPER_RATIO = 0.25  # the proven end-to-end constant, (1 - 1/e)^3 rounded down


@dataclass
class PolicyLp:
    """Explicit relaxation: all subset vars, then the n x n marginals row by row."""

    inst: Instance
    subset_vars: list[tuple[int, int]]  # (layer 0-based, subset mask)
    problem: LpProblem


@dataclass
class PolicyLpSolution:
    value: float
    subset: dict[tuple[int, int], float]  # (layer, mask) -> mass
    marginals: np.ndarray  # re-tightened to their constraint bounds


def build_policy_lp(inst: Instance) -> PolicyLp:
    """Assemble the relaxation from one (layer, product, subset var) incidence.

    inc[k, j, t] = 1 when subset variable t lies in layer k and contains
    product j. Marginal row (i, j) is inc[i-1, j] - inc[i, j] followed by the
    identity on the marginal columns; then come the floor row lam_k * f_k(S)
    and one row per layer over that layer's subset variables.
    """
    n = inst.n
    if n > MAX_LP_N:
        raise TooLargeError(f"revenue: relaxation capped at n = {MAX_LP_N}")
    subset_vars = [
        (k, mask_of(c))
        for k in range(n)
        for c in combinations(range(n), k + 1)
    ]
    layer, mask = np.array(subset_vars).T
    in_layer = layer == np.arange(n)[:, None]
    inc = in_layer[:, None, :] * ((mask >> np.arange(n)[:, None]) & 1)
    lam = np.array(inst.lam)[layer]
    f = np.array([inst.models[k].value(m) for k, m in subset_vars])
    A = np.block([
        [-np.diff(inc, axis=0, prepend=0).reshape(n * n, -1), np.eye(n * n)],
        [lam * f, np.zeros(n * n)],
        [in_layer, np.zeros((n, n * n))],
    ])
    c = np.concatenate([inst.K * lam * f, np.ravel(inst.r)])
    b = np.concatenate([np.zeros(n * n), [inst.T], np.ones(n)])
    senses = ("<=",) * (n * n) + (">=",) + ("<=",) * n
    return PolicyLp(inst, subset_vars, LpProblem(c, A, b, senses))


def solve_policy_lp(model: PolicyLp) -> PolicyLpSolution:
    """Solve the relaxation exactly and re-tighten the marginal variables.

    The objective rewards marginals, so the simplex already pushes them to
    their bounds; they are recomputed from the subset masses defensively,
    clipped at -TOL (anything lower is an error), and the whole marginal
    matrix is nudged by one multiplicative factor if simplex noise pushed a
    prefix sum past its capacity.
    """
    inst = model.inst
    n = inst.n
    res = simplex_solve(model.problem)
    if res.status == "infeasible":
        raise InfeasibleError(
            f"revenue: engagement floor {inst.T} unattainable by the relaxation"
        )
    if res.status != "optimal":  # pragma: no cover - bounded by construction
        raise SeqsubError(f"revenue: unexpected LP status {res.status}")
    subset = {
        v: float(res.x[t]) for t, v in enumerate(model.subset_vars) if res.x[t] > 0.0
    }
    layers = tuple({} for _ in range(n))
    for (k, mask), p in subset.items():
        layers[k][mask] = p
    marg = marginals(PolicyVector(n, layers))
    if (marg < -TOL).any():
        i, j = np.argwhere(marg < -TOL)[0]
        raise NumericalInstabilityError(
            f"revenue: marginal bound {marg[i, j]} at position {i}, product {j}"
        )
    marg = np.clip(marg, 0.0, 1.0)
    prefix = np.cumsum(marg.sum(axis=1))
    caps = np.arange(1, n + 1)
    worst = float((caps / np.maximum(prefix, caps)).min())
    if worst < 1.0 - SUM_TOL:
        raise NumericalInstabilityError("revenue: marginals far outside the polytope")
    marg *= worst
    return PolicyLpSolution(float(res.value), subset, marg)


def scale_solution(sol: PolicyLpSolution, factor: float) -> PolicyLpSolution:
    """Multiply every variable by factor in (0, 1].

    All relaxation constraints survive except the engagement floor, which
    the scaled point meets at factor * T. Factor 1 - 1/e emulates the
    feasibility repair of the polynomial-time path; factor 1 is the default
    when the LP is solved exactly.
    """
    if not 0.0 < factor <= 1.0:
        raise SeqsubError(f"revenue: scale factor {factor} outside (0, 1]")
    if factor == 1.0:
        return sol
    return replace(
        sol,
        value=sol.value * factor,
        subset={v: p * factor for v, p in sol.subset.items()},
        marginals=sol.marginals * factor,
    )


def round_to_permutation(inst: Instance, sol: PolicyLpSolution, seed=None) -> Permutation:
    """Sample lifted elements at the LP marginals, resolve contention, extract."""
    M = LaminarMatroid(inst.n)
    if not in_matroid_polytope(M, sol.marginals):
        raise PolytopeError("revenue: LP marginals left the matroid polytope")
    sample_seed, crs_seed = split_seeds(seed, 2)
    sampled = sample_independent_point(sol.marginals, sample_seed)
    kept = crs_round(M, sol.marginals, sampled, crs_seed)
    return extract_permutation(kept, inst.n)


@dataclass
class TrialResult:
    order: Permutation
    engagement: float
    revenue: float


@dataclass
class BiCriteriaReport:
    lp_value: float
    scaled_value: float
    factor: float
    threshold: float
    trials: list[TrialResult]
    mean_engagement: float
    stderr_engagement: float
    mean_revenue: float
    stderr_revenue: float
    alpha_ratio: float  # mean revenue / LP value (inf when LP value is 0)
    beta_ratio: float  # mean engagement / T (inf when T = 0)
    worst_alpha: float
    worst_beta: float
    revenue_ok: bool
    engagement_ok: bool
    best: TrialResult

    def guarantees_ok(self) -> bool:
        return self.revenue_ok and self.engagement_ok


def run_bicriteria(
    inst: Instance,
    seeds: int = 200,
    *,
    factor: float = 1.0,
    threshold: float | None = None,
    root_seed=0,
) -> BiCriteriaReport:
    """Full pipeline: build, solve, scale, round `seeds` times, audit ratios.

    The audit asserts the proven end-to-end constant: mean revenue at least
    0.25x the LP value and, when T > 0, mean engagement at least 0.25 T
    (both minus 3 standard errors of Monte Carlo noise). Measured ratios are
    reported and typically sit far higher because the LP is exact.
    """
    if seeds < 1:
        raise SeqsubError("revenue: need at least one rounding trial")
    if threshold is not None:
        inst = inst.with_threshold(threshold)
    sol = solve_policy_lp(build_policy_lp(inst))
    scaled = scale_solution(sol, factor)
    orders = [round_to_permutation(inst, scaled, s) for s in split_seeds(root_seed, seeds)]
    trials = [TrialResult(o, engagement(inst, o), revenue(inst, o)) for o in orders]
    f_vals = np.array([t.engagement for t in trials])
    g_vals = np.array([t.revenue for t in trials])
    se_f = float(f_vals.std(ddof=1) / math.sqrt(seeds)) if seeds > 1 else 0.0
    se_g = float(g_vals.std(ddof=1) / math.sqrt(seeds)) if seeds > 1 else 0.0
    mean_f, mean_g = float(f_vals.mean()), float(g_vals.mean())
    T = inst.T
    alpha = mean_g / sol.value if sol.value > 0 else math.inf
    beta = mean_f / T if T > 0 else math.inf
    worst_alpha = min((t.revenue / sol.value for t in trials), default=math.inf) \
        if sol.value > 0 else math.inf
    worst_beta = min((t.engagement / T for t in trials), default=math.inf) \
        if T > 0 else math.inf
    revenue_ok = mean_g >= _PAPER_RATIO * sol.value - 3.0 * se_g
    engagement_ok = T == 0 or mean_f >= _PAPER_RATIO * T - 3.0 * se_f
    best = max(trials, key=lambda t: t.revenue)
    return BiCriteriaReport(
        lp_value=sol.value,
        scaled_value=scaled.value,
        factor=factor,
        threshold=T,
        trials=trials,
        mean_engagement=mean_f,
        stderr_engagement=se_f,
        mean_revenue=mean_g,
        stderr_revenue=se_g,
        alpha_ratio=alpha,
        beta_ratio=beta,
        worst_alpha=worst_alpha,
        worst_beta=worst_beta,
        revenue_ok=revenue_ok,
        engagement_ok=engagement_ok,
        best=best,
    )
