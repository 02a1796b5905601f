"""Bi-criteria revenue pipeline: explicit LP relaxation, scaling, CRS rounding.

The relaxation keeps one variable per (layer, subset) pair. The marginal
of product j at position i is linear in them,

    m[i][j](x) = sum_{S of size i+1 containing j} x[i][S]
                 - sum_{S of size i containing j} x[i-1][S],

and the LP is

    max  sum r[i][j] * m[i][j](x) + K * sum lam_i * f_i(S) * x[i][S]
    s.t. m[i][j](x) >= 0
         sum_i sum_S lam_i * f_i(S) * x[i][S] >= T
         sum_{|S|=i+1} x[i][S] <= 1  per layer
         x >= 0

so x[i][S]'s objective coefficient is K * lam_i * f_i(S) plus
sum_{j in S} (r[i][j] - r[i+1][j]), with r[n] = 0. Payments are nonnegative
(Instance checks), so a marginal variable bounded by m[i][j](x) would sit at
its bound and is not needed. The optimum upper-bounds the revenue of every
feasible (even randomized) policy meeting the engagement floor. At desk
scale (n <= 12) the subset variables are enumerated explicitly and the LP is
solved exactly, which upper-bounds what the polynomial-time path achieves;
run_bicriteria's factor (`run revenue --factor`) scales the marginals by the
(1 - 1/e) feasibility repair that path needs. Rounding samples each lifted
element (i, j) with its marginal probability (the marginals always lie in
the prefix-matroid polytope), prunes to an independent set by contention
resolution, and sorts products by earliest position, for all trials of a run
as one batch.

build_policy_lp stacks these rows as array blocks built from one (layer,
product, subset) incidence array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import Instance, Permutation, engagement, revenue
from .errors import InfeasibleError, NumericalInstabilityError, SeqsubError, TooLargeError
from .matroid import crs_round, sample_independent_point
from .engagement import extract_permutation
from .numerics import SUM_TOL, TOL, LpProblem, simplex_solve
from .util import mask_of

MAX_LP_N = 12

ROUND_BLOCK = 1024  # trials rounded per batch: 2.4 MB of draws at n = 12

_PAPER_RATIO = 0.25  # the proven end-to-end constant, (1 - 1/e)^3 rounded down


@dataclass
class PolicyLp:
    """Explicit relaxation: one column per subset var; the n x n marginal rows first."""

    inst: Instance
    subset_vars: list[tuple[int, int]]  # (layer 0-based, subset mask)
    problem: LpProblem


@dataclass
class PolicyLpSolution:
    value: float
    marginals: np.ndarray  # read off the marginal rows, clipped and nudged


def build_policy_lp(inst: Instance) -> PolicyLp:
    """Assemble the relaxation from one (layer, product, subset var) incidence.

    inc[k, j, t] = 1 when subset variable t lies in layer k and contains
    product j. Marginal row (i, j) is -m[i][j] = inc[i-1, j] - inc[i, j], and
    the payments reach the objective through the same marginals; then come
    the floor row lam_k * f_k(S) and one row per layer over that layer's
    subset variables.
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
    marg = np.diff(inc, axis=0, prepend=0).reshape(n * n, -1)
    A = np.vstack([-marg, lam * f, in_layer])
    c = inst.K * lam * f + np.ravel(inst.r) @ marg
    b = np.concatenate([np.zeros(n * n), [inst.T], np.ones(n)])
    senses = ("<=",) * (n * n) + (">=",) + ("<=",) * n
    return PolicyLp(inst, subset_vars, LpProblem(c, A, b, senses))


def solve_policy_lp(model: PolicyLp) -> PolicyLpSolution:
    """Solve the relaxation exactly and read the marginals off its rows.

    The marginals are the negated marginal rows times the solution; they
    are clipped at -TOL (anything lower is an error), and the whole marginal
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
    marg = -(model.problem.A[: n * n] @ res.x).reshape(n, n)
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
    return PolicyLpSolution(float(res.value), marg)


def round_to_permutation(inst: Instance, x: np.ndarray, trials: int, seed) -> list[Permutation]:
    """Round the marginals x to `trials` permutations: sample at x, resolve
    contention (checks the polytope), extract.

    The trials run in blocks of at most ROUND_BLOCK. A block of b trials
    draws rng.random((b, 2, n, n)): per trial, the inclusion draw and then
    the contention priorities. The draws are trial-major, so the first k
    trials are the k-trial rounding with the same seed.
    """
    n = inst.n
    rng = np.random.default_rng(seed)
    orders: list[Permutation] = []
    for start in range(0, trials, ROUND_BLOCK):
        u = rng.random((min(ROUND_BLOCK, trials - start), 2, n, n))
        sampled = sample_independent_point(x, u[:, 0])
        kept = crs_round(n, x, sampled, u[:, 1])
        orders += map(tuple, extract_permutation(kept, n).tolist())
    return orders


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


def evaluate_trials(inst: Instance, orders: list[Permutation]) -> list[TrialResult]:
    """Each order's engagement and revenue; each distinct order is evaluated once."""
    values = {o: (engagement(inst, o), revenue(inst, o)) for o in set(orders)}
    return [TrialResult(o, *values[o]) for o in orders]


def summarize(
    trials: list[TrialResult], lp_value: float, factor: float, threshold: float
) -> BiCriteriaReport:
    """Aggregate at least one rounding trial against the LP value and the floor, and audit.

    The audit asserts the proven end-to-end constant: mean revenue at least
    0.25x the LP value and, when T > 0, mean engagement at least 0.25 T
    (both minus 3 standard errors of Monte Carlo noise). Measured ratios are
    reported and typically sit far higher because the LP is exact.
    """
    k = len(trials)
    f_vals = np.array([t.engagement for t in trials])
    g_vals = np.array([t.revenue for t in trials])
    se_f = float(f_vals.std(ddof=1) / math.sqrt(k)) if k > 1 else 0.0
    se_g = float(g_vals.std(ddof=1) / math.sqrt(k)) if k > 1 else 0.0
    mean_f, mean_g = float(f_vals.mean()), float(g_vals.mean())
    T = threshold
    return BiCriteriaReport(
        lp_value=lp_value,
        scaled_value=factor * lp_value,
        factor=factor,
        threshold=T,
        trials=trials,
        mean_engagement=mean_f,
        stderr_engagement=se_f,
        mean_revenue=mean_g,
        stderr_revenue=se_g,
        alpha_ratio=mean_g / lp_value if lp_value > 0 else math.inf,
        beta_ratio=mean_f / T if T > 0 else math.inf,
        worst_alpha=float(g_vals.min()) / lp_value if lp_value > 0 else math.inf,
        worst_beta=float(f_vals.min()) / T if T > 0 else math.inf,
        revenue_ok=mean_g >= _PAPER_RATIO * lp_value - 3.0 * se_g,
        engagement_ok=T == 0 or mean_f >= _PAPER_RATIO * T - 3.0 * se_f,
        best=max(trials, key=lambda t: t.revenue),
    )


def run_bicriteria(
    inst: Instance,
    trials: int = 200,
    *,
    factor: float = 1.0,
    seed,
) -> BiCriteriaReport:
    """Full pipeline: build, solve, scale, round `trials` times, summarize.

    The floor is inst.T (pass inst.with_threshold(T) for another). The
    marginals are multiplied by factor in (0, 1]. Every relaxation
    constraint survives that except the engagement floor, which the scaled
    point meets at factor * T; factor 1 - 1/e emulates the feasibility repair
    of the polynomial-time path. The trials are rounded as one batch whose
    draws are trial-major, so the first k trials of a run are the k-trial
    run with the same seed.
    """
    if trials < 1:
        raise SeqsubError("revenue: need at least one rounding trial")
    if not 0.0 < factor <= 1.0:
        raise SeqsubError(f"revenue: scale factor {factor} outside (0, 1]")
    sol = solve_policy_lp(build_policy_lp(inst))
    marginals = sol.marginals * factor
    orders = round_to_permutation(inst, marginals, trials, seed)
    return summarize(evaluate_trials(inst, orders), sol.value, factor, inst.T)
