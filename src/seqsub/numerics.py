"""Self-contained deterministic numerical kernels: dense simplex and max-flow.

The simplex is a two-phase dense-tableau method with Bland's rule, so it
terminates on degenerate problems and produces identical pivot sequences for
identical inputs. The max-flow solver augments along shortest paths
(Edmonds-Karp) over real-valued capacities and returns a min cut as witness;
flow-vs-cut duality and flow conservation are checked on every call.

Both are sized for desk-scale problems (a few thousand variables, dense rows).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .errors import NumericalInstabilityError, SeqsubError, ValidationError

# The one tolerance table of every pipeline module; all absolute. The oracle
# keeps its own, as the independent auditor. SIGN_TOL admits basic values that
# revenue's marginal check (-TOL) then rejects, a known gap.
TOL = 1e-9  # feasibility and equality
PIVOT_TOL = 1e-10  # the smallest pivot the simplex divides by
SIGN_TOL = 1e-7  # phase-1 infeasibility and basic-solution sign checks
SUM_TOL = 1e-6  # row and flow sums after rounding; marginal prefix overshoot
MASS_TOL = 1e-12  # negligible mass: residual capacity, flow, policy prefixes

_MAX_ITERS = 200_000

LESS, GREATER, EQUAL = "<=", ">=", "="
_SENSES = (LESS, GREATER, EQUAL)


@dataclass(frozen=True)
class LpProblem:
    """maximize c.x  subject to  A x (<= / >= / =) b,  x >= 0."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    senses: tuple[str, ...]

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        if A.shape != (len(b), len(c)):
            raise ValidationError(
                f"numerics: LP shape mismatch A{A.shape}, b({len(b)}), c({len(c)})"
            )
        if len(self.senses) != len(b):
            raise ValidationError("numerics: one sense tag required per row")
        for s in self.senses:
            if s not in _SENSES:
                raise ValidationError(f"numerics: unknown row relation {s!r}")
        for arr in (c, A, b):
            if not np.all(np.isfinite(arr)):
                raise ValidationError("numerics: non-finite LP coefficient")


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | unbounded
    value: float | None
    x: np.ndarray | None
    duals: np.ndarray | None  # one price per original row, 0 for redundant rows
    iterations: int


def _pivot(T: np.ndarray, rhs: np.ndarray, basis: list[int], row: int, col: int) -> None:
    piv = T[row, col]
    if abs(piv) < PIVOT_TOL:
        raise NumericalInstabilityError(f"numerics: pivot {piv:.3e} below tolerance")
    T[row] /= piv
    rhs[row] /= piv
    for i in range(T.shape[0]):
        if i != row and abs(T[i, col]) > 0.0:
            f = T[i, col]
            T[i] -= f * T[row]
            rhs[i] -= f * rhs[row]
    basis[row] = col


def _bland_iterate(
    T: np.ndarray,
    rhs: np.ndarray,
    basis: list[int],
    cost: np.ndarray,
    allowed: np.ndarray,
    iters: int,
) -> tuple[str, int]:
    """Run Bland pivots until optimal/unbounded. Returns (status, iterations)."""
    m = T.shape[0]
    while True:
        cbar = cost - cost[basis] @ T
        candidates = np.flatnonzero((cbar > TOL) & allowed)
        if candidates.size == 0:
            return "optimal", iters
        enter = int(candidates[0])  # Bland: lowest improving index
        # ratio test; ties broken by smallest basic-variable index (Bland)
        best_ratio, leave = None, -1
        for i in range(m):
            a = T[i, enter]
            if a > TOL:
                ratio = rhs[i] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio - TOL
                    or (abs(ratio - best_ratio) <= TOL and basis[i] < basis[leave])
                ):
                    best_ratio, leave = ratio, i
        if leave < 0:
            return "unbounded", iters
        _pivot(T, rhs, basis, leave, enter)
        iters += 1
        if iters > _MAX_ITERS:
            raise NumericalInstabilityError("numerics: simplex iteration cap exceeded")


def simplex_solve(p: LpProblem) -> LpSolution:
    """Two-phase simplex with Bland's rule; returns duals for diagnostics.

    Dual prices satisfy duals . b == value at an optimum (rows that phase 1
    exposes as redundant get price 0). Identical inputs produce identical
    pivot sequences.
    """
    m, n = p.A.shape
    A = p.A.copy()
    b = p.b.copy()
    senses = list(p.senses)
    flipped = np.zeros(m, dtype=bool)
    for i in range(m):
        if b[i] < 0.0:
            A[i] *= -1.0
            b[i] *= -1.0
            flipped[i] = True
            senses[i] = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL}[senses[i]]

    n_slack = sum(1 for s in senses if s in (LESS, GREATER))
    n_art = sum(1 for s in senses if s in (GREATER, EQUAL))
    N = n + n_slack + n_art
    T = np.zeros((m, N))
    T[:, :n] = A
    rhs = b.copy()

    slack_col = [-1] * m
    art_col = [-1] * m
    basis: list[int] = []
    js, ja = n, n + n_slack
    for i, s in enumerate(senses):
        if s == LESS:
            T[i, js] = 1.0
            slack_col[i] = js
            basis.append(js)
            js += 1
        elif s == GREATER:
            T[i, js] = -1.0
            slack_col[i] = js
            T[i, ja] = 1.0
            art_col[i] = ja
            basis.append(ja)
            js += 1
            ja += 1
        else:
            T[i, ja] = 1.0
            art_col[i] = ja
            basis.append(ja)
            ja += 1

    art_set = frozenset(c for c in art_col if c >= 0)
    iters = 0

    if art_set:
        cost1 = np.zeros(N)
        for c in art_set:
            cost1[c] = -1.0
        allowed = np.ones(N, dtype=bool)
        status, iters = _bland_iterate(T, rhs, basis, cost1, allowed, iters)
        if status != "optimal":  # pragma: no cover - phase 1 is always bounded
            raise NumericalInstabilityError("numerics: phase 1 did not converge")
        if cost1[basis] @ rhs < -SIGN_TOL:
            return LpSolution("infeasible", None, None, None, iters)
        # drive remaining artificial variables out of the basis
        drop_rows = []
        for i in range(m):
            if basis[i] in art_set:
                piv_col = -1
                for j in range(N):
                    if j not in art_set and abs(T[i, j]) > TOL:
                        piv_col = j
                        break
                if piv_col >= 0:
                    _pivot(T, rhs, basis, i, piv_col)
                else:
                    drop_rows.append(i)  # redundant constraint
        if drop_rows:
            keep = [i for i in range(m) if i not in drop_rows]
            T = T[keep]
            rhs = rhs[keep]
            basis = [basis[i] for i in keep]
            row_origin = keep
        else:
            row_origin = list(range(m))
    else:
        row_origin = list(range(m))

    cost2 = np.zeros(N)
    cost2[:n] = p.c
    allowed = np.ones(N, dtype=bool)
    for c in art_set:
        allowed[c] = False
    status, iters = _bland_iterate(T, rhs, basis, cost2, allowed, iters)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, None, iters)

    if np.any(rhs < -SIGN_TOL):
        raise NumericalInstabilityError("numerics: basic solution lost feasibility")

    x = np.zeros(N)
    for i, col in enumerate(basis):
        x[col] = rhs[i]
    xs = x[:n]
    value = float(p.c @ xs)

    cbar = cost2 - cost2[basis] @ T
    duals = np.zeros(m)
    for i_new, i_orig in enumerate(row_origin):
        s = senses[i_orig]
        if s == LESS:
            y = -cbar[slack_col[i_orig]]
        elif s == GREATER:
            y = cbar[slack_col[i_orig]]
        else:
            y = -cbar[art_col[i_orig]]
        duals[i_orig] = -y if flipped[i_orig] else y
    return LpSolution("optimal", value, xs, duals, iters)


@dataclass(frozen=True)
class FlowNetwork:
    """Directed network with real capacities >= 0. Parallel edges are merged."""

    source: Hashable
    sink: Hashable
    edges: tuple[tuple[Hashable, Hashable, float], ...]

    def __post_init__(self):
        if self.source == self.sink:
            raise ValidationError("numerics: source equals sink")
        for u, v, cap in self.edges:
            if cap < 0.0 or not np.isfinite(cap):
                raise ValidationError(f"numerics: bad capacity {cap!r} on ({u!r},{v!r})")


@dataclass
class FlowResult:
    value: float
    edge_flows: dict[tuple[Hashable, Hashable], float]
    cut_nodes: frozenset  # source side of a min cut
    cut_capacity: float



def max_flow(net: FlowNetwork) -> FlowResult:
    """Exact max flow by shortest augmenting paths; min cut returned as witness.

    Verifies flow conservation and value == cut capacity before returning.
    """
    cap: dict[tuple[Hashable, Hashable], float] = {}
    adj: dict[Hashable, list[Hashable]] = {}

    def touch(u):
        if u not in adj:
            adj[u] = []

    touch(net.source)
    touch(net.sink)
    for u, v, c in net.edges:
        if u == v:
            continue
        touch(u)
        touch(v)
        if (u, v) not in cap:
            cap[(u, v)] = 0.0
            adj[u].append(v)
        cap[(u, v)] += c
        if (v, u) not in cap:
            cap[(v, u)] = 0.0
            adj[v].append(u)

    flow = {e: 0.0 for e in cap}
    value = 0.0
    while True:
        parent = {net.source: None}
        queue = deque([net.source])
        while queue and net.sink not in parent:
            u = queue.popleft()
            for v in adj[u]:
                if v not in parent and cap[(u, v)] - flow[(u, v)] > MASS_TOL:
                    parent[v] = u
                    queue.append(v)
        if net.sink not in parent:
            reachable = frozenset(parent)
            break
        bottleneck = np.inf
        v = net.sink
        while parent[v] is not None:
            u = parent[v]
            bottleneck = min(bottleneck, cap[(u, v)] - flow[(u, v)])
            v = u
        v = net.sink
        while parent[v] is not None:
            u = parent[v]
            flow[(u, v)] += bottleneck
            flow[(v, u)] -= bottleneck
            v = u
        value += bottleneck

    cut_capacity = 0.0
    for (u, v), c in cap.items():
        if c > 0.0 and u in reachable and v not in reachable:
            cut_capacity += c
    if abs(value - cut_capacity) > TOL * max(1.0, abs(value)):
        raise SeqsubError(
            f"numerics: max-flow/min-cut mismatch ({value} vs {cut_capacity})"
        )
    for node in adj:
        if node in (net.source, net.sink):
            continue
        net_out = sum(flow[(node, v)] for v in adj[node])
        if abs(net_out) > TOL:
            raise SeqsubError(f"numerics: flow conservation violated at {node!r}")

    edge_flows = {e: f for e, f in flow.items() if f > MASS_TOL and cap[e] > 0.0}
    return FlowResult(value, edge_flows, reachable, cut_capacity)
