"""Self-contained deterministic numerical kernels: dense simplex and max-flow.

The simplex is a two-phase dense-tableau method. It prices by steepest
edge (Goldfarb and Reid, 1977) and breaks ratio-test ties lexicographically
(Dantzig, Orden and Wolfe, 1955), so it terminates on degenerate problems
and produces identical pivot sequences for identical inputs. It is
whole-array code: the tableau, starting basis, phase costs and duals come
from row-sense masks, and each pivot is one rank-1 update of the rows whose
pivot-column entry is nonzero. Its two-pass ratio test (Harris, 1973) never
pivots on less than PIVOT_TOL of the largest eligible entry, and an
`optimal` point is re-checked against the original rows and certified by
its dual prices. The max-flow solver augments along shortest paths
(Edmonds-Karp) over real-valued capacities and returns a min cut as
witness; flow-vs-cut duality and flow conservation are checked on every
call.

Both are sized for desk-scale problems (a few thousand variables, dense rows).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .errors import NumericalInstabilityError, SeqsubError, ValidationError

# The one tolerance table of every pipeline module; PIVOT_TOL is relative,
# the others absolute. The oracle keeps its own, as the independent auditor.
TOL = 1e-9  # feasibility, equality and sign checks; the smallest pivot
PIVOT_TOL = 1e-3  # a pivot's smallest share of the largest eligible one
SUM_TOL = 1e-6  # row and flow sums after rounding; marginal prefix overshoot
MASS_TOL = 1e-12  # negligible mass: residual capacity, flow, policy prefixes

_MAX_ITERS = 5_000  # 13x the most pivots measured: 385 (revenue, n = 12)

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


def _pivot(T: np.ndarray, rhs: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """One rank-1 update, applied only to rows with a nonzero pivot-column entry."""
    piv = T[row, col]
    T[row] /= piv
    rhs[row] /= piv
    rows = np.flatnonzero(T[:, col])
    rows = rows[rows != row]
    f = T[rows, col]
    T[rows] -= np.outer(f, T[row])
    rhs[rows] -= f * rhs[row]
    basis[row] = col


def _iterate(
    T: np.ndarray,
    rhs: np.ndarray,
    basis: np.ndarray,
    cost: np.ndarray,
    allowed: np.ndarray,
    inv: np.ndarray,
    iters: int,
) -> tuple[str, int]:
    """Pivot until optimal or unbounded. Returns (status, iterations).

    The entering column has the steepest edge: the largest reduced cost per
    unit length of its edge, cbar_j / sqrt(1 + |T[:, j]|^2). Tableau columns
    are B^-1 a_j, so these norms are exact. The columns `inv` started as the
    identity, so T[:, inv] is B^-1, and breaking leaving-row ties on
    (rhs_i, T[i, inv]) / a_i is the lexicographic rule, which keeps
    degenerate pivots from cycling.
    """
    while True:
        cbar = cost - cost[basis] @ T
        improving = (cbar > TOL) & allowed
        if not improving.any():
            return "optimal", iters
        # every column's norm: gathering the improving columns first costs more
        edge = np.sqrt(1.0 + np.einsum("ij,ij->j", T, T))
        enter = int((np.where(improving, cbar, 0.0) / edge).argmax())
        column = T[:, enter]
        rows = np.flatnonzero(column > TOL)
        if rows.size == 0:
            return "unbounded", iters
        # theta relaxes every ratio by TOL; of the rows within it whose pivot
        # is at least PIVOT_TOL of their largest, the lexicographically
        # smallest leaves. Python lists beat array code on these few rows.
        pivs, vals = column[rows].tolist(), rhs[rows].tolist()
        theta = min([(v + TOL if v > 0.0 else TOL) / a for a, v in zip(pivs, vals)])
        ties = [(a, i) for a, v, i in zip(pivs, vals, rows.tolist()) if v / a <= theta]
        floor = PIVOT_TOL * max(ties)[0]
        cands = np.array([i for a, i in ties if a >= floor])
        lex = np.column_stack([rhs[cands], T[np.ix_(cands, inv)]]) / column[cands, None]
        leave = int(cands[np.lexsort(lex.T[::-1])[0]])
        _pivot(T, rhs, basis, leave, enter)
        iters += 1
        if iters > _MAX_ITERS:
            raise NumericalInstabilityError("numerics: simplex iteration cap exceeded")


def simplex_solve(p: LpProblem) -> LpSolution:
    """Two-phase steepest-edge simplex; returns duals for diagnostics.

    Rows with b < 0 are negated first (flipping <= and >=). The tableau is
    [A | slacks | artificials]: each <= row gets a +1 slack, each >= row a -1
    surplus and an artificial, each = row an artificial, all numbered in row
    order and built from the sense masks in one pass. Dual prices satisfy
    duals . b == value at an optimum (rows that phase 1 exposes as redundant
    get price 0). Identical inputs produce identical pivot sequences.
    """
    m, n = p.A.shape
    senses = np.array(p.senses, dtype=object)
    flip = p.b < 0.0
    le = np.where(flip, senses == GREATER, senses == LESS)
    ge = np.where(flip, senses == LESS, senses == GREATER)
    has_slack, has_art = le | ge, ~le
    n_real = n + int(has_slack.sum())  # structural and slack columns
    N = n_real + int(has_art.sum())
    slack_col = n + np.cumsum(has_slack) - 1
    art_col = n_real + np.cumsum(has_art) - 1
    rows = np.arange(m)
    T = np.zeros((m, N))
    T[:, :n] = np.where(flip[:, None], -p.A, p.A)
    T[rows[has_slack], slack_col[has_slack]] = np.where(le, 1.0, -1.0)[has_slack]
    T[rows[has_art], art_col[has_art]] = 1.0
    rhs = np.where(flip, -p.b, p.b)
    basis = np.where(le, slack_col, art_col)
    inv = basis.copy()
    keep = rows
    iters = 0

    if N > n_real:
        cost1 = np.zeros(N)
        cost1[n_real:] = -1.0
        status, iters = _iterate(T, rhs, basis, cost1, np.ones(N, dtype=bool), inv, iters)
        if status != "optimal":  # pragma: no cover - phase 1 is always bounded
            raise NumericalInstabilityError("numerics: phase 1 did not converge")
        if cost1[basis] @ rhs < -TOL:
            return LpSolution("infeasible", None, None, None, iters)
        # drive artificials out on the first entry of at least PIVOT_TOL of
        # the row's largest; a row with none is redundant and is dropped
        drop = np.zeros(m, dtype=bool)
        for i in np.flatnonzero(basis >= n_real):
            a = np.abs(T[i, :n_real])
            cols = np.flatnonzero((a > TOL) & (a >= PIVOT_TOL * a.max()))
            if cols.size:
                _pivot(T, rhs, basis, i, int(cols[0]))
            else:
                drop[i] = True
        keep = rows[~drop]
        T, rhs, basis = T[keep], rhs[keep], basis[keep]

    cost2 = np.zeros(N)
    cost2[:n] = p.c
    status, iters = _iterate(T, rhs, basis, cost2, np.arange(N) < n_real, inv, iters)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, None, iters)

    if np.any(rhs < -TOL):
        raise NumericalInstabilityError("numerics: basic solution lost feasibility")

    x = np.zeros(N)
    x[basis] = rhs
    xs = x[:n]
    # x must satisfy the original rows too; its sign is the basic check above
    ax = p.A @ xs
    abs_a = np.abs(p.A)
    excess = np.select([senses == LESS, senses == GREATER], [ax - p.b, p.b - ax], abs(ax - p.b))
    if np.any(excess > TOL * (1.0 + np.abs(p.b) + abs_a @ np.abs(xs))):
        raise NumericalInstabilityError("numerics: optimal point violates a constraint row")
    value = float(p.c @ xs)

    # a row's price is its slack's reduced cost (its artificial's on = rows),
    # negated on <= and = rows after the flip, and again on flipped rows
    cbar = cost2 - cost2[basis] @ T
    y = cbar[np.where(has_slack, slack_col, art_col)[keep]]
    duals = np.zeros(m)
    duals[keep] = np.where((ge != flip)[keep], y, -y)
    # the prices must certify x: >= 0 on <= rows and <= 0 on >= rows, no
    # positive reduced cost and no duality gap, each to TOL relative to its terms
    wrong_sign = np.select([senses == LESS, senses == GREATER], [-duals, duals], 0.0)
    abs_y = np.abs(duals)
    if (
        np.any(wrong_sign > TOL * (1.0 + abs_y))
        or np.any(p.c - p.A.T @ duals > TOL * (1.0 + abs_a.T @ abs_y + np.abs(p.c)))
        or abs(value - p.b @ duals) > TOL * (1.0 + np.abs(p.c) @ np.abs(xs) + np.abs(p.b) @ abs_y)
    ):
        raise NumericalInstabilityError("numerics: optimal point fails its dual certificate")
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
    adj: dict[Hashable, list[Hashable]] = {net.source: [], net.sink: []}
    for u, v, c in net.edges:  # a self-loop carries no flow and crosses no cut
        for e in ((u, v), (v, u)):
            if e not in cap:
                cap[e] = 0.0
                adj.setdefault(e[0], []).append(e[1])
        cap[(u, v)] += c

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
