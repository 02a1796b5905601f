"""Simplex and max-flow against independent enumeration oracles."""

import ast
import hashlib
import itertools
from pathlib import Path

import numpy as np
import pytest

from auditors import highs_value
from seqsub import core, coverage, engagement, generators, numerics, revenue
from seqsub.errors import NumericalInstabilityError, ValidationError
from seqsub.numerics import FlowNetwork, LpProblem, max_flow, simplex_solve


def test_tolerances_live_only_in_the_numerics_table():
    """No module but numerics (the table) and oracle (the independent auditor)
    writes a tolerance-sized float literal."""
    found = []
    for path in sorted(Path(numerics.__file__).parent.glob("*.py")):
        if path.name in ("numerics.py", "oracle.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and type(node.value) is float:
                if 0.0 < abs(node.value) < 1e-5:
                    found.append(f"{path.name}:{node.lineno} {node.value!r}")
    assert not found, found


def lp_vertex_oracle(p: LpProblem):
    """Enumerate basic feasible points of {A x <= b variants, x >= 0}.

    Returns (status, value): every generated problem is bounded (box rows),
    so the optimum sits at a vertex and 'infeasible' means no vertex passes
    the feasibility check.
    """
    n = len(p.c)
    rows, rhs = [], []
    for a, b, s in zip(p.A, p.b, p.senses):
        if s in ("<=", "="):
            rows.append(np.asarray(a, dtype=float))
            rhs.append(float(b))
        if s in (">=", "="):
            rows.append(-np.asarray(a, dtype=float))
            rhs.append(-float(b))
    for j in range(n):
        e = np.zeros(n)
        e[j] = -1.0
        rows.append(e)
        rhs.append(0.0)
    G, h = np.array(rows), np.array(rhs)
    best = None
    for combo in itertools.combinations(range(len(G)), n):
        M = G[list(combo)]
        if abs(np.linalg.det(M)) < 1e-9:
            continue
        x = np.linalg.solve(M, h[list(combo)])
        if np.all(G @ x <= h + 1e-7):
            val = float(p.c @ x)
            if best is None or val > best:
                best = val
    return ("infeasible", None) if best is None else ("optimal", best)


def random_lp(rng) -> LpProblem:
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, 5))
    A = rng.uniform(-1, 1, size=(m, n))
    b = rng.uniform(-0.5, 1.5, size=m)
    senses = [rng.choice(["<=", "<=", ">=", "="]) for _ in range(m)]
    # box rows keep every instance bounded
    A = np.vstack([A, np.eye(n)])
    b = np.concatenate([b, rng.uniform(0.5, 3.0, size=n)])
    senses += ["<="] * n
    c = rng.uniform(-1, 1, size=n)
    return LpProblem(c, A, b, tuple(senses))


def test_simplex_single_bound():
    p = LpProblem([1.0], [[1.0]], [3.0], ("<=",))
    res = simplex_solve(p)
    assert res.status == "optimal"
    assert res.value == pytest.approx(3.0, abs=1e-9)
    assert res.x[0] == pytest.approx(3.0, abs=1e-9)
    assert res.duals[0] == pytest.approx(1.0, abs=1e-9)


def test_simplex_two_variable_face():
    p = LpProblem([1.0, 1.0], [[1.0, 1.0], [1.0, 0.0]], [1.0, 0.4], ("<=", "<="))
    res = simplex_solve(p)
    assert res.status == "optimal"
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_simplex_infeasible_and_unbounded():
    infeasible = LpProblem([1.0], [[1.0], [1.0]], [1.0, 2.0], ("<=", ">="))
    # x <= 1 and x >= 2 cannot both hold
    assert simplex_solve(infeasible).status == "infeasible"
    unbounded = LpProblem([1.0, 0.0], [[0.0, 1.0]], [1.0], ("<=",))
    assert simplex_solve(unbounded).status == "unbounded"


def test_simplex_equality_and_negative_rhs():
    # maximize x + y with x + y = 2, -x <= -0.5 (i.e. x >= 0.5)
    p = LpProblem([1.0, 1.0], [[1.0, 1.0], [-1.0, 0.0]], [2.0, -0.5], ("=", "<="))
    res = simplex_solve(p)
    assert res.status == "optimal"
    assert res.value == pytest.approx(2.0, abs=1e-9)


def test_simplex_degenerate_terminates():
    # classic degenerate vertex: several redundant rows through the origin
    p = LpProblem(
        [1.0, 1.0],
        [[1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
        [0.0, 0.0, 1.0, 1.0],
        ("<=", "<=", "<=", "<="),
    )
    res = simplex_solve(p)
    assert res.status == "optimal"
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_simplex_does_not_cycle_on_beales_lp():
    """Beale's LP (1955) cycles under Dantzig pricing with the smallest
    basic index leaving; the lexicographic ratio test ends at 1.25 at once."""
    p = LpProblem(
        [0.75, -20.0, 0.5, -6.0],
        [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]],
        [0.0, 0.0, 1.0],
        ("<=", "<=", "<="),
    )
    res = simplex_solve(p)
    assert res.status == "optimal"
    assert res.value == pytest.approx(1.25, abs=1e-12)
    assert res.iterations <= 10


def test_simplex_iteration_cap_raises(appendix_c, monkeypatch):
    monkeypatch.setattr(numerics, "_MAX_ITERS", 3)
    with pytest.raises(NumericalInstabilityError, match="simplex iteration cap exceeded"):
        simplex_solve(revenue.build_policy_lp(appendix_c).problem)


def test_simplex_matches_vertex_oracle_quick():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(60):
        p = random_lp(rng)
        res = simplex_solve(p)
        status, value = lp_vertex_oracle(p)
        assert res.status == status
        if status == "optimal":
            assert res.value == pytest.approx(value, abs=1e-7)
            checked += 1
    assert checked >= 20


def test_simplex_duals_satisfy_strong_duality():
    rng = np.random.default_rng(11)
    for _ in range(40):
        p = random_lp(rng)
        res = simplex_solve(p)
        if res.status == "optimal":
            assert float(res.duals @ p.b) == pytest.approx(res.value, abs=1e-7)


def test_simplex_deterministic():
    rng = np.random.default_rng(3)
    p = random_lp(rng)
    r1, r2 = simplex_solve(p), simplex_solve(p)
    assert r1.status == r2.status
    assert r1.iterations == r2.iterations
    if r1.status == "optimal":
        assert np.array_equal(r1.x, r2.x)


def _digest(*arrays) -> str:
    data = b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)
    return hashlib.sha256(data).hexdigest()[:16]


def _pinned_lp(name, appendix_c, monkeypatch) -> LpProblem:
    if name == "appendix-c":
        return revenue.build_policy_lp(appendix_c).problem
    if name == "mnl5-floor":  # the floor binds (dual -1.89); phase 1 runs
        inst = generators.random_instance("mnl", 5, 7, full_mass=True, with_payments=True)
        floor = 0.95 * core.engagement(inst, engagement.greedy_rank(inst))
        return revenue.build_policy_lp(inst.with_threshold(floor)).problem
    if name == "mnl6":  # tiny eligible pivots: an absolute pivot floor ends 4.1% high
        inst = generators.random_instance("mnl", 6, 9, full_mass=True, with_payments=True)
        return revenue.build_policy_lp(inst).problem
    if name == "coverage10":
        # a redundant equality row; also updating the rows whose pivot-column
        # entry is zero would flip the sign of a zero in x
        built = []
        real = coverage.simplex_solve
        monkeypatch.setattr(coverage, "simplex_solve", lambda p: built.append(p) or real(p))
        coverage.solve_assignment_lp(generators.random_coverage_instance(10, 1))
        return built[0]
    # negative right-hand sides on =, <= and >= rows; optimum x = (2, 1, 1)
    return LpProblem(
        [1.0, 2.0, -1.0],
        [[1.0, 1.0, 1.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 2.0], [-1.0, -1.0, 0.0], [1.0, 0.0, 0.0]],
        [4.0, -1.0, -0.5, -3.0, 3.0],
        ("=", "<=", ">=", "=", "<="),
    )


# name -> (digest of c, A, b; pivots; value.hex(); digest of x and duals).
# Any change to how an LP is built, to the pivot sequence or to the float
# order of a pivot shows here. The bits also follow the summation order of
# numpy's matrix-vector product, so another BLAS build may need a re-record.
PINNED_PIVOT_RECORDS = {
    "appendix-c": ("21ca7d582444413f", 9, "0x1.7f00000000000p+5", "5bcce9aee17eb523"),
    "mnl5-floor": ("a51394fb41368970", 15, "0x1.8448f4226e8b1p+0", "3ebc5e0df04a7874"),
    "mnl6": ("48e079c0cd115459", 21, "0x1.15ef1b2463e4bp+2", "a9356e63c33782b0"),
    "coverage10": ("4fbf77a703b86ac9", 59, "0x1.4000000000000p+3", "64003b30f3d2dedf"),
    "negative-rhs": ("dab2e780171217f5", 4, "0x1.7ffffffffffffp+1", "11592f093902bb66"),
}


@pytest.mark.parametrize("name", sorted(PINNED_PIVOT_RECORDS))
def test_simplex_pivot_records_are_pinned(name, appendix_c, monkeypatch):
    p = _pinned_lp(name, appendix_c, monkeypatch)
    res = simplex_solve(p)
    assert res.status == "optimal"
    record = (_digest(p.c, p.A, p.b), res.iterations, res.value.hex(), _digest(res.x, res.duals))
    assert record == PINNED_PIVOT_RECORDS[name]


@pytest.mark.parametrize("name", sorted(PINNED_PIVOT_RECORDS))
def test_pinned_lps_match_highs(name, appendix_c, monkeypatch):
    p = _pinned_lp(name, appendix_c, monkeypatch)
    assert simplex_solve(p).value == pytest.approx(highs_value(p), rel=1e-9, abs=0.0)


def test_revenue_lps_match_highs():
    """Revenue relaxations at n = 3-8 with and without a binding floor: every
    solve is optimal and within 1e-9 of HiGHS. A ratio test that divides by
    any pivot above TOL ends at a wrong optimum on some of them (mnl, n = 6)."""
    for kind in ("mnl", "coverage", "explicit"):
        for n in range(3, 9):
            for s in range(5):
                inst = generators.random_instance(kind, n, 1000 + s, with_payments=True)
                greedy = core.engagement(inst, engagement.greedy_rank(inst))
                for floor in (0.0, 0.95 * greedy):
                    p = revenue.build_policy_lp(inst.with_threshold(floor)).problem
                    res = simplex_solve(p)
                    assert res.status == "optimal", (kind, n, s, floor)
                    assert res.value == pytest.approx(highs_value(p), rel=1e-9, abs=0.0)


def test_simplex_rejects_a_point_that_violates_the_original_rows(appendix_c, monkeypatch):
    """A corrupted tableau entry mid-solve still reaches a final tableau with
    no improving column, but its point breaks the LP's own rows."""
    real, calls = numerics._pivot, []

    def corrupting_pivot(T, rhs, basis, row, col):
        real(T, rhs, basis, row, col)
        calls.append(row)
        if len(calls) == 5:
            rhs[row] += 0.25

    monkeypatch.setattr(numerics, "_pivot", corrupting_pivot)
    with pytest.raises(NumericalInstabilityError, match="violates a constraint row"):
        simplex_solve(revenue.build_policy_lp(appendix_c).problem)


def test_simplex_rejects_a_point_that_its_duals_do_not_certify(monkeypatch):
    """Phase 2 stopped before its first pivot leaves a feasible point that
    is not optimal: 0.4027 against 2.8877. It meets every row, but a
    reduced cost stays positive, so the dual certificate rejects it."""
    real = numerics._iterate

    def skip_phase_2(T, rhs, basis, cost, allowed, inv, iters):
        if not allowed.all():  # phase 2 may not enter the artificial columns
            return "optimal", iters
        return real(T, rhs, basis, cost, allowed, inv, iters)

    inst = generators.random_instance("mnl", 4, 1, with_payments=True).with_threshold(0.1)
    p = revenue.build_policy_lp(inst).problem
    assert simplex_solve(p).value == pytest.approx(2.8877, abs=1e-4)
    monkeypatch.setattr(numerics, "_iterate", skip_phase_2)
    with pytest.raises(NumericalInstabilityError, match="fails its dual certificate"):
        simplex_solve(p)


def test_simplex_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        LpProblem([1.0, 2.0], [[1.0]], [1.0], ("<=",))
    with pytest.raises(ValidationError):
        LpProblem([1.0], [[1.0]], [1.0], ("<",))
    with pytest.raises(ValidationError):
        LpProblem([np.inf], [[1.0]], [1.0], ("<=",))


def min_cut_oracle(net: FlowNetwork) -> float:
    nodes = sorted({u for u, _, _ in net.edges} | {v for _, v, _ in net.edges}
                   | {net.source, net.sink}, key=str)
    others = [v for v in nodes if v not in (net.source, net.sink)]
    best = np.inf
    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            side = set(combo) | {net.source}
            cap = sum(c for u, v, c in net.edges if u in side and v not in side)
            best = min(best, cap)
    return best


def random_network(rng) -> FlowNetwork:
    n = int(rng.integers(3, 8))
    nodes = list(range(n))
    edges = []
    for u in nodes:
        for v in nodes:
            if u != v and rng.random() < 0.45:
                edges.append((u, v, float(rng.uniform(0.0, 2.0))))
    edges.append((0, int(rng.integers(1, n)), float(rng.uniform(0.5, 2.0))))
    edges.append((int(rng.integers(0, n - 1)), n - 1, float(rng.uniform(0.5, 2.0))))
    return FlowNetwork(0, n - 1, tuple(edges))


def test_max_flow_single_edge():
    res = max_flow(FlowNetwork("s", "t", (("s", "t", 0.7),)))
    assert res.value == pytest.approx(0.7, abs=1e-12)
    assert res.cut_capacity == pytest.approx(0.7, abs=1e-12)
    assert res.edge_flows[("s", "t")] == pytest.approx(0.7)


def test_max_flow_diamond():
    edges = (
        ("s", "a", 1.0),
        ("s", "b", 0.25),
        ("a", "t", 0.5),
        ("b", "t", 1.0),
        ("a", "b", 0.25),
    )
    res = max_flow(FlowNetwork("s", "t", edges))
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_max_flow_matches_cut_enumeration_quick():
    rng = np.random.default_rng(5)
    for _ in range(60):
        net = random_network(rng)
        res = max_flow(net)
        assert res.value == pytest.approx(min_cut_oracle(net), abs=1e-9)


def test_max_flow_deterministic():
    rng = np.random.default_rng(9)
    net = random_network(rng)
    r1, r2 = max_flow(net), max_flow(net)
    assert r1.value == r2.value
    assert r1.edge_flows == r2.edge_flows
    assert r1.cut_nodes == r2.cut_nodes


def test_max_flow_ignores_self_loops_and_merges_parallel_edges():
    """A self-loop carries no flow and crosses no cut, and an edge split into
    two parallel halves has the whole edge's capacity: the value, the flows
    and the cut stay the same, bit for bit."""
    rng = np.random.default_rng(13)
    for _ in range(40):
        net = random_network(rng)
        edges = list(net.edges)
        pairs = [e[:2] for e in edges]  # split an edge that has no parallel edge yet
        k = next(int(i) for i in rng.permutation(len(edges)) if pairs.count(pairs[i]) == 1)
        u, v, c = edges[k]
        edges[k] = (u, v, c / 2)
        fresh = max(net.sink, *(e[0] for e in edges)) + 1
        loops = [(node, node, 1.0) for node in (net.source, u, v, net.sink, fresh)]
        split = FlowNetwork(net.source, net.sink, (*loops, *edges, (u, v, c / 2)))
        want, got = max_flow(net), max_flow(split)
        assert (got.value, got.cut_capacity) == (want.value, want.cut_capacity)
        assert got.edge_flows == want.edge_flows
        assert got.cut_nodes == want.cut_nodes


def test_max_flow_rejects_bad_input():
    with pytest.raises(ValidationError):
        FlowNetwork("s", "s", ())
    with pytest.raises(ValidationError):
        FlowNetwork("s", "t", (("s", "t", -1.0),))
