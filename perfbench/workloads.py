"""The four benchmark workloads: instance pools written in set-up, and CLI ops.

One op is one pipeline call (on rank-cg: `run greedy` then `run cg`) on one
instance file from the pool. The pool is a fixed cycle of cells (kind, n and
flags), repeated with fresh instance seeds; the closed loop runs every op of
the pool once, in order. The number of cycles follows from --seconds and the
cycle's nominal time, not from a clock, so a seed always gives the same ops.
Instance seeds derive from the workload seed, except on panel cells, whose
seed is PANEL_SEED + cycle in every run; `seqsub gen --kind K --n N --seed S`
reproduces any listed instance. See NOTES.md for why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Share of the instance's greedy engagement used as the floor on revenue-lp.
FLOOR_FRACTION = 0.95

#: Mixture components in the policies that `certify` checks.
POLICY_COMPONENTS = 20

#: First instance seed of the revenue-lp n=6 panel (the sizing run's seeds).
PANEL_SEED = 5000


@dataclass(frozen=True)
class Cell:
    """One slot of the pool cycle: what to generate and how to call the CLI."""

    source: str  # "general" (seqsub gen), "interest" (gen --kind coverage), "mixture"
    kind: str
    n: int
    args: tuple[tuple[str, ...], ...]  # CLI argv per call, --instance/--out added later
    floor: bool = False  # revenue-lp: pass --threshold at FLOOR_FRACTION of greedy
    panel: bool = False  # instance seed PANEL_SEED + cycle, the same for every run seed


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple[Cell, ...]
    cycle_s: float  # nominal CPU time of one cycle on the 2-core reference host
    deadline_s: float  # per-op CPU limit; a longer op counts as failed at this time
    exercises: tuple[str, ...]  # spans the self-check requires to fire
    tiny: bool = False

    def cycles(self, seconds: float) -> int:
        """Cycles for a run of about `seconds` on the reference host; 1 when tiny."""
        return 1 if self.tiny else max(1, round(seconds / self.cycle_s))


@dataclass(frozen=True)
class Op:
    index: int
    cell: Cell
    inst_seed: int
    path: str
    calls: tuple[tuple[str, ...], ...]  # full argv per call, without --out


_KINDS = ("mnl", "coverage", "explicit")


def _rank_cg(tiny: bool) -> Workload:
    cg = ("run", "cg") + (("--steps", "4", "--samples", "16") if tiny else ())
    sizes = (4, 5) if tiny else (6, 7, 8)
    cells = tuple(
        Cell("general", k, n, (("run", "greedy"), cg)) for n in sizes for k in _KINDS
    )
    # Coverage at n=7 is the slowest cell (the CLI also runs the brute-force
    # oracle there). Twice per cycle it fills the top fifth of op times, so
    # p90 falls inside it rather than on the edge between two cells.
    cells += (Cell("general", "coverage", sizes[1], (("run", "greedy"), cg)),)
    return Workload(
        "rank-cg",
        cells,
        1.65,
        10.0,
        (
            "core.batch_value",
            "engagement.batch_marginal_weights",
            "matroid.max_weight_base",
            "matroid.continuous_greedy",
            "matroid.pipage_round",
            "matroid.estimate_multilinear",
            "engagement.greedy_rank",
            "oracle.brute_force_engagement_opt",
            "cli.main",
        ),
        tiny,
    )


def _revenue_lp(tiny: bool) -> Workload:
    run = ("run", "revenue", "--trials", "20")
    small, large = (3, 4) if tiny else (5, 6)
    # Three n=5 ops per n=6 op: p90 lands among the n=6 solves, with more
    # than ten samples beyond it. The n=6 cells are a panel: the same
    # instances (seeds PANEL_SEED, PANEL_SEED + 1, ...) in every run, with and
    # without the floor. Today's simplex runs away or fails its marginal-bound
    # check on some of them; a fixed panel makes those failures, and the
    # deadlines they cost, the same in every run, so they show as a fixed
    # share of every figure instead of a binomial draw per seed.
    per_kind = [(small, False, False), (small, True, False), (small, False, False),
                (large, True, True), (small, True, False), (small, False, False),
                (small, True, False), (large, False, True)]
    cells = tuple(
        Cell("general", k, n, (run,), floor=floor, panel=panel)
        for n, floor, panel in per_kind
        for k in _KINDS
    )
    return Workload(
        "revenue-lp",
        cells,
        2.5,
        2.0,
        (
            "revenue.build_policy_lp",
            "revenue.solve_policy_lp",
            "numerics.simplex_solve",
            "revenue.run_bicriteria",
            "cli.main",
        ),
        tiny,
    )


def _revenue_rounding(tiny: bool) -> Workload:
    trials = "20" if tiny else "1000"
    sizes = (3,) if tiny else (4, 5)
    cells = tuple(
        Cell("general", k, n, (("run", "revenue", "--trials", trials, "--factor", f),))
        for n in sizes
        for f in ("1.0", "0.632")
        for k in _KINDS
    )
    return Workload(
        "revenue-rounding",
        cells,
        4.4,
        10.0,
        (
            "revenue.run_bicriteria",
            "revenue.round_to_permutation",
            "matroid.sample_independent_point",
            "matroid.crs_round",
            "engagement.extract_permutation",
            "core.engagement",
            "core.revenue",
            "cli.main",
        ),
        tiny,
    )


def _coverage_certify(tiny: bool) -> Workload:
    trials = "10" if tiny else "100"
    cov_sizes = (5, 6, 7, 7) if tiny else (10, 15, 20, 20)
    pol_sizes = (4, 5, 6) if tiny else (8, 10, 12)
    # Six certify ops to four coverage ops: the median falls among certify
    # ops and p90 inside the n=20 coverage band, away from either edge.
    cells = tuple(Cell("mixture", "policy", n, (("certify",),)) for n in pol_sizes * 2)
    cells += tuple(
        Cell("interest", "interest", n, (("run", "coverage", "--trials", trials),))
        for n in cov_sizes
    )
    return Workload(
        "coverage-certify",
        cells,
        0.9,
        10.0,
        (
            "coverage.solve_assignment_lp",
            "coverage.round_assignment",
            "policy.check_implementable",
            "numerics.max_flow",
            "numerics.simplex_solve",
            "cli.main",
        ),
        tiny,
    )


_FACTORIES = {
    "rank-cg": _rank_cg,
    "revenue-lp": _revenue_lp,
    "revenue-rounding": _revenue_rounding,
    "coverage-certify": _coverage_certify,
}

NAMES = tuple(_FACTORIES)


def workload(name: str, tiny: bool = False) -> Workload:
    return _FACTORIES[name](tiny)


def inst_seed(seed: int, index: int) -> int:
    return seed * 100_000 + index


def write_pool(wl: Workload, seed: int, seconds: float, workdir: str) -> list[Op]:
    """Generate and write every instance of the pool, exactly as `seqsub gen` does."""
    from seqsub import core, coverage, engagement, generators, policy

    ops = []
    for c in range(wl.cycles(seconds)):
        for j, cell in enumerate(wl.cells):
            index = c * len(wl.cells) + j
            s = PANEL_SEED + c if cell.panel else inst_seed(seed, index)
            path = f"{workdir}/i{index:04d}.json"
            extra: tuple[str, ...] = ()
            if cell.source == "general":
                inst = generators.random_instance(
                    cell.kind, cell.n, s, full_mass=True, with_payments=True
                )
                core.save_instance(inst, path)
                if cell.floor:
                    greedy = core.engagement(inst, engagement.greedy_rank(inst))
                    extra = ("--threshold", repr(FLOOR_FRACTION * greedy))
            elif cell.source == "interest":
                coverage.save_coverage(generators.random_coverage_instance(cell.n, s), path)
            else:
                pv = generators.random_policy_mixture(cell.n, POLICY_COMPONENTS, s)
                policy.save_policy(pv, path)
            calls = tuple(a + ("--instance", path) + extra for a in cell.args)
            ops.append(Op(index, cell, s, path, calls))
    return ops
