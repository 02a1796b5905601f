"""Random instance generation for the CLI and the test harness.

Random explicit tables are not rejection-sampled (a uniformly random
monotone table is almost never submodular beyond n = 3); instead they
tabulate draws from constructive monotone-submodular families — weighted
coverage, MNL, budget-additive caps, concave-of-cardinality — and their
nonnegative mixtures, then verify exhaustively before use. A table that
fails verification is a construction bug and raises GenerationError.
"""

from __future__ import annotations

import numpy as np

from .core import CoverageModel, ExplicitModel, Instance, MnlModel
from .coverage import CoverageInstance
from .errors import GenerationError, TooLargeError
from .oracle import MAX_VERIFY_N, verify_monotone_submodular
from .policy import PolicyVector, mixture_of_permutations
from .util import iter_bits, mask_of

KINDS = ("explicit", "coverage", "mnl")


def random_coverage_model(n: int, seed) -> CoverageModel:
    rng = np.random.default_rng(seed)
    universe = int(rng.integers(n, 2 * n + 1))
    weights = tuple(rng.uniform(0.2, 1.0, size=universe))
    covers = []
    for _ in range(n):
        mask = rng.random(universe) < rng.uniform(0.2, 0.6)
        mask[int(rng.integers(universe))] = True  # never an empty cover
        covers.append(tuple(int(e) for e in np.flatnonzero(mask)))
    return CoverageModel(n, weights, tuple(covers), normalize=True)


def random_mnl_model(n: int, seed) -> MnlModel:
    rng = np.random.default_rng(seed)
    return MnlModel(n, tuple(rng.uniform(0.05, 1.5, size=n)), float(rng.uniform(0.5, 2.0)))


def _budget_additive_table(n: int, rng) -> dict[int, float]:
    w = rng.uniform(0.05, 1.0, size=n)
    cap = float(rng.uniform(0.4, 0.9) * w.sum())
    return {
        m: min(float(sum(w[j] for j in iter_bits(m))), cap) for m in range(1 << n)
    }


def _concave_cardinality_table(n: int, rng) -> dict[int, float]:
    gamma = float(rng.uniform(0.3, 1.0))
    return {m: (bin(m).count("1") / n) ** gamma for m in range(1 << n)}


def random_explicit_model(n: int, seed) -> ExplicitModel:
    """Tabulated mixture of submodular families, normalized to peak at <= 1."""
    if n > MAX_VERIFY_N:
        raise TooLargeError(f"generators: explicit n={n} exceeds verification cap {MAX_VERIFY_N}")
    rng = np.random.default_rng(seed)
    parts = [_budget_additive_table(n, rng), _concave_cardinality_table(n, rng)]
    cov = random_coverage_model(n, rng)
    parts.append({m: cov.value(m) for m in range(1 << n)})
    mix = rng.dirichlet(np.ones(len(parts)))
    table = {
        m: float(sum(a * part[m] for a, part in zip(mix, parts)))
        for m in range(1 << n)
    }
    peak = table[(1 << n) - 1]
    if peak > 0:
        scale = rng.uniform(0.5, 1.0) / peak
        table = {m: v * scale for m, v in table.items()}
    model = ExplicitModel(n, table)
    check = verify_monotone_submodular(model, n)
    if not check.ok:
        raise GenerationError(
            f"generators: explicit table fails the {check.kind} check at mask {check.mask:#x}"
        )
    return model


def random_models(kind: str, n: int, seed):
    """One click model per patience level; explicit tables vary per level
    half the time, coverage/mnl are shared."""
    rng = np.random.default_rng(seed)
    if kind == "mnl":
        return (random_mnl_model(n, rng),) * n
    if kind == "coverage":
        return (random_coverage_model(n, rng),) * n
    if kind == "explicit":
        if n <= 6 and rng.random() < 0.5:
            return tuple(random_explicit_model(n, rng) for _ in range(n))
        return (random_explicit_model(n, rng),) * n
    raise GenerationError(f"generators: unknown kind {kind!r}")


def random_lambda(n: int, seed, full_mass: bool | None = None) -> tuple[float, ...]:
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.05, 1.0, size=n)
    if full_mass is None:
        full_mass = bool(rng.random() < 0.5)
    mass = 1.0 if full_mass else float(rng.uniform(0.5, 1.0))
    lam = u / u.sum() * mass
    return tuple(float(v) for v in lam)


def random_payments(n: int, seed, scale: float = 1.0):
    """Placement payments, nonincreasing down each column."""
    rng = np.random.default_rng(seed)
    r = np.sort(rng.uniform(0.0, scale, size=(n, n)), axis=0)[::-1]
    return tuple(tuple(float(v) for v in row) for row in r)


def random_instance(
    kind: str,
    n: int,
    seed,
    *,
    full_mass: bool | None = None,
    with_payments: bool = False,
) -> Instance:
    rng = np.random.default_rng(seed)
    models = random_models(kind, n, rng)
    lam = random_lambda(n, rng, full_mass)
    r, K = tuple((0.0,) * n for _ in range(n)), 0.0
    if with_payments:
        r = random_payments(n, rng, scale=float(rng.uniform(0.2, 1.0)))
        K = float(rng.uniform(0.5, 4.0))
    return Instance(n, lam, models, r, K=K)


def random_coverage_instance(n: int, seed) -> CoverageInstance:
    """Interest sets for the assignment-LP pipeline; never empty."""
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(n):
        size = min(n, int(rng.integers(1, max(2, n // 2) + 1)))
        sets.append(mask_of(int(j) for j in rng.choice(n, size=size, replace=False)))
    return CoverageInstance(n, tuple(sets))


def random_policy_mixture(n: int, components: int, seed) -> PolicyVector:
    """Implementable-by-construction mixture of permutation point masses."""
    rng = np.random.default_rng(seed)
    orders = [tuple(int(p) for p in rng.permutation(n)) for _ in range(components)]
    w = rng.dirichlet(np.ones(components))
    return mixture_of_permutations(orders, tuple(float(v) for v in w))

