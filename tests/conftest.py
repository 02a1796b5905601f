"""Shared fixtures (golden instances, the worked policy vector) and the
test-side helpers that other test modules import from here."""

import json

import numpy as np
import pytest

from seqsub import core, policy
from seqsub.core import CoverageModel, Instance
from seqsub.fixtures import (
    APPENDIX_B_POINT,
    APPENDIX_C_INSTANCE,
    EXAMPLE_1_INSTANCE,
    fixture_path,
)


@pytest.fixture(scope="session")
def appendix_c() -> Instance:
    """Four products, shared explicit table, K=100: brute OPT 191/4."""
    return core.load_instance(fixture_path(APPENDIX_C_INSTANCE))


@pytest.fixture(scope="session")
def example_1() -> Instance:
    """Two additive per-patience tables where greedy picks the wrong head."""
    return core.load_instance(fixture_path(EXAMPLE_1_INSTANCE))


@pytest.fixture(scope="session")
def matching_instance() -> Instance:
    """Only patience level 2 matters; its click function is unnormalized
    coverage over two ground elements: products 0,2 cover the first and
    1,3 the second."""
    n = 4
    empty = CoverageModel(n, (), ((),) * n)
    f2 = CoverageModel(n, (1.0, 1.0), ((0,), (1,), (0,), (1,)))
    zeros = tuple((0.0,) * n for _ in range(n))
    return Instance(n, (0.25,) * n, (empty, f2, empty, empty), zeros)


@pytest.fixture(scope="session")
def matching_point() -> dict:
    """The fractional doubly stochastic point and its two matchings."""
    with open(fixture_path(APPENDIX_B_POINT), "r", encoding="utf-8") as fh:
        data = json.load(fh)
    orders = [core.order_from_external(m) for m in data["matchings"]]
    return {"x": data["x"], "orders": orders}


@pytest.fixture(scope="session")
def worked_policy_vector() -> policy.PolicyVector:
    """The hand-written LP-feasible vector whose layer 3 cannot be realized:
    {1,4} carries mass 1/2 but both of its supersets carry none."""
    layers = (
        {0b0001: 0.5, 0b0010: 0.5},
        {0b1001: 0.5, 0b0110: 0.5},
        {0b0111: 0.5, 0b1110: 0.5},
        {0b1111: 1.0},
    )
    return policy.PolicyVector(4, layers)


def matrix_of(R, n: int) -> np.ndarray:
    """0/1 n x n indicator matrix of a set of (position, product) pairs."""
    x = np.zeros((n, n))
    for i, j in R:
        x[i, j] = 1.0
    return x


def random_subset_distribution(n: int, seed=None, max_support: int = 6):
    """Explicit (subset, probability) list over ground set {0..n-1}, the input
    of oracle.correlation_gap_ratio."""
    rng = np.random.default_rng(seed)
    support = int(rng.integers(1, max_support + 1))
    subsets = []
    for _ in range(support):
        mask = rng.random(n) < rng.uniform(0.2, 0.8)
        subsets.append(frozenset(int(j) for j in np.flatnonzero(mask)))
    w = rng.dirichlet(np.ones(support))
    return [(s, float(p)) for s, p in zip(subsets, w)]
