"""Random generators: validity of what they emit."""

import numpy as np
import pytest

from seqsub import generators
from seqsub.errors import TooLargeError, ValidationError
from seqsub.generators import (
    random_coverage_instance,
    random_explicit_model,
    random_instance,
    random_lambda,
    random_payments,
    random_policy_mixture,
)

from auditors import verify_monotone_submodular
from conftest import random_subset_distribution


@pytest.mark.parametrize("n", [2, 4, 6])
def test_random_explicit_models_verify(n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        model = random_explicit_model(n, rng)
        assert verify_monotone_submodular(model, n).ok


def test_explicit_size_is_rejected_before_tabulation(monkeypatch):
    def no_tables(n, rng):
        raise AssertionError(f"tabulated 2^{n} entries before the size check")

    monkeypatch.setattr(generators, "_budget_additive_table", no_tables)
    with pytest.raises(TooLargeError):
        random_explicit_model(generators.MAX_TABULATE_N + 1, 0)
    with pytest.raises(TooLargeError):
        random_instance("explicit", 25, 0)


def test_failed_verification_names_the_check(monkeypatch):
    """A generated table is checked once, by ExplicitModel; a failure is a
    construction bug, reported with the model's error instead of being
    re-drawn. Here one family is the supermodular AND of all three products."""
    monkeypatch.setattr(
        generators,
        "_concave_cardinality_table",
        lambda n, rng: {m: 1000.0 * (m == (1 << n) - 1) for m in range(1 << n)},
    )
    want = "^core: table not submodular at mask 0x1 plus products 1 and 2$"
    with pytest.raises(ValidationError, match=want):
        random_explicit_model(3, 0)


def test_random_lambda_mass():
    rng = np.random.default_rng(1)
    assert sum(random_lambda(5, rng, full_mass=True)) == pytest.approx(1.0)
    partial = random_lambda(5, rng, full_mass=False)
    assert 0.0 < sum(partial) <= 1.0


def test_random_payments_monotone_in_position():
    r = np.array(random_payments(6, 3))
    assert np.all(r[:-1] >= r[1:] - 1e-12)
    assert np.all(r >= 0)


def test_random_instances_validate():
    rng = np.random.default_rng(2)
    for kind in ("mnl", "coverage", "explicit"):
        inst = random_instance(kind, 5, rng, with_payments=True)
        assert inst.n == 5
        assert sum(inst.lam) <= 1.0 + 1e-9


def test_random_coverage_instance_nonempty_sets():
    ci = random_coverage_instance(8, 4)
    assert all(0 < s < 1 << 8 for s in ci.interest_sets)


def test_random_policy_mixture_normalized():
    pv = random_policy_mixture(5, 4, 9)
    assert pv.layer_sums() == pytest.approx([1.0] * 5, abs=1e-9)


def test_random_subset_distribution_sums_to_one():
    dist = random_subset_distribution(6, 11)
    assert sum(p for _, p in dist) == pytest.approx(1.0)
