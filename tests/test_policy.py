"""Layer vectors, implementability certification, and policy sampling."""

import numpy as np
import pytest

from seqsub.errors import CertMismatchError, TooLargeError, ValidationError
from seqsub.generators import random_policy_mixture
from seqsub.matroid import in_matroid_polytope
from seqsub.policy import (
    MAX_CERTIFY_N,
    PolicyVector,
    check_implementable,
    load_policy,
    mixture_of_permutations,
    policy_from_json,
    policy_to_json,
    sample_policy,
    save_policy,
)

from auditors import marginals


def test_point_mass_marginals():
    pv = mixture_of_permutations([(1, 0)], [1.0])
    x = marginals(pv)
    assert x[0, 1] == pytest.approx(1.0)
    assert x[1, 0] == pytest.approx(1.0)
    assert x[0, 0] == x[1, 1] == 0.0


def test_worked_vector_marginals(worked_policy_vector):
    x = marginals(worked_policy_vector)
    expected = np.array(
        [
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.5, 0.5, 0.0],
            [0.5, 0.0, 0.0, 0.5],
        ]
    )
    np.testing.assert_allclose(x, expected, atol=1e-12)
    assert np.all(x >= -1e-9)
    assert in_matroid_polytope(4, x)


def test_uniform_mixture_marginals_are_flat():
    import itertools

    orders = list(itertools.permutations(range(3)))
    pv = mixture_of_permutations(orders, [1.0 / 6] * 6)
    np.testing.assert_allclose(marginals(pv), np.full((3, 3), 1.0 / 3.0), atol=1e-12)


def test_point_mass_policies_certify():
    rng = np.random.default_rng(2)
    for n in (1, 2, 4, 5):
        order = tuple(int(p) for p in rng.permutation(n))
        report = check_implementable(mixture_of_permutations([order], [1.0]))
        assert report.feasible
        assert all(abs(c.flow_value - 1.0) <= 1e-9 for c in report.certs)


def test_worked_vector_rejected_at_layer_three(worked_policy_vector):
    report = check_implementable(worked_policy_vector)
    assert not report.feasible
    assert report.reason == "flow-deficit"
    assert report.failing_layer == 3
    cert = report.certs[2]
    assert cert.flow_value == pytest.approx(0.5, abs=1e-9)
    # the stranded prefix {products 1 and 4} sits on the source side of the cut
    assert (2, 0b1001) in report.cut_nodes


def test_mixtures_certify_and_mixing_preserves_feasibility():
    rng = np.random.default_rng(7)
    pv1 = random_policy_mixture(4, 3, rng)
    pv2 = random_policy_mixture(4, 2, rng)
    assert check_implementable(pv1).feasible
    assert check_implementable(pv2).feasible
    for alpha in (0.3, 0.7):
        blended = PolicyVector(
            4,
            tuple(
                {
                    mask: alpha * a.get(mask, 0.0) + (1 - alpha) * b.get(mask, 0.0)
                    for mask in set(a) | set(b)
                }
                for a, b in zip(pv1.layers, pv2.layers)
            ),
        )
        assert check_implementable(blended).feasible


def test_implementable_marginals_are_proper(worked_policy_vector):
    rng = np.random.default_rng(13)
    for trial in range(20):
        n = int(rng.integers(2, 7))
        pv = random_policy_mixture(n, int(rng.integers(1, 5)), rng)
        x = marginals(pv)
        assert np.all(x >= -1e-9)
        np.testing.assert_allclose(x.sum(axis=1), np.ones(n), atol=1e-9)
        assert in_matroid_polytope(n, x)


def test_unnormalized_layer_reported():
    pv = PolicyVector(2, ({0b01: 0.5}, {0b11: 1.0}))
    report = check_implementable(pv)
    assert not report.feasible
    assert report.reason == "unnormalized"
    assert report.failing_layer == 1


def test_sample_point_mass_policy():
    pv = mixture_of_permutations([(2, 0, 1)], [1.0])
    report = check_implementable(pv)
    for s in range(5):
        assert sample_policy(pv, report.certs, seed=s) == (2, 0, 1)


def test_sample_two_permutation_mixture_frequencies():
    pv = mixture_of_permutations([(0, 1), (1, 0)], [0.5, 0.5])
    report = check_implementable(pv)
    first = 0
    trials = 10_000
    for s in np.random.SeedSequence(5).spawn(trials):
        order = sample_policy(pv, report.certs, seed=s)
        first += order[0] == 0
    assert abs(first / trials - 0.5) < 0.02


def test_sample_policy_reproduces_layer_distribution():
    """Round trip at every layer: sampled prefix-set frequencies converge to
    the vector (max deviation over 1e5 draws)."""
    rng = np.random.default_rng(3)
    pv = random_policy_mixture(4, 5, rng)
    report = check_implementable(pv)
    assert report.feasible
    counts = [dict() for _ in range(4)]
    trials = 100_000
    for s in np.random.SeedSequence(11).spawn(trials):
        order = sample_policy(pv, report.certs, seed=s)
        mask = 0
        for k, p in enumerate(order):
            mask |= 1 << p
            counts[k][mask] = counts[k].get(mask, 0) + 1
    for k in range(4):
        for mask, p in pv.layers[k].items():
            assert abs(counts[k].get(mask, 0) / trials - p) < 0.02
        for mask in counts[k]:
            assert pv.layers[k].get(mask, 0.0) > 0.0


def test_sample_policy_rejects_failing_certs(worked_policy_vector):
    report = check_implementable(worked_policy_vector)
    with pytest.raises(CertMismatchError):
        sample_policy(worked_policy_vector, report.certs, seed=0)


def test_policy_vector_validation():
    with pytest.raises(ValidationError):
        PolicyVector(2, ({0b11: 1.0}, {0b11: 1.0}))  # wrong subset size in layer 1
    with pytest.raises(ValidationError):
        PolicyVector(2, ({0b01: -0.5}, {0b11: 1.0}))  # negative beyond tolerance
    tiny = PolicyVector(2, ({0b01: -1e-10, 0b10: 1.0}, {0b11: 1.0}))
    assert tiny.layers[0][0b01] == 0.0  # clipped at construction


def test_policy_json_roundtrip(tmp_path, worked_policy_vector):
    path = tmp_path / "pv.json"
    save_policy(worked_policy_vector, path)
    again = load_policy(path)
    assert again == worked_policy_vector
    data = policy_to_json(worked_policy_vector)
    assert data[1][1]["set"] == "9"  # hex mask for the {1,4} prefix
    assert policy_from_json(data) == worked_policy_vector


def test_certification_size_cap():
    """A 20-permutation mixture certifies at the cap; one product more is too large."""
    report = check_implementable(random_policy_mixture(MAX_CERTIFY_N, 20, 5))
    assert report.feasible and len(report.certs) == MAX_CERTIFY_N
    with pytest.raises(TooLargeError):
        check_implementable(random_policy_mixture(MAX_CERTIFY_N + 1, 20, 5))
