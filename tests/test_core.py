"""Click models, objective evaluation, validation, and the JSON format."""

import json
import math

import numpy as np
import pytest

from seqsub import core, oracle
from seqsub.core import CoverageModel, ExplicitModel, Instance, MnlModel
from seqsub.errors import UnknownSubsetError, ValidationError
from seqsub.generators import random_instance
from seqsub.util import mask_of


def naive_engagement(inst, order):
    """Independent re-evaluation: rebuild every prefix set from scratch."""
    total = 0.0
    for i in range(inst.n):
        prefix = mask_of(order[: i + 1])
        total += inst.lam[i] * inst.models[i].value(prefix)
    return total


def test_mnl_singleton_value():
    model = MnlModel(2, (1.0, 1.0), 1.0)
    assert model.value(mask_of({0})) == pytest.approx(0.5)
    assert model.value(0) == 0.0


def test_coverage_on_matching_universe():
    # products 0,2 cover one element; 1,3 the other; unit weights
    model = CoverageModel(4, (1.0, 1.0), ((0,), (1,), (0,), (1,)))
    assert model.value(mask_of({0, 2})) == pytest.approx(1.0)
    assert model.value(mask_of({0, 1})) == pytest.approx(2.0)
    assert model.value(0) == 0.0


def test_explicit_full_set_value(appendix_c):
    assert appendix_c.models[0].value(mask_of({0, 1, 2, 3})) == pytest.approx(0.74)


def test_explicit_unknown_subset_raises():
    model = ExplicitModel(2, {0: 0.0, 1: 0.5})
    with pytest.raises(UnknownSubsetError):
        model.value(3)


def test_explicit_batch_matches_scalar(appendix_c):
    model = appendix_c.models[0]
    members = np.array(
        [[False] * 4, [True, False, False, True], [True] * 4], dtype=bool
    )
    np.testing.assert_allclose(model.batch_value(members), [0.0, 0.40, 0.74])
    # every click model's batch kernel agrees with value() on every mask
    n = 5
    every_mask = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1 == 1
    rng = np.random.default_rng(47)
    for kind in ("mnl", "coverage", "explicit"):
        model = random_instance(kind, n, rng).models[0]
        batch = model.batch_value(every_mask)
        for mask in range(1 << n):
            assert batch[mask] == pytest.approx(model.value(mask), abs=1e-12), (kind, mask)


def test_engagement_on_worked_instance(appendix_c):
    val = core.engagement(appendix_c, (0, 1, 2, 3))
    assert val == pytest.approx(0.25 * (0.20 + 0.39 + 0.58 + 0.74), abs=1e-12)
    assert val == pytest.approx(0.4775, abs=1e-9)


def test_engagement_zero_weights():
    model = MnlModel(3, (1.0, 1.0, 1.0), 1.0)
    inst = Instance(3, (0.0,) * 3, (model,) * 3, tuple((0.0,) * 3 for _ in range(3)))
    assert core.engagement(inst, (2, 0, 1)) == 0.0


@pytest.mark.parametrize("kind", ["mnl", "coverage", "explicit"])
def test_engagement_matches_naive_reevaluation(kind):
    rng = np.random.default_rng(17)
    for trial in range(6):
        inst = random_instance(kind, 5, rng, with_payments=True)
        order = tuple(int(p) for p in rng.permutation(5))
        assert core.engagement(inst, order) == pytest.approx(
            naive_engagement(inst, order), abs=1e-12
        )


def test_revenue_on_worked_instance(appendix_c):
    assert core.revenue(appendix_c, (0, 1, 2, 3)) == pytest.approx(47.75, abs=1e-9)


def test_revenue_identity_payments_count_fixed_points():
    model = MnlModel(4, (1.0,) * 4, 1.0)
    # columns must be non-increasing, so pay 1 at and above the diagonal
    r = tuple(tuple(1.0 if i <= j else 0.0 for j in range(4)) for i in range(4))
    inst = Instance(4, (0.25,) * 4, (model,) * 4, r, K=0.0)
    # with K=0 revenue is the pure placement sum
    order = (2, 0, 3, 1)
    expected = sum(r[i][order[i]] for i in range(4))
    assert core.revenue(inst, order) == pytest.approx(expected)


def test_revenue_decomposition_identity():
    rng = np.random.default_rng(23)
    for trial in range(6):
        inst = random_instance("mnl", 5, rng, with_payments=True)
        order = tuple(int(p) for p in rng.permutation(5))
        linear = sum(inst.r[i][order[i]] for i in range(5))
        lhs = core.revenue(inst, order) - inst.K * core.engagement(inst, order)
        assert lhs == pytest.approx(linear, abs=1e-12)


def test_prefix_improvement_never_hurts():
    # replacing the set at a prefix with a superset never decreases a term
    table = {m: 0.1 * bin(m).count("1") for m in range(8)}
    model = ExplicitModel(3, table)
    for m in range(8):
        for sup in range(8):
            if sup & m == m:
                assert model.value(sup) >= model.value(m) - 1e-12


@pytest.mark.parametrize("kind", ["mnl", "coverage"])
def test_random_models_are_monotone_submodular(kind):
    rng = np.random.default_rng(31)
    for trial in range(5):
        inst = random_instance(kind, 7, rng)
        check = oracle.verify_monotone_submodular(inst.models[0], 7)
        assert check.ok, check


def test_instance_validation_errors():
    model = MnlModel(2, (1.0, 1.0), 1.0)
    zeros = ((0.0, 0.0), (0.0, 0.0))
    with pytest.raises(ValidationError):
        Instance(2, (0.7, 0.7), (model,) * 2, zeros)  # mass > 1
    with pytest.raises(ValidationError):
        Instance(2, (-0.1, 0.5), (model,) * 2, zeros)  # negative weight
    increasing = ((0.0, 0.0), (1.0, 0.0))  # payment grows down a column
    with pytest.raises(ValidationError):
        Instance(2, (0.5, 0.5), (model,) * 2, increasing)
    with pytest.raises(ValidationError):
        Instance(2, (0.5, 0.5), (model,), zeros)  # missing a model


def test_model_validation_errors():
    with pytest.raises(ValidationError):
        MnlModel(2, (1.0, -1.0), 1.0)
    with pytest.raises(ValidationError):
        MnlModel(2, (1.0, 1.0), 0.0)
    with pytest.raises(ValidationError):
        CoverageModel(2, (-1.0,), ((0,), (0,)))
    with pytest.raises(ValidationError):
        ExplicitModel(2, {1: 0.5, 3: 0.4})  # not monotone


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_numbers_are_rejected(bad):
    model = MnlModel(2, (1.0, 1.0), 1.0)
    zeros = ((0.0, 0.0), (0.0, 0.0))
    builds = [
        lambda: ExplicitModel(2, {0: 0.0, 1: bad}),
        lambda: CoverageModel(2, (bad,), ((0,), (0,))),
        lambda: MnlModel(2, (1.0, bad), 1.0),
        lambda: MnlModel(2, (1.0, 1.0), bad),
        lambda: Instance(2, (bad, 0.5), (model,) * 2, zeros),
        lambda: Instance(2, (0.5, 0.5), (model,) * 2, ((bad, 0.0), (0.0, 0.0))),
        lambda: Instance(2, (0.5, 0.5), (model,) * 2, zeros, K=bad),
        lambda: Instance(2, (0.5, 0.5), (model,) * 2, zeros, T=bad),
    ]
    for build in builds:
        with pytest.raises(ValidationError, match="finite"):
            build()


def test_permutation_validation():
    with pytest.raises(ValidationError):
        core.validate_permutation((0, 0, 1), 3)
    with pytest.raises(ValidationError):
        core.validate_permutation((0, 1), 3)


def test_instance_json_roundtrip(tmp_path, appendix_c, example_1):
    for inst in (appendix_c, example_1):
        path = tmp_path / "inst.json"
        core.save_instance(inst, path)
        again = core.load_instance(path)
        assert again == inst


def test_instance_json_roundtrip_coverage_and_mnl(tmp_path):
    rng = np.random.default_rng(5)
    for kind in ("coverage", "mnl"):
        inst = random_instance(kind, 4, rng, with_payments=True)
        path = tmp_path / f"{kind}.json"
        core.save_instance(inst, path)
        assert core.load_instance(path) == inst


def test_explicit_masks_are_hex(tmp_path):
    model = ExplicitModel(4, {m: 0.05 * bin(m).count("1") for m in range(16)})
    inst = Instance(4, (0.25,) * 4, (model,) * 4, tuple((0.0,) * 4 for _ in range(4)))
    path = tmp_path / "hex.json"
    core.save_instance(inst, path)
    data = json.loads(path.read_text())
    table = data["click_model"]["table"]
    assert "f" in table and table["f"] == pytest.approx(0.2)
    assert "a" in table  # mask 10 rendered as hex


def test_external_order_is_one_based():
    assert core.order_to_external((2, 0, 1)) == [3, 1, 2]
    assert core.order_from_external([3, 1, 2]) == (2, 0, 1)
