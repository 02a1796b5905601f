"""Click models, objective evaluation, validation, and the JSON format."""

import itertools
import json
import math
import re

import numpy as np
import pytest

from seqsub import core
from seqsub.core import CoverageModel, ExplicitModel, Instance, MnlModel
from seqsub.errors import TooLargeError, ValidationError
from seqsub.generators import random_explicit_model, random_instance
from seqsub.numerics import TOL
from seqsub.util import mask_of

from auditors import verify_monotone_submodular


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
    """Every subset must be listed: a table with an unknown subset is refused
    when it is built, and the error names the smallest missing mask."""
    with pytest.raises(ValidationError, match="^core: explicit table has no entry for mask 0x2$"):
        ExplicitModel(2, {0: 0.0, 1: 0.5})
    with pytest.raises(ValidationError, match="no entry for mask 0x0$"):
        ExplicitModel(3, {m: 0.1 * m for m in range(1, 8)})


def test_explicit_batch_gain_on_partial_table_raises():
    """A partial table never reaches batch_gain: construction refuses it."""
    with pytest.raises(ValidationError, match="^core: explicit table has no entry for mask 0x2$"):
        ExplicitModel(2, {0: 0.0, 1: 0.5, 3: 0.7})


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


def _gain_cases():
    """Click models for the gain kernel: every kind at small n, plus edge cases."""
    rng = np.random.default_rng(53)
    for kind in ("mnl", "coverage", "explicit"):
        for n in (1, 2, 5):
            yield f"{kind}-{n}", random_instance(kind, n, rng).models[0]
    yield "coverage-no-universe", CoverageModel(3, (), ((), (), ()))
    yield "mnl-zero-weights", MnlModel(3, (0.0, 0.0, 0.0), 1.0)


@pytest.mark.parametrize("name, model", list(_gain_cases()))
def test_batch_gain_matches_value_definition(name, model):
    """batch_gain(T)[j] = f(T + j) - f(T - j), on empty, full and random T."""
    n = model.n
    rng = np.random.default_rng(61)
    members = np.vstack(
        [np.zeros((1, n), bool), np.ones((1, n), bool), rng.random((12, n)) < 0.5]
    )
    gains = model.batch_gain(members)
    assert gains.shape == (len(members), n)
    assert model.batch_gain(members[:0]).shape == (0, n)
    for row, T in zip(gains, members):
        mask = mask_of(j for j in range(n) if T[j])
        for j in range(n):
            want = model.value(mask | 1 << j) - model.value(mask & ~(1 << j))
            assert row[j] == pytest.approx(want, abs=1e-12), (name, mask, j)


def _first_table_violation(n, table):
    """Reference: the per-entry scan in ascending mask order, sign before
    monotonicity, products in ascending order; then the first S, x < y
    outside S, in ascending order, where y gains more at S + x than at S."""
    for m in range(1 << n):
        if table[m] < -TOL:
            return f"core: negative table value {table[m]} at mask {m:#x}"
        for j in range(n):
            if m >> j & 1 and table[m] < table[m & ~(1 << j)] - TOL:
                return f"core: table not monotone at mask {m:#x} minus product {j}"
    for m in range(1 << n):
        for x, y in itertools.combinations([j for j in range(n) if not m >> j & 1], 2):
            mx, my = m | 1 << x, m | 1 << y
            if table[mx | my] - table[mx] > table[my] - table[m] + TOL:
                return f"core: table not submodular at mask {m:#x} plus products {x} and {y}"
    return None


def test_explicit_table_errors_name_the_smallest_violating_mask():
    rng = np.random.default_rng(71)
    failures = 0
    for _ in range(600):
        n = int(rng.integers(1, 7))
        table = {m: m.bit_count() / n for m in range(1 << n)}
        for m in rng.integers(0, 1 << n, size=int(rng.integers(0, 4))):
            table[int(m)] = float(rng.uniform(-0.3, 1.2))
        want = _first_table_violation(n, table)
        if want is None:
            ExplicitModel(n, table)
            continue
        failures += 1
        with pytest.raises(ValidationError) as err:
            ExplicitModel(n, table)
        assert str(err.value) == want
    assert failures > 200


def test_table_check_agrees_with_the_auditor():
    """ExplicitModel and the exhaustive scan accept and reject the same
    tables, and reject them for the same kind of violation: generated tables
    at n <= 7, each with one or two entries scaled by 0.8-1.2. Every triple
    the model names breaks f(S + x) + f(S + y) >= f(S + x + y) + f(S)."""
    rng = np.random.default_rng(36)
    kinds = []
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        table = dict(random_explicit_model(n, rng).table)
        for m in rng.integers(0, 1 << n, size=int(rng.integers(1, 3))):
            table[int(m)] *= float(rng.uniform(0.8, 1.2))
        check = verify_monotone_submodular(table.__getitem__, n)
        try:
            ExplicitModel(n, table)
        except ValidationError as err:
            named = re.fullmatch(
                r"core: table not (\w+) at mask 0x(\w+) (?:plus products (\d) and (\d)|.*)",
                str(err),
            )
            assert named and not check.ok and named[1] == check.kind, (str(err), check)
            if check.kind == "submodular":
                m, x, y = int(named[2], 16), 1 << int(named[3]), 1 << int(named[4])
                assert table[m | x] + table[m | y] < table[m | x | y] + table[m], str(err)
        else:
            assert check.ok, check
        kinds.append(check.kind)
    assert kinds.count("submodular") > 200 and kinds.count(None) > 200


def test_explicit_table_size_cap():
    """A complete table at the cap builds; one product more is too large."""
    n = core.MAX_EXPLICIT_N
    model = ExplicitModel(n, {m: m.bit_count() / n for m in range(1 << n)})
    assert model.batch_value(np.ones((1, n), bool))[0] == model.value((1 << n) - 1) == 1.0
    with pytest.raises(TooLargeError):
        ExplicitModel(n + 1, {})
    with pytest.raises(ValidationError):
        ExplicitModel(0, {0: 0.0})


@pytest.mark.parametrize("n", [127, 128, 256])
def test_coverage_counts_do_not_wrap(n):
    """Every product covers element 0: past 127 selected products an int8
    count wraps, and the element would read as uncovered."""
    model = CoverageModel(n, (1.0, 2.0), ((0,),) * (n - 1) + ((0, 1),))
    members = np.ones((2, n), bool)
    members[1, -1] = False
    full = (1 << n) - 1
    np.testing.assert_array_equal(
        model.batch_value(members), [model.value(full), model.value(full >> 1)]
    )
    assert model.value(full) == 3.0
    # T xor j of the full set drops one product: only the last one uncovers element 1
    np.testing.assert_array_equal(model.batch_gain(members[:1]), [[0.0] * (n - 1) + [2.0]])


def _wide_coverage_instance() -> Instance:
    """70 universe elements; the covers name elements 63 and 69, past int64."""
    weights = tuple(1.0 + 0.01 * e for e in range(70))
    model = CoverageModel(3, weights, ((0, 63), (1, 69), (63, 69)))
    return Instance(3, (0.5, 0.3, 0.2), (model,) * 3, tuple((0.0,) * 3 for _ in range(3)))


def test_coverage_past_63_universe_elements_matches_the_cover_matrix():
    model = _wide_coverage_instance().models[0]
    members = np.array([[(m >> j) & 1 for j in range(3)] for m in range(8)], bool)
    np.testing.assert_allclose(
        model.batch_value(members), [model.value(m) for m in range(8)], rtol=1e-15
    )
    assert model.value(0b111) == pytest.approx(sum(1.0 + 0.01 * e for e in (0, 1, 63, 69)))


def test_run_greedy_on_coverage_past_63_universe_elements(tmp_path):
    from seqsub.cli import main

    path = tmp_path / "wide.json"
    core.save_instance(_wide_coverage_instance(), path)
    assert main(["run", "greedy", "--instance", str(path), "--out", str(tmp_path / "g.json")]) == 0


def test_random_coverage_model_with_a_wide_universe_constructs():
    inst = random_instance("coverage", 50, 3000)
    assert max(max(c, default=0) for c in inst.models[0].covers) >= 63


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
        check = verify_monotone_submodular(inst.models[0], 7)
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
    with pytest.raises(ValidationError, match="not monotone at mask 0x3 minus product 1"):
        ExplicitModel(2, {0: 0.0, 1: 0.5, 2: 0.0, 3: 0.4})


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
