"""util.dumps: the one JSON text function, byte for byte json.dumps's indent-2 text."""

import json
from collections import OrderedDict

import numpy as np
import pytest

from seqsub.util import dumps


class Row(list):
    """A list subclass, which json writes as a list."""


SHARED = {"b": [1, 2.5], "a": {"x": None}}

CORPUS = {
    "floats": [float("inf"), float("-inf"), float("nan"), -0.0, 1e-300, 1e16, 0.1, 2.0],
    "inf-string": {"alpha_ratio": "inf", "ratios": ["inf", 1.5]},
    "empties": [[], {}, [[]], [{}], {"a": [], "b": {}}, (), [()], {"t": (1, (2, ()))}],
    "tuples": (1, ("a", 2.5), [(), (None,)]),
    "strings": ["héllo", "日本", "\x00\x1f\x7f", 'quote " back \\ slash', "tab\tnew\nline", ""],
    "unicode-keys": {"ключ": 1, "\n": 2, "a\x01": [3]},
    "scalars": [True, False, None, 0, -7, 2**70, 1.0, "s"],
    "container-subclasses": [OrderedDict([("b", [1]), ("a", Row([2, {}]))]), Row([Row()])],
    "float-subclass": {"p": [np.float64(0.1), 1], "q": np.float64("inf")},
    "shared-at-two-depths": {"top": SHARED, "deep": [[SHARED, {"again": SHARED}]], "z": SHARED},
    "deep": {"l1": {"l2": {"l3": [{"l5": [[1], [2, {"k": "v"}]]}]}}},
    "top-level-scalar": 3.25,
    "top-level-empty": [],
}


@pytest.mark.parametrize("case", sorted(CORPUS))
def test_dumps_is_json_indent_2_text(case):
    data = CORPUS[case]
    assert dumps(data) == json.dumps(data, indent=2, sort_keys=True) + "\n"


def test_dumps_writes_non_str_keys_as_json_does():
    for data in ({1: "a", 2: [1]}, {1.5: [2], float("inf"): 0}, {True: [0], False: {}},
                 {None: [None]}, {False: 1, 7: 2}):
        assert dumps(data) == json.dumps(data, indent=2, sort_keys=True) + "\n"


def test_dumps_writes_a_shared_entry_at_each_level_of_a_long_list():
    entry = {"permutation": [3, 1, 2], "engagement": 0.25, "revenue": 1.5}
    other = {"permutation": [1, 2, 3], "engagement": 0.5, "revenue": 0.75}
    data = {"per_seed": [entry, other] * 50, "best": entry, "nested": [[entry]]}
    assert dumps(data) == json.dumps(data, indent=2, sort_keys=True) + "\n"


UNSERIALIZABLE = {
    "np.int64": np.int64(3),
    "set": {1, 2},
    "array": np.zeros(2),
    "object": object(),
    "bytes": b"x",
    "tuple-key": {(1, 2): 3},
    "tuple-key-of-a-list": {(1, 2): [3]},
    "mixed-keys": {1: 1, "a": 2},
    "mixed-keys-of-lists": {1: [1], "a": [2]},
}


@pytest.mark.parametrize("case", sorted(UNSERIALIZABLE))
@pytest.mark.parametrize("where", ["top", "in-a-list", "in-nested-dict"])
def test_dumps_raises_type_error_where_json_does(case, where):
    value = UNSERIALIZABLE[case]
    data = {"top": value, "in-a-list": [1, value], "in-nested-dict": {"a": [{"b": value}]}}[where]
    with pytest.raises(TypeError) as json_error:
        json.dumps(data, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as ours:
        dumps(data)
    assert str(ours.value) == str(json_error.value)
