"""Domain types and exact objective evaluation for ranked product lists.

An Instance bundles n products, a patience distribution lam (lam[i] =
probability the user inspects exactly i+1 top items; total mass may be below
1, the deficit being users who see nothing), one monotone submodular click
model per patience level, placement payments r[i][j] (position i, product j,
non-increasing down each column), a per-click payment K and an engagement
floor T.

For a permutation `order` (0-based product indices; order[i] sits at
position i):

    engagement(order) = sum_i lam[i] * f_i({order[0..i]})
    revenue(order)    = sum_i r[i][order[i]] + K * engagement(order)

Product subsets are bitmasks (bit j = product j). In JSON files products are
1-based and explicit tables are keyed by hex masks with bit 0 = product 1,
so the mask integers coincide with the internal representation.

All types are immutable after construction and evaluation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import TooLargeError, ValidationError
from .numerics import TOL
from .util import iter_bits, json_field, mask_of, read_json, write_json

#: Explicit tables enumerate all subsets; hard cap on the ground size.
MAX_EXPLICIT_N = 20

Permutation = tuple[int, ...]


def validate_permutation(order: Sequence[int], n: int) -> Permutation:
    order = tuple(int(p) for p in order)
    if sorted(order) != list(range(n)):
        raise ValidationError(f"core: not a permutation of 0..{n - 1}: {order}")
    return order


def _gain(members: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """f(T + j) - f(T - j) for each row T of members and product j, from the
    values of f at T, T xor product 0, ..., T xor product n-1 per row."""
    vals = vals.reshape(members.shape[0], members.shape[1] + 1)
    fT, fx = vals[:, :1], vals[:, 1:]
    return np.where(members, fT - fx, fx - fT)


def _finite(values, what: str) -> tuple[float, ...]:
    """values as floats; a ValidationError if one is NaN or infinite."""
    out = tuple(float(v) for v in values)
    for v in out:
        if not math.isfinite(v):
            raise ValidationError(f"core: {what} must be finite, got {v}")
    return out


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ExplicitModel:
    """Click function given as a subset -> value table over all 2^n subsets.

    The table must list every subset; values must be nonnegative and monotone
    along subset inclusion. All three are checked once, at construction.
    Values above 1 are allowed: tables may encode expected rewards rather
    than probabilities. Submodularity is not checked here; use
    oracle.verify_monotone_submodular.
    """

    n: int
    table: Mapping[int, float]
    _dense: np.ndarray = field(init=False, repr=False, compare=False)
    _pow2: np.ndarray = field(init=False, repr=False, compare=False)
    _flip: np.ndarray = field(init=False, repr=False, compare=False)  # 0, then each product's bit

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"core: explicit model needs n >= 1, got {self.n}")
        if self.n > MAX_EXPLICIT_N:
            raise TooLargeError(f"core: explicit model needs n <= {MAX_EXPLICIT_N}, got {self.n}")
        tbl = {int(m): float(v) for m, v in self.table.items()}
        object.__setattr__(self, "table", tbl)
        size = 1 << self.n
        for m, v in tbl.items():
            if not 0 <= m < size:
                raise ValidationError(f"core: table mask {m:#x} outside ground set")
            if not math.isfinite(v):
                raise ValidationError(f"core: non-finite table value {v} at mask {m:#x}")
        if len(tbl) < size:
            missing = next(m for m in range(size) if m not in tbl)
            raise ValidationError(f"core: explicit table has no entry for mask {missing:#x}")
        dense = np.array([tbl[m] for m in range(size)])
        bad = dense < -TOL
        for j in range(self.n):  # [:, 1]: the masks with product j; [:, 0]: the same without j
            d = dense.reshape(-1, 2, 1 << j)
            bad.reshape(-1, 2, 1 << j)[:, 1] |= d[:, 1] < d[:, 0] - TOL
        if bad.any():
            m = int(bad.argmax())
            if tbl[m] < -TOL:
                raise ValidationError(f"core: negative table value {tbl[m]} at mask {m:#x}")
            j = next(j for j in iter_bits(m) if tbl[m] < tbl[m & ~(1 << j)] - TOL)
            raise ValidationError(f"core: table not monotone at mask {m:#x} minus product {j}")
        pow2 = 1 << np.arange(self.n, dtype=np.int64)
        flip = np.append(0, pow2)
        for name, arr in (("_dense", dense), ("_pow2", pow2), ("_flip", flip)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def value(self, mask: int) -> float:
        return self.table[mask]

    def batch_value(self, members: np.ndarray) -> np.ndarray:
        return self._dense[members.astype(np.int64) @ self._pow2]

    def batch_gain(self, members: np.ndarray) -> np.ndarray:
        """f(T + j) - f(T - j) for each row T of members and product j: (R, n)."""
        masks = members.astype(np.int64) @ self._pow2
        return _gain(members, self._dense[masks[:, None] ^ self._flip])


@dataclass(frozen=True)
class CoverageModel:
    """Weighted coverage: value(S) = total weight of universe elements covered.

    covers[j] is the set of universe element indices product j covers. With
    normalize=True the value is divided by the total universe weight.
    """

    n: int
    weights: tuple[float, ...]
    covers: tuple[tuple[int, ...], ...]
    normalize: bool = False
    _weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = _finite(self.weights, "universe weight")
        if any(x < 0 for x in w):
            raise ValidationError("core: negative universe weight")
        if len(self.covers) != self.n:
            raise ValidationError("core: coverage needs one cover set per product")
        cov = tuple(tuple(sorted(set(int(e) for e in c))) for c in self.covers)
        for c in cov:
            if any(not 0 <= e < len(w) for e in c):
                raise ValidationError("core: cover references unknown universe element")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_weights", _frozen_array(w))
        object.__setattr__(self, "covers", cov)
        object.__setattr__(self, "_cover_masks", tuple(mask_of(c) for c in cov))
        # 0/1 cover matrix in the smallest signed type that counts up to n
        mat = np.zeros((self.n, len(w)), dtype=np.min_scalar_type(-self.n - 1))
        for j, c in enumerate(cov):
            mat[j, list(c)] = 1
        mat.setflags(write=False)
        object.__setattr__(self, "_cover_matrix", mat)
        total = sum(w)
        object.__setattr__(self, "_scale", 1.0 / total if self.normalize and total > 0 else 1.0)

    def value(self, mask: int) -> float:
        covered = 0
        for j in iter_bits(mask):
            covered |= self._cover_masks[j]
        total = sum(self.weights[e] for e in iter_bits(covered))
        return total * self._scale

    def _counts(self, members: np.ndarray) -> np.ndarray:
        """How many selected products cover each universe element: (R, U)."""
        return members.astype(self._cover_matrix.dtype) @ self._cover_matrix

    def _weigh(self, covered: np.ndarray) -> np.ndarray:
        return (covered @ self._weights) * self._scale

    def batch_value(self, members: np.ndarray) -> np.ndarray:
        return self._weigh(self._counts(members) > 0)

    def batch_gain(self, members: np.ndarray) -> np.ndarray:
        """f(T + j) - f(T - j) for each row T of members and product j: (R, n)."""
        R, n = members.shape
        counts = self._counts(members)[:, None, :]
        sign = 1 - 2 * members.astype(self._cover_matrix.dtype)  # T xor j drops j if j in T
        flipped = counts + sign[:, :, None] * self._cover_matrix
        covered = np.concatenate([counts, flipped], axis=1) > 0
        return _gain(members, self._weigh(covered.reshape(R * (n + 1), len(self.weights))))


@dataclass(frozen=True)
class MnlModel:
    """Multinomial-logit click probability value(S) = w(S) / (w(S) + w0)."""

    n: int
    weights: tuple[float, ...]
    w0: float
    _weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = _finite(self.weights, "mnl weight")
        (w0,) = _finite((self.w0,), "mnl outside-option weight")
        if len(w) != self.n:
            raise ValidationError("core: mnl needs one weight per product")
        if any(x < 0 for x in w):
            raise ValidationError("core: negative mnl weight")
        if not w0 > 0:
            raise ValidationError("core: mnl outside-option weight must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_weights", _frozen_array(w))
        object.__setattr__(self, "w0", w0)

    def value(self, mask: int) -> float:
        ws = sum(self.weights[j] for j in iter_bits(mask))
        return ws / (ws + self.w0)

    def batch_value(self, members: np.ndarray) -> np.ndarray:
        ws = members.astype(float) @ self._weights
        return ws / (ws + self.w0)

    def batch_gain(self, members: np.ndarray) -> np.ndarray:
        """f(T + j) - f(T - j) for each row T of members and product j: (R, n)."""
        R, n = members.shape
        rows = members[:, None, :] ^ np.eye(n + 1, n, -1, dtype=bool)  # T, then T xor j
        return _gain(members, self.batch_value(rows.reshape(R * (n + 1), n)))


ClickModel = Union[ExplicitModel, CoverageModel, MnlModel]


@dataclass(frozen=True)
class Instance:
    """A ranking problem: sizes, patience weights, click models, payments."""

    n: int
    lam: tuple[float, ...]
    models: tuple[ClickModel, ...]
    r: tuple[tuple[float, ...], ...]
    K: float = 0.0
    T: float = 0.0

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValidationError(f"core: n must be at least 1, got {n}")
        lam = _finite(self.lam, "patience probability")
        if len(lam) != n:
            raise ValidationError("core: lambda length must equal n")
        if any(x < 0 for x in lam):
            raise ValidationError("core: negative patience probability")
        if sum(lam) > 1.0 + TOL:
            raise ValidationError(f"core: patience mass {sum(lam)} exceeds 1")
        if len(self.models) != n:
            raise ValidationError("core: one click model per patience level required")
        for f in self.models:
            if f.n != n:
                raise ValidationError("core: click model ground size differs from n")
        r = tuple(_finite(row, "placement payment") for row in self.r)
        if len(r) != n or any(len(row) != n for row in r):
            raise ValidationError("core: r must be an n x n matrix (row = position)")
        for i in range(n):
            for j in range(n):
                if r[i][j] < 0:
                    raise ValidationError("core: negative placement payment")
                if i + 1 < n and r[i][j] < r[i + 1][j] - TOL:
                    raise ValidationError(
                        f"core: placement payments must be non-increasing in position"
                        f" (column {j}, positions {i},{i + 1})"
                    )
        (K,) = _finite((self.K,), "per-click payment")
        (T,) = _finite((self.T,), "engagement floor")
        if K < 0:
            raise ValidationError("core: negative per-click payment")
        if T < 0:
            raise ValidationError("core: negative engagement floor")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "T", T)

    def with_threshold(self, T: float) -> "Instance":
        return replace(self, T=T)


def _prefix_value(inst: Instance, levels: Sequence[int]) -> float:
    """sum_i lam[i] * f_i(T_i), where T_i ORs the product masks levels[0..i]."""
    total, cum = 0.0, 0
    for i, level in enumerate(levels):
        cum |= level
        if inst.lam[i]:
            total += inst.lam[i] * inst.models[i].value(cum)
    return total


def engagement(inst: Instance, order: Sequence[int]) -> float:
    """Expected click probability sum_i lam[i] * f_i(first i+1 products)."""
    order = validate_permutation(order, inst.n)
    return _prefix_value(inst, [1 << p for p in order])


def revenue(inst: Instance, order: Sequence[int]) -> float:
    """Placement payments plus K times engagement."""
    order = validate_permutation(order, inst.n)
    linear = sum(inst.r[i][p] for i, p in enumerate(order))
    return linear + inst.K * engagement(inst, order)


# ---------------------------------------------------------------------------
# JSON instance files.
#
#   {"n": 4, "lambda": [...], "K": 100.0, "T": 0.0,
#    "r": [[...], ...],                       # row = position
#    "click_model": {"type": "explicit", "table": {"f": 0.74, ...}}}
#
# explicit payloads key subsets by hex masks (bit 0 = product 1) and may
# instead carry "per_patience": [table, ...] with one table per level;
# coverage payloads: {"weights": [...], "covers": [[elem, ...], ...],
# "normalize": false}; mnl payloads: {"weights": [...], "w0": 1.0}.
# ---------------------------------------------------------------------------


def _table_to_json(table: Mapping[int, float]) -> dict:
    return {format(m, "x"): v for m, v in sorted(table.items())}


def _table_from_json(data: Mapping[str, float], n: int) -> ExplicitModel:
    return ExplicitModel(n, {int(k, 16): float(v) for k, v in data.items()})


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _model_to_json(models: tuple[ClickModel, ...]) -> dict:
    first = models[0]
    shared = all(m is first or m == first for m in models)
    if isinstance(first, ExplicitModel):
        if shared:
            return {"type": "explicit", "table": _table_to_json(first.table)}
        return {
            "type": "explicit",
            "per_patience": [_table_to_json(m.table) for m in models],
        }
    if not shared:
        raise ValidationError("core: only explicit models support per-patience tables")
    if isinstance(first, CoverageModel):
        return {
            "type": "coverage",
            "weights": list(first.weights),
            "covers": [list(c) for c in first.covers],
            "normalize": first.normalize,
        }
    return {"type": "mnl", "weights": list(first.weights), "w0": first.w0}


def _models_from_json(data: Mapping, n: int) -> tuple[ClickModel, ...]:
    kind = data.get("type")
    if kind == "explicit":
        if "per_patience" in data:
            tables = json_field(
                data, "per_patience", lambda ts: [_table_from_json(t, n) for t in ts], "core"
            )
            if len(tables) != n:
                raise ValidationError("core: per_patience needs one table per level")
            return tuple(tables)
        shared = json_field(data, "table", lambda t: _table_from_json(t, n), "core")
        return (shared,) * n
    if kind == "coverage":
        shared = CoverageModel(
            n,
            json_field(data, "weights", _floats, "core"),
            json_field(data, "covers", lambda cs: tuple(tuple(map(int, c)) for c in cs), "core"),
            bool(data.get("normalize", False)),
        )
        return (shared,) * n
    if kind == "mnl":
        shared = MnlModel(
            n, json_field(data, "weights", _floats, "core"), json_field(data, "w0", float, "core")
        )
        return (shared,) * n
    raise ValidationError(f"core: unknown click model type {kind!r}")


def instance_to_json(inst: Instance) -> dict:
    return {
        "n": inst.n,
        "lambda": list(inst.lam),
        "K": inst.K,
        "T": inst.T,
        "r": [list(row) for row in inst.r],
        "click_model": _model_to_json(inst.models),
    }


def instance_from_json(data: Mapping) -> Instance:
    n = json_field(data, "n", int, "core")
    return Instance(
        n=n,
        lam=json_field(data, "lambda", _floats, "core"),
        models=_models_from_json(json_field(data, "click_model", dict, "core"), n),
        r=json_field(data, "r", lambda rows: tuple(_floats(row) for row in rows), "core"),
        K=json_field(data, "K", float, "core") if "K" in data else 0.0,
        T=json_field(data, "T", float, "core") if "T" in data else 0.0,
    )


def load_instance(path) -> Instance:
    return instance_from_json(read_json(path))


def save_instance(inst: Instance, path) -> None:
    write_json(path, instance_to_json(inst))


def order_to_external(order: Sequence[int]) -> list[int]:
    """0-based internal permutation -> 1-based product ids for files/reports."""
    return [p + 1 for p in order]


def order_from_external(order: Sequence[int]) -> Permutation:
    return tuple(int(p) - 1 for p in order)
