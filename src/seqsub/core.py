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

import json
import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import UnknownSubsetError, ValidationError
from .numerics import TOL
from .util import iter_bits, json_field, mask_of, read_json

#: Explicit tables enumerate all subsets; hard cap on the ground size.
MAX_EXPLICIT_N = 20

Permutation = tuple[int, ...]


def validate_permutation(order: Sequence[int], n: int) -> Permutation:
    order = tuple(int(p) for p in order)
    if sorted(order) != list(range(n)):
        raise ValidationError(f"core: not a permutation of 0..{n - 1}: {order}")
    return order


def _pow2(n: int) -> np.ndarray:
    return 1 << np.arange(n, dtype=np.int64)


def _finite(values, what: str) -> tuple[float, ...]:
    """values as floats; a ValidationError if one is NaN or infinite."""
    out = tuple(float(v) for v in values)
    for v in out:
        if not math.isfinite(v):
            raise ValidationError(f"core: {what} must be finite, got {v}")
    return out


@dataclass(frozen=True)
class ExplicitModel:
    """Click function given as a subset -> value table.

    Values must be nonnegative and monotone along subset inclusion (checked
    at construction for every table entry whose immediate subsets are also
    present). Values above 1 are allowed: tables may encode expected rewards
    rather than probabilities. Submodularity is not checked here; use
    oracle.verify_monotone_submodular. Tables may be partial; querying a
    missing subset raises UnknownSubsetError.
    """

    n: int
    table: Mapping[int, float]
    _dense: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.n <= MAX_EXPLICIT_N:
            raise ValidationError(f"core: explicit model needs 1 <= n <= {MAX_EXPLICIT_N}")
        tbl = {int(m): float(v) for m, v in self.table.items()}
        object.__setattr__(self, "table", tbl)
        full = (1 << self.n) - 1
        for m, v in tbl.items():
            if not 0 <= m <= full:
                raise ValidationError(f"core: table mask {m:#x} outside ground set")
            if not math.isfinite(v):
                raise ValidationError(f"core: non-finite table value {v} at mask {m:#x}")
            if v < -TOL:
                raise ValidationError(f"core: negative table value {v} at mask {m:#x}")
            for j in iter_bits(m):
                parent = m & ~(1 << j)
                if parent in tbl and v < tbl[parent] - TOL:
                    raise ValidationError(
                        f"core: table not monotone at mask {m:#x} minus product {j}"
                    )
        dense = np.full(1 << self.n, np.nan)
        for m, v in tbl.items():
            dense[m] = v
        dense.setflags(write=False)
        object.__setattr__(self, "_dense", dense)

    def value(self, mask: int) -> float:
        try:
            return self.table[mask]
        except KeyError:
            raise UnknownSubsetError(
                f"core: explicit table has no entry for mask {mask:#x}"
            ) from None

    def batch_value(self, members: np.ndarray) -> np.ndarray:
        masks = members.astype(np.int64) @ _pow2(self.n)
        vals = self._dense[masks]
        if np.isnan(vals).any():
            bad = int(masks[int(np.isnan(vals).argmax())])
            raise UnknownSubsetError(f"core: explicit table has no entry for mask {bad:#x}")
        return vals


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
        object.__setattr__(self, "covers", cov)
        masks = np.zeros(self.n, dtype=np.int64)
        for j, c in enumerate(cov):
            masks[j] = mask_of(c)
        object.__setattr__(self, "_cover_masks", tuple(int(m) for m in masks))
        mat = np.zeros((self.n, len(w)), dtype=bool)
        for j, c in enumerate(cov):
            mat[j, list(c)] = True
        mat.setflags(write=False)
        object.__setattr__(self, "_cover_matrix", mat)

    def _scale(self) -> float:
        if not self.normalize:
            return 1.0
        total = sum(self.weights)
        return 1.0 / total if total > 0 else 1.0

    def value(self, mask: int) -> float:
        covered = 0
        for j in iter_bits(mask):
            covered |= self._cover_masks[j]
        total = sum(self.weights[e] for e in iter_bits(covered))
        return total * self._scale()

    def batch_value(self, members: np.ndarray) -> np.ndarray:
        if not self.weights:
            return np.zeros(members.shape[0])
        covered = members.astype(np.int8) @ self._cover_matrix.astype(np.int8) > 0
        return (covered @ np.asarray(self.weights)) * self._scale()


@dataclass(frozen=True)
class MnlModel:
    """Multinomial-logit click probability value(S) = w(S) / (w(S) + w0)."""

    n: int
    weights: tuple[float, ...]
    w0: float

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
        object.__setattr__(self, "w0", w0)

    def value(self, mask: int) -> float:
        ws = sum(self.weights[j] for j in iter_bits(mask))
        return ws / (ws + self.w0) if ws > 0 else 0.0

    def batch_value(self, members: np.ndarray) -> np.ndarray:
        ws = members.astype(float) @ np.asarray(self.weights)
        return ws / (ws + self.w0)


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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_json(inst), fh, indent=2, sort_keys=True)
        fh.write("\n")


def order_to_external(order: Sequence[int]) -> list[int]:
    """0-based internal permutation -> 1-based product ids for files/reports."""
    return [p + 1 for p in order]


def order_from_external(order: Sequence[int]) -> Permutation:
    return tuple(int(p) - 1 for p in order)
