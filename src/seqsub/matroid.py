"""The prefix (laminar) matroid over position-product pairs, and its rounding.

The ground set has n^2 elements (i, j) = "product j occupies position i",
both 0-based. A lifted set is a boolean (n, n) array, or a (..., n, n) batch
of them, with R[i, j] true iff (i, j) is in the set. A set is independent iff
it never crowds more than k elements into the top k positions, for
k = 1..n: the prefix sets A_k = {(i, j) : i < k} are nested, each with
capacity k. Equivalently it is a scheduling matroid: element (i, j) needs a
slot of its own among 0..i. Within the unit box the prefix-sum constraints
describe its polytope exactly.

The Monte Carlo routines take an objective g that evaluates boolean
membership tensors of shape (B, n, n): `g.batch_value(incl)` gives g of each
of the B sets, and `g.batch_marginal_weights(incl)` the per-element marginals
g(R\\e + e) - g(R\\e). Every randomized operation requires a seed or a numpy
Generator (anything np.random.default_rng accepts) and is reproducible; a
pipeline passes one Generator through all of its draws. Sampling and
contention resolution take their uniform draws instead, and work on a batch
of lifted sets at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PolytopeError, SeqsubError, ValidationError
from .numerics import TOL


def is_independent(R: np.ndarray) -> np.ndarray:
    """Per set or point of a (..., n, n) array: every prefix capacity holds within TOL."""
    n = R.shape[-1]
    return (np.cumsum(R.sum(axis=-1), axis=-1) <= np.arange(1, n + 1) + TOL).all(axis=-1)


def _greedy_scan(n: int, elems) -> np.ndarray:
    """The lifted set kept by scanning elems, row-major indices i * n + j,
    in order and keeping each one iff the kept set stays independent.

    Element (i, j) fits iff one of the slots 0..i is still free, and taking
    the latest free one never turns a later element away. A union-find finds
    it: latest[s] leads to the latest free slot below s, as slot number + 1
    (0 when none is free). The scan stops at rank n, when no slot is free.
    """
    latest = list(range(n + 1))
    kept = []
    for e in elems:
        s = e // n + 1
        while latest[s] != s:
            latest[s] = latest[latest[s]]
            s = latest[s]
        if s:
            latest[s] = s - 1
            kept.append(e)
            if len(kept) == n:
                break
    R = np.zeros(n * n, dtype=bool)
    R[kept] = True
    return R.reshape(n, n)


def max_weight_base(n: int, w) -> np.ndarray:
    """Greedy maximum-weight base, a boolean (n, n) array; ties broken by
    (position, product).

    The union-find scan takes elements in descending weight (a stable sort
    of the row-major weights, so -0.0 ties 0.0); negative-weight elements
    are taken only when needed to complete a base, which the exchange
    property makes optimal among bases.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (n, n) or not np.all(np.isfinite(w)):
        raise ValidationError("matroid: weights must be a finite n x n matrix")
    return _greedy_scan(n, np.argsort(-w, axis=None, kind="stable").tolist())


def in_matroid_polytope(n: int, x) -> bool:
    """Prefix-sum test: sum over the top k positions <= k + TOL for all k.

    For this laminar matroid the prefix constraints (with entries already in
    [0, 1]) describe the full independent-set polytope.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (n, n):
        raise ValidationError("matroid: point must be an n x n matrix")
    return bool(is_independent(x))


def _check_unit_box(x: np.ndarray) -> np.ndarray:
    """x clipped to [0, 1]; ValidationError for NaN or a coordinate over TOL outside."""
    lo, hi = x.min(initial=0.0), x.max(initial=0.0)  # NaN propagates
    if not (lo >= -TOL and hi <= 1.0 + TOL):
        raise ValidationError("matroid: coordinates must be finite and lie in [0, 1]")
    return x if lo >= 0.0 and hi <= 1.0 else np.clip(x, 0.0, 1.0)


def _polytope_point(n: int, x, what: str) -> np.ndarray:
    """A float copy of x clipped to the unit box; PolytopeError off the polytope."""
    x = _check_unit_box(np.array(x, dtype=float))
    if not in_matroid_polytope(n, x):
        raise PolytopeError(f"matroid: {what} outside the matroid polytope")
    return x


@dataclass
class MultilinearEstimate:
    mean: float
    stderr: float


def estimate_multilinear(g, x, samples: int, seed) -> MultilinearEstimate:
    """Monte Carlo estimate of E[g(R(x))] under independent inclusion."""
    if samples < 1:
        raise ValidationError("matroid: need at least one sample")
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(seed)
    incl = sample_independent_point(x, rng.random((samples,) + x.shape))
    vals = np.asarray(g.batch_value(incl), dtype=float)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return MultilinearEstimate(mean, stderr)


def continuous_greedy(
    g, n: int, steps: int = 40, samples_per_step: int = 200, *, seed
) -> np.ndarray:
    """Continuous greedy for monotone g: ascend along max-weight bases.

    Each step estimates per-element gradients E[g(R\\e + e) - g(R\\e)] with
    common random draws R across elements (the element's own coordinate is
    ignored, making this the exact multilinear gradient rather than the
    (1 - y_e)-damped marginal), takes the max-weight base under those
    weights, and moves 1/steps toward its indicator. The output always lies
    in the matroid polytope.
    """
    if steps < 1 or samples_per_step < 1:
        raise ValidationError("matroid: steps and samples_per_step must be >= 1")
    rng = np.random.default_rng(seed)
    y = np.zeros((n, n))
    for _ in range(steps):
        incl = rng.random((samples_per_step, n, n)) < y
        w = np.asarray(g.batch_marginal_weights(incl), dtype=float).mean(axis=0)
        y[max_weight_base(n, w)] += 1.0 / steps
    np.clip(y, 0.0, 1.0, out=y)
    return y


def sample_independent_point(x, u: np.ndarray) -> np.ndarray:
    """Boolean membership u < x: with u uniform on [0, 1), each element is
    included independently with probability x[i, j].

    u has shape (..., n, n), one lifted set per leading index, and x is
    checked against the unit box once for all of them. The draw is
    statistically independent per coordinate; the result need not be
    matroid-independent.
    """
    x = _check_unit_box(np.asarray(x, dtype=float))
    return u < x


def pipage_round(n: int, x, seed) -> np.ndarray:
    """Round a polytope point to an independent lifted set, a boolean (n, n)
    array.

    Repeatedly takes the two lexicographically smallest fractional
    coordinates; they always admit movement along +/-(e_a - e_b) within the
    polytope (the chain structure leaves at most one fractional coordinate
    below the second one, so no intermediate prefix constraint can be tight).
    The direction is drawn with probabilities that preserve the expected
    point, so E[g(output)] >= E[g(R(x))] for submodular g. A final lone
    fractional coordinate is rounded up with its own probability, which
    capacity integrality keeps feasible. Integral inputs are returned
    unchanged. Only a move changes a coordinate's fractional status, so the
    row-major list of fractional coordinates is built once and each move
    snaps and re-tests just the two it touched. Only the first move snaps
    the whole point, clearing the input's sub-TOL dust after that move's
    prefix sums have read it.
    """
    x = _polytope_point(n, x, "pipage input")
    rng = np.random.default_rng(seed)
    frac = [tuple(e) for e in np.argwhere((x > TOL) & (x < 1.0 - TOL)).tolist()]
    rounds = 0
    while frac:
        rounds += 1
        if rounds > 2 * n * n + 8:  # pragma: no cover - defensive
            raise SeqsubError("matroid: pipage failed to make progress")
        a = frac[0]
        if len(frac) == 1:
            x[a] = 1.0 if rng.random() < x[a] else 0.0
            break
        b = frac[1]
        pa, pb = a[0], b[0]
        d_plus = min(1.0 - x[a], x[b])
        if pa != pb:
            prefix = np.cumsum(x.sum(axis=1))
            for k in range(pa + 1, pb + 1):
                d_plus = min(d_plus, k - prefix[k - 1])
        d_minus = min(x[a], 1.0 - x[b])
        d_plus = max(d_plus, 0.0)
        if d_plus <= 0.0:
            # numerically tight capacity from sub-TOL dust; forced move
            go_plus = False
        else:
            go_plus = rng.random() < d_minus / (d_plus + d_minus)
        if go_plus:
            x[a] += d_plus
            x[b] -= d_plus
        else:
            x[a] -= d_minus
            x[b] += d_minus
        if rounds == 1:  # clears the input's sub-TOL dust; after it only a and b move
            x[x < TOL] = 0.0
            x[x > 1.0 - TOL] = 1.0
        else:
            for e in (a, b):
                x[e] = 0.0 if x[e] < TOL else 1.0 if x[e] > 1.0 - TOL else x[e]
        frac[:2] = [e for e in (a, b) if TOL < x[e] < 1.0 - TOL]

    result = x > 0.5
    if not is_independent(result):  # pragma: no cover - structural guarantee
        raise SeqsubError("matroid: pipage produced a dependent set")
    return result


def crs_round(n: int, x, A: np.ndarray, priority: np.ndarray) -> np.ndarray:
    """Random-order greedy contention resolution for a batch of B sets.

    A is a boolean (B, n, n) array of sampled sets and priority a (B, n, n)
    array of i.i.d. uniform draws. For each set, the elements of A that carry
    positive mass in x are scanned in increasing priority, a uniformly random
    order, and an element is kept iff the kept set stays independent; a set
    whose live elements are already independent is kept whole, and the
    others go through max_weight_base's scan one at a time. The output is
    always independent and the scheme is monotone (an element survives a
    superset A only if it survives A). Its per-element retention constant is
    measured empirically by the test suite rather than assumed.
    """
    x = _polytope_point(n, x, "contention resolution input")
    kept = np.asarray(A, dtype=bool) & (x > 0.0)
    for b in np.flatnonzero(~is_independent(kept)):
        live = np.flatnonzero(kept[b])  # row-major, so the stable sort ties by element
        order = live[np.argsort(priority[b].ravel()[live], kind="stable")]
        kept[b] = _greedy_scan(n, order.tolist())
    if not is_independent(kept).all():  # pragma: no cover - structural guarantee
        raise SeqsubError("matroid: contention resolution produced a dependent set")
    return kept
