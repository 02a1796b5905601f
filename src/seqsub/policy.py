"""Feasible ranking policies as layer probabilities, with flow certification.

A randomized ranking policy builds a permutation by appending one product at
a time. Layer k of a PolicyVector assigns to each size-k product set S the
probability x_{k,S} that the first k positions hold exactly S (the empty
prefix has mass 1 by convention). A vector is *implementable* iff some
policy realizes it, which holds iff every layer is normalized and, for each
consecutive pair of layers, one unit of flow fits through the bipartite
network: source -> S with capacity x_{k,S}, S -> S+{p} with capacity 1, and
T -> sink with capacity x_{k+1,T}. The per-edge flows certify the policy:
from prefix S the next product p is drawn with probability
flow(S, S+{p}) / x_{k,S}.

Layers are sparse maps keyed by subset bitmask; nodes of negligible mass
(numerics.MASS_TOL) are pruned from the flow networks. LP-style vectors
whose layers sum to less than 1 are reported as condition failures, never
silently rescaled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import Permutation, validate_permutation
from .errors import CertMismatchError, TooLargeError, ValidationError
from .numerics import MASS_TOL, SUM_TOL, TOL, FlowNetwork, max_flow
from .util import json_field, read_json, write_json

MAX_CERTIFY_N = 12


@dataclass(frozen=True)
class PolicyVector:
    """Sparse layer probabilities; layers[k] maps size-(k+1) masks to mass."""

    n: int
    layers: tuple[Mapping[int, float], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"policy: n must be at least 1, got {self.n}")
        if len(self.layers) != self.n:
            raise ValidationError("policy: need one layer per position")
        clean = []
        for k, layer in enumerate(self.layers):
            out = {}
            for mask, p in layer.items():
                mask, p = int(mask), float(p)
                if mask.bit_count() != k + 1 or mask >= 1 << self.n:
                    raise ValidationError(
                        f"policy: layer {k + 1} holds mask {mask:#x} of wrong size"
                    )
                if p < -TOL or not np.isfinite(p):
                    raise ValidationError(f"policy: bad probability {p} in layer {k + 1}")
                out[mask] = max(p, 0.0)
            clean.append(out)
        object.__setattr__(self, "layers", tuple(clean))

    def layer_sums(self) -> list[float]:
        return [sum(layer.values()) for layer in self.layers]


def mixture_of_permutations(
    orders: Sequence[Sequence[int]], weights: Sequence[float]
) -> PolicyVector:
    if len(orders) != len(weights) or not orders:
        raise ValidationError("policy: need matching non-empty orders and weights")
    if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > TOL:
        raise ValidationError("policy: mixture weights must be nonnegative, sum 1")
    n = len(orders[0])
    layers: list[dict[int, float]] = [{} for _ in range(n)]
    for order, w in zip(orders, weights):
        order = validate_permutation(order, n)
        mask = 0
        for k, p in enumerate(order):
            mask |= 1 << p
            layers[k][mask] = layers[k].get(mask, 0.0) + w
    return PolicyVector(n, tuple(layers))


@dataclass
class LayerFlowCert:
    """Unit-flow certificate for forming layer `layer` from the one before."""

    layer: int  # 1-based
    flow_value: float
    edge_flows: dict[tuple[int, int], float]  # (S mask, T mask) -> flow
    feasible: bool


@dataclass
class ImplementabilityReport:
    feasible: bool
    certs: list[LayerFlowCert]
    failing_layer: int | None = None
    reason: str | None = None  # "unnormalized" | "flow-deficit"
    cut_nodes: list[tuple[int, int]] | None = None  # (layer, mask), source side


def _layer_network(prev: Mapping[int, float], curr: Mapping[int, float], n: int):
    """Nodes are the masks themselves: the two layers' sets differ in size."""
    edges = [("s", S, p) for S, p in prev.items()]
    edges += [(T, "t", p) for T, p in curr.items()]
    for S in prev:
        for j in range(n):
            if not S & (1 << j):
                T = S | (1 << j)
                if T in curr:
                    edges.append((S, T, 1.0))
    return FlowNetwork("s", "t", tuple(edges))


def check_implementable(pv: PolicyVector) -> ImplementabilityReport:
    """Certify pv layer by layer.

    Condition (i): every layer sums to 1. Condition (ii), the exponential
    family of neighborhood constraints, is equivalent to each layer network
    carrying one unit of flow (max-flow min-cut), so only the flow test runs.
    All layer certificates are computed even past the first failure.
    """
    if pv.n > MAX_CERTIFY_N:
        raise TooLargeError(f"policy: certification capped at n = {MAX_CERTIFY_N}")
    for k, s in enumerate(pv.layer_sums()):
        if abs(s - 1.0) > TOL:
            return ImplementabilityReport(
                False, [], failing_layer=k + 1, reason="unnormalized"
            )
    certs: list[LayerFlowCert] = []
    failing, cut = None, None
    live = [{S: p for S, p in layer.items() if p > MASS_TOL} for layer in ({0: 1.0}, *pv.layers)]
    for t in range(1, pv.n + 1):
        result = max_flow(_layer_network(live[t - 1], live[t], pv.n))
        ok = result.value >= 1.0 - TOL
        edge_flows = {
            (S, T): f for (S, T), f in result.edge_flows.items() if S != "s" and T != "t"
        }
        certs.append(LayerFlowCert(t, result.value, edge_flows, ok))
        if not ok and failing is None:
            failing = t
            cut = sorted((S.bit_count(), S) for S in result.cut_nodes if S not in ("s", "t"))
    if failing is not None:
        return ImplementabilityReport(False, certs, failing, "flow-deficit", cut)
    return ImplementabilityReport(True, certs)


def sample_policy(pv: PolicyVector, certs: Sequence[LayerFlowCert], seed) -> Permutation:
    """Draw one permutation from the policy the certificates describe.

    From prefix S at layer k the next product follows the conditional
    distribution flow(S, S+{p}) / x_{k,S}. Certificates must come from a
    passing check_implementable run on the same vector.
    """
    n = pv.n
    if len(certs) != n or not all(c.feasible for c in certs):
        raise CertMismatchError("policy: need one feasible certificate per layer")
    rng = np.random.default_rng(seed)
    order: list[int] = []
    mask = 0
    for t in range(1, n + 1):
        prev_mass = 1.0 if t == 1 else pv.layers[t - 2].get(mask, 0.0)
        if prev_mass <= MASS_TOL:
            raise CertMismatchError(f"policy: reached zero-mass prefix {mask:#x}")
        moves = sorted(
            ((T ^ S).bit_length() - 1, f / prev_mass)
            for (S, T), f in certs[t - 1].edge_flows.items()
            if S == mask and f > 0.0
        )
        total = sum(q for _, q in moves)
        if abs(total - 1.0) > SUM_TOL:
            raise CertMismatchError(
                f"policy: flows out of prefix {mask:#x} sum to {total}, not 1"
            )
        pick = rng.random() * total
        acc, chosen = 0.0, moves[-1][0]
        for p, q in moves:
            acc += q
            if pick <= acc:
                chosen = p
                break
        order.append(chosen)
        mask |= 1 << chosen
    return tuple(order)


def policy_to_json(pv: PolicyVector) -> list:
    return [
        [{"set": format(mask, "x"), "p": p} for mask, p in sorted(layer.items())]
        for layer in pv.layers
    ]


def policy_from_json(data) -> PolicyVector:
    if not isinstance(data, list) or not all(isinstance(layer, list) for layer in data):
        raise ValidationError("policy: expected a JSON array of layers, each an array")

    def entry(e) -> tuple[int, float]:
        mask = json_field(e, "set", lambda s: int(s, 16), "policy")
        return mask, json_field(e, "p", float, "policy")

    return PolicyVector(len(data), tuple(dict(map(entry, layer)) for layer in data))


def save_policy(pv: PolicyVector, path) -> None:
    write_json(path, policy_to_json(pv))


def load_policy(path) -> PolicyVector:
    return policy_from_json(read_json(path))
