"""Exact optimization of adaptive one-measurement-per-party discrimination protocols.

A protocol is a decision tree: an internal node names a party and one of its
allowed measurements, with one subtree per outcome; a leaf names the guess.
Each party measures at most once along any root-to-leaf path, classical
information is fully shared, and no post-measurement state update is used,
so a path's contribution to the success probability is

    prior[guess] * prod over path of p(outcome effect | guess's factor at that party).

The Bayes-optimal value over this class follows the unnormalized-weight
recursion

    V(L, R) = max_{a in R} max_{M in allowed[a]} sum_o V(L * lik_{a,M}(o), R - {a}),
    V(L, {}) = max_i L_i,

seeded with L = priors.  Weights are never renormalized, which keeps
zero-probability branches harmless (an all-zero L contributes 0 and is not
recursed).  Ties are broken toward the lowest party index, then the lowest
measurement index, then the lowest guess index, so reports are reproducible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import catalog
from .composition import SeparableMeasurement, product_prob
from .systems import DEFAULT_EPS, prob, require_complete

MAX_ARITY = 4
MAX_MEASUREMENTS_PER_PARTY = 16

__all__ = [
    "DiscriminationReport",
    "Leaf",
    "MalformedTreeError",
    "Node",
    "SearchConfig",
    "confusion_matrix",
    "delta",
    "eval_tree",
    "optimal_local",
    "tree_to_text",
]


class MalformedTreeError(ValueError):
    """A protocol tree violates its structural invariants."""


@dataclass(frozen=True)
class Leaf:
    guess: int


@dataclass(frozen=True, eq=False)
class Node:
    """Internal node: a party, a measurement (index plus its effect vectors), children per outcome."""

    party: int
    measurement: int
    effects: tuple
    children: tuple


@dataclass(frozen=True, eq=False)
class SearchConfig:
    """Allowed measurements per party and whether the party order is adaptive.

    ``measurements[p]`` is a sequence of (outcomes, dim) effect arrays; each
    must be complete on party p's system.  With ``adaptive`` false the
    remaining party with the lowest index always measures next.
    """

    measurements: tuple
    adaptive: bool = True

    def __post_init__(self):
        object.__setattr__(
            self,
            "measurements",
            tuple(tuple(np.asarray(m, dtype=float) for m in per) for per in self.measurements),
        )

    @classmethod
    def for_ensemble(cls, ens, indices=None, adaptive: bool = True) -> "SearchConfig":
        """Each party's catalog default measurements (or the indexed subset)."""
        per_party = []
        for part in ens.composite.parts:
            ms = catalog.default_measurements(part)
            if indices is not None:
                ms = [ms[i] for i in indices]
            per_party.append(tuple(ms))
        return cls(tuple(per_party), adaptive)

    def node(self, party: int, measurement: int, children) -> Node:
        """Convenience constructor wiring a tree node to this config's effects."""
        effects = tuple(self.measurements[party][measurement])
        return Node(party, measurement, effects, tuple(children))


@dataclass(frozen=True, eq=False)
class DiscriminationReport:
    success: float
    delta: float
    tree: object
    leader: int | None = None


def confusion_matrix(M: SeparableMeasurement, ens) -> np.ndarray:
    """entries[i, j] = p(E_i | phi_j); identity means perfect discrimination."""
    out = np.empty((len(M.effects), ens.size))
    for i, E in enumerate(M.effects):
        for j, phi in enumerate(ens.states):
            if E.arity != phi.arity:
                raise ValueError(f"arity mismatch: effect {E.arity} vs state {phi.arity}")
            out[i, j] = product_prob(E, phi)
    return out


def eval_tree(tree, ens, eps: float = DEFAULT_EPS) -> float:
    """Success probability of an explicit protocol tree on an ensemble."""
    arity = ens.composite.arity

    def walk(node, weights, used) -> float:
        if isinstance(node, Leaf):
            if not 0 <= node.guess < ens.size:
                raise MalformedTreeError(f"guess {node.guess} out of range")
            return float(weights[node.guess])
        if not isinstance(node, Node):
            raise MalformedTreeError(f"unexpected tree element {node!r}")
        if not 0 <= node.party < arity:
            raise MalformedTreeError(f"party {node.party} out of range")
        if node.party in used:
            raise MalformedTreeError(f"party {node.party} measures twice on one path")
        if len(node.children) != len(node.effects):
            raise MalformedTreeError("one child per measurement outcome required")
        unit = ens.composite.parts[node.party].unit_effect
        require_complete(node.effects, unit, f"measurement at party {node.party}")
        total = 0.0
        for effect, child in zip(node.effects, node.children):
            lik = np.array([prob(effect, st.factors[node.party], eps) for st in ens.states])
            total += walk(child, weights * lik, used | {node.party})
        return total

    return walk(tree, np.asarray(ens.priors, dtype=float), frozenset())


def optimal_local(ens, cfg: SearchConfig, leader: int | None = None) -> DiscriminationReport:
    """Exact Bayes-optimal adaptive protocol over the configured measurement sets.

    ``leader`` forces the party that measures first; below the root the
    order follows ``cfg.adaptive``.
    """
    arity = ens.composite.arity
    if arity > MAX_ARITY:
        raise ValueError(f"arity {arity} exceeds supported bound {MAX_ARITY}")
    if len(cfg.measurements) != arity:
        raise ValueError("one measurement list per party required")
    for p, per in enumerate(cfg.measurements):
        if not per:
            raise ValueError(f"party {p} has no allowed measurements")
        if len(per) > MAX_MEASUREMENTS_PER_PARTY:
            raise ValueError(
                f"party {p} has {len(per)} measurements, above bound {MAX_MEASUREMENTS_PER_PARTY}"
            )
        for m in per:
            require_complete(m, ens.composite.parts[p].unit_effect, f"measurement at party {p}")
    if leader is not None and not 0 <= leader < arity:
        raise ValueError(f"leader {leader} out of range")

    # lik[p][mi][o] = per-state likelihood vector of outcome o
    lik = [
        [
            np.array([[prob(e, st.factors[p]) for st in ens.states] for e in meas])
            for meas in cfg.measurements[p]
        ]
        for p in range(arity)
    ]

    def recurse(weights, remaining, forced=None):
        if not remaining or not weights.any():
            g = int(np.argmax(weights))
            return float(weights[g]), Leaf(g)
        if forced is not None:
            parties = (forced,)
        elif cfg.adaptive:
            parties = remaining
        else:
            parties = (remaining[0],)
        best_value = -1.0
        best_node = None
        for a in parties:
            rest = tuple(x for x in remaining if x != a)
            for mi in range(len(cfg.measurements[a])):
                total = 0.0
                children = []
                for o in range(len(cfg.measurements[a][mi])):
                    value, sub = recurse(weights * lik[a][mi][o], rest)
                    total += value
                    children.append(sub)
                if total > best_value:
                    best_value = total
                    best_node = cfg.node(a, mi, children)
        return best_value, best_node

    success, tree = recurse(np.asarray(ens.priors, dtype=float), tuple(range(arity)), leader)
    return DiscriminationReport(success, 1.0 - success, tree, leader)


def _global_perfect_verified(ens) -> bool:
    """Is a perfect global separable measurement cataloged or findable for this ensemble?"""
    try:
        catalog.load_measurement(ens.id)
        return True
    except (ValueError, KeyError):
        pass
    try:
        return catalog.search_perfect_separable(ens) is not None
    except ValueError:
        return False


def delta(ens, cfg: SearchConfig, leader: int | None = None, verify_global: bool = True) -> float:
    """1 - optimal local success; warns when no perfect global measurement is verified."""
    report = optimal_local(ens, cfg, leader)
    if verify_global and not _global_perfect_verified(ens):
        warnings.warn(
            f"no perfect global separable measurement verified for ensemble {ens.id!r}; "
            "the reported value is a local-protocol gap only",
            stacklevel=2,
        )
    return report.delta


def tree_to_text(tree) -> str:
    """Nested parenthesized rendering: (p<party> m<measurement> child ...), leaves g<guess>."""
    if isinstance(tree, Leaf):
        return f"g{tree.guess}"
    inner = " ".join(tree_to_text(c) for c in tree.children)
    return f"(p{tree.party} m{tree.measurement} {inner})"
