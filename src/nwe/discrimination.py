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

seeded with L = priors.  Likelihoods of product states commute, so L
depends only on the set of observed (party, measurement, outcome) triples,
not on their order, and ``optimal_local`` solves each subproblem once by
dynamic programming over the lattice of measured-party subsets (the
Held-Karp idiom).  Party a's likelihood table, one ``systems.likelihoods``
call, holds row 0 of ones ("not measured yet") and one row per flattened
(measurement, outcome) pair j_a = 1..J_a.  One tensor indexed by (j_0, ...,
j_{n-1}) starts as the leaf values max_k prior_k * prod_a table_a[j_a, k],
multiplied in party order.  Walking subsets by decreasing size, each entry
with unmeasured parties (its zero axes) becomes the max over those parties
and their measurements of the outcome sum, added in outcome order; the tree
is then rebuilt top-down from the finished tensor.  The sums go through
each party's outcome slots, worked out once per solve: for each outcome
position o, the measurements that have an o-th outcome and those outcomes'
table rows, as basic slices when evenly spaced (always, when every
measurement has the same number of outcomes).  The same slots sum each
party's concatenated effects, so validation makes one completeness check
per party.  A forced leader changes only the root step, so one lattice
serves every leader: ``leader_optima`` reads each party's forced-leader
optimum off it.  The tables hold no priors, so the tensor has a trailing
axis with one row of priors per entry: ``optimal_local`` solves the
ensemble's own row, ``leader_optima`` a (B, K) stack of rows.  Products,
sums and maxima are elementwise, so every row equals its own solve bit for
bit.  The tensor has prod_a (1 + J_a) entries per row, and
``leader_optima`` solves max(1, _CHUNK_ENTRIES // prod_a (1 + J_a)) rows
at a time (49 for the pentagon set).  The leaf values are accumulated a
chunk of states at a time, so memory stays within a small multiple of one
block's tensor whatever the number of states or priors.

Weights are never renormalized, which keeps zero-probability branches
harmless: an all-zero weight vector becomes a leaf guessing state 0.  Ties
are broken toward the lowest party index, then the lowest measurement
index (a later candidate must be strictly larger), then the lowest guess
index, so reports are reproducible.  Guesses are the argmax of the weights
multiplied along the path.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import catalog
from .composition import SeparableMeasurement
from .systems import likelihoods, require_complete

MAX_ARITY = 4
MAX_MEASUREMENTS_PER_PARTY = 16
# Entries of one chunk of per-state leaf products; bounds their temporary.
_CHUNK_ENTRIES = 1 << 16

__all__ = [
    "DiscriminationReport",
    "Leaf",
    "MalformedTreeError",
    "Node",
    "SearchConfig",
    "confusion_matrix",
    "delta",
    "eval_tree",
    "leader_optima",
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
        for p, part in enumerate(ens.composite.parts):
            ms = catalog.default_measurements(part)
            if indices is not None:
                for i in indices:
                    if not 0 <= i < len(ms):
                        raise ValueError(
                            f"measurement index {i} out of range: party {p} has {len(ms)} measurements"
                        )
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
    """entries[i, j] = p(E_i | phi_j), per-party tables multiplied in party order;
    identity means perfect discrimination."""
    arities = {X.arity for X in (*M.effects, *ens.states)}
    if len(arities) > 1:
        raise ValueError(f"arity mismatch: effects and states have arities {sorted(arities)}")
    out = 1.0
    for p in range(arities.pop()):
        out = out * likelihoods([E.factors[p] for E in M.effects], _factors(ens, p))
    return out


def eval_tree(tree, ens) -> float:
    """Success probability of an explicit protocol tree on an ensemble."""
    arity = ens.composite.arity
    factors = [_factors(ens, p) for p in range(arity)]

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
        for lik, child in zip(likelihoods(node.effects, factors[node.party]), node.children):
            total += walk(child, weights * lik, used | {node.party})
        return total

    return walk(tree, np.asarray(ens.priors, dtype=float), frozenset())


def optimal_local(ens, cfg: SearchConfig, leader: int | None = None) -> DiscriminationReport:
    """Exact Bayes-optimal adaptive protocol over the configured measurement sets.

    ``leader`` forces the party that measures first; below the root the
    order follows ``cfg.adaptive``.
    """
    arity = ens.composite.arity
    tables, offsets, slots = _tables(ens, cfg, leader)
    values = _leaf_values(np.asarray(ens.priors, dtype=float)[None], tables)[..., 0]
    by_leader = _bellman(values, slots, cfg)

    def build(index, remaining, weights):
        if not remaining or not weights.any():
            return Leaf(int(np.argmax(weights)))
        best_value = -1.0
        for a in _movers(remaining, cfg, leader if len(remaining) == arity else None):
            along = values[index[:a] + (slice(1, None),) + index[a + 1 :]].tolist()
            for mi, meas in enumerate(cfg.measurements[a]):
                total = 0.0
                for o in range(len(meas)):
                    total += along[offsets[a][mi] + o]
                if total > best_value:
                    best_value, choice = total, (a, mi)
        a, mi = choice
        rest = tuple(x for x in remaining if x != a)
        rows = range(1 + offsets[a][mi], 1 + offsets[a][mi] + len(cfg.measurements[a][mi]))
        children = [build(index[:a] + (r,) + index[a + 1 :], rest, weights * tables[a][r]) for r in rows]
        return cfg.node(a, mi, children)

    root = (0,) * arity
    tree = build(root, tuple(range(arity)), np.asarray(ens.priors, dtype=float))
    success = float(values[root] if leader is None else by_leader[leader][0])
    return DiscriminationReport(success, 1.0 - success, tree, leader)


def leader_optima(ens, cfg: SearchConfig, priors) -> list:
    """``optimal_local(ens, cfg, a).success`` for every party a, one tuple per row of priors.

    ``priors`` is a (B, ens.size) stack of prior rows (one row may be given
    flat) that replace the ensemble's own.  The config is validated and the
    likelihood tables are built once, and each block of rows is one lattice
    solve with a trailing prior axis.
    """
    tables, _, slots = _tables(ens, cfg, None)
    catalog.require_priors(priors, ens.size)
    priors = np.asarray(priors, dtype=float).reshape(-1, ens.size)
    per_block = max(1, _CHUNK_ENTRIES // math.prod(len(t) for t in tables))
    rows = []
    for lo in range(0, len(priors), per_block):
        by_leader = _bellman(_leaf_values(priors[lo : lo + per_block], tables), slots, cfg)
        rows.extend(zip(*(v.tolist() for v in by_leader)))
    return rows


def _tables(ens, cfg: SearchConfig, leader):
    """Validate, then build each party's likelihood table: (tables, offsets, slots)."""
    arity = ens.composite.arity
    if arity > MAX_ARITY:
        raise ValueError(f"arity {arity} exceeds supported bound {MAX_ARITY}")
    if len(cfg.measurements) != arity:
        raise ValueError("one measurement list per party required")
    # offsets[a][mi] = position of measurement mi's first outcome among party a's table rows 1..J
    offsets, slots, effects = [], [], []
    for p, per in enumerate(cfg.measurements):
        if not per:
            raise ValueError(f"party {p} has no allowed measurements")
        if len(per) > MAX_MEASUREMENTS_PER_PARTY:
            raise ValueError(
                f"party {p} has {len(per)} measurements, above bound {MAX_MEASUREMENTS_PER_PARTY}"
            )
        unit, what = ens.composite.parts[p].unit_effect, f"measurement at party {p}"
        counts = [len(m) for m in per]
        if 0 in counts:  # no outcomes, so no row of the sums below; its sum is zero
            require_complete(per[counts.index(0)], unit, what)
        offsets.append(list(accumulate(counts[:-1], initial=0)))
        slots.append(_outcome_slots(counts, offsets[-1]))
        effects.append(np.concatenate(per))
        # one stacked outcome whose rows are each measurement's effects added in outcome order
        require_complete(_outcome_sums(effects[-1], slots[-1])[None], unit, what)
    if leader is not None and not 0 <= leader < arity:
        raise ValueError(f"leader {leader} out of range")

    tables = [
        np.vstack([np.ones(ens.size), likelihoods(e, _factors(ens, p))]) for p, e in enumerate(effects)
    ]
    return tables, offsets, slots


def _outcome_slots(counts, offsets) -> list:
    """(measurements, rows) per outcome position o: the measurements with an o-th outcome
    and those outcomes' rows among the party's concatenated effects.

    Each is a basic slice when its indices are evenly spaced, which they are
    whenever every measurement has the same number of outcomes.
    """
    slots = []
    for o in range(max(counts)):
        ms = [mi for mi, n in enumerate(counts) if n > o]
        slots.append((_as_slice(ms), _as_slice([offsets[mi] + o for mi in ms])))
    return slots


def _as_slice(ix: list):
    """The slice selecting exactly ``ix`` if its entries are evenly spaced, else ``ix``."""
    step = ix[1] - ix[0] if len(ix) > 1 else 1  # ix is increasing
    if ix == list(range(ix[0], ix[-1] + 1, step)):
        return slice(ix[0], ix[-1] + 1, step)
    return ix


def _outcome_sums(x: np.ndarray, slots, axis: int = 0) -> np.ndarray:
    """Per measurement, x summed along ``axis`` over its outcomes' rows, added in outcome order."""
    lead = (slice(None),) * axis  # so the next index applies to ``axis``
    (_, rows), *later = slots
    totals = x[lead + (rows,)].copy()
    for ms, rows in later:
        totals[lead + (ms,)] += x[lead + (rows,)]
    return totals


def _movers(remaining, cfg: SearchConfig, leader=None):
    """Parties that may measure next: a forced leader if given, else per cfg.adaptive."""
    if leader is not None:
        return (leader,)
    return remaining if cfg.adaptive else remaining[:1]


def _factors(ens, party: int) -> np.ndarray:
    """(K, dim) array of every state's factor at ``party``."""
    return np.array([st.factors[party] for st in ens.states])


def _leaf_values(priors: np.ndarray, tables) -> np.ndarray:
    """values[j, b] = max_k priors[b, k] * prod_a tables[a][j_a, k], parties multiplied in index order.

    One row of the (B, K) stack of priors per trailing entry.  States are
    taken in chunks, so the temporary holds at most
    max(_CHUNK_ENTRIES, values.size) entries whatever the number of states.
    """
    values = np.zeros(tuple(len(t) for t in tables) + priors.shape[:1])
    step = max(1, _CHUNK_ENTRIES // values.size)
    for lo in range(0, priors.shape[1], step):
        chunk = slice(lo, lo + step)
        acc = tables[0][:, None, chunk] * priors[:, chunk]
        for t in tables[1:]:
            acc = acc[..., None, :, :] * t[:, None, chunk]
        for k in range(acc.shape[-1]):
            np.maximum(values, acc[..., k], out=values)
    return values


def _bellman(values: np.ndarray, slots, cfg: SearchConfig) -> tuple:
    """Overwrite every entry that leaves a party unmeasured with its optimal value.

    An entry's measured parties are its party axes with a nonzero index; a
    trailing axis, if any, has one entry per row of priors.  Subsets of
    measured parties are walked by decreasing size, so every entry one more
    measurement leads to is final before it is read.  The root takes the
    best over cfg's movers; returns its values with each party leading.
    """
    arity = len(slots)
    by_leader = []
    for measured in sorted(range((1 << arity) - 1), key=lambda s: -s.bit_count()):
        rest = tuple(a for a in range(arity) if not measured >> a & 1)
        here = tuple(slice(1, None) if measured >> a & 1 else slice(0, 1) for a in range(arity))
        movers = _movers(rest, cfg)
        best = None
        for a in rest if measured == 0 else movers:
            after = values[here[:a] + (slice(1, None),) + here[a + 1 :]]
            value = _outcome_sums(after, slots[a], a).max(axis=a, keepdims=True)
            if measured == 0:
                by_leader.append(value.ravel())
            if a in movers:
                best = value if best is None else np.maximum(best, value)
        values[here] = best
    return tuple(by_leader)


def _global_perfect_verified(ens) -> bool:
    """Is a perfect global separable measurement cataloged or findable for this ensemble?"""
    try:
        catalog.load_measurement(ens.id)
        return True
    except ValueError:
        pass
    try:
        return catalog.search_perfect_separable(ens) is not None
    except ValueError:
        return False


def delta(ens, cfg: SearchConfig, leader: int | None = None) -> float:
    """1 - optimal local success; warns when no perfect global measurement is verified."""
    report = optimal_local(ens, cfg, leader)
    if not _global_perfect_verified(ens):
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
