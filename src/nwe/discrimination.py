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
Held-Karp idiom).  Party a's M_a measurements are padded with zero
effects to O_a outcomes, the largest count among them, so its likelihood
table holds row 0 of ones ("not measured yet") and then row 1 + mi * O_a + o
for outcome o of measurement mi, J_a = M_a * O_a rows in all; one
``systems.likelihoods`` call fills every party's table when the parties
share one dimension.  One tensor indexed by (j_0, ..., j_{n-1}) starts as
the leaf values max_k prior_k * prod_a table_a[j_a, k], multiplied in party
order.  Walking subsets by decreasing size, each entry with unmeasured
parties (its zero axes) becomes the max over those parties and their
measurements of the outcome sum: O_a strided slices added in outcome order,
a padded row adding zero.  The tree is then rebuilt top-down from the
finished tensor.  The same slices sum each party's effects, so validation
makes one completeness check per party.  A forced leader changes only the
root step, so one lattice serves every leader: ``leader_optima`` reads each
party's forced-leader optimum off it.  The tables hold no priors, so the
tensor has a trailing axis with one row of priors per entry:
``optimal_local`` solves the ensemble's own row, ``leader_optima`` a (B, K)
stack of rows, and tables prepared once solve any number of stacks
(``quantum`` keeps the pentagon's).
The subset walk is made once per (arity, adaptive).  Products, sums and
maxima are elementwise, so every row equals its own solve bit for bit.
The tensor has prod_a (1 + J_a) entries per row, and ``leader_optima``
solves max(1, _CHUNK_ENTRIES // prod_a (1 + J_a)) rows at a time (49 for
the pentagon set).  The leaf values are accumulated a
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
from functools import cache
from operator import mul

import numpy as np

from . import catalog
from .composition import SeparableMeasurement
from .systems import _frozen, _require_sums, likelihoods, require_complete

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
            tuple(_frozen(*(np.array(m, dtype=float) for m in per)) for per in self.measurements),
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
    """Success probability of an explicit protocol tree on an ensemble.

    The tree is checked first, then each distinct (party, effects object) is
    tabled, all in one ``_likelihood_tables`` call (the nodes of one
    measurement in an ``optimal_local`` tree share their effects), then the
    weights are multiplied down the tree.  Errors come in the order of a walk
    that checks and tables each node when it first meets it.
    """
    arity = ens.composite.arity
    factors = [_factors(ens, p) for p in range(arity)]
    # (party, id of the effects) -> (position in ``effects``, the effects), in the order first met;
    # holding the effects keeps their id from being reused during this call
    index, effects, states = {}, [], []

    def check(node, used) -> None:
        if isinstance(node, Leaf):
            if not 0 <= node.guess < ens.size:
                raise MalformedTreeError(f"guess {node.guess} out of range")
            return
        if not isinstance(node, Node):
            raise MalformedTreeError(f"unexpected tree element {node!r}")
        if not 0 <= node.party < arity:
            raise MalformedTreeError(f"party {node.party} out of range")
        if node.party in used:
            raise MalformedTreeError(f"party {node.party} measures twice on one path")
        if len(node.children) != len(node.effects):
            raise MalformedTreeError("one child per measurement outcome required")
        key = (node.party, id(node.effects))
        if key not in index:
            measured = np.asarray(node.effects, dtype=float)
            require_complete(measured, ens.composite.parts[node.party].unit_effect, f"measurement at party {node.party}")
            index[key] = len(effects), node.effects
            effects.append(measured)
            states.append(factors[node.party])
        for child in node.children:
            check(child, used | {node.party})

    try:
        check(tree, frozenset())
    finally:  # the walk would have tabled every measurement met before an error, raising theirs first
        tables = [t[1:].tolist() for t in _likelihood_tables(effects, states)]

    def walk(node, weights) -> float:
        if isinstance(node, Leaf):
            return weights[node.guess]
        total = 0.0
        for lik, child in zip(tables[index[node.party, id(node.effects)][0]], node.children):
            total += walk(child, list(map(mul, weights, lik)))
        return total

    return walk(tree, ens.priors.tolist())


def optimal_local(ens, cfg: SearchConfig, leader: int | None = None) -> DiscriminationReport:
    """Exact Bayes-optimal adaptive protocol over the configured measurement sets.

    ``leader`` forces the party that measures first; below the root the
    order follows ``cfg.adaptive``.
    """
    arity = ens.composite.arity
    tables, outcomes = _tables(ens, cfg, leader)
    values = _leaf_values(ens.priors[None], tables)[..., 0]
    by_leader = _bellman(values, outcomes, cfg)
    # per party and measurement: its outcomes' table rows, and the effect tuple its nodes share
    spans = [
        [range(1 + mi * n, 1 + mi * n + len(m)) for mi, m in enumerate(per)]
        for n, per in zip(outcomes, cfg.measurements)
    ]
    shared, rows = {}, [t.tolist() for t in tables]

    def build(index, remaining, weights):
        if not remaining or not any(weights):
            return Leaf(weights.index(max(weights)))  # the first largest weight
        best_value = -1.0
        for a in _movers(remaining, cfg.adaptive, leader if len(remaining) == arity else None):
            along = values[index[:a] + (slice(None),) + index[a + 1 :]].tolist()
            for mi, span in enumerate(spans[a]):
                total = 0.0
                for r in span:
                    total += along[r]
                if total > best_value:
                    best_value, choice = total, (a, mi)
        a, mi = choice
        rest = tuple(x for x in remaining if x != a)
        children = [
            build(index[:a] + (r,) + index[a + 1 :], rest, list(map(mul, weights, rows[a][r])))
            for r in spans[a][mi]
        ]
        if choice not in shared:
            shared[choice] = tuple(cfg.measurements[a][mi])
        return Node(a, mi, shared[choice], tuple(children))

    root = (0,) * arity
    tree = build(root, tuple(range(arity)), ens.priors.tolist())
    success = float(values[root] if leader is None else by_leader[leader][0])
    return DiscriminationReport(success, 1.0 - success, tree, leader)


def leader_optima(ens, cfg: SearchConfig, priors) -> list:
    """``optimal_local(ens, cfg, a).success`` for every party a, one tuple per row of priors.

    ``priors`` is a (B, ens.size) stack of prior rows (one row may be given
    flat) that replace the ensemble's own.  The config is validated and the
    likelihood tables are built once, and each block of rows is one lattice
    solve with a trailing prior axis.
    """
    return _solve_rows(*_tables(ens, cfg, None), cfg, priors)


def _solve_rows(tables, outcomes, cfg: SearchConfig, priors) -> list:
    """``leader_optima`` on the tables and outcome counts ``_tables`` built for cfg."""
    size = tables[0].shape[1]
    catalog.require_priors(priors, size)
    priors = np.asarray(priors, dtype=float).reshape(-1, size)
    per_block = max(1, _CHUNK_ENTRIES // math.prod(len(t) for t in tables))
    rows = []
    for lo in range(0, len(priors), per_block):
        by_leader = _bellman(_leaf_values(priors[lo : lo + per_block], tables), outcomes, cfg)
        rows.extend(zip(*(v.tolist() for v in by_leader)))
    return rows


def _tables(ens, cfg: SearchConfig, leader):
    """Validate, then build each party's read-only likelihood table: (tables, outcomes).

    Party a's measurements are padded with zero effects to ``outcomes[a]``,
    the largest outcome count among them (at least 1), so measurement mi's
    outcome o is row 1 + mi * outcomes[a] + o of party a's table.  Checks
    run party by party, so the first failing party's error is raised;
    likelihood errors come after every check, in party, row and state order.
    """
    arity = ens.composite.arity
    if arity > MAX_ARITY:
        raise ValueError(f"arity {arity} exceeds supported bound {MAX_ARITY}")
    if len(cfg.measurements) != arity:
        raise ValueError("one measurement list per party required")
    outcomes, effects = [], []
    for p, per in enumerate(cfg.measurements):
        if not per:
            raise ValueError(f"party {p} has no allowed measurements")
        if len(per) > MAX_MEASUREMENTS_PER_PARTY:
            raise ValueError(
                f"party {p} has {len(per)} measurements, above bound {MAX_MEASUREMENTS_PER_PARTY}"
            )
        unit, what = ens.composite.parts[p].unit_effect, f"measurement at party {p}"
        for m in per:  # padding would broadcast any other shape
            if m.shape[1:] != unit.shape:
                raise ValueError(f"malformed {what}: shape {m.shape}, not (outcomes, {len(unit)})")
        outcomes.append(max(1, *map(len, per)))
        padded = np.zeros((len(per), outcomes[-1], len(unit)))
        for block, m in zip(padded, per):
            block[: len(m)] = m
        effects.append(padded.reshape(-1, len(unit)))
        # one stacked outcome whose rows are each measurement's effects added in outcome order
        _require_sums(_outcome_sums(effects[-1], outcomes[-1]), unit, what)
    if leader is not None and not 0 <= leader < arity:
        raise ValueError(f"leader {leader} out of range")

    return _likelihood_tables(effects, [_factors(ens, p) for p in range(arity)]), outcomes


def _likelihood_tables(effects, factors) -> tuple:
    """Read-only ``likelihoods(effects[i], factors[i])`` for each i, below a row of ones.

    When every item has one dimension this is one ``likelihoods`` call on a
    stack of the effects padded with zero rows after their own, so the first
    value out of range is the one the calls in order would raise.
    """
    if not effects:
        return ()
    dim = effects[0].shape[1:]
    if len(dim) != 1 or any(x.shape[1:] != dim for x in (*effects, *factors)):  # one call per item
        return _frozen(*(np.concatenate((np.ones((1, len(f))), likelihoods(e, f))) for e, f in zip(effects, factors)))
    blocks = np.zeros((len(effects), max(map(len, effects)), effects[0].shape[1]))
    for block, e in zip(blocks, effects):
        block[: len(e)] = e
    tables = np.empty((len(effects), 1 + len(blocks[0]), len(factors[0])))
    tables[:, 0] = 1.0
    tables[:, 1:] = likelihoods(blocks, np.array(factors))
    _frozen(tables)
    return tuple(t[: 1 + len(e)] for t, e in zip(tables, effects))


def _outcome_sums(x: np.ndarray, outcomes: int, axis: int = 0) -> np.ndarray:
    """Per measurement, x summed along ``axis`` over its ``outcomes`` rows, added in outcome order."""
    lead = (slice(None),) * axis  # so the next index applies to ``axis``
    totals = x[lead + (slice(0, None, outcomes),)]  # a view of x until the first addition
    for o in range(1, outcomes):
        totals = totals + x[lead + (slice(o, None, outcomes),)]
    return totals


def _movers(remaining, adaptive: bool, leader=None):
    """Parties that may measure next: a forced leader if given, else all remaining if adaptive, else the first."""
    if leader is not None:
        return (leader,)
    return remaining if adaptive else remaining[:1]


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


def _bellman(values: np.ndarray, outcomes, cfg: SearchConfig) -> tuple:
    """Overwrite every entry that leaves a party unmeasured with its optimal value.

    An entry's measured parties are its party axes with a nonzero index; a
    trailing axis, if any, has one entry per row of priors.  Subsets of
    measured parties are walked by decreasing size (``_walk``), so every
    entry one more measurement leads to is final before it is read.  The root
    takes the best over cfg's movers; returns its values with each party leading.
    """
    by_leader = []
    for here, root, moves in _walk(len(outcomes), cfg.adaptive):
        best = None
        for a, after, mover in moves:
            value = _outcome_sums(values[after], outcomes[a], a).max(axis=a, keepdims=True)
            if root:
                by_leader.append(value.ravel())
            if mover:
                best = value if best is None else np.maximum(best, value)
        values[here] = best
    return tuple(by_leader)


@cache
def _walk(arity: int, adaptive: bool) -> tuple:
    """``_bellman``'s steps, largest subset of measured parties first: (here, root, moves), where
    ``moves`` has (a, the entries after a measures, a is a mover) per party read, all at the root."""
    steps = []
    for measured in sorted(range((1 << arity) - 1), key=lambda s: -s.bit_count()):
        rest = tuple(a for a in range(arity) if not measured >> a & 1)
        here = tuple(slice(1, None) if measured >> a & 1 else slice(0, 1) for a in range(arity))
        movers = _movers(rest, adaptive)
        reads = rest if measured == 0 else movers
        moves = tuple((a, here[:a] + (slice(1, None),) + here[a + 1 :], a in movers) for a in reads)
        steps.append((here, measured == 0, moves))
    return tuple(steps)


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
    inner = " ".join(map(tree_to_text, tree.children))
    return f"(p{tree.party} m{tree.measurement} {inner})"
