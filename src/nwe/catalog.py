"""Named product-state ensembles and their discriminating separable measurements.

Five ensembles are cataloged under stable string ids:

    s4  four 2-party squit products, locally discriminable only Alice-first
    s5  eight 3-party pentagon products with a perfect separable measurement
    s6  eight 3-party hexagon products with a perfect separable measurement
    s7  eight 3-party heptagon products with a perfect separable measurement
    q3  the eight 3-qubit products |000>, |111>, |+01>, |-01>, |01+>, |01->,
        |1+0>, |1-0>, stored as Bloch-circle angles (all lie in the XZ plane)

The 8-state sets come with either the uniform prior or the biased family
placing weight p on states 3 and 4 (1-indexed) and (1 - 2p)/6 on the rest.

``search_perfect_separable`` is an independent brute-force certifier: it
looks for a complete separable measurement with identity confusion matrix
by depth-first search over per-state candidate product effects, pruning on
partial completeness sums.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .composition import (
    CompositeSystem,
    ProductEffect,
    ProductState,
    SeparableMeasurement,
    kron,
    product_prob,
)
from .systems import COMPLETENESS_TOL, DEFAULT_EPS, make_bloch_circle, make_polygon, prob

__all__ = [
    "CATALOG_IDS",
    "NamedEnsemble",
    "PriorFamily",
    "Q3_ANGLES",
    "SearchSpaceTooLarge",
    "biased",
    "default_measurements",
    "load",
    "load_measurement",
    "search_perfect_separable",
    "state_labels",
    "uniform",
]


class SearchSpaceTooLarge(RuntimeError):
    """The measurement search exceeded its node budget."""


# Per-party pure-state indices of the cataloged sets.
_S4_STATES = ((0, 0), (0, 3), (1, 0), (2, 1))
_S5_STATES = (
    (0, 0, 0), (2, 2, 2), (1, 0, 2), (4, 0, 2),
    (0, 2, 1), (0, 2, 4), (2, 1, 0), (2, 4, 0),
)
_S67_STATES = (
    (0, 0, 0), (3, 3, 3), (1, 0, 3), (5, 0, 3),
    (0, 3, 1), (0, 3, 5), (3, 1, 0), (3, 5, 0),
)

_PI = math.pi
# Bloch-circle angles: |0> -> 0, |1> -> pi, |+> -> pi/2, |-> -> 3 pi/2.
Q3_ANGLES = (
    (0.0, 0.0, 0.0),
    (_PI, _PI, _PI),
    (0.5 * _PI, 0.0, _PI),
    (1.5 * _PI, 0.0, _PI),
    (0.0, _PI, 0.5 * _PI),
    (0.0, _PI, 1.5 * _PI),
    (_PI, 0.5 * _PI, 0.0),
    (_PI, 1.5 * _PI, 0.0),
)

# Finite default measurement set of a Bloch-circle party: the computational
# (Z) and conjugate (X) bases.
_CIRCLE_BASES = ((0.0, _PI), (0.5 * _PI, 1.5 * _PI))

# Per-state factor tables by id, with the polygon size (None: Bloch circle).
_STATE_TABLES = {
    "s4": (4, _S4_STATES),
    "s5": (5, _S5_STATES),
    "s6": (6, _S67_STATES),
    "s7": (7, _S67_STATES),
    "q3": (None, Q3_ANGLES),
}
CATALOG_IDS = tuple(_STATE_TABLES)

# Discriminating measurements as per-party factor tags:
# ("e", i) is the ray-extremal e_i, ("c", i) its complement ebar_i.
_MEASUREMENT_TABLES = {
    "s5": (
        (("e", 0), ("e", 0), ("e", 0)),
        (("c", 0), ("c", 0), ("c", 0)),
        (("e", 1), ("e", 0), ("c", 0)),
        (("c", 1), ("e", 0), ("c", 0)),
        (("e", 0), ("c", 0), ("e", 1)),
        (("e", 0), ("c", 0), ("c", 1)),
        (("c", 0), ("e", 1), ("e", 0)),
        (("c", 0), ("c", 1), ("e", 0)),
    ),
    # For the hexagon e_{i+3} = ebar_i, so this is the same complement
    # pattern written with ray-extremal indices throughout.
    "s6": (
        (("e", 0), ("e", 0), ("e", 0)),
        (("e", 3), ("e", 3), ("e", 3)),
        (("e", 1), ("e", 0), ("e", 3)),
        (("e", 4), ("e", 0), ("e", 3)),
        (("e", 0), ("e", 3), ("e", 1)),
        (("e", 0), ("e", 3), ("e", 4)),
        (("e", 3), ("e", 1), ("e", 0)),
        (("e", 3), ("e", 4), ("e", 0)),
    ),
}
# The heptagon shares the pentagon's odd-n complement pattern.
_MEASUREMENT_TABLES["s7"] = _MEASUREMENT_TABLES["s5"]


@dataclass(frozen=True)
class PriorFamily:
    """Uniform priors, or the biased family with weight p on states 3 and 4 (1-indexed)."""

    kind: str = "uniform"
    p: float | None = None

    def weights(self, k: int) -> np.ndarray:
        if self.kind == "uniform":
            return np.full(k, 1.0 / k)
        if k != 8:
            raise ValueError("biased priors are defined for 8-state ensembles")
        rest = (1.0 - 2.0 * self.p) / 6.0
        w = np.full(8, rest)
        w[2] = w[3] = self.p
        return w

    def describe(self) -> str:
        if self.kind == "uniform":
            return "uniform"
        return f"biased p={self.p!r}"


def uniform() -> PriorFamily:
    return PriorFamily("uniform")


def biased(p: float) -> PriorFamily:
    if not 0.0 < p < 0.5:
        raise ValueError(f"bias p must lie strictly inside (0, 1/2), got {p}")
    return PriorFamily("biased", float(p))


@dataclass(frozen=True, eq=False)
class NamedEnsemble:
    """Prior probabilities paired with product states over a composite system."""

    id: str
    composite: CompositeSystem
    states: tuple
    priors: np.ndarray

    def __post_init__(self):
        if len(self.states) != len(self.priors):
            raise ValueError("one prior per state required")
        if np.any(self.priors < 0) or abs(float(self.priors.sum()) - 1.0) > COMPLETENESS_TOL:
            raise ValueError("priors must be nonnegative and sum to 1")

    @property
    def size(self) -> int:
        return len(self.states)

    @property
    def arity(self) -> int:
        return self.composite.arity


def load(ensemble_id: str, priors: PriorFamily | None = None) -> NamedEnsemble:
    """Build a cataloged ensemble with the requested prior family (default uniform)."""
    if ensemble_id not in _STATE_TABLES:
        raise KeyError(f"unknown ensemble id {ensemble_id!r}; choose from {CATALOG_IDS}")
    if priors is None:
        priors = uniform()
    n, table = _STATE_TABLES[ensemble_id]
    part = make_bloch_circle() if n is None else make_polygon(n)
    factor = part.state_at if n is None else part.pure_state
    states = tuple(ProductState(tuple(factor(x) for x in row)) for row in table)
    parts = (part,) * len(table[0])
    return NamedEnsemble(ensemble_id, CompositeSystem(parts), states, priors.weights(len(states)))


def state_labels(ensemble_id: str) -> tuple:
    """Per-state factor labels: w<i> for polygon pure states, a=<angle> on the Bloch circle."""
    n, table = _STATE_TABLES[ensemble_id]
    label = (lambda a: f"a={a:.10g}") if n is None else (lambda i: f"w{i}")
    return tuple(" x ".join(label(x) for x in row) for row in table)


def default_measurements(part) -> list:
    """A party's default measurements: every binary extremal one of a polygon, the Z and X bases on the circle."""
    if part.kind == "bloch_circle":
        return [np.stack([part.effect_at(a), part.effect_at(b)]) for a, b in _CIRCLE_BASES]
    return part.measurements()


def load_measurement(ensemble_id: str) -> SeparableMeasurement:
    """The cataloged perfectly discriminating separable measurement (s5, s6, s7 only)."""
    table = _MEASUREMENT_TABLES.get(ensemble_id)
    if table is None:
        raise ValueError(f"no cataloged discriminating measurement for {ensemble_id!r}")
    n = int(ensemble_id[1])
    poly = make_polygon(n)
    effects = []
    for row in table:
        factors = tuple(poly.effect(i if tag == "e" else n + i) for tag, i in row)
        labels = tuple(f"e{i}" if tag == "e" else f"eb{i}" for tag, i in row)
        effects.append(ProductEffect(factors, labels))
    return SeparableMeasurement(tuple(effects))


def _party_candidates(part) -> list:
    """Deduplicated (label, vector) effect candidates: ray extremals then complements."""
    seen = {}
    for k in range(2 * part.n):
        key = tuple(np.round(part.effect(k), 12))
        if key not in seen:
            seen[key] = (part.effect_label(k), part.effect(k))
    return list(seen.values())


def search_perfect_separable(
    ens: NamedEnsemble,
    node_budget: int = 1_000_000,
    eps: float = DEFAULT_EPS,
):
    """Brute-force a complete separable measurement with identity confusion matrix.

    Candidate factors per party are the ray-extremal effects and their
    complements.  For each ensemble state the candidate product effects are
    those filtering it with probability one and every other state with
    probability zero; a depth-first search then assigns one candidate per
    state, pruning whenever the running sum exceeds the unit on any product
    of pure states.  Returns the first measurement found in candidate order,
    or None when the space is exhausted.  Raises SearchSpaceTooLarge when
    more than ``node_budget`` assignments are attempted.
    """
    comp = ens.composite
    if comp.arity > 3:
        raise ValueError("measurement search supports arity <= 3")
    if any(p.kind != "polygon" for p in comp.parts):
        raise ValueError("measurement search supports polygon parties only")
    k = ens.size
    if k == 1:
        unit = ProductEffect(
            tuple(p.unit_effect for p in comp.parts),
            tuple("u" for _ in comp.parts),
        )
        return SeparableMeasurement((unit,))

    candidates = [_party_candidates(p) for p in comp.parts]

    # Candidate rows are values on all products of pure states; since pure
    # states span R^3 per party, completeness is equivalent to these rows
    # summing to one everywhere.
    per_state = []
    for j in range(k):
        options = []
        for p_i, part in enumerate(comp.parts):
            factor = ens.states[j].factors[p_i]
            options.append(
                [(lab, vec) for lab, vec in candidates[p_i] if abs(prob(vec, factor, eps) - 1.0) <= eps]
            )
        rows = []
        for choice in itertools.product(*options):
            effect = ProductEffect(
                tuple(vec for _, vec in choice),
                tuple(lab for lab, _ in choice),
            )
            if all(product_prob(effect, ens.states[m], eps) <= eps for m in range(k) if m != j):
                vertex_values = kron(
                    [part.pure_states @ vec for part, (_, vec) in zip(comp.parts, choice)]
                )
                rows.append((effect, vertex_values))
        if not rows:
            return None
        per_state.append(rows)

    total_vertices = math.prod(p.n for p in comp.parts)
    nodes = 0

    def dfs(j: int, running: np.ndarray):
        nonlocal nodes
        if j == k:
            if float(np.max(np.abs(running - 1.0))) <= DEFAULT_EPS:
                return []
            return None
        for effect, row in per_state[j]:
            nodes += 1
            if nodes > node_budget:
                raise SearchSpaceTooLarge(f"exceeded node budget {node_budget}")
            stacked = running + row
            if float(stacked.max()) <= 1.0 + DEFAULT_EPS:
                rest = dfs(j + 1, stacked)
                if rest is not None:
                    return [effect] + rest
        return None

    found = dfs(0, np.zeros(total_vertices))
    if found is None:
        return None
    return SeparableMeasurement(tuple(found))
