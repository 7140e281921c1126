"""Named product-state ensembles and their discriminating separable measurements.

Five ensembles are cataloged under stable string ids:

    s4  four 2-party squit products, locally discriminable only Alice-first
    s5  eight 3-party pentagon products, pattern (h, a, b) = (2, 1, 4)
    s6  eight 3-party hexagon products, pattern (3, 1, 5)
    s7  eight 3-party heptagon products, pattern (3, 1, 5)
    q3  the eight 3-qubit products |000>, |111>, |+01>, |-01>, |01+>, |01->,
        |1+0>, |1-0>, stored as Bloch-circle angles (all lie in the XZ plane)

The 8-state sets are one construction in the style of Bennett et al.
(PRA 59, 1070 (1999)), the pattern

    (0,0,0), (h,h,h), (a,0,h), (b,0,h), (0,h,a), (0,h,b), (h,a,0), (h,b,0)

of pure-state indices w_i on the n-gon, or of angles on the circle for q3
(0, pi, pi/2, 3 pi/2 for |0>, |1>, |+>, |->).  Each polygon id comes with a
perfect separable measurement built the same way: every party answers w0
and wh with the two outcomes of its extremal measurement 0, and wa and wb
with those of measurement 1.  That this rule discriminates perfectly is
checked for s5, s6 and s7, not claimed for every pattern.

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

from .composition import CompositeSystem, ProductEffect, ProductState, SeparableMeasurement, kron
from .systems import COMPLETENESS_TOL, DEFAULT_EPS, likelihoods, make_bloch_circle, make_polygon

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
    "require_priors",
    "search_perfect_separable",
    "state_labels",
    "uniform",
]


class SearchSpaceTooLarge(RuntimeError):
    """The measurement search exceeded its node budget."""


def _pattern(h, a, b, o=0):
    """The eight 3-party rows shared by s5, s6, s7 and q3, with o in the role of w0."""
    return ((o, o, o), (h, h, h), (a, o, h), (b, o, h), (o, h, a), (o, h, b), (h, a, o), (h, b, o))


_PI = math.pi
# Bloch-circle angles: |0> -> 0, |1> -> pi, |+> -> pi/2, |-> -> 3 pi/2.
Q3_ANGLES = _pattern(_PI, 0.5 * _PI, 1.5 * _PI, 0.0)

# Finite default measurement set of a Bloch-circle party: the computational
# (Z) and conjugate (X) bases.
_CIRCLE_BASES = ((0.0, _PI), (0.5 * _PI, 1.5 * _PI))

# Polygon size and pattern (h, a, b) of each polygon 8-state id.
_PATTERNS = {"s5": (5, 2, 1, 4), "s6": (6, 3, 1, 5), "s7": (7, 3, 1, 5)}

# Per-state factor tables by id, with the polygon size (None: Bloch circle):
# pure-state indices on a polygon, angles on the circle.
_STATE_TABLES = {
    "s4": (4, ((0, 0), (0, 3), (1, 0), (2, 1))),
    **{cid: (n, _pattern(h, a, b)) for cid, (n, h, a, b) in _PATTERNS.items()},
    "q3": (None, Q3_ANGLES),
}
CATALOG_IDS = tuple(_STATE_TABLES)


@dataclass(frozen=True)
class PriorFamily:
    """Uniform priors (p None), or the biased family with weight p on states 3 and 4 (1-indexed)."""

    p: float | None = None

    def __post_init__(self):
        if self.p is not None and not 0.0 < self.p < 0.5:  # NaN fails
            raise ValueError(f"bias p must lie strictly inside (0, 1/2), got {self.p}")

    def weights(self, k: int) -> np.ndarray:
        if self.p is None:
            return np.full(k, 1.0 / k)
        if k != 8:
            raise ValueError("biased priors are defined for 8-state ensembles")
        rest = (1.0 - 2.0 * self.p) / 6.0
        w = np.full(8, rest)
        w[2] = w[3] = self.p
        return w

    def describe(self) -> str:
        return "uniform" if self.p is None else f"biased p={self.p!r}"


def require_priors(priors, size: int) -> None:
    """Check one row of priors, or a (B, size) stack of rows: size nonnegative entries summing to 1."""
    priors = np.asarray(priors, dtype=float)
    if priors.ndim not in (1, 2) or priors.shape[-1] != size:
        raise ValueError("one prior per state required")
    if not (np.all(priors >= 0) and np.all(np.abs(priors.sum(axis=-1) - 1.0) <= COMPLETENESS_TOL)):  # NaN fails
        raise ValueError("priors must be nonnegative and sum to 1")


def uniform() -> PriorFamily:
    return PriorFamily()


def biased(p: float) -> PriorFamily:
    return PriorFamily(float(p))


@dataclass(frozen=True, eq=False)
class NamedEnsemble:
    """Prior probabilities paired with product states over a composite system."""

    id: str
    composite: CompositeSystem
    states: tuple
    priors: np.ndarray

    def __post_init__(self):
        require_priors([self.priors], self.size)  # as a one-row stack, so a stack of rows is refused

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
    if ensemble_id not in _PATTERNS:
        raise ValueError(f"no cataloged discriminating measurement for {ensemble_id!r}")
    poly = make_polygon(_PATTERNS[ensemble_id][0])
    (o, h), (a, b) = poly.extremal_measurements[:2]
    return SeparableMeasurement(
        tuple(
            ProductEffect(tuple(poly.effect(k) for k in row), tuple(poly.effect_label(k) for k in row))
            for row in _pattern(h, a, b, o)
        )
    )


def _party_candidates(part) -> list:
    """(label, vector) candidates: ray extremals, then complements if n is odd (else each is a ray extremal)."""
    return [(part.effect_label(k), part.effect(k)) for k in range(part.n if part.n % 2 == 0 else 2 * part.n)]


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
    # tables[p][j, c]: probability of party p's candidate c on state j's factor there
    tables = [
        likelihoods([st.factors[p] for st in ens.states], [vec for _, vec in cands], eps)
        for p, cands in enumerate(candidates)
    ]

    # Candidate rows are values on all products of pure states; since pure
    # states span R^3 per party, completeness is equivalent to these rows
    # summing to one everywhere.
    per_state = []
    for j in range(k):
        options = [np.flatnonzero(np.abs(t[j] - 1.0) <= eps) for t in tables]
        rows = []
        for choice in itertools.product(*options):
            on_states = math.prod(t[:, c] for t, c in zip(tables, choice))  # parties in order
            if np.all(np.delete(on_states, j) <= eps):
                labels, vecs = zip(*(cands[c] for cands, c in zip(candidates, choice)))
                vertex_values = kron([part.pure_states @ vec for part, vec in zip(comp.parts, vecs)])
                rows.append((ProductEffect(vecs, labels), vertex_values))
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
