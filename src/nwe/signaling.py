"""Single-system channels and membership in the classical d-symbol polytope.

Transmitting an elementary system once induces the channel
rows[x, y] = p(decoding effect y | encoding state x).  The classical
reference set for alphabet size d is the convex hull of all deterministic
encode/decode compositions (input -> one of d symbols -> output); membership
of a channel in that polytope is decided by linear feasibility over the
vertex list, returning convex weights as a certificate or a separating
hyperplane as a witness.  These are finite (m, n, d) certifications only;
no claim is quantified over all alphabet sizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .systems import COMPLETENESS_TOL, DEFAULT_EPS, GptSystem, prob, require_complete

VERTEX_ENUMERATION_BOUND = 100_000
MEMBERSHIP_TOL = 1e-7
WITNESS_MARGIN = 1e-9

__all__ = [
    "Channel",
    "DeterministicStrategy",
    "InconclusiveMembership",
    "MembershipResult",
    "VertexBoundError",
    "classical_vertices",
    "gpt_channel",
    "in_classical_polytope",
]


class VertexBoundError(ValueError):
    """The requested vertex enumeration exceeds the supported bound."""


class InconclusiveMembership(RuntimeError):
    """Neither membership weights nor a separating witness met its margin."""


@dataclass(frozen=True, eq=False)
class Channel:
    """An m-input/n-output conditional probability matrix (rows stochastic)."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        object.__setattr__(self, "rows", rows)
        if rows.ndim != 2 or rows.size == 0:
            raise ValueError("channel needs a nonempty 2-D row matrix")
        if rows.min() < -COMPLETENESS_TOL:
            raise ValueError("channel rows must be nonnegative")
        if np.max(np.abs(rows.sum(axis=1) - 1.0)) > COMPLETENESS_TOL:
            raise ValueError("channel rows must each sum to 1")

    @property
    def m(self) -> int:
        return self.rows.shape[0]

    @property
    def n(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class DeterministicStrategy:
    """encode: input -> symbol among d; decode: symbol -> output."""

    encode: tuple
    decode: tuple

    def channel(self, n_outputs: int) -> Channel:
        rows = np.zeros((len(self.encode), n_outputs))
        for x, symbol in enumerate(self.encode):
            rows[x, self.decode[symbol]] = 1.0
        return Channel(rows)


def gpt_channel(sys: GptSystem, encodings, decoding, eps: float = DEFAULT_EPS) -> Channel:
    """Channel induced by sending one of ``encodings`` and measuring ``decoding``."""
    effects = [np.asarray(e, dtype=float) for e in decoding]
    require_complete(effects, sys.unit_effect, "decoding")
    rows = np.array([[prob(e, np.asarray(w, dtype=float), eps) for e in effects] for w in encodings])
    return Channel(rows)


def classical_vertices(m: int, n: int, d: int) -> list:
    """All distinct 0/1 channels realizable with d noiseless symbols."""
    if d**m * n**d > VERTEX_ENUMERATION_BOUND:
        raise VertexBoundError(
            f"d^m * n^d = {d**m * n**d} exceeds bound {VERTEX_ENUMERATION_BOUND}"
        )
    out = []
    seen = set()
    for encode in itertools.product(range(d), repeat=m):
        for decode in itertools.product(range(n), repeat=d):
            ch = DeterministicStrategy(encode, decode).channel(n)
            key = ch.rows.tobytes()
            if key not in seen:
                seen.add(key)
                out.append(ch)
    return out


@dataclass(frozen=True, eq=False)
class MembershipResult:
    """Outcome of a polytope membership test, with its certificate.

    ``weights`` are convex coefficients over the vertex list (inside) and
    ``witness`` is a separating pair (h, c) with h.ch > c >= h.v for every
    vertex v (outside); ``margin`` quantifies whichever certificate applies.
    """

    inside: bool
    weights: np.ndarray | None
    witness: tuple | None
    margin: float


def in_classical_polytope(ch: Channel, d: int, vertices=None) -> MembershipResult:
    """Decide whether ch is a convex combination of the d-symbol vertices.

    Feasible weights within MEMBERSHIP_TOL certify membership; otherwise a
    separating hyperplane with margin above WITNESS_MARGIN certifies
    exclusion.  Raises InconclusiveMembership when neither margin is met.
    """
    if vertices is None:
        vertices = classical_vertices(ch.m, ch.n, d)
    V = np.array([v.rows.ravel() for v in vertices])  # (K, m*n)
    x = ch.rows.ravel()
    K = len(vertices)

    A_eq = np.vstack([V.T, np.ones((1, K))])
    b_eq = np.concatenate([x, [1.0]])
    res = linprog(np.zeros(K), A_eq=A_eq, b_eq=b_eq, bounds=[(0.0, None)] * K, method="highs")
    if res.status == 0:
        weights = np.asarray(res.x)
        err = float(np.max(np.abs(V.T @ weights - x)))
        err = max(err, abs(float(weights.sum()) - 1.0))
        if err <= MEMBERSHIP_TOL:
            return MembershipResult(True, weights, None, err)

    # Separation: maximize h.x - c subject to h.v_k <= c and |h| <= 1.
    mn = x.size
    objective = np.concatenate([-x, [1.0]])
    A_ub = np.hstack([V, -np.ones((K, 1))])
    b_ub = np.zeros(K)
    bounds = [(-1.0, 1.0)] * mn + [(-(mn + 1.0), mn + 1.0)]
    sep = linprog(objective, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if sep.status != 0:
        raise InconclusiveMembership(f"separation solve failed with status {sep.status}")
    margin = -float(sep.fun)
    if margin > WITNESS_MARGIN:
        h = np.asarray(sep.x[:mn]).reshape(ch.rows.shape)
        c = float(sep.x[mn])
        return MembershipResult(False, None, (h, c), margin)
    raise InconclusiveMembership(
        f"feasibility margin {margin:.3e} below {WITNESS_MARGIN}; result not guessed"
    )
