"""Single-system channels and membership in the classical d-symbol polytope.

Transmitting an elementary system once induces the channel
rows[x, y] = p(decoding effect y | encoding state x); ``polygon_channels``
reads every polygon channel off one likelihood table.  The classical
reference set for alphabet size d is the convex hull of the deterministic
encode/decode compositions (input -> one of d symbols -> output).  Product
weights, then one nonnegative least-squares solve, look for convex weights
that certify membership; only when neither finds them does a separation LP
look for the witness against it.  These are finite (m, n, d)
certifications only; no claim spans all alphabet sizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .systems import COMPLETENESS_TOL, DEFAULT_EPS, GptSystem, likelihoods, require_complete

VERTEX_ENUMERATION_BOUND = 100_000
MEMBERSHIP_TOL = 1e-7
WITNESS_MARGIN = 1e-9

__all__ = [
    "Channel",
    "InconclusiveMembership",
    "MembershipResult",
    "VertexBoundError",
    "classical_vertices",
    "gpt_channel",
    "in_classical_polytope",
    "polygon_channels",
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
        rows = np.ascontiguousarray(self.rows, dtype=float)
        object.__setattr__(self, "rows", rows)
        if rows.ndim != 2 or rows.size == 0:
            raise ValueError("channel needs a nonempty 2-D row matrix")
        # written so that NaN fails: min and max propagate it, and every comparison with NaN is False
        if not rows.min() >= -COMPLETENESS_TOL:
            raise ValueError("channel rows must be nonnegative")
        if not np.abs(rows.sum(axis=1) - 1.0).max() <= COMPLETENESS_TOL:
            raise ValueError("channel rows must each sum to 1")


def gpt_channel(sys: GptSystem, encodings, decoding, eps: float = DEFAULT_EPS) -> Channel:
    """Channel induced by sending one of ``encodings`` and measuring ``decoding``."""
    require_complete(decoding, sys.unit_effect, "decoding")
    return Channel(likelihoods(decoding, encodings, eps).T)


def polygon_channels(sys: GptSystem, m: int, eps: float = DEFAULT_EPS) -> list:
    """Distinct channels of m pure-state encodings and one binary extremal decoding.

    Each is kept where its entries, rounded to 12 decimals, first occur in the order
    encodings (``itertools.product``) x measurements; above VERTEX_ENUMERATION_BOUND
    channels, VertexBoundError is raised before anything is built.
    """
    count = len(sys.extremal_measurements)
    # n >= 3, so capping the exponent keeps the power small and the comparison exact
    if sys.n ** min(m, 64) * count > VERTEX_ENUMERATION_BOUND:
        raise VertexBoundError(
            f"{sys.n}^{m} encodings * {count} decodings exceeds bound {VERTEX_ENUMERATION_BOUND}"
        )
    # state-major, so a ProbabilityBoundError names the first offender in generation order
    table = likelihoods(sys.pure_states, np.concatenate(sys.measurements()), eps).reshape(sys.n, count, 2)
    encodings = list(itertools.product(range(sys.n), repeat=m))
    generated = table[encodings].transpose(0, 2, 1, 3).reshape(-1, m, 2)
    first = {}  # keyed on bytes: comparing values would merge -0.0 with 0.0
    for i, rows in enumerate(np.round(generated, 12)):
        first.setdefault(rows.tobytes(), i)
    return [Channel(rows) for rows in generated[list(first.values())]]


def classical_vertices(m: int, n: int, d: int) -> list:
    """All distinct 0/1 channels realizable with d noiseless symbols, in first-seen strategy order."""
    # capped exponents keep the powers small: a base of 1 stays 1, any larger base exceeds the bound
    if d ** min(m, 64) * n ** min(d, 64) > VERTEX_ENUMERATION_BOUND:
        raise VertexBoundError(f"{d}^{m} * {n}^{d} exceeds bound {VERTEX_ENUMERATION_BOUND}")
    # where each input ends up fixes the channel: one vertex per composition
    compositions = dict.fromkeys(
        tuple(decode[symbol] for symbol in encode)
        for encode in itertools.product(range(d), repeat=m)
        for decode in itertools.product(range(n), repeat=d)
    )
    return [Channel(rows) for rows in np.eye(n)[list(compositions)]]


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


def _convex_certificate(V, x, weights):
    """An inside result if weights are convex coefficients recomposing x within MEMBERSHIP_TOL, else None."""
    err = max(float(np.max(np.abs(V.T @ weights - x))), abs(float(weights.sum()) - 1.0), -float(weights.min()))
    return MembershipResult(True, weights, None, err) if err <= MEMBERSHIP_TOL else None


def in_classical_polytope(ch: Channel, d: int, vertices=None) -> MembershipResult:
    """Decide whether ch is a convex combination of the d-symbol vertices (a nonempty list of ch's shape).

    Convex weights within MEMBERSHIP_TOL, from the product weights, one NNLS
    solve or else the separation LP's duals, certify membership; a separating
    hyperplane with margin above WITNESS_MARGIN certifies exclusion.  Raises
    InconclusiveMembership when neither margin is met.
    """
    if vertices is None:
        vertices = classical_vertices(*ch.rows.shape, d)
    if (shapes := {v.rows.shape for v in vertices}) != {ch.rows.shape}:
        raise ValueError(f"vertex shapes {sorted(shapes)} do not match the channel's shape {ch.rows.shape}")
    V = np.array([v.rows.ravel() for v in vertices])  # (K, m*n)
    x = ch.rows.ravel()
    K = len(vertices)
    # product weights w_f = prod_x p(f(x)|x) recompose ch when the vertices are every deterministic
    # channel, as for d >= min(m, n) (Ziegler, Lectures on Polytopes); else the certificate decides
    if inside := _convex_certificate(V, x, (V.reshape(K, *ch.rows.shape) * ch.rows).sum(2).prod(1)):
        return inside

    # scipy.optimize takes most of the package's import time; only here is it needed
    from scipy.optimize import linprog, nnls

    try:  # nonnegative least squares on [V^T; 1^T] w = [x; 1] (Lawson & Hanson, ch. 23)
        weights = nnls(np.vstack([V.T, np.ones(K)]), np.append(x, 1.0))[0]
    except RuntimeError:  # its iteration limit; the separation duals below still certify
        weights = None
    if weights is not None and (inside := _convex_certificate(V, x, weights)):
        return inside

    # Separation: maximize h.x - c subject to h.v_k <= c and |h| <= 1.
    mn = x.size
    objective = np.concatenate([-x, [1.0]])
    A_ub = np.hstack([V, -np.ones((K, 1))])
    bounds = [(-1.0, 1.0)] * mn + [(-(mn + 1.0), mn + 1.0)]
    sep = linprog(objective, A_ub=A_ub, b_ub=np.zeros(K), bounds=bounds, method="highs")
    if sep.status != 0:
        raise InconclusiveMembership(f"separation solve failed with status {sep.status}")
    margin = -float(sep.fun)
    if margin > WITNESS_MARGIN:
        h = np.asarray(sep.x[:mn]).reshape(ch.rows.shape)
        return MembershipResult(False, None, (h, float(sep.x[mn])), margin)
    # at margin 0 the duals of h.v_k <= c are convex weights of ch
    inside = _convex_certificate(V, x, -np.asarray(sep.ineqlin.marginals))
    if inside is None:
        raise InconclusiveMembership(f"feasibility margin {margin:.3e} below {WITNESS_MARGIN}; result not guessed")
    return inside
