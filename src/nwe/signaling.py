"""Single-system channels and membership in the classical d-symbol polytope.

Transmitting an elementary system once induces the channel
rows[x, y] = p(decoding effect y | encoding state x); ``polygon_channels``
reads every polygon channel off one likelihood table.  The classical
reference set for alphabet size d is the convex hull of the deterministic
encode/decode compositions (input -> one of d symbols -> output), built as
one read-only (K, m, n) 0/1 stack and checked once; ``in_classical_polytope``
tests a channel against that stack directly.  ``classical_vertices`` and
``polygon_channels`` return a tuple of channels with read-only rows, views of
one checked stack that the tuple carries and that membership reads.  Closed
forms decide most channels: product weights recompose every channel when
d >= min(m, n), column means recompose an equal-row channel when d = 1, and a
greedy guessing set of d+1 pairs with no shared input or output proves
exclusion when its probabilities sum above d (Frenkel & Weiner, CMP 340, 563
(2015)).  Any other channel goes to ``separation_lp``, which gives either the
witness against membership or, through its duals, the convex weights for it;
scipy is imported only when it runs.  These are finite (m, n, d)
certifications only; no claim spans all alphabet sizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .systems import COMPLETENESS_TOL, DEFAULT_EPS, GptSystem, _frozen, likelihoods, require_complete

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
    "separation_lp",
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
        _require_stochastic(rows, 2)


def _require_stochastic(rows: np.ndarray, ndim: int) -> None:
    """Raise ValueError unless rows is a nonempty ndim-D array of stochastic rows: one channel (2) or a stack (3)."""
    if rows.ndim != ndim or rows.size == 0:
        raise ValueError("channel needs a nonempty 2-D row matrix")
    # written so that NaN fails: min and max propagate it, and every comparison with NaN is False
    if not rows.min() >= -COMPLETENESS_TOL:
        raise ValueError("channel rows must be nonnegative")
    if not np.abs(rows.sum(axis=-1) - 1.0).max() <= COMPLETENESS_TOL:
        raise ValueError("channel rows must each sum to 1")


class _Listed(tuple):
    """Channels cut from one checked, read-only (K, m, n) stack, in its order; ``stack`` is that stack.

    A tuple cannot be reordered or extended, so ``stack`` always matches it; a slice,
    ``list(...)`` or ``reversed(...)`` of it is a plain sequence without ``stack``.
    """

    stack: np.ndarray

    def __reduce__(self):
        # a pickled or copied tuple is rebuilt by _channels, so its rows are again views of its own read-only stack
        return _channels, (self.stack,)


def _channels(stack: np.ndarray) -> _Listed:
    """One Channel per slice of a new (K, m, n) float stack, checked once as a whole; rows are read-only views."""
    _require_stochastic(stack, 3)
    _frozen(stack)
    channels = []
    for rows in stack:
        ch = object.__new__(Channel)  # the whole stack is checked, so no slice is checked again
        object.__setattr__(ch, "rows", rows)
        channels.append(ch)
    listed = _Listed(channels)
    listed.stack = stack
    return listed


def _require_sizes(**sizes) -> None:
    """Raise ValueError naming the first size below 1."""
    for name, size in sizes.items():
        if size < 1:
            raise ValueError(f"{name} must be at least 1, got {size}")


def gpt_channel(sys: GptSystem, encodings, decoding, eps: float = DEFAULT_EPS) -> Channel:
    """Channel induced by sending one of ``encodings`` and measuring ``decoding``."""
    require_complete(decoding, sys.unit_effect, "decoding")
    return Channel(likelihoods(decoding, encodings, eps).T)


def polygon_channels(sys: GptSystem, m: int, eps: float = DEFAULT_EPS) -> tuple:
    """Distinct channels of m pure-state encodings and one binary extremal decoding.

    Each is kept where its entries, rounded to 12 decimals, first occur in the order
    encodings (``itertools.product``) x measurements; above VERTEX_ENUMERATION_BOUND
    channels, VertexBoundError is raised before anything is built.  Returns a
    tuple whose channels' rows are read-only views of one stack (``_Listed``).
    """
    _require_sizes(m=m)
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
    return _channels(generated[list(first.values())])


def classical_vertices(m: int, n: int, d: int) -> tuple:
    """All distinct 0/1 channels realizable with d noiseless symbols, in first-seen strategy order (see ``_Listed``)."""
    return _channels(_vertex_stack(m, n, d))


def _vertex_stack(m: int, n: int, d: int) -> np.ndarray:
    """The read-only (K, m, n) 0/1 stack of ``classical_vertices``, built without a Channel."""
    _require_sizes(m=m, n=n, d=d)
    # capped exponents keep the powers small: a base of 1 stays 1, any larger base exceeds the bound
    if d ** min(m, 64) * n ** min(d, 64) > VERTEX_ENUMERATION_BOUND:
        raise VertexBoundError(f"{d}^{m} * {n}^{d} exceeds bound {VERTEX_ENUMERATION_BOUND}")
    # where each input ends up fixes the channel: one vertex per composition
    compositions = dict.fromkeys(
        tuple(decode[symbol] for symbol in encode)
        for encode in itertools.product(range(d), repeat=m)
        for decode in itertools.product(range(n), repeat=d)
    )
    return _frozen(np.eye(n)[list(compositions)])[0]


@dataclass(frozen=True, eq=False)
class MembershipResult:
    """Outcome of a polytope membership test, with its certificate.

    ``weights`` are convex coefficients over the vertex list (inside) and
    ``witness`` is a separating pair (h, c) with h.ch > c >= h.v for every
    vertex v (outside).  ``margin`` quantifies whichever certificate applies:
    the largest recomposition error of the weights, or the excess h.ch - c.
    The separation LP bounds |h| <= 1 entrywise and maximizes that excess; a
    guessing witness has h the 0/1 indicator of d+1 pairs and c = d, so its
    margin is by how much the guessed probabilities sum above d.
    """

    inside: bool
    weights: np.ndarray | None
    witness: tuple | None
    margin: float


def _convex_certificate(V, x, weights):
    """An inside result if weights are convex coefficients recomposing x within MEMBERSHIP_TOL, else None."""
    err = max(float(abs(V.T @ weights - x).max()), abs(float(weights.sum()) - 1.0), -float(weights.min()))
    return MembershipResult(True, weights, None, err) if err <= MEMBERSHIP_TOL else None


def _witness_certificate(V, x, h, c):
    """An outside result if h.x - c exceeds MEMBERSHIP_TOL and h.v <= c for every vertex row v of V, else None."""
    margin = float(h.ravel() @ x) - c
    if margin > MEMBERSHIP_TOL and float((V @ h.ravel()).max()) <= c:
        return MembershipResult(False, None, (h, c), margin)
    return None


def _guessing_set(rows, d):
    """0/1 indicator of d+1 (x, y) pairs sharing no x and no y, taken greedily from the largest entry down.

    Needs d < min(m, n): each pick uses up one row and one column, so d+1 picks always fit.
    """
    h = np.zeros_like(rows)
    picked_x, picked_y = set(), set()
    for flat in np.argsort(-rows, axis=None, kind="stable"):
        x, y = divmod(int(flat), rows.shape[1])
        if x not in picked_x and y not in picked_y:
            h[x, y] = 1.0
            picked_x.add(x)
            picked_y.add(y)
            if len(picked_x) > d:
                break
    return h


def _vertex_matrix(ch: Channel, vertices) -> np.ndarray:
    """The (K, m*n) matrix of flattened vertices, read once, after checking they all have ch's shape.

    For the channels ``_channels`` returns, it is a read-only view of their stack.
    """
    if isinstance(vertices, _Listed):
        rows = vertices.stack
        shapes = {rows.shape[1:]}
    else:
        rows = [v.rows for v in vertices]
        shapes = {r.shape for r in rows}
    if shapes != {ch.rows.shape}:
        raise ValueError(f"vertex shapes {sorted(shapes)} do not match the channel's shape {ch.rows.shape}")
    return np.asarray(rows).reshape(len(rows), -1)


def in_classical_polytope(ch: Channel, d: int, vertices=None) -> MembershipResult:
    """Decide whether ch is a convex combination of the d-symbol vertices (a nonempty sequence of ch's shape).

    The closed forms come first.  Membership is certified by convex weights
    within MEMBERSHIP_TOL: the product weights, or for d = 1 the column
    means.  Exclusion is certified by a greedy guessing witness whose margin
    exceeds MEMBERSHIP_TOL and that every listed vertex satisfies.  Any
    other channel is decided by ``separation_lp``, which raises
    InconclusiveMembership when neither of its margins is met.  Without
    vertices, the d-symbol stack is built here; any iterable is read once.
    """
    if vertices is None:
        stack = _vertex_stack(*ch.rows.shape, d)
        V = stack.reshape(len(stack), -1)  # (K, m*n)
    else:
        V = _vertex_matrix(ch, vertices)
        stack = V.reshape(-1, *ch.rows.shape)
    x = ch.rows.ravel()
    # product weights w_f = prod_x p(f(x)|x) recompose ch when the vertices are every deterministic
    # channel, as for d >= min(m, n) (Ziegler, Lectures on Polytopes); else the certificate decides
    if inside := _convex_certificate(V, x, (stack * ch.rows).sum(2).prod(1)):
        return inside
    # one symbol sends every input to one output: the constant channels, weighted by the column means
    if d == 1 and (inside := _convex_certificate(V, x, V @ x / ch.rows.shape[0])):
        return inside
    # every vertex guesses at most d of d+1 pairs that share no input and no output
    if d < min(ch.rows.shape) and (outside := _witness_certificate(V, x, _guessing_set(ch.rows, d), float(d))):
        return outside
    return _separate(ch, V)


def separation_lp(ch: Channel, vertices) -> MembershipResult:
    """Decide membership of ch in the hull of vertices (a nonempty sequence of ch's shape) by one HiGHS LP.

    Maximizes h.ch - c subject to h.v <= c for every vertex v and |h| <= 1
    entrywise.  A margin above WITNESS_MARGIN returns that witness; otherwise
    the row duals, checked by the convex certificate, return the weights.
    Raises InconclusiveMembership when the solve fails or neither margin is met.
    Any iterable of vertices is read once.
    """
    return _separate(ch, _vertex_matrix(ch, vertices))


def _separate(ch: Channel, V: np.ndarray) -> MembershipResult:
    """The body of ``separation_lp``, given the (K, m*n) vertex matrix."""
    x = ch.rows.ravel()
    K = len(V)

    # scipy.optimize takes most of the package's import time; only here is it needed
    from scipy.optimize import linprog

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
