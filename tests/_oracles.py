"""Independent oracles used across the test suite.

Everything here deliberately avoids the library's subset-lattice optimizer:
the recursion solves every subproblem once per party order that reaches it,
the brute-force enumerator walks all adaptive two-party trees explicitly,
the simulator draws physical measurement outcomes one sample at a time, and
golden-section search minimizes the qubit theta-protocol error numerically,
independent of its closed form (``qt_perr`` sums that error state by
state).  Polygon channels are built with one ``gpt_channel`` call per
(encoding, measurement) and deduplicated afterwards, classical vertices
one deterministic strategy at a time, polytope membership with a
feasibility LP before the separation LP, and the
measurement search filters its candidates with scalar ``prob`` and
``product_prob`` calls.  Apart from ``gpt_channel``, which reads one small
table per channel, likelihoods come from scalar ``prob`` calls, not from
``systems.likelihoods``.  The two exceptions to the first sentence are
``gather_bellman``, the lattice's Bellman pass as it was written with
fancy-index gathers, the reference for the order in which the optimizer
adds a measurement's outcomes; and ``rebuilt_optimal_local``, which runs
the library's lattice and rebuilds the tree as the optimizer first did,
re-reading every measurement from the config, the reference for its tree.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

import nwe
from nwe.catalog import Q3_ANGLES, SearchSpaceTooLarge, _party_candidates
from nwe.composition import ProductEffect, SeparableMeasurement, kron
from nwe.discrimination import DiscriminationReport, Leaf, Node, _bellman, _leaf_values, _movers, _tables
from nwe.quantum import grouping
from nwe.signaling import (
    MEMBERSHIP_TOL,
    WITNESS_MARGIN,
    Channel,
    InconclusiveMembership,
    MembershipResult,
    gpt_channel,
)
from nwe.systems import DEFAULT_EPS, prob


def product_prob(E, phi, eps=DEFAULT_EPS) -> float:
    """Probability of a product effect on a product state: the factorwise product."""
    if E.arity != phi.arity:
        raise ValueError(f"arity mismatch: effect {E.arity} vs state {phi.arity}")
    out = 1.0
    for e, w in zip(E.factors, phi.factors):
        out *= prob(e, w, eps)
    return out


def likelihood_tables(ens, cfg):
    """lik[p][m] as an (outcomes, states) array of factor probabilities."""
    return [
        [
            np.array([[prob(e, st.factors[p]) for st in ens.states] for e in meas])
            for meas in cfg.measurements[p]
        ]
        for p in range(ens.arity)
    ]


def scalar_tables(ens, cfg):
    """Each party's likelihood table from scalar ``prob`` calls, party by party: a row of ones,
    then one row per (measurement, outcome) in order, one column per state."""
    return [
        np.array([[1.0] * len(ens.states)] + [[prob(e, st.factors[p]) for st in ens.states] for m in per for e in m])
        for p, per in enumerate(cfg.measurements)
    ]


def recursive_optimal_local(ens, cfg, leader=None):
    """The optimum by explicit recursion over party orders, with the optimizer's tie-break.

    Solves each subproblem once per order in which it is reached, so it is
    exponentially slower than ``nwe.optimal_local``; inputs are not
    validated.
    """
    arity = ens.arity
    # lik[p][mi][o] = per-state likelihood vector of outcome o
    lik = likelihood_tables(ens, cfg)

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


def brute_force_optimal(priors, lik):
    """Exhaustive maximum over adaptive two-party protocol trees.

    The first party and their measurement are chosen up front, the second
    party's measurement may depend on the observed outcome, and every leaf
    guesses the maximum-weight state.
    """
    priors = np.asarray(priors, dtype=float)
    best = -1.0
    for first in (0, 1):
        second = 1 - first
        for meas in lik[first]:
            n_out = meas.shape[0]
            for follow in itertools.product(range(len(lik[second])), repeat=n_out):
                total = 0.0
                for o in range(n_out):
                    w = priors * meas[o]
                    m2 = lik[second][follow[o]]
                    for o2 in range(m2.shape[0]):
                        total += float((w * m2[o2]).max())
                if total > best:
                    best = total
    return best


def random_instance(rng, arity=2, max_measurements=2, max_states=6):
    """Random polygon product ensemble with 2..max_states states and <= max_measurements per party."""
    ns = tuple(int(rng.integers(4, 8)) for _ in range(arity))
    parts = tuple(nwe.make_polygon(n) for n in ns)
    k = int(rng.integers(2, max_states + 1))
    idx = [tuple(int(rng.integers(0, n)) for n in ns) for _ in range(k)]
    states = tuple(
        nwe.ProductState(tuple(part.pure_state(i) for part, i in zip(parts, ix))) for ix in idx
    )
    w = rng.random(k) + 0.1
    w /= w.sum()
    ens = nwe.NamedEnsemble("random", nwe.CompositeSystem(parts), states, w)
    per_party = []
    for part in parts:
        total = len(part.extremal_measurements)
        take = sorted(rng.choice(total, size=min(max_measurements, total), replace=False).tolist())
        per_party.append(tuple(part.measurement(int(m)) for m in take))
    return ens, nwe.SearchConfig(tuple(per_party))


def mixed_outcome_instance(rng, arity=2, max_measurements=2, max_states=6):
    """``random_instance`` with each measurement refined to 1, 2, 3 or 4 outcomes.

    A binary measurement {a, b} becomes {u}, {a, b}, {t a, (1 - t) a, b} or
    {t a, (1 - t) a, s b, (1 - s) b}; about a third of the parties give every
    measurement the same number of outcomes.
    """
    ens, cfg = random_instance(rng, arity, max_measurements, max_states)
    per_party = []
    for part, binary in zip(ens.composite.parts, cfg.measurements):
        counts = rng.integers(1, 5, size=len(binary))
        if rng.random() < 0.3:
            counts[:] = counts[0]
        per = []
        for (a, b), count in zip(binary, counts.tolist()):
            t, s = rng.uniform(0.2, 0.8, size=2)
            per.append(
                {
                    1: [part.unit_effect],
                    2: [a, b],
                    3: [t * a, (1.0 - t) * a, b],
                    4: [t * a, (1.0 - t) * a, s * b, (1.0 - s) * b],
                }[count]
            )
        per_party.append(tuple(np.array(m) for m in per))
    return ens, nwe.SearchConfig(tuple(per_party))


def gather_bellman(values, offsets, cfg):
    """The lattice's Bellman pass with one fancy-index gather and scatter per outcome position.

    The reference for the summation order of ``discrimination._bellman``:
    every measurement's outcomes are added in outcome order.
    ``offsets[a][mi]`` is the position of measurement mi's first outcome
    among party a's table rows 1..J.
    """
    arity = len(offsets)
    by_leader = []
    for measured in sorted(range((1 << arity) - 1), key=lambda s: -s.bit_count()):
        rest = tuple(a for a in range(arity) if not measured >> a & 1)
        here = tuple(slice(1, None) if measured >> a & 1 else slice(0, 1) for a in range(arity))
        movers = _movers(rest, cfg.adaptive)
        best = None
        for a in rest if measured == 0 else movers:
            after = values[here[:a] + (slice(1, None),) + here[a + 1 :]]
            lead = (slice(None),) * a  # so the next index applies to axis a
            counts = [len(m) for m in cfg.measurements[a]]
            totals = after[lead + (offsets[a],)]
            for o in range(1, max(counts)):
                ms = [mi for mi, n in enumerate(counts) if n > o]
                totals[lead + (ms,)] += after[lead + ([offsets[a][mi] + o for mi in ms],)]
            value = totals.max(axis=a, keepdims=True)
            if measured == 0:
                by_leader.append(value.ravel())
            if a in movers:
                best = value if best is None else np.maximum(best, value)
        values[here] = best
    return tuple(by_leader)


def rebuilt_optimal_local(ens, cfg, leader=None):
    """``optimal_local`` with the top-down tree rebuild as it was first written.

    The lattice is the library's (``_tables``, ``_leaf_values`` and
    ``_bellman``).  At every node the rebuild reads each measurement's
    outcome count from ``cfg.measurements`` and its first table row from
    ``_tables``' offsets, re-sums the candidates' outcomes left to right,
    keeps a later candidate only when it is strictly larger, and gives each
    node a fresh tuple of its effect rows.
    """
    arity = ens.composite.arity
    tables, offsets, slots = _tables(ens, cfg, leader)
    values = _leaf_values(ens.priors[None], tables)[..., 0]
    by_leader = _bellman(values, slots, cfg)

    def build(index, remaining, weights):
        if not remaining or not weights.any():
            return Leaf(int(np.argmax(weights)))
        best_value = -1.0
        for a in _movers(remaining, cfg.adaptive, leader if len(remaining) == arity else None):
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
        return Node(a, mi, tuple(cfg.measurements[a][mi]), tuple(children))

    root = (0,) * arity
    tree = build(root, tuple(range(arity)), ens.priors)
    success = float(values[root] if leader is None else by_leader[leader][0])
    return DiscriminationReport(success, 1.0 - success, tree, leader)


def simulate_tree(tree, ens, n_samples, rng):
    """Monte-Carlo success frequency of a protocol tree under physical sampling."""
    priors = np.asarray(ens.priors, dtype=float)
    cache = {}

    def click_prob(node, state_index):
        key = (id(node), state_index)
        if key not in cache:
            cache[key] = prob(node.effects[0], ens.states[state_index].factors[node.party])
        return cache[key]

    drawn = rng.choice(len(priors), size=n_samples, p=priors)
    correct = 0
    for s in drawn:
        node = tree
        while not isinstance(node, Leaf):
            outcome = 0 if rng.random() < click_prob(node, s) else 1
            node = node.children[outcome]
        correct += node.guess == s
    return correct / n_samples


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def qt_perr(theta: float, priors, leader: int) -> float:
    """Total misclassification probability of the q3 leader's theta measurement.

    A state at leader angle a is missed with probability (1 - cos(theta - a)) / 2
    in the leader's first group and (1 + cos(theta - a)) / 2 in the second.
    """
    w = priors.weights(8)
    g1, _ = grouping(leader)
    total = 0.0
    for i, angles in enumerate(Q3_ANGLES):
        sign = -1.0 if i in g1 else 1.0
        total += w[i] * 0.5 * (1.0 + sign * math.cos(theta - angles[leader]))
    return total


def golden_section_min(f, a: float, b: float, tol: float = 1e-10) -> tuple:
    """Minimize a unimodal scalar function on [a, b] down to interval width tol."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


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


def per_channel_polygon_channels(sysn, m, eps=DEFAULT_EPS):
    """Distinct polygon channels, one ``gpt_channel`` per (encoding, measurement), deduplicated after building."""
    channels = []
    seen = set()
    for encoding in itertools.product(range(sysn.n), repeat=m):
        states = [sysn.pure_state(i) for i in encoding]
        for mi in range(len(sysn.extremal_measurements)):
            ch = gpt_channel(sysn, states, sysn.measurement(mi), eps)
            key = np.round(ch.rows, 12).tobytes()
            if key not in seen:
                seen.add(key)
                channels.append(ch)
    return channels


def two_lp_in_classical_polytope(ch, vertices):
    """Membership by a feasibility LP for convex weights, then a separation LP for the witness.

    The separation LP is the library's own, so outside results must match it
    bit for bit; inside decisions rest on HiGHS feasibility instead of the
    library's product weights and separation duals.
    """
    from scipy.optimize import linprog

    V = np.array([v.rows.ravel() for v in vertices])
    x = ch.rows.ravel()
    K = len(vertices)
    A_eq = np.vstack([V.T, np.ones((1, K))])
    b_eq = np.concatenate([x, [1.0]])
    res = linprog(np.zeros(K), A_eq=A_eq, b_eq=b_eq, bounds=[(0.0, None)] * K, method="highs")
    if res.status == 0:
        weights = np.asarray(res.x)
        err = max(float(np.max(np.abs(V.T @ weights - x))), abs(float(weights.sum()) - 1.0))
        if err <= MEMBERSHIP_TOL:
            return MembershipResult(True, weights, None, err)
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
    raise InconclusiveMembership(f"feasibility margin {margin:.3e} below {WITNESS_MARGIN}")


def scalar_search_perfect_separable(ens, node_budget=1_000_000, eps=DEFAULT_EPS):
    """``catalog.search_perfect_separable`` with its candidates filtered by scalar probabilities."""
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

    def dfs(j, running):
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
