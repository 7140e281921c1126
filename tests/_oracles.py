"""Independent oracles used across the test suite.

Everything here deliberately avoids the library's protocol recursion:
the brute-force enumerator walks all adaptive two-party trees explicitly,
the simulator draws physical measurement outcomes one sample at a time, and
golden-section search minimizes the qubit theta-protocol error numerically,
independent of its closed form.
"""

import itertools
import math

import numpy as np

import nwe
from nwe.discrimination import Leaf
from nwe.systems import prob


def likelihood_tables(ens, cfg):
    """lik[p][m] as an (outcomes, states) array of factor probabilities."""
    return [
        [
            np.array([[prob(e, st.factors[p]) for st in ens.states] for e in meas])
            for meas in cfg.measurements[p]
        ]
        for p in range(ens.arity)
    ]


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


def random_instance(rng):
    """Random two-party polygon product ensemble with <= 2 measurements per party."""
    ns = (int(rng.integers(4, 8)), int(rng.integers(4, 8)))
    parts = tuple(nwe.make_polygon(n) for n in ns)
    k = int(rng.integers(2, 7))
    idx = [(int(rng.integers(0, ns[0])), int(rng.integers(0, ns[1]))) for _ in range(k)]
    states = tuple(
        nwe.ProductState((parts[0].pure_state(i), parts[1].pure_state(j))) for i, j in idx
    )
    w = rng.random(k) + 0.1
    w /= w.sum()
    ens = nwe.NamedEnsemble("random", nwe.CompositeSystem(parts), states, w)
    per_party = []
    for part in parts:
        total = len(part.extremal_measurements)
        take = sorted(rng.choice(total, size=min(2, total), replace=False).tolist())
        per_party.append(tuple(part.measurement(int(m)) for m in take))
    return ens, nwe.SearchConfig(tuple(per_party))


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
