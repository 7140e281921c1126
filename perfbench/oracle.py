"""Exhaustive two-party protocol oracle, independent of the library's recursion.

Likelihoods are recomputed here from the raw state and effect vectors, and
every adaptive two-party tree is enumerated explicitly: the first party and
their measurement, then one follow-up measurement of the other party per
first outcome, or no follow-up at all, with every leaf guessing the heaviest
state.  Only the success value is compared, never the tree, because ties can
be broken differently.
"""

from __future__ import annotations

import itertools

import numpy as np


def likelihoods(ens, measurements) -> list:
    """lik[p][m] as an (outcomes, states) array, clipped onto [0, 1]."""
    out = []
    for p, per_party in enumerate(measurements):
        factors = np.array([st.factors[p] for st in ens.states])
        out.append([np.clip(np.asarray(m, dtype=float) @ factors.T, 0.0, 1.0) for m in per_party])
    return out


def two_party_optimum(priors, lik) -> float:
    """Best success over every adaptive tree in which each party measures at most once."""
    priors = np.asarray(priors, dtype=float)
    best = float(priors.max())  # the empty tree: guess without measuring
    for first in (0, 1):
        second = 1 - first
        # None stands for "stop and guess" after the first outcome.
        follow_ups = [None, *lik[second]]
        for table in lik[first]:
            for plan in itertools.product(follow_ups, repeat=table.shape[0]):
                total = 0.0
                for outcome, follow in enumerate(plan):
                    w = priors * table[outcome]
                    if follow is None:
                        total += float(w.max())
                    else:
                        total += sum(float((w * row).max()) for row in follow)
                best = max(best, total)
    return best
