"""One-way theta-protocols for the three-qubit product ensemble, and comparison curves.

The leading party measures the Bloch-circle basis {theta, theta + pi} and
announces which of two groups the state belongs to; each group is then
perfectly resolved by the remaining two parties with measurements at angles
{0, pi} and {pi/2, 3 pi/2}.  All error therefore sits at the leader's step:
a state whose leader factor has angle a is misclassified with probability
(1 - cos(theta - a)) / 2 or (1 + cos(theta - a)) / 2 depending on its group,
so the total error has the form C - (A cos theta + B sin theta) / 2 with
A, B >= 0, minimized exactly at theta* = atan2(B, A) with value
C - sqrt(A^2 + B^2) / 2 for any priors; ``qt_delta_closed`` spells this out
for the biased prior family.

``curve`` pairs these quantum deltas with the pentagon-ensemble deltas from
the discrimination engine over a grid of bias values: one prior row per
point feeds both, and the pentagon ensemble and its config are built at import.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .catalog import Q3_ANGLES, PriorFamily, biased, load
from .discrimination import SearchConfig, leader_optima

# Largest bias grid ``curve`` accepts; it solves 10^5 points in seconds.
MAX_CURVE_STEPS = 100_000

# The pentagon ensemble and its default measurements; no grid changes them.
_S5 = load("s5")
_S5_CONFIG = SearchConfig.for_ensemble(_S5)

__all__ = [
    "CSV_HEADER",
    "CurvePoint",
    "MAX_CURVE_STEPS",
    "curve",
    "curve_csv",
    "grouping",
    "qt_delta_closed",
    "qt_optimize",
    "write_curve_csv",
]


def _split(leader: int) -> tuple:
    """The leader's two groups, and each state's (cos a, sin a) at its leader angle a, negated in the second."""
    groups, terms = ([], []), []
    for i, angles in enumerate(Q3_ANGLES):
        cos_a, sin_a = math.cos(angles[leader]), math.sin(angles[leader])
        first = cos_a + sin_a > 0.0
        groups[not first].append(i)
        terms.append((cos_a, sin_a) if first else (-cos_a, -sin_a))
    return tuple(map(tuple, groups)), tuple(terms)


_GROUPS, _SIGNED_TRIG = zip(*(_split(leader) for leader in range(3)))


def grouping(leader: int) -> tuple:
    """Split state indices by the leader outcome that should claim them.

    Leader-factor angles sit at 0, pi/2, pi, or 3 pi/2; the first group
    collects the states nearer the theta outcome for every theta in
    (0, pi/2), the second the rest.
    """
    if not 0 <= leader < 3:
        raise ValueError(f"leader {leader} out of range")
    return _GROUPS[leader]


def _optimum(w: np.ndarray, leader: int) -> tuple:
    """(theta*, delta) for the prior row w, from the leader's error C - (A cos theta + B sin theta) / 2.

    A state of weight w at leader angle a adds w (1 -/+ cos(theta - a)) / 2 in
    the first/second group; expanding the cosine gives the signed sums A, B.
    """
    a_coef = b_coef = 0.0
    for wi, (cos_a, sin_a) in zip(w.tolist(), _SIGNED_TRIG[leader]):
        a_coef += wi * cos_a
        b_coef += wi * sin_a
    return math.atan2(b_coef, a_coef), 0.5 * float(w.sum()) - 0.5 * math.hypot(a_coef, b_coef)


def qt_optimize(priors: PriorFamily, leader: int) -> tuple:
    """(theta*, delta): the optimal leader angle in [0, pi/2] and its error, in closed form."""
    grouping(leader)  # checks the leader range
    return _optimum(priors.weights(8), leader)


def qt_delta_closed(p: float, protocol: str) -> float:
    """Closed-form optimal error under bias p: protocol 'a' (Alice leads) or 'b' (Bob/Charlie)."""
    biased(p)  # checks the bias domain
    if protocol == "a":
        return 0.5 * (1.0 - math.sqrt(1.0 - 4.0 * p + 8.0 * p * p))
    if protocol == "b":
        return 0.5 * (1.0 - math.sqrt(5.0 + 4.0 * p + 8.0 * p * p) / 3.0)
    raise ValueError(f"protocol must be 'a' or 'b', got {protocol!r}")


class CurvePoint(NamedTuple):
    """One curve row; the field order is the CSV column order."""

    p: float
    delta_poly_a: float
    delta_poly_b: float
    delta_poly: float
    delta_qt_a: float
    delta_qt_b: float
    delta_qt: float


CSV_HEADER = ",".join(CurvePoint._fields)


def curve(p_min: float, p_max: float, steps: int) -> list:
    """Pentagon-vs-quantum deltas over a bias grid of at most MAX_CURVE_STEPS points.

    Per point: the pentagon ensemble deltas with the leader forced to Alice
    (a) and the best of Bob/Charlie (b), and the optimal quantum deltas for
    the same leaders.  Each point's prior row is built once; the pentagon
    deltas of all rows come from one batched ``leader_optima`` call.
    """
    if not 0.0 < p_min < p_max < 0.5:
        raise ValueError(f"need 0 < p_min < p_max < 1/2, got [{p_min}, {p_max}]")
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps}")
    if steps > MAX_CURVE_STEPS:
        raise ValueError(f"need at most {MAX_CURVE_STEPS} steps, got {steps}")
    grid = np.linspace(p_min, p_max, steps).tolist()
    rows = np.array([biased(p).weights(8) for p in grid])
    points = []
    for p, w, optima in zip(grid, rows, leader_optima(_S5, _S5_CONFIG, rows)):
        poly = (1.0 - optima[0], min(1.0 - optima[l] for l in (1, 2)))
        qt = (_optimum(w, 0)[1], min(_optimum(w, l)[1] for l in (1, 2)))
        points.append(CurvePoint(p, *poly, min(poly), *qt, min(qt)))
    return points


def curve_csv(points) -> str:
    """CSV rendering: '.' decimal separator, LF line endings, 10 significant digits."""
    rows = (",".join(format(v, ".10g") for v in pt) for pt in points)
    return "\n".join([CSV_HEADER, *rows]) + "\n"


def write_curve_csv(points, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(curve_csv(points))
