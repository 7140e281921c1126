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
the discrimination engine over a grid of bias values.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .catalog import Q3_ANGLES, PriorFamily, biased, load
from .discrimination import SearchConfig, optimal_local

CSV_HEADER = "p,delta_poly_a,delta_poly_b,delta_poly,delta_qt_a,delta_qt_b,delta_qt"

__all__ = [
    "CSV_HEADER",
    "CurvePoint",
    "curve",
    "curve_csv",
    "grouping",
    "qt_delta_closed",
    "qt_optimize",
    "qt_perr",
    "write_curve_csv",
]


def grouping(leader: int) -> tuple:
    """Split state indices by the leader outcome that should claim them.

    Leader-factor angles sit at 0, pi/2, pi, or 3 pi/2; the first group
    collects the states nearer the theta outcome for every theta in
    (0, pi/2), the second the rest.
    """
    if not 0 <= leader < 3:
        raise ValueError(f"leader {leader} out of range")
    g1, g2 = [], []
    for i, angles in enumerate(Q3_ANGLES):
        a = angles[leader]
        (g1 if math.cos(a) + math.sin(a) > 0.0 else g2).append(i)
    return tuple(g1), tuple(g2)


def _weights(priors, k: int = 8) -> np.ndarray:
    if isinstance(priors, PriorFamily):
        return priors.weights(k)
    w = np.asarray(priors, dtype=float)
    if w.shape != (k,):
        raise ValueError(f"expected {k} priors, got shape {w.shape}")
    return w


def _coefficients(priors, leader: int) -> tuple:
    """(A, B, C) with qt_perr(theta) = C - (A cos theta + B sin theta) / 2.

    A state of weight w at leader angle a adds w (1 -/+ cos(theta - a)) / 2 in
    the first/second group; expanding the cosine gives the signed sums below.
    """
    w = _weights(priors)
    g1, _ = grouping(leader)
    a_coef = b_coef = 0.0
    for i, angles in enumerate(Q3_ANGLES):
        signed = float(w[i] if i in g1 else -w[i])
        a_coef += signed * math.cos(angles[leader])
        b_coef += signed * math.sin(angles[leader])
    return a_coef, b_coef, 0.5 * float(w.sum())


def qt_perr(theta: float, priors, leader: int) -> float:
    """Total misclassification probability of the leader's theta measurement."""
    a_coef, b_coef, c = _coefficients(priors, leader)
    return c - 0.5 * (a_coef * math.cos(theta) + b_coef * math.sin(theta))


def qt_optimize(priors, leader: int) -> tuple:
    """(theta*, delta): the optimal leader angle in [0, pi/2] and its error, in closed form."""
    a_coef, b_coef, c = _coefficients(priors, leader)
    return math.atan2(b_coef, a_coef), c - 0.5 * math.hypot(a_coef, b_coef)


def qt_delta_closed(p: float, protocol: str) -> float:
    """Closed-form optimal error under bias p: protocol 'a' (Alice leads) or 'b' (Bob/Charlie)."""
    if not 0.0 < p < 0.5:
        raise ValueError(f"bias p must lie strictly inside (0, 1/2), got {p}")
    if protocol == "a":
        return 0.5 * (1.0 - math.sqrt(1.0 - 4.0 * p + 8.0 * p * p))
    if protocol == "b":
        return 0.5 * (1.0 - math.sqrt(5.0 + 4.0 * p + 8.0 * p * p) / 3.0)
    raise ValueError(f"protocol must be 'a' or 'b', got {protocol!r}")


@dataclass(frozen=True)
class CurvePoint:
    """One curve row; the field order is the CSV column order."""

    p: float
    delta_poly_a: float
    delta_poly_b: float
    delta_poly: float
    delta_qt_a: float
    delta_qt_b: float
    delta_qt: float


def curve(p_min: float, p_max: float, steps: int) -> list:
    """Pentagon-vs-quantum deltas over a bias grid.

    Per point: the pentagon ensemble delta from the discrimination engine
    with the leader forced to Alice (a) and the best of Bob/Charlie (b),
    and the optimal quantum deltas for the same leaders.
    """
    if not 0.0 < p_min < p_max < 0.5:
        raise ValueError(f"need 0 < p_min < p_max < 1/2, got [{p_min}, {p_max}]")
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps}")
    points = []
    for p in np.linspace(p_min, p_max, steps):
        p = float(p)
        family = biased(p)
        ens = load("s5", family)
        cfg = SearchConfig.for_ensemble(ens)
        poly_a = 1.0 - optimal_local(ens, cfg, leader=0).success
        poly_b = min(1.0 - optimal_local(ens, cfg, leader=l).success for l in (1, 2))
        qt_a = qt_optimize(family, 0)[1]
        qt_b = min(qt_optimize(family, l)[1] for l in (1, 2))
        points.append(
            CurvePoint(p, poly_a, poly_b, min(poly_a, poly_b), qt_a, qt_b, min(qt_a, qt_b))
        )
    return points


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


def curve_csv(points) -> str:
    """CSV rendering: '.' decimal separator, LF line endings, 10 significant digits."""
    lines = [CSV_HEADER]
    for pt in points:
        lines.append(",".join(_fmt(v) for v in astuple(pt)))
    return "\n".join(lines) + "\n"


def write_curve_csv(points, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(curve_csv(points))
