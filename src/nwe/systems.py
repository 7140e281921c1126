"""Regular-polygon and Bloch-circle state/effect models in R^3.

States and effects are vectors in R^3 and outcome probabilities are plain
Euclidean inner products.  The regular n-gon model has pure states

    omega_i = (r_n cos(2 pi i / n), r_n sin(2 pi i / n), 1),   r_n = sqrt(sec(pi / n)),

unit effect u = (0, 0, 1), and ray-extremal effects

    even n:  e_i = (r_n cos((2i + 1) pi / n), r_n sin((2i + 1) pi / n), 1) / 2
    odd n:   e_i = (r_n cos(2 pi i / n), r_n sin(2 pi i / n), 1) / (1 + r_n^2)

with complements ebar_i = u - e_i.  For even n the complement of e_i is the
antipodal effect e_{i + n/2}, so the binary extremal measurements are the
n/2 antipodal pairs {e_i, e_{i+n/2}}; for odd n they are the n pairs
{e_i, ebar_i}, and the self-dual pairing gives p(e_i | omega_i) = 1.

The Bloch-circle model is the continuum limit of the polygons: states
(cos a, sin a, 1) and effects (cos t, sin t, 1) / 2 for arbitrary angles,
giving p = (1 + cos(t - a)) / 2.  It is exposed through the same type so
composite machinery treats both uniformly; finite measurement lists for it
are supplied per analysis.

Effects are addressed by a combined index k: 0 <= k < n are the
ray-extremal e_k and n <= k < 2n their complements ebar_{k-n}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

DEFAULT_EPS = 1e-9
COMPLETENESS_TOL = 1e-12

__all__ = [
    "COMPLETENESS_TOL",
    "DEFAULT_EPS",
    "GptSystem",
    "ProbabilityBoundError",
    "ZeroOneProfile",
    "find_pair_discriminator",
    "likelihoods",
    "make_bloch_circle",
    "make_polygon",
    "prob",
    "require_complete",
    "zero_one_profile",
]


class ProbabilityBoundError(ValueError):
    """The inner product of an effect/state pair lies outside [0, 1] beyond tolerance."""


class ZeroOneProfile(NamedTuple):
    """Which pure states one effect filters with probability one, zero, or neither."""

    ones: frozenset
    zeros: frozenset
    fractional: frozenset


@dataclass(frozen=True, eq=False)
class GptSystem:
    """An elementary system: pure states, extremal effects, and the unit effect.

    Immutable after construction (the factories store read-only arrays);
    every operation on it is a pure function, so instances are safe to share
    across threads or processes.
    """

    kind: str  # "polygon" or "bloch_circle"
    pure_states: np.ndarray  # (n, 3); empty for the Bloch circle
    ray_extremal_effects: np.ndarray  # (n, 3)
    complement_effects: np.ndarray  # (n, 3), row i = unit - ray_extremal[i]
    unit_effect: np.ndarray  # (3,)
    extremal_measurements: tuple  # pairs of combined effect indices

    @property
    def n(self) -> int:
        """Number of pure states (0 for the Bloch circle)."""
        return len(self.pure_states)

    def pure_state(self, i: int) -> np.ndarray:
        return self.pure_states[i]

    def effect(self, k: int) -> np.ndarray:
        """Effect by combined index (ray extremals first, then complements)."""
        n = self.n
        if not 0 <= k < 2 * n:
            raise IndexError(f"effect index {k} out of range for a {n}-gon")
        if k < n:
            return self.ray_extremal_effects[k]
        return self.complement_effects[k - n]

    def effect_label(self, k: int) -> str:
        return f"e{k}" if k < self.n else f"eb{k - self.n}"

    @cached_property
    def _measurement_stacks(self) -> np.ndarray:
        """(M, 2, 3) read-only stack of every binary extremal measurement, built on first use."""
        pairs = [[self.effect(i), self.effect(j)] for i, j in self.extremal_measurements]
        return _frozen(np.array(pairs).reshape(-1, 2, 3))[0]

    def measurement(self, m: int) -> np.ndarray:
        """Stacked effect vectors of the m-th binary extremal measurement (read-only)."""
        return self._measurement_stacks[m]

    def measurements(self) -> list:
        return [self.measurement(m) for m in range(len(self.extremal_measurements))]

    # Angle-parameterized accessors; defined for the Bloch circle only.

    def state_at(self, phi: float) -> np.ndarray:
        if self.kind != "bloch_circle":
            raise TypeError("state_at is defined for the Bloch circle only")
        return np.array([math.cos(phi), math.sin(phi), 1.0])

    def effect_at(self, theta: float) -> np.ndarray:
        if self.kind != "bloch_circle":
            raise TypeError("effect_at is defined for the Bloch circle only")
        return np.array([0.5 * math.cos(theta), 0.5 * math.sin(theta), 0.5])


def _frozen(*arrays) -> tuple:
    """The arrays, made read-only: one system is shared by every ensemble and config built on it."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def make_polygon(n: int) -> GptSystem:
    """Construct the regular n-gon model (n >= 3)."""
    if n < 3:
        raise ValueError(f"polygon model needs n >= 3, got {n}")
    r = math.sqrt(1.0 / math.cos(math.pi / n))
    idx = np.arange(n)
    ang = 2.0 * math.pi * idx / n
    states = np.column_stack([r * np.cos(ang), r * np.sin(ang), np.ones(n)])
    if n % 2 == 0:
        eang = (2.0 * idx + 1.0) * math.pi / n
        effects = 0.5 * np.column_stack([r * np.cos(eang), r * np.sin(eang), np.ones(n)])
        meas = tuple((i, i + n // 2) for i in range(n // 2))
    else:
        effects = states / (1.0 + r * r)
        meas = tuple((i, n + i) for i in range(n))
    unit = np.array([0.0, 0.0, 1.0])
    return GptSystem("polygon", *_frozen(states, effects, unit - effects, unit), meas)


def make_bloch_circle() -> GptSystem:
    """Construct the angle-parameterized circle model (XZ great circle of a qubit)."""
    empty, unit = _frozen(np.zeros((0, 3)), np.array([0.0, 0.0, 1.0]))
    return GptSystem("bloch_circle", empty, empty, empty, unit, ())


def _inner(effects: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Inner products over the last axis, summed left to right: ``(t0 + t1) + t2``."""
    # numpy's elementwise ops round once each and never fuse, so no BLAS kernel can change a bit
    terms = effects * states
    v = terms[..., 0]
    for i in range(1, terms.shape[-1]):
        v = v + terms[..., i]
    return v


def prob(effect: np.ndarray, state: np.ndarray, eps: float = DEFAULT_EPS) -> float:
    """Outcome probability <effect, state>.

    Values within eps of 0 or 1 are snapped onto the boundary; anything
    further outside [0, 1] raises ProbabilityBoundError.
    """
    effect = np.asarray(effect, dtype=float)
    state = np.asarray(state, dtype=float)
    if effect.shape != state.shape:
        raise ValueError(f"dimension mismatch: effect {effect.shape} vs state {state.shape}")
    v = float(_inner(effect, state))
    if not -eps <= v <= 1.0 + eps:  # NaN fails
        raise ProbabilityBoundError(f"inner product {v!r} outside [0, 1] (tolerance eps={eps:.10g})")
    return min(max(v, 0.0), 1.0)


def likelihoods(effects, states, eps: float = DEFAULT_EPS) -> np.ndarray:
    """(J, K) table of ``prob(effects[j], states[k], eps)``, bit for bit: the same fixed-order sum.

    Stacks (..., J, dim) of effects and (..., K, dim) of states give a
    (..., J, K) stack of tables, one per leading index.
    """
    effects = np.asarray(effects, dtype=float)
    states = np.asarray(states, dtype=float)
    if effects.shape[-1:] != states.shape[-1:]:
        raise ValueError(f"dimension mismatch: effects {effects.shape} vs states {states.shape}")
    v = _inner(effects[..., None, :], states[..., None, :, :])  # (..., J, 1, dim) against (..., 1, K, dim)
    lo, hi = v.min(initial=np.inf), v.max(initial=-np.inf)  # NaN propagates; an empty table passes
    if not (-eps <= lo and hi <= 1.0 + eps):
        bad = v[~((v >= -eps) & (v <= 1.0 + eps))]
        raise ProbabilityBoundError(f"inner product {float(bad[0])!r} outside [0, 1] (tolerance eps={eps:.10g})")
    # clip, unlike np.maximum, keeps -0.0, which polygon_channels' byte keys tell apart
    return v.clip(0.0, 1.0, out=v) if lo < 0.0 or hi > 1.0 else v


def require_complete(effects, unit: np.ndarray, what: str) -> None:
    """Raise ValueError unless the effects sum to the unit within DEFAULT_EPS."""
    _require_sums(np.asarray(effects, dtype=float).sum(axis=0), unit, what)


def _require_sums(sums: np.ndarray, unit: np.ndarray, what: str) -> None:
    """``require_complete`` on effect sums already added: each row of ``sums`` must be the unit."""
    if not np.abs(sums - unit).max() <= DEFAULT_EPS:  # NaN fails
        raise ValueError(f"incomplete {what}: effects do not sum to the unit")


def find_pair_discriminator(
    sys: GptSystem,
    omega_a: np.ndarray,
    omega_b: np.ndarray,
    eps: float = DEFAULT_EPS,
):
    """Binary measurement {e, u - e} with p(e|a) = 1 and p(e|b) = 0, if one exists.

    Scans the ray-extremal effects and then their complements; returns the
    stacked (2, dim) measurement, or None when no candidate filters the pair.
    """
    for k in range(2 * sys.n):
        e = sys.effect(k)
        if abs(float(e @ omega_a) - 1.0) <= eps and abs(float(e @ omega_b)) <= eps:
            return np.stack([e, sys.unit_effect - e])
    return None


def zero_one_profile(sys: GptSystem, k: int, eps: float = DEFAULT_EPS) -> ZeroOneProfile:
    """Classify every pure state as filtered-with-one, -zero, or fractionally by effect k."""
    if sys.kind != "polygon":
        raise TypeError("zero_one_profile needs a polygon system")
    vals = sys.pure_states @ sys.effect(k)
    ones = frozenset(int(i) for i in np.flatnonzero(vals >= 1.0 - eps))
    zeros = frozenset(int(i) for i in np.flatnonzero(vals <= eps))
    fractional = frozenset(range(sys.n)) - ones - zeros
    return ZeroOneProfile(ones, zeros, fractional)
