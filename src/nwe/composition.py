"""Minimal tensor products: product states, product effects, separable measurements.

Composite states and effects are kept in factored form (one vector per
party) rather than as raw Kronecker vectors, so protocol machinery always
sees the party structure.  Product probabilities factorize,
p(E | phi) = prod_p p(e_p | w_p), which coincides with the inner product of
the Kronecker-expanded vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .systems import COMPLETENESS_TOL, GptSystem

__all__ = [
    "COMPLETENESS_TOL",
    "CompositeSystem",
    "ProductEffect",
    "ProductState",
    "SeparableMeasurement",
    "check_complete",
    "kron",
]


def kron(vectors) -> np.ndarray:
    """Kronecker product of a nonempty sequence of vectors."""
    vecs = [np.asarray(v, dtype=float) for v in vectors]
    if not vecs:
        raise ValueError("kron of an empty sequence")
    return reduce(np.multiply.outer, vecs).ravel()  # np.kron's products, in its order


def _as_factors(factors) -> tuple:
    return tuple(np.asarray(f, dtype=float) for f in factors)


@dataclass(frozen=True, eq=False)
class CompositeSystem:
    """An ordered tuple of elementary systems composed under the minimal tensor product."""

    parts: tuple

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("composite system needs at least two parts")
        for p in self.parts:
            if not isinstance(p, GptSystem):
                raise TypeError("composite parts must be GptSystem instances")

    @property
    def arity(self) -> int:
        return len(self.parts)

    def unit(self) -> np.ndarray:
        return kron([p.unit_effect for p in self.parts])


@dataclass(frozen=True, eq=False)
class ProductState:
    """One state vector per party."""

    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", _as_factors(self.factors))

    @property
    def arity(self) -> int:
        return len(self.factors)

    def vec(self) -> np.ndarray:
        return kron(self.factors)


@dataclass(frozen=True, eq=False)
class ProductEffect:
    """One effect vector per party, with optional display labels."""

    factors: tuple
    labels: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "factors", _as_factors(self.factors))
        if self.labels is not None and len(self.labels) != len(self.factors):
            raise ValueError("labels must match factors one to one")

    @property
    def arity(self) -> int:
        return len(self.factors)

    def vec(self) -> np.ndarray:
        return kron(self.factors)

    def label(self) -> str:
        if self.labels is None:
            return " x ".join("?" for _ in self.factors)
        return " x ".join(self.labels)


@dataclass(frozen=True, eq=False)
class SeparableMeasurement:
    """A measurement all of whose effects are product effects."""

    effects: tuple

    def __post_init__(self):
        object.__setattr__(self, "effects", tuple(self.effects))
        if not self.effects:
            raise ValueError("measurement needs at least one effect")

    def __len__(self) -> int:
        return len(self.effects)

    def __iter__(self):
        return iter(self.effects)


def check_complete(
    comp: CompositeSystem,
    M: SeparableMeasurement,
    tol: float = COMPLETENESS_TOL,
) -> bool:
    """True iff the Kronecker sum of the effects equals the product of units within tol."""
    total = np.sum([E.vec() for E in M.effects], axis=0)
    return bool(np.max(np.abs(total - comp.unit())) <= tol)
