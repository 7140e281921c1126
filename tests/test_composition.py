"""Kronecker plumbing, product probabilities, and measurement completeness."""

import itertools
from functools import reduce

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nwe.catalog import load, load_measurement
from nwe.composition import (
    CompositeSystem,
    ProductEffect,
    ProductState,
    SeparableMeasurement,
    check_complete,
    kron,
)
from nwe.systems import make_polygon

from _oracles import product_prob


def test_kron_of_units_matches_numpy():
    u = np.array([0.0, 0.0, 1.0])
    assert_allclose(kron([u, u]), np.kron(u, u), atol=0)
    assert kron([u, u]).shape == (9,)


def test_kron_equals_numpy_kron_bit_for_bit():
    rng = np.random.default_rng(44)
    for count in (2, 3, 4):
        for lengths in itertools.product(range(1, 5), repeat=count):
            # signed zeros and values whose products round, so any other order or operation shows
            vecs = [rng.choice([-0.0, 0.0, 1.0, -1.0, 0.1, -3.7], size=n) * rng.random(n) for n in lengths]
            got, want = kron(vecs), reduce(np.kron, vecs)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_kron_empty_raises():
    with pytest.raises(ValueError):
        kron([])


def test_squit_aligned_product_is_one():
    sq = make_polygon(4)
    s = kron([sq.pure_state(0), sq.pure_state(0)])
    e = kron([sq.effect(0), sq.effect(0)])
    assert float(e @ s) == pytest.approx(1.0, abs=1e-12)


def test_pentagon_effect_complement_pair():
    penta = make_polygon(5)
    E = ProductEffect((penta.effect(0), penta.effect(5 + 0)))
    phi = ProductState((penta.pure_state(0), penta.pure_state(2)))
    assert product_prob(E, phi) == pytest.approx(1.0, abs=1e-12)


def test_product_prob_annihilation_and_alignment():
    penta = make_polygon(5)
    aligned = ProductEffect(tuple(penta.effect(i) for i in (0, 2, 4)))
    phi = ProductState(tuple(penta.pure_state(i) for i in (0, 2, 4)))
    assert product_prob(aligned, phi) == pytest.approx(1.0, abs=1e-12)

    e000 = ProductEffect((penta.effect(0),) * 3)
    phi402 = ProductState(tuple(penta.pure_state(i) for i in (4, 0, 2)))
    # the third factor is an exact zero pair, the first only ~0.618
    assert product_prob(e000, phi402) == pytest.approx(0.0, abs=1e-12)


def test_product_prob_matches_kron_inner_product():
    rng = np.random.default_rng(7)
    systems = [make_polygon(n) for n in (4, 5, 6, 7)]
    for _ in range(200):
        arity = int(rng.integers(2, 4))
        parts = [systems[int(rng.integers(0, len(systems)))] for _ in range(arity)]
        states, effects = [], []
        for part in parts:
            states.append(part.pure_state(int(rng.integers(0, part.n))))
            # random valid effect: convex mixture of zero, unit, and an extremal
            lam = rng.random(3)
            lam /= lam.sum()
            e = lam[1] * part.unit_effect + lam[2] * part.effect(int(rng.integers(0, 2 * part.n)))
            effects.append(e)
        E = ProductEffect(tuple(effects))
        phi = ProductState(tuple(states))
        direct = product_prob(E, phi)
        via_kron = float(E.vec() @ phi.vec())
        assert direct == pytest.approx(via_kron, abs=1e-12)


def test_arity_mismatch_raises():
    penta = make_polygon(5)
    E = ProductEffect((penta.effect(0), penta.effect(0)))
    phi = ProductState((penta.pure_state(0),) * 3)
    with pytest.raises(ValueError):
        product_prob(E, phi)


def test_pentagon_catalog_measurement_is_complete():
    ens = load("s5")
    M = load_measurement("s5")
    assert check_complete(ens.composite, M)


def test_dropping_an_effect_breaks_completeness():
    ens = load("s5")
    M = load_measurement("s5")
    assert not check_complete(ens.composite, SeparableMeasurement(M.effects[:-1]))


def test_hexagon_catalog_measurement_is_complete():
    ens = load("s6")
    assert check_complete(ens.composite, load_measurement("s6"))


def test_completeness_is_permutation_invariant():
    rng = np.random.default_rng(3)
    ens = load("s7")
    M = load_measurement("s7")
    order = rng.permutation(len(M.effects))
    shuffled = SeparableMeasurement(tuple(M.effects[i] for i in order))
    assert check_complete(ens.composite, shuffled)


def test_product_state_mixtures_stay_in_unit_interval():
    rng = np.random.default_rng(11)
    penta = make_polygon(5)
    comp = CompositeSystem((penta, penta))
    for _ in range(100):
        weights = rng.random(4)
        weights /= weights.sum()
        mixture = np.zeros(9)
        for w in weights:
            phi = ProductState(
                (penta.pure_state(int(rng.integers(0, 5))), penta.pure_state(int(rng.integers(0, 5))))
            )
            mixture += w * phi.vec()
        E = ProductEffect(
            (penta.effect(int(rng.integers(0, 10))), penta.effect(int(rng.integers(0, 10))))
        )
        value = float(E.vec() @ mixture)
        assert -1e-12 <= value <= 1.0 + 1e-12
    assert comp.arity == 2
