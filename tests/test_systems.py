"""Construction and probability rules of the polygon and Bloch-circle models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nwe.catalog import default_measurements, load
from nwe.systems import (
    ProbabilityBoundError,
    find_pair_discriminator,
    likelihoods,
    make_bloch_circle,
    make_polygon,
    prob,
    zero_one_profile,
)

GOLDEN_CONJUGATE = (math.sqrt(5.0) - 1.0) / 2.0


def odd_value(n, shift):
    """Closed-form p(e_i | omega_j) for odd n, depending only on i - j."""
    sec = 1.0 / math.cos(math.pi / n)
    return (1.0 + sec * math.cos(2.0 * math.pi * shift / n)) / (1.0 + sec)


def even_value(n, i, j):
    """Closed-form p(e_i | omega_j) for even n."""
    sec = 1.0 / math.cos(math.pi / n)
    return 0.5 * (1.0 + sec * math.cos((2 * i + 1 - 2 * j) * math.pi / n))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_rejects_too_few_vertices(n):
    with pytest.raises(ValueError):
        make_polygon(n)


@pytest.mark.parametrize("n", [5, 7, 9])
def test_odd_polygon_self_dual_alignment(n):
    poly = make_polygon(n)
    for i in range(n):
        assert prob(poly.effect(i), poly.pure_state(i)) == pytest.approx(1.0, abs=1e-12)


def test_pentagon_zero_at_distance_two():
    poly = make_polygon(5)
    # sec(pi/5) * cos(4 pi/5) = -1 makes the numerator vanish
    assert (1.0 / math.cos(math.pi / 5)) * math.cos(4 * math.pi / 5) == pytest.approx(-1.0, abs=1e-12)
    assert prob(poly.effect(0), poly.pure_state(2)) == pytest.approx(0.0, abs=1e-12)
    assert prob(poly.effect(0), poly.pure_state(3)) == pytest.approx(0.0, abs=1e-12)


def test_pentagon_adjacent_value_is_golden_conjugate():
    poly = make_polygon(5)
    value = prob(poly.effect(0), poly.pure_state(1))
    assert value == pytest.approx(odd_value(5, 1), abs=1e-12)
    assert value == pytest.approx(GOLDEN_CONJUGATE, abs=1e-12)
    assert value == pytest.approx(0.6180340, abs=1e-7)


def test_squit_effect_table():
    sq = make_polygon(4)
    for i in range(4):
        for j in range(4):
            assert prob(sq.effect(i), sq.pure_state(j)) == pytest.approx(even_value(4, i, j), abs=1e-12)
    assert prob(sq.effect(0), sq.pure_state(0)) == pytest.approx(1.0, abs=1e-12)
    assert prob(sq.effect(0), sq.pure_state(2)) == pytest.approx(0.0, abs=1e-12)


def test_unit_effect_normalizes_every_state():
    for n in range(3, 10):
        poly = make_polygon(n)
        vals = poly.pure_states @ poly.unit_effect
        assert_allclose(vals, 1.0, atol=1e-12)


def test_pentagon_complement_of_zero_pair():
    poly = make_polygon(5)
    assert prob(poly.effect(5 + 0), poly.pure_state(2)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_construction_invariants(n):
    poly = make_polygon(n)
    assert_allclose(poly.pure_states @ poly.unit_effect, 1.0, atol=1e-12)
    for k in range(2 * n):
        vals = poly.pure_states @ poly.effect(k)
        assert vals.min() >= -1e-12 and vals.max() <= 1.0 + 1e-12
    assert_allclose(
        poly.ray_extremal_effects + poly.complement_effects,
        np.tile(poly.unit_effect, (n, 1)),
        atol=1e-12,
    )
    for i, j in poly.extremal_measurements:
        assert_allclose(poly.effect(i) + poly.effect(j), poly.unit_effect, atol=1e-12)
    if n % 2 == 1:
        for i in range(n):
            assert prob(poly.effect(i), poly.pure_state(i)) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_probability_bounds_and_complement_sum(data):
    n = data.draw(st.integers(3, 12))
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    poly = make_polygon(n)
    p = prob(poly.effect(i), poly.pure_state(j))
    pbar = prob(poly.effect(n + i), poly.pure_state(j))
    assert 0.0 <= p <= 1.0
    assert p + pbar == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [5, 7, 9])
def test_odd_shift_invariance_and_zero_positions(n):
    poly = make_polygon(n)
    for i in range(n):
        for j in range(n):
            expected = odd_value(n, i - j)
            assert prob(poly.effect(i), poly.pure_state(j)) == pytest.approx(expected, abs=1e-12)
    zeros = {(n - 1) // 2, (n + 1) // 2}
    for k in range(n):
        is_zero = prob(poly.effect(0), poly.pure_state(k)) < 1e-9
        assert is_zero == (k in zeros)


@pytest.mark.parametrize("n", [5, 7])
def test_odd_zero_pair_mixtures_stay_zero(n):
    poly = make_polygon(n)
    lo, hi = (n - 1) // 2, (n + 1) // 2
    for i in range(n):
        a = poly.pure_state((i + lo) % n)
        b = poly.pure_state((i + hi) % n)
        for eta in np.linspace(0.0, 1.0, 11):
            mixture = eta * a + (1.0 - eta) * b
            assert prob(poly.effect(i), mixture) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_even_antipodal_effects_sum_to_unit(n):
    poly = make_polygon(n)
    for i in range(n):
        total = poly.effect(i) + poly.effect((i + n // 2) % n)
        assert_allclose(total, poly.unit_effect, atol=1e-14)


def test_bloch_circle_probabilities():
    circ = make_bloch_circle()
    assert prob(circ.effect_at(0.0), circ.state_at(0.0)) == pytest.approx(1.0, abs=1e-12)
    for theta in np.linspace(0.0, 2 * math.pi, 17):
        got = prob(circ.effect_at(theta), circ.state_at(math.pi))
        assert got == pytest.approx(0.5 * (1.0 - math.cos(theta)), abs=1e-12)
        got = prob(circ.effect_at(theta), circ.state_at(1.5 * math.pi))
        assert got == pytest.approx(0.5 * (1.0 - math.sin(theta)), abs=1e-12)


def test_bloch_circle_complement_pairs():
    circ = make_bloch_circle()
    for theta in np.linspace(0.0, 2 * math.pi, 10):
        for phi in np.linspace(0.0, 2 * math.pi, 10):
            total = prob(circ.effect_at(theta), circ.state_at(phi)) + prob(
                circ.effect_at(theta + math.pi), circ.state_at(phi)
            )
            assert total == pytest.approx(1.0, abs=1e-12)
    assert_allclose(
        circ.effect_at(0.3) + circ.effect_at(0.3 + math.pi), circ.unit_effect, atol=1e-15
    )


def test_prob_snaps_boundary_and_raises_outside():
    poly = make_polygon(5)
    u = poly.unit_effect
    assert prob((1.0 + 1e-10) * u, poly.pure_state(0)) == 1.0
    assert prob(-1e-10 * u, poly.pure_state(0)) == 0.0
    with pytest.raises(ProbabilityBoundError):
        prob(2.0 * poly.effect(0), poly.pure_state(0))
    # NaN compares False both ways, so a rule written as "fail if outside" let it through
    with pytest.raises(ProbabilityBoundError, match="^inner product nan outside"):
        prob(np.array([np.nan, 0.0, 0.5]), poly.pure_state(0))
    with pytest.raises(ValueError):
        prob(np.ones(2), poly.pure_state(0))


def _scalar_table(effects, states):
    return np.array([[prob(e, w) for w in states] for e in effects])


@pytest.mark.parametrize("n", range(3, 18))
def test_likelihoods_equal_scalar_prob_on_polygons(n):
    poly = make_polygon(n)
    effects = np.array([poly.effect(k) for k in range(2 * n)])
    table = _scalar_table(effects, poly.pure_states)
    assert np.array_equal(likelihoods(effects, poly.pure_states), table)
    # one-row and one-column blocks take other BLAS kernels inside numpy
    for j in range(2 * n):
        assert np.array_equal(likelihoods(effects[j : j + 1], poly.pure_states), table[j : j + 1])
        assert np.array_equal(likelihoods(effects[j:], poly.pure_states[j % n :]), table[j:, j % n :])
    for k in range(n):
        one = poly.pure_states[k : k + 1]
        assert np.array_equal(likelihoods(effects, one), table[:, k : k + 1])
        assert np.array_equal(likelihoods(effects[k : k + 1], one), table[k : k + 1, k : k + 1])


def test_likelihoods_equal_scalar_prob_on_q3_bloch_states():
    ens = load("q3")
    for p, part in enumerate(ens.composite.parts):
        states = np.array([state.factors[p] for state in ens.states])
        effects = np.concatenate(default_measurements(part))
        assert np.array_equal(likelihoods(effects, states), _scalar_table(effects, states))


def test_likelihoods_snap_boundary_and_raise_outside():
    poly = make_polygon(5)
    u = poly.unit_effect
    states = poly.pure_states[:1]
    assert likelihoods([(1.0 + 1e-10) * u, -1e-10 * u], states).tolist() == [[1.0], [0.0]]
    with pytest.raises(ProbabilityBoundError):
        likelihoods([poly.effect(1), 2.0 * poly.effect(0)], states)
    with pytest.raises(ProbabilityBoundError, match="^inner product nan outside"):
        likelihoods([poly.effect(1), [np.nan, 0.0, 0.5]], states)
    with pytest.raises(ProbabilityBoundError, match="^inner product nan outside"):
        likelihoods([poly.effect(1)], [poly.pure_state(0), [0.0, np.nan, 1.0]])
    with pytest.raises(ValueError):
        likelihoods([np.ones(2)], states)


def test_squit_every_pair_admits_discriminator():
    sq = make_polygon(4)
    for a in range(4):
        for b in range(a + 1, 4):
            m = find_pair_discriminator(sq, sq.pure_state(a), sq.pure_state(b))
            assert m is not None
            assert prob(m[0], sq.pure_state(a)) == pytest.approx(1.0, abs=1e-9)
            assert prob(m[0], sq.pure_state(b)) == pytest.approx(0.0, abs=1e-9)
            assert_allclose(m[0] + m[1], sq.unit_effect, atol=1e-12)


def test_pentagon_adjacent_pairs_have_no_discriminator():
    penta = make_polygon(5)
    for i in range(5):
        assert find_pair_discriminator(penta, penta.pure_state(i), penta.pure_state((i + 1) % 5)) is None
        assert find_pair_discriminator(penta, penta.pure_state(i), penta.pure_state((i - 1) % 5)) is None


def test_pentagon_distance_two_pair_uses_matching_effect():
    penta = make_polygon(5)
    m = find_pair_discriminator(penta, penta.pure_state(1), penta.pure_state(4))
    assert m is not None
    assert_allclose(m[0], penta.effect(1), atol=1e-12)


def test_zero_one_profiles():
    hepta = make_polygon(7)
    pr = zero_one_profile(hepta, 0)
    assert pr.ones == frozenset({0})
    assert pr.zeros == frozenset({3, 4})
    assert pr.fractional == frozenset({1, 2, 5, 6})

    # complement of e_0 filters the two distance-3 states perfectly
    prbar = zero_one_profile(hepta, 7)
    assert prbar.ones == frozenset({3, 4})
    assert prbar.zeros == frozenset({0})
    assert prbar.fractional == frozenset({1, 2, 5, 6})

    penta = make_polygon(5)
    pr5 = zero_one_profile(penta, 0)
    assert pr5.ones == frozenset({0})
    assert pr5.zeros == frozenset({2, 3})
    assert pr5.fractional == frozenset({1, 4})

    sq = make_polygon(4)
    pr4 = zero_one_profile(sq, 0)
    assert len(pr4.ones) == 2 and len(pr4.zeros) == 2 and not pr4.fractional

    with pytest.raises(IndexError):
        zero_one_profile(penta, 10)
    with pytest.raises(TypeError):
        zero_one_profile(make_bloch_circle(), 0)
