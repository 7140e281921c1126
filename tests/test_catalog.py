"""Cataloged ensembles, prior families, and the measurement search oracle."""

import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import nwe
from nwe.catalog import (
    Q3_ANGLES,
    PriorFamily,
    SearchSpaceTooLarge,
    _party_candidates,
    biased,
    load,
    load_measurement,
    require_priors,
    search_perfect_separable,
    uniform,
)
from nwe.composition import CompositeSystem, ProductState, check_complete
from nwe.discrimination import confusion_matrix
from nwe.systems import make_polygon

from _oracles import scalar_search_perfect_separable


def test_uniform_weights():
    assert_allclose(uniform().weights(8), np.full(8, 0.125), atol=0)
    assert_allclose(uniform().weights(4), np.full(4, 0.25), atol=0)


def test_biased_weight_placement():
    w = biased(0.2).weights(8)
    rest = (1.0 - 0.4) / 6.0
    assert_allclose(w, [rest, rest, 0.2, 0.2, rest, rest, rest, rest], atol=1e-15)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_bias_one_eighth_equals_uniform():
    assert_allclose(biased(0.125).weights(8), uniform().weights(8), atol=1e-15)


@pytest.mark.parametrize("p", [0.0, 0.5, -0.1, 0.7])
def test_invalid_bias_rejected(p):
    with pytest.raises(ValueError):
        biased(p)


@pytest.mark.parametrize("p", [0.7, 0.0])
def test_prior_family_states_the_bias_rule(p):
    with pytest.raises(ValueError, match=r"^bias p must lie strictly inside \(0, 1/2\), got "):
        PriorFamily(p)


def test_prior_family_is_uniform_without_a_bias():
    assert PriorFamily() == uniform()
    assert PriorFamily().describe() == "uniform"
    assert_allclose(PriorFamily().weights(8), np.full(8, 0.125), atol=0)
    assert biased(0.2) == PriorFamily(0.2)
    assert biased(0.2).describe() == "biased p=0.2"


def test_biased_needs_eight_states():
    with pytest.raises(ValueError):
        biased(0.1).weights(4)


@pytest.mark.parametrize(
    "priors, message",
    [
        (np.full(7, 1.0 / 7.0), "one prior per state required"),
        (np.full((1, 8), 0.125), "one prior per state required"),  # a stack is not one row
        (np.array([0.5, -0.125] + [0.625 / 6.0] * 6), "priors must be nonnegative and sum to 1"),
        (np.full(8, 0.25), "priors must be nonnegative and sum to 1"),
        (np.full(8, np.nan), "priors must be nonnegative and sum to 1"),
    ],
    ids=["width", "stack", "negative", "off-sum", "nan"],
)
def test_ensemble_priors_follow_the_prior_rule(priors, message):
    ens = load("s5")
    with pytest.raises(ValueError, match=f"^{message}$"):
        nwe.NamedEnsemble("bad", ens.composite, ens.states, priors)


def test_prior_rule_takes_one_row_or_a_stack():
    row = biased(0.2).weights(8)
    require_priors(row, 8)
    require_priors(np.array([row, uniform().weights(8)]), 8)
    require_priors(np.empty((0, 8)), 8)
    require_priors(row + 1e-14, 8)  # within COMPLETENESS_TOL of summing to 1
    for bad in (np.float64(1.0), row[None, None], np.array([row, row[::-1] * 2.0])):
        with pytest.raises(ValueError):
            require_priors(bad, 8)


def _deduplicated_candidates(part):
    """The candidate list as the rounded-vector deduplication of all 2n effects built it."""
    seen = {}
    for k in range(2 * part.n):
        seen.setdefault(tuple(np.round(part.effect(k), 12)), (part.effect_label(k), part.effect(k)))
    return list(seen.values())


def test_party_candidates_equal_the_deduplicated_effect_list():
    for n in range(3, 41):
        part = make_polygon(n)
        got, want = _party_candidates(part), _deduplicated_candidates(part)
        assert [label for label, _ in got] == [label for label, _ in want], n
        assert all(np.array_equal(g, w) for (_, g), (_, w) in zip(got, want)), n


def test_s4_states_match_catalog_table():
    ens = load("s4")
    sq = make_polygon(4)
    expected = [(0, 0), (0, 3), (1, 0), (2, 1)]
    assert ens.size == 4 and ens.arity == 2
    assert_allclose(ens.priors, 0.25, atol=0)
    for phi, (i, j) in zip(ens.states, expected):
        assert_allclose(phi.factors[0], sq.pure_state(i), atol=0)
        assert_allclose(phi.factors[1], sq.pure_state(j), atol=0)


def test_s5_states_resolve_pentagon_vertices():
    ens = load("s5")
    penta = make_polygon(5)
    expected = [(0, 0, 0), (2, 2, 2), (1, 0, 2), (4, 0, 2), (0, 2, 1), (0, 2, 4), (2, 1, 0), (2, 4, 0)]
    assert ens.size == 8
    for phi, triple in zip(ens.states, expected):
        for factor, i in zip(phi.factors, triple):
            assert_allclose(factor, penta.pure_state(i), atol=0)


def test_q3_angles_pinned():
    pi = math.pi
    assert Q3_ANGLES == (
        (0.0, 0.0, 0.0),
        (pi, pi, pi),
        (0.5 * pi, 0.0, pi),
        (1.5 * pi, 0.0, pi),
        (0.0, pi, 0.5 * pi),
        (0.0, pi, 1.5 * pi),
        (pi, 0.5 * pi, 0.0),
        (pi, 1.5 * pi, 0.0),
    )
    assert all(type(a) is float for row in Q3_ANGLES for a in row)


def test_q3_grouping_angles():
    first_party = [angles[0] for angles in Q3_ANGLES]
    g1 = [first_party[i] for i in (0, 2, 4, 5)]
    g2 = [first_party[i] for i in (1, 3, 6, 7)]
    assert g1 == [0.0, 0.5 * math.pi, 0.0, 0.0]
    assert g2 == [math.pi, 1.5 * math.pi, math.pi, math.pi]
    ens = load("q3")
    circ = ens.composite.parts[0]
    for phi, angles in zip(ens.states, Q3_ANGLES):
        for factor, a in zip(phi.factors, angles):
            assert_allclose(factor, circ.state_at(a), atol=0)


@pytest.mark.parametrize("cid, n, h, a, b", [("s5", 5, 2, 1, 4), ("s6", 6, 3, 1, 5), ("s7", 7, 3, 1, 5)])
def test_polygon_ids_are_the_eight_state_pattern(cid, n, h, a, b):
    got, want = load(cid), _pattern_ensemble(n, h, a, b)
    assert got.size == want.size == 8
    for phi, ref in zip(got.states, want.states):
        assert all(np.array_equal(f, g) for f, g in zip(phi.factors, ref.factors))


def test_unknown_id_rejected():
    with pytest.raises(KeyError):
        load("s9")


_ODD_LABELS = (
    ("e0", "e0", "e0"),
    ("eb0", "eb0", "eb0"),
    ("e1", "e0", "eb0"),
    ("eb1", "e0", "eb0"),
    ("e0", "eb0", "e1"),
    ("e0", "eb0", "eb1"),
    ("eb0", "e1", "e0"),
    ("eb0", "eb1", "e0"),
)
# on the hexagon the complement of e_i is the ray extremal e_{i+3}
_HEXAGON_LABELS = (
    ("e0", "e0", "e0"),
    ("e3", "e3", "e3"),
    ("e1", "e0", "e3"),
    ("e4", "e0", "e3"),
    ("e0", "e3", "e1"),
    ("e0", "e3", "e4"),
    ("e3", "e1", "e0"),
    ("e3", "e4", "e0"),
)


@pytest.mark.parametrize("cid", ["s5", "s6", "s7"])
def test_catalog_measurement_labels(cid):
    M = load_measurement(cid)
    assert tuple(e.labels for e in M.effects) == (_HEXAGON_LABELS if cid == "s6" else _ODD_LABELS)
    n = int(cid[1:])
    poly = make_polygon(n)
    index = {poly.effect_label(k): k for k in range(2 * n)}
    for e in M.effects:
        for factor, label in zip(e.factors, e.labels):
            assert np.array_equal(factor, poly.effect(index[label]))


@pytest.mark.parametrize("cid", ["s5", "s6", "s7"])
def test_catalog_measurement_discriminates_perfectly(cid):
    ens = load(cid)
    M = load_measurement(cid)
    conf = confusion_matrix(M, ens)
    assert np.abs(conf - np.eye(8)).max() <= 1e-9
    assert check_complete(ens.composite, M)


@pytest.mark.parametrize("cid", ["s4", "q3", "s9"])
def test_ids_without_cataloged_measurement(cid):
    with pytest.raises(ValueError, match=f"^no cataloged discriminating measurement for '{cid}'$"):
        load_measurement(cid)


def test_search_recovers_pentagon_catalog_up_to_relabeling():
    ens = load("s5")
    found = search_perfect_separable(ens)
    assert found is not None
    conf = confusion_matrix(found, ens)
    assert np.abs(conf - np.eye(8)).max() <= 1e-9
    assert check_complete(ens.composite, found)
    catalog_labels = frozenset(e.labels for e in load_measurement("s5").effects)
    assert frozenset(e.labels for e in found.effects) == catalog_labels


@pytest.mark.parametrize("cid", ["s6", "s7"])
def test_search_recovers_other_catalogs(cid):
    ens = load(cid)
    found = search_perfect_separable(ens)
    assert found is not None
    assert frozenset(e.labels for e in found.effects) == frozenset(
        e.labels for e in load_measurement(cid).effects
    )


def test_search_finds_squit_pair_measurement():
    ens = load("s4")
    found = search_perfect_separable(ens)
    assert found is not None
    conf = confusion_matrix(found, ens)
    assert np.abs(conf - np.eye(4)).max() <= 1e-9
    assert frozenset(e.labels for e in found.effects) == frozenset(
        [("e3", "e0"), ("e3", "e2"), ("e1", "e3"), ("e1", "e1")]
    )


def test_search_single_state_returns_unit_measurement():
    penta = make_polygon(5)
    ens = nwe.NamedEnsemble(
        "single",
        CompositeSystem((penta, penta)),
        (ProductState((penta.pure_state(0), penta.pure_state(1))),),
        np.array([1.0]),
    )
    found = search_perfect_separable(ens)
    assert found is not None and len(found) == 1
    assert_allclose(found.effects[0].vec(), ens.composite.unit(), atol=0)


def test_search_node_budget_enforced():
    with pytest.raises(SearchSpaceTooLarge):
        search_perfect_separable(load("s5"), node_budget=2)


def test_search_rejects_non_polygon_parties():
    with pytest.raises(ValueError):
        search_perfect_separable(load("q3"))


def test_search_returns_none_for_indistinguishable_states():
    penta = make_polygon(5)
    phi = ProductState((penta.pure_state(0), penta.pure_state(0)))
    ens = nwe.NamedEnsemble(
        "twins",
        CompositeSystem((penta, penta)),
        (phi, ProductState((penta.pure_state(0), penta.pure_state(0)))),
        np.array([0.5, 0.5]),
    )
    assert search_perfect_separable(ens) is None


def _pattern_ensemble(n, h, a, b):
    """The 8-state pattern of s5/s6/s7 on an n-gon: w0^3, wh^3 and the (a, b) pairs around them."""
    poly = make_polygon(n)
    rows = ((0, 0, 0), (h, h, h), (a, 0, h), (b, 0, h), (0, h, a), (0, h, b), (h, a, 0), (h, b, 0))
    states = tuple(ProductState(tuple(poly.pure_state(i) for i in row)) for row in rows)
    return nwe.NamedEnsemble("pattern", CompositeSystem((poly,) * 3), states, np.full(8, 0.125))


def _search_outcome(search, ens, budget):
    try:
        found = search(ens, node_budget=budget)
    except SearchSpaceTooLarge as exc:
        return str(exc)
    return None if found is None else tuple(e.labels for e in found.effects)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_search_matches_scalar_oracle_on_patterns(n):
    # a budget of 30 nodes runs out on some patterns, so node counts are compared too
    outcomes = set()
    for h in range(1, n):
        for a, b in itertools.combinations(range(n), 2):
            ens = _pattern_ensemble(n, h, a, b)
            for budget in (20_000, 30):
                got = _search_outcome(search_perfect_separable, ens, budget)
                assert got == _search_outcome(scalar_search_perfect_separable, ens, budget), (h, a, b, budget)
                outcomes.add(type(got))
    assert outcomes == {tuple, type(None), str}
