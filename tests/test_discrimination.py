"""Protocol trees, the exact adaptive optimizer, and its independent oracles.

The pentagon/hexagon/heptagon optima pinned here were cross-checked two
independent ways: a physical Monte-Carlo simulation of the reported optimal
tree (see test_monte_carlo_confirms_reported_tree) and, for two parties,
exhaustive enumeration of every adaptive protocol (test_matches_brute_force).
The subset-lattice optimizer is also checked against the explicit recursion
over party orders it replaced, value and tree.
Restricting every party to the measurement pair {M0, M1} reproduces the
classic symmetric-protocol values (7/8 for the pentagon set); with all
extremal measurements available, asymmetric openings do strictly better.
"""

import itertools
import math
import re
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import nwe
from nwe import discrimination
from nwe.catalog import biased, load, load_measurement
from nwe.composition import (
    CompositeSystem,
    ProductEffect,
    ProductState,
    SeparableMeasurement,
)
from nwe.discrimination import (
    _CHUNK_ENTRIES,
    MAX_ARITY,
    MAX_MEASUREMENTS_PER_PARTY,
    _bellman,
    _leaf_values,
    _movers,
    _tables,
    _walk,
    Leaf,
    MalformedTreeError,
    SearchConfig,
    confusion_matrix,
    delta,
    eval_tree,
    leader_optima,
    optimal_local,
    tree_to_text,
)
from nwe.systems import GptSystem, ProbabilityBoundError, make_polygon

from _oracles import (
    brute_force_optimal,
    gather_bellman,
    likelihood_tables,
    mixed_outcome_instance,
    product_prob,
    random_instance,
    rebuilt_optimal_local,
    recursive_optimal_local,
    scalar_tables,
    simulate_tree,
)

GOLDEN_CONJUGATE = (math.sqrt(5.0) - 1.0) / 2.0

# Exact optima of the cataloged sets over all extremal measurements,
# frozen after Monte-Carlo confirmation.
S5_OPTIMAL = (7.0 + GOLDEN_CONJUGATE) / 8.0
S6_OPTIMAL = 15.0 / 16.0
S7_OPTIMAL = 0.9306302334890786
S4_BOB_FIRST = 0.75


def test_confusion_matrix_identity_and_permutation():
    ens = load("s5")
    M = load_measurement("s5")
    conf = confusion_matrix(M, ens)
    assert np.abs(conf - np.eye(8)).max() <= 1e-9

    swapped = SeparableMeasurement((M.effects[1], M.effects[0]) + M.effects[2:])
    conf2 = confusion_matrix(swapped, ens)
    expected = np.eye(8)[[1, 0, 2, 3, 4, 5, 6, 7]]
    assert np.abs(conf2 - expected).max() <= 1e-9


@pytest.mark.parametrize("cid", ["s5", "s6", "s7"])
def test_confusion_matrix_equals_the_product_prob_double_loop(cid):
    ens = load(cid)
    # the cataloged perfect measurement, and M1 at every party, whose
    # fractional entries would show a change of multiplication order
    everyone_m1 = itertools.product(*(part.measurement(1) for part in ens.composite.parts))
    for M in (load_measurement(cid), SeparableMeasurement(tuple(map(ProductEffect, everyone_m1)))):
        loop = np.array([[product_prob(E, phi) for phi in ens.states] for E in M.effects])
        assert np.array_equal(confusion_matrix(M, ens), loop)


def test_confusion_matrix_arity_mismatch():
    ens = load("s4")
    with pytest.raises(ValueError):
        confusion_matrix(load_measurement("s5"), ens)


def _symmetric_pentagon_tree(cfg):
    """The classic pentagon protocol: open with M0, resolve branches, concede one pair."""
    return cfg.node(
        0,
        0,
        (
            cfg.node(
                1,
                0,
                (
                    cfg.node(2, 0, (Leaf(0), Leaf(2))),
                    cfg.node(2, 1, (Leaf(4), Leaf(5))),
                ),
            ),
            cfg.node(
                2,
                0,
                (
                    cfg.node(1, 1, (Leaf(6), Leaf(7))),
                    cfg.node(1, 0, (Leaf(2), Leaf(1))),
                ),
            ),
        ),
    )


def test_symmetric_pentagon_tree_scores_seven_eighths():
    ens = load("s5")
    cfg = SearchConfig.for_ensemble(ens)
    assert eval_tree(_symmetric_pentagon_tree(cfg), ens) == pytest.approx(0.875, abs=1e-12)


def test_blind_guess_scores_top_prior():
    ens = load("s5")
    assert eval_tree(Leaf(0), ens) == pytest.approx(0.125, abs=1e-15)


def test_squit_alice_first_tree_is_perfect():
    ens = load("s4")
    cfg = SearchConfig.for_ensemble(ens)
    tree = cfg.node(
        0,
        1,
        (
            cfg.node(1, 1, (Leaf(3), Leaf(2))),
            cfg.node(1, 0, (Leaf(0), Leaf(1))),
        ),
    )
    assert eval_tree(tree, ens) == pytest.approx(1.0, abs=1e-12)


def test_eval_tree_rejects_malformed_trees():
    ens = load("s4")
    cfg = SearchConfig.for_ensemble(ens)
    with pytest.raises(MalformedTreeError):
        eval_tree(Leaf(9), ens)
    repeated = cfg.node(0, 0, (cfg.node(0, 1, (Leaf(0), Leaf(1))), Leaf(2)))
    with pytest.raises(MalformedTreeError):
        eval_tree(repeated, ens)
    out_of_range = cfg.node(0, 0, (Leaf(0), Leaf(1)))
    bad_party = nwe.Node(5, 0, out_of_range.effects, (Leaf(0), Leaf(1)))
    with pytest.raises(MalformedTreeError):
        eval_tree(bad_party, ens)
    wrong_children = nwe.Node(0, 0, out_of_range.effects, (Leaf(0),))
    with pytest.raises(MalformedTreeError):
        eval_tree(wrong_children, ens)
    sq = make_polygon(4)
    incomplete = nwe.Node(0, 0, (sq.effect(0), sq.effect(1)), (Leaf(0), Leaf(1)))
    with pytest.raises(ValueError):
        eval_tree(incomplete, ens)


def _fresh_copy(tree):
    """The tree with every node's effects copied into a new tuple of new arrays."""
    if isinstance(tree, Leaf):
        return tree
    effects = tuple(np.array(e) for e in tree.effects)
    return nwe.Node(tree.party, tree.measurement, effects, tuple(map(_fresh_copy, tree.children)))


def test_eval_tree_builds_one_table_per_distinct_measurement(monkeypatch):
    ens = load("s5")
    tree = optimal_local(ens, SearchConfig.for_ensemble(ens)).tree  # 7 nodes, 5 distinct (party, measurement)
    unpatched = eval_tree(tree, ens)
    calls = []

    def counted(effects, states):
        calls.append(effects)
        return nwe.systems.likelihoods(effects, states)

    monkeypatch.setattr(discrimination, "likelihoods", counted)
    assert eval_tree(tree, ens) == unpatched
    assert [len(stack) for stack in calls] == [5]  # one call, one table per distinct measurement
    calls.clear()
    assert eval_tree(_fresh_copy(tree), ens) == unpatched  # bit for bit
    assert [len(stack) for stack in calls] == [7]


def test_eval_tree_refuses_an_incomplete_measurement_it_meets_twice():
    ens = load("s5")
    penta = ens.composite.parts[0]
    incomplete = (penta.effect(0), penta.effect(1))
    tree = nwe.Node(
        0,
        0,
        tuple(penta.measurement(0)),
        (nwe.Node(1, 0, incomplete, (Leaf(0), Leaf(1))), nwe.Node(1, 0, incomplete, (Leaf(2), Leaf(3)))),
    )
    message = "incomplete measurement at party 1: effects do not sum to the unit"
    for _ in range(2):  # nothing is remembered between calls
        with pytest.raises(ValueError, match=f"^{message}$"):
            eval_tree(tree, ens)


def _with_factor(ens, party, state, factor):
    """ens with state ``state``'s factor at ``party`` replaced."""
    states = list(ens.states)
    factors = list(states[state].factors)
    factors[party] = np.asarray(factor, dtype=float)
    states[state] = ProductState(tuple(factors))
    return replace(ens, states=tuple(states))


def test_eval_tree_raises_errors_in_the_order_a_walk_meets_them():
    ens = load("s4")
    cfg = SearchConfig.for_ensemble(ens)
    out = _with_factor(ens, 1, 0, 2.0 * ens.states[0].factors[1])  # every party-1 table is out of range
    high = cfg.node(1, 0, (Leaf(0), Leaf(1)))
    malformed = nwe.Node(5, 0, high.effects, (Leaf(0), Leaf(1)))
    incomplete = nwe.Node(1, 1, (high.effects[0], high.effects[0]), (Leaf(0), Leaf(1)))
    cases = [
        (cfg.node(0, 0, (high, malformed)), ProbabilityBoundError, "^inner product "),  # tabled before met
        (cfg.node(0, 0, (malformed, high)), MalformedTreeError, "^party 5 out of range$"),
        (cfg.node(0, 0, (high, incomplete)), ProbabilityBoundError, "^inner product "),
        (cfg.node(0, 0, (incomplete, high)), ValueError, "^incomplete measurement at party 1: "),  # never tabled
    ]
    for tree, error, message in cases:
        with pytest.raises(error, match=message):
            eval_tree(tree, out)


def test_pentagon_optimum_with_all_measurements():
    ens = load("s5")
    cfg = SearchConfig.for_ensemble(ens)
    report = optimal_local(ens, cfg)
    assert report.success == pytest.approx(S5_OPTIMAL, abs=1e-12)
    assert report.delta == pytest.approx((3.0 - math.sqrt(5.0)) / 16.0, abs=1e-12)
    assert eval_tree(report.tree, ens) == pytest.approx(report.success, abs=1e-12)


def test_pentagon_optimum_restricted_to_first_two_measurements():
    ens = load("s5")
    cfg = SearchConfig.for_ensemble(ens, indices=[0, 1])
    report = optimal_local(ens, cfg)
    assert report.success == pytest.approx(0.875, abs=1e-12)
    assert report.delta == pytest.approx(0.125, abs=1e-12)


def test_monte_carlo_confirms_reported_tree():
    ens = load("s5")
    report = optimal_local(ens, SearchConfig.for_ensemble(ens))
    rng = np.random.default_rng(2024)
    n = 300_000
    freq = simulate_tree(report.tree, ens, n, rng)
    sigma = math.sqrt(report.success * (1.0 - report.success) / n)
    assert abs(freq - report.success) < 5.0 * sigma


def test_hexagon_and_heptagon_optima():
    for cid, expected in (("s6", S6_OPTIMAL), ("s7", S7_OPTIMAL)):
        ens = load(cid)
        report = optimal_local(ens, SearchConfig.for_ensemble(ens))
        assert report.success == pytest.approx(expected, abs=1e-9)


def test_squit_leader_asymmetry():
    ens = load("s4")
    cfg = SearchConfig.for_ensemble(ens)
    alice = optimal_local(ens, cfg, leader=0)
    bob = optimal_local(ens, cfg, leader=1)
    assert alice.success == pytest.approx(1.0, abs=1e-12)
    assert bob.success < 1.0 - 1e-6
    assert bob.success == pytest.approx(S4_BOB_FIRST, abs=1e-12)
    assert bob.leader == 1 and alice.leader == 0


def test_matches_brute_force_on_random_two_party_instances():
    rng = np.random.default_rng(99)
    for _ in range(100):
        ens, cfg = random_instance(rng)
        engine = optimal_local(ens, cfg).success
        oracle = brute_force_optimal(ens.priors, likelihood_tables(ens, cfg))
        assert engine == pytest.approx(oracle, abs=1e-12)


def test_enlarging_measurement_sets_never_hurts():
    ens = load("s5")
    small = optimal_local(ens, SearchConfig.for_ensemble(ens, indices=[0, 1])).success
    full = optimal_local(ens, SearchConfig.for_ensemble(ens)).success
    assert full >= small - 1e-15


def test_party_relabeling_preserves_value():
    ens = load("s5")
    base = optimal_local(ens, SearchConfig.for_ensemble(ens)).success
    rotated_states = tuple(ProductState(st.factors[1:] + st.factors[:1]) for st in ens.states)
    rotated = nwe.NamedEnsemble("s5-rotated", ens.composite, rotated_states, ens.priors)
    value = optimal_local(rotated, SearchConfig.for_ensemble(rotated)).success
    assert value == pytest.approx(base, abs=1e-12)


def test_fixed_order_never_beats_adaptive():
    ens = load("s5")
    adaptive = optimal_local(ens, SearchConfig.for_ensemble(ens)).success
    fixed = optimal_local(ens, SearchConfig.for_ensemble(ens, adaptive=False)).success
    assert fixed <= adaptive + 1e-15
    assert fixed == pytest.approx(1.0 - GOLDEN_CONJUGATE / 8.0, abs=1e-12)


def test_success_bounded_by_priors_and_one():
    rng = np.random.default_rng(5)
    for _ in range(20):
        ens, cfg = random_instance(rng)
        report = optimal_local(ens, cfg)
        assert report.success >= float(np.max(ens.priors)) - 1e-12
        assert report.success <= 1.0 + 1e-12
        assert report.delta == pytest.approx(1.0 - report.success, abs=1e-15)


@pytest.mark.parametrize("p", [0.05, 0.125, 0.2, 0.3, 0.45])
def test_biased_pentagon_engine_values(p):
    """Exact leader-forced deltas under the biased prior family.

    Alice-first loses the cheaper of protecting the heavy pair or the
    light states, scaled by the residual overlap 1 - g; the best other
    leader always concedes one light pair.
    """
    ens = load("s5", biased(p))
    cfg = SearchConfig.for_ensemble(ens)
    alice = 1.0 - optimal_local(ens, cfg, leader=0).success
    other = min(1.0 - optimal_local(ens, cfg, leader=l).success for l in (1, 2))
    assert alice == pytest.approx((1.0 - GOLDEN_CONJUGATE) * min(p, (1.0 - 2.0 * p) / 2.0), abs=1e-9)
    assert other == pytest.approx((1.0 - GOLDEN_CONJUGATE) * (1.0 - 2.0 * p) / 6.0, abs=1e-9)


@pytest.mark.parametrize("p", [0.05, 0.125, 0.2])
def test_biased_pentagon_restricted_class_matches_classic_table(p):
    """With only {M0, M1} per party the classic values p and (1-2p)/6 appear."""
    ens = load("s5", biased(p))
    cfg = SearchConfig.for_ensemble(ens, indices=[0, 1])
    alice = 1.0 - optimal_local(ens, cfg, leader=0).success
    other = min(1.0 - optimal_local(ens, cfg, leader=l).success for l in (1, 2))
    assert alice == pytest.approx(p, abs=1e-9)
    assert other == pytest.approx((1.0 - 2.0 * p) / 6.0, abs=1e-9)


def test_free_leader_takes_the_better_side():
    p = 0.05
    ens = load("s5", biased(p))
    cfg = SearchConfig.for_ensemble(ens)
    free = optimal_local(ens, cfg).success
    forced = max(optimal_local(ens, cfg, leader=l).success for l in range(3))
    assert free == pytest.approx(forced, abs=1e-12)


def test_delta_wrapper_on_cataloged_ensemble():
    ens = load("s5")
    cfg = SearchConfig.for_ensemble(ens)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = delta(ens, cfg)
    assert value == pytest.approx(1.0 - S5_OPTIMAL, abs=1e-12)


def test_delta_wrapper_single_state_is_zero():
    penta = make_polygon(5)
    ens = nwe.NamedEnsemble(
        "single",
        CompositeSystem((penta, penta)),
        (ProductState((penta.pure_state(0), penta.pure_state(1))),),
        np.array([1.0]),
    )
    cfg = SearchConfig.for_ensemble(ens)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert delta(ens, cfg) == pytest.approx(0.0, abs=1e-12)


def test_delta_wrapper_warns_without_global_certificate():
    penta = make_polygon(5)
    phi = ProductState((penta.pure_state(0), penta.pure_state(0)))
    ens = nwe.NamedEnsemble(
        "twins",
        CompositeSystem((penta, penta)),
        (phi, ProductState((penta.pure_state(0), penta.pure_state(0)))),
        np.array([0.5, 0.5]),
    )
    cfg = SearchConfig.for_ensemble(ens)
    with pytest.warns(UserWarning):
        value = delta(ens, cfg)
    assert value == pytest.approx(0.5, abs=1e-12)


def test_tree_serialization_is_parenthesized():
    ens = load("s4")
    cfg = SearchConfig.for_ensemble(ens)
    report = optimal_local(ens, cfg, leader=0)
    text = tree_to_text(report.tree)
    assert text.startswith("(p0 m")
    assert text.count("(") == text.count(")")
    assert "g" in text


def test_measurement_bounds_enforced():
    ens = load("s5")
    ms = ens.composite.parts[0].measurements()
    too_many = tuple(tuple(ms * 4) for _ in range(3))  # 20 per party
    with pytest.raises(ValueError):
        optimal_local(ens, SearchConfig(too_many))
    with pytest.raises(ValueError):
        optimal_local(ens, SearchConfig.for_ensemble(ens), leader=7)


# (arity, measurements per party, most states) of the seeded differential instances
DIFFERENTIAL_SHAPES = [(2, 3, 6), (3, 3, 8), (4, 2, 8)]


@pytest.mark.parametrize("arity, measurements, states", DIFFERENTIAL_SHAPES)
def test_lattice_matches_recursion_on_random_instances(arity, measurements, states):
    rng = np.random.default_rng(400 + arity)
    for i in range(20):
        ens, cfg = random_instance(rng, arity, measurements, states)
        for leader, adaptive in ((None, True), (i % arity, i % 2 == 0)):
            variant = SearchConfig(cfg.measurements, adaptive)
            report = optimal_local(ens, variant, leader)
            oracle = recursive_optimal_local(ens, variant, leader)
            assert report.success == pytest.approx(oracle.success, abs=1e-12)
            assert eval_tree(report.tree, ens) == pytest.approx(report.success, abs=1e-12)


@pytest.mark.parametrize("cid", ["s4", "s5", "s6", "s7", "q3"])
@pytest.mark.parametrize("variant", ["all", "fixed-order", "M0,M1"])
def test_lattice_reproduces_recursion_trees_on_catalog(cid, variant):
    ens = load(cid)
    cfg = {
        "all": SearchConfig.for_ensemble(ens),
        "fixed-order": SearchConfig.for_ensemble(ens, adaptive=False),
        "M0,M1": SearchConfig.for_ensemble(ens, indices=[0, 1]),
    }[variant]
    for leader in (None, *range(ens.arity)):
        report = optimal_local(ens, cfg, leader)
        oracle = recursive_optimal_local(ens, cfg, leader)
        assert tree_to_text(report.tree) == tree_to_text(oracle.tree)
        assert report.success == pytest.approx(oracle.success, abs=1e-12)


def _assert_same_report(report, reference):
    """Equal success bits and trees: the same rendering and, node by node, the same effect values."""
    assert report.success == reference.success
    assert tree_to_text(report.tree) == tree_to_text(reference.tree)
    pending = [(report.tree, reference.tree)]
    while pending:
        ours, theirs = pending.pop()
        if isinstance(ours, Leaf):
            continue
        assert len(ours.effects) == len(theirs.effects)
        assert all(np.array_equal(e, f) for e, f in zip(ours.effects, theirs.effects))
        pending.extend(zip(ours.children, theirs.children))


@pytest.mark.parametrize("cid", ["s4", "s5", "s6", "s7", "q3"])
def test_rebuild_equals_the_reference_rebuild_on_the_catalog(cid):
    base = load(cid)
    if base.size == 8:
        grid = [biased(float(p)).weights(8) for p in np.linspace(0.01, 0.49, 49)]
    else:  # biased priors need eight states; s4 takes seeded random rows instead
        grid = _random_priors(np.random.default_rng(25), base, 49)
    configs = (
        SearchConfig.for_ensemble(base),
        SearchConfig.for_ensemble(base, adaptive=False),
        SearchConfig.for_ensemble(base, indices=[0, 1]),
    )
    for w in grid:
        ens = replace(base, priors=w)
        for cfg in configs:
            for leader in (None, *range(ens.arity)):
                _assert_same_report(optimal_local(ens, cfg, leader), rebuilt_optimal_local(ens, cfg, leader))


@pytest.mark.parametrize("draw", [random_instance, mixed_outcome_instance])
@pytest.mark.parametrize("arity", [2, 3, 4])
def test_rebuild_equals_the_reference_rebuild_on_random_instances(draw, arity):
    rng = np.random.default_rng(2500 + arity)
    for i in range(12):
        ens, cfg = draw(rng, arity, 3, 6)
        for adaptive in (True, False):
            variant = SearchConfig(cfg.measurements, adaptive)
            for leader in (None, i % arity):
                _assert_same_report(optimal_local(ens, variant, leader), rebuilt_optimal_local(ens, variant, leader))


def test_lattice_handles_measurements_with_different_outcome_counts():
    ens = load("s5")
    penta = ens.composite.parts[0]
    half = (penta.effect(0) + penta.effect(2)) / 4.0
    three = np.array([penta.effect(0) / 4.0, penta.effect(2) / 4.0, penta.unit_effect - half])
    trivial = np.array([penta.unit_effect])
    per_party = (
        (three, trivial),
        (penta.measurement(1), three),
        (penta.measurement(0), trivial, penta.measurement(3)),
    )
    for adaptive in (True, False):
        cfg = SearchConfig(per_party, adaptive)
        for leader in (None, 1):
            report = optimal_local(ens, cfg, leader)
            oracle = recursive_optimal_local(ens, cfg, leader)
            assert report.success == pytest.approx(oracle.success, abs=1e-12)
            assert eval_tree(report.tree, ens) == pytest.approx(report.success, abs=1e-12)


@pytest.mark.parametrize("arity, measurements, states", DIFFERENTIAL_SHAPES)
def test_bellman_adds_outcomes_in_the_reference_order(arity, measurements, states, monkeypatch):
    # bit for bit, not within a tolerance: adding 3 or 4 outcomes in another
    # order moves the last bits of most tensors
    rng = np.random.default_rng(900 + arity)
    prior_rng = np.random.default_rng(1000 + arity)
    for i in range(15):
        ens, cfg = mixed_outcome_instance(rng, arity, measurements, states)
        for adaptive in (True, False):
            variant = SearchConfig(cfg.measurements, adaptive)
            tables, offsets, slots = _tables(ens, variant, None)
            one = _leaf_values(ens.priors[None], tables)
            for values in (one[..., 0], one, _leaf_values(_random_priors(prior_rng, ens, 5), tables)):
                ours, reference = values.copy(), values.copy()
                by_leader = _bellman(ours, slots, variant)
                expected = gather_bellman(reference, offsets, variant)
                assert np.array_equal(ours, reference)
                assert all(np.array_equal(x, y) for x, y in zip(by_leader, expected, strict=True))
            leaders = (None, i % arity)
            reports = [optimal_local(ens, variant, leader) for leader in leaders]
            with monkeypatch.context() as patch:
                patch.setattr(discrimination, "_bellman", lambda v, _, c: gather_bellman(v, offsets, c))
                for leader, report in zip(leaders, reports):
                    gathered = optimal_local(ens, variant, leader)
                    assert report.success == gathered.success
                    assert tree_to_text(report.tree) == tree_to_text(gathered.tree)


def _inline_walk(arity, adaptive):
    """The walk as ``_bellman`` used to build it on every solve: (here, root, moves) per subset."""
    steps = []
    for measured in sorted(range((1 << arity) - 1), key=lambda s: -s.bit_count()):
        rest = tuple(a for a in range(arity) if not measured >> a & 1)
        here = tuple(slice(1, None) if measured >> a & 1 else slice(0, 1) for a in range(arity))
        movers = _movers(rest, adaptive)
        moves = []
        for a in rest if measured == 0 else movers:
            moves.append((a, here[:a] + (slice(1, None),) + here[a + 1 :], a in movers))
        steps.append((here, measured == 0, tuple(moves)))
    return tuple(steps)


def test_walk_equals_the_inline_construction():
    for arity in range(1, MAX_ARITY + 1):
        for adaptive in (True, False):
            assert _walk(arity, adaptive) == _inline_walk(arity, adaptive)
            assert _walk(arity, adaptive) is _walk(arity, adaptive)  # made once per shape
    assert _walk.cache_info().currsize <= 2 * MAX_ARITY


def test_tables_and_config_effects_are_read_only():
    ens = load("s5")
    cfg = SearchConfig.for_ensemble(ens)
    given = [np.array(m) for m in ens.composite.parts[0].measurements()]
    copied = SearchConfig((given,) * 3)
    tables, _, _ = _tables(ens, cfg, None)
    effects = [m for c in (cfg, copied) for per in c.measurements for m in per]
    for array in (*tables, *effects):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 9.0
    given[0][0] = 9.0  # the caller's arrays stay theirs to write
    assert np.array_equal(copied.measurements[0][0], cfg.measurements[0][0])


def _validation_cases():
    """(id, per-party measurement lists, leader, expected message), in the order they are checked."""
    penta = load("s5").composite.parts[0]
    ms = tuple(penta.measurements())
    over = ms * 4  # 20, above the per-party bound
    incomplete = ms + (np.array([penta.effect(0), penta.effect(1)]),)
    nan_effect = ms + (np.array([[np.nan, 0.0, 0.5], [0.0, 0.0, 0.5]]),)
    no_outcomes = ms + (np.zeros((0, 3)),)
    # np.concatenate refuses a party whose effects differ in dimension, after that party's
    # own checks above and every earlier party's checks
    mixed_dimensions = ms + (np.array([[0.0, 0.0, 0.0, 1.0]]),)
    over_bound = f"party 0 has {{}} measurements, above bound {MAX_MEASUREMENTS_PER_PARTY}".format
    incomplete_at = "incomplete measurement at party {}: effects do not sum to the unit".format
    return [
        ("empty-before-over-bound", ((), over, ms), None, "party 0 has no allowed measurements"),
        ("over-bound-before-empty", (over, (), ms), None, over_bound(20)),
        ("over-bound-before-mixed-dimensions", (over, mixed_dimensions, ms), None, over_bound(20)),
        ("empty-before-mixed-dimensions", (ms, (), mixed_dimensions), None, "party 1 has no allowed measurements"),
        ("over-bound-before-incomplete", (over + incomplete, ms, ms), None, over_bound(26)),
        ("incomplete-before-over-bound", (ms, incomplete, over), None, incomplete_at(1)),
        ("nan-effect", (ms, ms, nan_effect), None, incomplete_at(2)),
        ("no-outcomes", (no_outcomes, ms, ms), None, incomplete_at(0)),
        ("incomplete-before-leader", (ms, ms, incomplete), 3, incomplete_at(2)),
        ("leader", (ms, ms, ms), 3, "leader 3 out of range"),
    ]


@pytest.mark.parametrize("case", _validation_cases(), ids=lambda case: case[0])
def test_config_errors_and_their_precedence(case):
    _, per_party, leader, message = case
    ens = load("s5")
    cfg = SearchConfig(per_party)
    for _ in range(2):  # a second call on the same config raises the same error
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            optimal_local(ens, cfg, leader)
    if leader is None:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            leader_optima(ens, cfg, ens.priors)


def _two_dimension_instance():
    """A pentagon party and a classical-bit party, whose effects and states have dimension 2."""
    penta = make_polygon(5)
    bit = GptSystem("bit", np.eye(2), np.eye(2), np.eye(2)[::-1], np.ones(2), ())
    states = tuple(ProductState((penta.pure_state(i), bit.pure_states[i % 2])) for i in (0, 1, 2, 4))
    ens = nwe.NamedEnsemble("mixed", CompositeSystem((penta, bit)), states, np.array([0.4, 0.3, 0.2, 0.1]))
    return ens, SearchConfig((tuple(penta.measurements()), (np.eye(2),)))


def _table_cases():
    cases = []
    for cid in ("s4", "s5", "q3"):
        ens = load(cid)
        cases += [(ens, SearchConfig.for_ensemble(ens)), (ens, SearchConfig.for_ensemble(ens, indices=[0, 1]))]
    rng = np.random.default_rng(2503)
    for draw in (random_instance, mixed_outcome_instance):
        cases += [draw(rng, arity, 3, 6) for arity in (2, 3, 4) for _ in range(3)]
    return cases + [_two_dimension_instance()]


def test_tables_equal_the_scalar_tables_bit_for_bit():
    for ens, cfg in _table_cases():
        tables = _tables(ens, cfg, None)[0]
        for table, want in zip(tables, scalar_tables(ens, cfg), strict=True):
            assert np.array_equal(table, want) and np.array_equal(np.signbit(table), np.signbit(want))
            assert not table.flags.writeable


def test_parties_of_different_dimensions_solve_and_evaluate():
    ens, cfg = _two_dimension_instance()
    for leader in (None, 0, 1):
        report = optimal_local(ens, cfg, leader)
        assert report.success == pytest.approx(recursive_optimal_local(ens, cfg, leader).success, abs=1e-12)
        assert eval_tree(report.tree, ens) == pytest.approx(report.success, abs=1e-12)


@pytest.mark.parametrize(
    "changes",
    [
        [(1, 2, 2.0)],  # party 1 only
        [(1, 0, 2.0), (0, 3, 1.5)],  # party 0 first, though party 1's bad state comes first
        [(1, 0, 2.0), (0, 1, [np.inf, 0.0, 1.0])],
        [(1, 2, [np.nan, 0.0, 1.0])],
    ],
    ids=["one-party", "party-order", "infinite", "nan"],
)
def test_tables_raise_the_first_value_out_of_range_in_party_order(changes):
    base = load("s4")
    ens = base
    for party, state, change in changes:
        factor = change * base.states[state].factors[party] if np.isscalar(change) else change
        ens = _with_factor(ens, party, state, factor)
    cfg = SearchConfig.for_ensemble(ens)
    with pytest.raises(ProbabilityBoundError) as scalar:
        scalar_tables(ens, cfg)
    for solve in (lambda: optimal_local(ens, cfg), lambda: leader_optima(ens, cfg, ens.priors)):
        with pytest.raises(ProbabilityBoundError, match=f"^{re.escape(str(scalar.value))}$"):
            solve()


def _largest_accepted_instance(k, seed=17):
    """Four 17-gon parties with 16 extremal measurements each and k distinct product states."""
    rng = np.random.default_rng(seed)
    part = make_polygon(17)
    picked = set()
    while len(picked) < k:
        picked.add(tuple(int(i) for i in rng.integers(0, part.n, size=4)))
    states = tuple(ProductState(tuple(part.pure_state(i) for i in ix)) for ix in sorted(picked))
    w = rng.random(k) + 0.1
    ens = nwe.NamedEnsemble("largest", CompositeSystem((part,) * 4), states, w / w.sum())
    per_party = tuple(part.measurement(m) for m in range(MAX_MEASUREMENTS_PER_PARTY))
    return ens, SearchConfig((per_party,) * 4)


def _peak_bytes(ens, cfg):
    tracemalloc.start()
    try:
        optimal_local(ens, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_largest_accepted_input_is_fast_and_state_count_free_in_memory():
    ens, cfg = _largest_accepted_instance(12)
    start = time.perf_counter()
    report = optimal_local(ens, cfg)
    assert time.perf_counter() - start < 5.0
    assert eval_tree(report.tree, ens) == pytest.approx(report.success, abs=1e-12)

    small = _peak_bytes(ens, cfg)
    large = _peak_bytes(*_largest_accepted_instance(48))
    assert large < 1.25 * small  # four times the states, about the same peak


def _assert_leader_optima_match(ens, cfg, priors):
    rows = leader_optima(ens, cfg, priors)
    assert len(rows) == len(priors)
    for w, row in zip(priors, rows):
        solo = replace(ens, priors=w)
        assert row == tuple(optimal_local(solo, cfg, a).success for a in range(ens.arity))


def _random_priors(rng, ens, rows):
    """``rows`` seeded random prior rows for ens, about a quarter of the weights zero."""
    w = rng.random((rows, ens.size)) * (rng.random((rows, ens.size)) > 0.25)
    w[:, 0] += 0.05
    return w / w.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("cid", ["s4", "s5", "s6", "s7", "q3"])
def test_leader_optima_equal_forced_leader_solves_on_catalog(cid):
    ens = load(cid)
    for cfg in (
        SearchConfig.for_ensemble(ens),
        SearchConfig.for_ensemble(ens, adaptive=False),
        SearchConfig.for_ensemble(ens, indices=[0, 1]),
    ):
        _assert_leader_optima_match(ens, cfg, ens.priors[None])


@pytest.mark.parametrize("cid", ["s5", "s6", "s7"])
def test_leader_optima_equal_forced_leader_solves_on_the_bias_grid(cid):
    ens = load(cid)
    grid = np.array([biased(float(p)).weights(ens.size) for p in np.linspace(0.01, 0.49, 49)])
    for cfg in (
        SearchConfig.for_ensemble(ens),
        SearchConfig.for_ensemble(ens, adaptive=False),
        SearchConfig.for_ensemble(ens, indices=[0, 1]),
    ):
        _assert_leader_optima_match(ens, cfg, grid)  # one call; s7 spans 3 blocks


@pytest.mark.parametrize("arity, measurements, states", DIFFERENTIAL_SHAPES)
def test_leader_optima_equal_forced_leader_solves_on_random_instances(arity, measurements, states):
    rng = np.random.default_rng(600 + arity)
    prior_rng = np.random.default_rng(700 + arity)
    for _ in range(20):
        ens, cfg = random_instance(rng, arity, measurements, states)
        stack = np.vstack([ens.priors, _random_priors(prior_rng, ens, 4)])
        for adaptive in (True, False):
            _assert_leader_optima_match(ens, SearchConfig(cfg.measurements, adaptive), stack)


def test_leader_optima_spans_several_blocks():
    ens = load("s5")
    per_block = _CHUNK_ENTRIES // 11**3  # rows of the 11 x 11 x 11 pentagon lattice per solve
    stack = _random_priors(np.random.default_rng(9), ens, 2 * per_block + 5)
    _assert_leader_optima_match(ens, SearchConfig.for_ensemble(ens), stack)


def test_leader_optima_solves_separately_loaded_ensembles_in_one_batch():
    first, second = load("s5"), load("s5", biased(0.2))  # equal states, distinct objects
    cfg = SearchConfig.for_ensemble(first)
    rows = leader_optima(first, cfg, np.array([first.priors, second.priors]))
    assert rows == [tuple(optimal_local(e, cfg, a).success for a in range(3)) for e in (first, second)]
    assert leader_optima(second, cfg, first.priors) == rows[:1]  # one row may be given flat


@pytest.mark.parametrize(
    "priors, message",
    [
        (np.full((2, 7), 1.0 / 7.0), "one prior per state required"),
        (np.full((1, 2, 8), 0.125), "one prior per state required"),
        (np.array([[0.5, -0.125] + [0.625 / 6.0] * 6]), "priors must be nonnegative and sum to 1"),
        (np.array([[0.125] * 8, [0.25] * 8]), "priors must be nonnegative and sum to 1"),
        (np.array([[0.125] * 8, [np.nan] * 8]), "priors must be nonnegative and sum to 1"),
    ],
    ids=["width", "three-axes", "negative", "off-sum", "nan"],
)
def test_leader_optima_refuses_bad_prior_rows(priors, message):
    ens = load("s5")
    with pytest.raises(ValueError, match=f"^{message}$"):
        leader_optima(ens, SearchConfig.for_ensemble(ens), priors)


def test_leader_optima_of_no_rows_still_checks_the_config():
    ens = load("s5")
    assert leader_optima(ens, SearchConfig.for_ensemble(ens), np.empty((0, 8))) == []
    with pytest.raises(ValueError, match="one measurement list per party required"):
        leader_optima(ens, SearchConfig((tuple(ens.composite.parts[0].measurements()),) * 2), np.empty((0, 8)))


def test_leader_optima_rejects_what_optimal_local_rejects():
    ens = load("s5")
    ms = ens.composite.parts[0].measurements()
    penta = ens.composite.parts[0]
    bad_configs = [
        SearchConfig(tuple(tuple(ms * 4) for _ in range(3))),  # above the per-party bound
        SearchConfig((tuple(ms),) * 2),  # one list short
        SearchConfig(((), tuple(ms), tuple(ms))),  # a party with nothing to measure
        SearchConfig(((np.array([penta.effect(0), penta.effect(1)]),), tuple(ms), tuple(ms))),
    ]
    for cfg in bad_configs:
        with pytest.raises(ValueError) as expected:
            optimal_local(ens, cfg)
        with pytest.raises(ValueError) as raised:
            leader_optima(ens, cfg, ens.priors[None])
        assert str(raised.value) == str(expected.value)
