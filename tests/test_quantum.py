"""Theta-protocol errors, their closed forms, and the comparison curve."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import nwe
from nwe import discrimination, quantum
from _oracles import golden_section_min, qt_perr
from nwe.catalog import Q3_ANGLES, biased, load, uniform
from nwe.composition import CompositeSystem, ProductState
from nwe.discrimination import SearchConfig, optimal_local
from nwe.quantum import (
    CSV_HEADER,
    MAX_CURVE_STEPS,
    curve,
    curve_csv,
    grouping,
    qt_delta_closed,
    qt_optimize,
)
from nwe.systems import make_bloch_circle

UNIFORM_DELTA = (4.0 - math.sqrt(10.0)) / 8.0
GOLDEN_CONJUGATE = (math.sqrt(5.0) - 1.0) / 2.0


def test_grouping_splits_by_leader_angle():
    assert grouping(0) == ((0, 2, 4, 5), (1, 3, 6, 7))
    assert grouping(1) == ((0, 2, 3, 6), (1, 4, 5, 7))
    assert grouping(2) == ((0, 4, 6, 7), (1, 2, 3, 5))
    with pytest.raises(ValueError):
        grouping(3)


def test_uniform_error_formula():
    for theta in np.linspace(0.0, 0.5 * math.pi, 21):
        expected = 0.125 * 2.0 * (3.0 * 0.5 * (1.0 - math.cos(theta)) + 0.5 * (1.0 - math.sin(theta)))
        assert qt_perr(float(theta), uniform(), 0) == pytest.approx(expected, abs=1e-12)


def test_error_at_zero_angle():
    assert qt_perr(0.0, uniform(), 0) == pytest.approx(0.125, abs=1e-12)


def test_error_at_optimal_angle():
    assert qt_perr(math.atan(1.0 / 3.0), uniform(), 0) == pytest.approx(UNIFORM_DELTA, abs=1e-12)


def test_optimize_uniform_protocol():
    theta, delta_value = qt_optimize(uniform(), 0)
    assert abs(theta - math.atan(1.0 / 3.0)) <= 1e-7
    assert delta_value == pytest.approx(UNIFORM_DELTA, abs=1e-9)
    assert delta_value < 0.125 - 1e-3


def test_leaders_coincide_under_uniform_priors():
    values = [qt_optimize(uniform(), leader)[1] for leader in range(3)]
    assert max(values) - min(values) <= 1e-12


def test_closed_forms_at_special_points():
    assert qt_delta_closed(0.125, "a") == pytest.approx(UNIFORM_DELTA, abs=1e-12)
    assert qt_delta_closed(0.125, "b") == pytest.approx(UNIFORM_DELTA, abs=1e-12)
    assert qt_delta_closed(1e-12, "b") == pytest.approx(0.5 * (1.0 - math.sqrt(5.0) / 3.0), abs=1e-9)
    assert qt_delta_closed(1e-12, "b") == pytest.approx(0.1273220, abs=1e-6)


def test_closed_form_rejects_bad_arguments():
    with pytest.raises(ValueError):
        qt_delta_closed(0.6, "a")
    with pytest.raises(ValueError):
        qt_delta_closed(0.1, "c")


def test_numeric_optimization_matches_closed_forms():
    for p in np.linspace(0.01, 0.49, 50):
        p = float(p)
        family = biased(p)
        assert qt_optimize(family, 0)[1] == pytest.approx(qt_delta_closed(p, "a"), abs=1e-9)
        assert qt_optimize(family, 1)[1] == pytest.approx(qt_delta_closed(p, "b"), abs=1e-9)
        assert qt_optimize(family, 2)[1] == pytest.approx(qt_delta_closed(p, "b"), abs=1e-9)


def test_stationarity_of_the_optimal_angle():
    for leader in range(3):
        for p in (0.05, 0.2, 0.4):
            family = biased(p)
            w = family.weights(8)
            g1, g2 = grouping(leader)
            cos_mass = sum(w[i] for i in g1 if abs(math.cos(Q3_ANGLES[i][leader]) - 1.0) < 1e-12)
            cos_mass += sum(w[i] for i in g2 if abs(math.cos(Q3_ANGLES[i][leader]) + 1.0) < 1e-12)
            sin_mass = sum(w[i] for i in g1 if abs(math.sin(Q3_ANGLES[i][leader]) - 1.0) < 1e-12)
            sin_mass += sum(w[i] for i in g2 if abs(math.sin(Q3_ANGLES[i][leader]) + 1.0) < 1e-12)
            theta, _ = qt_optimize(family, leader)
            assert abs(theta - math.atan2(sin_mass, cos_mass)) <= 1e-7


def test_golden_section_on_shifted_cosine():
    # near a flat minimum, function-value comparisons localize the argmin
    # only to about sqrt(machine eps)
    x, fx = golden_section_min(lambda t: -math.cos(t - 0.4), 0.0, 1.5)
    assert abs(x - 0.4) <= 1e-7
    assert fx == pytest.approx(-1.0, abs=1e-12)


def test_closed_form_optimum_matches_golden_section_oracle():
    for leader in range(3):
        for p in (0.05, 0.2, 0.4):
            family = biased(p)
            theta, value = qt_optimize(family, leader)
            x, fx = golden_section_min(lambda t: qt_perr(t, family, leader), 0.0, 0.5 * math.pi)
            assert abs(theta - x) <= 1e-7
            assert value == pytest.approx(fx, abs=1e-12)


def test_theta_error_follows_the_leader_grouping():
    theta = math.atan(1.0 / 3.0)
    w = uniform().weights(8)
    g1, g2 = grouping(0)
    misses = [0.5 * (1.0 - math.cos(theta - Q3_ANGLES[i][0])) for i in g1]
    misses += [0.5 * (1.0 + math.cos(theta - Q3_ANGLES[i][0])) for i in g2]
    grouped = sum(w[i] * miss for i, miss in zip(g1 + g2, misses))
    assert qt_perr(theta, uniform(), 0) == pytest.approx(grouped, abs=1e-12)
    assert grouped == pytest.approx(UNIFORM_DELTA, abs=1e-12)


def test_each_group_is_perfectly_resolved_by_the_other_parties():
    circ = make_bloch_circle()
    Z = np.stack([circ.effect_at(0.0), circ.effect_at(math.pi)])
    X = np.stack([circ.effect_at(0.5 * math.pi), circ.effect_at(1.5 * math.pi)])
    for leader in range(3):
        others = [p for p in range(3) if p != leader]
        for group in grouping(leader):
            states = tuple(
                ProductState(tuple(circ.state_at(Q3_ANGLES[i][p]) for p in others)) for i in group
            )
            sub = nwe.NamedEnsemble(
                "group",
                CompositeSystem((circ, circ)),
                states,
                np.full(len(group), 1.0 / len(group)),
            )
            report = optimal_local(sub, SearchConfig(((Z, X), (Z, X))))
            assert report.success == pytest.approx(1.0, abs=1e-12)


def test_q3_with_basis_measurements_scores_seven_eighths():
    circ = make_bloch_circle()
    Z = np.stack([circ.effect_at(0.0), circ.effect_at(math.pi)])
    X = np.stack([circ.effect_at(0.5 * math.pi), circ.effect_at(1.5 * math.pi)])
    ens = load("q3")
    report = optimal_local(ens, SearchConfig(((Z, X),) * 3))
    assert report.success == pytest.approx(0.875, abs=1e-12)


def test_q3_catalog_default_measurements_are_the_z_and_x_bases():
    circ = make_bloch_circle()
    Z = np.stack([circ.effect_at(0.0), circ.effect_at(math.pi)])
    X = np.stack([circ.effect_at(0.5 * math.pi), circ.effect_at(1.5 * math.pi)])
    cfg = SearchConfig.for_ensemble(load("q3"))
    for per_party in cfg.measurements:
        assert len(per_party) == 2
        np.testing.assert_array_equal(per_party[0], Z)
        np.testing.assert_array_equal(per_party[1], X)
    subset = SearchConfig.for_ensemble(load("q3"), indices=(1,))
    np.testing.assert_array_equal(subset.measurements[0][0], X)


def test_curve_points_are_consistent():
    points = curve(0.05, 0.45, 9)
    assert len(points) == 9
    assert [pt.p for pt in points] == pytest.approx(list(np.linspace(0.05, 0.45, 9)), abs=1e-15)
    for pt in points:
        assert pt.delta_poly == pytest.approx(min(pt.delta_poly_a, pt.delta_poly_b), abs=1e-15)
        assert pt.delta_qt == pytest.approx(min(pt.delta_qt_a, pt.delta_qt_b), abs=1e-15)
        for v in (pt.delta_poly_a, pt.delta_poly_b, pt.delta_qt_a, pt.delta_qt_b):
            assert 0.0 <= v <= 0.5
        assert pt.delta_qt_a == pytest.approx(qt_delta_closed(pt.p, "a"), abs=1e-9)
        assert pt.delta_qt_b == pytest.approx(qt_delta_closed(pt.p, "b"), abs=1e-9)
        # the asymmetric pentagon openings leave a smaller gap than the
        # circle protocols at every bias level
        assert pt.delta_poly < pt.delta_qt


def test_polygon_sides_cross_at_one_eighth():
    ens = load("s5", biased(0.125))
    cfg = SearchConfig.for_ensemble(ens)
    a = 1.0 - optimal_local(ens, cfg, leader=0).success
    b = min(1.0 - optimal_local(ens, cfg, leader=l).success for l in (1, 2))
    assert a == pytest.approx(b, abs=1e-9)
    assert a == pytest.approx((1.0 - GOLDEN_CONJUGATE) / 8.0, abs=1e-12)


# sha256 of the CSV that `nwe curve 0.01 0.49 49` wrote when the curve ran three
# forced-leader optimal_local solves per point
CURVE_49_SHA256 = "666f5eff4ec58aa0df13a130cf641d9d51348482a7971d097a81d89f7e974b6e"


def test_full_curve_csv_is_pinned():
    text = curve_csv(curve(0.01, 0.49, 49))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CURVE_49_SHA256


def test_curve_columns_equal_direct_solves_exactly():
    rng = np.random.default_rng(2019)
    cfg = SearchConfig.for_ensemble(load("s5"))
    for steps in (2, 60, *rng.integers(3, 60, size=10).tolist()):
        lo, hi = sorted(rng.uniform(0.001, 0.499, size=2).tolist())
        for pt in curve(lo, hi, steps):
            family = biased(pt.p)
            assert pt.delta_qt_a == qt_optimize(family, 0)[1]
            assert pt.delta_qt_b == min(qt_optimize(family, l)[1] for l in (1, 2))
            ens = load("s5", family)
            assert pt.delta_poly_a == 1.0 - optimal_local(ens, cfg, 0).success
            assert pt.delta_poly_b == min(1.0 - optimal_local(ens, cfg, l).success for l in (1, 2))


def test_curve_builds_no_ensemble_or_config(monkeypatch):
    expected = curve(0.05, 0.45, 7)

    def refuse(*args, **kwargs):
        raise AssertionError("curve rebuilt the pentagon ensemble or its config")

    monkeypatch.setattr(quantum, "load", refuse)
    monkeypatch.setattr(SearchConfig, "for_ensemble", refuse)
    assert curve(0.05, 0.45, 7) == expected


def test_curve_prepares_no_tables_per_call(monkeypatch):
    expected = curve(0.05, 0.45, 7)

    def refuse(*args, **kwargs):
        raise AssertionError("curve rebuilt the pentagon likelihood tables")

    monkeypatch.setattr(discrimination, "_tables", refuse)
    monkeypatch.setattr(discrimination, "likelihoods", refuse)
    assert curve(0.05, 0.45, 7) == expected


def test_prepared_pentagon_inputs_are_read_only():
    effects = [m for per in quantum._S5_CONFIG.measurements for m in per]
    for array in (*quantum._S5_TABLES, quantum._S5.priors, *effects):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 9.0


def test_curve_rejects_bad_ranges():
    with pytest.raises(ValueError):
        curve(0.2, 0.1, 5)
    with pytest.raises(ValueError):
        curve(0.0, 0.4, 5)
    with pytest.raises(ValueError):
        curve(0.1, 0.6, 5)
    with pytest.raises(ValueError):
        curve(0.1, 0.4, 1)
    for steps in (MAX_CURVE_STEPS + 1, 10**12):  # refused before the grid is allocated
        with pytest.raises(ValueError, match=f"need at most {MAX_CURVE_STEPS} steps"):
            curve(0.1, 0.4, steps)


def _curve_peak_bytes(steps):
    tracemalloc.start()
    try:
        curve(0.01, 0.49, steps)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_curve_memory_is_one_lattice_block_whatever_the_steps():
    curve(0.01, 0.49, 2)  # warm caches outside the measured calls
    one_block = _curve_peak_bytes(49)  # the 11 x 11 x 11 pentagon lattice takes 49 priors a block
    assert _curve_peak_bytes(490) < 1.25 * one_block


def test_curve_csv_format():
    points = curve(0.1, 0.2, 3)
    text = curve_csv(points)
    lines = text.split("\n")
    assert lines[0] == CSV_HEADER == ",".join(type(points[0])._fields)
    assert lines[1] == ",".join(format(v, ".10g") for v in tuple(points[0]))  # rows are tuples in column order
    assert len(lines) == 5 and lines[-1] == ""
    first = lines[1].split(",")
    assert len(first) == 7
    assert first[0] == "0.1"
    assert "," not in text.replace(",", "", text.count(","))
    for row in lines[1:4]:
        for field in row.split(","):
            float(field)  # parses as plain decimal
