"""Channels from single-system transmission and classical polytope membership."""

import itertools
import math

import numpy as np
import pytest
import scipy.optimize
from numpy.testing import assert_allclose

from nwe.signaling import (
    MEMBERSHIP_TOL,
    VERTEX_ENUMERATION_BOUND,
    Channel,
    VertexBoundError,
    classical_vertices,
    gpt_channel,
    in_classical_polytope,
    polygon_channels,
)
from nwe.systems import ProbabilityBoundError, make_polygon, prob

from _oracles import DeterministicStrategy, per_channel_polygon_channels, two_lp_in_classical_polytope


def test_channel_validation():
    Channel(np.array([[0.5, 0.5], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        Channel(np.array([[0.5, 0.4], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        Channel(np.array([[-0.1, 1.1], [1.0, 0.0]]))


@pytest.mark.parametrize(
    "row, message",
    [
        ([np.nan, 1.0], "nonnegative"),
        ([np.nan, np.nan], "nonnegative"),
        ([np.inf, 1.0], "sum to 1"),
        ([-np.inf, 1.0], "nonnegative"),
        ([np.inf, -np.inf], "nonnegative"),
    ],
)
def test_channel_rejects_non_finite_rows(row, message):
    # NaN compares False both ways, so a rule written as "fail if below" let it through
    with pytest.raises(ValueError, match=f"channel rows must (be|each) {message}"):
        Channel(np.array([row, [0.5, 0.5]]))


def test_deterministic_strategy_channel():
    ch = DeterministicStrategy((0, 1, 0), (2, 0)).channel(3)
    assert_allclose(ch.rows, [[0, 0, 1], [1, 0, 0], [0, 0, 1]], atol=0)
    assert any(np.array_equal(v.rows, ch.rows) for v in classical_vertices(3, 3, 2))


def test_pentagon_channel_from_zero_one_pair():
    penta = make_polygon(5)
    decoding = [penta.effect(0), penta.effect(5 + 0)]
    ch = gpt_channel(penta, [penta.pure_state(0), penta.pure_state(2)], decoding)
    assert_allclose(ch.rows, [[1.0, 0.0], [0.0, 1.0]], atol=1e-12)


def test_constant_encodings_give_identical_rows():
    penta = make_polygon(5)
    decoding = penta.measurement(1)
    ch = gpt_channel(penta, [penta.pure_state(3)] * 4, decoding)
    assert_allclose(ch.rows, np.tile(ch.rows[0], (4, 1)), atol=0)


def test_squit_channel_table():
    sq = make_polygon(4)
    decoding = [sq.effect(0), sq.effect(2)]
    states = [sq.pure_state(i) for i in (0, 1, 2)]
    ch = gpt_channel(sq, states, decoding)
    assert_allclose(ch.rows, [[1, 0], [1, 0], [0, 1]], atol=1e-12)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_channel_rows_equal_the_scalar_table(n):
    poly = make_polygon(n)
    encodings = itertools.chain(*(itertools.product(range(n), repeat=m) for m in (1, 2)))
    for encoding in encodings:
        states = [poly.pure_state(i) for i in encoding]
        for mi in range(len(poly.extremal_measurements)):
            decoding = poly.measurement(mi)
            ch = gpt_channel(poly, states, decoding)
            assert np.array_equal(ch.rows, [[prob(e, w) for e in decoding] for w in states])
            assert ch.rows.flags.c_contiguous


@pytest.mark.parametrize("n, m", [*itertools.product(range(3, 10), (1, 2, 3)), (7, 4), *((n, 2) for n in range(10, 13))])
def test_polygon_channels_equal_the_per_channel_loop(n, m):
    poly = make_polygon(n)
    got = polygon_channels(poly, m)
    expected = per_channel_polygon_channels(poly, m)
    assert len(got) == len(expected)
    assert all(np.array_equal(a.rows, b.rows) for a, b in zip(got, expected))
    assert all(a.rows.tobytes() == b.rows.tobytes() for a, b in zip(got, expected))


@pytest.mark.parametrize("n", range(3, 10))
def test_polygon_channels_raise_the_per_channel_error_below_rounding(n):
    # at eps = 1e-300 rounding residues such as -5.6e-17 are out of bounds
    poly = make_polygon(n)
    for m in (1, 2):
        try:
            expected = per_channel_polygon_channels(poly, m, 1e-300)
        except ProbabilityBoundError as exc:
            with pytest.raises(ProbabilityBoundError) as raised:
                polygon_channels(poly, m, 1e-300)
            assert str(raised.value) == str(exc)
        else:
            got = polygon_channels(poly, m, 1e-300)
            assert all(np.array_equal(a.rows, b.rows) for a, b in zip(got, expected))
    if n == 5:
        with pytest.raises(ProbabilityBoundError, match=r"-5\.551115123125783e-17"):
            polygon_channels(poly, 1, 1e-300)


def test_polygon_channel_enumeration_bound():
    nonagon = make_polygon(9)
    assert 9**4 * 9 <= VERTEX_ENUMERATION_BOUND < 9**5 * 9
    assert len(polygon_channels(nonagon, 4)) > 0
    for m in (5, 8, 10**9):  # the check comes before any power or table is built
        with pytest.raises(VertexBoundError, match=f"9\\^{m} encodings"):
            polygon_channels(nonagon, m)


def test_incomplete_decoding_rejected():
    penta = make_polygon(5)
    with pytest.raises(ValueError):
        gpt_channel(penta, [penta.pure_state(0)], [penta.effect(0), penta.effect(1)])


def test_vertex_enumeration_counts():
    assert len(classical_vertices(2, 2, 2)) == 4
    assert len(classical_vertices(3, 4, 1)) == 4  # one symbol forces constant output
    verts = classical_vertices(3, 3, 2)
    eye = np.eye(3)
    assert not any(np.array_equal(v.rows, eye) for v in verts)


@pytest.mark.parametrize("m, n, d", [(3, 3, 2), (4, 2, 3), (2, 3, 3), (3, 4, 1)])
def test_vertices_are_each_strategy_channel_once_in_first_seen_order(m, n, d):
    expected, seen = [], set()
    for encode in itertools.product(range(d), repeat=m):
        for decode in itertools.product(range(n), repeat=d):
            rows = DeterministicStrategy(encode, decode).channel(n).rows
            if rows.tobytes() not in seen:
                seen.add(rows.tobytes())
                expected.append(rows)
    got = [v.rows for v in classical_vertices(m, n, d)]
    assert len(got) == len(expected)
    assert all(np.array_equal(a, b) for a, b in zip(got, expected))


def test_vertex_enumeration_bound():
    with pytest.raises(VertexBoundError):
        classical_vertices(10, 10, 4)


def test_vertex_channel_is_inside_its_own_polytope():
    penta = make_polygon(5)
    ch = gpt_channel(
        penta,
        [penta.pure_state(0), penta.pure_state(2)],
        [penta.effect(0), penta.effect(5 + 0)],
    )
    result = in_classical_polytope(ch, 2)
    assert result.inside
    verts = classical_vertices(2, 2, 2)
    recomposed = sum(w * v.rows for w, v in zip(result.weights, verts))
    assert np.abs(recomposed - ch.rows).max() <= 1e-7
    assert result.weights.min() >= -1e-9
    assert result.weights.sum() == pytest.approx(1.0, abs=1e-7)


def test_identity_three_rejected_for_two_symbols():
    ch = Channel(np.eye(3))
    result = in_classical_polytope(ch, 2)
    assert not result.inside
    h, c = result.witness
    assert float((h * ch.rows).sum()) - c > 1e-9
    for v in classical_vertices(3, 3, 2):
        assert float((h * v.rows).sum()) <= c + 1e-9


def test_identity_two_accepted_for_two_symbols():
    result = in_classical_polytope(Channel(np.eye(2)), 2)
    assert result.inside


def test_any_channel_fits_when_symbols_cover_inputs():
    rng = np.random.default_rng(21)
    for _ in range(5):
        rows = rng.random((3, 3))
        rows /= rows.sum(axis=1, keepdims=True)
        # round rows so they sum to one at machine precision
        rows[:, -1] = 1.0 - rows[:, :-1].sum(axis=1)
        ch = Channel(rows)
        assert in_classical_polytope(ch, 3).inside


def test_membership_is_monotone_in_alphabet_size():
    rng = np.random.default_rng(4)
    verts2 = classical_vertices(3, 3, 2)
    for _ in range(10):
        w = rng.random(len(verts2))
        w /= w.sum()
        rows = sum(wi * v.rows for wi, v in zip(w, verts2))
        ch = Channel(rows / rows.sum(axis=1, keepdims=True))
        assert in_classical_polytope(ch, 2).inside
        assert in_classical_polytope(ch, 3).inside


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_polygon_channels_live_in_the_two_symbol_polytope(n):
    poly = make_polygon(n)
    for m in (1, 2, 3):
        verts = classical_vertices(m, 2, 2)
        seen = set()
        for encoding in itertools.product(range(n), repeat=m):
            states = [poly.pure_state(i) for i in encoding]
            for mi in range(len(poly.extremal_measurements)):
                ch = gpt_channel(poly, states, poly.measurement(mi))
                key = np.round(ch.rows, 12).tobytes()
                if key in seen:
                    continue
                seen.add(key)
                assert in_classical_polytope(ch, 2, verts).inside


def _assert_certificate(result, ch, vertices):
    V = np.array([v.rows.ravel() for v in vertices])
    x = ch.rows.ravel()
    if result.inside:
        w = result.weights
        assert w.min() >= 0.0
        assert abs(w.sum() - 1.0) <= MEMBERSHIP_TOL
        assert np.max(np.abs(V.T @ w - x)) <= MEMBERSHIP_TOL
    else:
        h, c = result.witness
        assert float(h.ravel() @ x) - c == pytest.approx(result.margin, abs=1e-9)
        assert float(np.max(V @ h.ravel())) <= c + 1e-9


@pytest.mark.parametrize(
    "vertices, shapes",
    [
        (classical_vertices(2, 3, 2), r"\[\(2, 3\)\]"),  # same size, transposed shape
        (classical_vertices(2, 2, 2), r"\[\(2, 2\)\]"),
        ([], r"\[\]"),
    ],
    ids=["transposed", "smaller", "empty"],
)
def test_vertices_must_be_a_nonempty_list_of_the_channel_shape(vertices, shapes):
    ch = Channel(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]))
    with pytest.raises(ValueError, match=f"vertex shapes {shapes} do not match the channel's shape \\(3, 2\\)"):
        in_classical_polytope(ch, 2, vertices)


def _grid_channels(rng, vertices, m, n):
    """Every vertex, points on faces spanned by 2-3 vertices, and random stochastic rows."""
    channels = list(vertices)
    for _ in range(4):
        idx = rng.choice(len(vertices), size=min(int(rng.integers(2, 4)), len(vertices)), replace=False)
        weights = rng.dirichlet(np.ones(len(idx)))
        channels.append(Channel(sum(w * vertices[i].rows for w, i in zip(weights, idx))))
    channels += [Channel(rng.dirichlet(np.ones(n), size=m)) for _ in range(6)]
    return channels


def _certify_channels():
    """The perfbench certify cases: (channel, d, vertices) for every distinct polygon channel and identity."""
    for n, m, d in [(7, 4, 3), (5, 3, 1), (6, 3, 2), (5, 3, 3), *((n, 2, 2) for n in range(5, 10))]:
        vertices = classical_vertices(m, 2, d)
        yield from ((ch, d, vertices) for ch in polygon_channels(make_polygon(n), m))
    for k, d in [(2, 1), (3, 1), (3, 2), (2, 2), (3, 3)]:
        yield Channel(np.eye(k)), d, classical_vertices(k, k, d)


def _grid_cases():
    rng = np.random.default_rng(12)
    for m, n, d in [(2, 2, 1), (3, 2, 1), (3, 3, 1), (2, 2, 2), (3, 2, 2), (2, 3, 2), (3, 3, 2), (4, 2, 3), (3, 3, 3)]:
        vertices = classical_vertices(m, n, d)
        yield from ((ch, d, vertices) for ch in _grid_channels(rng, vertices, m, n))


@pytest.mark.parametrize("cases", [_grid_cases, _certify_channels], ids=["grid", "certify"])
def test_membership_agrees_with_the_two_lp_reference(cases):
    outside = 0
    for ch, d, vertices in cases():
        got = in_classical_polytope(ch, d, vertices)
        want = two_lp_in_classical_polytope(ch, vertices)
        assert got.inside == want.inside
        _assert_certificate(got, ch, vertices)
        if not got.inside:  # the same separation LP: the witness is bit for bit the reference's
            outside += 1
            assert got.margin == want.margin
            assert got.witness[1] == want.witness[1]
            assert got.witness[0].tobytes() == want.witness[0].tobytes()
    assert outside > 0


def _failing_nnls(A, b):
    return np.zeros(A.shape[1]), float(np.linalg.norm(b))


def _nnls_at_its_iteration_limit(A, b):
    raise RuntimeError("Maximum number of iterations reached.")


@pytest.mark.parametrize("nnls", [_failing_nnls, _nnls_at_its_iteration_limit], ids=["zero weights", "raises"])
def test_separation_duals_certify_when_nnls_fails(monkeypatch, nnls):
    # product weights settle most certify channels; the grid's d < min(m, n) cases reach NNLS
    cases = [*_certify_channels(), *_grid_cases()]
    expected = [in_classical_polytope(ch, d, vertices).inside for ch, d, vertices in cases]
    assert sum(expected) > 300
    calls = []

    def counted(A, b):
        calls.append(A.shape)
        return nnls(A, b)

    monkeypatch.setattr(scipy.optimize, "nnls", counted)
    by_duals = 0
    for (ch, d, vertices), inside in zip(cases, expected):
        before = len(calls)
        result = in_classical_polytope(ch, d, vertices)
        assert result.inside == inside
        _assert_certificate(result, ch, vertices)
        by_duals += inside and len(calls) > before
    assert by_duals > 20


@pytest.mark.parametrize("m, n", [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3)])
def test_product_weights_certify_every_channel_when_symbols_cover_inputs_or_outputs(m, n):
    rng = np.random.default_rng(10 * m + n)
    for d in (min(m, n), min(m, n) + 1):
        vertices = classical_vertices(m, n, d)
        assert len(vertices) == n**m  # every deterministic channel
        for ch in _grid_channels(rng, vertices, m, n):
            got = in_classical_polytope(ch, d, vertices)
            assert got.inside and two_lp_in_classical_polytope(ch, vertices).inside
            _assert_certificate(got, ch, vertices)
            # the weights are w_f = prod_x p(f(x)|x), not an NNLS solution
            product = [math.prod(ch.rows[x, v.rows[x].argmax()] for x in range(m)) for v in vertices]
            assert_allclose(got.weights, product, rtol=4 * np.finfo(float).eps, atol=0)
