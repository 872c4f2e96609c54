from fractions import Fraction

import numpy as np
import pytest

from nbzeta import (
    IllConditioned,
    InvalidParams,
    TooLarge,
    build_bouquet,
    build_graph,
    complete_graph,
    count_closed_nb_walks,
    derive_seed,
    estimate_expected_trace,
    exact_expected_trace_small,
    fit_expansion_coefficients,
    hashimoto_spectrum,
    p0_divisor_sum,
    petersen_graph,
    sample_cover,
    sample_matching_model,
    sample_permutation_model,
    sample_single_cycle_model,
    tr_hashimoto_power,
)
from nbzeta import traces
from nbzeta.graphs import graph_counts, hashimoto_sparse, regularity
from nbzeta.traces import _permutations_to_graph

from conftest import random_regular_corpus


def _cycle(n):
    edges, inv = [], []
    for i in range(n):
        edges += [(i, (i + 1) % n), ((i + 1) % n, i)]
        inv += [2 * i + 1, 2 * i]
    return build_graph(n, edges, inv)


def _whole_loops(g):
    own = np.arange(g.directed_edge_count)
    return int(np.sum((g.tails == g.heads) & (g.involution != own)))


def _irregular():
    # K4 minus one edge plus a pendant vertex: degrees 3, 3, 2, 3, 1
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (3, 4)]
    edges, inv = [], []
    for i, (a, b) in enumerate(pairs):
        edges += [(a, b), (b, a)]
        inv += [2 * i + 1, 2 * i]
    return build_graph(5, edges, inv)


def _split_reference(g, k):
    """Tr(H^k) = sum(H^a * (H^b)^T) on hashimoto_sparse, a + b = k."""
    H = hashimoto_sparse(g)
    b = k // 2
    if b == 0:
        return int(H.diagonal().sum())
    Pb = H
    for _ in range(b - 1):
        Pb = Pb @ H
    Pa = Pb @ H if k % 2 else Pb
    return int(Pa.multiply(Pb.T).sum())


def _small_graphs():
    perm = sample_permutation_model(5, 4, seed=1)
    cover = sample_cover(build_bouquet(1, 1), 11, 1).total
    assert _whole_loops(perm) > 0
    assert graph_counts(cover).half_loops == 1
    return [
        ("perm n=5", perm),
        ("match d=3", sample_matching_model(10, 3, seed=4)),
        ("cover of bouquet(1,1), n=11", cover),
        ("bouquet(0,1)", build_bouquet(0, 1)),
        ("cycle C7", _cycle(7)),
        ("Petersen", petersen_graph()),
        ("irregular", _irregular()),
    ]


def test_k4_traces():
    g = complete_graph(4)
    assert [tr_hashimoto_power(g, k) for k in range(5)] == [12, 0, 0, 24, 24]


def test_bouquet_traces():
    assert tr_hashimoto_power(build_bouquet(2, 0), 1) == 4
    assert tr_hashimoto_power(build_bouquet(0, 3), 1) == 0
    assert tr_hashimoto_power(build_bouquet(0, 3), 2) == 6  # (J-I)^2 trace


def test_traces_match_spectrum_power_sums_sparse_path():
    # push a medium graph through the sparse trace path and compare with
    # the ihara spectrum power sums
    g = sample_permutation_model(500, 4, seed=77)
    assert g.directed_edge_count == 2000
    mu = hashimoto_spectrum(g)
    for k in range(1, 7):
        exact = tr_hashimoto_power(g, k)
        approx = float(np.sum(mu ** k).real)
        assert abs(approx - exact) <= 1e-6 * max(1.0, abs(exact))


def test_traces_match_walk_enumeration():
    corpus = [complete_graph(4), build_bouquet(2, 0), build_bouquet(0, 3),
              build_bouquet(1, 1)]
    corpus += random_regular_corpus(6, seed=99, max_vertices=10)
    corpus += [g for _, g in _small_graphs()]
    for g in corpus:
        if g.directed_edge_count > 64:
            continue
        for k in range(1, 9):
            assert tr_hashimoto_power(g, k) == count_closed_nb_walks(g, k)


def test_route_matches_hashimoto_split():
    # the medium graphs exceed the dense limit, the small ones do not
    perm = sample_permutation_model(300, 4, seed=2)
    cover = sample_cover(build_bouquet(1, 1), 101, 1).total
    assert _whole_loops(perm) > 0
    assert graph_counts(cover).half_loops == 1
    medium = [
        ("perm n=300", perm),
        ("match d=3, n=300", sample_matching_model(300, 3, seed=3)),
        ("cover of bouquet(1,1), n=101", cover),
        ("cycle C80", _cycle(80)),
    ]
    for name, g in medium + _small_graphs():
        for k in range(1, 10):
            assert tr_hashimoto_power(g, k) == _split_reference(g, k), (name, k)
    # K4 up to k = 58, the largest k the int64 split admits for it
    g = complete_graph(4)
    for k in (30, 45, 58):
        assert tr_hashimoto_power(g, k) == _split_reference(g, k), k


def test_cycle_traces():
    # a closed non-backtracking walk on C_n winds around: 2n of length k
    # when n divides k, none otherwise
    g = _cycle(6)
    assert [tr_hashimoto_power(g, k) for k in range(1, 13)] == [
        12 if k % 6 == 0 else 0 for k in range(1, 13)
    ]


def test_only_irregular_graphs_build_hashimoto(monkeypatch):
    calls = []

    def counting(g):
        calls.append(g)
        return hashimoto_sparse(g)

    monkeypatch.setattr(traces, "hashimoto_sparse", counting)
    for name, g in _small_graphs():
        tr_hashimoto_power(g, 4)
        assert len(calls) == (0 if regularity(g) else 1), name
        calls.clear()


def test_trace_size_guard():
    g = sample_permutation_model(2000, 4, seed=1)
    with pytest.raises(TooLarge):
        tr_hashimoto_power(g, 40)


def test_p0_divisor_sum():
    assert p0_divisor_sum(1, 4) == 3
    assert p0_divisor_sum(4, 4) == 93
    assert p0_divisor_sum(6, 4) == 768
    assert p0_divisor_sum(5, 3) == 2 + 32


def test_estimate_forced_n1():
    est = estimate_expected_trace("perm", 1, 4, 1, samples=50, master_seed=3)
    assert est.mean == 4.0
    assert est.stderr == 0.0


@pytest.mark.parametrize("model, n, d, k, draw", [
    ("perm", 6, 4, 3, lambda seed: sample_permutation_model(6, 4, seed)),
    ("cycle", 6, 4, 3, lambda seed: sample_single_cycle_model(6, 4, seed)),
    # k = 4: a 3-regular matching sample has few closed walks of length 3
    ("match", 6, 3, 4, lambda seed: sample_matching_model(6, 3, seed)),
    # 5 sheets over K4: 60 directed edges, within the walk oracle's limit
    ("cover", 5, 3, 3, lambda seed: sample_cover(complete_graph(4), 5, seed).total),
], ids=["perm", "cycle", "match", "cover"])
def test_estimate_reproducible_and_prefix(model, n, d, k, draw):
    base = complete_graph(4) if model == "cover" else None
    a = estimate_expected_trace(model, n, d, k, samples=40, master_seed=11, base=base)
    b = estimate_expected_trace(model, n, d, k, samples=40, master_seed=11, base=base)
    assert a == b
    longer = estimate_expected_trace(model, n, d, k, samples=80, master_seed=11, base=base)
    assert longer.values[:40] == a.values
    # each value is the trace of the graph drawn from the sample's seed
    assert a.values == tuple(
        count_closed_nb_walks(draw(derive_seed(11, i)), k) for i in range(40)
    )
    assert any(a.values)


def test_estimate_rejects_unknown_model_and_missing_base():
    with pytest.raises(InvalidParams, match="unknown model"):
        estimate_expected_trace("torus", 6, 4, 3, samples=2, master_seed=1)
    with pytest.raises(InvalidParams, match="base graph"):
        estimate_expected_trace("cover", 6, 3, 3, samples=2, master_seed=1)


def test_exact_expected_trace_tiny():
    assert exact_expected_trace_small(1, 4, 1) == 4
    assert exact_expected_trace_small(2, 4, 1) == 4


def test_exact_expected_trace_n2_matches_hand_enumeration():
    # independent oracle: enumerate the four (pi1, pi2) graphs explicitly
    # and average walk-enumeration counts
    ident, swap = [0, 1], [1, 0]
    tuples = [(ident, ident), (ident, swap), (swap, ident), (swap, swap)]
    for k in range(1, 7):
        total = 0
        for p1, p2 in tuples:
            g = _permutations_to_graph(2, [p1, p2])
            total += count_closed_nb_walks(g, k)
        assert exact_expected_trace_small(2, 4, k) == Fraction(total, 4)


def test_exact_expected_trace_guard():
    with pytest.raises(TooLarge):
        exact_expected_trace_small(9, 4, 2)


def test_estimate_agrees_with_exact_n2():
    for k in range(1, 5):
        est = estimate_expected_trace("perm", 2, 4, k, samples=4000, master_seed=5)
        exact = float(exact_expected_trace_small(2, 4, k))
        band = 5 * max(est.stderr, 1e-12)
        assert abs(est.mean - exact) <= band, (k, est.mean, exact, band)


def test_estimate_large_n_sits_in_divisor_sum_band():
    # documented heuristic band: |mean - divisor sum| <= 5*k*d + 5*stderr
    est = estimate_expected_trace("perm", 1000, 4, 2, samples=400, master_seed=21)
    assert abs(est.mean - p0_divisor_sum(2, 4)) <= 5 * 2 * 4 + 5 * est.stderr


def test_fit_degenerate_grid():
    with pytest.raises(IllConditioned):
        fit_expansion_coefficients("perm", 4, 2, [100, 100, 100], 10, 0)


def test_fit_intercept_tracks_large_n_mean():
    fit = fit_expansion_coefficients(
        "perm", 4, 1, [200, 400, 800], samples_per_n=300, master_seed=9
    )
    ref = estimate_expected_trace("perm", 3200, 4, 1, samples=300, master_seed=77)
    sigma = np.hypot(fit.intercept_stderr, ref.stderr)
    assert abs(fit.intercept - ref.mean) <= 3.5 * sigma


def test_fit_k2_consistency():
    fit = fit_expansion_coefficients(
        "perm", 4, 2, [200, 400, 800], samples_per_n=300, master_seed=4
    )
    # the n-independent term should sit near the divisor-sum prediction,
    # within the documented O(kd) heuristic band
    assert abs(fit.intercept - p0_divisor_sum(2, 4)) <= 5 * 2 * 4 + 5 * fit.intercept_stderr
