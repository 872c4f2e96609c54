from collections import Counter

import numpy as np
import pytest

from nbzeta import (
    InvalidParams,
    adjacency_matrix,
    build_bouquet,
    graph_counts,
    sample_cover,
    sample_matching_model,
    sample_permutation_model,
    sample_single_cycle_model,
    serialize_graph,
)
from nbzeta.graphs import degrees, regularity
from nbzeta import rng
from nbzeta.models import validate_cover
from nbzeta.rng import SeedStream, _words, derive_seed, splitmix64


def test_splitmix_determinism():
    assert splitmix64(0) == splitmix64(0)
    assert splitmix64(1) != splitmix64(2)
    seeds = {derive_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(42, 0) != derive_seed(43, 0)


def test_stream_shuffle_is_unbiased_smoke():
    counts = Counter()
    for i in range(6000):
        counts[tuple(SeedStream(derive_seed(9, i)).permutation(3))] += 1
    freqs = [c / 6000 for c in counts.values()]
    assert len(counts) == 6
    assert all(abs(f - 1 / 6) < 0.03 for f in freqs)


def test_splitmix_known_answers():
    # the reference outputs of Vigna's splitmix64.c seeded with 0
    expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    stream = SeedStream(0)
    assert [stream.next64() for _ in range(3)] == expected
    assert _words(0, 3).tolist() == expected


# The scalar draws, word by word through next64/randbelow: the reference
# the vectorized SeedStream must match bit for bit.
def _ref_permutation(stream, n):
    items = list(range(n))
    for i in range(n - 1, 0, -1):
        j = stream.randbelow(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def _ref_single_cycle(stream, n):
    order = _ref_permutation(stream, n)
    pi = [0] * n
    for i in range(n):
        pi[order[i]] = order[(i + 1) % n]
    return pi


def _ref_perfect_matching(stream, n):
    order = _ref_permutation(stream, n)
    pi = [0] * n
    for i in range(0, n, 2):
        a, b = order[i], order[i + 1]
        pi[a], pi[b] = b, a
    return pi


def _ref_near_perfect_matching(stream, n):
    order = _ref_permutation(stream, n)
    pi = [0] * n
    pi[order[0]] = order[0]
    for i in range(1, n, 2):
        a, b = order[i], order[i + 1]
        pi[a], pi[b] = b, a
    return pi


def _at_crossover(parity=None):
    """The sizes on either side of the loop/resolution crossover, of the
    given parity when one is given."""
    c = rng._RESOLVE_MIN_N
    return tuple(n for n in (c - 1, c, c + 1) if parity is None or n % 2 == parity)


# each list ends with one n above 2**16, which sorts in two radix passes
@pytest.mark.parametrize("method, reference, sizes", [
    ("permutation", _ref_permutation, (0, 1, 2, 3, 7, 100, *_at_crossover(), 10_000, 70_000)),
    ("single_cycle", _ref_single_cycle, (0, 1, 2, 3, 7, 100, *_at_crossover(), 10_000, 70_000)),
    ("perfect_matching", _ref_perfect_matching, (0, 2, 100, *_at_crossover(0), 10_000, 70_000)),
    ("near_perfect_matching", _ref_near_perfect_matching,
     (1, 3, 7, 101, *_at_crossover(1), 10_001, 70_001)),
])
def test_stream_draws_match_scalar_reference(method, reference, sizes):
    for n in sizes:
        for i in range(20 if n < 1 << 16 else 3):
            seed = derive_seed(2024, i)
            fast, slow = SeedStream(seed), SeedStream(seed)
            assert getattr(fast, method)(n).tolist() == reference(slow, n)
            assert fast.next64() == slow.next64()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 1000, *_at_crossover(), 65_537, 70_000])
def test_swap_resolution_matches_loop_on_adversarial_targets(n):
    steps = np.arange(n - 1, 0, -1, dtype=np.int64)  # the loop's i, in order
    for targets in (0 * steps, steps, steps - 1, steps // 2):
        assert np.array_equal(rng._resolve_swaps(n, targets), rng._swap_loop(n, targets))


def test_permutation_is_the_same_on_both_paths(monkeypatch):
    n = 1000
    draws = []
    for crossover in (n + 1, n):  # the loop, then the resolution
        monkeypatch.setattr(rng, "_RESOLVE_MIN_N", crossover)
        stream = SeedStream(derive_seed(23, 0))
        draws.append((stream.permutation(n).tolist(), stream.next64()))
    assert draws[0] == draws[1]


def test_bulk_randbelow_matches_scalar_under_rejection():
    # bounds just above 2**63 reject about half of all words, so the bulk
    # draw resumes many times per call
    for i in range(50):
        seed = derive_seed(11, i)
        bounds = [(1 << 63) + splitmix64(seed + k) % (1 << 62) + 1 for k in range(40)]
        fast, slow = SeedStream(seed), SeedStream(seed)
        got = fast._randbelow_array(np.array(bounds, dtype=np.uint64)).tolist()
        assert got == [slow.randbelow(b) for b in bounds]
        assert fast.next64() == slow.next64()


def test_randbelow_rejects_bound_above_2_pow_64():
    with pytest.raises(ValueError):
        SeedStream(1).randbelow((1 << 64) + 1)
    assert 0 <= SeedStream(1).randbelow(1 << 64) < 1 << 64


@pytest.mark.parametrize("method, n", [
    ("perfect_matching", 7),
    ("near_perfect_matching", 8),
    ("permutation", -1),
])
def test_stream_rejects_bad_sizes(method, n):
    stream = SeedStream(3)
    with pytest.raises(ValueError):
        getattr(stream, method)(n)
    # nothing was drawn
    assert stream.next64() == SeedStream(3).next64()


def test_perm_model_params():
    with pytest.raises(InvalidParams):
        sample_permutation_model(10, 3, 0)
    with pytest.raises(InvalidParams):
        sample_permutation_model(10, 2, 0)
    with pytest.raises(InvalidParams):
        sample_permutation_model(0, 4, 0)


def test_perm_model_n1_is_forced():
    g = sample_permutation_model(1, 4, seed=7)
    c = graph_counts(g)
    assert (c.vertices, c.pairs, c.half_loops) == (1, 2, 0)
    assert adjacency_matrix(g).tolist() == [[4]]


def test_perm_model_regularity():
    g = sample_permutation_model(100, 4, seed=42)
    assert g.vertex_count == 100
    assert g.directed_edge_count == 400
    assert regularity(g) == 4
    # determinism, byte for byte
    again = sample_permutation_model(100, 4, seed=42)
    assert serialize_graph(again) == serialize_graph(g)
    other = sample_permutation_model(100, 4, seed=43)
    assert serialize_graph(other) != serialize_graph(g)


def _perm_tuple_from_graph(g, n, half_d):
    """Recover the sampled permutations from the fixed edge layout."""
    perms = []
    for j in range(half_d):
        pi = tuple(int(g.heads[2 * (j * n + i)]) for i in range(n))
        perms.append(pi)
    return tuple(perms)


def test_perm_model_tuple_distribution_n2():
    counts = Counter()
    for i in range(10_000):
        g = sample_permutation_model(2, 4, derive_seed(1234, i))
        counts[_perm_tuple_from_graph(g, 2, 2)] += 1
    assert len(counts) == 4
    for c in counts.values():
        assert abs(c / 10_000 - 0.25) < 0.02


def test_cycle_model_params():
    with pytest.raises(InvalidParams):
        sample_single_cycle_model(1, 4, 0)
    with pytest.raises(InvalidParams):
        sample_single_cycle_model(5, 3, 0)


def test_cycle_model_shapes():
    g = sample_single_cycle_model(3, 4, seed=0)
    c = graph_counts(g)
    assert regularity(g) == 4
    assert c.half_loops == 0
    assert np.all(adjacency_matrix(g).diagonal() == 0)

    g = sample_single_cycle_model(2, 4, seed=5)
    assert adjacency_matrix(g).tolist() == [[0, 4], [4, 0]]


def test_cycle_model_uniform_over_4cycles():
    # 6 single 4-cycles; chi-square style 3-sigma band per cell
    counts = Counter()
    trials = 12_000
    for i in range(trials):
        g = sample_single_cycle_model(4, 4, derive_seed(777, i))
        pi = _perm_tuple_from_graph(g, 4, 2)[0]
        counts[pi] += 1
    assert len(counts) == 6
    p = 1 / 6
    sigma = (trials * p * (1 - p)) ** 0.5
    for c in counts.values():
        assert abs(c - trials * p) < 3.5 * sigma


def test_match_model():
    with pytest.raises(InvalidParams):
        sample_matching_model(5, 3, 0)
    with pytest.raises(InvalidParams):
        sample_matching_model(4, 2, 0)
    g = sample_matching_model(2, 3, seed=1)
    assert adjacency_matrix(g).tolist() == [[0, 3], [3, 0]]
    g = sample_matching_model(4, 3, seed=3)
    assert regularity(g) == 3
    c = graph_counts(g)
    assert c.half_loops == 0 and np.all(adjacency_matrix(g).diagonal() == 0)


def test_match_model_matching_distribution():
    counts = Counter()
    for i in range(9000):
        g = sample_matching_model(4, 3, derive_seed(31, i))
        m = tuple(int(g.heads[2 * i]) for i in range(2))  # first matching only
        counts[m] += 1
    assert len(counts) == 3
    for c in counts.values():
        assert abs(c / 9000 - 1 / 3) < 0.02


def test_bouquets():
    g = build_bouquet(2, 0)
    assert degrees(g).tolist() == [4]
    g = build_bouquet(0, 3)
    assert degrees(g).tolist() == [3]
    assert np.all(g.involution == np.arange(3))
    c = graph_counts(build_bouquet(1, 1))
    assert (c.vertices, c.undirected_edges, c.half_loops, c.pairs,
            c.euler_characteristic) == (1, 2, 1, 1, -1)


@pytest.mark.parametrize("whole,half,n", [
    (2, 0, 3), (0, 3, 4), (0, 3, 5), (1, 1, 6), (1, 2, 5),
])
def test_cover_invariants_bouquets(whole, half, n):
    base = build_bouquet(whole, half)
    cover = sample_cover(base, n, seed=99)
    validate_cover(cover)
    assert regularity(cover.total) == 2 * whole + half


def test_cover_invariants_k4():
    from nbzeta import complete_graph

    cover = sample_cover(complete_graph(4), 5, seed=11)
    validate_cover(cover)
    assert cover.total.vertex_count == 20
    assert regularity(cover.total) == 3


def test_cover_degree_one_is_isomorphic_base():
    base = build_bouquet(2, 0)
    cover = sample_cover(base, 1, seed=0)
    assert cover.total.vertex_count == base.vertex_count
    assert cover.total.directed_edge_count == base.directed_edge_count


def test_cover_forced_swap_doubles_edges():
    # find a seed where both whole-loop lifts are the swap permutation
    base = build_bouquet(2, 0)
    for seed in range(300):
        cover = sample_cover(base, 2, seed=seed)
        A = adjacency_matrix(cover.total)
        if A.tolist() == [[0, 4], [4, 0]]:
            break
    else:
        pytest.fail("no swap-swap seed found in 300 draws")
    validate_cover(cover)


def test_cover_determinism():
    base = build_bouquet(1, 1)
    a = sample_cover(base, 7, seed=123)
    b = sample_cover(base, 7, seed=123)
    assert serialize_graph(a.total) == serialize_graph(b.total)
    assert np.array_equal(a.edge_map, b.edge_map)


def test_cover_odd_n_half_loops_lift_once():
    # each half-loop contributes exactly one half-loop upstairs when n is odd
    base = build_bouquet(0, 3)
    cover = sample_cover(base, 5, seed=21)
    c = graph_counts(cover.total)
    assert c.half_loops == 3
    cover = sample_cover(base, 4, seed=21)
    assert graph_counts(cover.total).half_loops == 0


def test_cover_of_whole_loop_bouquet_matches_perm_distribution_n2():
    # degree-2 covers of the two-whole-loop bouquet induce the same outcome
    # law as the permutation model on two vertices: adjacency signatures
    # [[4,0],[0,4]], [[2,2],[2,2]], [[0,4],[4,0]] with probabilities
    # 1/4, 1/2, 1/4 (the mixed tuples collide in one signature)
    base = build_bouquet(2, 0)
    counts = Counter()
    for i in range(8000):
        cover = sample_cover(base, 2, derive_seed(64, i))
        counts[str(adjacency_matrix(cover.total).tolist())] += 1
    expected = {
        "[[4, 0], [0, 4]]": 0.25,
        "[[2, 2], [2, 2]]": 0.5,
        "[[0, 4], [4, 0]]": 0.25,
    }
    assert set(counts) == set(expected)
    for sig, p in expected.items():
        assert abs(counts[sig] / 8000 - p) < 0.02


def test_cover_of_half_loop_bouquet_is_matching_model_n2():
    # every half-loop lift over two sheets is the forced swap, matching the
    # n=2 matching model's unique outcome
    base = build_bouquet(0, 3)
    for seed in range(5):
        cover = sample_cover(base, 2, seed=seed)
        assert adjacency_matrix(cover.total).tolist() == [[0, 3], [3, 0]]
    forced = sample_matching_model(2, 3, seed=0)
    assert adjacency_matrix(forced).tolist() == [[0, 3], [3, 0]]
