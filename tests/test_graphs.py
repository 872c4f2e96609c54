import hashlib

import numpy as np
import pytest

from nbzeta import (
    IndexOutOfRange,
    InvalidInvolution,
    ParseError,
    adjacency_matrix,
    build_bouquet,
    build_graph,
    complete_graph,
    directed_line_graph,
    graph_counts,
    hashimoto_matrix,
    parse_graph,
    petersen_graph,
    sample_cover,
    sample_matching_model,
    sample_permutation_model,
    sample_single_cycle_model,
    serialize_graph,
)
from nbzeta.graphs import component_counts, degrees, graph_from_pairs, regularity

from conftest import disjoint_union, named_corpus, random_regular_corpus, two_perm_halves


def test_build_k4_counts():
    g = complete_graph(4)
    c = graph_counts(g)
    assert (c.vertices, c.undirected_edges, c.half_loops, c.pairs) == (4, 6, 0, 6)
    assert c.euler_characteristic == -2
    assert g.directed_edge_count == 12


def test_build_single_half_loop():
    g = build_graph(1, [(0, 0)], [0])
    c = graph_counts(g)
    assert (c.half_loops, c.pairs, c.undirected_edges) == (1, 0, 1)


def test_build_rejects_broken_involution():
    # tail of iota(e) must equal head(e): edges (0,1),(0,1) with swap pairing
    # would need tail 1, so this must fail
    with pytest.raises(InvalidInvolution):
        build_graph(2, [(0, 1), (0, 1)], [1, 0])
    with pytest.raises(InvalidInvolution):
        build_graph(1, [(0, 0), (0, 0)], [0, 0])  # not an involution
    with pytest.raises(InvalidInvolution):
        build_graph(1, [(0, 0)], [0, 0])  # length mismatch


def test_build_rejects_out_of_range():
    with pytest.raises(IndexOutOfRange):
        build_graph(2, [(0, 2), (2, 0)], [1, 0])
    with pytest.raises(IndexOutOfRange):
        build_graph(1, [(0, 0), (0, 0)], [2, 0])


def test_empty_graph_is_valid():
    g = build_graph(0, [], [])
    c = graph_counts(g)
    assert c.vertices == 0 and c.undirected_edges == 0
    assert adjacency_matrix(g).shape == (0, 0)
    assert hashimoto_matrix(g).shape == (0, 0)
    assert parse_graph(serialize_graph(g)) == g


def test_bouquet_counts():
    c = graph_counts(build_bouquet(2, 0))
    assert (c.vertices, c.undirected_edges, c.half_loops, c.pairs) == (1, 2, 0, 2)
    assert c.euler_characteristic == -1
    c = graph_counts(build_bouquet(1, 1))
    assert (c.vertices, c.undirected_edges, c.half_loops, c.pairs) == (1, 2, 1, 1)


def test_adjacency_examples():
    assert np.array_equal(
        adjacency_matrix(complete_graph(4)),
        np.ones((4, 4), dtype=int) - np.eye(4, dtype=int),
    )
    assert adjacency_matrix(build_bouquet(2, 0)).tolist() == [[4]]
    assert adjacency_matrix(build_bouquet(0, 3)).tolist() == [[3]]


def test_directed_line_graph_examples():
    # the line graph's vertices are the m directed edges of the graph
    tails, heads = directed_line_graph(build_bouquet(0, 3))
    assert len(tails) == len(heads) == 6
    assert np.all(np.bincount(tails, minlength=3) == 2)
    assert np.all(np.bincount(heads, minlength=3) == 2)

    tails, heads = directed_line_graph(complete_graph(4))
    assert len(tails) == len(heads) == 24
    out_deg = np.bincount(tails, minlength=12)
    assert len(out_deg) == 12 and np.all(out_deg == 2)
    assert heads.min() >= 0 and heads.max() < 12

    tails, heads = directed_line_graph(build_graph(1, [(0, 0)], [0]))
    assert len(tails) == len(heads) == 0


def test_hashimoto_examples():
    H = hashimoto_matrix(build_bouquet(0, 3))
    assert np.array_equal(H, np.ones((3, 3), dtype=int) - np.eye(3, dtype=int))

    H = hashimoto_matrix(build_bouquet(2, 0))
    assert H.shape == (4, 4) and np.trace(H) == 4

    H = hashimoto_matrix(complete_graph(4))
    assert H.shape == (12, 12)
    assert np.trace(H) == 0
    assert np.all(H.sum(axis=1) == 2)


def test_hashimoto_trace_counts_whole_loops():
    for whole, half in [(0, 0), (1, 0), (2, 0), (3, 1), (1, 2)]:
        g = build_bouquet(whole, half)
        assert np.trace(hashimoto_matrix(g)) == 2 * whole


def test_serialize_round_trip_named():
    for g in (complete_graph(4), petersen_graph(), build_bouquet(1, 1)):
        assert parse_graph(serialize_graph(g)) == g


def test_serialize_half_loop_line_count():
    text = serialize_graph(build_bouquet(0, 1))
    assert text.splitlines() == ["nbgraph v1", "1 1", "0 0 0"]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_graph("nbgraph v2\n0 0\n")
    assert exc.value.line == 1
    with pytest.raises(ParseError) as exc:
        parse_graph("nbgraph v1\n2 4\n0 1 1\n1 0 0\n")
    assert exc.value.line == 5
    with pytest.raises(ParseError):
        parse_graph("nbgraph v1\n1 1\n0 0\n")


@pytest.mark.parametrize("sizes", ["3 -2", "3 -1", "-1 0"])
def test_parse_rejects_negative_counts_on_the_size_line(sizes):
    with pytest.raises(ParseError, match="size line") as exc:
        parse_graph(f"nbgraph v1\n{sizes}\n")
    assert exc.value.line == 2


def test_row_sums_equal_degrees_random():
    for g in random_regular_corpus(12, seed=5):
        A = adjacency_matrix(g)
        assert np.array_equal(A.sum(axis=1), degrees(g))
        d = regularity(g)
        assert d is not None
        # half-loop-free regular: Hashimoto row sums are d-1
        H = hashimoto_matrix(g)
        assert np.all(H.sum(axis=1) == d - 1)
        assert parse_graph(serialize_graph(g)) == g


_BASES = {
    "K4": complete_graph(4),
    "Petersen": petersen_graph(),
    "bouquet(2,0)": build_bouquet(2, 0),
    "bouquet(0,3)": build_bouquet(0, 3),
    "bouquet(1,1)": build_bouquet(1, 1),
}


def _cover_total(base, n, seed):
    return sample_cover(_BASES[base], n, seed).total


# SHA-256 of serialize_graph, which fixes the edge order as well as the
# graph; covers at n = 1, even and odd n
PINNED_GRAPHS = [
    (sample_permutation_model, (9, 4, 1),
     "7511487a38ea1772446f93a78303ffb2dec038d062b8efc13552879b41b9bc67"),
    (sample_permutation_model, (8, 6, 2),
     "1fd68f2120bd134418e13ad2b838b30e587b0b01ad5c0436e81b5240cfe138c5"),
    (sample_single_cycle_model, (9, 4, 3),
     "fdf5ad2a7df0e918e813795c705020bdc5fe115c3446cad6259ec6cab6517b6f"),
    (sample_single_cycle_model, (6, 6, 4),
     "de64f72a25ce6831d6a74f9a9110a7629e750c6e9ba9e05b7e668c81a6eb0931"),
    (sample_matching_model, (10, 3, 5),
     "1e34e390733be9e3de2b3b7fc6aa943718f605a041faadb52902dba25cf5a71f"),
    (sample_matching_model, (8, 5, 6),
     "1a441a0615c5bf7c391e1f7aadd78b02aef1a032fd13ea66b65808c43bb2dcb2"),
    (_cover_total, ("K4", 1, 7),
     "e1c0b0da95f5a4b6b5b11f233038fcb7f7b0c26202cfd3bcc3555a7169772b39"),
    (_cover_total, ("K4", 4, 7),
     "f85a6a8ab1bb806b075f79032ad8f5f9a41b73e6b9fb4cfb9195363210fc8563"),
    (_cover_total, ("K4", 5, 7),
     "924cbaabc720b1ffb269d828cd7766e2be23b35226c7619e9ac499f97ae6e053"),
    (_cover_total, ("Petersen", 1, 7),
     "86685bd93ea0095896755e34b9714ee5167219f8df8f80af8b3cd2016629737c"),
    (_cover_total, ("Petersen", 4, 7),
     "2bd2ef54ef1c5809e4a2754def6fcb2f7764e07f291f8f7e08f872da4964ee31"),
    (_cover_total, ("Petersen", 5, 7),
     "7ecfe1b9ccb1eae3d40221378193fa1eab63a6c15db28d53f8611c0ff6965378"),
    (_cover_total, ("bouquet(2,0)", 1, 7),
     "9b9cbf62d669a2141ef8fc73c2bf9c3f3a117f5d21793b7f5787dbf6392b97bc"),
    (_cover_total, ("bouquet(2,0)", 4, 7),
     "a9e50aa77debb95edfb32d27e54121bd935f0722abc48015cc30f64b0a8a0b36"),
    (_cover_total, ("bouquet(2,0)", 5, 7),
     "7a414e3edf136e6f0c2467c5c48680f27b1cc737c189b92d318a731f150a47e1"),
    (_cover_total, ("bouquet(0,3)", 1, 7),
     "d4cd36223443efc827e6b049e8e04ecb06718a98dd17e3f68afdb17bc1592749"),
    (_cover_total, ("bouquet(0,3)", 4, 7),
     "6b4f0d9b8528137c9550cfb8db9cc5011a692636b40381915a0b633661663601"),
    (_cover_total, ("bouquet(0,3)", 5, 7),
     "8d73a15bdba951beaa1b0fb5a6929a298be5bfe6b79acdcf535d9857600c5a3b"),
    (_cover_total, ("bouquet(1,1)", 1, 7),
     "741ed8a45c8a734cf5a80d2c4b8f34cc2bfa610f8b322dcda23b39b11626536e"),
    (_cover_total, ("bouquet(1,1)", 4, 7),
     "d004f66490b2566dd3a403d29fb4fc56d955fe6e23afff8f14772d6b70b0bae5"),
    (_cover_total, ("bouquet(1,1)", 5, 7),
     "90c5391534dc8949a114121b2ebd9e87a3e1670b22f026eb36fbcab1b21e5222"),
    (build_bouquet, (0, 0),
     "bd14a5676e9eb66c41cf05bd161e9ec1c0ecde7fb068c8a7ad3b9121a3fc1067"),
    (build_bouquet, (1, 0),
     "110071c5c46f7ae1d5a10684643e22a9b5b7049be823d324479becdf2dcbccb9"),
    (build_bouquet, (2, 0),
     "9b9cbf62d669a2141ef8fc73c2bf9c3f3a117f5d21793b7f5787dbf6392b97bc"),
    (build_bouquet, (0, 1),
     "56299dc5ab58c7a1fd9d64c91692e8dbe487331529abb0862d53d4b97063f2ea"),
    (build_bouquet, (0, 3),
     "d4cd36223443efc827e6b049e8e04ecb06718a98dd17e3f68afdb17bc1592749"),
    (build_bouquet, (1, 1),
     "741ed8a45c8a734cf5a80d2c4b8f34cc2bfa610f8b322dcda23b39b11626536e"),
    (build_bouquet, (2, 3),
     "f51175f3905ff5eedd600c154ff0cdd9b2ea4b6d1a394fde9fb01622da5b097c"),
    (complete_graph, (0,),
     "a36e14fb9952ccb453e385ae0747474a59b79c1b4d40f41d9e0e33d80ce9d2a1"),
    (complete_graph, (1,),
     "bd14a5676e9eb66c41cf05bd161e9ec1c0ecde7fb068c8a7ad3b9121a3fc1067"),
    (complete_graph, (2,),
     "b95be4076990819a13f726382839fa053bb9fbd694d7e2fa5d8a49f2592aa436"),
    (complete_graph, (3,),
     "fb540537b32a07610f0ace8b4cdefcca0245600761aad5cc6cfc479a88b49d9f"),
    (complete_graph, (4,),
     "e1c0b0da95f5a4b6b5b11f233038fcb7f7b0c26202cfd3bcc3555a7169772b39"),
    (complete_graph, (5,),
     "04ac625418f3983bf9b6765e2e66b840be7c4d0a4a48c120134172308968d932"),
    (petersen_graph, (),
     "86685bd93ea0095896755e34b9714ee5167219f8df8f80af8b3cd2016629737c"),
]


@pytest.mark.parametrize(
    "build, args, digest", PINNED_GRAPHS,
    ids=[f"{b.__name__}{a}" for b, a, _ in PINNED_GRAPHS],
)
def test_graph_builders_pinned(build, args, digest):
    text = serialize_graph(build(*args))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _assert_frozen_arrays(g):
    for arr in (g.tails, g.heads, g.involution):
        assert arr.dtype == np.int64
        assert arr.flags.c_contiguous
        assert not arr.flags.writeable


def test_graph_arrays_are_frozen_contiguous_int64():
    pairs = [(0, 1), (1, 0), (1, 2), (2, 1), (2, 2)]
    inv = [1, 0, 3, 2, 4]
    edges = np.array(pairs, dtype=np.int64)
    for g in (build_graph(3, pairs, inv), build_graph(3, edges, inv)):
        _assert_frozen_arrays(g)
    # the Graph owns its arrays: the caller's stay writable and unshared
    inv_array = np.array(inv, dtype=np.int64)
    g = build_graph(3, edges, inv_array)
    assert edges.flags.writeable and inv_array.flags.writeable
    assert not np.shares_memory(g.tails, edges)
    assert not np.shares_memory(g.involution, inv_array)
    for build, args, _ in PINNED_GRAPHS:
        _assert_frozen_arrays(build(*args))


def test_build_rejects_edges_that_are_not_pairs():
    with pytest.raises(ValueError):
        build_graph(2, [0, 1, 1, 0], [1, 0])  # flat, never reshaped
    with pytest.raises(ValueError):
        build_graph(2, [(0, 1, 0), (1, 0, 1)], [1, 0])
    with pytest.raises(ValueError):
        build_graph(2, np.zeros((2, 2, 1), dtype=np.int64), [1, 0])


def _nullity(M):
    """Number of zero eigenvalues of the symmetric integer matrix M."""
    return int(np.sum(np.linalg.eigvalsh(M.astype(float)) < 1e-9))


def _laplacian_component_counts(g):
    """(components, bipartite components) as the nullities of the Laplacian
    D - A and the signless Laplacian D + A.  x^T (D + A) x sums
    (x_u + x_v)^2 over the edges, so a loop forces x_v = 0 and makes its
    component non-bipartite; an isolated vertex is a zero row of both."""
    A = adjacency_matrix(g)
    D = np.diag(degrees(g))
    return _nullity(D - A), _nullity(D + A)


def _random_multigraph(rng):
    """Up to 11 vertices, some isolated, with whole-loops and half-loops."""
    n = int(rng.integers(0, 12))
    pairs = int(rng.integers(0, 2 * n + 1))
    ends = rng.integers(0, max(n, 1), size=(2, pairs))
    half = rng.integers(0, max(n, 1), size=int(rng.integers(0, 3)) if n else 0)
    return graph_from_pairs(n, ends[0], ends[1], half)


def _cycle(k):
    return graph_from_pairs(k, np.arange(k), (np.arange(k) + 1) % k)


@pytest.mark.parametrize("g, expected", [
    (build_graph(0, [], []), (0, 0)),
    (build_graph(3, [], []), (3, 3)),
    (_cycle(5), (1, 0)),
    (_cycle(6), (1, 1)),
    (disjoint_union(_cycle(5), _cycle(6)), (2, 1)),
    (two_perm_halves(30, 1), (2, 0)),
    (build_bouquet(2, 0), (1, 0)),
    (build_bouquet(0, 1), (1, 0)),
    (graph_from_pairs(4, [0, 2], [1, 3], [3]), (2, 1)),
    (graph_from_pairs(3, [0], [1]), (2, 2)),
], ids=["empty", "isolated", "C5", "C6", "C5+C6", "two-perm-halves",
        "bouquet(2,0)", "bouquet(0,1)", "half-loop-component", "edge+isolated"])
def test_component_counts_examples(g, expected):
    assert component_counts(g) == _laplacian_component_counts(g) == expected


def test_component_counts_match_laplacian_nullities():
    for name, g in named_corpus():
        assert component_counts(g) == _laplacian_component_counts(g), name
    for g in random_regular_corpus(10, seed=4, max_vertices=20):
        assert component_counts(g) == _laplacian_component_counts(g)
    rng = np.random.default_rng(20)
    for _ in range(300):
        g = _random_multigraph(rng)
        assert component_counts(g) == _laplacian_component_counts(g)
