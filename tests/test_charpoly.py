import hashlib
from math import isqrt, prod

import numpy as np
import pytest

import nbzeta.charpoly as charpoly_mod
import nbzeta.zeta as zeta_mod
from nbzeta import LanczosBreakdown, TooLarge, hashimoto_char_poly
from nbzeta.charpoly import charpoly, charpoly_berkowitz, coefficient_bound
from nbzeta import polys
from nbzeta import (
    adjacency_matrix,
    build_bouquet,
    build_graph,
    complete_graph,
    graph_counts,
    hashimoto_matrix,
    petersen_graph,
    sample_cover,
    sample_matching_model,
    sample_permutation_model,
    sample_single_cycle_model,
)
from nbzeta.graphs import graph_from_pairs, regularity

from conftest import random_regular_corpus


def test_charpoly_trivial_cases():
    assert charpoly(np.zeros((0, 0), dtype=int)) == [1]
    assert charpoly(np.array([[5]])) == [-5, 1]
    assert charpoly(np.diag([1, 2, 3])) == polys.mul([-1, 1], polys.mul([-2, 1], [-3, 1]))


def test_charpoly_matches_berkowitz_random():
    rng = np.random.default_rng(0)
    for trial in range(12):
        m = int(rng.integers(1, 14))
        M = rng.integers(-6, 7, size=(m, m))
        S = M + M.T
        assert charpoly(S) == charpoly_berkowitz(S), f"trial {trial}"


def test_charpoly_matches_berkowitz_hashimoto_texture():
    """Sparse 0/1 matrices S P_J, S symmetric: self-adjoint for a swap
    involution J, as H is for the edge involution."""
    rng = np.random.default_rng(4)
    for trial in range(6):
        m = int(rng.integers(2, 24))
        upper = np.triu(rng.random((m, m)) < 0.15)
        S = (upper | upper.T).astype(int)
        J = _swap_involution(m, m % 2)
        M = S @ np.eye(m, dtype=int)[J]
        assert charpoly(M, involution=J) == charpoly_berkowitz(M), f"trial {trial}"


def test_coefficient_bound_dominates():
    rng = np.random.default_rng(1)
    for _ in range(8):
        m = int(rng.integers(1, 12))
        M = rng.integers(-4, 5, size=(m, m))
        bound = coefficient_bound(M)
        coeffs = charpoly_berkowitz(M)
        assert max(abs(c) for c in coeffs) <= bound


def test_charpoly_size_guard():
    with pytest.raises(TooLarge):
        charpoly(np.zeros((600, 600), dtype=int))


def test_k4_char_poly_is_frozen_product():
    # oracle: expand (1-u)(1-2u)(1+u+2u^2)^3 (1-u^2)^2 with exact arithmetic
    expected = polys.mul(
        polys.mul([1, -1], [1, -2]),
        polys.mul(polys.pow_([1, 1, 2], 3), polys.pow_([1, 0, -1], 2)),
    )
    _, u_poly = hashimoto_char_poly(complete_graph(4))
    assert u_poly == expected


def test_bouquet_char_polys():
    # bouquet(2,0): det(I-uH) = (1-u)(1-3u)(1-u^2)
    _, u_poly = hashimoto_char_poly(build_bouquet(2, 0))
    assert u_poly == polys.mul(polys.mul([1, -1], [1, -3]), [1, 0, -1])
    # bouquet(0,3): det(mu I - H) = (mu-2)(mu+1)^2
    mu_poly, _ = hashimoto_char_poly(build_bouquet(0, 3))
    assert mu_poly == polys.mul([-2, 1], polys.pow_([1, 1], 2))


def test_mu_and_u_forms_are_reciprocal():
    for g in random_regular_corpus(6, seed=77, max_vertices=12):
        mu_poly, u_poly = hashimoto_char_poly(g)
        m = g.directed_edge_count
        assert u_poly == polys.reciprocal(mu_poly, degree=m)
        assert mu_poly[-1] == 1  # monic


def test_polys_reciprocal():
    assert polys.reciprocal([2, 0, 1], degree=4) == [0, 0, 1, 0, 2]
    with pytest.raises(ValueError):
        polys.reciprocal([1, 2, 3], degree=1)
    assert polys.to_decimal_strings([12, -5]) == ["12", "-5"]


def _disjoint_union(*graphs):
    edges, inv, v_off, e_off = [], [], 0, 0
    for g in graphs:
        edges += [(int(t) + v_off, int(h) + v_off) for t, h in zip(g.tails, g.heads)]
        inv += [int(e) + e_off for e in g.involution]
        v_off += g.vertex_count
        e_off += g.directed_edge_count
    return build_graph(v_off, edges, inv)


def _char_poly_corpus():
    """Regular graphs on both Ihara branches, pairs >= |V| and pairs < |V|
    (the division branch), d = 1 and 2, a disconnected graph, and one
    irregular graph."""
    k4_minus_edge = build_graph(
        4,
        [(0, 1), (1, 0), (0, 2), (2, 0), (0, 3), (3, 0), (1, 2), (2, 1), (1, 3), (3, 1)],
        [1, 0, 3, 2, 5, 4, 7, 6, 9, 8],
    )
    corpus = [
        ("perm n=9 d=4", sample_permutation_model(9, 4, seed=3)),
        ("perm n=5 d=6", sample_permutation_model(5, 6, seed=8)),
        ("cycle n=11 d=4", sample_single_cycle_model(11, 4, seed=2)),
        ("match n=10 d=3", sample_matching_model(10, 3, seed=4)),
        ("Petersen", petersen_graph()),
        ("bouquet(0,3)", build_bouquet(0, 3)),
        ("bouquet(0,1)", build_bouquet(0, 1)),
        ("cycles, cover of bouquet(1,0) n=2", sample_cover(build_bouquet(1, 0), 2, seed=1).total),
        ("cycles, cover of bouquet(1,0) n=7", sample_cover(build_bouquet(1, 0), 7, seed=2).total),
        ("4 x bouquet(0,3)", _disjoint_union(*[build_bouquet(0, 3)] * 4)),
        ("K4 + bouquet(0,3) cover", _disjoint_union(
            complete_graph(4), sample_cover(build_bouquet(0, 3), 3, seed=1).total)),
        ("irregular K4 minus an edge", k4_minus_edge),
    ]
    for n in (1, 3, 5, 7):
        corpus.append((f"bouquet(0,3) cover n={n}",
                       sample_cover(build_bouquet(0, 3), n, seed=n).total))
    for n in (4, 7):
        corpus.append((f"bouquet(0,1) cover n={n}",
                       sample_cover(build_bouquet(0, 1), n, seed=n).total))
    for n in (6, 9):
        corpus.append((f"bouquet(1,1) cover n={n}",
                       sample_cover(build_bouquet(1, 1), n, seed=n).total))
        corpus.append((f"bouquet(1,2) cover n={n}",
                       sample_cover(build_bouquet(1, 2), n, seed=n).total))
    return corpus


def test_regular_char_poly_matches_direct(monkeypatch):
    built = []

    def counting(g):
        built.append(g)
        return hashimoto_matrix(g)

    monkeypatch.setattr(zeta_mod, "hashimoto_matrix", counting)
    corpus = _char_poly_corpus()
    counts = [graph_counts(g) for _, g in corpus]
    assert any(c.pairs < c.vertices for c in counts)
    assert any(c.half_loops and c.pairs > c.vertices for c in counts)
    assert {1, 2} <= {regularity(g) for _, g in corpus}
    for name, g in corpus:
        built.clear()
        direct = charpoly(hashimoto_matrix(g), involution=g.involution)
        mu_poly, u_poly = hashimoto_char_poly(g)
        assert mu_poly == direct, name
        assert u_poly == polys.reciprocal(direct, degree=g.directed_edge_count), name
        assert len(built) == (0 if regularity(g) else 1), name


def test_regular_char_poly_does_not_build_hashimoto(monkeypatch):
    def refuse(g):
        raise AssertionError("hashimoto_matrix built for a regular graph")

    expected = hashimoto_char_poly(complete_graph(4))
    monkeypatch.setattr(zeta_mod, "hashimoto_matrix", refuse)
    assert hashimoto_char_poly(complete_graph(4)) == expected
    hashimoto_char_poly(sample_cover(build_bouquet(0, 3), 1, seed=0).total)
    hashimoto_char_poly(sample_permutation_model(32, 4, seed=7))


def _is_prime(n):
    if n < 2 or n % 2 == 0:
        return n == 2
    f, r = 3, isqrt(n)
    while f <= r:
        if n % f == 0:
            return False
        f += 2
    return True


def test_prime_pool_is_the_largest_primes_below_2_26():
    expected, x = [], (1 << 26) - 1
    while len(expected) < 160:
        if _is_prime(x):
            expected.append(x)
        x -= 2
    assert charpoly_mod._PRIMES == expected
    assert charpoly_mod._prime_pool() == expected


def _crt_scalar(residues, primes):
    """One inverse per coefficient per prime: the reference lift."""
    out = []
    for j in range(len(residues[0])):
        x, modulus = 0, 1
        for res, p in zip(residues, primes):
            x += modulus * ((int(res[j]) - x) * pow(modulus % p, p - 2, p) % p)
            modulus *= p
        out.append(x - modulus if x > modulus // 2 else x)
    return out


def test_garner_lift_matches_scalar_crt():
    rng = np.random.default_rng(5)
    for P in (1, 2, 5, 12):
        primes = charpoly_mod._PRIMES[3:3 + P]
        residues = np.array([rng.integers(0, p, size=40) for p in primes])
        residues[:, 0] = 0
        residues[:, 1] = [p - 1 for p in primes]
        assert charpoly_mod._crt_lift(residues, primes) == _crt_scalar(residues, primes)
    # a signed value round-trips
    primes = charpoly_mod._PRIMES[:6]
    values = [0, 1, -1, 2 ** 140, -(2 ** 140) + 7, prod(primes) // 2, -(prod(primes) // 2)]
    residues = np.array([[v % p for v in values] for p in primes])
    assert charpoly_mod._crt_lift(residues, primes) == values


def test_charpoly_input_range():
    half = np.array([[0.5, 0], [0, 1]])
    with pytest.raises(ValueError):
        charpoly(half)
    with pytest.raises(ValueError):
        charpoly_berkowitz(half)
    with pytest.raises(ValueError):
        charpoly(np.array([[1, 0.5], [0, 1]], dtype=object))
    assert charpoly(np.array([[2 ** 70]], dtype=object)) == [-(2 ** 70), 1]
    assert charpoly(np.array([[2 ** 62, 0], [0, 1]])) == [2 ** 62, -(2 ** 62) - 1, 1]
    big = np.array([[2 ** 70, -(2 ** 65)], [-(2 ** 65), 1]], dtype=object)
    assert charpoly(big) == charpoly_berkowitz(big)
    # self-adjoint for the swap: M^T = M[J][:, J]
    assert charpoly(np.array([[True, False], [True, True]]), involution=[1, 0]) == [1, -2, 1]
    assert charpoly(np.array([[7, 1], [1, 2]], dtype=np.uint8)) == [13, -9, 1]
    assert charpoly(np.array([[2 ** 64 - 1]], dtype=np.uint64)) == [1 - 2 ** 64, 1]


def test_involution_must_make_the_matrix_self_adjoint():
    g = petersen_graph()
    H = hashimoto_matrix(g)
    with pytest.raises(ValueError):
        charpoly(H, involution=np.arange(H.shape[0]))
    with pytest.raises(ValueError):
        charpoly(H, involution=np.zeros(H.shape[0], dtype=int))
    with pytest.raises(ValueError):
        charpoly(np.ones((3, 3), dtype=int), involution=[1, 2, 0])


def _c6_box_k4():
    """C6 x K4 (Cartesian product): 5-regular with adjacency eigenvalue
    1 + 3 = 4 = 2 sqrt(d - 1), so H has a Jordan block at mu = 2."""
    a, b = [], []
    for i in range(6):
        for v in range(4):
            a.append(4 * i + v)
            b.append(4 * ((i + 1) % 6) + v)
            for w in range(v + 1, 4):
                a.append(4 * i + v)
                b.append(4 * i + w)
    return graph_from_pairs(24, a, b)


def _lanczos_graph_corpus():
    """The regular and irregular graphs of _char_poly_corpus, graphs like the
    benchmark's (m = 128 and m = 129 with a half-loop), covers of K4,
    Petersen and bouquets with half-loops, and C6 x K4."""
    corpus = list(_char_poly_corpus())
    corpus += [(f"perm n=32 d=4 seed={s}", sample_permutation_model(32, 4, seed=s))
               for s in (1, 2)]
    corpus += [(f"bouquet(1,1) cover n=43 seed={s}",
                sample_cover(build_bouquet(1, 1), 43, seed=s).total) for s in (1, 2)]
    corpus += [(f"K4 cover n={n}", sample_cover(complete_graph(4), n, seed=n).total)
               for n in (2, 5, 10)]
    corpus += [(f"Petersen cover n={n}", sample_cover(petersen_graph(), n, seed=n).total)
               for n in (2, 4)]
    corpus += [(f"bouquet(2,1) cover n={n}", sample_cover(build_bouquet(2, 1), n, seed=n).total)
               for n in (3, 8)]
    corpus += [(f"bouquet(0,5) cover n={n}", sample_cover(build_bouquet(0, 5), n, seed=n).total)
               for n in (2, 5)]
    corpus += [("C6 x K4", _c6_box_k4())]
    return corpus


def _digest(poly):
    return hashlib.sha256(",".join(map(str, poly)).encode()).hexdigest()[:16]


# Digests of det(xI - H) and det(xI - A) from the Hessenberg reduction that
# Lanczos replaced.
_CORPUS_DIGESTS = {
    'perm n=9 d=4': ('0bd00d5252ff4980', '1261b56579c397de'),
    'perm n=5 d=6': ('5d3e518bf7ee1c3c', 'f5aefaf3d78f6bd9'),
    'cycle n=11 d=4': ('4828acccca627a47', '662247e0098d055a'),
    'match n=10 d=3': ('1da832a1a0526ee1', '96e8d177ab4c0051'),
    'Petersen': ('82d04cfc0af5955c', 'ec3e56b2bd0c37e1'),
    'bouquet(0,3)': ('7d04ba065ad9296d', '593b8255b777c9d0'),
    'bouquet(0,1)': ('83b97b859aa5f81b', '8a918b5bada61adc'),
    'cycles, cover of bouquet(1,0) n=2': ('4422fc513308f51d', 'fd565fd50ecb1d42'),
    'cycles, cover of bouquet(1,0) n=7': ('8306f497dc2dd03e', 'baf25ac32ec88bd4'),
    '4 x bouquet(0,3)': ('c9d68c2f6d693a95', '1efcab656ce3ab07'),
    'K4 + bouquet(0,3) cover': ('1bd0c6dcc4a69152', 'f0d420c44d778328'),
    'irregular K4 minus an edge': ('9eb3b602332749bd', '6b092cd36a55622f'),
    'bouquet(0,3) cover n=1': ('7d04ba065ad9296d', '593b8255b777c9d0'),
    'bouquet(0,3) cover n=3': ('fea6efb5fabfba32', 'b908c17bfc8103a3'),
    'bouquet(0,3) cover n=5': ('5162cc7273ace108', 'd93d51674cef8446'),
    'bouquet(0,3) cover n=7': ('38670e0d525fec7c', '3bda6d03fec04b4a'),
    'bouquet(0,1) cover n=4': ('ea3d0eb3414eb7a8', '8b1e54586c5ad1fa'),
    'bouquet(0,1) cover n=7': ('e2d82402cff97672', 'f05ac450d4db5589'),
    'bouquet(1,1) cover n=6': ('b99bed04ca68de20', 'eaaca03124e19a8c'),
    'bouquet(1,2) cover n=6': ('038de5a9d94ea8c8', '604563db60561228'),
    'bouquet(1,1) cover n=9': ('8f0162772c91d218', '5ecfbeebe6875463'),
    'bouquet(1,2) cover n=9': ('6815a2ed26081bb1', 'c1ebcf3819e37f6d'),
    'perm n=32 d=4 seed=1': ('ab618344ee1d8692', '74b03a3910e925ae'),
    'perm n=32 d=4 seed=2': ('7bed7fa635e168d3', 'f515576f3a56afc6'),
    'bouquet(1,1) cover n=43 seed=1': ('cc9ab2b0e2ac8eaf', '4fc26df8f826ed70'),
    'bouquet(1,1) cover n=43 seed=2': ('7c7f19308debdc8f', 'c49fdd4f33897f9b'),
    'K4 cover n=2': ('8c5b5f43082f8ade', 'f639538ff3dbfea7'),
    'K4 cover n=5': ('5b80451e70c02569', '980ce2aad859e567'),
    'K4 cover n=10': ('ee9685720812d9e3', '5830885a11fb26fb'),
    'Petersen cover n=2': ('3b04ccfc61959d02', '1483039738c6dc3e'),
    'Petersen cover n=4': ('c661b4b504948002', 'a79a468fb8a8445d'),
    'bouquet(2,1) cover n=3': ('b0a6bc5547321abb', '40ccceb804e89be3'),
    'bouquet(2,1) cover n=8': ('10e9e65d503df1f9', 'e711fe7f621555c5'),
    'bouquet(0,5) cover n=2': ('664fa56918b2c6f3', '7d41e01ec9f9d0eb'),
    'bouquet(0,5) cover n=5': ('afd5a9ac1dd6a206', '2bdb65c0488abdd2'),
    'C6 x K4': ('9298154fe0ba5384', '44601084bc5e208f'),
}


def test_lanczos_graph_corpus_matches_pinned_and_oracles():
    corpus = _lanczos_graph_corpus()
    assert len(corpus) == len(_CORPUS_DIGESTS)
    for name, g in corpus:
        H, A = hashimoto_matrix(g), adjacency_matrix(g)
        h_poly = charpoly(H, involution=g.involution)
        a_poly = charpoly(A)
        assert (_digest(h_poly), _digest(a_poly)) == _CORPUS_DIGESTS[name], name
        if H.shape[0] <= 20:
            assert h_poly == charpoly_berkowitz(H), name
        if A.shape[0] <= 24:
            assert a_poly == charpoly_berkowitz(A), name
        if regularity(g):
            assert h_poly == hashimoto_char_poly(g)[0], name


def test_c6_box_k4_hashimoto_has_a_jordan_block_at_2():
    g = _c6_box_k4()
    assert regularity(g) == 5
    h_poly = charpoly(hashimoto_matrix(g), involution=g.involution)
    assert h_poly == hashimoto_char_poly(g)[0]
    # mu = 2 is a multiple root of det(mu I - H) ...
    value = sum(c * 2 ** k for k, c in enumerate(h_poly))
    slope = sum(k * c * 2 ** (k - 1) for k, c in enumerate(h_poly) if k)
    assert value == slope == 0
    # ... and H - 2I has a Jordan block: its square has a larger kernel
    N = hashimoto_matrix(g).astype(float) - 2 * np.eye(g.directed_edge_count)
    assert np.linalg.matrix_rank(N @ N) < np.linalg.matrix_rank(N)


def _general_matrices():
    rng = np.random.default_rng(11)
    out = []
    for m in range(1, 13):
        out.append(rng.integers(-6, 7, size=(m, m)))
        out.append((rng.random((m, m)) < 0.2).astype(int))
    for m in (1, 2, 5, 8):
        out.append(np.zeros((m, m), dtype=int))
        out.append(3 * np.eye(m, dtype=int))
        out.append(np.triu(rng.integers(-4, 5, size=(m, m)), 1))     # nilpotent
        out.append(np.eye(m, k=1, dtype=int))                         # one Jordan block at 0
        jordan = 2 * np.eye(m, dtype=int) + np.eye(m, k=1, dtype=int)
        out.append(jordan)
        out.append(np.kron(np.eye(2, dtype=int), jordan))             # two equal blocks
        u, v = rng.integers(-3, 4, size=(2, m))
        out.append(np.outer(u, v))                                    # rank one
        out.append(np.roll(np.eye(m, dtype=int), 1, axis=0))          # cyclic permutation
        out.append(np.triu(rng.integers(-4, 5, size=(m, m))))         # triangular
        c = np.eye(m, k=-1, dtype=int)                                # companion
        c[:, -1] = rng.integers(-5, 6, size=m)
        out.append(c)
    return out


def test_matrices_neither_symmetric_nor_self_adjoint_are_refused():
    matrices = _general_matrices()
    assert len(matrices) >= 60
    refused = 0
    for i, M in enumerate(matrices):
        if np.array_equal(M, M.T):
            assert charpoly(M) == charpoly_berkowitz(M), (i, M)
        else:
            with pytest.raises(ValueError):
                charpoly(M)
            refused += 1
    assert refused >= 40


def _swap_involution(m, fixed):
    """Involutive permutation of range(m) with `fixed` fixed points, the
    rest swapped in shuffled pairs."""
    rng = np.random.default_rng(m * 31 + fixed)
    order = rng.permutation(m)
    J = np.arange(m)
    moved = order[fixed:]
    for a, b in zip(moved[0::2], moved[1::2]):
        J[a], J[b] = b, a
    return J


def _self_adjoint_matrices():
    """S P_J for symmetric S: (S P)^T = P S = P (S P) P.  Low-rank S, and
    S = x x^T with x J-isotropic, which makes S P nilpotent."""
    rng = np.random.default_rng(12)
    out = []
    for m in (2, 3, 4, 6, 9, 12):
        for fixed in (0, m % 2, m):
            if (m - fixed) % 2:
                continue
            J = _swap_involution(m, fixed)
            P = np.eye(m, dtype=int)[J]
            for rank in (0, 1, 2, m):
                X = rng.integers(-3, 4, size=(rank, m))
                out.append((X.T @ X @ P, J))
            firsts = np.flatnonzero(J > np.arange(m))
            if firsts.size:
                # rows supported on one edge of each swapped pair span a
                # J-isotropic space, so S P is nilpotent
                X = np.zeros((2, m), dtype=int)
                X[:, firsts] = rng.integers(1, 4, size=(2, firsts.size))
                out.append((np.outer(X[0], X[0]) @ P, J))
                out.append((X.T @ X @ P, J))
            out.append((np.zeros((m, m), dtype=int), J))
    return out


def test_self_adjoint_low_rank_and_nilpotent():
    cases = _self_adjoint_matrices()
    assert len(cases) >= 50
    for i, (M, J) in enumerate(cases):
        assert np.array_equal(M.T, M[np.ix_(J, J)])
        assert charpoly(M, involution=J) == charpoly_berkowitz(M), (i, M, J)


def test_small_primes_are_dropped_and_results_stay_exact(monkeypatch):
    cases = [(hashimoto_matrix(g), g.involution)
             for _, g in _char_poly_corpus()[:8]]
    cases += [(M + M.T, None) for M in _general_matrices()[:20]]
    expected = [charpoly(M, involution=J) for M, J in cases]
    batches = []
    real = charpoly_mod._lanczos_residues

    def recording(M, J, primes):
        ps, res = real(M, J, primes)
        batches.append((list(primes), ps.tolist()))
        return ps, res

    monkeypatch.setattr(charpoly_mod, "_lanczos_residues", recording)
    monkeypatch.setattr(charpoly_mod, "_PRIMES", [3, 5, 7, 11] + charpoly_mod._PRIMES)
    for (M, J), want in zip(cases, expected):
        assert charpoly(M, involution=J) == want
    assert any(len(kept) < len(batch) for batch, kept in batches)


def _isotropic_draw(rng, J):
    """A J-isotropic draw: nonzero on one index of each swapped pair and
    zero on the fixed points, so <x, x> = sum_i x_i x_J(i) = 0 for every
    prime."""
    x = np.zeros(len(J), dtype=np.int64)
    firsts = np.flatnonzero(J > np.arange(len(J)))
    x[firsts] = rng.integers(1, 1 << 26, size=firsts.size)
    return x


def test_isotropic_start_vector_restarts_the_block(monkeypatch):
    J = np.array([2, 1, 0, 4, 3])
    S = np.array([[1, 2, 0, 1, 0], [2, 0, 3, 0, 1], [0, 3, 2, 1, 4],
                  [1, 0, 1, 1, 2], [0, 1, 4, 2, 0]])
    M = S @ np.eye(5, dtype=int)[J]
    real = charpoly_mod._start_vector
    draws = []

    def counting(rng, n):
        draws.append(n)
        return real(rng, n)

    def first_isotropic(rng, n):
        draws.append(n)
        return _isotropic_draw(rng, J) if len(draws) == 1 else real(rng, n)

    monkeypatch.setattr(charpoly_mod, "_start_vector", counting)
    assert charpoly(M, involution=J) == charpoly_berkowitz(M)
    blocks = len(draws)
    draws.clear()
    monkeypatch.setattr(charpoly_mod, "_start_vector", first_isotropic)
    assert charpoly(M, involution=J) == charpoly_berkowitz(M)
    assert len(draws) == blocks + 1


def test_always_isotropic_draw_raises_after_bounded_restarts(monkeypatch):
    J = np.array([1, 0])
    draws = []

    def always(rng, n):
        draws.append(n)
        return _isotropic_draw(rng, J)

    monkeypatch.setattr(charpoly_mod, "_start_vector", always)
    with pytest.raises(LanczosBreakdown):
        charpoly(np.array([[1, 2], [3, 1]]), involution=J)
    assert len(draws) == charpoly_mod._MAX_RESTARTS + 1


def test_result_does_not_depend_on_the_seed(monkeypatch):
    g = sample_cover(build_bouquet(1, 1), 9, seed=3).total
    H = hashimoto_matrix(g)
    C = np.array([[0, 1, 0], [0, 0, 1], [2, -1, 1]])
    S = C + C.T
    before = charpoly(H, involution=g.involution), charpoly(S)
    for seed in (1, 2, 99):
        monkeypatch.setattr(charpoly_mod, "_SEED", seed)
        assert (charpoly(H, involution=g.involution), charpoly(S)) == before


def test_every_kept_prime_has_exact_residues():
    """Small primes make every breakdown common.  Over such a batch the
    kernel either gives up after its bounded restarts or keeps primes that
    hold det(xI - M) mod p exactly."""
    cases = [(hashimoto_matrix(g), g.involution) for _, g in _char_poly_corpus()[:10]]
    cases += _self_adjoint_matrices()[::4]
    rng = np.random.default_rng(13)
    for m in (2, 4, 7):
        S = rng.integers(-3, 4, size=(m, m))
        cases.append((S + S.T, np.arange(m)))
    dropped = finished = 0
    for i, (M, J) in enumerate(cases):
        exact = charpoly_berkowitz(M)
        for primes in ([3, 5, 7], [5, 7, 11, 13], [11, 13, 17, 19, 23]):
            try:
                ps, res = charpoly_mod._lanczos_residues(M, np.asarray(J), primes)
            except LanczosBreakdown:
                continue
            finished += 1
            dropped += len(primes) - len(ps)
            for p, r in zip(ps.tolist(), res.tolist()):
                assert r == [c % p for c in exact], (i, p)
    assert dropped and finished >= 2 * len(cases)


def test_coefficient_bound_int64_path_matches_python_ints():
    """The int64 squares are taken only when m * max|entry|^2 < 2^63; on
    either side of that boundary the bound equals the Python-int one."""
    rng = np.random.default_rng(14)
    signs = rng.choice([-1, 1], size=(512, 512))
    cases = [
        signs * 2 ** 26,                                    # 2^61 < 2^63: int64
        signs * 2 ** 31,                                    # 2^71: Python ints
        np.full((2, 2), 2 ** 31, dtype=np.int64),           # exactly 2^63: Python ints
        np.array([[2 ** 31]], dtype=np.int64),              # 2^62: int64
        np.array([[-(2 ** 63)]], dtype=np.int64),
        rng.integers(-5, 6, size=(40, 40)),
    ]
    for M in cases:
        M = np.asarray(M, dtype=np.int64)
        assert coefficient_bound(M) == coefficient_bound(M.astype(object)), M.shape


def _bipartite_complete(a, b):
    left, right = np.meshgrid(np.arange(a), a + np.arange(b), indexing="ij")
    return graph_from_pairs(a + b, left.ravel(), right.ravel())


def _cycle(n):
    return graph_from_pairs(n, np.arange(n), (np.arange(n) + 1) % n)


def _cube():
    v = np.arange(8)
    a = np.concatenate([v[v & bit == 0] for bit in (1, 2, 4)])
    return graph_from_pairs(8, a, np.concatenate([a[:4] | 1, a[4:8] | 2, a[8:] | 4]))


def _invariant_corpus():
    """Graphs whose H has a Lanczos block closing inside W (disjoint unions,
    bipartite graphs, cycles), d = 1 and 2, half-loops and whole loops."""
    from conftest import named_corpus

    corpus = list(named_corpus())
    corpus += [
        ("K4 + K4", _disjoint_union(complete_graph(4), complete_graph(4))),
        ("K3,3 + K4", _disjoint_union(_bipartite_complete(3, 3), complete_graph(4))),
        ("K3,3", _bipartite_complete(3, 3)),
        ("cube", _cube()),
        ("C5", _cycle(5)),
        ("C6", _cycle(6)),
        ("C5 + C6", _disjoint_union(_cycle(5), _cycle(6))),
        ("perfect matching", graph_from_pairs(6, [0, 2, 4], [1, 3, 5])),
        ("bouquet(2,1)", build_bouquet(2, 1)),
        ("irregular, half-loops and a whole loop",
         graph_from_pairs(5, [0, 1, 2, 2, 3, 1], [1, 2, 3, 0, 3, 4], half_loops=[0, 4, 4])),
        ("isolated vertex beside a triangle", graph_from_pairs(4, [0, 1, 2], [1, 2, 0])),
    ]
    for n in (3, 6):
        corpus.append((f"bouquet(1,2) cover n={n}",
                       sample_cover(build_bouquet(1, 2), n, seed=n).total))
        corpus.append((f"bouquet(0,3) cover n={n}",
                       sample_cover(build_bouquet(0, 3), n, seed=n).total))
    corpus.append(("perm n=32 d=4", sample_permutation_model(32, 4, seed=1)))
    corpus.append(("bouquet(1,1) cover n=43",
                   sample_cover(build_bouquet(1, 1), 43, seed=1).total))
    return corpus


def _root_multiplicity(poly, x):
    """Multiplicity of x as a root of the integer polynomial poly."""
    k = 0
    while poly and polys.evaluate(poly, x) == 0:
        poly = polys.normalize([i * c for i, c in enumerate(poly)][1:])
        k += 1
    return k


def test_invariant_subspace_route_matches_the_full_space():
    """H's charpoly from Lanczos on W = {f(tail e) + g(head e)} times
    (mu-1)^a (mu+1)^b equals the full-space charpoly (and Berkowitz where
    small); a and b are the corank of the signed and unsigned incidence
    within P_J's -1 and +1 eigenspaces, and the +-1 root multiplicities."""
    for name, g in _invariant_corpus():
        m = g.directed_edge_count
        H = hashimoto_matrix(g)
        full = charpoly(H, involution=g.involution)
        assert zeta_mod._hashimoto_charpoly(g) == full, name
        if m <= 20:
            assert full == charpoly_berkowitz(H), name
        G, a, b = zeta_mod._hashimoto_invariant(g)
        counts = graph_counts(g)
        T, S = G[:, : G.shape[1] // 2], G[:, G.shape[1] // 2:]
        rank = np.linalg.matrix_rank
        assert a == counts.pairs - rank((T - S).astype(float)), name
        assert b == counts.pairs + counts.half_loops - rank((T + S).astype(float)), name
        assert m - a - b == rank(G.astype(float)), name
        up, down = _root_multiplicity(full, 1), _root_multiplicity(full, -1)
        assert up >= a and down >= b, name
        if (regularity(g) or 0) >= 3:
            # the pencil's roots at +-1 are simple and lie on ker [T, S]
            assert (up, down) == (a, b), name


def test_invariant_route_drops_unlucky_small_primes(monkeypatch):
    """Over small primes the form on W degenerates, or a Lanczos vector
    vanishes, for some primes; each kept prime holds the cofactor
    det(xI - H|_W) mod p exactly, and the lifted result stays exact."""
    corpus = _invariant_corpus()
    dropped = finished = 0
    for name, g in corpus[:12]:
        H = hashimoto_matrix(g)
        full = charpoly(H, involution=g.involution)
        G, a, b = zeta_mod._hashimoto_invariant(g)
        quotient = polys.mul(polys.pow_([-1, 1], a), polys.pow_([1, 1], b))
        dim = g.directed_edge_count - a - b
        for primes in ([3, 5, 7], [5, 7, 11, 13], [11, 13, 17, 19, 23]):
            try:
                ps, res = charpoly_mod._lanczos_residues(
                    H, g.involution, primes, gens=G, dim=dim)
            except LanczosBreakdown:
                continue
            finished += 1
            dropped += len(primes) - len(ps)
            for p, r in zip(ps.tolist(), res.tolist()):
                assert polys.normalize([c % p for c in polys.mul(r, quotient)]) == \
                    polys.normalize([c % p for c in full]), (name, p)
    assert dropped and finished
    monkeypatch.setattr(charpoly_mod, "_PRIMES", [3, 5, 7, 11] + charpoly_mod._PRIMES)
    for name, g in corpus:
        expected = charpoly(hashimoto_matrix(g), involution=g.involution)
        assert zeta_mod._hashimoto_charpoly(g) == expected, name


def test_invariant_argument_validation():
    g = petersen_graph()
    H = hashimoto_matrix(g)
    G, a, b = zeta_mod._hashimoto_invariant(g)
    quotient = polys.mul(polys.pow_([-1, 1], a), polys.pow_([1, 1], b))
    with pytest.raises(ValueError):     # not self-adjoint without the involution
        charpoly(H, invariant=(G, quotient))
    with pytest.raises(ValueError):
        charpoly(H, involution=g.involution, invariant=(G, [1, 2]))
    with pytest.raises(ValueError):
        charpoly(H, involution=g.involution, invariant=(G[:-1], quotient))
    with pytest.raises(ValueError):
        charpoly(H, involution=g.involution, invariant=(G * 2 ** 26, quotient))
    with pytest.raises(ValueError):
        charpoly(H, involution=g.involution, invariant=(G.astype(float), quotient))
    # a stated dim W beyond the span of G runs out of start vectors
    with pytest.raises(LanczosBreakdown):
        charpoly(H, involution=g.involution, invariant=(G, quotient[a:]))
    # W = the whole space, spanned by the identity, with nothing to multiply in
    eye = np.eye(H.shape[0], dtype=np.int64)
    assert charpoly(H, involution=g.involution, invariant=(eye, [1])) == \
        charpoly(H, involution=g.involution)
    # W = 0: the quotient is the whole charpoly
    assert charpoly(np.diag([2, 3]), invariant=(np.zeros((2, 1), dtype=int), [6, -5, 1])) \
        == [6, -5, 1]
