import numpy as np
import pytest

import nbzeta.zeta as zeta_mod
from nbzeta import TooLarge, hashimoto_char_poly
from nbzeta.charpoly import charpoly, charpoly_berkowitz, coefficient_bound
from nbzeta import polys
from nbzeta import (
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
from nbzeta.graphs import regularity

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
        assert charpoly(M) == charpoly_berkowitz(M), f"trial {trial}"


def test_charpoly_matches_berkowitz_hashimoto_texture():
    rng = np.random.default_rng(4)
    for trial in range(6):
        m = int(rng.integers(2, 24))
        M = (rng.random((m, m)) < 0.15).astype(int)
        assert charpoly(M) == charpoly_berkowitz(M)


def test_coefficient_bound_dominates():
    rng = np.random.default_rng(1)
    for _ in range(8):
        m = int(rng.integers(1, 12))
        M = rng.integers(-4, 5, size=(m, m))
        bound = coefficient_bound(M)
        coeffs = charpoly(M)
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
        direct = charpoly(hashimoto_matrix(g))
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
