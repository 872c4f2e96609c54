import numpy as np
import pytest

from nbzeta import TooLarge, hashimoto_char_poly
from nbzeta.charpoly import charpoly, charpoly_berkowitz, coefficient_bound
from nbzeta import polys
from nbzeta import build_bouquet, complete_graph

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
