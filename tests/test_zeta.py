from fractions import Fraction

import numpy as np
import pytest

from nbzeta import (
    ContourSpec,
    IdentityViolation,
    NearContourPole,
    NearPole,
    TooLarge,
    build_bouquet,
    build_graph,
    cP0_residues,
    complete_graph,
    contour_pole_count,
    e_rational,
    essential_log_derivative_coeffs,
    evaluate_L,
    evaluate_e,
    hashimoto_char_poly,
    integrate_circle,
    minus_zeta_log_derivative,
    sample_cover,
    sample_permutation_model,
    verify_ihara,
)
from nbzeta import polys
from nbzeta.graphs import regularity

from conftest import dense_hashimoto_eigenvalues, named_corpus, random_regular_corpus


def _series_coeffs_of_rational(num, den, count):
    """Oracle: power-series coefficients of num(v)/den(v) with den[0] != 0,
    by exact long division (Fractions)."""
    num = [Fraction(c) for c in num] + [Fraction(0)] * count
    den = [Fraction(c) for c in den]
    out = []
    state = list(num[:count])
    for j in range(count):
        c = state[j] / den[0]
        out.append(c)
        for i, dc in enumerate(den):
            if j + i < count:
                state[j + i] -= c * dc
    return out


def test_verify_ihara_named_corpus():
    for name, g in named_corpus():
        report = verify_ihara(g)
        assert report.holds, name


def test_verify_ihara_random_sample():
    for g in random_regular_corpus(15, seed=2):
        assert verify_ihara(g).holds


def test_verify_ihara_half_loop_covers():
    from nbzeta import sample_cover

    for seed in range(3):
        total = sample_cover(build_bouquet(0, 3), 5, seed=seed).total
        assert verify_ihara(total).holds
        total = sample_cover(build_bouquet(1, 2), 5, seed=seed).total
        assert verify_ihara(total).holds


def test_verify_ihara_half_loop_cleared_form():
    # bouquet(0,1): det(mu I - H) = mu, and the identity is checked with
    # denominators cleared, so the recorded sides are mu * (mu^2 - 1)
    g = build_graph(1, [(0, 0)], [0])
    report = verify_ihara(g)
    assert report.holds
    assert report.lhs == polys.mul([0, 1], [-1, 0, 1])


def test_verify_ihara_detects_violations(monkeypatch):
    import nbzeta.zeta as zeta_mod

    real = zeta_mod._quadratic_pencil_det

    def corrupted(adj_poly, n, c):
        out = list(real(adj_poly, n, c))
        out[0] += 1
        return out

    monkeypatch.setattr(zeta_mod, "_quadratic_pencil_det", corrupted)
    with pytest.raises(IdentityViolation) as exc:
        verify_ihara(complete_graph(4))
    assert exc.value.lhs is not None and exc.value.rhs is not None
    assert exc.value.lhs != exc.value.rhs


def test_verify_ihara_independent_of_char_poly_route(monkeypatch):
    import nbzeta.zeta as zeta_mod

    real_char_poly = zeta_mod.hashimoto_char_poly

    def corrupted(g, **kwargs):
        mu_poly, u_poly = real_char_poly(g, **kwargs)
        return [mu_poly[0] + 1] + mu_poly[1:], u_poly

    monkeypatch.setattr(zeta_mod, "hashimoto_char_poly", corrupted)
    assert verify_ihara(complete_graph(4)).holds

    shapes = []
    real = zeta_mod.charpoly

    def recording(M, **kw):
        shapes.append(M.shape)
        return real(M, **kw)

    monkeypatch.setattr(zeta_mod, "charpoly", recording)
    for g in (complete_graph(4), build_bouquet(0, 3)):
        shapes.clear()
        assert verify_ihara(g).holds
        m = g.directed_edge_count
        assert shapes.count((m, m)) == 1, shapes


def _flip_graphs():
    from nbzeta import petersen_graph

    g = sample_permutation_model(32, 4, seed=1)
    assert g.directed_edge_count == 128
    return [complete_graph(4), petersen_graph(), g]


@pytest.mark.parametrize("entry", ["diagonal", "off-diagonal"])
def test_flipped_hashimoto_entry_violates_the_identity(monkeypatch, entry):
    import nbzeta.zeta as zeta_mod

    real = zeta_mod.hashimoto_matrix

    def flipped(g):
        H = real(g)
        j = 0 if entry == "diagonal" else H.shape[0] - 1
        H[0, j] ^= 1
        return H

    for g in _flip_graphs():
        assert verify_ihara(g).holds
        monkeypatch.setattr(zeta_mod, "hashimoto_matrix", flipped)
        with pytest.raises(IdentityViolation):
            verify_ihara(g)
        monkeypatch.setattr(zeta_mod, "hashimoto_matrix", real)


def test_flipped_adjacency_pair_violates_the_identity(monkeypatch):
    import nbzeta.zeta as zeta_mod

    real = zeta_mod.adjacency_matrix

    def flipped(g):
        A = real(g)
        A[0, 1] ^= 1
        A[1, 0] ^= 1
        return A

    for g in _flip_graphs():
        hashimoto_char_poly(g)
        assert verify_ihara(g).holds
        monkeypatch.setattr(zeta_mod, "adjacency_matrix", flipped)
        with pytest.raises(IdentityViolation):
            verify_ihara(g)
        monkeypatch.setattr(zeta_mod, "adjacency_matrix", real)
        assert verify_ihara(g).holds


def test_one_adjacency_charpoly_per_graph(monkeypatch):
    """hashimoto_char_poly then verify_ihara: one n x n and one m x m
    charpoly; the memo never serves one graph's A to another."""
    import nbzeta.zeta as zeta_mod

    shapes = []
    real = zeta_mod.charpoly

    def recording(M, **kw):
        shapes.append(M.shape)
        return real(M, **kw)

    zeta_mod._cached_charpoly.cache_clear()
    monkeypatch.setattr(zeta_mod, "charpoly", recording)
    for g in (complete_graph(4), sample_permutation_model(32, 4, seed=3),
              sample_cover(build_bouquet(1, 1), 43, seed=2).total):
        n, m = g.vertex_count, g.directed_edge_count
        shapes.clear()
        hashimoto_char_poly(g)
        assert verify_ihara(g).holds
        assert sorted(shapes) == sorted([(n, n), (m, m)]), shapes

    pair = [sample_permutation_model(32, 4, seed=s) for s in (4, 5)]
    expected = []
    for g in pair:
        zeta_mod._cached_charpoly.cache_clear()
        expected.append(hashimoto_char_poly(g))
    assert expected[0] != expected[1]
    for i in range(6):
        assert hashimoto_char_poly(pair[i % 2]) == expected[i % 2]
        assert verify_ihara(pair[i % 2]).holds
        assert hashimoto_char_poly(pair[i % 2]) == expected[i % 2]


def test_regular_route_bounds_vertices_not_edges():
    from nbzeta.traces import tr_hashimoto_power

    g = sample_permutation_model(160, 4, seed=1)
    m = g.directed_edge_count
    assert m == 640
    mu_poly, u_poly = hashimoto_char_poly(g)
    assert len(mu_poly) == m + 1 and mu_poly[-1] == 1
    assert u_poly == polys.reciprocal(mu_poly, degree=m)
    # Newton's identities: k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i
    p = [None] + [tr_hashimoto_power(g, k) for k in range(1, 5)]
    e = [1]
    for k in range(1, 5):
        s = sum((-1) ** (i - 1) * e[k - i] * p[i] for i in range(1, k + 1))
        assert s % k == 0
        e.append(s // k)
    assert [mu_poly[m - k] for k in range(1, 5)] == [(-1) ** k * e[k] for k in range(1, 5)]
    # the exact branch of evaluate_L follows the same bound
    exact = evaluate_L(g, 3)
    assert isinstance(exact, Fraction)
    assert abs(float(exact) - evaluate_L(g, 3.0)) < 1e-9 * abs(float(exact))
    with pytest.raises(TooLarge):
        verify_ihara(g)
    with pytest.raises(TooLarge):
        hashimoto_char_poly(sample_permutation_model(513, 4, seed=1))


def test_exact_limit_guards(monkeypatch):
    """Each exact guard reads EXACT_CHARPOLY_LIMIT when called: charpoly's
    rows, n on the regular route, m on H's route (irregular graphs and
    verify_ihara); each passes at its size and raises TooLarge one below."""
    import nbzeta.charpoly as charpoly_mod
    import nbzeta.zeta as zeta_mod
    from nbzeta import adjacency_matrix
    from nbzeta.charpoly import charpoly
    from nbzeta.graphs import graph_from_pairs

    regular = sample_permutation_model(6, 4, seed=1)
    irregular = graph_from_pairs(4, [0, 0, 0, 1, 1], [1, 2, 3, 2, 3])
    assert regularity(irregular) is None
    A = adjacency_matrix(regular)
    cases = [
        (charpoly_mod, lambda: charpoly(A), regular.vertex_count),
        (zeta_mod, lambda: hashimoto_char_poly(regular), regular.vertex_count),
        (zeta_mod, lambda: hashimoto_char_poly(irregular), irregular.directed_edge_count),
        (zeta_mod, lambda: verify_ihara(regular), regular.directed_edge_count),
    ]
    for module, call, size in cases:
        monkeypatch.setattr(module, "EXACT_CHARPOLY_LIMIT", size)
        call()
        monkeypatch.setattr(module, "EXACT_CHARPOLY_LIMIT", size - 1)
        with pytest.raises(TooLarge):
            call()
        monkeypatch.undo()


def test_essential_series_examples():
    s = essential_log_derivative_coeffs(complete_graph(4), 3)
    assert list(s.coefficients) == [12, 0, 0, 3]

    s = essential_log_derivative_coeffs(build_bouquet(2, 0), 2)
    assert list(s.coefficients) == [4, Fraction(4, 3), Fraction(4, 3)]

    s = essential_log_derivative_coeffs(build_bouquet(0, 1), 5)
    assert list(s.coefficients) == [1, 0, 0, 0, 0, 0]


def test_essential_series_bound():
    # |c_k| <= |V| d (d-1)^(k-1) (d-1)^(-k) = |V| d/(d-1)
    for g in random_regular_corpus(8, seed=6, max_vertices=16):
        d = regularity(g)
        s = essential_log_derivative_coeffs(g, 6)
        bound = Fraction(g.vertex_count * d, d - 1)
        assert all(abs(c) <= bound for c in s.coefficients[1:])
        assert s.coefficients[0] == g.directed_edge_count


def test_evaluate_L_exact_values():
    assert evaluate_L(complete_graph(4), 2) == Fraction(344, 55)
    assert evaluate_L(build_bouquet(2, 0), 2) == Fraction(92, 35)
    # d = 1: H = 0, so L(u) = m/u with m = 1 directed edge
    assert evaluate_L(build_bouquet(0, 1), 2) == Fraction(1, 2)


def test_evaluate_L_float_matches_exact():
    g = complete_graph(4)
    assert abs(evaluate_L(g, 2.0) - 344 / 55) < 1e-10
    assert abs(evaluate_L(build_bouquet(0, 1), 2.0) - 0.5) < 1e-15


def test_evaluate_L_large_u_limit():
    for name, g in named_corpus()[:4]:
        u = 1e8
        val = evaluate_L(g, u)
        assert abs(u * val - g.directed_edge_count) < 1e-5


def test_evaluate_L_near_pole_raises():
    g = complete_graph(4)
    with pytest.raises(NearPole):
        evaluate_L(g, 1)  # mu = d-1 = 2 maps to pole u = 1
    with pytest.raises(NearPole):
        evaluate_L(g, 0.5 + 1e-14)
    for u in (0, 0.0):  # the exact and the float branch
        with pytest.raises(NearPole):
            evaluate_L(build_bouquet(0, 1), u)


def test_e_rational_value_and_poles():
    e = e_rational(4, 3)
    assert e(2) == Fraction(8, 15)
    assert evaluate_e(4, 3, 2) == Fraction(8, 15)
    assert set(e.poles) == {1, -1, Fraction(1, 2), Fraction(-1, 2)}


def test_e_rational_raises_near_pole_at_its_poles():
    for n, d in [(4, 3), (5, 4)]:
        e = e_rational(n, d)
        for u in e.poles:
            with pytest.raises(NearPole):
                e(u)
            with pytest.raises(NearPole):
                e(complex(u))
        assert e(2) == evaluate_e(n, d, 2)


def test_e_series_matches_closed_form():
    # closed form as a ratio in v = 1/u:
    #   e = n(d-2) (1-a) v^3 / ((1-v^2)(1-a v^2)),  a = (d-1)^(-2)
    for n, d in [(4, 3), (1, 4), (7, 6)]:
        a = Fraction(1, (d - 1) ** 2)
        num = [0, 0, 0, n * (d - 2) * (1 - a)]
        den = polys.mul([1, 0, -1], [1, 0, -a])
        series = _series_coeffs_of_rational(num, den, 14)
        e = e_rational(n, d)
        for k in range(13):
            assert series[k + 1] == e.series_coefficient(k), (n, d, k)


def test_e_residue_at_one_is_minus_chi():
    # residue of e at u=1 equals -chi = n(d-2)/2
    for n, d in [(4, 3), (10, 4), (5, 6)]:
        e = e_rational(n, d)
        r = 1e-7
        vals = [
            e(1 + r * np.exp(2j * np.pi * t / 64)) * r * np.exp(2j * np.pi * t / 64)
            for t in range(64)
        ]
        residue = np.sum(vals) / 64
        assert abs(residue - n * (d - 2) / 2) < 1e-5


def test_log_derivative_identity_exact_k4():
    g = complete_graph(4)
    total = evaluate_L(g, 2) + evaluate_e(4, 3, 2)
    assert total == Fraction(224, 33)
    assert minus_zeta_log_derivative(g, 2) == Fraction(224, 33)


def _minus_zeta_logderiv_by_spectrum(g, u):
    mu = dense_hashimoto_eigenvalues(g)
    mu = mu[np.abs(mu) > 1e-12]
    return np.sum(1.0 / (u - 1.0 / mu))


def test_log_derivative_identity_random_points():
    # the L + e split is defined for half-loop-free regular graphs
    from nbzeta import graph_counts

    rng = np.random.default_rng(100)
    graphs = [
        g
        for _, g in named_corpus()
        if regularity(g) >= 3 and graph_counts(g).half_loops == 0
    ]
    graphs += random_regular_corpus(6, seed=14, max_vertices=14)
    checked = 0
    while checked < 20:
        g = graphs[checked % len(graphs)]
        u = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(u) <= 1.2:
            continue
        d = regularity(g)
        lhs = evaluate_L(g, u) + evaluate_e(g.vertex_count, d, u)
        rhs = _minus_zeta_logderiv_by_spectrum(g, u)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
        checked += 1


def test_L_residue_at_one_is_one_for_connected():
    # simple pole at u=1 with residue 1: mu = d-1 is a simple root of the
    # Hashimoto charpoly for connected regular graphs
    for name, g in named_corpus():
        d = regularity(g)
        mu_poly, _ = hashimoto_char_poly(g)
        assert polys.evaluate(mu_poly, d - 1) == 0, name
        assert polys.evaluate(polys.derivative(mu_poly), d - 1) != 0, name


def test_contour_k4_zero_case():
    g = complete_graph(4)
    cc = contour_pole_count(g, ContourSpec(eps=0.2, delta=0.05, sign=+1))
    assert cc.exact == 0
    assert abs(cc.numeric) <= 1e-6


def test_contour_bouquet_zero_case():
    g = build_bouquet(2, 0)
    cc = contour_pole_count(g, ContourSpec(eps=0.2, delta=0.05, sign=+1))
    assert cc.exact == 0
    assert abs(cc.numeric) <= 1e-6


def test_contour_k4_nonzero_case():
    # eps = 0.35 brackets the triple pole at u = 1/2 (from mu = 1)
    g = complete_graph(4)
    cc = contour_pole_count(g, ContourSpec(eps=0.35, delta=0.05, sign=+1))
    assert cc.exact == 3
    assert abs(cc.numeric - cc.exact) <= 1e-6


def test_contour_negative_side():
    g = complete_graph(4)
    cc = contour_pole_count(g, ContourSpec(eps=0.35, delta=0.05, sign=-1))
    assert cc.exact == 2  # mu = -1 doubles at u = -1/2
    assert abs(cc.numeric - cc.exact) <= 1e-6


def test_contour_witness_nonzero(witness_graph):
    d = regularity(witness_graph)
    poles = dense_hashimoto_eigenvalues(witness_graph) / (d - 1)
    spec = ContourSpec(eps=0.35, delta=0.02, sign=+1)
    cc = contour_pole_count(witness_graph, spec)
    sq = np.sqrt(d - 1.0)
    x0, x1 = (1 - spec.eps) / sq, (1 + spec.eps) / sq
    expected = int(
        np.sum(
            (poles.real > x0) & (poles.real < x1) & (np.abs(poles.imag) < spec.delta)
        )
    )
    assert cc.exact == expected >= 1
    assert abs(cc.numeric - cc.exact) <= 1e-6


@pytest.mark.parametrize("spec", [
    ContourSpec(float("nan"), 0.05),
    ContourSpec(0.2, float("inf")),
    ContourSpec(0.0, 0.05),
    ContourSpec(0.2, -0.05),
    ContourSpec(0.2, 0.05, sign=5),
    ContourSpec(0.2, 0.05, sign=0),
    ContourSpec(0.2, 0.05, quadrature_points=0),
    ContourSpec(0.2, 0.05, quadrature_points=-4),
    ContourSpec(0.2, 0.05, quadrature_points=2.5),
], ids=["nan-eps", "inf-delta", "zero-eps", "negative-delta", "sign-5", "sign-0",
        "points-0", "points-negative", "points-fractional"])
def test_contour_rejects_a_bad_spec_before_the_poles(monkeypatch, spec):
    import nbzeta.zeta as zeta_mod

    def refuse(g):
        raise AssertionError("poles computed for a bad spec")

    monkeypatch.setattr(zeta_mod, "_scaled_poles", refuse)
    with pytest.raises(ValueError):
        contour_pole_count(complete_graph(4), spec)


@pytest.mark.parametrize("clearance", [float("nan"), -1.0, float("inf")],
                         ids=["nan", "negative", "inf"])
def test_contour_rejects_a_bad_pole_clearance_before_the_poles(monkeypatch, clearance):
    # the left side runs through the triple pole at u = 1/2 of K4
    import nbzeta.zeta as zeta_mod

    def refuse(g):
        raise AssertionError("poles computed for a bad pole_clearance")

    monkeypatch.setattr(zeta_mod, "_scaled_poles", refuse)
    spec = ContourSpec(1 - 0.5 * np.sqrt(2), 0.05)
    with pytest.raises(ValueError):
        contour_pole_count(complete_graph(4), spec, pole_clearance=clearance)


def test_contour_near_pole_raises():
    g = complete_graph(4)
    eps_on_pole = 1 - 0.5 * np.sqrt(2)  # left side exactly at u = 1/2
    with pytest.raises(NearContourPole):
        contour_pole_count(g, ContourSpec(eps=eps_on_pole, delta=0.05, sign=+1))


def test_contour_default_clearance_never_answers_wrong():
    # with the default arguments a count is right to 1e-6 or refused; an
    # absolute clearance of 1e-9 let poles within a few quadrature steps of
    # a side through with errors up to 5e-2
    specs = [
        ContourSpec(0.2, 0.3, +1, 512),
        ContourSpec(0.2, 0.05, +1, 512),
        ContourSpec(0.35, 0.02, -1, 512),
    ]
    counted = 0
    for n in (16, 24, 32):
        for seed in range(60):
            g = sample_permutation_model(n, 4, seed)
            for spec in specs:
                try:
                    cc = contour_pole_count(g, spec)
                except NearContourPole:
                    continue
                assert abs(cc.numeric - cc.exact) <= 1e-6, (n, seed, spec, cc)
                counted += 1
    assert counted >= 500


def test_cp0_report_values():
    rep = cP0_residues(4)
    assert rep.poles[0] == 1.0
    assert np.isclose(rep.poles[1], 3 ** -0.5)
    assert rep.residues == (1.0, 0.5, 0.5)
    assert np.isclose(rep.remainder_radius, 3 ** (-2 / 3))
    rep10 = cP0_residues(10)
    assert np.isclose(rep10.poles[1], 1 / 3)
    assert np.isclose(rep10.poles[2], -1 / 3)


@pytest.mark.parametrize("d", [4, 6, 10])
def test_cp0_residue_numeric(d):
    rep = cP0_residues(d)
    r = (d - 1) ** -0.5
    radius = 0.35 * (r - rep.remainder_radius)
    val = integrate_circle(rep.function, r, radius)
    assert abs(val - 0.5) <= 1e-8
    val_neg = integrate_circle(rep.function, -r, radius)
    assert abs(val_neg - 0.5) <= 1e-8


def test_cp0_residue_at_one():
    rep = cP0_residues(4)
    val = integrate_circle(rep.function, 1.0, 0.05)
    assert abs(val - 1.0) <= 1e-8


def test_cp0_series_consistency():
    # the generating function must reproduce its defining series: compare
    # full evaluation against a direct divisor-sum partial sum at large |u|
    from nbzeta.traces import p0_divisor_sum

    for d in (4, 6):
        rep = cP0_residues(d)
        u = 2.5
        direct = sum(
            u ** (-1 - k) * p0_divisor_sum(k, d) * (d - 1) ** (-k)
            for k in range(1, 120)
        )
        assert abs(rep.function(u) - direct) < 1e-12


def _cp0_remainder_double_loop(d, u, terms=200):
    """Reference: the divisor tail recomputed term by term at every u."""
    acc = 0.0 + 0.0j
    for k in range(1, terms + 1):
        tail = sum((d - 1) ** kp for kp in range(1, k // 3 + 1) if k % kp == 0)
        acc += u ** (-1 - k) * tail * (d - 1) ** (-k)
    return acc - 2.0 / u


@pytest.mark.parametrize("d", [4, 6, 10])
def test_cp0_remainder_matches_double_loop(d):
    gen = cP0_residues(d).function
    rho = (d - 1) ** (-2.0 / 3.0)
    for scale in (1.05, 1.3, 2.0, 5.0):
        for angle in np.linspace(0.0, 2 * np.pi, 13)[:-1]:
            u = scale * rho * np.exp(1j * angle)
            ref = _cp0_remainder_double_loop(d, u)
            assert abs(gen.remainder(u) - ref) <= 1e-12 * max(1.0, abs(ref)), (scale, angle)


def test_cp0_remainder_large_d():
    # (d-1)^k' overflows a float here; the tail coefficients t_k (d-1)^(-k)
    # do not.  Only k = 3 matters at 1e-15: t_3 = d-1, so the tail is
    # 2^-4 (d-1)^-2.
    d = 10**5
    gen = cP0_residues(d).function
    assert abs(gen.remainder(2.0) - (-1.0 + 1.0 / (16 * (d - 1) ** 2))) < 1e-15
