import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from nbzeta import (
    ContourSpec,
    InvalidParams,
    TooLarge,
    UncertainCount,
    adjacency_spectrum,
    build_bouquet,
    build_graph,
    classify_non_ramanujan,
    complete_graph,
    contour_pole_count,
    count_adjacency_eigenvalues_geq,
    hashimoto_spectrum,
    new_spectra,
    parse_graph,
    petersen_graph,
    sample_cover,
    sample_matching_model,
    sample_permutation_model,
    sample_single_cycle_model,
    tr_hashimoto_power,
)
from nbzeta import spectra
from nbzeta.graphs import components, graph_from_pairs, regularity
from nbzeta.rng import derive_seed

from conftest import (
    DATA_DIR,
    dense_hashimoto_eigenvalues,
    disjoint_union,
    k5_minus_edge_ring,
    random_regular_corpus,
    two_perm_halves,
)


def _match_multisets(a, b, tol):
    """Greedy nearest matching of two complex multisets."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if len(a) != len(b):
        return False
    if len(a) == 0:
        return True
    dist = np.abs(a[:, None] - b[None, :])
    used = np.zeros(len(b), dtype=bool)
    for i in range(len(a)):
        row = np.where(used, np.inf, dist[i])
        j = int(np.argmin(row))
        if row[j] > tol:
            return False
        used[j] = True
    return True


def test_adjacency_spectrum_named():
    assert np.allclose(adjacency_spectrum(complete_graph(4)), [3, -1, -1, -1])
    assert np.allclose(
        adjacency_spectrum(petersen_graph()), [3, 1, 1, 1, 1, 1, -2, -2, -2, -2]
    )
    assert np.allclose(adjacency_spectrum(build_bouquet(2, 0)), [4])


def test_adjacency_spectrum_accuracy_against_exact_moments():
    # eigenvalues of integer matrices: power sums must hit exact integers
    from nbzeta.graphs import adjacency_matrix

    for g in random_regular_corpus(8, seed=3, max_vertices=24):
        w = adjacency_spectrum(g)
        A = adjacency_matrix(g)
        P = np.eye(g.vertex_count, dtype=np.int64)
        for k in range(1, 5):
            P = P @ A
            exact = int(np.trace(P))
            assert abs(np.sum(w ** k) - exact) < 1e-8 * max(1, abs(exact))


def test_count_geq_named():
    t = 2 * np.sqrt(2)
    assert count_adjacency_eigenvalues_geq(complete_graph(4), t, 1e-9) == 1
    assert count_adjacency_eigenvalues_geq(petersen_graph(), t, 1e-9) == 1
    t = 2 * np.sqrt(3)
    assert count_adjacency_eigenvalues_geq(build_bouquet(2, 0), t, 1e-9) == 1


def test_count_geq_matches_spectrum_random():
    rng = np.random.default_rng(12)
    graphs = random_regular_corpus(25, seed=8, max_vertices=30)
    checked = 0
    for g in graphs:
        w = adjacency_spectrum(g)
        for _ in range(2):
            t = float(rng.uniform(-regularity(g) - 0.5, regularity(g) + 0.5))
            tol = 1e-9
            expected = int(np.sum(w >= t - tol))
            assert count_adjacency_eigenvalues_geq(g, t, tol) == expected
            checked += 1
    assert checked == 50


def test_count_geq_includes_exact_threshold():
    # K4 has eigenvalue 3; counting at t=3 must include it
    g = complete_graph(4)
    assert count_adjacency_eigenvalues_geq(g, 3.0, 1e-12) == 1
    assert count_adjacency_eigenvalues_geq(g, -1.0, 1e-12) == 4


@pytest.mark.parametrize("t, tol", [(2.8, float("nan")), (float("nan"), 1e-9),
                                    (float("inf"), 1e-9)],
                         ids=["nan-tol", "nan-t", "inf-t"])
def test_count_geq_rejects_non_finite_input(monkeypatch, t, tol):
    # a ValueError before any factorization, not a LAPACK breakdown
    def refuse(A, shift):
        raise AssertionError("factorized for a non-finite input")

    monkeypatch.setattr(spectra, "_count_at_or_above", refuse)
    with pytest.raises(ValueError):
        count_adjacency_eigenvalues_geq(complete_graph(4), t, tol)


def test_count_geq_sparse_path(monkeypatch):
    # n below DENSE_EIG_LIMIT, so the first count takes the dense route
    g = sample_permutation_model(3000, 4, seed=2)
    assert g.vertex_count <= spectra.DENSE_EIG_LIMIT
    t = 2 * np.sqrt(3)
    n_dense = count_adjacency_eigenvalues_geq(g, t, 1e-9)
    # force the sparse path with a reduced dense limit
    monkeypatch.setattr(spectra, "DENSE_EIG_LIMIT", 1000)
    n_sparse = count_adjacency_eigenvalues_geq(g, t, 1e-9)
    assert n_dense == n_sparse >= 1


def test_count_geq_sparse_threshold_below_spectrum(monkeypatch):
    # a threshold under the whole spectrum must count all n eigenvalues,
    # which needs the bottom-of-spectrum fallback in the iterative path
    g = sample_permutation_model(120, 4, seed=6)
    monkeypatch.setattr(spectra, "DENSE_EIG_LIMIT", 50)
    assert count_adjacency_eigenvalues_geq(g, -10.0, 1e-9) == 120


@pytest.mark.parametrize("g", [build_bouquet(2, 0), build_bouquet(1, 1)],
                         ids=["bouquet(2,0)", "bouquet(1,1)"])
def test_count_geq_sparse_path_one_vertex(g, monkeypatch):
    # one vertex: no Lanczos (ARPACK needs 0 < k < n), the diagonal entry
    # (4 and 3) is the spectrum; a threshold at that entry counts it
    for t in (2.0, 3.0, 3.5, 4.0, 4.5):
        dense = count_adjacency_eigenvalues_geq(g, t, 1e-9)
        with monkeypatch.context() as patch:
            patch.setattr(spectra, "DENSE_EIG_LIMIT", 0)
            assert count_adjacency_eigenvalues_geq(g, t, 1e-9) == dense
    monkeypatch.setattr(spectra, "DENSE_EIG_LIMIT", 0)
    assert count_adjacency_eigenvalues_geq(g, 3.0, 1e-9) == 1


LANCZOS_CORPUS = {
    **{f"perm-{n}-{seed}": (lambda n=n, seed=seed: sample_permutation_model(n, 4, seed))
       for n in (600, 1000, 2000) for seed in (1, 2)},
    **{f"cover-{name}-{seed}": (lambda base=base, sheets=sheets, seed=seed:
                                sample_cover(base(), sheets, seed).total)
       for name, base, sheets in (("k4", lambda: complete_graph(4), 60),
                                  ("petersen", petersen_graph, 30))
       for seed in (3, 4)},
    **{f"halves-{seed}": (lambda seed=seed: two_perm_halves(300, seed)) for seed in range(10)},
    "witness": lambda: parse_graph((DATA_DIR / "nonramanujan_witness.nbg").read_text()),
}


@pytest.mark.parametrize("name", sorted(LANCZOS_CORPUS))
def test_count_geq_lanczos_matches_dense(name, monkeypatch):
    # the sparse path, forced by a limit below n, against LDL inertia
    g = LANCZOS_CORPUS[name]()
    d = regularity(g)
    n = g.vertex_count
    thresholds = [2 * np.sqrt(d - 1)]
    if name == "witness":
        thresholds += [0.0, -2.0 * d]  # deep walks, then the bottom fallback
    for t in thresholds:
        tol = 1e-9 * d
        dense = count_adjacency_eigenvalues_geq(g, t, tol)
        with monkeypatch.context() as patch:
            patch.setattr(spectra, "DENSE_EIG_LIMIT", n - 1)
            assert count_adjacency_eigenvalues_geq(g, t, tol) == dense
    if name.startswith("halves"):
        assert dense >= 2


@pytest.mark.parametrize("g", [petersen_graph(), sample_permutation_model(600, 4, 1)],
                         ids=["petersen", "perm-600"])
def test_count_geq_lanczos_threshold_at_eigenvalue_is_uncertain(g, monkeypatch):
    # lambda1 = d exactly: no tolerance can move its residual band off t
    d = regularity(g)
    assert adjacency_spectrum(g)[1] < d - 1e-6  # connected
    monkeypatch.setattr(spectra, "DENSE_EIG_LIMIT", g.vertex_count - 1)
    with pytest.raises(UncertainCount) as exc:
        count_adjacency_eigenvalues_geq(g, float(d), 0.0)
    err = exc.value
    assert err.threshold == d
    assert abs(err.theta - d) <= err.residual < 1e-10


class _CountingOperator(spla.LinearOperator):
    """A LinearOperator around a matrix that counts its products, as a
    profiler counting matrix-vector products would wrap the adjacency."""

    def __init__(self, A):
        self._inner = spla.aslinearoperator(A)
        self.products = 0
        super().__init__(dtype=self._inner.dtype, shape=self._inner.shape)

    def _matvec(self, x):
        self.products += 1
        return self._inner.matvec(x)


@pytest.mark.parametrize("g", [sample_permutation_model(500, 4, 7),
                               two_perm_halves(250, 3), build_bouquet(2, 0)],
                         ids=["perm-500", "halves", "bouquet(2,0)"])
def test_top_eigenvalues_through_a_linear_operator(g, monkeypatch):
    # adjacency_sparse swapped for a one-argument function returning a
    # LinearOperator: both rungs, and the one-vertex entry, take only
    # products from it and return the same values bit for bit
    t = 2 * np.sqrt(3)
    plain = spectra.top_adjacency_eigenvalues(g, t, seed=7)
    operators = []
    original = spectra.adjacency_sparse

    def counting(h):
        operators.append(_CountingOperator(original(h)))
        return operators[-1]

    monkeypatch.setattr(spectra, "adjacency_sparse", counting)
    counted = spectra.top_adjacency_eigenvalues(g, t, seed=7)
    assert np.array_equal(plain, counted)
    if g.vertex_count > 1:
        assert operators[0].products > 0


def _refuse_eigsh(*args, **kw):
    raise AssertionError("eigsh called")


@pytest.mark.parametrize("seed", range(3))
def test_plain_lanczos_rung_is_taken(seed, monkeypatch):
    # a connected perm sample is counted by the plain rung, never eigsh
    g = sample_permutation_model(1500, 4, seed)
    t = 2 * np.sqrt(3) - 4e-9
    assert components(g)[0] == 1
    dense = count_adjacency_eigenvalues_geq(g, t, 0.0)
    monkeypatch.setattr(spectra, "DENSE_EIG_LIMIT", g.vertex_count - 1)
    monkeypatch.setattr(spectra.spla, "eigsh", _refuse_eigsh)
    assert count_adjacency_eigenvalues_geq(g, t, 0.0) == dense


PLAIN_CORPUS = {
    **{f"{name}-{seed}": (lambda model=model, seed=seed: model(1200, 4, seed))
       for name, model in (("perm", sample_permutation_model),
                           ("cycle", sample_single_cycle_model))
       for seed in (1, 2)},
    **{f"match-{seed}": (lambda seed=seed: sample_matching_model(1200, 3, seed))
       for seed in (1, 2)},
    **{f"cover-{name}-{seed}": (lambda base=base, sheets=sheets, seed=seed:
                                sample_cover(base(), sheets, seed).total)
       for name, base, sheets in (("k4", lambda: complete_graph(4), 300),
                                  ("petersen", petersen_graph, 120))
       for seed in (1, 2)},
}


@pytest.mark.parametrize("name", sorted(PLAIN_CORPUS))
def test_plain_lanczos_accuracy(name, monkeypatch):
    # plain Lanczos keeps ghost copies of converged values (here the perm,
    # cycle and match graphs stop with 3-5 copies in the window); every
    # copy goes into the Rayleigh-Ritz step, so lambda1 = d to 1e-8 and
    # lambda2 is that of the dense spectrum to 1e-6
    g = PLAIN_CORPUS[name]()
    d = regularity(g)
    t = 2 * np.sqrt(d - 1) - 1e-9 * d
    dense = adjacency_spectrum(g)
    assert components(g)[0] == 1
    monkeypatch.setattr(spectra.spla, "eigsh", _refuse_eigsh)
    vals = spectra.top_adjacency_eigenvalues(g, t)
    assert np.sum(vals >= t) == np.sum(dense >= t)
    assert abs(vals[0] - d) <= 1e-8
    assert abs(vals[1] - dense[1]) <= 1e-6


DISCONNECTED = {
    # a 49-vertex component and a vertex with two loops: eigsh found one
    # copy of lambda = 4 for every seed and counted 2 against a dense 3
    "isolated-vertex": lambda: sample_permutation_model(50, 4, derive_seed(3, 23)),
    **{f"halves-300-{seed}": (lambda seed=seed: two_perm_halves(300, seed))
       for seed in range(10)},
    **{f"perm-300-{i}": (lambda i=i: sample_permutation_model(300, 4, derive_seed(77, i)))
       for i in (64, 551, 1540)},
}


def _dense_count(g, t, tol):
    """count_adjacency_eigenvalues_geq on the dense route."""
    assert g.vertex_count <= spectra.DENSE_EIG_LIMIT
    return count_adjacency_eigenvalues_geq(g, t, tol)


@pytest.mark.parametrize("name", sorted(DISCONNECTED))
def test_disconnected_graph_counted_by_the_plain_rung(name, monkeypatch):
    # lambda = d once per component: the components are deflated, their
    # copies of d come from the quotient, and the plain rung counts the rest
    g = DISCONNECTED[name]()
    assert components(g)[0] > 1
    t = 2 * np.sqrt(3) - 4e-9
    dense = _dense_count(g, t, 0.0)
    if name == "isolated-vertex":
        assert dense == 3
    monkeypatch.setattr(spectra, "DENSE_EIG_LIMIT", 10)
    monkeypatch.setattr(spectra.spla, "eigsh", _refuse_eigsh)
    assert count_adjacency_eigenvalues_geq(g, t, 0.0) == dense


def test_two_large_halves_counted_by_the_plain_rung(monkeypatch):
    # 6000 vertices: the exact count is that of the halves, each dense
    g = two_perm_halves(3000, 1)
    t = 2 * np.sqrt(3) - 4e-9
    dense = sum(_dense_count(sample_permutation_model(3000, 4, seed), t, 0.0)
                for seed in (1, 2))
    monkeypatch.setattr(spectra, "DENSE_EIG_LIMIT", 10)
    monkeypatch.setattr(spectra.spla, "eigsh", _refuse_eigsh)
    vals = spectra.top_adjacency_eigenvalues(g, t)
    assert np.sum(vals >= t) == dense >= 2
    assert vals[0] == vals[1] == 4.0


@pytest.mark.parametrize("name", ["isolated-vertex", "halves-300-7", "perm-300-1540"])
def test_disconnected_graph_deep_thresholds(name, monkeypatch):
    # thresholds at and below 0: eigsh takes the count, and must not count
    # the deflated cell-constant vectors, which it sees below the spectrum
    g = DISCONNECTED[name]()
    for t in (0.0, -2.0, -10.0):
        dense = _dense_count(g, t, 4e-9)
        with monkeypatch.context() as patch:
            patch.setattr(spectra, "DENSE_EIG_LIMIT", 10)
            assert count_adjacency_eigenvalues_geq(g, t, 4e-9) == dense
    assert dense == g.vertex_count


def test_disconnected_irregular_graph_counts_shared_copies(monkeypatch):
    # two copies of an irregular graph (a perm sample with a pendant path):
    # its components are no equitable cells and every eigenvalue is double,
    # so eigsh, not the one-start rung, takes the count
    g = sample_permutation_model(300, 4, 5)
    h = graph_from_pairs(303, np.append(g.tails[::2], [0, 300, 301]),
                         np.append(g.heads[::2], [300, 301, 302]))
    g = disjoint_union(h, h)
    t = adjacency_spectrum(g)[0] - 1e-3
    dense = _dense_count(g, t, 0.0)
    monkeypatch.setattr(spectra, "DENSE_EIG_LIMIT", 10)
    assert count_adjacency_eigenvalues_geq(g, t, 0.0) == dense == 2


def _theta():
    """Two vertices joined by three edges: 3-regular, cycle rank 2."""
    return graph_from_pairs(2, [0, 0, 0], [1, 1, 1])


DISCONNECTED_COVERS = {
    # (base, sheets, seed, values at or above 2 sqrt 2, eigsh refused)
    "k4-2-0": (complete_graph(4), 2, 0, 2, True),
    "petersen-2-61": (petersen_graph(), 2, 61, 2, True),
    # a walk space with a multiple eigenvalue: here the 3-sheet component
    # has 1 four times and -2 twice on the vectors summing to zero on
    # every cell, so the Krylov space closes before it fills them, and
    # eigsh takes the count; the small totals below all do
    "petersen-4-138": (petersen_graph(), 4, 138, 3, False),
    "petersen-3-44": (petersen_graph(), 3, 44, 2, False),
    "k4-3-1": (complete_graph(4), 3, 1, 2, False),
    "k4-4-19": (complete_graph(4), 4, 19, 2, False),
    # 2 and 2998 vertices
    "theta-1500-377": (_theta(), 1500, 377, 2, True),
}


@pytest.mark.parametrize("name", sorted(DISCONNECTED_COVERS))
def test_disconnected_cover_total(name, monkeypatch):
    # the total carries each base eigenvalue once per component: its
    # (component, fibre) cells are deflated and their values come from the
    # quotient; the count at 2 sqrt 2 and at deep thresholds is dense's
    base, sheets, seed, above, refuse = DISCONNECTED_COVERS[name]
    c = sample_cover(base, sheets, seed)
    assert components(c.total)[0] > 1
    t = 2 * np.sqrt(2) - 3e-9
    assert _dense_count(c.total, t, 0.0) == above
    with monkeypatch.context() as patch:
        if refuse:
            patch.setattr(spectra.spla, "eigsh", _refuse_eigsh)
        vals = spectra.top_adjacency_eigenvalues(c, t)
    assert np.sum(vals >= t) == above
    assert abs(vals[0] - 3.0) < 1e-12 and abs(vals[1] - 3.0) < 1e-12
    if c.total.vertex_count > 40:
        return
    dense = adjacency_spectrum(c.total)
    assert np.allclose(vals, dense[:len(vals)], atol=1e-8)
    for t in (0.0, -2.0, -10.0):
        vals = spectra.top_adjacency_eigenvalues(c, t - 3e-9)
        assert np.sum(vals >= t - 3e-9) == np.sum(dense >= t - 3e-9)


_BLAS_PROBE = """
import numpy as np
from conftest import two_perm_halves
from nbzeta import sample_cover, spectra
from nbzeta.graphs import graph_from_pairs
theta = graph_from_pairs(2, [0, 0, 0], [1, 1, 1])
for g, t in ((two_perm_halves(3000, 1), 2 * np.sqrt(3)),
             (sample_cover(theta, 1500, 377), 2 * np.sqrt(2))):
    print(repr(spectra.top_adjacency_eigenvalues(g, t - 4e-9).tolist()))
"""


def test_disconnected_top_values_do_not_depend_on_blas_threads():
    # a census on the pool runs one BLAS thread per worker, and workers=1
    # the caller's; a disconnected graph and a disconnected cover total
    # give the same bits either way.  OpenBLAS reads its thread count when
    # it loads, so each count gets a fresh interpreter
    tests = Path(__file__).parent
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
        outputs.append(subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env,
                                      capture_output=True, text=True, check=True).stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 2


def test_hashimoto_spectrum_k4():
    mu = hashimoto_spectrum(complete_graph(4))
    s7 = np.sqrt(7)
    expected = (
        [2, 1, 1, 1, -1, -1]
        + [complex(-0.5, s7 / 2)] * 3
        + [complex(-0.5, -s7 / 2)] * 3
    )
    assert _match_multisets(expected, mu, tol=1e-8)


def test_hashimoto_spectrum_bouquets():
    mu = hashimoto_spectrum(build_bouquet(2, 0))
    assert _match_multisets([3, 1, 1, -1], mu, tol=1e-8)
    mu = hashimoto_spectrum(build_bouquet(0, 3))
    assert _match_multisets([2, -1, -1], mu, tol=1e-8)


def test_hashimoto_direct_vs_ihara_corpus():
    # spec invariant: multiset agreement on 100 random graphs, |V| <= 40
    for g in random_regular_corpus(100, seed=21, max_vertices=40):
        direct = dense_hashimoto_eigenvalues(g)
        ihara = hashimoto_spectrum(g)
        assert len(direct) == len(ihara) == g.directed_edge_count
        assert _match_multisets(direct, ihara, tol=1e-8)


def test_hashimoto_direct_vs_ihara_half_loops():
    # regular graphs with half-loops: odd-degree covers of half-loop bouquets
    graphs = [build_bouquet(0, 3), build_bouquet(1, 1)]
    for seed in range(4):
        graphs.append(sample_cover(build_bouquet(0, 3), 5, seed=seed).total)
        graphs.append(sample_cover(build_bouquet(1, 2), 7, seed=seed).total)
    for g in graphs:
        direct = dense_hashimoto_eigenvalues(g)
        ihara = hashimoto_spectrum(g)
        assert len(direct) == len(ihara) == g.directed_edge_count
        assert _match_multisets(direct, ihara, tol=1e-8)


def test_spectrum_power_sums_match_traces():
    from conftest import named_corpus

    graphs = [g for _, g in named_corpus()]
    graphs += random_regular_corpus(10, seed=31, max_vertices=16)
    for g in graphs:
        mu = hashimoto_spectrum(g)
        for k in range(1, 7):
            exact = tr_hashimoto_power(g, k)
            approx = np.sum(mu ** k)
            assert abs(approx.imag) < 1e-6 * max(1, abs(exact))
            assert abs(approx.real - exact) < 1e-6 * max(1, abs(exact))


def test_classify_named_ramanujan():
    for g in (complete_graph(4), petersen_graph()):
        nr = classify_non_ramanujan(g)
        assert nr.is_ramanujan
        assert (nr.h_positive, nr.h_negative, nr.a_positive, nr.a_negative) == (0, 0, 0, 0)


def test_classify_witness(witness_graph):
    nr = classify_non_ramanujan(witness_graph)
    assert nr.a_positive >= 1
    assert nr.h_positive == 2 * nr.a_positive
    assert not nr.is_ramanujan
    # independent check through the dense adjacency spectrum
    w = adjacency_spectrum(witness_graph)
    lo, hi = 2 * np.sqrt(3), 4
    assert nr.a_positive == int(np.sum((w > lo + 1e-7) & (w < hi - 1e-7)))


def test_classify_rejects_degree_zero():
    # 2*sqrt(d-1) has no real value at d = 0
    with pytest.raises(InvalidParams, match="d >= 1"):
        classify_non_ramanujan(parse_graph("nbgraph v1\n3 0\n"))


def test_h_equals_2a_on_half_loop_free_samples():
    for g in random_regular_corpus(20, seed=41, max_vertices=24):
        nr = classify_non_ramanujan(g)
        assert nr.h_positive == 2 * nr.a_positive
        assert nr.h_negative == 2 * nr.a_negative


def test_new_spectra_identity_cover():
    base = build_bouquet(2, 0)
    cover = sample_cover(base, 1, seed=0)
    new_adj, new_hsh = new_spectra(cover)
    assert len(new_adj) == 0 and len(new_hsh) == 0


def test_new_spectra_forced_swap():
    base = build_bouquet(2, 0)
    for seed in range(300):
        cover = sample_cover(base, 2, seed=seed)
        from nbzeta.graphs import adjacency_matrix

        if adjacency_matrix(cover.total).tolist() == [[0, 4], [4, 0]]:
            break
    new_adj, _ = new_spectra(cover)
    assert np.allclose(new_adj, [-4])


def test_new_spectra_sizes_and_top_removal():
    base = build_bouquet(2, 0)
    for n, seed in [(3, 5), (6, 9)]:
        cover = sample_cover(base, n, seed=seed)
        new_adj, new_hsh = new_spectra(cover)
        assert len(new_adj) == (n - 1) * base.vertex_count
        assert len(new_hsh) == (n - 1) * base.directed_edge_count
        # the base Perron value 4 is removed exactly once per base vertex
        assert np.sum(np.isclose(new_adj, 4.0, atol=1e-8)) == np.sum(
            np.isclose(adjacency_spectrum(cover.total), 4.0, atol=1e-8)
        ) - 1


def _k4_minus_edge():
    # irregular: degrees 3, 3, 2, 2
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    edges, inv = [], []
    for i, (a, b) in enumerate(pairs):
        edges += [(a, b), (b, a)]
        inv += [2 * i + 1, 2 * i]
    return build_graph(4, edges, inv)


def test_only_irregular_graphs_build_hashimoto(monkeypatch, witness_graph):
    built = []
    real = spectra.hashimoto_matrix

    def counting(g):
        built.append(g)
        return real(g)

    monkeypatch.setattr(spectra, "hashimoto_matrix", counting)
    hashimoto_spectrum(witness_graph)
    classify_non_ramanujan(witness_graph)
    contour_pole_count(witness_graph, ContourSpec(eps=0.35, delta=0.02))
    new_spectra(sample_cover(complete_graph(4), 5, seed=3))
    assert built == []
    cover = sample_cover(_k4_minus_edge(), 3, seed=5)
    new_spectra(cover)
    assert built == [cover.total]


def _multiset_difference(total, base, tol_scale=1e-6):
    """Greedy nearest-match removal of base values from total: the new
    spectrum of a cover as it was computed before fibre projection."""
    rem = list(total)
    for b in base:
        dist = [abs(v - b) for v in rem]
        best = int(np.argmin(dist))
        assert dist[best] <= tol_scale * max(1.0, abs(b)), f"{b} unmatched"
        rem.pop(best)
    return rem


def _greedy_new_spectra(c):
    new_adj = sorted(
        _multiset_difference(adjacency_spectrum(c.total), adjacency_spectrum(c.base)),
        reverse=True,
    )
    new_hsh = _multiset_difference(
        hashimoto_spectrum(c.total), hashimoto_spectrum(c.base)
    )
    return np.asarray(new_adj), np.asarray(new_hsh, dtype=complex)


def _cover_bases():
    return [complete_graph(4), petersen_graph(), build_bouquet(2, 0),
            build_bouquet(0, 3), build_bouquet(1, 1), build_bouquet(0, 1),
            _k4_minus_edge()]


def test_new_spectra_matches_greedy_matching():
    # bouquet(0, 3) at even n loses all three half-loops (-1 multiplicity
    # below zero); bouquet(0, 1) is 1-regular; K4 minus an edge is irregular
    checked = 0
    for base in _cover_bases():
        for n in (1, 2, 3, 4, 5, 7):
            for seed in range(3):
                cover = sample_cover(base, n, seed)
                new_adj, new_hsh = new_spectra(cover)
                ref_adj, ref_hsh = _greedy_new_spectra(cover)
                assert len(new_adj) == len(ref_adj) == (n - 1) * base.vertex_count
                assert np.all(np.diff(new_adj) <= 0)
                assert np.allclose(new_adj, ref_adj, rtol=0, atol=1e-9)
                assert len(new_hsh) == (n - 1) * base.directed_edge_count
                assert _match_multisets(new_hsh, ref_hsh, tol=1e-9)
                checked += 1
    assert checked == 126


def _relabel(cover, seed):
    """The same covering map with its total vertices and directed edges
    renamed by random permutations, so fibres are no longer contiguous."""
    from nbzeta.models import CoveringMap, validate_cover

    rng = np.random.default_rng(seed)
    total = cover.total
    p = rng.permutation(total.vertex_count)  # vertex v becomes p[v]
    q = rng.permutation(total.directed_edge_count)  # edge e becomes q[e]
    edges = np.empty((len(q), 2), dtype=np.int64)
    edges[q] = np.stack([p[total.tails], p[total.heads]], axis=-1)
    inv = np.empty_like(q)
    inv[q] = q[total.involution]
    vertex_map = np.empty_like(cover.vertex_map)
    vertex_map[p] = cover.vertex_map
    edge_map = np.empty_like(cover.edge_map)
    edge_map[q] = cover.edge_map
    relabelled = CoveringMap(
        base=cover.base, total=build_graph(total.vertex_count, edges, inv),
        vertex_map=vertex_map, edge_map=edge_map, degree=cover.degree,
    )
    assert validate_cover(relabelled)
    assert np.any(np.diff(edge_map) < 0)
    assert cover.base.vertex_count == 1 or np.any(np.diff(vertex_map) < 0)
    return relabelled


def test_new_spectra_fibres_need_not_be_contiguous():
    for base in (complete_graph(4), build_bouquet(0, 3), _k4_minus_edge()):
        cover = sample_cover(base, 4, seed=2)
        adj, hsh = new_spectra(cover)
        relabelled_adj, relabelled_hsh = new_spectra(_relabel(cover, seed=7))
        assert np.allclose(adj, relabelled_adj, rtol=0, atol=1e-9)
        assert _match_multisets(hsh, relabelled_hsh, tol=1e-9)


def test_new_spectra_trace_identity():
    bases = [build_bouquet(2, 0), build_bouquet(0, 3), complete_graph(4),
             _k4_minus_edge()]
    for base in bases:
        cover = sample_cover(base, 4, seed=17)
        _, new_hsh = new_spectra(cover)
        for k in range(1, 9):
            lhs = np.sum(new_hsh ** k)
            rhs = tr_hashimoto_power(cover.total, k) - tr_hashimoto_power(base, k)
            assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))


def test_dense_limit_guard(monkeypatch):
    """Every dense guard reads DENSE_EIG_LIMIT when called: n for the
    adjacency and regular routes, m for an irregular graph's H and for a
    cover of an irregular base; each passes at its size and raises
    TooLarge one below it."""
    from nbzeta import evaluate_L

    regular = sample_permutation_model(50, 4, seed=1)
    irregular = _k4_minus_edge()
    regular_cover = sample_cover(complete_graph(4), 3, seed=1)
    irregular_cover = sample_cover(irregular, 3, seed=1)
    cases = [
        (adjacency_spectrum, regular, regular.vertex_count),
        (hashimoto_spectrum, regular, regular.vertex_count),
        (hashimoto_spectrum, irregular, irregular.directed_edge_count),
        (classify_non_ramanujan, regular, regular.vertex_count),
        (lambda g: evaluate_L(g, 0.3 + 0.1j), regular, regular.vertex_count),
        (new_spectra, regular_cover, regular_cover.total.vertex_count),
        (new_spectra, irregular_cover, irregular_cover.total.directed_edge_count),
    ]
    for call, arg, size in cases:
        monkeypatch.setattr(spectra, "DENSE_EIG_LIMIT", size)
        call(arg)
        monkeypatch.setattr(spectra, "DENSE_EIG_LIMIT", size - 1)
        with pytest.raises(TooLarge):
            call(arg)
