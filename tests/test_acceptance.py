"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 6c (single-cycle model, n=100) asserts the published table value
band faithfully; the uniform single-cycle model measurably does not
reproduce that entry (see the analysis in the project notes), so that one
test is expected to stay red.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from nbzeta import (
    CensusConfig,
    ContourSpec,
    NearContourPole,
    cP0_residues,
    classify_non_ramanujan,
    complete_graph,
    contour_pole_count,
    count_adjacency_eigenvalues_geq,
    count_closed_nb_walks,
    estimate_expected_trace,
    evaluate_L,
    evaluate_e,
    exact_expected_trace_small,
    graph_counts,
    hashimoto_char_poly,
    integrate_circle,
    minus_zeta_log_derivative,
    parse_graph,
    run_census,
    spectrum_report,
    tr_hashimoto_power,
    verify_ihara,
)
from nbzeta import polys
from nbzeta.graphs import regularity
from nbzeta.spectra import default_tolerances

from conftest import (
    DATA_DIR,
    dense_hashimoto_eigenvalues,
    named_corpus,
    random_regular_corpus,
)

# the two heavy censuses (6b dense, 6d Lanczos) run on the census process
# pool, one BLAS thread per worker; the records are the same as with one
# worker, only sooner
SMOKE_WORKERS = 2


def _report(criterion, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_ihara_identity_exact():
    t0 = time.time()
    for name, g in named_corpus():
        assert verify_ihara(g).holds, name
    graphs = random_regular_corpus(100, seed=2026)
    assert all(g.vertex_count <= 40 for g in graphs)
    assert {regularity(g) for g in graphs} == {3, 4, 6}
    for g in graphs:
        assert verify_ihara(g).holds
    elapsed = time.time() - t0
    _report(
        "criterion 1 (Ihara identity, exact)",
        elapsed < 10.0,
        f"named + 100 random graphs coefficient-exact in {elapsed:.1f}s",
    )


def test_criterion_2_k4_golden_values():
    g = complete_graph(4)
    traces = [tr_hashimoto_power(g, k) for k in range(1, 5)]
    oracle = [count_closed_nb_walks(g, k) for k in range(1, 5)]
    expected_poly = polys.mul(
        polys.mul([1, -1], [1, -2]),
        polys.mul(polys.pow_([1, 1, 2], 3), polys.pow_([1, 0, -1], 2)),
    )
    _, u_poly = hashimoto_char_poly(g)
    ok = traces == [0, 0, 24, 24] == oracle and u_poly == expected_poly
    _report(
        "criterion 2 (K4 golden values)",
        ok,
        f"Tr(H^1..4) = {traces}, det(I-uH) matches the factored form exactly",
    )


def test_criterion_3_log_derivative_identity():
    g = complete_graph(4)
    L2 = evaluate_L(g, 2)
    e2 = evaluate_e(4, 3, 2)
    z2 = minus_zeta_log_derivative(g, 2)
    exact_ok = (
        L2 == Fraction(344, 55)
        and e2 == Fraction(8, 15)
        and z2 == Fraction(224, 33)
        and L2 + e2 == z2
    )

    rng = np.random.default_rng(300)
    graphs = [
        g2
        for _, g2 in named_corpus()
        if regularity(g2) >= 3 and graph_counts(g2).half_loops == 0
    ]
    graphs += random_regular_corpus(8, seed=301, max_vertices=16)
    worst = 0.0
    checked = 0
    while checked < 20:
        gg = graphs[checked % len(graphs)]
        u = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(u) <= 1.2:
            continue
        d = regularity(gg)
        lhs = evaluate_L(gg, u) + evaluate_e(gg.vertex_count, d, u)
        mu = dense_hashimoto_eigenvalues(gg)
        mu = mu[np.abs(mu) > 1e-12]
        rhs = complex(np.sum(1.0 / (u - 1.0 / mu)))
        rel = abs(lhs - rhs) / max(1.0, abs(rhs))
        worst = max(worst, rel)
        checked += 1
    _report(
        "criterion 3 (logarithmic-derivative identity)",
        exact_ok and worst <= 1e-9,
        f"K4 exact values hold; worst relative error over 20 points {worst:.2e}",
    )


def test_criterion_4_contour_spectrum_agreement():
    cases = 0
    worst = 0.0
    specs = [
        ContourSpec(eps=0.2, delta=0.05, sign=+1),
        ContourSpec(eps=0.2, delta=0.05, sign=-1),
        ContourSpec(eps=0.35, delta=0.02, sign=+1),
    ]
    corpus = [(n, g) for n, g in named_corpus() if regularity(g) >= 3]
    corpus += [("rand", g) for g in random_regular_corpus(10, seed=44, max_vertices=20)]
    witness_nonzero = False
    for name, g in corpus:
        for spec in specs:
            try:
                cc = contour_pole_count(g, spec)
            except NearContourPole:
                continue
            err = abs(cc.numeric - cc.exact)
            worst = max(worst, err)
            cases += 1
            if name == "witness" and cc.exact > 0:
                witness_nonzero = True
            assert err <= 1e-6, (name, spec, cc)
    _report(
        "criterion 4 (contour vs spectrum counts)",
        cases >= 20 and witness_nonzero and worst <= 1e-6,
        f"{cases} admissible contours, worst |numeric-exact| {worst:.2e}, "
        f"witness nonzero case exercised: {witness_nonzero}",
    )


@pytest.mark.parametrize("d", [4, 6, 10])
def test_criterion_5_cp0_residue(d):
    rep = cP0_residues(d)
    r = (d - 1) ** -0.5
    radius = 0.35 * (r - rep.remainder_radius)
    val = integrate_circle(rep.function, r, radius)
    err = abs(val - 0.5)
    _report(
        f"criterion 5 (divisor-sum residue, d={d})",
        err <= 1e-6,
        f"residue at +(d-1)^(-1/2): {val.real:.8f} (|err| = {err:.2e})",
    )


def test_criterion_6a_perm_n100():
    res = run_census(
        CensusConfig(model="perm", d=4, n=100, samples=2000, master_seed=88)
    )
    ok = abs(res.mean - 1.2681) <= 0.05
    _report(
        "criterion 6a (perm model, n=100 vs published 1.2681 +- 0.05)",
        ok,
        f"mean {res.mean:.4f}, stderr {res.stderr:.4f}, {res.samples} samples",
    )


def test_criterion_6b_perm_n1000():
    res = run_census(
        CensusConfig(model="perm", d=4, n=1000, samples=500, master_seed=89,
                     workers=SMOKE_WORKERS)
    )
    ok = abs(res.mean - 1.2258) <= 0.08
    _report(
        "criterion 6b (perm model, n=1000 vs published 1.2258 +- 0.08)",
        ok,
        f"mean {res.mean:.4f}, stderr {res.stderr:.4f}, {res.samples} samples",
    )


def test_criterion_6c_cycle_n100():
    # Faithful to the stated criterion.  Two independent samplers of the
    # uniform single-cycle model put this mean near 1.05, far below the
    # published 1.1268; the published small-n entries are not reproducible
    # under the model as defined, so this assertion is expected to fail.
    res = run_census(
        CensusConfig(model="cycle", d=4, n=100, samples=2000, master_seed=90)
    )
    ok = abs(res.mean - 1.1268) <= 0.05
    _report(
        "criterion 6c (cycle model, n=100 vs published 1.1268 +- 0.05)",
        ok,
        f"mean {res.mean:.4f}, stderr {res.stderr:.4f}, {res.samples} samples "
        "(known spec/paper discrepancy; see decisions ledger)",
    )


def test_criterion_6d_smoke_n100000():
    res = run_census(
        CensusConfig(model="perm", d=4, n=100_000, samples=20, master_seed=91,
                     workers=SMOKE_WORKERS)
    )
    ok = 1.0 <= res.mean <= 1.4 and res.failures == 0
    _report(
        "criterion 6d (smoke, perm n=100000, 20 samples, mean in [1.0, 1.4])",
        ok,
        f"mean {res.mean:.4f}, stderr {res.stderr:.4f}",
    )


def test_criterion_7_oracle_equivalence():
    worst = 0.0
    for k in range(1, 5):
        est = estimate_expected_trace("perm", 2, 4, k, samples=10_000,
                                      master_seed=92)
        exact = float(exact_expected_trace_small(2, 4, k))
        band = 5 * max(est.stderr, 1e-12)
        gap = abs(est.mean - exact)
        worst = max(worst, gap / band if band else 0.0)
        assert gap <= band, (k, est.mean, exact)
    _report(
        "criterion 7 (Monte Carlo vs exact enumeration, n=2, k<=4)",
        True,
        f"all k within 5*stderr (worst gap/band ratio {worst:.2f})",
    )


def test_criterion_8_non_ramanujan_structure():
    corpus = random_regular_corpus(15, seed=50, max_vertices=24)
    witness = parse_graph((DATA_DIR / "nonramanujan_witness.nbg").read_text())
    corpus.append(witness)
    for g in corpus:
        d = regularity(g)
        report = spectrum_report(g)
        nr = classify_non_ramanujan(report)
        assert nr.h_positive == 2 * nr.a_positive
        assert nr.h_negative == 2 * nr.a_negative
        # count_geq consistency at the census threshold
        _, st, tol = default_tolerances(d)
        t = 2 * math.sqrt(d - 1)
        w = report.adjacency_eigenvalues
        n_thr = int(np.sum((w >= t - tol) & (w <= t + st)))
        n_top = int(np.sum(w >= d - st))
        assert count_adjacency_eigenvalues_geq(g, t, tol) == (
            nr.a_positive + n_thr + n_top
        )
    # contour consistency on the witness: the eps=0.35 rectangle holds the
    # scaled images of exactly the smaller non-Ramanujan pair
    cc = contour_pole_count(witness, ContourSpec(eps=0.35, delta=0.02, sign=+1))
    nr = classify_non_ramanujan(spectrum_report(witness))
    ok = cc.exact == 2 and abs(cc.numeric - cc.exact) <= 1e-6 and nr.h_positive == 4
    _report(
        "criterion 8 (non-Ramanujan structure: h = 2a, mutual consistency)",
        ok,
        f"{len(corpus)} samples; witness h+ = {nr.h_positive}, "
        f"contour pair count = {cc.exact}",
    )


def test_criterion_9_determinism(tmp_path):
    cfg = dict(model="perm", d=4, n=30, master_seed=93)
    p1, p2, p3 = (tmp_path / f"{x}.csv" for x in "abc")
    run_census(CensusConfig(samples=40, **cfg), out_path=p1)
    run_census(CensusConfig(samples=40, **cfg), out_path=p2)
    run_census(CensusConfig(samples=80, **cfg), out_path=p3)
    identical = p1.read_bytes() == p2.read_bytes()
    short = p1.read_text().splitlines()
    long = p3.read_text().splitlines()
    prefix = long[: len(short)] == short
    _report(
        "criterion 9 (byte-identical reruns; prefix extension)",
        identical and prefix,
        f"rerun identical: {identical}, 2S extends S: {prefix}",
    )
