"""The benchmark's workloads: seeded inputs, one op, and output checks.

An op is the unit a user waits on: one census of ``samples_per_op`` samples,
one Monte Carlo trace estimate, or one pair of corpus graphs taken through
the ``nbzeta zeta`` sequence.  Inputs come from the benchmark seed only; the
program sees master seeds and graphs, never the benchmark seed.

Every call into nbzeta goes through the module attribute (``nb_census.
run_census``), so the tracer's wrappers are the names it sees.
"""

import hashlib
import math
import random

import numpy as np
import scipy.sparse as sp

from nbzeta import census as nb_census
from nbzeta import graphs as nb_graphs
from nbzeta import models as nb_models
from nbzeta import polys as nb_polys
from nbzeta import rng as nb_rng
from nbzeta import spectra as nb_spectra
from nbzeta import traces as nb_traces
from nbzeta import zeta as nb_zeta

LAMBDA1_TOL = 1e-8
CONTOUR_TOL = 1e-6


def _derived(*parts):
    """63-bit integer from the benchmark seed and an op label."""
    digest = hashlib.sha256("/".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _pairs_text(vertex_count, pairs):
    """nbgraph v1 text with both orientations of each (a, b) pair."""
    lines = ["nbgraph v1", f"{vertex_count} {2 * len(pairs)}"]
    for k, (a, b) in enumerate(pairs):
        lines.append(f"{a} {b} {2 * k + 1}")
        lines.append(f"{b} {a} {2 * k}")
    return "\n".join(lines) + "\n"


K4_TEXT = _pairs_text(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
K4_COUNT = 1   # K4's adjacency spectrum {3, -1, -1, -1}: one value >= 2*sqrt(2)


def hashimoto_reference(g):
    """Hashimoto matrix H (int64 CSR), built here with numpy, independent
    of nbzeta.graphs."""
    tails, heads, inv = g.tails, g.heads, g.involution
    m = len(tails)
    order = np.argsort(tails, kind="stable")
    start = np.searchsorted(tails[order], np.arange(g.vertex_count + 1))
    out_deg = start[heads + 1] - start[heads]
    rows = np.repeat(np.arange(m), out_deg)
    offset = np.arange(rows.size) - np.repeat(np.cumsum(out_deg) - out_deg, out_deg)
    cols = order[start[heads][rows] + offset]
    keep = cols != inv[rows]
    return sp.csr_matrix(
        (np.ones(int(keep.sum()), dtype=np.int64), (rows[keep], cols[keep])),
        shape=(m, m),
    )


def nb_trace_reference(g, k):
    """Tr(H^k) on hashimoto_reference(g), independent of nbzeta.traces."""
    H = hashimoto_reference(g)
    a = k // 2
    Pa = H
    for _ in range(a - 1):
        Pa = Pa @ H
    Pb = Pa if k % 2 == 0 else Pa @ H
    return int(Pa.multiply(Pb.T).sum())


class Census:
    """run_census over one model; counts and lambda1 checked per sample."""

    uses_workers = True
    golden_ops = 1
    cross_checked = 0   # leading samples per op recounted by cross_count

    def __init__(self, name, seed, model, d, n, samples, base_text=None):
        self.name, self.seed = name, seed
        self.model, self.d, self.n = model, d, n
        self.samples_per_op = samples
        self.base_text = base_text

    def op_input(self, i):
        return _derived(self.name, self.seed, i)

    def run(self, master_seed, workers):
        config = nb_census.CensusConfig(
            model=self.model, d=self.d, n=self.n,
            samples=self.samples_per_op, master_seed=master_seed,
            base_graph_text=self.base_text, workers=workers,
        )
        return nb_census.run_census(config)

    def check(self, i, master_seed, result):
        """Number of failed samples of op i, and a note for each failure."""
        notes = []
        bad = result.failures
        if result.failures:
            notes.append(f"{result.failures} census failures")
        missing = self.samples_per_op - len(result.records) - result.failures
        if missing:
            notes.append(f"{missing} samples missing")
            bad += missing
        for rec in result.records:
            ok = (
                isinstance(rec.count, int) and rec.count >= 0
                and abs(rec.lambda1 - self.d) <= LAMBDA1_TOL
            )
            if ok and rec.sample < self.cross_checked:
                ok = rec.count == self.cross_count(rec.seed)
            if not ok:
                bad += 1
                notes.append(f"sample {rec.sample}: count={rec.count} lambda1={rec.lambda1!r}")
        return bad, notes

    def golden(self, result):
        return [rec.count for rec in result.records]

    def fingerprint(self, result):
        return [
            (r.sample, r.seed, r.count, repr(r.lambda1), repr(r.lambda2))
            for r in result.records
        ], result.failures


class CoverCensus(Census):
    """Cover census whose first samples per op are recounted on another
    path: LDL inertia of the total graph's adjacency minus the base's own
    count."""

    cross_checked = 2

    def cross_count(self, sample_seed):
        base = nb_graphs.parse_graph(self.base_text)
        total = nb_models.sample_cover(base, self.n, sample_seed).total
        threshold = 2 * math.sqrt(self.d - 1)
        tol = 1e-9 * self.d
        return nb_spectra.count_adjacency_eigenvalues_geq(total, threshold, tol) - K4_COUNT


class TracesMC:
    """estimate_expected_trace on the perm model; the first value of every
    CROSS_EVERY-th op is recomputed by nb_trace_reference."""

    uses_workers = False
    golden_ops = 1
    CROSS_EVERY = 4   # a recount costs about a third of an op

    def __init__(self, name, seed, n, samples, d=4, k=4):
        self.name, self.seed = name, seed
        self.n, self.d, self.k = n, d, k
        self.samples_per_op = samples

    def op_input(self, i):
        return _derived(self.name, self.seed, i)

    def run(self, master_seed, workers):
        return nb_traces.estimate_expected_trace(
            "perm", self.n, self.d, self.k, self.samples_per_op, master_seed
        )

    def check(self, i, master_seed, est):
        values = list(est.values)
        notes = []
        bad = max(self.samples_per_op - len(values), 0)
        if bad:
            notes.append(f"{bad} trace values missing")
        for j, v in enumerate(values):
            ok = isinstance(v, int) and v >= 0
            if ok and j == 0 and i % self.CROSS_EVERY == 0:
                g = nb_models.sample_permutation_model(
                    self.n, self.d, nb_rng.derive_seed(master_seed, 0)
                )
                ok = v == nb_trace_reference(g, self.k)
            if not ok:
                bad += 1
                notes.append(f"trace value {j}: {v!r}")
        return bad, notes

    def golden(self, est):
        return list(est.values)

    def fingerprint(self, est):
        return list(est.values)


class ZetaExact:
    """A corpus of pairs: a perm d=4 graph (no half-loops) and a cover of
    the bouquet with one whole-loop and one half-loop (3-regular, one
    half-loop upstairs).  Each graph is taken through the ``nbzeta zeta``
    sequence.  Pairing keeps every op the same mix of both Ihara branches.
    """

    uses_workers = False
    golden_ops = 2
    samples_per_op = 2
    SERIES_K = 8
    CONTOUR = (0.2, 0.3, +1, 512)
    CLEARANCE_STEPS = 3   # the rule is off by about exp(-2 pi steps): 7e-9 at 3

    def __init__(self, name, seed, perm_n, cover_n):
        self.name, self.seed = name, seed
        self.perm_n, self.cover_n = perm_n, cover_n
        self.graphs_checked = self.contours_refused = 0

    def rectangle(self, d):
        """(x0, x1, y0, y1) of the contour in the mu/(d-1) plane, and the
        pole clearance asked of contour_pole_count: CLEARANCE_STEPS
        quadrature steps of the longer side.  Closer poles leave the
        512-point rule off by up to 1e-3 (README, Findings)."""
        eps, delta, sign, points = self.CONTOUR
        x0, x1 = (1 - eps) / math.sqrt(d - 1), (1 + eps) / math.sqrt(d - 1)
        if sign < 0:
            x0, x1 = -x1, -x0
        step = max(x1 - x0, 2 * delta) / points
        return (x0, x1, -delta, delta), self.CLEARANCE_STEPS * step

    def op_input(self, i):
        r = random.Random(_derived(self.name, self.seed, i))
        n, c = self.perm_n, self.cover_n
        return (
            perm_graph(n, [_shuffled(r, n) for _ in range(2)]),
            _bouquet_cover(c, _shuffled(r, c), _shuffled(r, c)),
        )

    def run(self, graphs, workers):
        return [self._zeta(g) for g in graphs]

    def _zeta(self, g):
        mu_poly, u_poly = nb_zeta.hashimoto_char_poly(g)
        mu_text = nb_polys.to_decimal_strings(mu_poly)
        nb_polys.to_decimal_strings(u_poly)
        report = nb_zeta.verify_ihara(g)
        series = nb_zeta.essential_log_derivative_coeffs(g, self.SERIES_K)
        d = g.directed_edge_count // g.vertex_count
        _, clearance = self.rectangle(d)
        try:
            cc = nb_zeta.contour_pole_count(
                g, nb_zeta.ContourSpec(*self.CONTOUR), pole_clearance=clearance)
            numeric, exact = cc.numeric, cc.exact
        except nb_zeta.NearContourPole:
            numeric = exact = None
        return {
            "m": g.directed_edge_count, "d": d, "mu": mu_text, "holds": report.holds,
            "c0": series.coefficients[0], "numeric": numeric, "exact": exact,
        }

    def nearest_pole_distance(self, g, d):
        """Distance from the contour to the nearest mu/(d-1), mu over the
        eigenvalues of hashimoto_reference(g)."""
        (x0, x1, y0, y1), _ = self.rectangle(d)
        poles = np.linalg.eigvals(hashimoto_reference(g).toarray().astype(float)) / (d - 1)
        dx = np.maximum.reduce([x0 - poles.real, np.zeros(poles.size), poles.real - x1])
        dy = np.maximum.reduce([y0 - poles.imag, np.zeros(poles.size), poles.imag - y1])
        inside = np.minimum.reduce([poles.real - x0, x1 - poles.real,
                                    poles.imag - y0, y1 - poles.imag])
        outside = (dx > 0) | (dy > 0)
        return float(np.where(outside, np.hypot(dx, dy), inside).min())

    def check(self, i, graphs, outs):
        bad, notes = 0, []
        for j, out in enumerate(outs):
            why = []
            if out["holds"] is not True:
                why.append("Ihara identity does not hold")
            self.graphs_checked += 1
            if out["exact"] is None:
                # refused: right only if a pole is within the clearance
                self.contours_refused += 1
                _, clearance = self.rectangle(out["d"])
                dist = self.nearest_pole_distance(graphs[j], out["d"])
                if not dist < clearance * (1 + 1e-6):
                    why.append(f"contour refused, nearest pole {dist:.3e} "
                               f"beyond clearance {clearance:.3e}")
            elif not abs(out["numeric"] - out["exact"]) < CONTOUR_TOL:
                why.append(f"contour {out['numeric']!r} vs exact {out['exact']}")
            if out["c0"] != out["m"]:
                why.append(f"series c0 = {out['c0']} != m = {out['m']}")
            if len(out["mu"]) != out["m"] + 1 or out["mu"][-1] != "1":
                why.append("charpoly of H is not monic of degree m")
            bad += bool(why)
            notes += [f"graph {j}: {w}" for w in why]
        return bad, notes

    def golden(self, outs):
        return [hashlib.sha256(",".join(out["mu"]).encode()).hexdigest() for out in outs]

    def summary(self):
        return [f"contours refused near a pole: {self.contours_refused} "
                f"of {self.graphs_checked} graphs checked"]

    def fingerprint(self, outs):
        return [(o["mu"], o["holds"], o["c0"], repr(o["numeric"]), o["exact"]) for o in outs]


def _shuffled(r, n):
    items = list(range(n))
    r.shuffle(items)
    return items


def perm_graph(n, perms):
    """Edge {i, pi(i)} per permutation and index, both orientations."""
    edges, inv = [], []
    for pi in perms:
        for i in range(n):
            k = len(edges)
            edges += [(i, pi[i]), (pi[i], i)]
            inv += [k + 1, k]
    return nb_graphs.build_graph(n, edges, inv)


def _bouquet_cover(n, order_a, order_b):
    """Degree-n (n odd) cover of one vertex carrying a whole-loop and a
    half-loop.  The whole-loop lifts through the permutation order_a; the
    half-loop through the involution that fixes order_b[0] (a half-loop
    upstairs) and pairs the rest of order_b two by two."""
    pi = order_a
    pi_inv = [0] * n
    for i, x in enumerate(pi):
        pi_inv[x] = i
    match = list(range(n))
    for j in range(1, n, 2):
        a, b = order_b[j], order_b[j + 1]
        match[a], match[b] = b, a
    edges, inv = [], []
    for i in range(n):                      # loop, forward: e = i
        edges.append((i, pi[i]))
        inv.append(n + pi[i])
    for j in range(n):                      # loop, backward: e = n + j
        edges.append((j, pi_inv[j]))
        inv.append(pi_inv[j])
    for i in range(n):                      # half-loop: e = 2n + i
        edges.append((i, match[i]))
        inv.append(2 * n + match[i])
    return nb_graphs.build_graph(n, edges, inv)


SIZES = {
    # name: (full parameters, tiny parameters for the smoke test)
    "census-perm": (dict(n=10_000, samples=4), dict(n=4200, samples=2)),
    "census-cover": (dict(n=50, samples=4), dict(n=10, samples=2)),
    "traces-mc": (dict(n=10_000, samples=2), dict(n=300, samples=2)),
    "zeta-exact": (dict(perm_n=32, cover_n=43), dict(perm_n=8, cover_n=11)),
}


def make(name, seed, tiny=False):
    params = SIZES[name][1 if tiny else 0]
    if name == "census-perm":
        return Census(name, seed, "perm", 4, **params)
    if name == "census-cover":
        return CoverCensus(name, seed, "cover", 3, base_text=K4_TEXT, **params)
    if name == "traces-mc":
        return TracesMC(name, seed, **params)
    return ZetaExact(name, seed, **params)
