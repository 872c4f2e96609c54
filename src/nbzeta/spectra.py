"""Adjacency and Hashimoto spectra, threshold counting, and classification.

Dense solvers handle graphs up to DENSE_EIG_LIMIT vertices.  The Hashimoto
spectrum of a regular graph is the Ihara map of its adjacency spectrum, so
there the limit bounds the vertex count n; only irregular graphs take a
dense eigensolve of the m x m Hashimoto matrix, and there it bounds the
directed edge count m.  Beyond the limit only counting queries are
supported: the dense path counts through the inertia of a shifted LDL^T
factorization; the sparse path walks down the top of the spectrum with
seeded Lanczos (ARPACK), since symmetric factorization of expander
adjacencies fills in catastrophically.  A Lanczos count is certified by
residuals: for symmetric A each Ritz pair (theta, x) has an eigenvalue
within ||Ax - theta x|| of theta, so the count stands once no such band
contains the threshold.  The solver tolerance tightens along a short
ladder (1e-4, 1e-8, 1e-12) until it does; a band still holding the
threshold at the end raises UncertainCount, never a silent count.

The new spectra of a cover (the total's less the base's) come from fibre
projection onto the invariant subspace of vectors summing to zero on every
fibre, with no eigenvalue matched against another.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .errors import (
    FactorizationBreakdown,
    InvalidParams,
    TooLarge,
    UncertainCount,
)
from .graphs import (
    adjacency_matrix,
    adjacency_sparse,
    graph_counts,
    hashimoto_matrix,
    regularity,
)

DENSE_EIG_LIMIT = 4096


def default_tolerances(d):
    """(real_tol, special_tol, threshold_tol) used by the classifiers."""
    return 1e-8 * (d - 1), 1e-8 * d, 1e-9 * d


@dataclass(frozen=True)
class NonRamanujanReport:
    h_positive: int
    h_negative: int
    a_positive: int
    a_negative: int
    witnesses: list = field(default_factory=list)

    @property
    def is_ramanujan(self):
        return (
            self.h_positive == 0
            and self.h_negative == 0
            and self.a_positive == 0
            and self.a_negative == 0
        )


def adjacency_spectrum(g):
    """All adjacency eigenvalues, descending; n <= DENSE_EIG_LIMIT."""
    if g.vertex_count > DENSE_EIG_LIMIT:
        raise TooLarge(
            f"dense eigensolve limited to {DENSE_EIG_LIMIT} vertices; "
            "use count_adjacency_eigenvalues_geq"
        )
    if g.vertex_count == 0:
        return np.array([])
    w = np.linalg.eigvalsh(adjacency_matrix(g).astype(float))
    return w[::-1]


def _inertia_positive_dense(A, shift):
    """Number of eigenvalues of A strictly above shift, via LDL^T inertia.

    Returns (count_above, zero_pivots): pivots within a tiny band of zero
    signal an eigenvalue essentially at the shift.
    """
    n = A.shape[0]
    _, D, _ = sla.ldl(A - shift * np.eye(n))
    scale = max(1.0, float(np.max(np.abs(A))) + abs(shift))
    zero_band = 1e-12 * scale
    pos = zeros = 0
    i = 0
    while i < n:
        off = D[i + 1, i] if i + 1 < n else 0.0
        if abs(off) <= zero_band:
            piv = D[i, i]
            if piv > zero_band:
                pos += 1
            elif piv >= -zero_band:
                zeros += 1
            i += 1
        else:
            # 2x2 block: eigenvalue signs from trace and determinant
            a, b, c = D[i, i], off, D[i + 1, i + 1]
            det = a * c - b * b
            tr = a + c
            if det < -zero_band * zero_band:
                pos += 1
            elif det > zero_band * zero_band:
                if tr > 0:
                    pos += 2
            else:
                zeros += 1
                if tr > zero_band:
                    pos += 1
            i += 2
    return pos, zeros


# eigsh tolerances tried in turn until every Ritz value is certified on
# its side of the threshold
_LANCZOS_TOLS = (1e-4, 1e-8, 1e-12)
# rounding allowance added to each residual, in units of the largest |theta|
_RESIDUAL_ROUNDING = 64 * np.finfo(float).eps


def _ritz_pairs(A, k, which, tol, v0):
    """Descending Ritz values theta of A from eigsh and their residual
    norms ||Ax - theta x|| / ||x||."""
    w, X = spla.eigsh(A, k=k, which=which, tol=tol, v0=v0)
    res = np.linalg.norm(A @ X - X * w, axis=0) / np.linalg.norm(X, axis=0)
    order = np.argsort(w)[::-1]
    return w[order], res[order]


def top_adjacency_eigenvalues(g, threshold, seed=12345):
    """Descending top adjacency eigenvalues down past `threshold`, by
    seeded Lanczos, with the count of those >= threshold certified.

    At each eigsh tolerance in _LANCZOS_TOLS, k doubles from 4 until the
    smallest Ritz value drops below the threshold (past n - 1 the bottom
    value is fetched as well).  A is symmetric, so each Ritz pair
    (theta, x) has an eigenvalue within ||Ax - theta x|| of theta
    (Parlett).  The values are returned once no such band contains the
    threshold; otherwise the next, tighter tolerance runs.  If a band still
    contains it at the last, UncertainCount is raised rather than a count
    returned.  Residuals cannot reveal an eigenvalue Lanczos missed
    entirely, such as an unresolved copy of a multiple one.  The start
    vector is seeded, so results are reproducible run to run.
    """
    A = adjacency_sparse(g)
    n = g.vertex_count
    if n == 1:
        # ARPACK needs 0 < k < n; the sole eigenvalue is the diagonal entry
        return A.diagonal()
    v0 = np.random.default_rng(seed).standard_normal(n)
    k = 4
    for tol in _LANCZOS_TOLS:
        while True:
            k = min(k, n - 1)
            vals, res = _ritz_pairs(A, k, "LA", tol, v0)
            if vals[-1] < threshold:
                break
            if k >= n - 1:
                # ARPACK cannot ask for all n; fetch the bottom value so a
                # threshold below the whole spectrum still counts n, not n-1
                low, low_res = _ritz_pairs(A, 1, "SA", tol, v0)
                vals = np.concatenate([vals, low])
                res = np.concatenate([res, low_res])
                break
            k *= 2
        band = res + _RESIDUAL_ROUNDING * np.max(np.abs(vals))
        straddling = np.abs(vals - threshold) <= band
        if not straddling.any():
            return vals
    i = int(np.argmax(straddling))
    raise UncertainCount(float(vals[i]), float(band[i]), float(threshold))


def count_adjacency_eigenvalues_geq(g, t, tol):
    """Number of adjacency eigenvalues lambda with lambda >= t - tol.

    t and tol must be finite and tol nonnegative, else ValueError.  Graphs
    of at most DENSE_EIG_LIMIT vertices go through shifted LDL^T inertia:
    a pivot at the shift means an eigenvalue sits exactly at t - tol, and
    the shift is then nudged down so the count keeps its ">=" meaning.
    Larger graphs go through the residual-certified Lanczos walk of
    top_adjacency_eigenvalues, which raises UncertainCount instead.
    """
    if not (math.isfinite(t) and math.isfinite(tol)):
        raise ValueError(f"t and tol must be finite, not {t!r} and {tol!r}")
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    if g.vertex_count == 0:
        return 0
    shift = t - tol
    if g.vertex_count > DENSE_EIG_LIMIT:
        return int(np.sum(top_adjacency_eigenvalues(g, shift) >= shift))
    A = adjacency_matrix(g).astype(float)
    jitter = max(1e-12, 1e-9 * max(1.0, abs(shift)))
    for attempt in range(4):
        try:
            pos, zeros = _inertia_positive_dense(A, shift - attempt * jitter)
        except Exception as exc:  # LAPACK breakdown
            if attempt == 3:
                raise FactorizationBreakdown(str(exc)) from exc
            continue
        if zeros == 0:
            return pos
        # eigenvalue at the shift: move the shift down to include it
    raise FactorizationBreakdown("persistent zero pivots at jittered shifts")


def hashimoto_spectrum(g):
    """Complex multiset (array) of Hashimoto eigenvalues.

    Regular graphs: the Ihara map of the adjacency spectrum
    (n <= DENSE_EIG_LIMIT).  Irregular graphs: dense eigensolve of the
    Hashimoto matrix (m <= DENSE_EIG_LIMIT).
    """
    d = regularity(g)
    if d is not None:
        return _ihara_roots(adjacency_spectrum(g), d, *_loop_counts(g))
    m = g.directed_edge_count
    if m > DENSE_EIG_LIMIT:
        raise TooLarge(f"dense Hashimoto eigensolve limited to {DENSE_EIG_LIMIT} edges")
    return np.linalg.eigvals(hashimoto_matrix(g).astype(float)).astype(complex)


def _loop_counts(g):
    """(half-loops, pairs - vertices): the counts _ihara_roots takes."""
    counts = graph_counts(g)
    return counts.half_loops, counts.pairs - counts.vertices


def _ihara_roots(lam, d, half, extra):
    """Hashimoto spectrum of a d-regular graph from its adjacency spectrum
    lam: the roots of mu^2 - lambda*mu + (d-1) per adjacency eigenvalue,
    then +1 with signed multiplicity extra and -1 with signed multiplicity
    half + extra.  A negative multiplicity -k removes the k roots nearest
    the value; for a single graph extra is |pair| - |V|, and for the new
    spectrum of a cover both counts are differences, total minus base."""
    s = np.sqrt((lam * lam - 4 * (d - 1)).astype(complex))
    roots = np.column_stack([(lam + s) / 2, (lam - s) / 2]).ravel()
    for value, k in ((1.0, extra), (-1.0, half + extra)):
        if k >= 0:
            roots = np.concatenate([roots, np.full(k, value)])
        else:
            nearest = np.argpartition(np.abs(roots - value), -k - 1)[:-k]
            roots = np.delete(roots, nearest)
    return roots.astype(complex)


def classify_non_ramanujan(g):
    """Count non-Ramanujan eigenvalues of a regular graph on both the
    Hashimoto and adjacency sides, from its dense adjacency spectrum
    (n <= DENSE_EIG_LIMIT, else TooLarge) and the Ihara map of it.

    Hashimoto: real eigenvalues (|Im| <= real_tol) away from the special
    values +-1, +-sqrt(d-1), +-(d-1).  Adjacency: |lambda| strictly between
    2*sqrt(d-1) and d, with a special_tol margin on both ends.  Both
    tolerances are default_tolerances(d).
    """
    d = regularity(g)
    if d is None:
        raise InvalidParams("classification needs a regular graph")
    adjacency = adjacency_spectrum(g)
    real_tol, special_tol, _ = default_tolerances(d)
    sq = np.sqrt(d - 1.0)
    special = (1.0, -1.0, sq, -sq, float(d - 1), -float(d - 1))

    h_pos = h_neg = 0
    witnesses = []
    for mu in _ihara_roots(adjacency, d, *_loop_counts(g)):
        if abs(mu.imag) > real_tol:
            continue
        x = mu.real
        if any(abs(x - s) <= special_tol for s in special):
            continue
        if x > 0:
            h_pos += 1
        else:
            h_neg += 1
        witnesses.append(complex(mu))

    lo, hi = 2 * sq, float(d)
    a_pos = a_neg = 0
    for lam in adjacency:
        ab = abs(lam)
        if lo + special_tol < ab < hi - special_tol:
            if lam > 0:
                a_pos += 1
            else:
                a_neg += 1
            witnesses.append(float(lam))
    return NonRamanujanReport(
        h_positive=h_pos,
        h_negative=h_neg,
        a_positive=a_pos,
        a_negative=a_neg,
        witnesses=witnesses,
    )


def _fibre_sum_zero_basis(fibre_of, size):
    """Orthonormal columns spanning the vectors that sum to zero on every
    fibre; coordinate i lies in fibre fibre_of[i], of `size` coordinates."""
    block = np.kron(np.eye(len(fibre_of) // size), sla.null_space(np.ones((1, size))))
    Q = np.empty_like(block)
    Q[np.argsort(fibre_of, kind="stable")] = block
    return Q


def new_spectra(c):
    """(new adjacency, new Hashimoto) spectra of a covering map: the total
    graph's spectra with the base's removed.

    The vectors summing to zero on every vertex fibre are the orthogonal
    complement of the fibre-constant ones, which carry the base spectrum;
    both are A-invariant, so the new adjacency spectrum is that of Q^T A Q
    for an orthonormal basis Q.  A regular base takes the Ihara map of it,
    with the +-1 multiplicities of total minus base.  Otherwise: the fibre
    sum pi over edge fibres has pi H = H_base pi, so its kernel, the edge
    vectors summing to zero on every edge fibre, is H-invariant and H acts
    as H_base on the quotient; the new spectrum is that of Q_E^T H Q_E.
    DENSE_EIG_LIMIT bounds the total's vertices, and for an irregular base
    its directed edges.
    """
    total, base, n = c.total, c.base, c.degree
    if total.vertex_count > DENSE_EIG_LIMIT:
        raise TooLarge(f"dense eigensolve limited to {DENSE_EIG_LIMIT} vertices")
    Q = _fibre_sum_zero_basis(c.vertex_map, n)
    new_adj = np.linalg.eigvalsh(Q.T @ adjacency_matrix(total) @ Q)[::-1]
    d = regularity(base)
    if d is not None:
        half, extra = np.subtract(_loop_counts(total), _loop_counts(base))
        return new_adj, _ihara_roots(new_adj, d, half, extra)
    if total.directed_edge_count > DENSE_EIG_LIMIT:
        raise TooLarge(f"dense Hashimoto eigensolve limited to {DENSE_EIG_LIMIT} edges")
    Q = _fibre_sum_zero_basis(c.edge_map, n)
    new_hsh = np.linalg.eigvals(Q.T @ hashimoto_matrix(total) @ Q)
    return new_adj, new_hsh.astype(complex)
