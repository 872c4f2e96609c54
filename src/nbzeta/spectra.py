"""Adjacency and Hashimoto spectra, threshold counting, and classification.

Dense solvers handle graphs up to DENSE_EIG_LIMIT vertices.  The Hashimoto
spectrum of a regular graph is the Ihara map of its adjacency spectrum, so
there the limit bounds the vertex count n; only irregular graphs take a
dense eigensolve of the m x m Hashimoto matrix, and there it bounds the
directed edge count m.  Beyond the limit only counting queries are
supported: the dense path counts through the inertia of a shifted LDL^T
factorization; the sparse path walks down the top of the spectrum with
seeded Lanczos, since symmetric factorization of expander adjacencies
fills in catastrophically.  A Lanczos count is certified by residuals:
for symmetric A each Ritz pair (theta, x) has an eigenvalue within
||Ax - theta x|| of theta, so the count stands once no such band contains
the threshold.  A connected graph first takes a plain three-term Lanczos
rung: no reorthogonalization, ghost copies sorted out by the
Cullum-Willoughby test, the Lanczos vectors kept in float32, and every
reduction of length n summed by numpy rather than BLAS, so its values do
not depend on the BLAS thread count.  What it cannot certify goes to
ARPACK's eigsh, whose tolerance tightens along a short ladder (1e-4,
1e-8, 1e-12); a band still holding the threshold at the end raises
UncertainCount, never a silent count.

The new spectra of a cover (the total's less the base's) come from fibre
projection onto the invariant subspace of vectors summing to zero on every
fibre, with no eigenvalue matched against another; above the limit, the
same subspace carries the Lanczos walk over the new spectrum.
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
    is_connected,
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
# The plain Lanczos rung: it checks T_j every _PLAIN_CHECK_EVERY steps and
# hands over to eigsh after _PLAIN_STEP_CAP steps, or when more than
# _PLAIN_MAX_ABOVE values sit at or above the threshold.  A Ritz value of
# T_j counts as converged once beta_j |s_j| <= _PLAIN_TOL |theta|.
_PLAIN_CHECK_EVERY = 30
_PLAIN_STEP_CAP = 900
_PLAIN_MAX_ABOVE = 3
_PLAIN_TOL = 3e-5


class _HandOver(Exception):
    """The plain Lanczos rung cannot certify this count; eigsh takes it."""


def _dot(x, y):
    """x . y by numpy's own pairwise sum: unlike a BLAS dot, its order of
    summation does not depend on the number of BLAS threads."""
    return np.add.reduce(x * y)


def _top_clusters(alpha, beta, threshold):
    """The top eigenvalues theta (ascending) and eigenvectors S of the
    tridiagonal T_j with diagonal alpha and off-diagonal beta, and the
    clusters of indices into theta that pass the Cullum-Willoughby test,
    top first: down to the first below the threshold, or to the first
    _PLAIN_MAX_ABOVE + 1 at or above it.

    Values within a rounding tolerance of each other form one cluster.
    Plain Lanczos loses orthogonality as Ritz values converge, so T_j holds
    ghost copies of a converged value: a cluster of several copies is one
    genuine value.  A lone value is spurious when it is also a value of
    T_j without its first row and column (Cullum & Willoughby).  Only the
    top k eigenpairs are computed, by bisection and inverse iteration, k
    doubling from 6 until the clusters are complete.
    """
    m = len(alpha)
    k = min(m, 6)
    while True:
        theta, S = sla.eigh_tridiagonal(
            alpha, beta, select="i", select_range=(m - k, m - 1), lapack_driver="stebz")
        hat = sla.eigvalsh_tridiagonal(
            alpha[1:], beta[1:], select="i", select_range=(max(0, m - 1 - k), m - 2),
            lapack_driver="stebz")
        tol = 16 * m * np.finfo(float).eps * max(1.0, np.max(np.abs(theta)))
        clusters = []
        hi = k - 1
        while hi >= 0:
            lo = hi
            while lo > 0 and theta[lo] - theta[lo - 1] <= tol:
                lo -= 1
            if lo == 0 and k < m:
                break  # the cluster may go on below the computed values
            if lo < hi or not np.any(np.abs(hat - theta[hi]) <= tol):
                clusters.append(list(range(lo, hi + 1)))
                if theta[hi] < threshold or len(clusters) > _PLAIN_MAX_ABOVE:
                    return theta, S, clusters
            hi = lo - 1
        if k == m:
            return theta, S, clusters
        k = min(m, 2 * k)


def _combine(M, X):
    """The rows sum_i M[i, j] X[i], by numpy's own loops: a threaded BLAS
    product of these shapes costs more in thread wake-ups than it saves."""
    return np.einsum("ij,ik->jk", M, X)


def _rayleigh_ritz(A, X):
    """Descending Ritz values of A on the span of the rows of X, and their
    residual norms ||Ax - theta x|| / ||x||.  The rows are first cut to
    their numerical rank by the SVD of X, through its Gram matrix."""
    gram = np.array([[_dot(x, y) for y in X] for x in X])
    sigma2, W = np.linalg.eigh(gram)
    keep = sigma2 > 1e-12 * sigma2[-1]
    Y = _combine(W[:, keep] / np.sqrt(sigma2[keep]), X)
    AY = np.array([A @ y for y in Y])
    B = np.array([[_dot(x, y) for y in Y] for x in Y])
    C = np.array([[_dot(x, y) for y in AY] for x in Y])
    theta, Z = sla.eigh((C + C.T) / 2, B)
    theta, Z = theta[::-1], Z[:, ::-1]
    V, AV = _combine(Z, Y), _combine(Z, AY)
    res = np.array([
        math.sqrt(_dot(r, r) / _dot(v, v)) for r, v in zip(AV - theta[:, None] * V, V)
    ])
    return theta, res


def _residual_bands(vals, res, threshold):
    """Each Ritz value's certified band, and whether it holds the threshold."""
    band = res + _RESIDUAL_ROUNDING * np.max(np.abs(vals))
    return band, np.abs(vals - threshold) <= band


def _plain_lanczos(A, v, threshold):
    """The top Ritz values of A from start vector v down past the threshold,
    certified as in top_adjacency_eigenvalues, by plain three-term Lanczos;
    _HandOver when it cannot certify them.

    The recurrence runs in float64 without reorthogonalization and keeps
    each Lanczos vector as a float32 row.  Every _PLAIN_CHECK_EVERY steps
    the genuine Ritz values of T_j are found (_top_clusters); with c
    of them at or above the threshold, the rung stops once each of the top
    c + 1 has a bound beta_j |s_j| within _PLAIN_TOL |theta| and below its
    distance to the threshold.  The Ritz vectors of every copy in those
    clusters then go through Rayleigh-Ritz, and the top c + 1 values are
    returned when the last lies below the threshold and no residual band
    holds it.
    """
    n = len(v)
    blocks, alpha, beta = [], [], []
    q, q_prev, b = v / math.sqrt(_dot(v, v)), np.zeros(n), 0.0
    for j in range(_PLAIN_STEP_CAP):
        if j % _PLAIN_CHECK_EVERY == 0:
            blocks.append(np.empty((_PLAIN_CHECK_EVERY, n), dtype=np.float32))
        blocks[-1][j % _PLAIN_CHECK_EVERY] = q
        w = A @ q
        w -= b * q_prev
        a = _dot(q, w)
        w -= a * q
        b = math.sqrt(_dot(w, w))
        alpha.append(a)
        beta.append(b)
        if b <= 1e-10 * max(1.0, abs(a)):
            raise _HandOver("invariant subspace")
        q_prev, q = q, w / b
        if (j + 1) % _PLAIN_CHECK_EVERY:
            continue
        theta, S, window = _top_clusters(np.array(alpha), np.array(beta[:-1]), threshold)
        c = sum(theta[cluster[-1]] >= threshold for cluster in window)
        if c > _PLAIN_MAX_ABOVE:
            raise _HandOver(f"more than {_PLAIN_MAX_ABOVE} values at or above the threshold")
        if c == len(window) or not all(
            _converged(theta, S[-1] * b, cluster, threshold) for cluster in window
        ):
            continue
        copies = S[:, [k for cluster in window for k in cluster]].astype(np.float32)
        X = np.zeros((copies.shape[1], n))
        for i, block in enumerate(blocks):
            X += _combine(copies[i * _PLAIN_CHECK_EVERY:(i + 1) * _PLAIN_CHECK_EVERY], block)
        vals, res = _rayleigh_ritz(A, X)
        vals, res = vals[: c + 1], res[: c + 1]
        _, straddling = _residual_bands(vals, res, threshold)
        if len(vals) != c + 1 or np.sum(vals >= threshold) != c or straddling.any():
            raise _HandOver("Rayleigh-Ritz does not certify the count")
        return vals
    raise _HandOver("step cap")


def _converged(theta, bounds, cluster, threshold):
    """The cluster's best bound beta_j |s_j| is within _PLAIN_TOL of its
    value and below the value's distance to the threshold."""
    value = theta[cluster[-1]]
    bound = np.min(np.abs(bounds[cluster]))
    return bound <= _PLAIN_TOL * abs(value) and bound < abs(value - threshold)


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

    A is symmetric, so each Ritz pair (theta, x) has an eigenvalue within
    ||Ax - theta x|| of theta (Parlett), and the values are returned once
    no such band contains the threshold.  A connected graph first takes
    the plain Lanczos rung (_plain_lanczos), which returns the top c + 1
    values when c <= _PLAIN_MAX_ABOVE of them sit at or above the
    threshold.  It hands over to the eigsh ladder at a step cap, an
    invariant subspace or a band holding the threshold; a disconnected
    graph goes straight to eigsh, since its top eigenvalue is multiple and
    one start vector resolves one copy.  At each eigsh tolerance in
    _LANCZOS_TOLS, k doubles from 4 until the smallest Ritz value drops
    below the threshold (past n - 1 the bottom value is fetched as well);
    a band still containing the threshold at the last tolerance raises
    UncertainCount rather than returning a count.  Residuals cannot reveal
    an eigenvalue Lanczos missed entirely, such as an unresolved copy of a
    multiple one.  The start vector is seeded, so results are reproducible
    run to run, and the rung's are also independent of the BLAS thread
    count.
    """
    if g.vertex_count == 1:
        # ARPACK needs 0 < k < n; the sole eigenvalue counts the loop edges
        return np.array([float(g.directed_edge_count)])
    return _top_eigenvalues(g, adjacency_sparse(g), threshold, seed)


def top_new_adjacency_eigenvalues(c, threshold, seed=12345):
    """top_adjacency_eigenvalues over the new spectrum of a covering map c:
    Lanczos runs on the vectors summing to zero on every vertex fibre (see
    new_spectra), so an eigenvalue of the base, which the total graph
    carries with multiplicity, cannot hide a new one."""
    if c.degree == 1:
        return np.array([])
    fibre_of = c.vertex_map
    sizes = np.bincount(fibre_of)

    def centred(x):
        return x - (np.bincount(fibre_of, x, minlength=len(sizes)) / sizes)[fibre_of]

    A = adjacency_sparse(c.total)
    op = spla.LinearOperator(A.shape, matvec=lambda x: centred(A @ x.ravel()), dtype=float)
    return _top_eigenvalues(c.total, op, threshold, seed, centred)


def _top_eigenvalues(g, A, threshold, seed, centred=None):
    """The walk of top_adjacency_eigenvalues over operator A on g's
    vertices, from a start vector passed through centred when given."""
    n = g.vertex_count
    v0 = np.random.default_rng(seed).standard_normal(n)
    if centred is not None:
        v0 = centred(v0)
    if is_connected(g):
        try:
            return _plain_lanczos(A, v0, threshold)
        except _HandOver:
            pass
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
        band, straddling = _residual_bands(vals, res, threshold)
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
