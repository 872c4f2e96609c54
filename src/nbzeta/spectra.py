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
the threshold.  The walk is a plain three-term Lanczos rung: no
reorthogonalization, ghost copies sorted out by the Cullum-Willoughby
test, the Lanczos vectors kept in float32, and every reduction of length
n summed by numpy rather than BLAS, so its values do not depend on the
BLAS thread count.  The copies of an eigenvalue that structure forces
(the components of a disconnected regular graph, a cover's (component,
fibre) cells) are deflated first.  What the rung cannot certify goes to
ARPACK's eigsh at tolerance 1e-12; a band still holding the threshold
raises UncertainCount, never a silent count.

The new spectra of a cover (the total's less the base's) come from fibre
projection onto the invariant subspace of vectors summing to zero on every
fibre, with no eigenvalue matched against another.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .errors import InvalidParams, TooLarge, UncertainCount
from .graphs import (
    adjacency_matrix,
    adjacency_sparse,
    components,
    degrees,
    graph_counts,
    hashimoto_matrix,
    regularity,
)
from .models import CoveringMap

DENSE_EIG_LIMIT = 4096


def default_tolerances(d):
    """(real_tol, special_tol, threshold_tol) used by the classifiers and
    the census windows."""
    return 1e-8 * (d - 1), 1e-8 * d, 1e-9 * d


@dataclass(frozen=True)
class NonRamanujanReport:
    h_positive: int
    h_negative: int
    a_positive: int
    a_negative: int

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


def _count_at_or_above(A, shift):
    """Number of eigenvalues of A at or above shift, from the inertia of
    one LDL^T factorization of A - shift I; a pivot within a tiny band of
    zero is an eigenvalue at the shift and counts."""
    n = A.shape[0]
    _, D, _ = sla.ldl(A - shift * np.eye(n))
    scale = max(1.0, float(np.max(np.abs(A))) + abs(shift))
    zero_band = 1e-12 * scale
    count = 0
    i = 0
    while i < n:
        off = D[i + 1, i] if i + 1 < n else 0.0
        if abs(off) <= zero_band:
            if D[i, i] >= -zero_band:
                count += 1
            i += 1
        else:
            # 2x2 block: eigenvalue signs from trace and determinant
            a, b, c = D[i, i], off, D[i + 1, i + 1]
            det = a * c - b * b
            if det < -zero_band * zero_band:
                count += 1
            elif det > zero_band * zero_band:
                if a + c > 0:
                    count += 2
            else:
                count += 2 if a + c > zero_band else 1
            i += 2
    return count


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


def _ritz_pairs(A, k, which, v0):
    """Descending Ritz values theta of A from eigsh and their residual
    norms ||Ax - theta x|| / ||x||."""
    w, X = spla.eigsh(A, k=k, which=which, tol=1e-12, v0=v0)
    res = np.linalg.norm(A @ X - X * w, axis=0) / np.linalg.norm(X, axis=0)
    order = np.argsort(w)[::-1]
    return w[order], res[order]


def top_adjacency_eigenvalues(g, threshold, seed=12345):
    """Descending top adjacency eigenvalues down past `threshold`, by
    seeded Lanczos, with the count of those >= threshold certified.

    g is a graph, or a covering map whose total graph is walked.  A is
    symmetric, so each Ritz pair (theta, x) has an eigenvalue within
    ||Ax - theta x|| of theta (Parlett); the values are returned once no
    such band holds the threshold.  No residual shows a copy of a
    multiple eigenvalue that one start vector misses, so the copies that
    structure forces are deflated first (_top_eigenvalues): lambda = d
    once per component of a disconnected regular graph, each base
    eigenvalue once per component of a cover's total.  The plain Lanczos
    rung (_plain_lanczos) walks the rest.  More than _PLAIN_MAX_ABOVE
    values at or above the threshold, the step cap, an invariant
    subspace, a band on the threshold or a disconnected irregular graph
    leave the count to eigsh at tolerance 1e-12, k doubling from 4 until
    the smallest Ritz value drops below the threshold (past n - 1 the
    bottom value is fetched too); a band still holding the threshold
    raises UncertainCount.  The start vector is seeded, so results are
    reproducible, and the rung's do not depend on the BLAS thread count.
    """
    if isinstance(g, CoveringMap):
        # cells (component, fibre), numbered from 0
        labels = components(g.total)[1] * g.base.vertex_count + g.vertex_map
        g, cells = g.total, np.unique(labels, return_inverse=True)[1]
    else:
        count, labels = components(g)
        if 1 < count < g.vertex_count and regularity(g) is None:
            # an irregular graph's components need not be equitable cells;
            # eigsh, which restarts, resolves the copies they share
            v0 = np.random.default_rng(seed).standard_normal(g.vertex_count)
            return _eigsh_values(adjacency_sparse(g), v0, threshold)
        # cells: the components of a regular graph, or lone vertices
        cells = labels if count > 1 or count == g.vertex_count else None
    return _top_eigenvalues(g, adjacency_sparse(g), threshold, seed, cells)


def _top_eigenvalues(g, A, threshold, seed, cells=None):
    """The walk of top_adjacency_eigenvalues over A on g's vertices.  The
    cells of an equitable partition leave invariant the vectors constant
    on every cell, with the values of the quotient matrix, and those
    summing to zero on every cell, where the walk runs, centring each
    product once.  eigsh sees the former at a floor below the threshold
    and the spectrum, and its values past the walk's dimension drop."""
    n = g.vertex_count
    v0 = np.random.default_rng(seed).standard_normal(n)
    walk = last_resort = A
    rest, vals = n, np.array([])
    if cells is not None:
        sizes = np.bincount(cells)
        k = len(sizes)

        def means(x):
            return (np.bincount(cells, x, minlength=k) / sizes)[cells]

        floor = min(threshold, -float(np.max(degrees(g)))) - 1
        walk = spla.LinearOperator(
            A.shape, matvec=lambda x: (y := A @ x.ravel()) - means(y), dtype=float)
        last_resort = spla.LinearOperator(
            A.shape, dtype=float,
            matvec=lambda x: (y := A @ x.ravel()) - means(y) + floor * means(x.ravel()))
        v0 = v0 - means(v0)
        rest -= k
        # a vertex of cell i has E[i, j] / sizes[i] neighbours in cell j, so
        # the cell-constant vectors carry the values of D^-1/2 E D^-1/2
        E = np.bincount(cells[g.tails] * k + cells[g.heads], minlength=k * k).reshape(k, k)
        vals = np.linalg.eigvalsh(E / np.sqrt(np.outer(sizes, sizes)))
    if rest:
        try:
            walked = _plain_lanczos(walk, v0, threshold)
        except _HandOver:
            walked = _eigsh_values(last_resort, v0, threshold)[:rest]
        vals = np.concatenate([walked, vals])
    vals = np.sort(vals)[::-1]
    return vals[: np.count_nonzero(vals >= threshold) + 1]


def _eigsh_values(A, v0, threshold):
    """Descending Ritz values of A down past the threshold from eigsh; past
    n - 1 the bottom value is fetched too, so all n can count, not n - 1."""
    n = len(v0)
    k = 4
    while True:
        k = min(k, n - 1)
        vals, res = _ritz_pairs(A, k, "LA", v0)
        if vals[-1] < threshold:
            break
        if k >= n - 1:
            low, low_res = _ritz_pairs(A, 1, "SA", v0)
            vals = np.concatenate([vals, low])
            res = np.concatenate([res, low_res])
            break
        k *= 2
    band, straddling = _residual_bands(vals, res, threshold)
    if straddling.any():
        i = int(np.argmax(straddling))
        raise UncertainCount(float(vals[i]), float(band[i]), float(threshold))
    return vals


def count_adjacency_eigenvalues_geq(g, t, tol):
    """Number of adjacency eigenvalues lambda with lambda >= t - tol.

    t and tol must be finite and tol nonnegative, else ValueError.  Graphs
    of at most DENSE_EIG_LIMIT vertices take one LDL^T factorization of
    A - (t - tol) I and count its nonnegative inertia: a pivot within
    rounding of zero is an eigenvalue at t - tol and counts as at or
    above.  Larger graphs go through the residual-certified Lanczos walk
    of top_adjacency_eigenvalues, which raises UncertainCount when a
    residual band holds t - tol: the routes differ on an eigenvalue there.
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
    return _count_at_or_above(adjacency_matrix(g).astype(float), shift)


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
    """Count non-Ramanujan eigenvalues of a regular graph of degree
    d >= 1 (else InvalidParams) on both the Hashimoto and adjacency sides,
    from its dense adjacency spectrum (n <= DENSE_EIG_LIMIT, else
    TooLarge) and the Ihara map of it.

    Hashimoto: real eigenvalues (|Im| <= real_tol) away from the special
    values +-1, +-sqrt(d-1), +-(d-1).  Adjacency: |lambda| strictly between
    2*sqrt(d-1) and d, with a special_tol margin on both ends.  Both
    tolerances are default_tolerances(d).
    """
    d = regularity(g)
    if d is None:
        raise InvalidParams("classification needs a regular graph")
    if d == 0:
        raise InvalidParams("classification needs degree d >= 1")
    adjacency = adjacency_spectrum(g)
    real_tol, special_tol, _ = default_tolerances(d)
    sq = np.sqrt(d - 1.0)
    special = (1.0, -1.0, sq, -sq, float(d - 1), -float(d - 1))

    h_pos = h_neg = 0
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

    lo, hi = 2 * sq, float(d)
    a_pos = a_neg = 0
    for lam in adjacency:
        ab = abs(lam)
        if lo + special_tol < ab < hi - special_tol:
            if lam > 0:
                a_pos += 1
            else:
                a_neg += 1
    return NonRamanujanReport(
        h_positive=h_pos,
        h_negative=h_neg,
        a_positive=a_pos,
        a_negative=a_neg,
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
