"""Exact non-backtracking traces, the divisor-sum prediction, Monte Carlo
trace estimates, a tiny-n enumeration oracle, and 1/n expansion fits.

Tr(H^k) counts the strictly non-backtracking closed walks of length k, so
every trace here is an exact integer; estimates only average them.

tr_hashimoto_power takes one of two exact int64 routes:

- regular graphs: Dickson matrices of the n x n adjacency A (the Ihara
  identity turns Spec H into Spec A), never building the m x m H; dense
  for n <= 64, CSR above.  The CSR route allocates little beyond its
  sparse products: D_2 = A^2 - 2q I and D_4 = D_2^2 - 2q^2 I shift the
  diagonal of a square in place (a square stores every diagonal entry),
  and an even k ends in one dot of D_{k/2}'s stored values.
  Guards: n (q^a + 1)(q^b + 1) < 2^62 with q = d - 1, a = ceil(k/2),
  b = floor(k/2), and a fill of min(n^2, n |ball of radius a|) within
  the sparse budget;
- irregular graphs: the split Tr(H^a (H^b)^T) on the sparse Hashimoto
  matrix.  Guards: m s^k < 2^62 with s the largest line-graph out-degree,
  and a fill of min(m^2, m s^a) within the same budget.

Either guard failing raises TooLarge; count_closed_nb_walks is the
independent walk-enumeration oracle for small graphs.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import IllConditioned, InvalidParams, TooLarge
from .graphs import (
    adjacency_matrix,
    adjacency_sparse,
    degrees,
    directed_line_graph,
    graph_counts,
    hashimoto_matrix,  # noqa: F401  perfbench/tracing.py wraps this name
    hashimoto_sparse,
    regularity,
)
from .models import (
    check_cover_base,
    sample_cover,
    sample_matching_model,
    sample_permutation_model,
    sample_single_cycle_model,
    _permutations_to_graph,
)
from .rng import derive_seed

# cap on the stored entries of any one sparse power: n * |ball of radius
# ceil(k/2)| for the Dickson route, m * s**ceil(k/2) for the H split
_SPARSE_NNZ_BUDGET = 40_000_000
_INT64_GUARD = 2 ** 62
# below this n, dense int64 Dickson products beat scipy's per-call overhead
_DENSE_DICKSON_LIMIT = 64
# most permutation tuples exact_expected_trace_small enumerates
EXACT_ENUMERATION_LIMIT = 10_000_000


@dataclass(frozen=True)
class TraceEstimate:
    model: str
    n: int
    d: int
    k: int
    samples: int
    mean: float
    stderr: float
    master_seed: int
    values: tuple = ()


@dataclass(frozen=True)
class ExpansionFit:
    k: int
    d: int
    n_grid: tuple
    intercept: float        # estimates the n-independent trace term
    slope: float            # estimates the 1/n coefficient
    intercept_stderr: float
    slope_stderr: float
    residual_norm: float


def tr_hashimoto_power(g, k):
    """Exact Tr(H^k) as a Python int.

    Regular graphs take the Dickson route on the n x n adjacency A;
    irregular graphs take the sparse split on the m x m Hashimoto H.
    Raises TooLarge when int64 products could overflow or a sparse power
    would exceed the fill budget.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    m = g.directed_edge_count
    if k == 0:
        return m
    if m == 0:
        return 0
    d = regularity(g)
    if d is not None:
        return _tr_regular(g, d, k)
    return _tr_irregular(g, k)


def _tr_regular(g, d, k):
    """Tr(H^k) from Dickson matrices of A.

    By the Ihara identity, Spec H is the two roots of mu^2 - lam*mu + q
    for each adjacency eigenvalue lam (q = d - 1), -1 once per half-loop,
    and +1, -1 each with multiplicity pairs - V.  The root pairs sum to
    D_k(lam), where D_0 = 2, D_1 = x, D_j = x D_{j-1} - q D_{j-2}, so
    their part of the trace is Tr D_k(A).  With a = ceil(k/2) and
    b = floor(k/2), D_k = D_a D_b - q^b D_{a-b}, and D_a(A), D_b(A) are
    symmetric, so Tr D_k(A) = sum(D_a(A) * D_b(A)) - q^b Tr D_{a-b}(A).
    Dense int64 products serve n <= 64 and _tr_dickson_csr larger n; both
    stay within the int64 guard below.
    """
    n = g.vertex_count
    q = d - 1
    a, b = (k + 1) // 2, k // 2
    # |D_j(lam)| <= q^j + 1 for |lam| <= d bounds every entry of D_j(A),
    # and n (q^a + 1)(q^b + 1) bounds every partial sum of the product
    if n * (q ** a + 1) * (q ** b + 1) >= _INT64_GUARD:
        raise TooLarge("entries of the Dickson matrices overflow int64")
    ball = 1 + sum(d * q ** j for j in range(a))
    if min(n * n, n * ball) > _SPARSE_NNZ_BUDGET:
        raise TooLarge("Dickson matrix power exceeds the fill budget")
    if n > _DENSE_DICKSON_LIMIT:
        tr_dk = _tr_dickson_csr(adjacency_sparse(g, dtype=np.int64), q, k)
    else:
        A = adjacency_matrix(g)
        prev, cur = 2 * np.eye(n, dtype=np.int64), A
        for _ in range(a - 1):
            prev, cur = cur, A @ cur - q * prev
        # now cur = D_a(A) and prev = D_{a-1}(A) (D_0 when a = 1)
        if a == b:
            tr_dk = int((cur * cur).sum()) - q ** b * 2 * n
        else:
            tr_dk = int((cur * prev).sum()) - q ** b * int(A.diagonal().sum())
    counts = graph_counts(g)
    sign = -1 if k % 2 else 1
    return (
        tr_dk
        + counts.half_loops * sign
        + (counts.pairs - counts.vertices) * (1 + sign)
    )


def _tr_dickson_csr(A, q, k):
    """Tr D_k(A) for the CSR int64 adjacency A of a d-regular graph, k >= 1.

    The first steps need no sparse add.  For X = D_j(A) symmetric,
    (X^2)_ii is the squared norm of row i, which is positive: e_i has a
    component along the constant vector of its connected component, an
    eigenvector for d, and D_j(d) = q^j + 1 > 0.  scipy's product stores
    each nonzero entry once, so D_2 = A^2 - 2q I and D_4 = D_2^2 - 2q^2 I
    shift the stored diagonal of a square in place, and so does
    D_3 = A (D_2 - q I) before its product.  Later steps take
    D_j = A D_{j-1} - q D_{j-2} as a sparse add.  No matrix here holds a
    duplicate entry, so for even k the symmetric sum(D_a * D_a) is the
    dot of D_a's stored values with themselves.
    """
    n = A.shape[0]
    a, b = (k + 1) // 2, k // 2
    if k == 1:
        return int(A.diagonal().sum())
    D = {1: A}
    if a == b:
        Da = _dickson(D, q, a)
        return int(np.dot(Da.data, Da.data)) - q ** b * 2 * n
    hadamard = int(_dickson(D, q, a).multiply(_dickson(D, q, b)).sum())
    return hadamard - q ** b * int(A.diagonal().sum())


def _dickson(D, q, j):
    """D_j(A) as CSR, with D = {1: A, ...} the D_i(A) computed so far."""
    if j not in D:
        A = D[1]
        # a square of D_1 or D_2 costs about the recurrence steps it skips;
        # a square of a denser D_j costs more once its ball fills the graph
        if j in (2, 4):
            half = _dickson(D, q, j // 2)
            D[j] = _shift_diagonal(half @ half, -2 * q ** (j // 2))
        elif j == 3:
            D[j] = A @ _shift_diagonal(_dickson(D, q, 2).copy(), -q)
        else:
            D[j] = A @ _dickson(D, q, j - 1) - q * _dickson(D, q, j - 2)
    return D[j]


def _shift_diagonal(M, c):
    """M + c I in place, for a CSR M storing each diagonal entry once."""
    n = M.shape[0]
    rows = np.repeat(np.arange(n, dtype=M.indices.dtype), np.diff(M.indptr))
    diagonal = np.flatnonzero(M.indices == rows)
    if len(diagonal) != n:
        raise ValueError("the diagonal is not stored entry by entry")
    M.data[diagonal] += c
    return M


def _tr_irregular(g, k):
    """Sparse split Tr(H^k) = sum(H^a * (H^b)^T), a = ceil(k/2), b = k - a."""
    m = g.directed_edge_count
    # entries of H^k are at most s^k, s the largest line-graph out-degree
    s = max(int(degrees(g)[g.heads].max()) - 1, 1)
    if m * s ** k >= _INT64_GUARD:
        raise TooLarge("entries of H^k overflow the exact int64 path")
    a = (k + 1) // 2
    if min(m * m, m * s ** a) > _SPARSE_NNZ_BUDGET:
        raise TooLarge("sparse trace power exceeds the fill budget")
    H = hashimoto_sparse(g)
    if k == 1:
        return int(H.diagonal().sum())
    Pb = H
    for _ in range(k // 2 - 1):
        Pb = Pb @ H
    Pa = Pb @ H if k % 2 else Pb
    return int(Pa.multiply(Pb.T).sum())


def count_closed_nb_walks(g, k):
    """Walk-enumeration oracle: depth-first count of strictly
    non-backtracking closed walks of length k (edge-rooted).

    Independent of the matrix-power path; use only on small graphs.
    """
    if k < 1:
        raise ValueError("oracle needs k >= 1")
    m = g.directed_edge_count
    if m > 64 or k > 8:
        raise TooLarge("walk enumeration oracle limited to 64 edges, k <= 8")
    tails, heads = directed_line_graph(g)
    succ = [[] for _ in range(m)]
    for t, h in zip(tails.tolist(), heads.tolist()):
        succ[t].append(h)
    total = 0
    for start in range(m):
        stack = [(start, 0)]
        while stack:
            e, steps = stack.pop()
            if steps == k:
                if e == start:
                    total += 1
                continue
            for nxt in succ[e]:
                stack.append((nxt, steps + 1))
    return total


def p0_divisor_sum(k, d):
    """Sum of (d-1)**k' over positive divisors k' of k: the n-independent
    prediction for the expected non-backtracking trace."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return sum((d - 1) ** kp for kp in range(1, k + 1) if k % kp == 0)


def _check_model(model, d, base):
    """Raise InvalidParams for a model that cannot draw d-regular graphs:
    an unknown name, a cover without a d-regular base, or a base given to
    another model."""
    if model not in ("perm", "cycle", "match", "cover"):
        raise InvalidParams(f"unknown model {model!r}")
    if model == "cover":
        if base is None:
            raise InvalidParams("cover model needs a base graph")
        check_cover_base(base, d)
    elif base is not None:
        raise InvalidParams(f"{model} model takes no base graph")


def _draw_model(model, n, d, seed, base):
    if model == "perm":
        return sample_permutation_model(n, d, seed)
    if model == "cycle":
        return sample_single_cycle_model(n, d, seed)
    if model == "match":
        return sample_matching_model(n, d, seed)
    return sample_cover(base, n, seed).total


def estimate_expected_trace(model, n, d, k, samples, master_seed, base=None):
    """Monte Carlo mean/stderr of Tr(H^k) over seeded independent samples.

    The model is checked before any draw; a cover base must be d-regular.
    """
    if samples < 1:
        raise InvalidParams("need samples >= 1")
    _check_model(model, d, base)
    values = []
    for i in range(samples):
        g = _draw_model(model, n, d, derive_seed(master_seed, i), base=base)
        values.append(tr_hashimoto_power(g, k))
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    stderr = float(arr.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return TraceEstimate(
        model=model, n=n, d=d, k=k, samples=samples,
        mean=mean, stderr=stderr, master_seed=master_seed,
        values=tuple(values),
    )


def exact_expected_trace_small(n, d, k):
    """Exact E[Tr(H^k)] for the permutation model by enumerating all
    (n!)**(d/2) permutation tuples with equal weight; more than
    EXACT_ENUMERATION_LIMIT tuples raise TooLarge."""
    if d % 2 != 0 or d < 4:
        raise InvalidParams("exact enumeration covers the perm model (even d >= 4)")
    perms = list(itertools.permutations(range(n)))
    count = len(perms) ** (d // 2)
    if count > EXACT_ENUMERATION_LIMIT:
        raise TooLarge(f"{count} permutation tuples exceed the enumeration guard")
    total = 0
    for tup in itertools.product(perms, repeat=d // 2):
        g = _permutations_to_graph(n, tup)
        total += tr_hashimoto_power(g, k)
    return Fraction(total, count)


def fit_expansion_coefficients(model, d, k, n_grid, samples_per_n, master_seed,
                               base=None):
    """Weighted least squares of mean trace against [1, 1/n].

    The intercept estimates the n-independent term, the slope the 1/n
    coefficient; uncertainties propagate from the per-n standard errors.
    """
    ns = list(n_grid)
    if len(ns) < 3 or len(set(ns)) < 3:
        raise IllConditioned("need at least 3 distinct n values")
    means, errs = [], []
    for i, n in enumerate(ns):
        est = estimate_expected_trace(
            model, n, d, k, samples_per_n, derive_seed(master_seed, i), base=base
        )
        means.append(est.mean)
        errs.append(est.stderr if est.stderr > 0 else 1.0)
    X = np.column_stack([np.ones(len(ns)), 1.0 / np.asarray(ns, dtype=float)])
    w = 1.0 / np.asarray(errs) ** 2
    XtWX = X.T @ (w[:, None] * X)
    if np.linalg.cond(XtWX) > 1e12:
        raise IllConditioned("grid too narrow for a stable 1/n fit")
    cov = np.linalg.inv(XtWX)
    beta = cov @ (X.T @ (w * np.asarray(means)))
    resid = np.asarray(means) - X @ beta
    return ExpansionFit(
        k=k, d=d, n_grid=tuple(ns),
        intercept=float(beta[0]), slope=float(beta[1]),
        intercept_stderr=float(np.sqrt(cov[0, 0])),
        slope_stderr=float(np.sqrt(cov[1, 1])),
        residual_norm=float(np.sqrt(np.sum(w * resid ** 2))),
    )
