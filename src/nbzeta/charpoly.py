"""Exact characteristic polynomials of integer matrices.

The workhorse is a modular method: Lanczos over F_p for a batch of
word-size primes at once, each prime one row of (P, m) arrays, then a
Garner CRT lift.  The prime count comes from a rigorous Hadamard bound on
the coefficients (each coefficient is a signed sum of principal minors),
so the result is exact, never heuristic.

Lanczos needs a symmetric bilinear form for which M is self-adjoint.  An
integer matrix with M^T = M[J][:, J] for an involutive permutation J (the
identity for a symmetric M, the edge involution for a Hashimoto matrix) is
self-adjoint for <x, y> = x . y[J]; charpoly takes no other matrix.
From a start vector v_0 the recurrence

    v_{j+1} = M v_j - a_j v_j - b_j v_{j-1},
    a_j = <M v_j, v_j> / <v_j, v_j>,   b_j = <v_j, v_j> / <v_{j-1}, v_{j-1}>,

is exact mod p, so no orthogonality is ever lost, and v_j = q_j(M) v_0
for the monic q_{j+1} = (x - a_j) q_j - b_j q_{j-1}.  When v_{j+1} = 0
the Krylov space is M-invariant and the form is non-degenerate on it, so
its orthogonal complement is M-invariant too: the next block starts from a
fresh vector projected off every vector found so far, with b = 0, and the
same recurrence multiplies that block's polynomial in.  After m vectors
q_m = det(xI - M) mod p.

Breakdowns (Parlett, Taylor & Liu 1985).  All primes of a batch start from
one shared integer vector, so each runs the reduction of one rational
Lanczos run for as long as that run has no denominator divisible by it.
A prime whose vector vanishes, or whose norm <v, v> vanishes, while
another prime's does not is unlucky: it is dropped, and further primes
from the pool make up the bound.  The lockstep only keeps the shapes
common; every prime that finishes has exact residues by the argument
above.  A norm that vanishes for every prime is taken for an isotropic
vector: the block restarts from a fresh vector, at most _MAX_RESTARTS
times per batch.  Start vectors come from a fixed seed; the result does
not depend on it.

Invariant subspaces.  When the caller knows an M-invariant subspace W,
spanned by the integer columns of G, and the charpoly f of M on the
quotient space, det(xI - M) = f * det(xI - M|_W).  Every start vector is
then G c for a random integer c, so the recurrence and the block-start
projections never leave W; the run stops after dim W = m - deg f vectors,
and each prime's residues are multiplied by f mod p before the lift.  The
lift takes M's own bound: M|_W's factor may need more primes than the
whole, so it is never lifted alone.  The form must be non-degenerate on W
over Q (a prime for which it degenerates only drops out as unlucky); a
stated dim W larger than W's own ends in LanczosBreakdown, and a W that is
not invariant gives a wrong result, so the caller vouches for both.

Overflow budget: residues lie below 2^26 and M enters products only
reduced mod p, so every product is below 2^52; no sum has more than
2 * EXACT_CHARPOLY_LIMIT = 1024 terms, so every sum stays below 2^62
(asserted below).  Start vectors in W are G c with entries of G and c
below 2^26 and at most 1024 columns, inside the same budget.

Reference: Eberly & Kaltofen, "On randomized Lanczos algorithms",
ISSAC 1997.  A division-free Berkowitz implementation is kept as an
independent oracle for small matrices.
"""

from math import comb, isqrt, prod

import numpy as np
import scipy.sparse as sp

from .errors import LanczosBreakdown, TooLarge

EXACT_CHARPOLY_LIMIT = 512

# Primes just below 2**26, the 160 largest, descending.
_PRIME_CEILING_BITS = 26
_POOL_SIZE = 160
_SIEVE_WINDOW = 8192

# Lanczos vectors held per batch: (P, n, n) int64, about 8 primes deep at
# n = EXACT_CHARPOLY_LIMIT.
_VECTOR_BUDGET = 8 * EXACT_CHARPOLY_LIMIT ** 2
_MAX_RESTARTS = 16
_SEED = 0x5EED


def _prime_pool():
    """The _POOL_SIZE largest primes below 2^26, descending: a numpy sieve
    of the window just below 2^26 by the primes up to 2^13 = sqrt(2^26)."""
    top = 1 << _PRIME_CEILING_BITS
    root = 1 << (_PRIME_CEILING_BITS // 2)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for f in range(2, isqrt(root) + 1):
        if small[f]:
            small[f * f::f] = False
    lo = top - _SIEVE_WINDOW
    window = np.ones(_SIEVE_WINDOW, dtype=bool)
    for f in np.flatnonzero(small).tolist():
        window[-lo % f::f] = False
    pool = (lo + np.flatnonzero(window)[::-1][:_POOL_SIZE]).tolist()
    assert len(pool) == _POOL_SIZE
    return pool


_PRIMES = _prime_pool()

assert max(_PRIMES) < 1 << _PRIME_CEILING_BITS
assert 2 * EXACT_CHARPOLY_LIMIT * (max(_PRIMES) - 1) ** 2 < 1 << 62


def _integer_matrix(M):
    """M as a square int64 or object (Python int) array; ValueError for
    any other entries."""
    M = np.asarray(M)
    if M.dtype == object:
        if not all(isinstance(x, (int, np.integer)) for x in M.flat):
            raise ValueError("charpoly needs integer entries")
    elif M.dtype.kind not in "biu":
        raise ValueError(f"charpoly needs an integer matrix, not {M.dtype}")
    else:
        M = M.astype(object if M.dtype == np.uint64 else np.int64, copy=False)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    return M


def coefficient_bound(M):
    """Rigorous bound on |c_k| over all k for charpoly(M).

    c_k is a signed sum of the C(m,k) principal k-minors; each minor is
    Hadamard-bounded by the product of the k largest row 2-norms.  The row
    sums of squares are taken in int64 when m * max|entry|^2 < 2^63, which
    makes them exact, and as Python ints otherwise.
    """
    m = M.shape[0]
    if m and M.dtype == np.int64 and m * max(int(M.max()), -int(M.min())) ** 2 < 1 << 63:
        sq = np.sort(np.sum(M * M, axis=1))[::-1]
    else:
        sq = np.sort(np.asarray(np.sum(M.astype(object) ** 2, axis=1)))[::-1]
    best, acc = 1, 1
    for k in range(1, m + 1):
        if sq[k - 1] > 0:
            acc *= int(sq[k - 1])
        b = comb(m, k) * (isqrt(acc) + 1)
        if b > best:
            best = b
    return best


def _start_vector(rng, n):
    """Integer start vector shared by every prime of a batch."""
    return rng.integers(0, 1 << _PRIME_CEILING_BITS, size=n)


def _inverses(x, ps):
    return np.array([pow(a, -1, p) for a, p in zip(x.tolist(), ps.tolist())],
                    dtype=np.int64)


def _block_operator(rows, cols, data, n):
    """Block-diagonal sparse operator, one n x n block per prime."""
    off = (np.arange(data.shape[0]) * n)[:, None]
    size = data.shape[0] * n
    return sp.csr_matrix(
        (data.ravel(), ((rows + off).ravel(), (cols + off).ravel())), shape=(size, size)
    )


def _lanczos_residues(M, J, primes, gens=None, dim=None):
    """(kept primes, det(xI - M|_W) mod each, ascending, shape (P, dim + 1))
    for an integer M self-adjoint for <x, y> = x . y[J], W the M-invariant
    span of the columns of gens (the whole space when None) and dim its
    dimension; see the module docstring.  Raises LanczosBreakdown past
    _MAX_RESTARTS restarts."""
    n = M.shape[0]
    dim = n if gens is None else dim
    ps = np.array(primes, dtype=np.int64)
    rows, cols = np.nonzero(M)
    vals = M[rows, cols]
    data = np.array([vals % p for p in primes], dtype=np.int64)
    B = _block_operator(rows, cols, data, n)
    V = np.zeros((len(primes), dim, n), dtype=np.int64)
    inv_norm, alpha, beta = (np.zeros((len(primes), dim), dtype=np.int64) for _ in range(3))
    rng = np.random.default_rng(_SEED)
    k0 = k = restarts = 0       # k0 vectors in closed blocks, k found so far
    while True:
        p = ps[:, None]
        if k == k0:
            if gens is None:
                w = _start_vector(rng, n) % p
            else:
                w = gens @ _start_vector(rng, gens.shape[1]) % p
            if k0:
                c = (V[:, :k0] @ w[:, J, None])[..., 0] % p * inv_norm[:, :k0] % p
                w = (w - (c[:, None, :] @ V[:, :k0])[:, 0]) % p
        else:
            v = V[:, k - 1]
            u = (B @ v.ravel()).reshape(v.shape) % p
            alpha[:, k - 1] = (u * vJ).sum(axis=1) % ps * inv_norm[:, k - 1] % ps
            if k == dim:
                break
            # beta is 0 at a block start, where V[:, k - 2] is not in the block
            w = (u - alpha[:, k - 1, None] * v - beta[:, k - 1, None] * V[:, k - 2]) % p
        wJ = w[:, J]
        norm = (w * wJ).sum(axis=1) % ps
        zero = ~w.any(axis=1)
        live = ~zero & (norm != 0)
        if not live.any() and zero.all() and k > k0:
            k0 = k              # the block closes
            continue
        # unlucky: dead beside a live prime, or zero beside a nonzero vector
        keep = live if live.any() else ~zero | zero.all()
        if not keep.all():
            V, inv_norm, alpha, beta, data, ps, w, wJ, norm = (
                a[keep] for a in (V, inv_norm, alpha, beta, data, ps, w, wJ, norm))
            B = _block_operator(rows, cols, data, n)
        if not live.any():      # isotropic for every prime
            restarts += 1
            if restarts > _MAX_RESTARTS:
                raise LanczosBreakdown(
                    f"isotropic Lanczos vectors after {_MAX_RESTARTS} restarts")
            k = k0
            continue
        V[:, k] = w
        inv_norm[:, k] = _inverses(norm, ps)
        beta[:, k] = norm * inv_norm[:, k - 1] % ps if k > k0 else 0
        vJ = wJ
        k += 1
    q_prev = np.zeros((len(ps), dim + 1), dtype=np.int64)
    q = q_prev.copy()
    q[:, 0] = 1
    for j in range(dim):
        nxt = np.zeros_like(q)
        nxt[:, 1:] = q[:, :-1]
        nxt -= alpha[:, j, None] * q + beta[:, j, None] * q_prev
        q_prev, q = q, nxt % ps[:, None]
    return ps, q


def _crt_lift(residues, primes):
    """Symmetric CRT lift of the rows of residues (one per prime) to signed
    ints: Garner's mixed-radix digits, one inverse per prime, vectorized
    over coefficients."""
    digits = []
    for r, p in zip(residues, primes):
        s = np.zeros_like(r)                    # earlier digits' value mod p
        for d, q in zip(reversed(digits), reversed(primes[:len(digits)])):
            s = (s * q + d) % p
        inv = pow(prod(primes[:len(digits)]) % p, -1, p)
        digits.append((r - s) * inv % p)
    x = np.zeros(residues.shape[1], dtype=object)
    for d, q in zip(reversed(digits), reversed(primes)):
        x = x * q + d.astype(object)
    modulus = prod(primes)
    return [v - modulus if v > modulus // 2 else v for v in x.tolist()]


def _times(residues, poly, ps):
    """Each prime's row of residues times the integer polynomial poly, mod
    that prime; ascending coefficients."""
    f = np.array([[c % p for c in poly] for p in ps.tolist()], dtype=np.int64)
    width = residues.shape[1]
    out = np.zeros((len(ps), width + f.shape[1] - 1), dtype=np.int64)
    for j in range(f.shape[1]):
        out[:, j:j + width] = (out[:, j:j + width] + f[:, j, None] * residues) % ps[:, None]
    return out


def _generators(invariant, m):
    """(G as int64, quotient, dim W) from invariant = (G, quotient).  G's
    entries below 2^26 and at most 2 * limit columns keep the start vectors
    G c in the overflow budget."""
    G, quotient = invariant
    G = np.asarray(G)
    if G.dtype.kind not in "biu" or G.ndim != 2 or G.shape[0] != m \
            or G.size and not -(1 << 26) < G.min() <= G.max() < 1 << 26:
        raise ValueError("invariant subspace needs m integer rows, entries below 2^26")
    if G.shape[1] > 2 * EXACT_CHARPOLY_LIMIT:
        raise ValueError("invariant subspace needs at most 2 * limit columns")
    quotient = [int(c) for c in quotient]
    if not quotient or quotient[-1] != 1 or len(quotient) > m + 1:
        raise ValueError("quotient charpoly must be monic of degree at most m")
    return G.astype(np.int64), quotient, m + 1 - len(quotient)


def charpoly(M, involution=None, invariant=None):
    """Exact det(xI - M) for an integer matrix M that is self-adjoint for
    <x, y> = x . y[J], ascending coefficients.

    involution: a permutation J with J[J] = identity and M^T = M[J][:, J]
    (for a Hashimoto matrix, the graph's edge involution).  Without one, M
    must be symmetric and J is the identity.  Any other matrix raises
    ValueError, and one with more than EXACT_CHARPOLY_LIMIT rows TooLarge.

    invariant: (G, quotient): the integer columns of G span an M-invariant
    subspace W and quotient is det(xI - M) on the quotient space,
    ascending.  Lanczos then runs in W only; see the module docstring.
    """
    M = _integer_matrix(M)
    m = M.shape[0]
    if m > EXACT_CHARPOLY_LIMIT:
        raise TooLarge(f"exact charpoly limited to {EXACT_CHARPOLY_LIMIT} rows")
    if m == 0:
        return [1]
    ident = np.arange(m)
    if involution is None:
        J = ident
        if not np.array_equal(M, M.T):
            raise ValueError("matrix is neither symmetric nor given an involution")
    else:
        J = np.asarray(involution, dtype=np.int64)
        if J.shape != (m,) or not np.array_equal(np.sort(J), ident) \
                or not np.array_equal(J[J], ident):
            raise ValueError("involution must be an involutive permutation")
        if not np.array_equal(M.T, M[np.ix_(J, J)]):
            raise ValueError("matrix is not self-adjoint for the involution")
    subspace, quotient, dim = {}, [1], m
    if invariant is not None:
        G, quotient, dim = _generators(invariant, m)
        if dim == 0:
            return quotient
        subspace = dict(gens=G, dim=dim)
    target = 2 * coefficient_bound(M) + 1
    depth = max(1, _VECTOR_BUDGET // (dim * m))
    pool = iter(_PRIMES)
    primes, residues, modulus = [], [], 1
    while modulus <= target:
        batch = []
        for p in pool:
            batch.append(p)
            if modulus * prod(batch) > target or len(batch) == depth:
                break
        if not batch:
            raise TooLarge("prime pool exhausted; matrix entries too large")
        ps, res = _lanczos_residues(M, J, batch, **subspace)
        primes += ps.tolist()
        residues.append(_times(res, quotient, ps))
        modulus *= prod(ps.tolist())
    return _crt_lift(np.concatenate(residues), primes)


def charpoly_berkowitz(M):
    """Division-free Berkowitz charpoly; slow, used as a cross-check oracle."""
    M = [[int(x) for x in row] for row in _integer_matrix(M)]
    m = len(M)
    if m == 0:
        return [1]
    # vectors[k] holds charpoly of leading k x k block, descending coeffs
    poly = [1, -M[0][0]]
    for k in range(1, m):
        a = M[k][k]
        row = [M[k][j] for j in range(k)]
        col = [M[j][k] for j in range(k)]
        block = [[M[i][j] for j in range(k)] for i in range(k)]
        # toeplitz column: [1, -a, -(R C), -(R B C), -(R B^2 C), ...]
        tcol = [1, -a]
        vec = col
        for _ in range(k):
            tcol.append(-sum(r * v for r, v in zip(row, vec)))
            vec = [sum(block[i][j] * vec[j] for j in range(k)) for i in range(k)]
        new = [0] * (k + 2)
        for i, c in enumerate(poly):
            for j, t in enumerate(tcol):
                if i + j <= k + 1:
                    new[i + j] += c * t
        poly = new
    return list(reversed(poly))
