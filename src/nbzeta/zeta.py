"""Graph zeta data: exact characteristic polynomials, determinant
identities, the essential logarithmic derivative, its rational remainder,
rectangle-contour pole counting, and the divisor-sum generating function.

Conventions.  zeta(u) = 1/det(I - u*H); the essential logarithmic
derivative of a d-regular graph is

    L(u) = sum_{k>=0} u^(-1-k) Tr(H^k) (d-1)^(-k)
         = sum_{mu in Spec H} 1/(u - mu/(d-1)),

and -zeta'/zeta(u) = L(u) + e(u) with the explicit rational remainder

    e(u) = n(d-2) * [ u/(u^2-1) - (d-1)^2 u / ((d-1)^2 u^2 - 1) ],

whose poles are +-1 (residue -chi) and +-1/(d-1).
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import polys
from .charpoly import EXACT_CHARPOLY_LIMIT, charpoly
from .errors import (
    IdentityViolation,
    InvalidParams,
    NearContourPole,
    NearPole,
    TooLarge,
)
from .graphs import adjacency_matrix, graph_counts, hashimoto_matrix, regularity
from .spectra import hashimoto_spectrum
from .traces import tr_hashimoto_power

# evaluate_L's float path raises NearPole this close to a pole of L
_MIN_POLE_DISTANCE = 1e-12
# terms of the truncated series in DivisorSumGeneratingFunction.remainder
_REMAINDER_TERMS = 200
# trapezoid nodes on the circle in integrate_circle
_CIRCLE_POINTS = 2048


@dataclass(frozen=True)
class ContourSpec:
    """Rectangle |1 - sign*x*sqrt(d-1)| <= eps, |y| <= delta, counterclockwise."""

    eps: float
    delta: float
    sign: int = +1
    quadrature_points: int = 512

    def validate(self):
        """Raise ValueError unless eps and delta are finite and positive,
        sign is +1 or -1 and quadrature_points is an integer >= 1."""
        for name in ("eps", "delta"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, not {value!r}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, not {self.sign!r}")
        points = self.quadrature_points
        if not isinstance(points, (int, np.integer)) or points < 1:
            raise ValueError(
                f"quadrature_points must be an integer >= 1, not {points!r}")


@dataclass(frozen=True)
class SeriesAtInfinity:
    """Coefficients c_k = Tr(H^k)(d-1)^(-k) of L at infinity, exact."""

    coefficients: tuple  # Fractions
    truncation: int
    d: int


@dataclass(frozen=True)
class IharaReport:
    holds: bool
    lhs: list
    rhs: list
    half_loops: int
    d: int


@dataclass(frozen=True)
class ContourCount:
    numeric: complex
    exact: int


@dataclass(frozen=True)
class ResidueReport:
    d: int
    poles: tuple        # (1, +r, -r) with r = (d-1)^(-1/2)
    residues: tuple     # (1, 1/2, 1/2)
    remainder_radius: float  # next pole ring of the divisor remainder
    function: object = None  # DivisorSumGeneratingFunction


def hashimoto_char_poly(g):
    """(det(mu I - H), det(I - u H)) as exact ascending coefficient lists.

    Two routes, both exact.  A regular graph with edges takes the Ihara
    pencil of its n x n adjacency A (Bass 1992; Kotani-Sunada 2000):

        det(mu I - H) = det(mu^2 I - mu A + (d-1) I) (mu+1)^|half|
                        (mu^2-1)^(|pair|-|V|),

    with a negative exponent an exact division; H is never built, A's
    charpoly comes from modular Lanczos for the standard form (shared with
    verify_ihara through a one-entry cache keyed on A's bytes), and
    EXACT_CHARPOLY_LIMIT bounds n.  An irregular graph (or one without
    edges, whose H is empty) takes _hashimoto_charpoly, the modular
    charpoly of H itself: Lanczos on H's invariant subspace W, the rest
    from the graph's counts once H has passed an exact check; there
    EXACT_CHARPOLY_LIMIT bounds |E^dir|.

    The two are coefficient reversals of one another since det(mu I - H)
    is monic of degree |E^dir|.
    """
    m = g.directed_edge_count
    d = regularity(g)
    if not d:
        mu_poly = _hashimoto_charpoly(g)
    else:
        counts = graph_counts(g)
        mu_poly = _divide_by_mu2_minus_1(
            _pencil_side(_adjacency_charpoly(g), d, counts),
            counts.vertices - counts.pairs,
        )
    u_poly = polys.reciprocal(mu_poly, degree=m)
    return mu_poly, u_poly


def _adjacency_charpoly(g):
    """det(xI - A) for A = adjacency_matrix(g); EXACT_CHARPOLY_LIMIT bounds
    n, before A is built.  hashimoto_char_poly and then verify_ihara on one
    graph take A's charpoly once, through _cached_charpoly."""
    if g.vertex_count > EXACT_CHARPOLY_LIMIT:
        raise TooLarge(f"exact char poly limited to {EXACT_CHARPOLY_LIMIT} vertices")
    A = adjacency_matrix(g)
    return list(_cached_charpoly(A.shape, A.dtype.str, A.tobytes()))


@functools.lru_cache(maxsize=1)
def _cached_charpoly(shape, dtype, data):
    """charpoly of the matrix with this shape, dtype and bytes, the last
    one kept: a changed A misses."""
    return tuple(charpoly(np.frombuffer(data, dtype=dtype).reshape(shape)))


def _component_counts(g):
    """(components, bipartite components) of g, by BFS 2-colouring; a loop
    makes its component non-bipartite, and an isolated vertex counts as a
    bipartite component."""
    neighbours = [[] for _ in range(g.vertex_count)]
    for t, h in zip(g.tails.tolist(), g.heads.tolist()):
        neighbours[t].append(h)
    colour = [-1] * g.vertex_count
    components = bipartite = 0
    for s in range(g.vertex_count):
        if colour[s] >= 0:
            continue
        colour[s], stack, two_coloured = 0, [s], True
        while stack:
            v = stack.pop()
            for w in neighbours[v]:
                if colour[w] < 0:
                    colour[w] = 1 - colour[v]
                    stack.append(w)
                elif colour[w] == colour[v]:
                    two_coloured = False
        components += 1
        bipartite += two_coloured
    return components, bipartite


def _hashimoto_invariant(g):
    """(G, a, b): H = P_J (T T^T - I), T the m x n tail incidence, leaves
    W = {x(e) = f(tail e) + g(head e)} invariant, spanned by the columns
    of G = [T, P_J T] (on the vertices with edges), and acts as -P_J on
    V/W, so det(mu I - H) = (mu-1)^a (mu+1)^b det(mu I - H|_W) with
    a = |pair| - |V| + c and b = |pair| + |half| - |V| + c_bip."""
    counts = graph_counts(g)
    c, c_bip = _component_counts(g)
    _, tail = np.unique(g.tails, return_inverse=True)
    r = int(tail.max()) + 1 if tail.size else 0
    G = np.zeros((g.directed_edge_count, 2 * r), dtype=np.int64)
    rows = np.arange(g.directed_edge_count)
    G[rows, tail] = 1
    G[rows, r + tail[g.involution]] = 1
    a = counts.pairs - counts.vertices + c
    b = counts.pairs + counts.half_loops - counts.vertices + c_bip
    return G, a, b


def _hashimoto_charpoly(g):
    """det(mu I - H) for H = hashimoto_matrix(g), exact, ascending.

    H is checked exactly against the graph: H + P_J must equal
    [head e = tail f], else IdentityViolation.  Then Lanczos runs on H's
    invariant subspace W only and (mu-1)^a (mu+1)^b, from the graph's
    counts, is multiplied in per prime before the lift
    (_hashimoto_invariant).  EXACT_CHARPOLY_LIMIT bounds |E^dir|.
    """
    m = g.directed_edge_count
    if m > EXACT_CHARPOLY_LIMIT:
        raise TooLarge(
            f"exact char poly limited to {EXACT_CHARPOLY_LIMIT} directed edges")
    H = hashimoto_matrix(g)
    follows = H.copy()
    follows[np.arange(m), g.involution] += 1
    if not np.array_equal(follows, g.heads[:, None] == g.tails[None, :]):
        raise IdentityViolation("Hashimoto matrix fails H + P_J = [head e = tail f]")
    G, a, b = _hashimoto_invariant(g)
    quotient = polys.mul(polys.pow_([-1, 1], a), polys.pow_([1, 1], b))
    return charpoly(H, involution=g.involution, invariant=(G, quotient))


def _quadratic_pencil_det(adj_poly, n, c):
    """det(mu^2 I - mu A + c I) from the charpoly p_A = sum a_k x^k of A:
    mu^n p_A((mu^2 + c)/mu) = sum_k a_k (mu^2 + c)^k mu^(n-k), by Horner in
    B = mu^2 + c: R_n = a_n, R_j = R_{j+1} B + a_j mu^(n-j), result R_0."""
    out = [adj_poly[n]]
    for j in range(n - 1, -1, -1):
        nxt = [0, 0] + out
        for i, r in enumerate(out):
            nxt[i] += c * r
        nxt[n - j] += adj_poly[j]
        out = nxt
    return polys.normalize(out)


def _pencil_side(adj_poly, d, counts):
    """The A side of the Ihara identity with denominators cleared:
    det(mu^2 I - mu A + (d-1) I) (mu+1)^|half| (mu^2-1)^max(0, |pair|-|V|)."""
    out = polys.mul(
        _quadratic_pencil_det(adj_poly, counts.vertices, d - 1),
        polys.pow_([1, 1], counts.half_loops),
    )
    extra = counts.pairs - counts.vertices
    if extra > 0:
        out = polys.mul(polys.pow_([-1, 0, 1], extra), out)
    return out


def _divide_by_mu2_minus_1(p, times):
    """p / (mu^2 - 1)^times (times <= 0: p itself) by synthetic division;
    raises IdentityViolation when a division leaves a remainder."""
    for _ in range(times):
        p = list(p)
        # top down: entry i >= 2 becomes the quotient's mu^(i-2) coefficient
        for i in range(len(p) - 1, 1, -1):
            p[i - 2] += p[i]
        if p[0] or p[1]:
            raise IdentityViolation(
                f"Ihara pencil leaves remainder {p[:2]} modulo mu^2 - 1"
            )
        p = p[2:]
    return p


def verify_ihara(g):
    """Check the determinant identity linking H and A coefficient-exactly.

    det(mu I - H) (mu^2-1)^max(0, |V|-|pair|) =
        det(mu^2 I - mu A + (d-1)I) (mu+1)^|half| (mu^2-1)^max(0, |pair|-|V|),

    i.e. the identity with exponent |pair| - |V| after clearing
    denominators; without half-loops it is the reversal of
    det(I - uH) = det(I - uA + u^2(d-1)I) (1-u^2)^(-chi).  The H side is
    _hashimoto_charpoly, never hashimoto_char_poly, whose regular route is
    the A side: H itself is checked exactly (H + P_J = [head e = tail f]),
    its charpoly on the invariant subspace W comes from Lanczos over F_p
    for the form x . y[involution], and the quotient's (mu-1)^a (mu+1)^b
    from the graph's vertex, pair, half-loop and component counts.  An H
    that fails the check raises IdentityViolation.  EXACT_CHARPOLY_LIMIT
    bounds |E^dir|; A's charpoly may come from the cache that
    hashimoto_char_poly filled, when A's bytes match.

    Returns an IharaReport; raises IdentityViolation on mismatch.
    """
    d = regularity(g)
    if d is None:
        raise InvalidParams("identity check needs a regular graph")
    counts = graph_counts(g)
    lhs = _hashimoto_charpoly(g)
    deficit = counts.vertices - counts.pairs
    if deficit > 0:
        lhs = polys.mul(polys.pow_([-1, 0, 1], deficit), lhs)
    rhs = _pencil_side(_adjacency_charpoly(g), d, counts)
    if lhs != rhs:
        raise IdentityViolation("Ihara identity failed", lhs=lhs, rhs=rhs)
    return IharaReport(True, lhs, rhs, counts.half_loops, d)


def essential_log_derivative_coeffs(g, K):
    """SeriesAtInfinity with c_k = Tr(H^k)(d-1)^(-k), k = 0..K, exact."""
    d = regularity(g)
    if d is None:
        raise InvalidParams("series needs a regular graph")
    if K < 0:
        raise ValueError("K must be nonnegative")
    coeffs = []
    for k in range(K + 1):
        t = tr_hashimoto_power(g, k)
        # d=1 graphs (bouquets of one half-loop per vertex) have H = 0, so
        # every positive trace vanishes and the 0^(-k) scale never bites
        coeffs.append(Fraction(0) if t == 0 else Fraction(t, (d - 1) ** k))
    return SeriesAtInfinity(coefficients=tuple(coeffs), truncation=K, d=d)


def _scaled_poles(g):
    """Poles of L: Hashimoto eigenvalues divided by d-1."""
    d = regularity(g)
    if d is None:
        raise InvalidParams("L is defined for regular graphs")
    if d == 1:
        # H = 0 for 1-regular graphs; every scaled eigenvalue is 0
        return np.zeros(g.directed_edge_count, dtype=complex), d
    return hashimoto_spectrum(g) / (d - 1), d


def _log_derivative(p, x):
    """p'(x)/p(x), exact for rational x; NearPole at a root of p."""
    den = polys.evaluate(p, x)
    if den == 0:
        raise NearPole(f"x = {x} is a root of the char poly")
    return Fraction(polys.evaluate(polys.derivative(p), x), den)


def evaluate_L(g, u):
    """L(u) = sum over Spec(H) of 1/(u - mu/(d-1)).

    Exact-rational u on a graph with at most EXACT_CHARPOLY_LIMIT vertices
    (the bound of hashimoto_char_poly's regular route) is evaluated exactly
    through the charpoly logarithmic derivative; other inputs go through
    the float spectrum, which raises NearPole within _MIN_POLE_DISTANCE of
    a pole.
    """
    if isinstance(u, (int, Fraction)) and g.vertex_count <= EXACT_CHARPOLY_LIMIT:
        d = regularity(g)
        if d is None:
            raise InvalidParams("L is defined for regular graphs")
        if d == 1:
            if u == 0:
                raise NearPole("u = 0 is the pole of L for 1-regular graphs")
            return Fraction(g.directed_edge_count) / Fraction(u)
        mu_poly, _ = hashimoto_char_poly(g)
        # L(u) = (d-1) q'((d-1)u)/q((d-1)u) for q = det(x I - H)
        return (d - 1) * _log_derivative(mu_poly, Fraction(u) * (d - 1))
    poles, _ = _scaled_poles(g)
    uz = complex(u)
    dist = np.abs(uz - poles)
    if dist.size and dist.min() < _MIN_POLE_DISTANCE:
        raise NearPole(f"u within {_MIN_POLE_DISTANCE} of a pole of L")
    return complex(np.sum(1.0 / (uz - poles)))


def minus_zeta_log_derivative(g, u):
    """-zeta'/zeta(u) = P'(u)/P(u) with P(u) = det(I - uH), evaluated
    exactly for rational u (independent of the L + e split)."""
    _, u_poly = hashimoto_char_poly(g)
    return _log_derivative(u_poly, Fraction(u))


@dataclass(frozen=True)
class RationalRemainder:
    """e(u) for a d-regular graph on n vertices, exact closed form."""

    n: int
    d: int

    def __call__(self, u):
        n, d = self.n, self.d
        u = Fraction(u) if isinstance(u, (int, Fraction)) else complex(u)
        den_a, den_b = u * u - 1, (d - 1) ** 2 * u * u - 1
        if den_a == 0 or den_b == 0:
            raise NearPole(f"u = {u} is a pole of e")
        return n * (d - 2) * (u / den_a - (d - 1) ** 2 * u / den_b)

    @property
    def poles(self):
        r = Fraction(1, self.d - 1)
        return (1, -1, r, -r)

    def series_coefficient(self, k):
        """Coefficient of u^(-1-k): (1 - (d-1)^(-k)) (1 + (-1)^k) n(d-2)/2."""
        n, d = self.n, self.d
        return (
            (1 - Fraction(1, (d - 1) ** k))
            * (1 + (-1) ** k)
            * Fraction(n * (d - 2), 2)
        )


def e_rational(n_vertices, d):
    """The rational remainder e(u) with -zeta'/zeta = L + e."""
    if d < 3:
        raise ValueError("remainder defined for d >= 3")
    return RationalRemainder(n_vertices, d)


def evaluate_e(n_vertices, d, u):
    return e_rational(n_vertices, d)(u)


def _rectangle_corners(spec, d):
    sq = np.sqrt(d - 1.0)
    a = (1 - spec.eps) / sq
    b = (1 + spec.eps) / sq
    if spec.sign < 0:
        a, b = -b, -a
    dl = spec.delta
    return [a - 1j * dl, b - 1j * dl, b + 1j * dl, a + 1j * dl]


def _pole_distances(poles, corners):
    """Distance of each pole to the rectangle's boundary, and whether the
    pole lies strictly inside."""
    x0, x1 = corners[0].real, corners[1].real
    y0, y1 = corners[0].imag, corners[3].imag
    re, im = poles.real, poles.imag
    dx = np.maximum(np.maximum(x0 - re, 0.0), re - x1)
    dy = np.maximum(np.maximum(y0 - im, 0.0), im - y1)
    outside = (dx > 0.0) | (dy > 0.0)
    to_side = np.minimum(np.minimum(re - x0, x1 - re), np.minimum(im - y0, y1 - im))
    inside = (x0 < re) & (re < x1) & (y0 < im) & (im < y1)
    return np.where(outside, np.hypot(dx, dy), to_side), inside


def contour_pole_count(g, spec, pole_clearance=None):
    """(numeric, exact) count of Hashimoto eigenvalues whose image mu/(d-1)
    lies inside the rectangle contour.

    numeric = (1/2 pi i) contour integral of L, per-side trapezoid with an
    Euler-Maclaurin endpoint correction from the closed-form derivative of
    L (the plain rule stalls at O(h^2) across the rectangle corners).
    The sums over poles and quadrature nodes are numpy's pairwise sums.

    A pole closer to the contour than pole_clearance raises
    NearContourPole.  The default is 3 quadrature steps of the longer side:
    the trapezoid error near a pole at distance rho is about
    exp(-2 pi rho / step), so a nearer pole could give a wrong count.
    A spec that fails ContourSpec.validate, or a pole_clearance that is
    neither None nor finite and >= 0, raises ValueError first.
    """
    spec.validate()
    if pole_clearance is not None and not (
            math.isfinite(pole_clearance) and pole_clearance >= 0):
        raise ValueError(
            f"pole_clearance must be None or finite and >= 0, not {pole_clearance!r}")
    poles, d = _scaled_poles(g)
    if d < 2:
        raise InvalidParams("contour counting needs d >= 2")
    corners = _rectangle_corners(spec, d)
    N = spec.quadrature_points
    if pole_clearance is None:
        longer = max(abs(corners[1] - corners[0]), abs(corners[3] - corners[0]))
        pole_clearance = 3.0 * longer / N
    dist, inside = _pole_distances(poles, corners)
    near = np.flatnonzero(dist < pole_clearance)
    if near.size:
        raise NearContourPole(
            f"pole {poles[near[0]]} within {pole_clearance} of the contour"
        )
    exact = int(np.count_nonzero(inside))

    h = 1.0 / N
    ts = np.linspace(0.0, 1.0, N + 1)
    total = 0.0 + 0.0j
    for i in range(4):
        z0, z1 = corners[i], corners[(i + 1) % 4]
        w = z1 - z0
        zs = z0 + w * ts
        f = (1.0 / (zs[:, None] - poles[None, :])).sum(axis=1)
        side = (0.5 * (f[0] + f[-1]) + f[1:-1].sum()) * h * w
        # endpoint correction: g(t) = L(z0 + w t) * w, g' = L'(z) w^2
        lp0 = -(1.0 / (z0 - poles) ** 2).sum()
        lp1 = -(1.0 / (z1 - poles) ** 2).sum()
        side -= (h * h / 12.0) * (lp1 - lp0) * w * w
        total += side
    numeric = total / (2j * np.pi)
    return ContourCount(numeric=complex(numeric), exact=exact)


class DivisorSumGeneratingFunction:
    """Generating function of the divisor-sum trace prediction:

        cP0(u) = sum_{k>=1} u^(-1-k) (d-1)^(-k) sum_{k'|k} (d-1)^(k'),

    split as 1/(u-1) + u/(u^2 - 1/(d-1)) + remainder, the remainder being
    analytic for |u| > (d-1)^(-2/3) (third-largest divisor is <= k/3).
    """

    def __init__(self, d):
        if d < 3:
            raise ValueError("needs d >= 3")
        self.d = d
        # c_k = t_k (d-1)^(-k) with t_k = sum_{k'|k, k'<=k/3} (d-1)^k' for
        # k = 1.._REMAINDER_TERMS: exact sums (a sieve over the divisors
        # k') rounded once to float
        q, terms = d - 1, _REMAINDER_TERMS
        tails = [0] * (terms + 1)
        for kp in range(1, terms // 3 + 1):
            power = q ** kp
            for k in range(3 * kp, terms + 1, kp):
                tails[k] += power
        self._coefficients = [
            float(Fraction(t, q ** k)) for k, t in enumerate(tails) if k]

    def leading(self, u):
        u = complex(u)
        return 1.0 / (u - 1.0) + u / (u * u - 1.0 / (self.d - 1))

    def remainder(self, u):
        """cP0(u) minus the two leading closed-form terms, by the series
        truncated after _REMAINDER_TERMS terms; valid for
        |u| > (d-1)^(-2/3)."""
        u = complex(u)
        # exact tail sum_k c_k u^(-1-k), by Horner in 1/u, minus the
        # single-power corrections absorbed by the closed forms
        v = 1.0 / u
        acc = 0.0 + 0.0j
        for c in reversed(self._coefficients):
            acc = (acc + c) * v
        return (acc - 2.0) * v

    def __call__(self, u):
        return self.leading(u) + self.remainder(u)


def cP0_residues(d):
    """Pole/residue report for the divisor-sum generating function."""
    gen = DivisorSumGeneratingFunction(d)
    r = (d - 1) ** (-0.5)
    return ResidueReport(
        d=d,
        poles=(1.0, r, -r),
        residues=(1.0, 0.5, 0.5),
        remainder_radius=(d - 1) ** (-2.0 / 3.0),
        function=gen,
    )


def integrate_circle(f, center, radius):
    """(1/2 pi i) closed-circle integral of f, trapezoid on the circle at
    _CIRCLE_POINTS nodes."""
    points = _CIRCLE_POINTS
    ts = np.arange(points) / points
    zs = center + radius * np.exp(2j * np.pi * ts)
    dz = 2j * np.pi * radius * np.exp(2j * np.pi * ts) / points
    vals = np.array([f(z) for z in zs], dtype=complex)
    return complex(np.sum(vals * dz) / (2j * np.pi))
