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

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import polys
from .charpoly import EXACT_CHARPOLY_LIMIT, charpoly
from .errors import (
    IdentityViolation,
    MethodUnsupported,
    NearContourPole,
    NearPole,
    TooLarge,
)
from .graphs import adjacency_matrix, graph_counts, hashimoto_matrix, regularity
from .spectra import DENSE_EIG_LIMIT, hashimoto_spectrum
from .traces import tr_hashimoto_power


@dataclass(frozen=True)
class ContourSpec:
    """Rectangle |1 - sign*x*sqrt(d-1)| <= eps, |y| <= delta, counterclockwise."""

    eps: float
    delta: float
    sign: int = +1
    quadrature_points: int = 512


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

    def to_json_dict(self):
        return {
            "d": self.d,
            "poles": list(self.poles),
            "residues": list(self.residues),
            "remainder_radius": self.remainder_radius,
        }


def hashimoto_char_poly(g, limit=EXACT_CHARPOLY_LIMIT):
    """(det(mu I - H), det(I - u H)) as exact ascending coefficient lists.

    The two are coefficient reversals of one another since det(mu I - H)
    is monic of degree |E^dir|.
    """
    m = g.directed_edge_count
    if m > limit:
        raise TooLarge(f"exact char poly limited to {limit} directed edges")
    mu_poly = charpoly(hashimoto_matrix(g), limit=limit)
    u_poly = polys.reciprocal(mu_poly, degree=m)
    return mu_poly, u_poly


def _quadratic_pencil_det(adj_poly, n, c):
    """det(mu^2 I - mu A + c I) from the charpoly p_A of A:
    substitute x = (mu^2 + c)/mu, i.e. sum_k a_k (mu^2+c)^k mu^(n-k)."""
    out = []
    base = [c, 0, 1]  # mu^2 + c
    for k, a in enumerate(adj_poly):
        if a == 0:
            continue
        term = polys.scale(polys.mul(polys.pow_(base, k), [0] * (n - k) + [1]), a)
        out = polys.add(out, term)
    return out


def verify_ihara(g, limit=EXACT_CHARPOLY_LIMIT):
    """Check the determinant identity linking H and A coefficient-exactly.

    Half-loop-free: det(I - uH) = det(I - uA + u^2(d-1)I) (1-u^2)^(-chi).
    With half-loops: det(mu I - H) (mu^2-1)^(max(0, |V|-|pair|)) =
        det(mu^2 I - mu A + (d-1)I) (mu+1)^(|half|)
        (mu^2-1)^(max(0, |pair|-|V|)),
    i.e. the identity with exponent |pair| - |V| after clearing
    denominators.

    Returns an IharaReport; raises IdentityViolation on mismatch.
    """
    d = regularity(g)
    if d is None:
        raise MethodUnsupported("identity check needs a regular graph")
    counts = graph_counts(g)
    adj_poly = charpoly(adjacency_matrix(g), limit=limit)
    n = g.vertex_count
    if counts.half_loops == 0:
        _, u_poly = hashimoto_char_poly(g, limit=limit)
        # det(I - uA + (d-1)u^2 I) is the reversal of the degree-2n mu-form
        rhs = polys.reciprocal(_quadratic_pencil_det(adj_poly, n, d - 1), 2 * n)
        chi = counts.euler_characteristic
        one_minus_u2 = [1, 0, -1]
        if chi <= 0:
            rhs = polys.mul(rhs, polys.pow_(one_minus_u2, -chi))
            lhs = u_poly
        else:
            lhs = polys.mul(u_poly, polys.pow_(one_minus_u2, chi))
        if lhs != rhs:
            raise IdentityViolation("Ihara identity failed", lhs=lhs, rhs=rhs)
        return IharaReport(True, lhs, rhs, 0, d)
    mu_poly, _ = hashimoto_char_poly(g, limit=limit)
    pencil = _quadratic_pencil_det(adj_poly, n, d - 1)
    rhs = polys.mul(pencil, polys.pow_([1, 1], counts.half_loops))
    mu2_minus_1 = [-1, 0, 1]
    extra = counts.pairs - counts.vertices
    lhs = mu_poly
    if extra >= 0:
        rhs = polys.mul(rhs, polys.pow_(mu2_minus_1, extra))
    else:
        lhs = polys.mul(lhs, polys.pow_(mu2_minus_1, -extra))
    if lhs != rhs:
        raise IdentityViolation(
            "half-loop Ihara identity failed", lhs=lhs, rhs=rhs
        )
    return IharaReport(True, lhs, rhs, counts.half_loops, d)


def essential_log_derivative_coeffs(g, K):
    """SeriesAtInfinity with c_k = Tr(H^k)(d-1)^(-k), k = 0..K, exact."""
    d = regularity(g)
    if d is None:
        raise MethodUnsupported("series needs a regular graph")
    if K < 0:
        raise ValueError("K must be nonnegative")
    coeffs = []
    for k in range(K + 1):
        t = tr_hashimoto_power(g, k)
        # d=1 graphs (bouquets of one half-loop per vertex) have H = 0, so
        # every positive trace vanishes and the 0^(-k) scale never bites
        coeffs.append(Fraction(0) if t == 0 else Fraction(t, (d - 1) ** k))
    return SeriesAtInfinity(coefficients=tuple(coeffs), truncation=K, d=d)


def _scaled_poles(g, limit=DENSE_EIG_LIMIT):
    """Poles of L: Hashimoto eigenvalues divided by d-1."""
    d = regularity(g)
    if d is None:
        raise MethodUnsupported("L is defined for regular graphs")
    if d == 1:
        # H = 0 for 1-regular graphs; every scaled eigenvalue is 0
        return np.zeros(g.directed_edge_count, dtype=complex), d
    return hashimoto_spectrum(g, limit=limit) / (d - 1), d


def evaluate_L(g, u, min_pole_distance=1e-12):
    """L(u) = sum over Spec(H) of 1/(u - mu/(d-1)).

    Exact-rational u on a graph within the exact charpoly limit is
    evaluated exactly through the charpoly logarithmic derivative; other
    inputs go through the float spectrum.
    """
    if isinstance(u, (int, Fraction)) and g.directed_edge_count <= EXACT_CHARPOLY_LIMIT:
        d = regularity(g)
        if d is None:
            raise MethodUnsupported("L is defined for regular graphs")
        if d == 1:
            if u == 0:
                raise NearPole("u = 0 is the pole of L for 1-regular graphs")
            return Fraction(g.directed_edge_count) / Fraction(u)
        mu_poly, _ = hashimoto_char_poly(g)
        # L(u) = (d-1) q'((d-1)u)/q((d-1)u) for q = det(x I - H)
        x = Fraction(u) * (d - 1)
        den = polys.evaluate(mu_poly, x)
        if den == 0:
            raise NearPole(f"u = {u} is a pole of L")
        num = polys.evaluate(polys.derivative(mu_poly), x)
        return (d - 1) * Fraction(num, den)
    poles, _ = _scaled_poles(g)
    uz = complex(u)
    dist = np.abs(uz - poles)
    if dist.size and dist.min() < min_pole_distance:
        raise NearPole(f"u within {min_pole_distance} of a pole of L")
    return complex(np.sum(1.0 / (uz - poles)))


def minus_zeta_log_derivative(g, u):
    """-zeta'/zeta(u) = P'(u)/P(u) with P(u) = det(I - uH), evaluated
    exactly for rational u (independent of the L + e split)."""
    _, u_poly = hashimoto_char_poly(g)
    x = Fraction(u)
    den = polys.evaluate(u_poly, x)
    if den == 0:
        raise NearPole(f"u = {u} is a pole of zeta'/zeta")
    num = polys.evaluate(polys.derivative(u_poly), x)
    return Fraction(num, den)


@dataclass(frozen=True)
class RationalRemainder:
    """e(u) for a d-regular graph on n vertices, exact closed form."""

    n: int
    d: int

    def __call__(self, u):
        n, d = self.n, self.d
        if isinstance(u, (int, Fraction)):
            u = Fraction(u)
            a = u / (u * u - 1)
            b = (d - 1) ** 2 * u / ((d - 1) ** 2 * u * u - 1)
            return n * (d - 2) * (a - b)
        u = complex(u)
        a = u / (u * u - 1)
        b = (d - 1) ** 2 * u / ((d - 1) ** 2 * u * u - 1)
        return n * (d - 2) * (a - b)

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


def _inside_rectangle(z, corners):
    x0, x1 = corners[0].real, corners[1].real
    y0, y1 = corners[0].imag, corners[3].imag
    return (x0 < z.real < x1) and (y0 < z.imag < y1)


def _distance_to_rectangle_boundary(z, corners):
    x0, x1 = corners[0].real, corners[1].real
    y0, y1 = corners[0].imag, corners[3].imag
    dx = max(x0 - z.real, 0.0, z.real - x1)
    dy = max(y0 - z.imag, 0.0, z.imag - y1)
    if dx > 0.0 or dy > 0.0:
        return np.hypot(dx, dy)
    return min(z.real - x0, x1 - z.real, z.imag - y0, y1 - z.imag)


def contour_pole_count(g, spec, pole_clearance=1e-9):
    """(numeric, exact) count of Hashimoto eigenvalues whose image mu/(d-1)
    lies inside the rectangle contour.

    numeric = (1/2 pi i) contour integral of L, per-side trapezoid with an
    Euler-Maclaurin endpoint correction from the closed-form derivative of
    L (the plain rule stalls at O(h^2) across the rectangle corners).
    Sums are compensated so the result is deterministic.
    """
    poles, d = _scaled_poles(g)
    if d < 2:
        raise MethodUnsupported("contour counting needs d >= 2")
    corners = _rectangle_corners(spec, d)
    if spec.eps <= 0 or spec.delta <= 0:
        raise ValueError("eps and delta must be positive")
    for z in poles:
        if _distance_to_rectangle_boundary(complex(z), corners) < pole_clearance:
            raise NearContourPole(
                f"pole {z} within {pole_clearance} of the contour"
            )
    exact = sum(1 for z in poles if _inside_rectangle(complex(z), corners))

    N = spec.quadrature_points
    total = 0.0 + 0.0j
    for i in range(4):
        z0, z1 = corners[i], corners[(i + 1) % 4]
        w = z1 - z0
        ts = np.linspace(0.0, 1.0, N + 1)
        zs = z0 + w * ts
        vals = 1.0 / (zs[:, None] - poles[None, :])
        f = _compensated_rowsum(vals)
        h = 1.0 / N
        side = (0.5 * (f[0] + f[-1]) + _compensated_sum(f[1:-1])) * h * w
        # endpoint correction: g(t) = L(z0 + w t) * w, g' = L'(z) w^2
        lp0 = -_compensated_sum(1.0 / (z0 - poles) ** 2)
        lp1 = -_compensated_sum(1.0 / (z1 - poles) ** 2)
        side -= (h * h / 12.0) * (lp1 - lp0) * w * w
        total += side
    numeric = total / (2j * np.pi)
    return ContourCount(numeric=complex(numeric), exact=int(exact))


def _compensated_sum(values):
    s = 0.0 + 0.0j
    c = 0.0 + 0.0j
    for v in np.asarray(values, dtype=complex):
        y = v - c
        t = s + y
        c = (t - s) - y
        s = t
    return s


def _compensated_rowsum(mat):
    out = np.empty(mat.shape[0], dtype=complex)
    for i in range(mat.shape[0]):
        out[i] = _compensated_sum(mat[i])
    return out


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

    def leading(self, u):
        u = complex(u)
        return 1.0 / (u - 1.0) + u / (u * u - 1.0 / (self.d - 1))

    def remainder(self, u, terms=200):
        """cP0(u) minus the two leading closed-form terms, by truncated
        series; valid for |u| > (d-1)^(-2/3)."""
        u = complex(u)
        d = self.d
        # exact tail: sum_k u^(-1-k) (d-1)^(-k) [sum_{k'|k, k'<=k/3} (d-1)^k']
        # minus the single-power corrections absorbed by the closed forms
        acc = 0.0 + 0.0j
        for k in range(1, terms + 1):
            tail = sum(
                (d - 1) ** kp for kp in range(1, k // 3 + 1) if k % kp == 0
            )
            acc += u ** (-1 - k) * tail * (d - 1) ** (-k)
        return acc - 2.0 / u

    def __call__(self, u, terms=200):
        return self.leading(u) + self.remainder(u, terms=terms)


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


def integrate_circle(f, center, radius, points=2048):
    """(1/2 pi i) closed-circle integral of f, trapezoid on the circle."""
    ts = np.arange(points) / points
    zs = center + radius * np.exp(2j * np.pi * ts)
    dz = 2j * np.pi * radius * np.exp(2j * np.pi * ts) / points
    vals = np.array([f(z) for z in zs], dtype=complex)
    return complex(np.sum(vals * dz) / (2j * np.pi))
