"""Coalescence of two Gaussian wave packets into oscillator eigenstates.

Two isotropic wave packets with centroids (r1, p1), (r2, p2) and common width
delta capture into a bound state of the relative-coordinate oscillator with a
probability that depends only on the relative separation r = r1 - r2 and
relative momentum p = (p1 - p2)/2.  The 1-D quasi-probabilities of `ho1d`
have rank one, P_{n' n} = conj(g_{n'}) g_n, so the relative state is a
product of three squeezed coherent states.  In the Bargmann representation
(V. Bargmann, Comm. Pure Appl. Math. 14 (1961) 187) it is
G0^3 exp(b.alpha + c alpha.alpha) with

    b = sqrt(2) (rho + i z^2 pi~)/(1+z^2),   c = (z^2 - 1)/(2 (1+z^2)),
    |G0|^6 = (2z/(1+z^2))^3 exp(-(rho^2 + z^2 pi~^2)/(1+z^2)),

rho = nu r, pi~ = p/(nu hbar), z = zeta = 2 delta nu.  Expanding
exp(b.alpha) in solid harmonics gives the m-summed probability of every
(k, l) level in closed form, with no coefficient matrix and no m-sum:

    P_kl = |G0|^6 n_kl |F_kl|^2 L_l,
    n_kl |F_kl|^2 = 2^k k! (2k+2l+1)!! (2l+1)
                    |sum_j B^j c^(k-j) / (2^j j! (2l+2j+1)!! (k-j)!)|^2,
    L_l = |B|^l P_l(|b|^2/|B|),

B = b.b (no conjugate), P_l the Legendre polynomial.  L_l runs on the
homogeneous recurrence (n+1) Q_{n+1} = (2n+1)|b|^2 Q_n - n|B|^2 Q_{n-1},
which needs no division and, as |b|^2 >= |B|, loses no digits to
cancellation.  A point enters only through rho.rho, pi~.pi~ and rho.pi~.

The paper's factorized expansion is kept for the m-resolved probability:
P_klm = |A_m|^2 with A_m = sum_t C_{klm, t} g_{t1} g_{t2} g_{t3} over the
product triples t of the shell, so P_klm >= 0 holds by construction, and
sum_m P_klm = P_kl checks the closed form level by level.

At matched scales (zeta = 1) c = 0, |b|^2 = v and |B|^2 = s = v^2 - t in the
invariants

    v = nu^2 r^2 / 2 + p^2 / (2 hbar^2 nu^2),
    t = |r x p|^2 / hbar^2:

e^v P_kl is a polynomial in v and s with exact rational coefficients
(`_husimi_terms`), the Husimi function of the (k, l) multiplet from which
`wigner3d` derives W_kl.  The levels of one energy shell N sum to the Poisson
weight e^{-v} v^N/N!, with the t dependence cancelling inside each shell.
The final bound-state momentum is distributed around P_i = p1 + p2 with the
Gaussian overlap factor J; in the semi-classical limit J becomes a delta
function.

`p_kl_oracle` recomputes P_kl by Gauss-Hermite quadrature of the wave-packet
overlap integrals against the closed-form 1-D Wigner functions, a route
independent of both the closed form and the amplitude recurrence of
`ho1d.quasi_amplitudes`.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .expansion import Ame, _coeff_matrix, bilinear_assemble, bilinear_table
from .ho1d import _wigner_poly, quasi_amplitudes
from .ho1d import quasi_prob_table  # unused here; perfbench/spans.py wraps this name
from .specfun import _gh_grid, double_factorial

__all__ = [
    "WavePacket",
    "PhasePoint",
    "canonical_points",
    "v_and_t",
    "j_overlap",
    "p_kl",
    "p_klm",
    "p_kl_batch",
    "p_kl_closed",
    "p_kl_oracle",
    "p_klm_differential",
    "poisson_sum",
    "shell_states",
]


@dataclass(frozen=True)
class WavePacket:
    """Isotropic Gaussian wave packet: centroids and spatial width."""

    centroid_r: tuple
    centroid_p: tuple
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "centroid_r", tuple(float(v) for v in self.centroid_r))
        object.__setattr__(self, "centroid_p", tuple(float(v) for v in self.centroid_p))
        if len(self.centroid_r) != 3 or len(self.centroid_p) != 3:
            raise ValueError("centroids must have three components")
        if self.delta <= 0:
            raise ValueError(f"width delta must be positive, got {self.delta}")


@dataclass(frozen=True)
class PhasePoint:
    """Phase-space point: the relative r = r1 - r2, p = (p1 - p2)/2 of two
    packets, and the Wigner argument (r, q) of `wigner3d` (`PhasePoint3D`)."""

    r_vec: tuple
    p_vec: tuple

    def __post_init__(self):
        object.__setattr__(self, "r_vec", tuple(float(v) for v in self.r_vec))
        object.__setattr__(self, "p_vec", tuple(float(v) for v in self.p_vec))
        if len(self.r_vec) != 3 or len(self.p_vec) != 3:
            raise ValueError("r_vec and p_vec must have three components")

    @classmethod
    def from_packets(cls, packet1, packet2):
        r = tuple(a - b for a, b in zip(packet1.centroid_r, packet2.centroid_r))
        p = tuple(0.5 * (a - b) for a, b in zip(packet1.centroid_p, packet2.centroid_p))
        return cls(r, p)

    @classmethod
    def from_invariants(cls, r, p, theta):
        """Canonical point with |r| = r, |p| = p and opening angle theta."""
        rel_r, rel_p = canonical_points([r], [p], [theta])
        return cls(rel_r[0], rel_p[0])


def canonical_points(r, p, theta):
    """(n, 3) r and p vectors with |r| = r, |p| = p at angle theta, r along x.

    `math.cos` per point, since numpy's vectorized cos may round differently.
    """
    cos = np.array([math.cos(th) for th in theta])
    sin = np.array([math.sin(th) for th in theta])
    zero = np.zeros(len(cos))
    return np.column_stack([r, zero, zero]), np.column_stack([p * cos, p * sin, zero])


def v_and_t(rel_r, rel_p, params):
    """Dimensionless invariants (v, t) of relative phase-space points.

    v = nu^2 r^2/2 + p^2/(2 hbar^2 nu^2) is the squared phase-space distance
    at matched scales; t = |r x p|^2 / hbar^2 is the squared classical
    relative angular momentum.  The cross product avoids the cancellation of
    p^2 r^2 - (p.r)^2 for nearly parallel vectors, so t >= 0 always.  One
    point of shape (3,) gives two floats, (n, 3) arrays give two arrays with
    the same bits per point.
    """
    r = np.asarray(rel_r, dtype=float)
    p = np.asarray(rel_p, dtype=float)
    nu, hbar = params.nu, params.hbar
    rxp = np.cross(r, p)
    v = 0.5 * (nu**2 * _dot(r, r) + _dot(p, p) / (hbar * nu) ** 2)
    t = _dot(rxp, rxp) / hbar**2
    return (float(v), float(t)) if v.ndim == 0 else (v, t)


def _dot(x, y):
    """Dot products over the last axis, one matrix product per point."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def j_overlap(p_i, p_f, delta, hbar=1.0):
    """Gaussian overlap of the centroid momentum P_i with final momentum P_f.

    J = delta^3/(pi^(3/2) hbar^3) exp(-delta^2 (P_f - P_i)^2 / hbar^2),
    normalized to one over d^3 P_f.
    """
    dp = np.asarray(p_f, dtype=float) - np.asarray(p_i, dtype=float)
    return (
        delta**3
        / (math.pi**1.5 * hbar**3)
        * math.exp(-(delta**2) * float(dp @ dp) / hbar**2)
    )


def shell_states(N):
    """All (k, l) levels of energy shell N."""
    return [(k, N - 2 * k) for k in range(N // 2 + 1)]


def p_klm(k, l, m, rel, params):
    """m-resolved coalescence probability into the state (k, l, m).

    |A_m|^2 of the factorized amplitude A_m = sum_t C_{klm, t} g_t1 g_t2 g_t3.
    """
    Ame(k, l, m)  # raises ValueError for a negative k or l, or |m| > l
    triples, cmat = _coeff_matrix(k, l)
    g = quasi_amplitudes(rel.r_vec, rel.p_vec, params, 2 * k + l)
    a = sum(c * (g[t.n1, 0] * g[t.n2, 1] * g[t.n3, 2]) for c, t in zip(cmat[m + l], triples))
    return float(a.real**2 + a.imag**2)


def p_kl(k, l, rel, params):
    """Coalescence probability into the (k, l) level, summed over m.

    Valid at any scale ratio zeta > 0; nonnegative by construction and
    bounded by the shell unitarity sum.
    """
    return float(p_kl_batch([(k, l)], [rel.r_vec], [rel.p_vec], params)[(k, l)][0])


@lru_cache(maxsize=None)
def _husimi_terms(k, l):
    """e^v P_kl at zeta = 1 as exact terms (i, j, c) of c v^i s^j, s = v^2 - t.

    The solid-harmonic expansion of the Bargmann coherent state (V. Bargmann,
    Comm. Pure Appl. Math. 14 (1961) 187) gives

        e^v P_kl = (2l+1) s^k L_l / (2^k k! (2k+2l+1)!!),
        L_l = 2^{-l} sum_{i <= l/2} (-1)^i C(l, i) C(2l-2i, l) v^{l-2i} s^i.
    """
    norm = Fraction(2 * l + 1, 2 ** (k + l) * math.factorial(k))
    norm /= double_factorial(2 * k + 2 * l + 1)
    return tuple(
        (l - 2 * i, k + i, norm * (-1) ** i * math.comb(l, i) * math.comb(2 * l - 2 * i, l))
        for i in range(l // 2 + 1)
    )


def p_kl_closed(k, l, v, t):
    """Closed-form P_kl at zeta = 1 for every level, e.g. P_10 = e^-v (v^2 - t)/6.

    Requires 0 <= t <= v^2 (Cauchy-Schwarz for the dimensionless invariants).
    """
    if k < 0 or l < 0:
        raise ValueError(f"no closed form for (k, l) = ({k}, {l}); k and l must be nonnegative")
    if v < 0 or t < -1e-12:
        raise ValueError(f"invariants must be nonnegative, got v={v}, t={t}")
    if t > v * v * (1 + 1e-9) + 1e-12:
        raise ValueError(f"t <= v^2 violated: v={v}, t={t}")
    s = v * v - t
    return math.exp(-v) * sum(float(c) * v**i * s**j for i, j, c in _husimi_terms(k, l))


def poisson_sum(N, rel, params):
    """Shell-summed probability sum_{2k+l=N} P_kl at zeta = 1.

    Equals the Poisson weight e^{-v} v^N / N!, independent of the angular
    invariant t; the test suite asserts the identity.
    """
    if abs(params.zeta - 1.0) > 1e-12:
        raise ValueError(f"shell Poisson sum requires zeta = 1, got {params.zeta}")
    return sum(p_kl(k, l, rel, params) for k, l in shell_states(N))


# Points per block of `p_kl_batch`: the temporaries of one block stay in cache
# and the memory in use does not grow with the number of points.
_BLOCK = 4096


def _f_weights(k, l, c):
    """Weights w_j of F_kl = sum_j w_j B^j, w_j = c^(k-j) / (2^j j! (2l+2j+1)!! (k-j)!)."""
    return [
        c ** (k - j)
        / (2**j * math.factorial(j) * double_factorial(2 * l + 2 * j + 1) * math.factorial(k - j))
        for j in range(k + 1)
    ]


def p_kl_batch(levels, rel_r, rel_p, params):
    """Vectorized P_kl for many relative points at once.

    `levels` is an iterable of (k, l); rel_r and rel_p have shape (n, 3).
    Returns {(k, l): ndarray of n probabilities} from the closed form
    P_kl = |G0|^6 n_kl |F_kl|^2 L_l of the module notes.  Where |G0|^6
    underflows, P_kl is 0.
    """
    levels = list(levels)
    if any(k < 0 or l < 0 for k, l in levels):
        raise ValueError(f"levels need nonnegative k and l, got {levels}")
    rel_r = np.asarray(rel_r, dtype=float)
    rel_p = np.asarray(rel_p, dtype=float)
    if rel_r.ndim != 2 or rel_r.shape[1] != 3 or rel_p.shape != rel_r.shape:
        raise ValueError(
            f"rel_r and rel_p must both have shape (n, 3), got {rel_r.shape} and {rel_p.shape}"
        )
    z = params.zeta
    s = 1.0 + z * z
    c = (z * z - 1.0) / (2.0 * s)
    weights = {(k, l): _f_weights(k, l, c) for k, l in levels}
    norm = {
        (k, l): 2**k * math.factorial(k) * double_factorial(2 * k + 2 * l + 1) * (2 * l + 1)
        for k, l in levels
    }
    lmax = max((l for _, l in levels), default=0)
    n = rel_r.shape[0]
    out = {lv: np.empty(n) for lv in levels}
    for lo in range(0, n, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        rho = rel_r[block] * params.nu
        pit = rel_p[block] / (params.nu * params.hbar)
        # far points: |G0|^6 underflows to 0 while the polynomial overflows
        with np.errstate(over="ignore", invalid="ignore"):
            rr, pp, rp = _dot(rho, rho), _dot(pit, pit), _dot(rho, pit)
            g6 = (2.0 * z / s) ** 3 * np.exp(-(rr + z * z * pp) / s)
            b2 = 2.0 * (rr + z**4 * pp) / s**2
            bb = 2.0 * (rr - z**4 * pp + 2j * z * z * rp) / s**2
            bb2 = bb.real**2 + bb.imag**2
            q = [1.0, b2]
            for i in range(1, lmax):
                q.append(((2 * i + 1) * b2 * q[i] - i * bb2 * q[i - 1]) / (i + 1))
            for k, l in levels:
                w = weights[(k, l)]
                f = w[k]
                for j in range(k - 1, -1, -1):
                    f = f * bb + w[j]
                val = g6 * norm[(k, l)] * (f.real**2 + f.imag**2) * q[l]
                out[(k, l)][block] = np.where(g6 == 0.0, 0.0, val)
    return out


def p_klm_differential(k, l, m, p_f, packets, params):
    """Differential probability density in the final bound-state momentum.

    d P / d^3 P_f for capture into (k, l, m) with final momentum near p_f;
    the total over p_f and m recovers p_kl.  `packets` is the pair of
    incoming wave packets.
    """
    packet1, packet2 = packets
    rel = PhasePoint.from_packets(packet1, packet2)
    p_i = tuple(a + b for a, b in zip(packet1.centroid_p, packet2.centroid_p))
    return j_overlap(p_i, p_f, params.delta, params.hbar) * p_klm(k, l, m, rel, params)


# ---------------------------------------------------------------------------
# Independent quadrature oracle.

def _quasi_prob_quad(n_prime, n, r_i, p_i, params):
    """1-D quasi-probability by quadrature of the Wigner-overlap integral.

    P_{n' n} = 2 e^{-r^2/(4 d^2) - 4 d^2 p^2/h^2} Int dx dq W_{n' n}(x, q)
               e^{-x^2/(4 d^2) + x r/(2 d^2)} e^{-4 d^2 q^2/h^2 + 8 d^2 q p/h^2};
    the Gaussians are completed to squares and the polynomial remainder is
    integrated exactly by Gauss-Hermite.  Independent of the amplitude
    recurrence behind `quasi_prob`.

    Carries the phase convention of the transform-defined W_{n' n}, which is
    the conjugate of the quasi_prob convention for n' != n (see the ho1d
    module notes); diagonal entries and bilinear assemblies agree directly.
    """
    nu, hbar, d = params.nu, params.hbar, params.delta
    t, w = _gh_grid(n_prime + n + 8, 1)
    t = t[:, 0]
    ax = nu**2 + 1.0 / (4 * d * d)
    bx = r_i / (2 * d * d)
    ak = 1.0 / (hbar * nu) ** 2 + 4 * d * d / hbar**2
    bk = 8 * d * d * p_i / hbar**2
    xs = t / math.sqrt(ax) + bx / (2 * ax)
    ks = t / math.sqrt(ak) + bk / (2 * ak)
    xi = nu * xs
    eta = ks / (hbar * nu)
    lo, hi = min(n_prime, n), max(n_prime, n)
    base = _wigner_poly(lo, hi, xi[:, None], eta[None, :])
    if n_prime > n:
        base = np.conj(base)
    total = np.sum(np.outer(w, w) * base) / (math.pi * hbar)
    total *= (
        2.0
        * math.exp(
            -r_i**2 / (4 * d * d)
            - 4 * d * d * p_i**2 / hbar**2
            + bx * bx / (4 * ax)
            + bk * bk / (4 * ak)
        )
        / math.sqrt(ax * ak)
    )
    return complex(total)


def p_kl_oracle(k, l, rel, params):
    """P_kl by per-axis quadrature of the six-fold overlap integral.

    The factorized expansion splits the 6-D integral into three 2-D
    integrals per term; each 2-D factor is evaluated with `_quasi_prob_quad`
    (closed-form Wigner functions under exact Gauss-Hermite quadrature)
    instead of the amplitude recurrence used by `p_kl`.
    """
    N = 2 * k + l
    triples, table = bilinear_table(k, l)
    axis = []
    for i in range(3):
        mat = np.empty((N + 1, N + 1), dtype=complex)
        for a in range(N + 1):
            for b in range(N + 1):
                mat[a, b] = _quasi_prob_quad(a, b, rel.r_vec[i], rel.p_vec[i], params)
        axis.append(mat)
    return bilinear_assemble(table, triples, *axis).real
