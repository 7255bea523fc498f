"""Coalescence of two Gaussian wave packets into oscillator eigenstates.

Two isotropic wave packets with centroids (r1, p1), (r2, p2) and common width
delta capture into a bound state of the relative-coordinate oscillator with a
probability that depends only on the relative separation r = r1 - r2 and
relative momentum p = (p1 - p2)/2.  The m-summed probability into the (k, l)
level factorizes over the cartesian axes,

    P_kl = sum_m sum_{t, t'} conj(C_{klm, t'}) C_{klm, t}
           P_{t1' t1}(r1, p1) P_{t2' t2}(r2, p2) P_{t3' t3}(r3, p3),

with the 1-D quasi-probabilities of `ho1d`.  Each of those has rank one,
P_{n' n} = conj(g_{n'}) g_n, so the double sum collapses to squared level
amplitudes,

    P_kl = sum_m |A_m|^2,
    A_m = sum_t C_{klm, t} g_{t1}(r1, p1) g_{t2}(r2, p2) g_{t3}(r3, p3),

which makes P_kl >= 0 hold by construction and gives P_klm = |A_m|^2 for
free.  At matched scales (zeta = 1) the six levels with 2k + l <= 3 reduce
to closed forms in the two invariants

    v = nu^2 r^2 / 2 + p^2 / (2 hbar^2 nu^2),
    t = |r x p|^2 / hbar^2,

and the levels of one energy shell N sum to the Poisson weight e^{-v} v^N/N!,
with the t dependence cancelling inside each shell.  The final bound-state
momentum is distributed around P_i = p1 + p2 with the Gaussian overlap factor
J; in the semi-classical limit J becomes a delta function.

`p_kl_oracle` recomputes P_kl by Gauss-Hermite quadrature of the wave-packet
overlap integrals against the closed-form 1-D Wigner functions, a route
independent of the amplitude recurrence of `ho1d.quasi_amplitudes`.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .expansion import _coeff_matrix, bilinear_assemble, bilinear_table
from .ho1d import _wigner_poly, quasi_amplitudes
from .ho1d import quasi_prob_table  # unused here; perfbench/spans.py wraps this name

__all__ = [
    "WavePacket",
    "PhasePoint",
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
    """Relative phase-space coordinates r = r1 - r2, p = (p1 - p2)/2."""

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
        return cls((r, 0.0, 0.0), (p * math.cos(theta), p * math.sin(theta), 0.0))

    def invariants(self, params):
        return v_and_t(self.r_vec, self.p_vec, params)


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
    v = 0.5 * (nu**2 * _norm2(r) + _norm2(p) / (hbar * nu) ** 2)
    t = _norm2(np.cross(r, p)) / hbar**2
    return (float(v), float(t)) if v.ndim == 0 else (v, t)


def _norm2(x):
    """Squared norms over the last axis, one dot product per point."""
    return np.matmul(x[..., None, :], x[..., :, None])[..., 0, 0]


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


def _level_amplitudes(k, l, g):
    """A[m + l, i] = sum_t C_{klm, t} g[t1, 0, i] g[t2, 1, i] g[t3, 2, i].

    `g` is the `quasi_amplitudes` array of shape (nmax+1, 3, n), the three
    axes of n relative points; the level probabilities are |A|^2.  The sum
    over t runs in a fixed order on elementwise products, without BLAS, so a
    point's amplitude does not depend on which other points come with it.
    """
    triples, cmat = _coeff_matrix(k, l)
    a = np.zeros((2 * l + 1,) + g.shape[2:], dtype=complex)
    for j, t in enumerate(triples):
        a += cmat[:, j, None] * (g[t.n1, 0] * g[t.n2, 1] * g[t.n3, 2])
    return a


def p_klm(k, l, m, rel, params):
    """m-resolved coalescence probability into the state (k, l, m)."""
    if abs(m) > l:
        raise ValueError(f"|m| must not exceed l, got l={l}, m={m}")
    r = np.asarray(rel.r_vec, dtype=float)[:, None]
    p = np.asarray(rel.p_vec, dtype=float)[:, None]
    a = _level_amplitudes(k, l, quasi_amplitudes(r, p, params, 2 * k + l))[m + l, 0]
    return float(a.real**2 + a.imag**2)


def p_kl(k, l, rel, params):
    """Coalescence probability into the (k, l) level, summed over m.

    Valid at any scale ratio zeta > 0; nonnegative by construction and
    bounded by the shell unitarity sum.
    """
    return float(p_kl_batch([(k, l)], [rel.r_vec], [rel.p_vec], params)[(k, l)][0])


_CLOSED_P = {
    (0, 0): lambda v, t: 1.0,
    (0, 1): lambda v, t: v,
    (0, 2): lambda v, t: 0.5 * (2.0 / 3.0 * v * v + t / 3.0),
    (1, 0): lambda v, t: 0.5 * (v * v / 3.0 - t / 3.0),
    (0, 3): lambda v, t: (0.4 * v**3 + 0.6 * v * t) / 6.0,
    (1, 1): lambda v, t: (0.6 * v**3 - 0.6 * v * t) / 6.0,
}


def p_kl_closed(k, l, v, t):
    """Closed-form probabilities at zeta = 1 for the shells N = 2k + l <= 3.

    P_00 = e^-v,            P_01 = e^-v v,
    P_02 = e^-v (2v^2 + t)/6,     P_10 = e^-v (v^2 - t)/6,
    P_03 = e^-v (2v^3 + 3vt)/30,  P_11 = e^-v (3v^3 - 3vt)/30.
    Requires 0 <= t <= v^2 (Cauchy-Schwarz for the dimensionless invariants).
    """
    if (k, l) not in _CLOSED_P:
        raise ValueError(f"no closed form for (k, l) = ({k}, {l}); shells N <= 3 only")
    if v < 0 or t < -1e-12:
        raise ValueError(f"invariants must be nonnegative, got v={v}, t={t}")
    if t > v * v * (1 + 1e-9) + 1e-12:
        raise ValueError(f"t <= v^2 violated: v={v}, t={t}")
    return math.exp(-v) * _CLOSED_P[(k, l)](v, t)


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


def p_kl_batch(levels, rel_r, rel_p, params):
    """Vectorized P_kl for many relative points at once.

    `levels` is an iterable of (k, l); rel_r and rel_p have shape (n, 3).
    Returns {(k, l): ndarray of n probabilities}, each the m-sum of the
    squared level amplitudes built from the per-axis quasi-probability
    amplitudes.
    """
    rel_r = np.asarray(rel_r, dtype=float)
    rel_p = np.asarray(rel_p, dtype=float)
    levels = list(levels)
    nmax = max(2 * k + l for k, l in levels)
    n = rel_r.shape[0]
    out = {lv: np.zeros(n) for lv in levels}
    for lo in range(0, n, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        g = quasi_amplitudes(rel_r[block].T, rel_p[block].T, params, nmax)
        for k, l in levels:
            total = out[(k, l)][block]
            for a in _level_amplitudes(k, l, g):
                total += a.real**2 + a.imag**2
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

@lru_cache(maxsize=8)
def _gh_nodes(n):
    return np.polynomial.hermite.hermgauss(n)


def _quasi_prob_quad(n_prime, n, r_i, p_i, params, nodes=None):
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
    if nodes is None:
        nodes = n_prime + n + 8
    t, w = _gh_nodes(nodes)
    ax = nu**2 + 1.0 / (4 * d * d)
    bx = r_i / (2 * d * d)
    ak = 1.0 / (hbar * nu) ** 2 + 4 * d * d / hbar**2
    bk = 8 * d * d * p_i / hbar**2
    xs = t / math.sqrt(ax) + bx / (2 * ax)
    ks = t / math.sqrt(ak) + bk / (2 * ak)
    xi = nu * xs
    eta = ks / (hbar * nu)
    lo, hi = min(n_prime, n), max(n_prime, n)
    base = np.array([[_wigner_poly(lo, hi, a, b) for b in eta] for a in xi])
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
    triples, table = bilinear_table(k, l, m_averaged=False)
    axis = []
    for i in range(3):
        mat = np.empty((N + 1, N + 1), dtype=complex)
        for a in range(N + 1):
            for b in range(N + 1):
                mat[a, b] = _quasi_prob_quad(a, b, rel.r_vec[i], rel.p_vec[i], params)
        axis.append(mat)
    return bilinear_assemble(table, triples, *axis).real
