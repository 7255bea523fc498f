"""3-D angular-momentum eigenstates and their phase-space distributions.

The diagonal Wigner distribution of an eigenstate (k, l, m) factorizes over
the expansion into products of 1-D eigenfunctions,

    W_klm(r, q) = sum_{t, t'} conj(C_{klm, t'}) C_{klm, t}
                  W_{t1' t1}(r1, q1) W_{t2' t2}(r2, q2) W_{t3' t3}(r3, q3),

and the m-average W_kl = (1/(2l+1)) sum_m W_klm needs only the bilinear
coefficient pairings.  W_kl is rotation invariant and symmetric under
nu r <-> q/(hbar nu); it depends on the point only through the invariants

    a = nu^2 r^2,  b = q^2/(hbar nu)^2,  c = (r.q)^2/hbar^2.

For each (k, l) the ratio W_kl / W_00 is a polynomial in (a, b, c) with
rational coefficients.  `derive_invariant_poly` computes it exactly from the
zeta = 1 coalescence probability: in the reduced variables x = (xi, eta),
P_kl(x) = 8 sum_m int W_klm(y) e^{-|y-x|^2} d^6y, so
e^v P_kl = (2l+1) (e^{Delta/8} P)(x/2) with the 6-D Laplacian Delta, and the
inverse heat flow P(x) = (e^{-Delta/2} e^v P_kl)(2x) / (2l+1) is a finite
series on polynomials.  Every W_kl here, `wigner_kl_closed` and `export_grid`
included, evaluates that derivation; no coefficient table is stored.  The
phase-space integral of each derived polynomial is 1 exactly, by a moment
identity (`_normalization_exact`).  Two terms of the commonly tabulated
printed forms for the (0,3) and (1,1) states fail the nu r <-> q/(hbar nu)
mirror symmetry; the derivation fixes both (see `REFERENCE_TABULATION_NOTES`).
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .expansion import Ame, _coeff_matrix, bilinear_assemble, bilinear_table
from .expansion import d_coeff_reduced  # unused here; perfbench/spans.py wraps this name
from .ho1d import Phase1D, wigner_1d
from .specfun import _gh_grid, assoc_laguerre, double_factorial, spherical_harmonic

__all__ = [
    "PhasePoint3D",
    "WignerGrid",
    "psi_klm",
    "wigner_klm",
    "wigner_kl",
    "wigner_kl_closed",
    "wigner_klm_oracle",
    "wigner_kl_oracle",
    "derive_invariant_poly",
    "export_grid",
    "level_crossings",
    "CLOSED_FORM_STATES",
]


@dataclass(frozen=True)
class PhasePoint3D:
    """Phase-space point (r, q) in 3-D, stored as plain tuples."""

    r_vec: tuple
    q_vec: tuple

    def __post_init__(self):
        object.__setattr__(self, "r_vec", tuple(float(v) for v in self.r_vec))
        object.__setattr__(self, "q_vec", tuple(float(v) for v in self.q_vec))
        if len(self.r_vec) != 3 or len(self.q_vec) != 3:
            raise ValueError("r_vec and q_vec must have three components")

    @classmethod
    def from_invariants(cls, r, q, theta):
        """Canonical representative with |r| = r, |q| = q, angle theta."""
        return cls((r, 0.0, 0.0), (q * math.cos(theta), q * math.sin(theta), 0.0))

    @property
    def r2(self):
        return sum(v * v for v in self.r_vec)

    @property
    def q2(self):
        return sum(v * v for v in self.q_vec)

    @property
    def rq(self):
        return sum(a * b for a, b in zip(self.r_vec, self.q_vec))

    @property
    def cos_theta(self):
        rr = math.sqrt(self.r2)
        qq = math.sqrt(self.q2)
        if rr == 0 or qq == 0:
            return 0.0
        return self.rq / (rr * qq)


def psi_klm(state, r, theta, phi, params):
    """Angular-momentum eigenfunction Psi_klm(r, theta, phi), L2-normalized."""
    k, l, m = state.k, state.l, state.m
    nu = params.nu
    pref = math.sqrt(
        nu**3
        * 2.0 ** (k + l + 2)
        * math.factorial(k)
        / (math.sqrt(math.pi) * float(double_factorial(2 * k + 2 * l + 1)))
    )
    x = nu * np.asarray(r, dtype=float)
    out = (
        pref
        * x**l
        * np.exp(-0.5 * x * x)
        * assoc_laguerre(k, l + Fraction(1, 2), x * x)
        * spherical_harmonic(l, m, theta, phi)
    )
    if np.ndim(out) == 0:
        return complex(out)
    return out


def _psi_cartesian(state, xyz, params):
    """Psi_klm at cartesian points, xyz of shape (..., 3)."""
    xyz = np.asarray(xyz, dtype=float)
    x, y, z = xyz[..., 0], xyz[..., 1], xyz[..., 2]
    r = np.sqrt(x * x + y * y + z * z)
    with np.errstate(invalid="ignore"):
        ct = np.divide(z, r, out=np.zeros_like(r), where=r > 0)
    theta = np.arccos(np.clip(ct, -1.0, 1.0))
    phi = np.arctan2(y, x)
    out = psi_klm(state, r, theta, phi, params)
    if state.l > 0:
        out = np.where(r > 0, out, 0.0)
    return out


def _wigner_1d_matrix(nmax, x, q, params):
    """W_{n' n}(x, q) for all n', n <= nmax as a complex matrix."""
    ph = Phase1D(x, q)
    mat = np.empty((nmax + 1, nmax + 1), dtype=complex)
    for np_ in range(nmax + 1):
        for n in range(np_, nmax + 1):
            v = wigner_1d(np_, n, ph, params)
            mat[np_, n] = v
            mat[n, np_] = v.conjugate()
    return mat


def _axis_matrices(N, pt, params):
    """The three per-axis matrices W_{n' n}(r_i, q_i), n', n <= N."""
    return [_wigner_1d_matrix(N, pt.r_vec[i], pt.q_vec[i], params) for i in range(3)]


def wigner_klm(state, pt, params):
    """m-resolved Wigner distribution W_klm at one phase-space point.

    Assembled from the factorized expansion; the diagonal combination is real
    up to roundoff (about 1e-16 relative) and is returned as complex so the
    residue stays observable.
    """
    triples, mat = _coeff_matrix(state.k, state.l)
    cvec = mat[state.m + state.l]
    mats = _axis_matrices(state.energy_quantum, pt, params)
    return bilinear_assemble(np.outer(np.conj(cvec), cvec), triples, *mats)


def wigner_kl(k, l, pt, params):
    """m-averaged Wigner distribution W_kl = (1/(2l+1)) sum_m W_klm."""
    triples, table = bilinear_table(k, l)
    mats = _axis_matrices(2 * k + l, pt, params)
    return bilinear_assemble(table / (2 * l + 1), triples, *mats).real


# ---------------------------------------------------------------------------
# Exact derivation of the invariant polynomials W_kl / W_00.

def _invariant_basis(N):
    """Monomials a^i b^j c^h of degree 2(i + j) + 4h <= 2N, in a fixed order."""
    return [(i, j, h) for h in range(N // 2 + 1) for i in range(N - 2 * h + 1)
            for j in range(N - 2 * h - i + 1)]


def _mul(p, q):
    """Product of two polynomials {(i, j, h): Fraction} in (a, b, c)."""
    out = {}
    for (i1, j1, h1), c1 in p.items():
        for (i2, j2, h2), c2 in q.items():
            key = (i1 + i2, j1 + j2, h1 + h2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _husimi_poly(k, l):
    """p = e^v P_kl at zeta = 1, exactly, as a polynomial in (a, b, c).

    p = (2l+1) s^k L_l / (2^k k! (2k+2l+1)!!) with v = (a+b)/2,
    s = v^2 - t = (a-b)^2/4 + c and
    L_l = 2^{-l} sum_{i <= l/2} (-1)^i C(l, i) C(2l-2i, l) v^{l-2i} s^i.
    """
    v = {(1, 0, 0): Fraction(1, 2), (0, 1, 0): Fraction(1, 2)}
    s = {(2, 0, 0): Fraction(1, 4), (1, 1, 0): Fraction(-1, 2), (0, 2, 0): Fraction(1, 4),
         (0, 0, 1): Fraction(1)}
    norm = Fraction(2 * l + 1, 2 ** (k + l) * math.factorial(k))
    norm /= double_factorial(2 * k + 2 * l + 1)
    out = {}
    for i in range(l // 2 + 1):
        term = {(0, 0, 0): norm * (-1) ** i * math.comb(l, i) * math.comb(2 * l - 2 * i, l)}
        for factor in [v] * (l - 2 * i) + [s] * (k + i):
            term = _mul(term, factor)
        for key, c in term.items():
            out[key] = out.get(key, 0) + c
    return out


def _laplacian(poly):
    """The 6-D Laplacian in (xi, eta) of a polynomial in (a, b, c).

    On a^i b^j c^h it is i(4i+2+8h) a^{i-1} b^j c^h + j(4j+2+8h) a^i b^{j-1} c^h
    + h(4h-2) (a^{i+1} b^j + a^i b^{j+1}) c^{h-1}.
    """
    out = {}
    for (i, j, h), c in poly.items():
        for key, f in (((i - 1, j, h), i * (4 * i + 2 + 8 * h)),
                       ((i, j - 1, h), j * (4 * j + 2 + 8 * h)),
                       ((i + 1, j, h - 1), h * (4 * h - 2)),
                       ((i, j + 1, h - 1), h * (4 * h - 2))):
            if f:
                out[key] = out.get(key, 0) + f * c
    return {key: c for key, c in out.items() if c}


@lru_cache(maxsize=None)
def derive_invariant_poly(k, l):
    """Exact polynomial P with W_kl = W_00 * P(a, b, c).

    In the reduced variables x = (xi, eta) the zeta = 1 coalescence
    probability is the overlap of the multiplet with a wave packet,
    P_kl(x) = 8 sum_m int W_klm(y) e^{-|y-x|^2} d^6y, so
    e^v P_kl = (2l+1) (e^{Delta/8} P)(x/2) with the 6-D Laplacian Delta.
    Inverting that Gaussian convolution,

        P(x) = (e^{-Delta/2} p)(2x) / (2l+1),   p = e^v P_kl  (`_husimi_poly`),

    where the series stops because Delta lowers the degree.  Returns
    {(i, j, h): Fraction} for a^i b^j c^h, in `_invariant_basis` order.
    """
    if k < 0 or l < 0:
        raise ValueError(f"k and l must be nonnegative, got k={k}, l={l}")
    term, total, n = _husimi_poly(k, l), {}, 0
    while term:
        for (i, j, h), c in term.items():
            total[(i, j, h)] = total.get((i, j, h), 0) + c * 4 ** (i + j + 2 * h)
        n += 1
        term = {key: -c / (2 * n) for key, c in _laplacian(term).items()}
    return {key: total[key] / (2 * l + 1) for key in _invariant_basis(2 * k + l) if total.get(key)}


def _shell_trace_residue(N):
    """sum_{2k+l=N} (2l+1) W_kl/W_00 - (-1)^N L_N^(2)(2(a+b)), exactly, zeros dropped.

    The Laguerre term is the Wigner function of the projector onto shell N
    over W_00, so the residue of the derived polynomials must be {}.
    """
    out = {}
    for k in range(N // 2 + 1):
        for key, cf in derive_invariant_poly(k, N - 2 * k).items():
            out[key] = out.get(key, 0) + (2 * N - 4 * k + 1) * cf
    for m in range(N + 1):
        cf = Fraction((-1) ** (N + m) * math.comb(N + 2, N - m) * 2**m, math.factorial(m))
        for i in range(m + 1):
            out[(i, m - i, 0)] = out.get((i, m - i, 0), 0) - cf * math.comb(m, i)
    return {key: c for key, c in out.items() if c}


# The six levels with N <= 3, the range of the printed tabulation.
CLOSED_FORM_STATES = ((0, 0), (0, 1), (0, 2), (1, 0), (0, 3), (1, 1))

# Commonly tabulated printed forms of W_kl / W_00 for those levels, kept for
# the audit in the selftest.  Two entries are known to be wrong there: the
# (0,3) q-quartic term is printed with a dimensionally inconsistent q^2
# exponent (coefficient agrees once read as q^4, which is how it is encoded
# here), and the (1,1) q^4/q^6 coefficients are swapped relative to the
# nu r <-> q/(hbar nu) mirror of the r terms (encoded literally).
REFERENCE_TABULATION = {
    (0, 0): {
        (0, 0, 0): Fraction(1, 1),
    },
    (0, 1): {
        (0, 0, 0): Fraction(-1, 1),
        (0, 1, 0): Fraction(2, 3),
        (1, 0, 0): Fraction(2, 3),
    },
    (0, 2): {
        (0, 0, 0): Fraction(1, 1),
        (0, 0, 1): Fraction(-8, 15),
        (0, 1, 0): Fraction(-4, 3),
        (0, 2, 0): Fraction(4, 15),
        (1, 0, 0): Fraction(-4, 3),
        (1, 1, 0): Fraction(16, 15),
        (2, 0, 0): Fraction(4, 15),
    },
    (1, 0): {
        (0, 0, 0): Fraction(1, 1),
        (0, 0, 1): Fraction(8, 3),
        (0, 1, 0): Fraction(-4, 3),
        (0, 2, 0): Fraction(2, 3),
        (1, 0, 0): Fraction(-4, 3),
        (1, 1, 0): Fraction(-4, 3),
        (2, 0, 0): Fraction(2, 3),
    },
    (0, 3): {
        (0, 0, 0): Fraction(-1, 1),
        (0, 0, 1): Fraction(8, 5),
        (0, 1, 0): Fraction(2, 1),
        (0, 1, 1): Fraction(-16, 35),
        (0, 2, 0): Fraction(-4, 5),
        (0, 3, 0): Fraction(8, 105),
        (1, 0, 0): Fraction(2, 1),
        (1, 0, 1): Fraction(-16, 35),
        (1, 1, 0): Fraction(-16, 5),
        (1, 2, 0): Fraction(24, 35),
        (2, 0, 0): Fraction(-4, 5),
        (2, 1, 0): Fraction(24, 35),
        (3, 0, 0): Fraction(8, 105),
    },
    (1, 1): {
        (0, 0, 0): Fraction(-1, 1),
        (0, 0, 1): Fraction(-56, 15),
        (0, 1, 0): Fraction(2, 1),
        (0, 1, 1): Fraction(16, 15),
        (0, 2, 0): Fraction(-4, 15),
        (0, 3, 0): Fraction(22, 15),
        (1, 0, 0): Fraction(2, 1),
        (1, 0, 1): Fraction(16, 15),
        (1, 1, 0): Fraction(4, 5),
        (1, 2, 0): Fraction(-4, 15),
        (2, 0, 0): Fraction(-22, 15),
        (2, 1, 0): Fraction(-4, 15),
        (3, 0, 0): Fraction(4, 15),
    },
}
REFERENCE_TABULATION_NOTES = (
    "(0,3): printed q-quartic exponent is q^2 (dimensionally inconsistent); "
    "re-derived exponent is q^4 with the same coefficient -4/5",
    "(1,1): printed q^4, q^6 coefficients (-4/15, +22/15) break the "
    "nu r <-> q/(hbar nu) mirror; re-derived values are (-22/15, +4/15)",
)


def _eval_invariant_poly(poly, a, b, c):
    out = 0.0
    for (i, j, h), cf in poly.items():
        out = out + float(cf) * a**i * b**j * c**h
    return out


def _w00_times_poly(poly, a, b, c, hbar):
    """W_00 * P(a, b, c), the W_kl of the invariant polynomial P."""
    w00 = np.exp(-a - b) / (math.pi**3 * hbar**3)
    return w00 * _eval_invariant_poly(poly, a, b, c)


def wigner_kl_closed(k, l, r2, q2, rq, params):
    """Closed-form W_kl of the derived polynomial, states with 2k + l <= 3.

    Takes the scalar invariants r^2, q^2 and r.q; accepts arrays.
    """
    if (k, l) not in CLOSED_FORM_STATES:
        raise ValueError(
            f"no tabulated closed form for (k, l) = ({k}, {l}); "
            f"available: {sorted(CLOSED_FORM_STATES)}"
        )
    poly = derive_invariant_poly(k, l)
    nu, hbar = params.nu, params.hbar
    a = nu * nu * np.asarray(r2, dtype=float)
    b = np.asarray(q2, dtype=float) / (hbar * nu) ** 2
    c = (np.asarray(rq, dtype=float) / hbar) ** 2
    out = _w00_times_poly(poly, a, b, c, hbar)
    if np.ndim(out) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Independent transform oracle.

def _transform_oracle(pair, r_vec, q_vec, params, nodes=24):
    """Int d^dr'/(2 pi hbar)^d e^{i r'.q/hbar} pair(r + r'/2, r - r'/2), d = len(r_vec).

    The defining Wigner transform of a kernel pair(a, b) of two (nodes**d, d)
    point arrays.  With the Gaussians stripped, Gauss-Hermite integrates a
    polynomial times the plane wave: superexponential at moderate |q|/(hbar nu).
    """
    nu, hbar = params.nu, params.hbar
    r_vec, q_vec = np.asarray(r_vec, dtype=float), np.asarray(q_vec, dtype=float)
    d = len(r_vec)
    tt, w = _gh_grid(nodes, d)
    rp = (2.0 / nu) * tt
    a_pts, b_pts = r_vec + 0.5 * rp, r_vec - 0.5 * rp
    # strip the Gaussians so the remaining factor is polynomial in r'
    strip = np.exp(0.5 * nu**2 * (np.sum(a_pts**2, axis=-1) + np.sum(b_pts**2, axis=-1))
                   - nu**2 * np.sum(r_vec**2))
    phase = np.exp(1j * (rp @ q_vec) / hbar)
    total = np.sum(w * phase * pair(a_pts, b_pts) * strip)
    total *= (2.0 / nu) ** d / (2.0 * math.pi * hbar) ** d
    return complex(total)


def wigner_klm_oracle(state, pt, params):
    """W_klm as the transform of Psi*(r + r'/2) Psi(r - r'/2), by quadrature.

    Independent of the expansion coefficients and of the 1-D Wigner closed forms.
    """
    def pair(a, b):
        return np.conj(_psi_cartesian(state, a, params)) * _psi_cartesian(state, b, params)

    return _transform_oracle(pair, pt.r_vec, pt.q_vec, params)


def wigner_kl_oracle(k, l, pt, params):
    """m-averaged transform oracle: the whole multiplet in one quadrature.

    By the addition theorem, sum_m Psi*_klm(a) Psi_klm(b) =
    Psi_kl0(|a| z) Psi_kl0(|b| z) P_l(cos g), g the angle between a and b;
    cos g = 0 where |a||b| = 0 (there Psi_kl0 = 0 for l > 0, and P_0 = 1).
    As independent of the expansion coefficients as `wigner_klm_oracle`.
    """
    radial = Ame(k, l, 0)
    y_l0 = math.sqrt((2 * l + 1) / (4.0 * math.pi))

    def pair(a, b):
        ra, rb = np.linalg.norm(a, axis=-1), np.linalg.norm(b, axis=-1)
        rr = ra * rb
        cos_g = np.divide(np.sum(a * b, axis=-1), rr, out=np.zeros_like(rr), where=rr > 0)
        legendre = spherical_harmonic(l, 0, np.arccos(np.clip(cos_g, -1.0, 1.0)), 0) / y_l0
        return psi_klm(radial, ra, 0, 0, params) * psi_klm(radial, rb, 0, 0, params) * legendre

    return _transform_oracle(pair, pt.r_vec, pt.q_vec, params).real / (2 * l + 1)


# ---------------------------------------------------------------------------
# Phase-space integral of W_00 * P(a, b, c), exact and by quadrature.

def _normalization_exact(poly):
    """Int d^3r d^3q W_00 P(a, b, c) as an exact Fraction (1 for every W_kl).

    W_00 makes xi and eta independent N(0, I/2).  With eta = u xi/|xi| +
    eta_perp, a^i b^j c^h = |xi|^{2(i+h)} u^{2h} (u^2 + |eta_perp|^2)^j, and
    E|xi|^{2n} = (2n+1)!!/2^n, E u^{2n} = (2n-1)!!/2^n, E|eta_perp|^{2n} = n!.
    """
    def moment(n, shift):
        return Fraction(double_factorial(2 * n + shift), 2**n)

    total = Fraction(0)
    for (i, j, h), cf in poly.items():
        eta = sum(math.comb(j, s) * moment(h + s, -1) * math.factorial(j - s) for s in range(j + 1))
        total += cf * moment(i + h, 1) * eta
    return total


def _normalization_quadrature(poly):
    """The same integral in floats, by 6-node Gauss-Hermite quadrature.

    Exact up to roundoff for degree <= 11 in each of the six reduced
    variables, which covers every level with N <= 5.
    """
    tt, w3 = _gh_grid(6)
    a = np.sum(tt * tt, axis=1)
    c = (tt @ tt.T) ** 2
    vals = _eval_invariant_poly(poly, a[:, None], a[None, :], c)
    return float(w3 @ vals @ w3) / math.pi**3


# ---------------------------------------------------------------------------
# Grid export.

@dataclass
class WignerGrid:
    """Dense W_kl evaluation grid with extracted node (zero) lines."""

    k: int
    l: int
    r_axis: np.ndarray
    q_axis: np.ndarray
    theta_axis: np.ndarray
    values: np.ndarray
    nodes: list = field(default_factory=list)
    params: object = None


def level_crossings(x_axis, y_axis, values, level=0.0):
    """Points where a 2-D grid crosses `level`, by edge interpolation.

    Scans both grid directions; returns an (n, 2) array of (x, y) points in a
    deterministic order: along x, for each cell (i, j) in row-major order,
    the point of a zero at (i, j) and then the crossing towards (i + 1, j);
    then the crossings along y in row-major order; then the zeros of the
    last x row.
    """
    f = np.asarray(values, dtype=float) - level
    x = np.asarray(x_axis, dtype=float)
    y = np.asarray(y_axis, dtype=float)
    a, b = f[:-1], f[1:]
    i, j, crossing = np.nonzero(np.stack([a == 0.0, a * b < 0.0], axis=-1))
    along_x = np.column_stack([x[i], y[j]])
    c = crossing == 1
    i, j = i[c], j[c]
    s = a[i, j] / (a[i, j] - b[i, j])
    along_x[c, 0] = x[i] + s * (x[i + 1] - x[i])
    a, b = f[:, :-1], f[:, 1:]
    i, j = np.nonzero(a * b < 0.0)
    s = a[i, j] / (a[i, j] - b[i, j])
    along_y = np.column_stack([x[i], y[j] + s * (y[j + 1] - y[j])])
    (j,) = np.nonzero(f[-1] == 0.0)
    last_row = np.column_stack([np.full(len(j), x[-1]), y[j]])
    return np.concatenate([along_x, along_y, last_row]).reshape(-1, 2)


def export_grid(k, l, r_axis, q_axis, theta_axis, params):
    """Evaluate W_kl on an (r, q, theta) product grid and extract node lines.

    Axes must be strictly increasing (theta may be any finite list).  Uses
    the exact invariant polynomial of `derive_invariant_poly`, evaluated
    vectorized; node lines are level crossings of each theta slice.
    """
    r_axis = np.asarray(r_axis, dtype=float)
    q_axis = np.asarray(q_axis, dtype=float)
    theta_axis = np.asarray(theta_axis, dtype=float)
    for ax, name in ((r_axis, "r"), (q_axis, "q")):
        if ax.ndim != 1 or len(ax) < 2 or np.any(np.diff(ax) <= 0):
            raise ValueError(f"{name} axis must be strictly increasing with >= 2 points")
    poly = derive_invariant_poly(k, l)
    nu, hbar = params.nu, params.hbar
    a = (nu * r_axis[:, None, None]) ** 2
    b = (q_axis[None, :, None] / (hbar * nu)) ** 2
    cos2 = np.cos(theta_axis[None, None, :]) ** 2
    c = a * b * cos2
    values = _w00_times_poly(poly, a, b, c, hbar)
    nodes = [
        level_crossings(r_axis, q_axis, values[:, :, s])
        for s in range(len(theta_axis))
    ]
    return WignerGrid(k, l, r_axis, q_axis, theta_axis, values, nodes, params)
