"""3-D angular-momentum eigenstates and their phase-space distributions.

The diagonal Wigner distribution of an eigenstate (k, l, m) factorizes over
the expansion into products of 1-D eigenfunctions,

    W_klm(r, q) = sum_{t, t'} conj(C_{klm, t'}) C_{klm, t}
                  W_{t1' t1}(r1, q1) W_{t2' t2}(r2, q2) W_{t3' t3}(r3, q3),

and the m-average W_kl = (1/(2l+1)) sum_m W_klm needs only the bilinear
coefficient pairings.  W_kl is rotation invariant and symmetric under
nu r <-> q/(hbar nu); it depends on the point only through the invariants

    a = nu^2 r^2,  b = q^2/(hbar nu)^2,  c = (r.q)^2/hbar^2.

A point (r, q) is a `coalescence.PhasePoint` (alias `PhasePoint3D`), with q
held in its `p_vec`.

W_kl is also invariant under the harmonic flow, and both it and rotations
act on x = (xi, eta), xi = nu r, eta = q/(hbar nu), as orthogonal maps, so
W_kl / W_00 is a polynomial in E = a + b = |x|^2 and T = ab - c = |xi x eta|^2
with rational coefficients.  `_derive_et` computes it exactly from the
zeta = 1 coalescence probability of `coalescence._husimi_terms`:
P_kl(x) = 8 sum_m int W_klm(y) e^{-|y-x|^2} d^6y, so e^v P_kl =
(2l+1) (e^{Delta/8} P)(x/2) with the 6-D Laplacian Delta, which maps
polynomials in (E, T) to polynomials in (E, T), and the inverse heat flow
P(x) = (e^{-Delta/2} e^v P_kl)(2x) / (2l+1) is a finite series.  All 49
levels with N <= 12 derive in about 0.04 s on a 2-vCPU VM.
`wigner_kl_closed` and `export_grid` evaluate each T^j coefficient in the
Laguerre basis L_n^(2+2j)(2E): for r, q in [0, 4], pi^3 hbar^3 W is within
2e-15 of exact values at the same float E and T for N <= 9, and within
3.1e-14 at N = 12.  The phase-space integral of each derived polynomial is
1 exactly (`_normalization_exact`).  Two terms of the commonly tabulated
printed forms for the (0,3) and (1,1) states fail the mirror symmetry; the
derivation fixes both (see `REFERENCE_TABULATION_NOTES`).
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .coalescence import PhasePoint, _husimi_terms, v_and_t
from .expansion import Ame, _coeff_matrix, _psi_cartesian, bilinear_assemble, bilinear_table
from .expansion import psi_klm
from .expansion import d_coeff_reduced  # unused here; perfbench/spans.py wraps this name
from .ho1d import Phase1D, wigner_1d
from .specfun import _gh_grid, assoc_laguerre, double_factorial, spherical_harmonic

__all__ = [
    "PhasePoint3D",
    "WignerGrid",
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


PhasePoint3D = PhasePoint  # the point (r, q); perfbench and oscoal.__all__ import this name


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
    return [_wigner_1d_matrix(N, pt.r_vec[i], pt.p_vec[i], params) for i in range(3)]


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


def _husimi_input(k, l):
    """p = e^v P_kl at zeta = 1, exactly, as {(i, j): Fraction} for E^i T^j.

    The binomial expansion of the terms c v^i s^j of `coalescence._husimi_terms`
    at v = E/2 and s = v^2 - t = E^2/4 - T.
    """
    out = {}
    for i, j, cf in _husimi_terms(k, l):
        for m in range(j + 1):
            key = (i + 2 * (j - m), m)
            out[key] = out.get(key, 0) + cf * (-1) ** m * math.comb(j, m) / (2**i * 4 ** (j - m))
    return out


def _laplacian_et(poly):
    """The 6-D Laplacian in (xi, eta) of a polynomial {(i, j): c} in (E, T).

    On E^i T^j it is 4i(i + 2 + 4j) E^{i-1} T^j + 4j^2 E^{i+1} T^{j-1}.
    """
    out = {}
    for (i, j), c in poly.items():
        for key, f in (((i - 1, j), 4 * i * (i + 2 + 4 * j)), ((i + 1, j - 1), 4 * j * j)):
            if f:
                out[key] = out.get(key, 0) + f * c
    return {key: c for key, c in out.items() if c}


@lru_cache(maxsize=None)
def _derive_et(k, l):
    """W_kl / W_00 exactly, as {(i, j): Fraction} for E^i T^j.

    The inverse heat flow P(x) = (e^{-Delta/2} p)(2x) / (2l+1) of the Husimi
    input p = e^v P_kl (`_husimi_input`).  The series stops because Delta
    lowers the degree, and x -> 2x scales E^i T^j by 4^(i + 2j).
    """
    if k < 0 or l < 0:
        raise ValueError(f"k and l must be nonnegative, got k={k}, l={l}")
    term, total, n = _husimi_input(k, l), {}, 0
    while term:
        for (i, j), c in term.items():
            total[(i, j)] = total.get((i, j), 0) + c * 4 ** (i + 2 * j)
        n += 1
        term = {key: -c / (2 * n) for key, c in _laplacian_et(term).items()}
    return {key: c / (2 * l + 1) for key, c in total.items() if c}


def _to_abc(poly):
    """A polynomial {(i, j): c} in (E, T) as {(i, j, h): c} in (a, b, c), zeros dropped.

    Expands (a + b)^i (ab - c)^j.
    """
    out = {}
    for (i, j), cf in poly.items():
        for p in range(i + 1):
            for h in range(j + 1):
                key = (p + j - h, i - p + j - h, h)
                out[key] = out.get(key, 0) + cf * (-1) ** h * math.comb(i, p) * math.comb(j, h)
    return {key: c for key, c in out.items() if c}


@lru_cache(maxsize=None)
def derive_invariant_poly(k, l):
    """Exact polynomial P with W_kl = W_00 * P(a, b, c).

    Derived in the invariants E = a + b and T = ab - c by the inverse heat
    flow of the zeta = 1 coalescence probability (`_derive_et`), then
    expanded.  Returns {(i, j, h): Fraction} for a^i b^j c^h, in
    `_invariant_basis` order.
    """
    poly = _to_abc(_derive_et(k, l))
    return {key: poly[key] for key in _invariant_basis(2 * k + l) if key in poly}


def _shell_trace_residue(N):
    """sum_{2k+l=N} (2l+1) W_kl/W_00 - (-1)^N L_N^(2)(2E) in (E, T), exactly, zeros dropped.

    The Laguerre term is the Wigner function of the projector onto shell N
    over W_00, so the residue of the derived polynomials must be {}: the T
    terms cancel within the shell.
    """
    out = {}
    for k in range(N // 2 + 1):
        for key, cf in _derive_et(k, N - 2 * k).items():
            out[key] = out.get(key, 0) + (2 * N - 4 * k + 1) * cf
    for m in range(N + 1):
        cf = Fraction((-1) ** (N + m) * math.comb(N + 2, N - m) * 2**m, math.factorial(m))
        out[(m, 0)] = out.get((m, 0), 0) - cf
    return {key: c for key, c in out.items() if c}


# Commonly tabulated printed forms of W_kl / W_00 for the six levels with
# N <= 3, kept for the audit in the selftest.  Two entries are known to be wrong there: the
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

# The levels of the printed tabulation, in its order.
CLOSED_FORM_STATES = tuple(REFERENCE_TABULATION)


@lru_cache(maxsize=None)
def _laguerre_terms(k, l):
    """W_kl / W_00 as float terms (j, ((n, d), ...)) of sum_j T^j sum_n d L_n^(2+2j)(2E).

    Each T^j coefficient of `_derive_et` is converted exactly with
    x^i = i! sum_{n <= i} (-1)^n C(i + a, i - n) L_n^(a)(x), a = 2 + 2j, x = 2E.
    """
    N = 2 * k + l
    d = [[0] * (N + 1) for _ in range(N // 2 + 1)]
    for (i, j), cf in _derive_et(k, l).items():
        for n in range(i + 1):
            d[j][n] += cf * (-1) ** n * math.factorial(i) * math.comb(i + 2 + 2 * j, i - n) / 2**i
    return tuple((j, tuple((n, float(c)) for n, c in enumerate(row) if c))
                 for j, row in enumerate(d) if any(row))


def _wigner_et(k, l, E, T, hbar):
    """W_kl = e^{-E}/(pi hbar)^3 sum_j T^j sum_n d L_n^(2+2j)(2E) at the invariants E, T.

    Exactly 0 where e^{-E} underflows; far out the sum overflows, so callers
    run this under np.errstate(over="ignore", invalid="ignore").
    """
    E, T = np.asarray(E, dtype=float), np.asarray(T, dtype=float)
    x = 2.0 * E
    w00 = np.exp(-E) / (math.pi**3 * hbar**3)
    poly = sum(T**j * sum(d * assoc_laguerre(n, 2 + 2 * j, x) for n, d in terms)
               for j, terms in _laguerre_terms(k, l))
    return np.where(w00 == 0.0, 0.0, w00 * poly)


def wigner_kl_closed(k, l, r, q, params):
    """Closed-form W_kl, any level, at points r, q of shape (3,) (a float) or (n, 3).

    E = 2v and T = t come from `v_and_t`, whose cross product does not cancel.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # far points: see _wigner_et
        v, t = v_and_t(r, q, params)
        out = _wigner_et(k, l, 2.0 * v, t, params.hbar)
    return float(out) if out.ndim == 0 else out


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

    return _transform_oracle(pair, pt.r_vec, pt.p_vec, params)


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

    return _transform_oracle(pair, pt.r_vec, pt.p_vec, params).real / (2 * l + 1)


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


def _eval_invariant_poly(poly, a, b, c):
    """P(a, b, c) in float monomials; `_normalization_quadrature`'s own evaluation."""
    return sum(float(cf) * a**i * b**j * c**h for (i, j, h), cf in poly.items())


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
    the evaluator of `wigner_kl_closed`; node lines are level crossings of
    each theta slice.
    """
    r_axis = np.asarray(r_axis, dtype=float)
    q_axis = np.asarray(q_axis, dtype=float)
    theta_axis = np.asarray(theta_axis, dtype=float)
    for ax, name in ((r_axis, "r"), (q_axis, "q")):
        if ax.ndim != 1 or len(ax) < 2 or np.any(np.diff(ax) <= 0):
            raise ValueError(f"{name} axis must be strictly increasing with >= 2 points")
    nu, hbar = params.nu, params.hbar
    with np.errstate(over="ignore", invalid="ignore"):  # far cells: see _wigner_et
        # E as `v_and_t` forms 2v, T = ab sin^2(theta) without cancellation
        a = nu**2 * r_axis[:, None, None] ** 2
        b = q_axis[None, :, None] ** 2 / (hbar * nu) ** 2
        values = _wigner_et(k, l, a + b, a * b * np.sin(theta_axis) ** 2, hbar)
    nodes = [level_crossings(r_axis, q_axis, values[:, :, s]) for s in range(len(theta_axis))]
    return WignerGrid(k, l, r_axis, q_axis, theta_axis, values, nodes, params)
