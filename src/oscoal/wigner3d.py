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

W_kl is also invariant under the harmonic flow.  Rotations about one axis
and that flow give independent phases to the circular ladder operators
A+- = (A_x -+ i A_y)/sqrt(2), so at a point brought by them to
xi = nu r = (x, 0, 0), eta = q/(hbar nu) = (0, y, 0) only the diagonal of
the multiplet projector in the cylindrical basis |n+, n-, n_z> survives:

    W_kl = (-1)^N W_00/(2l+1) sum_ab w_ab L_a(u+) L_b(u-),
    u+- = E +- 2 sqrt(T),  u- = ((a - b)^2 + 4c)/u+,

with E = a + b, T = ab - c = |xi x eta|^2, the plain Laguerre polynomials
L_n and w_ab = sum_m |<k l m | a, b, N - a - b>|^2.  `_circular_weights`
reads them exactly off the solid-harmonic generating function,
|k l m> ~ (r^2)^k r^l Y_lm(A^dag)|0> with r^2 = 2 A+^dag A-^dag + A_z^dag^2;
the 49 levels with N <= 12 take about 0.02 s on a 2-vCPU VM.  The w_ab
are nonnegative, symmetric, zero unless |a - b| <= l, and sum to 2l + 1.
Since |e^{-u/2} L_n(u)| <= 1, |pi^3 hbar^3 W_kl| <= 1, with equality at
the origin.  `wigner_kl_closed`, `export_grid` and the normalization
quadrature share one evaluator, `_wigner_circular`: two Laguerre
recurrences and a banded double sum, within 2e-15 of exact values of
pi^3 hbar^3 W for every level with N <= 12.  Two identities on the weights
check the whole table exactly: each W_kl integrates to
(-1)^N sum_ab w_ab g(|a - b|)/(2l+1) = 1, with g(0) = 1 and
g(d) = (-1)^d 2d (`_normalization_exact`), and each shell sums to the
Wigner function of its projector, (-1)^N L_N^(2)(2E) =
(-1)^N sum_{a+b<=N} L_a(u+) L_b(u-), so sum_{2k+l=N} w_ab is 1 for
a + b <= N and 0 beyond (`_shell_trace_residue`).

`_derive_et` expands the same sum exactly in (E, T), and
`derive_invariant_poly` in (a, b, c), for the audit and the tests only.

Two terms of the commonly tabulated printed forms for the (0,3) and (1,1)
states, audited in (a, b, c), fail the mirror symmetry; the derivation
fixes both (see `REFERENCE_TABULATION_NOTES`).
"""

import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from types import MappingProxyType

import numpy as np

from .coalescence import PhasePoint, _dot
from .expansion import Ame, _coeff_matrix, _psi_cartesian, bilinear_assemble, bilinear_table
from .expansion import psi_klm
from .expansion import d_coeff_reduced  # unused here; perfbench/spans.py wraps this name
from .ho1d import Phase1D, wigner_1d
from .specfun import _gh_grid, _laguerre_orders, spherical_harmonic

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

SLAB_CELLS = 2**13  # grid cells per slab of `export_grid`


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
# Exact circular weights and the invariant polynomials W_kl / W_00.

@lru_cache(maxsize=None)
def _circular_weights(k, l):
    """The weights of W_kl = (-1)^N W_00/(2l+1) sum_ab w_ab L_a(u+) L_b(u-), exact and float.

    Returns (w, rows): w is {(a, b): Fraction} of the nonzero w_ab, and rows
    is ((a, ((b, f), ...)), ...) with f = (-1)^N w_ab/(2l+1) as a float;
    both are read-only, as the result is cached.
    For m >= 0, |k l m> has on |a, b, c> = |m + s, s, N - m - 2s> the amplitude
    sqrt(a! b! c!) sum_j C(k, s-j) 2^(s-j) (-1)^j / (2^j (m+j)! j! (l-m-2j)!)
    up to a norm, here times 2^l l!; m < 0 mirrors (a, b) -> (b, a).
    """
    if k < 0 or l < 0:
        raise ValueError(f"k and l must be nonnegative, got k={k}, l={l}")
    N, fact, w = 2 * k + l, math.factorial, defaultdict(Fraction)
    for m in range(l + 1):
        pops = {}
        for s in range(k + (l - m) // 2 + 1):
            amp = sum(((-1) ** j * math.comb(k, s - j) << (l + s - 2 * j)) * fact(l)
                      // (fact(m + j) * fact(j) * fact(l - m - 2 * j))
                      for j in range(max(0, s - k), min(s, (l - m) // 2) + 1))
            pops[m + s, s] = amp * amp * fact(m + s) * fact(s) * fact(N - m - 2 * s)
        total = sum(pops.values())
        for (a, b), pop in pops.items():
            for key in {(a, b), (b, a)}:
                w[key] += Fraction(pop, total)
    w = MappingProxyType({key: c for key, c in sorted(w.items()) if c})
    return w, tuple((a, tuple((b, float((-1) ** N * w[a, b] / (2 * l + 1))) for _, b in keys))
                    for a, keys in groupby(w, key=lambda ab: ab[0]))


@lru_cache(maxsize=None)
def _derive_et(k, l):
    """W_kl / W_00 exactly, as a read-only {(i, j): Fraction} for E^i T^j.

    The circular sum with L_n(u) = sum_p (-1)^p C(n, p) u^p/p! and
    u+- = E +- x, x = 2 sqrt(T): the odd powers of x cancel, as w_ab is
    symmetric.  In integers over the weights' denominator times (N!)^2 (2l+1):
    lag[a][p] is N! times the coefficient of u^p in L_a(u).
    """
    w, N = _circular_weights(k, l)[0], 2 * k + l
    fact, den = math.factorial(N), math.lcm(*(c.denominator for c in w.values()))
    num = {ab: c.numerator * (den // c.denominator) for ab, c in w.items()}
    lag = [[(-1) ** p * math.comb(a, p) * (fact // math.factorial(p)) for p in range(N + 1)]
           for a in range(N + 1)]
    half = [[sum(num.get((a, b), 0) * lag[b][q] for b in range(q, N + 1)) for q in range(N + 1)]
            for a in range(N + 1)]
    out = defaultdict(int)
    for p in range(N + 1):
        for q in range(N + 1 - p):  # u+^p u-^q = (E + x)^p (E - x)^q, even powers of x
            mono = sum(lag[a][p] * half[a][q] for a in range(p, N + 1))
            for s in range(p + 1):
                for r in range(s % 2, q + 1, 2):
                    out[p + q - s - r, (s + r) // 2] += (
                        (-1) ** r * mono * math.comb(p, s) * math.comb(q, r) << (s + r))
    den *= (-1) ** N * (2 * l + 1) * fact * fact
    return MappingProxyType({key: Fraction(c, den) for key, c in out.items() if c})


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
    """Exact P with W_kl = W_00 * P(a, b, c), as {(i, j, h): Fraction} for a^i b^j c^h.

    `_derive_et` expanded for the printed-tabulation audit; the order of the
    keys is not part of the contract.  Read-only, as the result is cached.
    """
    return MappingProxyType(_to_abc(_derive_et(k, l)))


def _shell_trace_residue(N):
    """sum_{2k+l=N} w_ab - [a + b <= N] exactly, zeros dropped: {} when the shell
    sums to the Wigner function of its projector (see the module notes)."""
    out = {(a, b): -1 for a in range(N + 1) for b in range(N + 1 - a)}
    for k in range(N // 2 + 1):
        for key, w in _circular_weights(k, N - 2 * k)[0].items():
            out[key] = out.get(key, 0) + w
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


def _wigner_circular(k, l, a, b, t, c, hbar):
    """W_kl at the invariants a = |xi|^2, b = |eta|^2, t = |xi x eta|^2, c = (xi.eta)^2.

    e^{-(a+b)}/(pi hbar)^3 sum_ab f_ab L_a(u+) L_b(u-) with the float rows of
    `_circular_weights`, u+ = a + b + 2 sqrt(t) and u- = ((a-b)^2 + 4c)/u+
    (0 where u+ = 0), which does not cancel.  The arguments broadcast.
    Exactly 0 where e^{-(a+b)} underflows; far out the Laguerre values
    overflow, so callers run this under np.errstate(over="ignore", invalid="ignore").
    """
    rows = _circular_weights(k, l)[1]
    up = a + b + 2.0 * np.sqrt(t)
    um = np.divide((a - b) ** 2 + 4.0 * c, up, out=np.zeros(np.shape(up)), where=up != 0.0)
    lp, lm = _laguerre_orders(2 * k + l, 0, up), _laguerre_orders(2 * k + l, 0, um)
    poly = sum(lp[i] * sum(f * lm[j] for j, f in row) for i, row in rows)
    w00 = np.exp(-(a + b)) / (math.pi**3 * hbar**3)
    return np.where(w00 == 0.0, 0.0, w00 * poly)


def wigner_kl_closed(k, l, r, q, params):
    """Closed-form W_kl, any level, at points r, q of shape (3,) (a float) or (n, 3).

    a = nu^2 (r.r) and b = (q.q)/(hbar nu)^2; t and c come from xi = nu r and
    eta = q/(hbar nu), with t = |xi x eta|^2 from the cross product, which
    does not cancel.
    """
    nu, hbar = params.nu, params.hbar
    r, q = np.asarray(r, dtype=float), np.asarray(q, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # far points: see _wigner_circular
        xi, eta = nu * r, q / (hbar * nu)
        cross = np.cross(xi, eta)
        out = _wigner_circular(k, l, nu**2 * _dot(r, r), _dot(q, q) / (hbar * nu) ** 2,
                               _dot(cross, cross), _dot(xi, eta) ** 2, hbar)
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
# Phase-space integral of W_kl, exact and by quadrature.

def _normalization_exact(k, l):
    """Int d^3r d^3q W_kl as an exact Fraction, from the circular weights (1 for every level).

    The W_00 mean of the symmetrized L_a(u+) L_b(u-) is the g(|a - b|) of the
    module notes; `TestNormalization` pins it by quadrature.
    """
    total = sum(w * (1 if a == b else (-1) ** abs(a - b) * 2 * abs(a - b))
                for (a, b), w in _circular_weights(k, l)[0].items())
    return (-1) ** (2 * k + l) * total / (2 * l + 1)


def _normalization_quadrature(k, l):
    """The same integral in floats: 6-node Gauss-Hermite quadrature of `_wigner_circular`.

    The rule's weight is e^{-E}, so it integrates e^E W_kl at hbar = 1.  Exact
    up to roundoff for degree <= 11 in each of the six reduced variables,
    which covers every level with N <= 5.
    """
    tt, w3 = _gh_grid(6)
    a = np.sum(tt * tt, axis=1)
    cross = np.cross(tt[:, None, :], tt[None, :, :])
    values = _wigner_circular(k, l, a[:, None], a[None, :], np.sum(cross * cross, axis=-1),
                              (tt @ tt.T) ** 2, 1.0)
    return float(w3 @ (values * np.exp(a[:, None] + a[None, :])) @ w3)


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
    the evaluator of `wigner_kl_closed`, with the invariants formed as it
    forms them at `canonical_points`, so the two agree bitwise at theta = 0.
    It runs on slabs of r rows of about SLAB_CELLS cells, so its temporaries
    stay bounded.  Node lines are level crossings of each theta slice.
    """
    r_axis = np.asarray(r_axis, dtype=float)
    q_axis = np.asarray(q_axis, dtype=float)
    theta_axis = np.asarray(theta_axis, dtype=float)
    for ax, name in ((r_axis, "r"), (q_axis, "q")):
        if ax.ndim != 1 or len(ax) < 2 or np.any(np.diff(ax) <= 0):
            raise ValueError(f"{name} axis must be strictly increasing with >= 2 points")
    nu, hbar = params.nu, params.hbar
    values = np.empty((len(r_axis), len(q_axis), len(theta_axis)))
    step = max(1, SLAB_CELLS // max(1, len(q_axis) * len(theta_axis)))
    cos, sin = np.cos(theta_axis), np.sin(theta_axis)
    with np.errstate(over="ignore", invalid="ignore"):  # far cells: see _wigner_circular
        b = q_axis[:, None] ** 2 / (hbar * nu) ** 2
        eta = q_axis[:, None] / (hbar * nu)
        for lo in range(0, len(r_axis), step):
            r = r_axis[lo:lo + step, None, None]
            xi_eta = (nu * r) * eta  # |xi||eta|: xi.eta and |xi x eta| at angle theta
            values[lo:lo + step] = _wigner_circular(k, l, nu**2 * r**2, b, (xi_eta * sin) ** 2,
                                                    (xi_eta * cos) ** 2, hbar)
    nodes = [level_crossings(r_axis, q_axis, values[:, :, s]) for s in range(len(theta_axis))]
    return WignerGrid(k, l, r_axis, q_axis, theta_axis, values, nodes, params)
