"""Exact expansion of angular-momentum eigenstates over factorized eigenstates.

The isotropic 3-D oscillator has two natural eigenbases: simultaneous
eigenstates of (H, L^2, L_3) labelled (k, l, m), and products of 1-D
eigenfunctions labelled (n1, n2, n3).  Within one energy shell
N = 2k + l = n1 + n2 + n3 the two are related by a unitary coefficient matrix
C_{klm, n1 n2 n3}.  This module computes those coefficients in closed form and
entirely in exact arithmetic: every coefficient is (-1)^k i^n2 sqrt(R) s with R
and s rational (i^n2 is the formula's only complex factor), so unitarity and
orthogonality can be checked without any floating point at all.

A coefficient vanishes unless both selection rules hold:

* energy matching:  2k + l = n1 + n2 + n3,
* parity along the quantization axis:  l + m - n3 is even.

The surviving sum runs over (j1, j2, j3) with j1 + j2 + j3 = k, 2 j_i <= n_i,
2 j1 >= n1 - l and 2 (j1 + j2) >= n1 + n2 - l; its inner sum over rho is a
finite binomial convolution, equal (where defined) to a terminating Gauss
hypergeometric value at argument -1.

An independent Gauss-Hermite quadrature oracle evaluates the defining overlap
integral of the eigenfunction `psi_klm` directly; the test suite keeps the
two routes in agreement.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .ho1d import OscParams, phi_n
from .specfun import _gh_grid, _read_only, assoc_laguerre, double_factorial, spherical_harmonic

__all__ = [
    "Ame",
    "FeTriple",
    "ExactCoeff",
    "ORACLE_MAX_N",
    "coeff",
    "coeff_k0",
    "coeff_oracle",
    "d_coeff",
    "d_coeff_reduced",
    "degenerate_subspace",
    "bilinear_assemble",
    "bilinear_table",
    "norm_squared_exact",
    "overlap_s_part",
    "psi_klm",
]


@dataclass(frozen=True)
class Ame:
    """Angular-momentum eigenstate label (k, l, m); energy N = 2k + l."""

    k: int
    l: int
    m: int

    def __post_init__(self):
        if self.k < 0 or self.l < 0:
            raise ValueError(f"k and l must be nonnegative, got k={self.k}, l={self.l}")
        if abs(self.m) > self.l:
            raise ValueError(f"|m| must not exceed l, got l={self.l}, m={self.m}")

    @property
    def energy_quantum(self):
        return 2 * self.k + self.l


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


@dataclass(frozen=True)
class FeTriple:
    """Factorized-eigenstate label (n1, n2, n3); energy N = n1 + n2 + n3."""

    n1: int
    n2: int
    n3: int

    def __post_init__(self):
        if min(self.n1, self.n2, self.n3) < 0:
            raise ValueError(f"occupation numbers must be nonnegative, got {self}")

    @property
    def energy_quantum(self):
        return self.n1 + self.n2 + self.n3

    def __iter__(self):
        return iter((self.n1, self.n2, self.n3))


@dataclass(frozen=True)
class ExactCoeff:
    """Expansion coefficient sign * sqrt(radicand) * i^n2 * s, held exactly.

    `radicand` and `s` are rationals and `n2` the phase exponent, so
    |value|^2 = radicand * s^2 is rational.  Comparisons between two
    coefficients therefore reduce to comparing sign-carrying squares of the
    real and imaginary parts, which `signed_squares` exposes.
    """

    sign: int
    radicand: Fraction
    s: Fraction
    n2: int

    @property
    def is_zero(self):
        return self.radicand == 0 or self.s == 0

    def _parts(self):
        """(re, im) of i^n2 * s as Fractions; one of them is 0."""
        s = self.s if self.n2 % 4 < 2 else -self.s
        return (s, Fraction(0)) if self.n2 % 2 == 0 else (Fraction(0), s)

    @property
    def value(self):
        root = math.sqrt(self.radicand)
        re, im = self._parts()
        return complex(self.sign * root * float(re), self.sign * root * float(im))

    def abs2(self):
        """|value|^2 as an exact Fraction."""
        return self.radicand * self.s * self.s

    def signed_squares(self):
        """(sgn(re) re^2, sgn(im) im^2) as exact Fractions.

        A real number is determined by its sign and its square, so this pair
        is a canonical exact form independent of the internal factorization.
        """
        re, im = self._parts()
        sre = self.sign * (1 if re > 0 else -1 if re < 0 else 0)
        sim = self.sign * (1 if im > 0 else -1 if im < 0 else 0)
        return sre * self.radicand * re * re, sim * self.radicand * im * im

    def exact_str(self):
        if self.is_zero:
            return "0"
        sign = "+1" if self.sign > 0 else "-1"
        p, q = self.radicand.numerator, self.radicand.denominator
        re, im = self._parts()
        return f"{sign}*sqrt({p}/{q})*({re} + {im} i)"


_ZERO_COEFF = ExactCoeff(1, Fraction(0), Fraction(0), 0)

# Largest shell 2k + l that the quadrature oracle `coeff_oracle` accepts.
ORACLE_MAX_N = 8


def degenerate_subspace(N):
    """All factorized triples with n1 + n2 + n3 = N, in lexicographic order."""
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    return [
        FeTriple(n1, n2, N - n1 - n2)
        for n1 in range(N + 1)
        for n2 in range(N - n1 + 1)
    ]


def _binomial_alternating_sum(a, b, kk):
    """sum_rho (-1)^rho C(a, rho) C(b, kk - rho); zero for kk < 0.

    This is the coefficient of x^kk in (1-x)^a (1+x)^b and equals
    C(b, kk) * 2F1(-kk, -a; b - kk + 1; -1) wherever the latter is
    pole-free; the direct sum also covers the 0 * infinity limit cases.
    """
    if kk < 0:
        return 0
    return sum(
        (-1) ** rho * math.comb(a, rho) * math.comb(b, kk - rho)
        for rho in range(0, min(a, kk) + 1)
    )


def _s_sum(k, l, m, n1, n2, n3):
    """The rational s of the coefficient formula, its phase i^n2 taken out."""
    kap = (l + m - n3) // 2
    total = Fraction(0)
    for j1 in range(n1 // 2 + 1):
        if 2 * j1 < n1 - l:
            continue
        for j2 in range(n2 // 2 + 1):
            j3 = k - j1 - j2
            if j3 < 0 or 2 * j3 > n3:
                continue
            if 2 * (j1 + j2) < n1 + n2 - l:
                continue
            inner = _binomial_alternating_sum(n1 - 2 * j1, n2 - 2 * j2, kap + j3)
            if inner == 0:
                continue
            den = (
                math.factorial(j1)
                * math.factorial(j2)
                * math.factorial(j3)
                * math.factorial(n1 - 2 * j1)
                * math.factorial(n2 - 2 * j2)
                * math.factorial(n3 - 2 * j3)
            )
            frac = Fraction(2 ** (n3 - 2 * j3) * inner, den)
            total += (-1) ** j2 * frac
    return total


@lru_cache(maxsize=None)
def _coeff_cached(k, l, m, n1, n2, n3):
    if 2 * k + l != n1 + n2 + n3 or (l + m - n3) % 2 != 0:
        return _ZERO_COEFF
    s = _s_sum(k, l, m, n1, n2, n3)
    if not s:
        return _ZERO_COEFF
    N = n1 + n2 + n3
    radicand = (
        Fraction(2) ** (k - l - N)
        * (2 * l + 1)
        * math.factorial(n1)
        * math.factorial(n2)
        * math.factorial(n3)
        * math.factorial(k)
        * math.factorial(l - m)
        * math.factorial(l + m)
        / double_factorial(2 * k + 2 * l + 1)
    )
    return ExactCoeff((-1) ** k, radicand, s, n2)


def coeff(state, triple):
    """Exact coefficient of `triple` in the expansion of `state`.

    Selection-rule violations return the exact zero coefficient rather than
    raising.  Results are memoized; the cache is only ever appended to, so
    concurrent readers are safe.
    """
    return _coeff_cached(state.k, state.l, state.m, triple.n1, triple.n2, triple.n3)


def coeff_k0(l, m, triple):
    """Closed form of the k = 0 coefficient (pure orbital excitation).

    Agrees exactly with coeff(Ame(0, l, m), triple) on its whole domain; the
    leading double factorial is (2l - 1)!!.
    """
    if abs(m) > l:
        raise ValueError(f"|m| must not exceed l, got l={l}, m={m}")
    n1, n2, n3 = triple.n1, triple.n2, triple.n3
    if n1 + n2 + n3 != l or (l + m - n3) % 2 != 0:
        return _ZERO_COEFF
    kap = (l + m - n3) // 2
    inner = _binomial_alternating_sum(n1, n2, kap)
    if inner == 0:
        return _ZERO_COEFF
    radicand = Fraction(
        math.factorial(l + m) * math.factorial(l - m),
        2 ** (2 * l)
        * math.factorial(n1)
        * math.factorial(n2)
        * math.factorial(n3)
        * double_factorial(2 * l - 1),
    )
    return ExactCoeff(1, radicand, Fraction(2**n3 * inner), n2)


def coeff_oracle(state, triple):
    """Quadrature oracle: the defining 3-D overlap integral.

    Evaluates Int d^3r  Phi*_{n1 n2 n3} Psi_{klm} at nu = 1 by tensor-product
    Gauss-Hermite quadrature of phi_n and Psi_klm themselves, with their
    Gaussian exp(-r^2) divided out; the rest is a polynomial, so the rule is
    exact up to roundoff.  Guarded to shells N = 2k + l <= ORACLE_MAX_N to
    bound cost.
    """
    N = state.energy_quantum
    if N > ORACLE_MAX_N:
        raise ValueError(f"oracle limited to 2k + l <= {ORACLE_MAX_N}, got N={N}")
    tt, w3, integrand, psi = _oracle_grid(state)
    unit = OscParams(nu=1.0)
    for i, n in enumerate(triple):
        integrand = integrand * phi_n(n, tt[:, i], unit)
    return complex(np.sum(w3 * integrand * psi))


@lru_cache(maxsize=None)
def _oracle_nodes(n):
    """Nodes, weights and exp(|t|^2) of the n^3 Gauss-Hermite oracle grid."""
    tt, w3 = _gh_grid(n)
    return (tt, w3) + _read_only(np.exp(np.sum(tt * tt, axis=1)))


@lru_cache(maxsize=None)
def _oracle_grid(state):
    """The oracle grid of one state (N <= ORACLE_MAX_N) with Psi_klm at nu = 1 on its nodes.

    Shared by every triple of the state; at most 165 states are cached.
    """
    tt, w3, gauss = _oracle_nodes((state.energy_quantum + state.l) // 2 + 9)
    return (tt, w3, gauss) + _read_only(_psi_cartesian(state, tt, OscParams(nu=1.0)))


@lru_cache(maxsize=None)
def _coeff_matrix(k, l):
    """Read-only complex coefficient matrix C[m-index, triple-index] for one (k, l)."""
    triples = degenerate_subspace(2 * k + l)
    mat = np.array(
        [
            [coeff(Ame(k, l, m), t).value for t in triples]
            for m in range(-l, l + 1)
        ],
        dtype=complex,
    )
    return (tuple(triples),) + _read_only(mat)


@lru_cache(maxsize=None)
def bilinear_table(k, l):
    """(triples, T) with T[i, j] = sum_m conj(C_{m, t_i}) C_{m, t_j}.

    The plain m-sum of the coalescence probabilities; the m-averaged Wigner
    distributions divide it by 2l + 1.
    """
    triples, mat = _coeff_matrix(k, l)
    t = np.conj(mat).T @ mat
    t.setflags(write=False)
    return triples, t


def bilinear_assemble(table, triples, m1, m2, m3):
    """sum_{i, j} table[i, j] m1[t_i1, t_j1] m2[t_i2, t_j2] m3[t_i3, t_j3].

    Contracts a bilinear table over `triples` (one energy shell) with three
    per-axis 1-D matrices, e.g. mixed Wigner functions or quasi-probabilities.
    """
    n1, n2, n3 = np.array([tuple(t) for t in triples]).T
    prod = m1[np.ix_(n1, n1)] * m2[np.ix_(n2, n2)] * m3[np.ix_(n3, n3)]
    return complex(np.sum(table * prod))


def d_coeff(k, l, triple, triple_prime):
    """m-averaged bilinear coefficient pairing two triples of shell 2k + l.

    D = (1/(2l+1)) sum_m conj(C_{klm, triple'}) C_{klm, triple}; vanishes
    unless both triples carry energy 2k + l.
    """
    N = 2 * k + l
    if triple.energy_quantum != N or triple_prime.energy_quantum != N:
        return 0j
    triples, table = bilinear_table(k, l)
    i = triples.index(triple_prime)
    j = triples.index(triple)
    return complex(table[i, j] / (2 * l + 1))


def d_coeff_reduced(k, l, triple, triple_prime):
    """Exact m-averaged pairing with the radical factored off.

    Returns the rational g with
    D(k, l; t, t') = i^(n2 - n2') g sqrt(n1! n2! n3! n1'! n2'! n3'!); the square
    root cancels against the factorial prefactors of the 1-D Wigner closed
    forms, which is what makes fully rational 3-D derivations possible.  Both
    coefficients of one m share the sign (-1)^k, the phase up to i^(n2 - n2')
    and the radicand up to the factorials of their own triple, so g sums
    s' s R / (n1! n2! n3!).
    """
    q = math.factorial(triple.n1) * math.factorial(triple.n2) * math.factorial(triple.n3)
    total = Fraction(0)
    for m in range(-l, l + 1):
        state = Ame(k, l, m)
        c, cp = coeff(state, triple), coeff(state, triple_prime)
        if c.is_zero or cp.is_zero:
            continue
        total += cp.s * c.s * (c.radicand / q)
    return total / (2 * l + 1)


def norm_squared_exact(state):
    """sum_t |C_{state, t}|^2 as an exact Fraction (unitarity check)."""
    total = Fraction(0)
    for t in degenerate_subspace(state.energy_quantum):
        total += coeff(state, t).abs2()
    return total


def overlap_s_part(state_a, state_b):
    """Exact radical-free part of <state_a | state_b> within one shell.

    The full overlap is sign_a sign_b sqrt(R_a R_b) times this rational, with
    R positive, so it vanishes exactly iff this does.  The phases cancel:
    both coefficients of one triple carry the same i^n2.
    """
    if state_a.energy_quantum != state_b.energy_quantum:
        raise ValueError("states must share one energy shell")
    total = Fraction(0)
    for t in degenerate_subspace(state_a.energy_quantum):
        ca = coeff(state_a, t)
        cb = coeff(state_b, t)
        if ca.is_zero or cb.is_zero:
            continue
        q = math.factorial(t.n1) * math.factorial(t.n2) * math.factorial(t.n3)
        total += ca.s * cb.s * q
    return total
