"""Special-function kernels shared by the oscillator modules.

Floating-point evaluation of Hermite and associated Laguerre polynomials via
their stable three-term recurrences, Condon-Shortley spherical harmonics, and
exact integer double factorials for the coefficient algebra, whose numbers
are plain `Fraction`s.  The terminating Gauss hypergeometric sum at argument
-1, `gauss_2f1_neg1`, is the test oracle for the binomial sum inside the
coefficients (`expansion._binomial_alternating_sum`).
`_gh_grid` is the one Gauss-Hermite rule behind every quadrature oracle.

All floating-point routines accept scalars or numpy arrays and are pure
functions with no global state.
"""

import math
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

__all__ = [
    "hermite",
    "assoc_laguerre",
    "spherical_harmonic",
    "double_factorial",
    "gauss_2f1_neg1",
]


def hermite(n, u):
    """Physicists' Hermite polynomial H_n(u).

    Uses H_0 = 1, H_1 = 2u, H_n = 2u H_{n-1} - 2(n-1) H_{n-2}.
    `u` may be a scalar or ndarray.
    """
    if n < 0:
        raise ValueError(f"Hermite order must be nonnegative, got {n}")
    h_prev = u * 0 + 1.0
    if n == 0:
        return h_prev
    h = 2.0 * u
    for j in range(2, n + 1):
        h, h_prev = 2.0 * u * h - 2.0 * (j - 1) * h_prev, h
    return h


def assoc_laguerre(n, alpha, u):
    """Associated Laguerre polynomial L_n^(alpha)(u) for half-integer alpha.

    The last entry of `_laguerre_orders`.  At u = 0 the value equals the
    generalized binomial C(n + alpha, n).
    """
    return _laguerre_orders(n, alpha, u)[n]


def _laguerre_orders(n, alpha, u):
    """[L_0^(alpha)(u), ..., L_n^(alpha)(u)] by the three-term recurrence.

    alpha must be an exact multiple of 1/2 (alpha >= -1/2); this keeps the
    recurrence seeds free of decimal-representation drift.
    """
    if n < 0:
        raise ValueError(f"Laguerre order must be nonnegative, got {n}")
    two_alpha = 2 * alpha
    if two_alpha != round(two_alpha):
        raise ValueError(f"alpha must be a half-integer, got {alpha}")
    if two_alpha < -1:
        raise ValueError(f"alpha must be >= -1/2, got {alpha}")
    a = round(two_alpha) / 2.0
    out = [u * 0 + 1.0, 1.0 + a - u][: n + 1]
    for j in range(2, n + 1):
        out.append(((2.0 * j - 1.0 + a - u) * out[j - 1] - (j - 1.0 + a) * out[j - 2]) / j)
    return out


def _assoc_legendre_cs(l, m, x, sin_theta):
    """P_l^m(x) with the Condon-Shortley phase, m >= 0, x = cos(theta)."""
    # P_m^m = (-1)^m (2m-1)!! sin(theta)^m, then two-term upward recurrence in l.
    pmm = x * 0 + 1.0
    if m > 0:
        pmm = ((-1.0) ** m) * float(double_factorial(2 * m - 1)) * sin_theta**m
    if l == m:
        return pmm
    pm1 = x * (2.0 * m + 1.0) * pmm
    if l == m + 1:
        return pm1
    for j in range(m + 2, l + 1):
        pm1, pmm = (x * (2.0 * j - 1.0) * pm1 - (j + m - 1.0) * pmm) / (j - m), pm1
    return pm1


def spherical_harmonic(l, m, theta, phi):
    """Spherical harmonic Y_l^m(theta, phi) in the convention of this library.

    Condon-Shortley-phased associated Legendre part with azimuthal factor
    exp(-i m phi), i.e. the complex conjugate of the more common
    exp(+i m phi) choice.  The convention is pinned by the low-order
    expansion-coefficient anchor tests, which fix the sign of the imaginary
    parts; orthonormality and conj(Y_l^m) = (-1)^m Y_l^{-m} hold as usual.
    theta/phi may be arrays.
    """
    if l < 0:
        raise ValueError(f"l must be nonnegative, got {l}")
    if abs(m) > l:
        raise ValueError(f"|m| must not exceed l, got l={l}, m={m}")
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    ma = abs(m)
    x = np.cos(theta)
    sin_theta = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    norm = math.sqrt(
        (2 * l + 1) / (4.0 * math.pi) * math.factorial(l - ma) / math.factorial(l + ma)
    )
    out = norm * _assoc_legendre_cs(l, ma, x, sin_theta) * np.exp(-1j * ma * phi)
    if m < 0:
        out = ((-1.0) ** ma) * np.conj(out)
    if out.ndim == 0:
        return complex(out)
    return out


@lru_cache(maxsize=None)
def _gh_grid(n, dim=3):
    """Read-only nodes (n**dim, dim) and weights of the tensor Gauss-Hermite rule.

    The weights multiply in axis order, ((w_i w_j) w_k).  The cache is
    unbounded: the 1-D P_kl oracle asks for a different n per matrix entry.
    """
    t, w = np.polynomial.hermite.hermgauss(n)
    nodes = np.stack(np.meshgrid(*[t] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    return _read_only(nodes, reduce(np.multiply.outer, [w] * dim).ravel())


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


def double_factorial(n):
    """Exact n!! for odd n (with (-1)!! = 1) and for n in {0, 1}."""
    if n in (-1, 0, 1):
        return 1
    if n < -1 or n % 2 == 0:
        raise ValueError(f"double_factorial expects odd n >= -1 or n in {{0,1}}, got {n}")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def gauss_2f1_neg1(a, b, c):
    """Terminating 2F1(a, b; c; -1) as an exact Fraction.

    Requires nonpositive integers a and b (the series terminates at
    min(|a|, |b|)) and a parameter c whose shifted values c + j stay nonzero
    over the summation range.
    """
    if a != int(a) or b != int(b) or a > 0 or b > 0:
        raise ValueError(f"a and b must be nonpositive integers, got a={a}, b={b}")
    a = int(a)
    b = int(b)
    c = Fraction(c)
    jmax = min(-a, -b)
    total = Fraction(1)
    term = Fraction(1)
    for j in range(jmax):
        cj = c + j
        if cj == 0:
            raise ValueError(f"pole in 2F1 parameters: c + {j} = 0 inside the sum")
        term *= Fraction((a + j) * (b + j), 1) / (cj * (j + 1)) * -1
        total += term
    return total
