"""Special-function kernels shared by the oscillator modules.

Floating-point evaluation of Hermite and associated Laguerre polynomials via
their stable three-term recurrences, Condon-Shortley spherical harmonics, and
exact integer double factorials for the coefficient algebra, whose numbers
are plain `Fraction`s.  The terminating Gauss hypergeometric sum at argument
-1, `gauss_2f1_neg1`, is the test oracle for the binomial sum inside the
coefficients (`expansion._binomial_alternating_sum`).
`_gh_grid` is the one Gauss-Hermite rule behind every quadrature oracle.
`erf`, the error function of the smeared spectra, is plain numpy, within
1 ulp, so numpy is the package's only runtime dependency.

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
    "erf",
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


# erf on three ranges of a = |x|, from coefficients fitted offline in
# 60-digit mpmath (Chebyshev interpolants for the two polynomials, a
# least-squares rational for the tail with the error weighted by exp(-a^2)).
# The breaks keep each rounding error small next to the result: a q(a^2) is
# at most 0.13 a, the middle correction at most 0.1, and the tail's
# exp(-a^2) P/Q at most erfc(1.25) = 0.077, so an error in numpy's exp
# moves the result by a tenth of its size.
# [0, 0.84375): erf(a) = a + a q(a^2), q(s) = erf(sqrt s) / sqrt s - 1
_ERF_SMALL = 0.84375
_ERF_SMALL_COEFFS = (
    0.12837916709551256, -0.376126389031834, 0.11283791670935311, -0.02686617064077985,
    0.005223977576377844, -0.000854832379116413, 0.00012055199941321885,
    -1.4922121574443055e-05, 1.640162967934702e-06, -1.571446067260244e-07,
    1.0726571432176348e-08,
)
# [0.84375, 1.25): erf(a) = E + m(a - c), c = 1.046875, E = erf(c) rounded,
# m a polynomial
_ERF_MID, _ERF_MID_CENTER, _ERF_MID_BASE = 1.25, 1.046875, 0.8612614254620755
_ERF_MID_COEFFS = (
    5.5419418103688716e-17, 0.3771301114032875, -0.3948080853753175, 0.14983310578410092,
    0.05317442881662232, -0.0672167238680087, 0.009275988186156109, 0.013229473014951228,
    -0.005450108178485026, -0.001304711048513245, 0.0012419030955942566,
    -1.8611056649251752e-05, -0.00018160132920540636,
)
# [1.25, 6]: erf(a) = 1 - exp(-a^2) P(a) / Q(a), P/Q = exp(a^2) erfc(a).  Past
# 6 the argument is clipped: erfc(6) = 2.2e-17 is below half an ulp of 1, so
# the result is exactly 1 there, infinity included.
_ERF_SATURATION = 6.0
_ERF_TAIL_P = (
    0.9999995813053122, 1.4230333236012855, 0.9905190420980713, 0.3984243477661515,
    0.09239150951336488, 0.010175913675372137,
)
_ERF_TAIL_Q = (
    1.0, 2.55140854751041, 2.8694931444146214, 1.8370929339593833, 0.715249500233789,
    0.16375706205481688, 0.018036414426256052,
)
_ERF_CHUNK = 16384


def erf(x, out=None):
    """The error function, element by element, in plain numpy.

    Within 1 ulp of the exact value (pinned against 50-digit mpmath),
    odd bit for bit, nondecreasing, exactly +-1 for |x| >= 6, +-1 at +-inf
    and nan at nan.  The flat array is taken in chunks of `_ERF_CHUNK`
    elements through three scratch rows, so the working memory does not grow
    with the input.  `out`, a C-contiguous float64 array of x's shape, may be
    x itself.
    """
    x = np.asarray(x, dtype=float)
    res = np.empty(x.shape) if out is None else out
    if res.shape != x.shape or res.dtype != np.float64 or not res.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {x.shape}")
    flat_x, flat_res = x.reshape(-1), res.reshape(-1)
    rows = np.empty((3, min(_ERF_CHUNK, flat_x.size)))
    for lo in range(0, flat_x.size, _ERF_CHUNK):
        xc = flat_x[lo : lo + _ERF_CHUNK]
        a, p, q = rows[:, : len(xc)]
        np.abs(xc, out=a)
        small = np.flatnonzero(a < _ERF_SMALL)
        middle = np.flatnonzero((a >= _ERF_SMALL) & (a < _ERF_MID))
        u = a[small]
        t = a[middle] - _ERF_MID_CENTER
        # the tail on every element; the other two ranges overwrite theirs
        np.minimum(a, _ERF_SATURATION, out=a)
        np.divide(_horner(_ERF_TAIL_P, a, p), _horner(_ERF_TAIL_Q, a, q), out=p)
        np.square(a, out=q)
        np.negative(q, out=q)
        p *= np.exp(q, out=q)
        np.subtract(1.0, p, out=p)
        p[small] = u + u * _horner(_ERF_SMALL_COEFFS, u * u)
        p[middle] = _ERF_MID_BASE + _horner(_ERF_MID_COEFFS, t)
        np.copysign(p, xc, out=flat_res[lo : lo + len(xc)])
    return res if out is not None else res[()]


def _horner(coeffs, t, out=None):
    """sum_j coeffs[j] t^j, into `out` if given (which must not be t)."""
    out = np.empty(t.shape) if out is None else out
    out.fill(coeffs[-1])
    for c in coeffs[-2::-1]:
        out *= t
        out += c
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
