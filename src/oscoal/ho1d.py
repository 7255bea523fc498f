"""1-D harmonic oscillator: eigenfunctions, Wigner functions, coalescence kernels.

Eigenfunctions phi_n(x) use the inverse oscillator length nu = sqrt(m omega /
hbar).  The mixed (off-diagonal) Wigner functions

    W_{n' n}(x, q) = Int dx'/(2 pi hbar) e^{i x' q / hbar}
                     phi_{n'}(x + x'/2) phi_n(x - x'/2)

have the closed form, for n >= n',

    W_{n' n} = (-1)^{n'} / (pi hbar) sqrt(n'!/n!) w^{n-n'}
               L_{n'}^{(n-n')}(u) e^{-u/2},
    u = 2 (q^2/(hbar nu)^2 + nu^2 x^2),   w = sqrt(2) (nu x - i q/(hbar nu)),

with the n' > n triangle filled by Hermitian conjugation.  The generating
function wigner_1d_gen packages all of them at once and is what the transform
definition above actually produces; its Taylor coefficient of
alpha^{n'} beta^n times sqrt(n! n'!) is W_{n' n}.

Overlapping a mixed Wigner function with two displaced Gaussian wave packets
of common width delta gives the coalescence quasi-probabilities
P_{n' n}(r, p) of the relative coordinate.  They depend on the scale ratio
zeta = 2 delta nu and come from a quadratic-exponent generating function in
(alpha, beta) whose exponent has no alpha beta term.  The table therefore has
rank one, P_{n' n} = conj(g_{n'}) g_n: the relative state of two Gaussian
packets is a pure squeezed coherent state with amplitudes g_n, which follow
from a three-term recurrence; numerical differentiation is never used.  Note
the opposite off-diagonal phase convention of the quasi-probabilities
relative to W_{n' n}: the quasi-probability generating function is
conventionally written with alpha and beta exchanged, and the closed forms
below follow that convention.  Diagonal entries and all bilinear (Hermitian)
combinations are unaffected.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .specfun import assoc_laguerre, hermite

__all__ = [
    "OscParams",
    "Phase1D",
    "phi_n",
    "wigner_1d",
    "wigner_1d_gen",
    "quasi_amplitudes",
    "quasi_prob",
    "quasi_prob_table",
    "quasi_prob_zeta1",
]


@dataclass(frozen=True)
class OscParams:
    """Oscillator inverse length nu, wave-packet width delta, and hbar.

    The dimensionless scale ratio zeta = 2 delta nu is always derived, never
    stored, so it cannot drift out of sync.
    """

    nu: float
    delta: float = 0.5
    hbar: float = 1.0

    def __post_init__(self):
        if not all(0 < x < math.inf for x in (self.nu, self.delta, self.hbar)):
            raise ValueError(f"nu, delta, hbar must all be positive and finite, got {self}")
        # the kernels divide by these scales and multiply by them
        hnu, z2 = self.hbar * self.nu, self.zeta * self.zeta
        scales = {"nu^2": self.nu * self.nu, "(hbar nu)^2": hnu * hnu, "zeta^4": z2 * z2}
        for name, x in scales.items():
            if not (0 < x < math.inf and 1 / x < math.inf):
                raise ValueError(f"{name} = {x!r} for {self}; nu^2, (hbar nu)^2, zeta^4 and "
                                 "their reciprocals must be finite and nonzero")

    @property
    def zeta(self):
        return 2.0 * self.delta * self.nu

    @classmethod
    def from_zeta(cls, nu, zeta, hbar=1.0):
        if not (0 < nu < math.inf and 0 < zeta < math.inf):
            raise ValueError(f"nu and zeta must be positive and finite, got nu={nu}, zeta={zeta}")
        return cls(nu=nu, delta=zeta / (2.0 * nu), hbar=hbar)


@dataclass(frozen=True)
class Phase1D:
    """A 1-D phase-space point (x, q)."""

    x: float
    q: float


def phi_n(n, x, params):
    """Normalized oscillator eigenfunction phi_n(x); accepts array x."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    nu = params.nu
    norm = math.sqrt(nu / (2.0**n * math.factorial(n) * math.sqrt(math.pi)))
    u = nu * x
    return norm * hermite(n, u) * np.exp(-0.5 * u * u)


def _wigner_poly(n_prime, n, xi, eta):
    """Polynomial part of W_{n'n} for n >= n' (everything except e^{-u/2}/pi hbar)."""
    u = 2.0 * (xi * xi + eta * eta)
    w = math.sqrt(2.0) * (xi - 1j * eta)
    pref = (-1.0) ** n_prime * math.sqrt(math.factorial(n_prime) / math.factorial(n))
    return pref * w ** (n - n_prime) * assoc_laguerre(n_prime, n - n_prime, u)


def wigner_1d(n_prime, n, ph, params):
    """Mixed Wigner function W_{n' n}(x, q); real for n = n'.

    Closed Laguerre form for n >= n'; the other triangle follows from
    W_{n' n} = conj(W_{n n'}).
    """
    if n_prime < 0 or n < 0:
        raise ValueError("state labels must be nonnegative")
    if n_prime > n:
        return wigner_1d(n, n_prime, ph, params).conjugate()
    nu, hbar = params.nu, params.hbar
    xi = nu * ph.x
    eta = ph.q / (hbar * nu)
    u = 2.0 * (xi * xi + eta * eta)
    return _wigner_poly(n_prime, n, xi, eta) * math.exp(-0.5 * u) / (math.pi * hbar)


def wigner_1d_gen(alpha, beta, ph, params):
    """Generating function of the mixed Wigner functions.

    G(alpha, beta; x, q) = exp(-u/2 + sqrt(2)(xi + i eta) alpha
                               + sqrt(2)(xi - i eta) beta - alpha beta) / (pi hbar)
    with xi = nu x, eta = q/(hbar nu).  W_{n' n} is sqrt(n! n'!) times the
    coefficient of alpha^{n'} beta^n, consistent with the transform
    definition and with wigner_1d.
    """
    nu, hbar = params.nu, params.hbar
    xi = nu * ph.x
    eta = ph.q / (hbar * nu)
    u = 2.0 * (xi * xi + eta * eta)
    expo = (
        -0.5 * u
        + math.sqrt(2.0) * (xi + 1j * eta) * alpha
        + math.sqrt(2.0) * (xi - 1j * eta) * beta
        - alpha * beta
    )
    return cmath.exp(expo) / (math.pi * hbar)


def quasi_amplitudes(r_i, p_i, params, nmax):
    """Amplitudes g_n, n <= nmax, with P_{n' n}(r_i, p_i) = conj(g_{n'}) g_n.

    Folding Gaussian wave packets of width delta into the Wigner generating
    function gives a quadratic exponent whose alpha beta coefficient,
    z^2/(1+z^2) + 1/(1+z^2) - 1, vanishes, so it splits as
    const + conj(b) alpha + c alpha^2 + b beta + c beta^2 with

        b = sqrt(2) (rho + i z^2 pi~)/(1+z^2),   c = (z^2 - 1)/(2 (1+z^2)),
        const = -(rho^2 + z^2 pi~^2)/(1+z^2),   prefactor 2 z/(1+z^2),

    rho = nu r, pi~ = p/(nu hbar), z = zeta.  The beta^n coefficients h_n of
    exp(b beta + c beta^2) obey (n+1) h_{n+1} = b h_n + 2c h_{n-1}; the
    recurrence runs on g_n = sqrt(prefactor e^const n!) h_n directly, so no
    factorial is ever formed.  Scalar inputs give shape (nmax+1,), array
    inputs append the broadcast shape.
    """
    if nmax < 0:
        raise ValueError(f"nmax must be nonnegative, got {nmax}")
    z = params.zeta
    rho = np.asarray(r_i, dtype=float) * params.nu
    pit = np.asarray(p_i, dtype=float) / (params.nu * params.hbar)
    s = 1.0 + z * z
    b = math.sqrt(2.0) * (rho + 1j * z * z * pit) / s
    c2 = (z * z - 1.0) / s
    g = np.empty((nmax + 1,) + b.shape, dtype=complex)
    g[0] = np.sqrt(2.0 * z / s * np.exp(-(rho * rho + z * z * pit * pit) / s))
    if nmax >= 1:
        g[1] = b * g[0]
    for n in range(1, nmax):
        g[n + 1] = (b * g[n] + c2 * math.sqrt(n) * g[n - 1]) / math.sqrt(n + 1)
    return g


def quasi_prob_table(r_i, p_i, params, nmax):
    """All quasi-probabilities P_{n' n} with n', n <= nmax at once.

    Returns a complex array T with T[n', n] = P_{n' n}(r_i, p_i), the outer
    product conj(g_{n'}) g_n of `quasi_amplitudes`; scalar inputs give a
    (nmax+1, nmax+1) table, array inputs append the broadcast shape.
    """
    g = quasi_amplitudes(r_i, p_i, params, nmax)
    return np.conj(g)[:, None] * g[None, :]


def quasi_prob(n_prime, n, r_i, p_i, params):
    """Coalescence quasi-probability P_{n' n}(r_i, p_i) at any zeta > 0.

    conj(g_{n'}) g_n of the rank-one factorization in `quasi_amplitudes`.
    Diagonal entries are real coalescence probabilities; P_{n' n} =
    conj(P_{n n'}).
    """
    if n_prime < 0 or n < 0:
        raise ValueError("state labels must be nonnegative")
    g = quasi_amplitudes(r_i, p_i, params, max(n_prime, n))
    out = np.conj(g[n_prime]) * g[n]
    if np.ndim(out) == 0:
        return complex(out)
    return out


def quasi_prob_zeta1(n_prime, n, r_i, p_i, params):
    """Closed form of P_{n' n} in the matched-scale case zeta = 1.

    P_{n' n} = e^{-v} / sqrt(n! n'!) * ((nu r + i p/(nu hbar))/sqrt(2))^n
               * ((nu r - i p/(nu hbar))/sqrt(2))^{n'},
    v = nu^2 r^2 / 2 + p^2 / (2 hbar^2 nu^2).
    """
    if n_prime < 0 or n < 0:
        raise ValueError("state labels must be nonnegative")
    if abs(params.zeta - 1.0) > 1e-12:
        raise ValueError(f"closed form requires zeta = 1, got zeta = {params.zeta}")
    nu, hbar = params.nu, params.hbar
    rho = nu * r_i
    pit = p_i / (nu * hbar)
    v = 0.5 * (rho * rho + pit * pit)
    zp = (rho + 1j * pit) / math.sqrt(2.0)
    zm = (rho - 1j * pit) / math.sqrt(2.0)
    return (
        math.exp(-v)
        / math.sqrt(math.factorial(n) * math.factorial(n_prime))
        * zp**n
        * zm**n_prime
    )
