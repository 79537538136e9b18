"""Generating-function spectral apparatus for the defect walk.

The at-origin resolvent of the walk is a 2x2 matrix series whose denominator
L0(z) = 1 - sqrt(2) w f(z) + w^2 f(z)^2  (w = exp(2*pi*i*phi)) has simple
zeros on the unit circle.  Those zeros carry the point-mass (localized) part
of the time-averaged measure: each contributes the squared norm of the
corresponding residue.  This module computes f(z), the decay factor
lambda(z), the singular points in closed form, and the numeric residue norms
at the origin.

Each singular-point quantity has one route: ``singular_points`` evaluates
dL0/dz once per point, as ``residue_prefactor`` = 1/|dL0/dz|^2, and
``residue_norms_origin`` reads it from the points.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .series import sqrt1z4_series
from .walk import SQRT2, DomainError, _check_phi

# root family -> (sign of pi/4 in its angle eps, open phi interval of its zeros)
_ROOT_FAMILIES = {"eps_plus": (1, 0.0, 0.75), "eps_minus": (-1, 0.25, 1.0)}


@dataclass(frozen=True)
class SpectralPoint:
    """One unit-circle zero of L0 and its residue data.

    ``branch`` is "eps_plus:+", "eps_plus:-", "eps_minus:+" or "eps_minus:-"
    (root family and sign of the antipodal pair).  ``lambda_sq`` is the
    geometric decay factor |lambda(e^{i theta_s})|^2 of the measure away from
    the origin; ``residue_prefactor`` is |Res(1/L0)|^2 = 1/|dL0/dz|^2 at the
    point.
    """

    theta_s: float
    branch: str
    lambda_sq: float
    residue_prefactor: float

    @property
    def z(self) -> complex:
        return cmath.exp(1j * self.theta_s)


def f_tilde(z: complex) -> complex:
    """f(z) = (z^2 + 1 - sqrt(z^4 + 1)) / sqrt(2), principal branch from f(0)=0.

    The principal square root is continuous on the closed unit disk except at
    the four branch points z^4 = -1, where z^4 + 1 vanishes.
    """
    z = complex(z)
    return (z * z + 1 - cmath.sqrt(z ** 4 + 1)) / SQRT2


def f_tilde_deriv(z: complex) -> complex:
    """d f / dz = sqrt(2) z (1 - z^2 / sqrt(z^4 + 1))."""
    z = complex(z)
    return SQRT2 * z * (1 - z * z / cmath.sqrt(z ** 4 + 1))


def lambda_tilde(z: complex) -> complex:
    """lambda(z) = z / (f(z) - sqrt(2)); |f| <= 1 on the closed disk keeps the
    denominator away from zero."""
    f = f_tilde(z)
    d = f - SQRT2
    if not abs(d) > 0.1:
        raise DomainError(
            f"f(z) approached sqrt(2) inside the closed disk: |f - sqrt(2)| = "
            f"{abs(d)} at z = {z}"
        )
    return complex(z) / d


def big_lambda0(z: complex, phi: float) -> complex:
    """L0(z) = 1 - sqrt(2) w f(z) + w^2 f(z)^2 with w = exp(2*pi*i*phi).

    Factors as (1 - w f e^{i pi/4})(1 - w f e^{-i pi/4}), so zeros sit where
    w f(z) = e^{+-i pi/4}.
    """
    _check_phi(phi)
    w = cmath.exp(2j * math.pi * phi)
    f = f_tilde(z)
    return 1 - SQRT2 * w * f + (w * f) ** 2


def big_lambda0_deriv(z: complex, phi: float) -> complex:
    """dL0/dz = (-sqrt(2) w + 2 w^2 f(z)) f'(z)."""
    _check_phi(phi)
    w = cmath.exp(2j * math.pi * phi)
    return (-SQRT2 * w + 2 * w * w * f_tilde(z)) * f_tilde_deriv(z)


def singular_points(phi: float) -> list:
    """Unit-circle zeros of L0 (at most four), with residue prefactors.

    A root family has zeros on its open phi interval in ``_ROOT_FAMILIES``,
    exactly where its point-mass weight is positive, so at phi = 0 there are
    none.  Each closed-form point must satisfy |L0(e^{i theta_s})| <= 1e-10.
    """
    _check_phi(phi)
    points = []
    for name, (sign, lo, hi) in _ROOT_FAMILIES.items():
        if not lo < phi < hi:
            continue
        # appendix-style closed form of the antipodal (cos, sin) pair
        eps = 2 * math.pi * phi + sign * math.pi / 4  # f(z) = exp(-i eps)
        den = math.sqrt(3 - 2 * SQRT2 * math.cos(eps))
        c = math.sin(eps) / den
        s = (math.cos(eps) - SQRT2) / den
        for pm, cos_s, sin_s in (("+", c, s), ("-", -c, -s)):
            theta = math.atan2(sin_s, cos_s)
            z = cmath.exp(1j * theta)
            resid = abs(big_lambda0(z, phi))
            if resid > 1e-10:
                raise ArithmeticError(
                    f"singular point failed to converge: |L0| = {resid:.3e} "
                    f"at phi={phi}, branch {name}{pm}"
                )
            points.append(SpectralPoint(
                theta_s=theta, branch=f"{name}:{pm}",
                lambda_sq=abs(lambda_tilde(z)) ** 2,
                residue_prefactor=1 / abs(big_lambda0_deriv(z, phi)) ** 2))
    return points


def _origin_numerator(z: complex, phi: float, alpha: complex, beta: complex):
    """Numerator vector of the at-origin resolvent applied to the coin state."""
    w = cmath.exp(2j * math.pi * phi)
    g = w * f_tilde(z) / SQRT2
    return (alpha * (1 - g) - beta * g, alpha * g + beta * (1 - g))


def residue_norms_origin(phi: float, alpha: complex, beta: complex) -> list:
    """Squared residue norms of the origin resolvent, one per singular point.

    Computed from the actual residue (numerator over dL0/dz at the pole, the
    latter read as each point's ``residue_prefactor``), not from the closed
    form, so the sum is an independent route to the time-averaged limit
    measure at the origin.  Returned in the same order as
    ``singular_points(phi)``.
    """
    out = []
    for pt in singular_points(phi):
        n1, n2 = _origin_numerator(pt.z, phi, alpha, beta)
        out.append((abs(n1) ** 2 + abs(n2) ** 2) * pt.residue_prefactor)
    return out


def xi_tilde0_series(phi: float, N: int) -> np.ndarray:
    """Power-series expansion of the at-origin resolvent through z^N.

    Returns an array of shape (N+1, 2, 2); the z^(2n) coefficient applied to
    the initial coin state reproduces the renewal origin amplitude at time 2n.
    Built by composing the rational sqrt(1+z^4) series into f, then inverting
    1/L0 term by term.
    """
    _check_phi(phi)
    if N < 0:
        raise DomainError(f"N must be >= 0, got {N}")
    s4 = np.array([float(c) for c in sqrt1z4_series(N)])
    f = -s4 / SQRT2
    f[0] += 1 / SQRT2
    if N >= 2:
        f[2] += 1 / SQRT2
    f = f.astype(complex)
    w = cmath.exp(2j * math.pi * phi)
    fsq = np.convolve(f, f)[: N + 1]
    lam = -SQRT2 * w * f + w * w * fsq
    lam[0] += 1.0
    # geometric inversion of L0; f has no z^0 term, so L0's constant term is
    # exactly 1
    inv = np.zeros(N + 1, dtype=complex)
    inv[0] = 1.0
    for n in range(1, N + 1):
        inv[n] = -np.dot(lam[1 : n + 1], inv[n - 1 :: -1][:n])
    g = w * f / SQRT2
    out = np.zeros((N + 1, 2, 2), dtype=complex)
    ig = np.convolve(inv, g)[: N + 1]
    out[:, 0, 0] = inv - ig
    out[:, 0, 1] = -ig
    out[:, 1, 0] = ig
    out[:, 1, 1] = inv - ig
    return out
