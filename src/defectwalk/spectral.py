"""Generating-function spectral apparatus for the defect walk.

The at-origin resolvent of the walk is a 2x2 matrix series whose denominator
L0(z) = 1 - sqrt(2) w f(z) + w^2 f(z)^2  (w = exp(2*pi*i*phi)) has simple
zeros on the unit circle.  Those zeros carry the point-mass (localized) part
of the time-averaged measure: each contributes the squared norm of the
corresponding residue.  This module computes f(z), L0(z), the singular
points in closed form with their decay factors and residue prefactors, the
numeric residue norms at the origin, and the power series of the at-origin
resolvent, which checks the renewal convolution of ``series`` coefficient by
coefficient.

Each singular-point quantity has one route and one spelling:
``singular_points`` computes w once per call and z = e^{i theta_s},
sqrt(z^4 + 1) and f(z) once per root family, and forms the gate's |L0|,
lambda, dL0/dz and g = w f(z) / sqrt(2) from them; each point, a
``SpectralPoint`` NamedTuple built positionally, stores z, g, ``lambda_sq``
and ``residue_prefactor`` = 1/|dL0/dz|^2.  ``residue_norms`` reads only g and
the prefactor from the points.  The private helpers ``_phase``, ``_root``,
``_f`` and ``_l0`` are the formulas that ``big_lambda0`` shares with
``singular_points``.  ``xi_tilde0_series`` reads none of them and nothing of
``series``: it carries sqrt(1 + u^2) by its own float step and inverts L0's
two factors by their own geometric recurrences, so it and the renewal route
share no arithmetic.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .walk import SQRT2, _check_disk, _check_phi, _check_state, _index

# root family -> (sign of pi/4 in its angle eps, open phi interval of its zeros)
_ROOT_FAMILIES = {"eps_plus": (1, 0.0, 0.75), "eps_minus": (-1, 0.25, 1.0)}

_XI_MAX_N = 10_000_000  # xi_tilde0_series' order cap: ~102 bytes per N, ~0.95 GiB
_IPI_LD = 1j * (4 * np.arctan(np.longdouble(1)))  # i pi and sqrt(2) in extended precision
_SQRT2_LD = np.sqrt(np.longdouble(2))


class SpectralPoint(NamedTuple):
    """One unit-circle zero of L0 and its residue data, an immutable
    NamedTuple of (theta_s, branch, lambda_sq, residue_prefactor, z, g).

    ``branch`` is "eps_plus:+", "eps_plus:-", "eps_minus:+" or "eps_minus:-"
    (root family and sign of the antipodal pair).  ``lambda_sq`` is the
    geometric decay factor |lambda(e^{i theta_s})|^2, lambda(z) =
    z / (f(z) - sqrt(2)), of the measure away from the origin;
    ``residue_prefactor`` is |Res(1/L0)|^2 = 1/|dL0/dz|^2 at the point;
    ``z`` = e^{i theta_s} (for a "-" point, -z of its partner, within 4e-16)
    and ``g`` = w f(z) / sqrt(2), the entry of the resolvent's numerator,
    are the values the gate checked.
    """

    theta_s: float
    branch: str
    lambda_sq: float
    residue_prefactor: float
    z: complex
    g: complex


def _phase(phi: float) -> complex:
    """w = exp(2*pi*i*phi)."""
    return cmath.exp(2j * math.pi * phi)


def _root(z: complex) -> complex:
    """Principal sqrt(z^4 + 1) of a complex z.

    z^4 is formed as (z*z)*(z*z), the two squarings that CPython's complex
    ``z ** 4`` makes, without its generic power dispatch.
    """
    z2 = z * z
    return cmath.sqrt(z2 * z2 + 1)


def _f(z: complex, root: complex) -> complex:
    """f(z) from z and root = sqrt(z^4 + 1)."""
    return (z * z + 1 - root) / SQRT2


def _l0(w: complex, f: complex) -> complex:
    """L0 from w = exp(2*pi*i*phi) and f = f(z)."""
    return 1 - SQRT2 * w * f + (w * f) ** 2


def big_lambda0(z: complex, phi: float) -> complex:
    """L0(z) = 1 - sqrt(2) w f(z) + w^2 f(z)^2 with w = exp(2*pi*i*phi) and
    f(z) = (z^2 + 1 - sqrt(z^4 + 1)) / sqrt(2), principal branch from f(0) = 0.

    z must lie in the closed unit disk (``_check_disk``), where f is
    continuous except at the branch points z^4 = -1: beyond it f cancels to
    no right digit by |z| = 1e8, and z^4 overflows to NaN parts by 1e77.
    L0 factors as (1 - w f e^{i pi/4})(1 - w f e^{-i pi/4}), so zeros sit
    where w f(z) = e^{+-i pi/4}.
    """
    phi = _check_phi(phi)
    z = _check_disk(z)
    return _l0(_phase(phi), _f(z, _root(z)))


def singular_points(phi: float) -> list:
    """Unit-circle zeros of L0 (at most four), with residue prefactors.

    A root family has zeros on its open phi interval in ``_ROOT_FAMILIES``,
    exactly where its point-mass weight is positive, so at phi = 0 there are
    none.  One gate per family: its closed-form "+" point z must satisfy
    |L0(z)| <= 1e-10, f computed from z by the principal square root, not
    taken from the closed form.  The antipode, at atan2(-s, -c), stores -z
    and its partner's lambda_sq, prefactor and g, their exact values at -z:
    negation leaves z*z, root, f and L0 bit for bit and flips dL0/dz's sign.
    """
    phi = _check_phi(phi)
    w = _phase(phi)
    points = []
    for name, (sign, lo, hi) in _ROOT_FAMILIES.items():
        if not lo < phi < hi:
            continue
        # appendix-style closed form of the antipodal (cos, sin) pair
        eps = 2 * math.pi * phi + sign * math.pi / 4  # f(z) = exp(-i eps)
        cos_eps = math.cos(eps)
        den = math.sqrt(3 - 2 * SQRT2 * cos_eps)
        c, s = math.sin(eps) / den, (cos_eps - SQRT2) / den
        theta = math.atan2(s, c)
        z = cmath.exp(1j * theta)
        root = _root(z)
        f = _f(z, root)
        resid = abs(_l0(w, f))
        if resid > 1e-10:
            raise ArithmeticError(f"singular point failed to converge: |L0| = "
                                  f"{resid:.3e} at phi={phi}, branch {name}+")
        # dL0/dz = (-sqrt(2) w + 2 w^2 f) f'(z), f'(z) = sqrt(2) z (1 - z^2 / root)
        dl0 = (-SQRT2 * w + 2 * w * w * f) * (SQRT2 * z * (1 - z * z / root))
        lam_sq, pref, g = abs(z / (f - SQRT2)) ** 2, 1 / abs(dl0) ** 2, w * f / SQRT2
        points += (SpectralPoint(theta, f"{name}:+", lam_sq, pref, z, g),
                   SpectralPoint(math.atan2(-s, -c), f"{name}:-", lam_sq, pref, -z, g))
    return points


def residue_norms(points: list, alpha: complex, beta: complex) -> list:
    """Squared residue norms of the origin resolvent at ``points``, as
    ``singular_points`` returns them, in the same order.

    Computed from the actual residue (numerator over dL0/dz at the pole),
    not from the closed form, so the sum is an independent route to the
    time-averaged limit measure at the origin.  It reads only each point's
    ``g`` and ``residue_prefactor``, which carry the points' phi, so it
    takes none, and a caller that needs both runs the ``singular_points``
    gate once.
    """
    alpha, beta = _check_state(alpha, beta)
    out = []
    for pt in points:
        # numerator vector of the at-origin resolvent applied to the state
        g = pt.g
        n1, n2 = alpha * (1 - g) - beta * g, alpha * g + beta * (1 - g)
        out.append((abs(n1) ** 2 + abs(n2) ** 2) * pt.residue_prefactor)
    return out


def residue_norms_origin(phi: float, alpha: complex, beta: complex) -> list:
    """``residue_norms`` at ``singular_points(phi)``."""
    return residue_norms(singular_points(phi), alpha, beta)


def xi_tilde0_series(phi: float, N: int) -> np.ndarray:
    """Power-series expansion of the at-origin resolvent through z^N.

    Returns an array of shape (N+1, 2, 2); the z^(2n) coefficient applied to
    the initial coin state reproduces the renewal origin amplitude at time 2n.
    f and L0 hold only even powers of z, so the series are built in u = z^2,
    every odd coefficient is exactly 0.0 and the z^0 one is exactly the
    identity.  With q = sqrt(2) f = 1 + u - s, s = sqrt(1 + u^2), L0 factors
    as (1 - a+ q)(1 - a- q), a+- = w (1 +- i) / 2, and partial fractions in
    Y+- = 1 / (1 - a+- q) give the entries (1 - g) / L0 = (Y+ + Y-) / 2 and
    g / L0 = (Y+ - Y-) / (2i), g = w q / 2.  Rationalized, Y = (c0 - a p) /
    (c0 - c1 u) with p = 2u - q = u + s - 1, c0 = 1 - 2a and c1 = 2a (1 - a).
    |a|^2 = 1/2 makes |c1| = |c0|, so rho = c1 / c0 = e^{i theta} has modulus
    1 and y_k = rho^k (1 - (a / c0) sum_{j<=k} p_j rho^-j): one prefix sum per
    factor, with no reciprocal and no product of series.  Each denominator
    has a simple zero, so the double root of their product at phi = 1/6 and
    5/6 is harmless.  s is carried by its float binomial step, c_m = c_{m-1}
    (3 - 2m) / (2m) (relative error 3.5e-15 at m = 1100, 1.8e-14 at 10^5).

    rho^k's phase error grows with k and no other error does, so theta is
    formed from phi in extended precision (``np.longdouble``; 80-bit on x86)
    and split into a 24-bit head, whose multiples are exact, and a tail.
    rho^-k is a stride phase times a block phase, and the prefix sum runs
    within blocks of about sqrt(N/2) terms before the blocks' totals are
    added.  Max |error| against the same identity in mpmath (phi exact), over
    phi in {0.1, 1/6, 0.3, 0.5, 1/4 + 1e-7, 0.77}: 2.8e-16 at N = 600 and
    5.6e-16 at 4400 (the reciprocal it replaced: 2.3e-14 and 1.7e-13); over
    {0.1, 1/6, 0.3, 0.5, 0.77}, 1.7e-15 at 2e4 and 1.7e-14 at 2e5.  With
    float64 in place of longdouble, N = 4400 read up to 1.7e-13.  Cost O(N),
    fastest in-process call: 0.056 ms at N = 600, 0.12 ms at 4400, 1.0 ms at
    4e4 and 50 ms at 1e6 on a 2-vCPU Xeon; the tracemalloc peak is about 102
    bytes per N (64 of them the result), so ``_XI_MAX_N`` = 10^7 caps N at a
    peak of about 0.95 GiB.
    """
    phi = _check_phi(phi)
    N = _index(N, "N", 0, _XI_MAX_N)
    n = N // 2 + 1  # coefficients of u^0 .. u^(N//2)
    block = math.isqrt(n - 1) + 1
    nblocks = -(-n // block)
    p = np.zeros(nblocks * block)  # p = u + s - 1: 0, 1, then s's u^(2m) term
    p[1:2] = 1.0
    m = np.arange(1.0, N // 4 + 1)
    p[2:n:2] = np.cumprod((1.5 - m) / m)  # sqrt(1 + u^2)'s step (3 - 2m) / (2m)
    factors, turns = [], np.longdouble(phi) * 2
    for quarter in (0.25, -0.25):  # a+, a-
        e = np.exp(_IPI_LD * (turns + quarter))  # a = e / sqrt(2)
        c0 = 1 - _SQRT2_LD * e
        rho = e * (_SQRT2_LD - e) / c0  # c1 / c0
        theta = np.arctan2(rho.imag, rho.real)
        hi = float(np.float32(theta))  # k * hi is exact for k < 2^29
        beta = complex(e / (_SQRT2_LD * c0))  # a / c0
        factors.append((-1j * hi, -1j * float(theta - hi), beta))
    # -i theta = head + tail, and beta, as (2, 1) columns
    head, tail, beta = (np.array(col)[:, None] for col in zip(*factors))
    k = np.arange(block)
    k = np.concatenate((k, k[:nblocks] * block))
    powers = np.exp(k * head) * np.exp(k * tail)  # rho^-k = e^{-i k theta}
    stride, lead = powers[:, :block], powers[:, block:]  # rho^-r, rho^-(b block)
    # [:, b, r] is beta rho^(b block) sum_{j = b block .. k} p_j rho^-j, k = b block + r
    part = np.cumsum((beta * stride)[:, None, :] * p.reshape(nblocks, block), axis=2)
    below = np.zeros((2, nblocks), dtype=complex)  # beta sum_{j < b block} p_j rho^-j
    np.cumsum(lead[:, :-1] * part[:, :-1, -1], axis=1, out=below[:, 1:])
    # y / 2: the 1/2 of the entries (Y+ +- Y-) / 2 rides on rho^r, exactly
    back = np.conj(powers)  # rho^r and rho^(b block)
    y = (0.5 * back[:, :block])[:, None, :] * (
        (back[:, block:] * (1 - below))[:, :, None] - part)
    y = y.reshape(2, -1)[:, :n]
    out = np.zeros((N + 1, 2, 2), dtype=complex)
    even = out.reshape(-1, 4)[::2]  # rows (diag, -ig, ig, diag)
    np.add(y[0], y[1], out=even[:, 0])
    even[:, 3] = even[:, 0]
    np.subtract(y[0], y[1], out=even[:, 1])
    even[:, 1] *= 1j
    np.negative(even[:, 1], out=even[:, 2])
    return out
