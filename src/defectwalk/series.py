"""Exact-rational power series for the first-return structure of the walk.

Everything here is about walks on the half line that hit the origin for the
first time at step n.  Their matrix weights, expanded in the orthonormal
matrix basis {P, Q, R, S}, have rational coefficients generated by
(-1 + sqrt(1 + z^4)) / z.  The combined two-sided first-return coefficients
r*_n, generated by (-1 - z^2 + sqrt(1 + z^4)) / z, drive a renewal
convolution that reconstructs the origin amplitude of the defect walk at
every even time.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .walk import DomainError, WalkParams

_RENEWAL_MATRIX = np.array([[-1.0, 1.0], [-1.0, -1.0]], dtype=complex)


def sqrt1z4_series(N: int) -> tuple:
    """Binomial expansion of (1 + z^4)^(1/2) through z^N.

    Returns the N + 1 coefficients as Fractions, indexed by the power of z.
    """
    if N < 0:
        raise DomainError(f"N must be >= 0, got {N}")
    out = [Fraction(0)] * (N + 1)
    c = Fraction(1)
    out[0] = c
    k = 1
    while 4 * k <= N:
        c = c * (Fraction(1, 2) - (k - 1)) / k
        out[4 * k] = c
        k += 1
    return tuple(out)


def rstar(n: int) -> Fraction:
    """Two-sided first-return coefficient r*_n.

    Nonzero only at n = 1 (value -1) and n = 4m - 1, where it equals
    (-1)^(m-1) * C(2m-2, m-1) / (2^(2m-1) * m).  This closed form is the
    one forced by the generating function (-1 - z^2 + sqrt(1 + z^4)) / z; the
    triple-equivalence tests pin it against both the series expansion and
    the exact first-passage path sum.
    """
    if n <= 0:
        raise DomainError(f"n must be >= 1, got {n}")
    if n == 1:
        return Fraction(-1)
    if n % 4 != 3:
        return Fraction(0)
    m = (n + 1) // 4
    num = (-1) ** (m - 1) * math.comb(2 * m - 2, m - 1)
    return Fraction(num, 2 ** (2 * m - 1) * m)


def rstar_series(N: int) -> tuple:
    """Coefficients of (-1 - z^2 + sqrt(1 + z^4)) / z through z^N: the
    first-return series minus z."""
    out = list(first_return_series(N))
    if N >= 1:
        out[1] -= 1
    return tuple(out)


def first_return_series(N: int) -> tuple:
    """Half-line first-return coefficients: (-1 + sqrt(1 + z^4)) / z.

    The constant term of sqrt(1 + z^4) is 1, so the coefficient of z^n is
    that of z^(n+1) in sqrt(1 + z^4).  Returns N + 1 Fractions.  The mirror
    half-line series is the coefficientwise negation.
    """
    if N < 0:
        raise DomainError(f"N must be >= 0, got {N}")
    return sqrt1z4_series(N + 1)[1:]


# Integer-scaled step matrices: sqrt(2) * P and sqrt(2) * Q.
_P2 = ((1, 1), (0, 0))
_Q2 = ((0, 0), (1, -1))


def _mat_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def _mat_add(a, b):
    return (
        (a[0][0] + b[0][0], a[0][1] + b[0][1]),
        (a[1][0] + b[1][0], a[1][1] + b[1][1]),
    )


PATH_ORACLE_MAX_N = 401


def path_oracle_coefficients(n: int) -> tuple:
    """Exact expansion of the length-n first-passage matrix sum.

    Sums, over every step sequence that starts at site 1, stays >= 1 until
    time n - 1, and lands on 0 at time n, the ordered product of the
    half-line step matrices along the path.  Paths are not enumerated: a
    dynamic program over positions carries, for each site x, the summed
    integer product of every admissible prefix ending at x, one step at a
    time, in O(n^2) matrix products.  A site x at time t is kept only while
    x <= n - t, so it can still reach 0.  The sum is resolved in the
    orthonormal basis {P, Q, R, S} under <A|B> = tr(A* B); returns the four
    coefficients (p, q, r, s) as exact rationals.
    """
    if not 1 <= n <= PATH_ORACLE_MAX_N:
        raise DomainError(
            f"path oracle supports 1 <= n <= {PATH_ORACLE_MAX_N}, got {n}"
        )
    if n % 2 == 0:
        # a path from 1 to 0 has odd length; the matrix sum is empty
        return (Fraction(0),) * 4

    layer = {1: ((1, 0), (0, 1))}
    for t in range(1, n + 1):
        nxt = {}
        for x, prod in layer.items():
            # left step; leaving the half line is allowed only as the final move
            if x - 1 >= 1 or (x - 1 == 0 and t == n):
                left = _mat_mul(_P2, prod)
                nxt[x - 1] = _mat_add(nxt[x - 1], left) if x - 1 in nxt else left
            # right step
            if x + 1 <= n - t:
                right = _mat_mul(_Q2, prod)
                nxt[x + 1] = _mat_add(nxt[x + 1], right) if x + 1 in nxt else right
        layer = nxt
    # after n steps only site 0 is left
    m = layer[0]
    # m = sqrt(2)^n * Xi; coefficients of Xi in {P,Q,R,S} pick up 1/sqrt(2)
    # from each basis matrix, so every value is integer / 2^((n+1)/2).
    den = 2 ** ((n + 1) // 2)
    p = Fraction(m[0][0] + m[0][1], den)
    r = Fraction(m[0][0] - m[0][1], den)
    s = Fraction(m[1][0] + m[1][1], den)
    q = Fraction(m[1][0] - m[1][1], den)
    return (p, q, r, s)


def path_oracle_first_return(n: int) -> Fraction:
    """R-coefficient of the first-passage sum; matches first_return_series."""
    return path_oracle_coefficients(n)[2]


def psi_origin_sequence(nmax: int, params: WalkParams) -> list:
    """Origin amplitudes at times 0, 2, ..., 2*nmax via the renewal convolution.

    Psi_{2n}(0) = sum_{a=1}^{n} Xi*_{2a} Psi_{2(n-a)}(0) with Psi_0(0) the
    initial coin state.  This telescopes the sum over return-epoch
    compositions instead of enumerating them.  The coefficients come from
    the closed form ``rstar``, stored in reverse, so each new amplitude is
    one dot product of them with the history so far: O(nmax^2) flops, with
    numpy over the history.  Returns nmax + 1 coin 2-vectors, indexed by n.
    """
    if nmax < 0:
        raise DomainError(f"n must be >= 0, got {nmax}")
    omega = params.omega
    coeff_rev = np.array(
        [omega * float(rstar(2 * a - 1)) / 2.0 for a in range(nmax, 0, -1)],
        dtype=complex,
    )
    psi = np.empty((nmax + 1, 2), dtype=complex)
    psi[0] = (params.alpha, params.beta)
    for k in range(1, nmax + 1):
        # coeff_rev[nmax - k:] holds the coefficients for a = k, ..., 1
        psi[k] = _RENEWAL_MATRIX @ (coeff_rev[nmax - k:] @ psi[:k])
    return list(psi)
