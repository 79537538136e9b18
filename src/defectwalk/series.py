"""Exact-rational power series for the first-return structure of the walk.

Everything here is about walks on the half line that hit the origin for the
first time at step n.  Their matrix weights, expanded in the orthonormal
matrix basis {P, Q, R, S}, have rational coefficients generated by
(-1 + sqrt(1 + z^4)) / z.  The combined two-sided first-return coefficients
r*_n, generated by (-1 - z^2 + sqrt(1 + z^4)) / z, drive a renewal
convolution that reconstructs the origin amplitude of the defect walk at
every even time.

One generator, ``_rstar_ratios``, carries the closed form of r* as integer
ratios over powers of two; it is also the one integer carrier of sqrt(1 + z^4),
whose z^(4m) coefficient is r*_{4m-1}.  The series route,
``first_return_series``, is a separate reduced Fraction recurrence.  Neither
forms a gcd of two large integers.  ``_renewal_coefficients`` rounds each
ratio once as it is yielded: the denominator is a power of two, so scaling the
numerator's float by it is exact, and int / int true division takes over once
the numerator is past the largest float.  The renewal equation is solved by
``_series_reciprocal``, a Newton-doubling reciprocal in O(log N) convolutions.
The resolvent series in ``spectral`` reads nothing of this module.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .walk import WalkParams, _index


def rstar(n: int) -> Fraction:
    """Two-sided first-return coefficient r*_n.

    Nonzero only at n = 1 (value -1) and n = 4m - 1, where it equals
    (-1)^(m-1) * C(2m-2, m-1) / (2^(2m-1) * m).  This closed form is the
    one forced by the generating function (-1 - z^2 + sqrt(1 + z^4)) / z; the
    triple-equivalence tests pin it against both the series expansion and
    the exact first-passage path sum.
    """
    n = _index(n, "n", 1)
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

    The z^(4k) coefficient of sqrt(1 + z^4) is carried from k - 1 by the
    binomial step c_k = c_{k-1} (3 - 2k) / (2k) as a reduced Fraction.
    Fraction multiplication cancels each side's numerator against the other
    side's denominator, so every gcd it forms has a small operand (3 - 2k or
    2k), and the build is O(N^2) bit operations.  This route reads neither
    ``rstar``'s closed form nor ``_rstar_ratios``.
    """
    N = _index(N, "N", 0)
    out = [Fraction(0)] * (N + 1)  # nonzero only at n = 4k - 1
    c = Fraction(1)
    for k in range(1, (N + 1) // 4 + 1):
        c *= Fraction(3 - 2 * k, 2 * k)
        out[4 * k - 1] = c
    return tuple(out)


PATH_ORACLE_MAX_N = 401


def path_oracle_coefficients(n: int) -> tuple:
    """Exact expansion of the length-n first-passage matrix sum.

    Sums, over every step sequence that starts at site 1, stays >= 1 until
    time n - 1, and lands on 0 at time n, the ordered product of the
    half-line step matrices along the path.  Paths are not enumerated: a
    dynamic program over positions carries, for each site x, the summed
    integer product of every admissible prefix ending at x, one step at a
    time.  Each step matrix has one nonzero row, so a step is a row update:
    a left step (sqrt(2) P) adds row 0 + row 1 into row 0 at x - 1, and a
    right step (sqrt(2) Q) adds row 0 - row 1 into row 1 at x + 1, O(n^2)
    updates of four integers in all.  A site x at time t is kept only while
    x <= n - t, so it can still reach 0.  The sum is resolved in the
    orthonormal basis {P, Q, R, S} under <A|B> = tr(A* B); returns the four
    coefficients (p, q, r, s) as exact rationals.
    """
    n = _index(n, "n", 1, PATH_ORACLE_MAX_N)
    if n % 2 == 0:
        # a path from 1 to 0 has odd length; the matrix sum is empty
        return (Fraction(0),) * 4

    # each site carries rows 0 and 1 of its summed product, (a, b) and (c, d)
    layer = {1: (1, 0, 0, 1)}
    for t in range(1, n + 1):
        nxt = {}
        for x, (a, b, c, d) in layer.items():
            # left step, sqrt(2) P = ((1, 1), (0, 0)): row 0 + row 1 into row 0;
            # leaving the half line is allowed only as the final move
            if x - 1 >= 1 or (x - 1 == 0 and t == n):
                a2, b2, c2, d2 = nxt.get(x - 1, (0, 0, 0, 0))
                nxt[x - 1] = (a2 + a + c, b2 + b + d, c2, d2)
            # right step, sqrt(2) Q = ((0, 0), (1, -1)): row 0 - row 1 into row 1
            if x + 1 <= n - t:
                a2, b2, c2, d2 = nxt.get(x + 1, (0, 0, 0, 0))
                nxt[x + 1] = (a2, b2, c2 + a - c, d2 + b - d)
        layer = nxt
    # after n steps only site 0 is left
    a, b, c, d = layer[0]
    # the sum is sqrt(2)^n * Xi; coefficients of Xi in {P,Q,R,S} pick up
    # 1/sqrt(2) from each basis matrix, so every value is integer / 2^((n+1)/2).
    den = 2 ** ((n + 1) // 2)
    p = Fraction(a + b, den)
    r = Fraction(a - b, den)
    s = Fraction(c + d, den)
    q = Fraction(c - d, den)
    return (p, q, r, s)


def path_oracle_first_return(n: int) -> Fraction:
    """R-coefficient of the first-passage sum; matches first_return_series."""
    return path_oracle_coefficients(n)[2]


def _series_reciprocal(a: np.ndarray) -> np.ndarray:
    """The first len(a) coefficients of 1 / a(z), for a power series with
    a[0] == 1.

    Newton doubling: from g = 1/a mod z^m, the update g - g (a g - 1) is
    1/a mod z^(2m).  Since a g - 1 has no terms below z^m, each round needs
    only its terms m .. 2m - 1 and their product with g, so the whole
    reciprocal takes O(log N) direct ``np.convolve`` calls.  Those terms are
    the "valid" part of a[1:m2] * g[:m]: each is the dot product the full
    product would form for it, and the rest of that product is not formed.
    """
    n = len(a)
    g = np.zeros(n, dtype=complex)
    g[:1] = 1.0
    m = 1
    while m < n:
        m2 = min(2 * m, n)
        err = np.convolve(a[1:m2], g[:m], "valid")  # (a g - 1) z^-m mod z^(m2-m)
        g[m:m2] = -np.convolve(g[: m2 - m], err)[: m2 - m]
        m = m2
    return g


def _rstar_ratios(mmax: int):
    """Yield r*_{4m-1}, also the z^(4m) coefficient of sqrt(1 + z^4), for
    m = 1, ..., mmax, each an integer ratio (numerator, denominator 2^(2m-1))
    from the closed form of ``rstar``: (-1)^(m-1) Cat_{m-1} / 2^(2m-1), where
    Cat_{m-1} = C(2m-2, m-1) / m.  Only the current pair is held, so
    ``_renewal_coefficients``, which rounds each pair as it comes, keeps O(N)
    memory; the CLI's ``series`` tables are the other reader.

    Cat_{m-1} is carried from m to m + 1 by the exact integer step
    * (4m - 2) // (m + 1), and the denominator by a shift, so no
    ``math.comb`` is needed.  A denominator that is a power of two makes
    the ratio's gcd the common low zero bits of the two integers.
    """
    cat, pow2 = 1, 2  # Cat_{m-1} and 2^(2m-1) at m = 1
    for m in range(1, mmax + 1):
        yield (cat if m % 2 else -cat, pow2)
        cat = cat * (4 * m - 2) // (m + 1)
        pow2 <<= 2


def _renewal_coefficients(nmax: int) -> np.ndarray:
    """r*_{2a-1} for a = 1, ..., nmax as floats, each ratio of
    ``_rstar_ratios`` rounded once, to the float nearest num / den.

    Only a = 1 and even a = 2m (r*_{4m-1}) are nonzero.  den is exactly
    2^(2m-1), so ldexp(num, 1 - den.bit_length()) is num / den bit for bit
    (int -> float rounds correctly; the power-of-two scaling is exact)
    without a big-int division.  From m = 521 on num (Cat_520 and up)
    overflows a float and ldexp raises OverflowError; from there true
    division rounds.  So every float equals ``float(rstar(2a - 1))``.
    """
    ratios = _rstar_ratios(nmax // 2)
    out = []
    try:
        for num, den in ratios:
            out.append(math.ldexp(num, 1 - den.bit_length()))
    except OverflowError:  # num only grows, so every later one overflows too
        out.append(num / den)
        out += [num / den for num, den in ratios]
    r = np.zeros(nmax)
    r[:1] = -1.0
    r[1::2] = out
    return r


def psi_origin_sequence(nmax: int, params: WalkParams) -> np.ndarray:
    """Origin amplitudes at times 0, 2, ..., 2*nmax via the renewal convolution.

    Psi_{2n}(0) = M sum_{a=1}^{n} c_a Psi_{2(n-a)}(0), with Psi_0(0) the
    initial coin state, c_a = omega r*_{2a-1} / 2 from the closed form
    ``rstar`` and M the renewal matrix [[-1, 1], [-1, -1]].  This telescopes
    the sum over return-epoch compositions instead of enumerating them.  In
    generating functions Psi(z) = psi_0 + M c(z) Psi(z).  M has eigenvectors
    (1, eta i) with eigenvalues -1 + eta i (eta = +-1), and psi_0 splits as
    sum_eta (alpha - eta i beta) / 2 (1, eta i), so

        Psi(z) = sum_eta (alpha - eta i beta) / 2 (1, eta i) / (1 - (-1 + eta i) c(z)),

    two scalar power-series reciprocals.  Returns a complex array of shape
    (nmax + 1, 2) whose row n is the coin 2-vector at time 2n; row 0 is
    exactly (alpha, beta).
    """
    nmax = _index(nmax, "nmax", 0)
    c = params.omega * _renewal_coefficients(nmax) / 2.0
    psi = np.zeros((nmax + 1, 2), dtype=complex)
    for eta in (1, -1):
        denom = np.empty(nmax + 1, dtype=complex)
        denom[0] = 1.0
        denom[1:] = (1 - eta * 1j) * c  # 1 - (-1 + eta i) c(z)
        weight = (params.alpha - eta * 1j * params.beta) / 2
        g = weight * _series_reciprocal(denom)
        psi[:, 0] += g
        psi[:, 1] += eta * 1j * g
    psi[0] = (params.alpha, params.beta)
    return psi
