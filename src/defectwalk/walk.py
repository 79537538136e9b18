"""Exact unitary evolution of the one-defect Hadamard walk on the integer line.

The coin is the Hadamard matrix everywhere except at the origin, where it
carries an extra phase omega = exp(2*pi*i*phi).  The walker starts at the
origin with a normalized two-component coin state.  This module provides the
state type, single-step evolution (``step``, the readable reference), one
light-cone stepping kernel behind ``evolve`` and ``time_average``,
instantaneous measures, and time-averaged measures.

The kernel and ``time_average`` reproduce a ``step`` loop bit for bit while
doing less work per step.  For a real divisor s, NumPy's complex division
computes each part as (re + im*0) * fl(1/s), so the kernel multiplies the
float64 view of its buffers by ``_INV_SQRT2`` instead; only the sign of a zero
can differ, and no measure sees it.  ``time_average`` squares and adds the
measures of many steps at once, but still adds them into the running sum
one time step after another, so every sum is formed in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)
_INV_SQRT2 = 1.0 / SQRT2


class DomainError(ValueError):
    """Raised when a parameter is outside its admissible range."""


def _check_phi(phi: float) -> None:
    """The one domain rule for the defect phase: phi in [0, 1).

    The chained comparison is false for NaN and +-inf, so they are rejected
    too.
    """
    if not 0.0 <= phi < 1.0:
        raise DomainError(f"phi must lie in [0, 1), got {phi}")


def _is_normalized(norm_sq: float) -> bool:
    """The one normalization rule for a coin state: |alpha|^2 + |beta|^2
    within 1e-12 of 1."""
    return abs(norm_sq - 1.0) <= 1e-12


def _norm_sq(alpha: complex, beta: complex) -> float:
    """|alpha|^2 + |beta|^2 of a finite coin state, or inf where a square
    overflows a float (Python floats raise OverflowError there)."""
    try:
        return abs(alpha) ** 2 + abs(beta) ** 2
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class WalkParams:
    """Defect phase and initial coin state.

    ``phi`` lives in [0, 1); phi = 0 is the homogeneous Hadamard baseline.
    The coin state (alpha, beta) must be finite and normalized to 1 within
    1e-12.
    """

    phi: float
    alpha: complex
    beta: complex

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise DomainError(
                f"initial coin state must be finite, got ({self.alpha}, {self.beta})"
            )
        _check_phi(self.phi)
        norm = _norm_sq(self.alpha, self.beta)
        if not _is_normalized(norm):
            raise DomainError(
                f"initial coin state not normalized: |alpha|^2+|beta|^2 = {norm}"
            )

    @property
    def omega(self) -> complex:
        return np.exp(2j * np.pi * self.phi)

    @classmethod
    def preset(cls, eta: int, phi: float) -> "WalkParams":
        """Symmetric initial state [1/sqrt2, eta*i/sqrt2] with eta = +1 or -1."""
        if eta not in (1, -1):
            raise DomainError(f"eta must be +1 or -1, got {eta}")
        return cls(phi=phi, alpha=1 / SQRT2, beta=eta * 1j / SQRT2)


@dataclass(frozen=True)
class WalkState:
    """Finite-support amplitude field.

    ``amps[i]`` is the (left, right) chirality pair at site ``offset + i``.
    Support is always contained in [-time, time]; sites with x + time odd
    carry exact zeros.
    """

    offset: int
    amps: np.ndarray  # shape (nsites, 2), complex128
    time: int

    def amplitude(self, x: int) -> np.ndarray:
        """Amplitude pair at site x (zero outside the stored support)."""
        i = x - self.offset
        if 0 <= i < len(self.amps):
            return self.amps[i].copy()
        return np.zeros(2, dtype=complex)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))


@dataclass(frozen=True)
class Measure:
    """Nonnegative site weights with integer offset."""

    offset: int
    values: np.ndarray

    def at(self, x: int) -> float:
        i = x - self.offset
        if 0 <= i < len(self.values):
            return float(self.values[i])
        return 0.0

    def total(self) -> float:
        return float(np.sum(self.values))


def initial_state(params: WalkParams) -> WalkState:
    amps = np.array([[params.alpha, params.beta]], dtype=complex)
    return WalkState(offset=0, amps=amps, time=0)


def step(state: WalkState, params: WalkParams) -> WalkState:
    """One walk update: coin everywhere, then chirality-conditioned shift.

    The left component of the coined state moves one site left, the right
    component one site right; total mass is preserved.
    """
    ell = state.amps[:, 0]
    arr = state.amps[:, 1]
    # Hadamard rows applied sitewise.
    a = (ell + arr) / SQRT2
    b = (ell - arr) / SQRT2
    i0 = -state.offset
    if 0 <= i0 < len(a):
        omega = params.omega
        a = a.copy()
        b = b.copy()
        a[i0] *= omega
        b[i0] *= omega
    n = len(a)
    out = np.zeros((n + 2, 2), dtype=complex)
    out[:n, 0] = a       # left-movers land at x-1
    out[2:, 1] = b       # right-movers land at x+1
    return WalkState(offset=state.offset - 1, amps=out, time=state.time + 1)


def _light_cone(params: WalkParams, n: int, xmax: int):
    """Yield the state at times t = 0 .. n on the window |x| <= xmax.

    Each item is a (2, 2*xmax+1) view, rows (left, right), of one of two
    preallocated buffers that swap every step; the next step overwrites it.
    Step t reads only |x| <= min(t-1, xmax+n-t+1): a site farther out can no
    longer reach the window by time n.  A column beyond |x| = t has never
    been written, so it holds the zero the support needs.

    The arithmetic is that of ``step`` in the same order, on float64 views of
    the buffers: the real and imaginary parts are added and subtracted
    separately, exactly as complex addition does, and then multiplied by
    ``_INV_SQRT2``, which is what NumPy's division of a complex by the real
    ``SQRT2`` computes, up to the sign of a zero.  So every value equals a
    ``step`` loop bit for bit (``==``; a zero may carry the other sign).
    """
    c = max(n, xmax)  # column of the origin
    cur = np.zeros((2, 2 * c + 1), dtype=complex)
    nxt = np.zeros_like(cur)
    cur[:, c] = params.alpha, params.beta
    cur_f, nxt_f = cur.view(np.float64), nxt.view(np.float64)
    omega = params.omega
    yield cur[:, c - xmax : c + xmax + 1]
    for t in range(1, n + 1):
        r = min(t - 1, xmax + n - t + 1)
        lo, hi = 2 * (c - r), 2 * (c + r + 1)  # float columns of |x| <= r
        ell = cur_f[0, lo:hi]
        arr = cur_f[1, lo:hi]
        a = nxt_f[0, lo - 2 : hi - 2]  # left-movers land at x-1
        b = nxt_f[1, lo + 2 : hi + 2]  # right-movers land at x+1
        np.add(ell, arr, out=a)
        np.multiply(a, _INV_SQRT2, out=a)
        np.subtract(ell, arr, out=b)
        np.multiply(b, _INV_SQRT2, out=b)
        nxt[0, c - 1] *= omega
        nxt[1, c + 1] *= omega
        cur, nxt = nxt, cur
        cur_f, nxt_f = nxt_f, cur_f
        yield cur[:, c - xmax : c + xmax + 1]


def evolve(params: WalkParams, n: int) -> WalkState:
    """State after n steps from the origin, on its full support [-n, n].

    Runs the light-cone kernel with the window as wide as the support, so no
    site is cut; ``step`` is the one-step reference it reproduces exactly.
    """
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    for amps in _light_cone(params, n, n):
        pass
    return WalkState(offset=-n, amps=amps.T.copy(), time=n)


def measure(state: WalkState) -> Measure:
    values = np.sum(np.abs(state.amps) ** 2, axis=1)
    return Measure(offset=state.offset, values=values)


def time_average(params: WalkParams, T: int, xmax: int) -> Measure:
    """Average of the site measures over times 0 .. T-1, restricted to |x| <= xmax.

    One light-cone kernel run to time T-1: step t updates only the sites
    |x| <= min(t-1, xmax+T-t) that can still reach the window, in place in
    two preallocated buffers.  The windows of consecutive steps are copied
    into a block, no larger than one kernel buffer, whose measures are
    squared and summed in one call each.  The block's rows are then added to
    the running sum one at a time, in time order, so each site's sum is
    formed in the order of a ``step`` loop; a site not yet reached adds an
    exact zero.  The result equals a ``step`` loop bit for bit.
    """
    if T < 1:
        raise DomainError(f"T must be >= 1, got {T}")
    if xmax < 0:
        raise DomainError(f"xmax must be >= 0, got {xmax}")
    n = T - 1
    width = 2 * xmax + 1
    rows = (2 * max(n, xmax) + 1) // width  # steps per block
    block = np.empty((rows, 2, width), dtype=complex)
    acc = np.zeros(width)
    k = 0
    for t, amps in enumerate(_light_cone(params, n, xmax)):
        if k == 0:  # the block's columns: the sites its last step reaches
            w = min(t + rows - 1, n, xmax)
            cols = slice(xmax - w, xmax + w + 1)
        block[k, :, cols] = amps[:, cols]
        k += 1
        if k == rows or t == n:
            mu = np.abs(block[:k, :, cols]) ** 2
            window = acc[cols]
            for row in mu[:, 0] + mu[:, 1]:
                window += row
            k = 0
    return Measure(offset=-xmax, values=acc / T)
