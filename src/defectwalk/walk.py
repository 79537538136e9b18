"""Exact unitary evolution of the one-defect Hadamard walk on the integer line.

The coin is the Hadamard matrix everywhere except at the origin, where it
carries an extra phase omega = exp(2*pi*i*phi).  The walker starts at the
origin with a normalized two-component coin state.  This module provides the
state type, single-step evolution (``step``, the readable reference), one
light-cone stepping kernel behind ``evolve`` and ``time_average``,
instantaneous measures, and time-averaged measures.

The kernel and ``time_average`` reproduce a ``step`` loop bit for bit while
doing less work per step.  A site with x + t odd holds an exact zero at time
t (the walker moves one site per step), so the kernel stores only the sites
with x + t even, in compact columns, and never computes the zeros.  One
buffer holds the even times and one the odd times, so each pass of its loop
makes two half-steps whose offsets are fixed, and only the first applies the
defect phase.  For a real divisor s, NumPy's complex division computes each
part as (re + im*0) * fl(1/s), so the kernel multiplies the float64 view of
its buffers by ``_INV_SQRT2`` instead; only the sign of a zero can differ,
and no measure sees it.  ``time_average`` squares and adds the measures of
many steps at once, each a block row as wide as the whole window, and adds a
block of them into each running sum with one ``np.add.accumulate``, which
forms out[i] = out[i-1] + in[i] one time step after another, so every sum is
formed in the same order as in the loop.  The skipped sites, and the window
columns the kernel has not reached yet (never written, so exact zeros), only
add +0.0 to a nonnegative sum, which changes nothing.
"""

from __future__ import annotations

import cmath
import math
import operator
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


def _time_index(n) -> int:
    """The one domain rule for a time index: an integer n >= 1 (NumPy
    integers too), returned as an int; nan, inf, 2.5 and 3.0 are refused."""
    try:
        n = operator.index(n)
    except TypeError:
        raise DomainError(f"n must be an integer, got {n!r}") from None
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return n


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


def _check_state(alpha: complex, beta: complex) -> None:
    """The one domain rule for a coin state (alpha, beta): both parts finite
    and the state normalized (``_is_normalized``)."""
    try:
        finite = cmath.isfinite(alpha) and cmath.isfinite(beta)
    except OverflowError:  # a Python int too large for a float
        raise DomainError(
            "initial coin state must be finite: an amplitude overflows a float"
        ) from None
    if not finite:
        raise DomainError(
            f"initial coin state must be finite, got ({alpha}, {beta})"
        )
    norm = _norm_sq(alpha, beta)
    if not _is_normalized(norm):
        raise DomainError(
            f"initial coin state not normalized: |alpha|^2+|beta|^2 = {norm}"
        )


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
        _check_phi(self.phi)
        _check_state(self.alpha, self.beta)

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

    Only the occupied sublattice is stored: at time t the sites with x + t
    even, site x in compact column ``h + x // 2`` of one of two half-width
    buffers, ``even`` for the even times and ``odd`` for the odd ones.  Each
    pass of the loop makes two half-steps with fixed offsets.  From an even
    time left-movers land one column left, right-movers stay in theirs, and
    the defect phase is applied, since the origin is occupied only at even
    times; from an odd time left-movers stay and right-movers land one
    column right.  When n is odd the last pass stops after its first half.
    Step t reads only |x| <= min(t-1, xmax+n-t+1): a site farther out can no
    longer reach the window by time n.  A column beyond |x| = t has never
    been written, so it holds the zero the support needs.

    Each item is a (2, xmax+1) view, rows (left, right), of the compact
    columns ``h - (xmax+1)//2 .. h + xmax//2`` of the buffer of its parity;
    the step two later overwrites it.  At time t they hold the sites
    x = 2j + t % 2: every window site with x + t even and, when xmax + t is
    odd, one site at |x| = xmax + 1.

    The arithmetic is that of ``step`` in the same order, on float64 views of
    the buffers: the real and imaginary parts are added and subtracted
    separately, exactly as complex addition does, and then multiplied by
    ``_INV_SQRT2``, which is what NumPy's division of a complex by the real
    ``SQRT2`` computes, up to the sign of a zero.  So every stored value
    equals a ``step`` loop bit for bit (``==``; a zero may carry the other
    sign), and every site skipped holds an exact zero in that loop.
    """
    c = max(n, xmax)  # the sites stored lie in |x| <= c
    h = (c + 1) // 2  # compact column of the origin
    even = np.zeros((2, h + c // 2 + 1), dtype=complex)
    odd = np.zeros_like(even)
    even[:, h] = params.alpha, params.beta
    (e_l, e_r), (o_l, o_r) = even.view(np.float64), odd.view(np.float64)
    omega = params.omega
    add, subtract, multiply = np.add, np.subtract, np.multiply
    lo_w, hi_w = h - (xmax + 1) // 2, h + xmax // 2 + 1  # window columns
    even_win, odd_win = even[:, lo_w:hi_w], odd[:, lo_w:hi_w]
    yield even_win
    for t in range(1, n + 1, 2):  # t odd: steps t (from even) and t + 1
        r = min(t - 1, xmax + n - t + 1)
        lo, hi = 2 * (h - r // 2), 2 * (h + r // 2 + 1)
        ell = e_l[lo:hi]
        arr = e_r[lo:hi]
        a = o_l[lo - 2 : hi - 2]  # left-movers, x-1
        b = o_r[lo:hi]  # right-movers, x+1
        add(ell, arr, a)
        multiply(a, _INV_SQRT2, a)
        subtract(ell, arr, b)
        multiply(b, _INV_SQRT2, b)
        odd[0, h - 1] *= omega
        odd[1, h] *= omega
        yield odd_win
        if t == n:
            return
        r = min(t, xmax + n - t)
        lo, hi = 2 * (h - (r + 1) // 2), 2 * (h + (r - 1) // 2 + 1)
        ell = o_l[lo:hi]
        arr = o_r[lo:hi]
        a = e_l[lo:hi]  # left-movers, x-1
        b = e_r[lo + 2 : hi + 2]  # right-movers, x+1
        add(ell, arr, a)
        multiply(a, _INV_SQRT2, a)
        subtract(ell, arr, b)
        multiply(b, _INV_SQRT2, b)
        yield even_win


def evolve(params: WalkParams, n: int) -> WalkState:
    """State after n steps from the origin, on its full support [-n, n].

    Runs the light-cone kernel with the window as wide as the support, so no
    site is cut, and scatters its sites onto [-n, n], where every other site
    (x + n odd) is an exact zero; ``step`` is the one-step reference it
    reproduces exactly.
    """
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    for amps in _light_cone(params, n, n):
        pass
    out = np.zeros((2 * n + 1, 2), dtype=complex)
    out[::2] = amps.T
    return WalkState(offset=-n, amps=out, time=n)


def measure(state: WalkState) -> Measure:
    values = np.sum(np.abs(state.amps) ** 2, axis=1)
    return Measure(offset=state.offset, values=values)


def time_average(params: WalkParams, T: int, xmax: int) -> Measure:
    """Average of the site measures over times 0 .. T-1, restricted to |x| <= xmax.

    One light-cone kernel run to time T-1: step t updates only the sites
    |x| <= min(t-1, xmax+T-t) that can still reach the window, and only those
    with x + t even.  Each parity of t has its own running sum over the
    kernel's xmax + 1 compact window columns.  The windows of consecutive
    steps are copied whole into a block, no larger than one kernel buffer,
    whose measures are squared and summed in one call each.  The block's rows
    of each parity are then added to that parity's sum by one
    ``np.add.accumulate`` over [sum; rows], which adds them one at a time, in
    time order, so each site's sum is formed in the order of a ``step`` loop.
    So the running sums exist only at block ends.  A column the kernel has
    not reached yet was never written, so it holds an exact zero, and the
    loop also adds the measure of every site with x + t odd, an exact zero;
    adding +0.0 to a nonnegative sum changes nothing, so the result equals a
    ``step`` loop bit for bit.  The sum of the one column outside the window
    is dropped.
    """
    if T < 1:
        raise DomainError(f"T must be >= 1, got {T}")
    if xmax < 0:
        raise DomainError(f"xmax must be >= 0, got {xmax}")
    n = T - 1
    a = (xmax + 1) // 2  # window column of the origin
    rows = (max(n, xmax) + 1) // (xmax + 1)  # steps per block
    block = np.empty((rows, 2, xmax + 1), dtype=complex)
    sums = np.zeros((2, xmax + 1))  # by parity of t, then compact column
    k = 0
    for t, amps in enumerate(_light_cone(params, n, xmax)):
        block[k] = amps
        k += 1
        if k == rows or t == n:
            mu = np.abs(block[:k]) ** 2
            mu = mu[:, 0] + mu[:, 1]
            for i in (0, 1):  # rows i, i+2, ... hold times of parity t-k+1+i
                window = sums[(t - k + 1 + i) % 2]
                run = np.concatenate((window[None], mu[i::2]))
                window[...] = np.add.accumulate(run, axis=0)[-1]
            k = 0
    x = np.arange(-xmax, xmax + 1)
    return Measure(offset=-xmax, values=sums[x % 2, a + x // 2] / T)
