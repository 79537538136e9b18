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
array holds the last even and the last odd time, the two chiralities of a
site side by side, so each pass of its loop makes two half-steps whose
offsets are fixed, only the first applies the defect phase, and each
half-step scales everything it wrote with one multiply of a contiguous
span.  At a few hundred sites a step costs NumPy call overhead, not
arithmetic, so the kernel slices its buffer once per run of ``_RUN``
passes, not once per pass: each run updates every site that any of its
steps needs (a bound in closed form), and the extra sites hold either exact
zeros, which stay +0.0, or values that can no longer reach the window.  For
a real divisor s, NumPy's complex division computes each part as
(re + im*0) * fl(1/s), so the kernel multiplies the float64 view of its
buffer by ``_INV_SQRT2`` instead; only the sign of a zero can differ, and
no measure sees it.  It passes that scale as a 0-d array, which NumPy does
not convert on every call as it does a Python float.  The kernel yields one
window pair, (even, odd) times, per pass; ``time_average`` copies the pairs
into a block, squares it at once and adds it into the running sums of both
parities with one ``np.add.accumulate``, which forms out[i] = out[i-1] +
in[i] one pair after another, so every sum is formed in the same order as
in the loop.  The skipped sites, the window columns the kernel has not
reached yet (never written, so exact zeros) and the zeroed rows that pad
the last block only add +0.0 to a nonnegative sum, which changes nothing.
``time_average`` runs the kernel on its window clipped to |x| <= T - 1,
which is all a ``step`` loop ever writes, so a wider window costs no more.
"""

from __future__ import annotations

import cmath
import decimal
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)
_INV_SQRT2 = 1.0 / SQRT2
# the kernel's scale as a 0-d array, which NumPy does not convert per call
_INV_SQRT2_0D = np.array(_INV_SQRT2)
_RUN = 16  # kernel passes (two steps each) that share one set of views


class DomainError(ValueError):
    """Raised when a parameter is outside its admissible range."""


def _check_phi(phi: float) -> float:
    """The one domain rule for the defect phase: phi in [0, 1), returned as
    the float that every caller computes with.

    The chained comparison runs first, since ``float`` would parse a string:
    it is false for NaN and +-inf and raises TypeError for a non-number
    (str, None, complex) and InvalidOperation for a Decimal NaN.  A value
    below 1 whose float is 1.0 (a Fraction or long double) is refused too.
    """
    try:
        if 0.0 <= phi < 1.0:
            value = float(phi)
            if value < 1.0:
                return value
    except (TypeError, decimal.InvalidOperation):
        pass
    raise DomainError(f"phi must lie in [0, 1), got {phi!r}")


def _index(value, name: str, least=None, most=None) -> int:
    """The one domain rule for an integer argument, a site, time, count or
    order: ``operator.index`` accepts ints, NumPy integers and bools, and the
    value is returned as an int within [least, most] (either bound may be
    None); nan, inf, 2.5, 3.0 and "3" are refused."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise DomainError(f"{name} must be >= {least}, got {value}")
    if most is not None and value > most:
        raise DomainError(f"{name} must be <= {most}, got {value}")
    return value


def _check_disk(z: complex) -> complex:
    """The one domain rule for a point z of the closed unit disk, returned as
    a complex.  A non-number (str, bytes, None) is refused, not parsed by
    ``complex``; the parts are compared first, so ``abs`` cannot overflow."""
    if not isinstance(z, numbers.Number):
        raise DomainError(f"z must be a number, got {z!r}")
    z = complex(z)
    if not (abs(z.real) <= 1 and abs(z.imag) <= 1 and abs(z) <= 1):
        raise DomainError(f"z must lie in the closed unit disk |z| <= 1, got {z}")
    return z


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


def _check_state(alpha: complex, beta: complex) -> tuple:
    """The one domain rule for a coin state (alpha, beta): both amplitudes
    finite numbers and the state normalized (``_is_normalized``).  Returns
    (complex(alpha), complex(beta)), on which the norm is judged and every
    caller computes; ``cmath.isfinite`` runs first, since ``complex`` would
    parse a string."""
    try:
        finite = cmath.isfinite(alpha) and cmath.isfinite(beta)
    except (OverflowError, TypeError):  # a Python int past a float; str, None
        raise DomainError("initial coin state must be finite numbers: an "
                          "amplitude overflows a float or is not a number") from None
    if not finite:
        raise DomainError(
            f"initial coin state must be finite, got ({alpha}, {beta})"
        )
    alpha, beta = complex(alpha), complex(beta)
    norm = _norm_sq(alpha, beta)
    if not _is_normalized(norm):
        raise DomainError(
            f"initial coin state not normalized: |alpha|^2+|beta|^2 = {norm}"
        )
    return alpha, beta


@dataclass(frozen=True)
class WalkParams:
    """Defect phase and initial coin state.

    ``phi`` lives in [0, 1); phi = 0 is the homogeneous Hadamard baseline.
    The coin state (alpha, beta) must be finite and normalized to 1 within
    1e-12.  The fields hold the float and complexes that ``_check_phi`` and
    ``_check_state`` return, whatever number types were passed.
    """

    phi: float
    alpha: complex
    beta: complex

    def __post_init__(self):
        # frozen, so the values the rules return are stored past __setattr__
        object.__setattr__(self, "phi", _check_phi(self.phi))
        alpha, beta = _check_state(self.alpha, self.beta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def omega(self) -> complex:
        return np.exp(2j * np.pi * self.phi)

    @classmethod
    def preset(cls, eta: int, phi: float) -> "WalkParams":
        """Symmetric initial state [1/sqrt2, eta*i/sqrt2] with eta = +1 or -1."""
        eta = _index(eta, "eta")
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
        i = _index(x, "x") - self.offset
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
        i = _index(x, "x") - self.offset
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
        a[i0] *= omega
        b[i0] *= omega
    n = len(a)
    out = np.zeros((n + 2, 2), dtype=complex)
    out[:n, 0] = a       # left-movers land at x-1
    out[2:, 1] = b       # right-movers land at x+1
    return WalkState(offset=state.offset - 1, amps=out, time=state.time + 1)


def _light_cone(params: WalkParams, n: int, xmax: int):
    """Yield the states at times 0 .. n on the window |x| <= xmax, in
    (even, odd) pairs of times.

    Only the occupied sublattice is stored: at time t the sites with x + t
    even, site x in compact column ``h + x // 2``.  One complex array,
    ``buf[t % 2, column, (left, right)]``, holds the last even time (``even``)
    and the last odd time (``odd``), the two chiralities of a site side by
    side.  Each pass of the loop makes two half-steps with fixed offsets.
    From an even time left-movers land one column left, right-movers stay in
    theirs, and the defect phase is applied, since the origin is occupied
    only at even times; from an odd time left-movers stay and right-movers
    land one column right.  When n is odd the last pass stops after its
    first half.  Step t needs only |x| <= min(t-1, xmax+n-t+1): a site
    farther out can no longer reach the window by time n.

    A half-step that reads the columns lo .. hi-1 is three NumPy calls:
    ``np.add`` writes the left-movers and ``np.subtract`` the right-movers,
    each through a strided complex view of one chirality, and one
    ``np.multiply`` scales the contiguous float64 span of the columns it
    wrote, both chiralities at once: lo-1 .. hi-1 of ``odd`` from an even
    time, lo .. hi of ``even`` from an odd time.

    The passes come in runs of ``_RUN`` (2 * _RUN steps), and each run slices
    its views once.  For a run whose passes have odd t = t0 .. last, its
    half-steps from even times update |x| <= r = min(last-1, xmax+n-t0+1)
    and those from odd times |x| <= r = min(last, n-1, xmax+n-t0): at least
    the reach of each of its steps, and at most n - 1 < c, so inside the
    buffer.  The extra sites are of two kinds.  Where step t reads beyond the
    support |x| <= t-1 of its input, the inputs are the zeros the buffer was
    made with, so the outputs are +0.0 again: a column beyond |x| = t holds
    the zero the support needs.  Beyond the reach a site may hold a stale
    value, but it cannot reach the window by time n, so no window value
    changes.  With the 0-d scale below, the runs made ``time_average`` at
    T = 1000, xmax = 5, where a step updates at most about 250 sites, about
    1.5x faster than slicing per pass (2 shared vCPUs, fastest of
    interleaved calls).

    The span also scales two entries that the add and the subtract did not
    write: from an even time (lo-1, right) and (hi-1, left), from an odd
    time (lo, right) and (hi, left), the right-mover at the left end of the
    span and the left-mover at its right end.  Where the run's reach is set
    by the support (r = last-1 from even times, r = last or n-1 from odd
    times) they lie at |x| >= t for every step t of the run, at the edge of
    the light cone or beyond it.  There a ``step`` loop holds an exact zero
    (a right-mover at x = -t came from x = -t-1 and a left-mover at x = t
    from x = t+1, outside the support at t-1), the buffer holds the same
    zero, and scaling keeps a zero, sign included.  Otherwise they lie
    beyond the run's reach, so like the other extra sites they cannot reach
    the window by time n; at most one lands in the window's column at
    |x| = xmax + 1, which may hold a stale value anyway.

    Each item is the view ``buf[:, h - (xmax+1)//2 : h + xmax//2 + 1]`` of
    shape (2, xmax+1, 2), yielded once per pass right after its first
    half-step, when it holds the times (t-1, t), t odd; the next pass
    overwrites it.  Row p holds the sites x = 2j + p, j = -((xmax+1)//2) ..
    xmax//2: every window site with x + p even and, when xmax + p is odd, one
    site at |x| = xmax + 1.  For odd n the last item is the pair (n-1, n).
    For even n one more item follows the loop: its even row holds time n and
    its odd row still holds time n - 1 (for n = 0, zeros).

    The arithmetic is that of ``step`` in the same order.  Complex addition
    and subtraction work on the real and imaginary parts separately, and the
    span is then multiplied by ``_INV_SQRT2``, which is what NumPy's
    division of a complex by the real ``SQRT2`` computes, up to the sign of
    a zero.  The scale is the 0-d float64 array ``_INV_SQRT2_0D``, the same
    value: on 500 floats NumPy 2.4.6 multiplies by it in 0.48 us against
    0.70 us for a Python float, which it converts on every call.  So every
    stored value equals a ``step`` loop bit for bit (``==``; a zero may
    carry the other sign), and every site skipped holds an exact zero in
    that loop.
    """
    c = max(n, xmax)  # the sites stored lie in |x| <= c
    h = (c + 1) // 2  # compact column of the origin
    # buf[t % 2, column, chirality]: the last even and the last odd time
    buf = np.zeros((2, h + c // 2 + 1, 2), dtype=complex)
    buf[0, h] = params.alpha, params.beta
    even, odd = buf
    e_flat, o_flat = buf.reshape(2, -1).view(np.float64)  # contiguous spans
    omega = params.omega
    add, subtract, multiply, scale = np.add, np.subtract, np.multiply, _INV_SQRT2_0D
    pair = buf[:, h - (xmax + 1) // 2 : h + xmax // 2 + 1]  # window columns
    for t0 in range(1, n + 1, 2 * _RUN):  # one run: odd t = t0 .. last
        last = min(t0 + 2 * _RUN - 2, n - 1 + n % 2)
        r = min(last - 1, xmax + n - t0 + 1)  # from even times
        lo, hi = h - r // 2, h + r // 2 + 1
        ell0, arr0 = even[lo:hi, 0], even[lo:hi, 1]
        a0 = odd[lo - 1 : hi - 1, 0]  # left-movers, x-1
        b0 = odd[lo:hi, 1]  # right-movers, x+1
        span0 = o_flat[4 * (lo - 1) : 4 * hi]
        r = min(last, n - 1, xmax + n - t0)  # from odd times
        lo, hi = h - (r + 1) // 2, h + (r - 1) // 2 + 1
        ell1, arr1 = odd[lo:hi, 0], odd[lo:hi, 1]
        a1 = even[lo:hi, 0]  # left-movers, x-1
        b1 = even[lo + 1 : hi + 1, 1]  # right-movers, x+1
        span1 = e_flat[4 * lo : 4 * (hi + 1)]
        for t in range(t0, last + 1, 2):  # steps t (from even) and t + 1
            add(ell0, arr0, a0)
            subtract(ell0, arr0, b0)
            multiply(span0, scale, span0)
            odd[h - 1, 0] *= omega
            odd[h, 1] *= omega
            yield pair
            if t == n:
                return
            add(ell1, arr1, a1)
            subtract(ell1, arr1, b1)
            multiply(span1, scale, span1)
    yield pair


def evolve(params: WalkParams, n: int) -> WalkState:
    """State after n steps from the origin, on its full support [-n, n].

    Runs the light-cone kernel with the window as wide as the support, so no
    site is cut, takes time n from its last pair (row n % 2), and scatters
    its sites onto [-n, n], where every other site (x + n odd) is an exact
    zero; ``step`` is the one-step reference it reproduces exactly.
    """
    n = _index(n, "n", 0)
    for pair in _light_cone(params, n, n):
        pass
    out = np.zeros((2 * n + 1, 2), dtype=complex)
    out[::2] = pair[n % 2]
    return WalkState(offset=-n, amps=out, time=n)


def measure(state: WalkState) -> Measure:
    values = np.sum(np.abs(state.amps) ** 2, axis=1)
    return Measure(offset=state.offset, values=values)


def time_average(params: WalkParams, T: int, xmax: int) -> Measure:
    """Average of the site measures over times 0 .. T-1, restricted to |x| <= xmax.

    One light-cone kernel run to time n = T-1 on the window clipped to
    |x| <= w = min(xmax, n): a ``step`` loop never writes a site beyond
    |x| = n, so its sums there stay +0.0, and the result is the clipped sums
    padded with zeros to 2*xmax + 1 sites.  Step t needs only the sites
    |x| <= min(t-1, w+n-t+1) that can still reach the window, and only those
    with x + t even (a run of kernel steps updates a few more, which cannot
    reach it).  The kernel yields one (even, odd) pair of windows per pass,
    w + 1 compact columns each, and they are copied into a block of whole
    pairs, about one kernel buffer in size.  A flush zeroes, for even n, the
    odd row of the final pair, which repeats time n - 1, and squares only the
    k pairs filled since the last flush; then it adds the squared
    measures, left chirality first, into the running sums, one per parity of
    t and column, by one ``np.add.accumulate`` over [sums; pairs], which adds
    the pairs one at a time, in time order, as a ``step`` loop does.  The
    zeroed row and the columns the kernel has not reached yet (never written)
    hold exact zeros, as do the sites with x + t odd that a ``step`` loop
    adds, and adding +0.0 to a nonnegative sum changes nothing, so the result
    equals a ``step`` loop bit for bit.  The sum of the one column outside
    the window is dropped.
    """
    T = _index(T, "T", 1)
    xmax = _index(xmax, "xmax", 0)
    n = T - 1
    w = min(xmax, n)  # the sites beyond |x| = n hold +0.0 at every step
    a = (w + 1) // 2  # window column of the origin
    pairs = (n + 1) // (2 * w + 2) + 1  # (even, odd) step pairs per block
    block = np.empty((pairs, 2, w + 1, 2), dtype=complex)
    sums = np.zeros((2, w + 1))  # by parity of t, then compact column
    k = 0
    for i, pair in enumerate(_light_cone(params, n, w)):  # times 2i, 2i + 1
        block[k] = pair
        k += 1
        if k == pairs or i == n // 2:
            if 2 * i == n:  # the final pair's odd row repeats time n - 1
                block[k - 1, 1] = 0
            mu = np.abs(block[:k]) ** 2
            run = np.concatenate((sums[None], mu[..., 0] + mu[..., 1]))
            sums[...] = np.add.accumulate(run, axis=0)[-1]
            k = 0
    x = np.arange(-w, w + 1)
    values = np.zeros(2 * xmax + 1)
    values[xmax - w : xmax + w + 1] = sums[x % 2, a + x // 2] / T
    return Measure(offset=-xmax, values=values)
