"""Closed-form limit results for the defect walk.

Collects the time-averaged limit measure at every site and its summed point
mass, the stationary measure of the eigenvector profile, the CMV-derived
spelling of the origin value, and the leading large-time oscillation of the
amplitude at the origin.

The time-averaged limit measure is a sum of two geometric point-mass
families, one per trapped eigenmode of the defect.  ``_FAMILIES`` maps each
family's label eta = +-1 to the open phi interval where it carries mass.
Family eta has the angle a = 2*pi*phi - eta*pi/4, the energy
w = sqrt(2)*cos(a) = C + eta*S (C = cos(2*pi*phi), S = sin(2*pi*phi)), and
projects the coin state onto alpha - eta*i*beta.  ``_families`` lists the
families that carry mass, each with a geometric rate below 1, so ``mu_inf``,
``mu_inf_origin``, ``total_point_mass`` and ``asymptotic_psi_origin`` read
it with no zero-mass guard.  A row is (eta, w, mu, pref, rate): the label,
the energy, the origin mass and the two site-independent factors of the
tail, pref = 2 - w and rate = 1/(3 - 2w).  Every caller evaluates a profile
over many sites for one (phi, state), so the table is memoized: it is built
once per (phi, alpha, beta), and only a build checks the coin state.  Each
public function still checks phi on every call, and an integer argument
through the one integer rule ``walk._index``.  Every function computes with
the float and complexes that the domain rules return, not the raw arguments.

``cgmv_limit_origin`` and ``stationary_measure`` do not read the table: they
spell the two energies inline as C +- S.  The CMV-equality check compares the
first with ``mu_inf_origin``; ``compare_stationary_timeavg`` measures the one
gap between the second, scaled by the limit's origin value, and ``mu_inf``,
relative to that origin value.
Each stays a comparison of two independent spellings rather than of one
formula with itself.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from .walk import SQRT2, DomainError, _check_phi, _check_state, _index

# eta -> the open phi interval where family eta carries mass.  At each end
# its energy w is 1, where the weight ((1 - w)/(3 - 2w))^2 vanishes, so the
# choice of open over closed intervals does not change any value.
_FAMILIES = {-1: (0.0, 0.75), 1: (0.25, 1.0)}

# largest exponent of a geometric rate: the largest float rate below 1 is
# 1 - 2^-53, and its 2^63-th power is about e^-1024, below the smallest
# float, so capping |x| here changes no value, and an |x| too large for a
# float gives 0.0 rather than an OverflowError
_EXPONENT_CAP = 2**63

# largest n of asymptotic_psi_origin: its phase error n*2^-53 stays at or
# below 2^-20 < 1e-6 rad
_MAX_N = 2**33


def _in_family(phi: float, eta: int) -> bool:
    """Whether phi lies in family eta's open interval, where it carries mass."""
    lo, hi = _FAMILIES[eta]
    return lo < phi < hi


def _angle(phi: float, eta: int) -> float:
    """Angle a of family eta: sqrt(2)*cos(a) = C + eta*S, sqrt(2)*sin(a) = S - eta*C."""
    return 2 * math.pi * phi - eta * math.pi / 4


@functools.lru_cache(maxsize=8)
def _families(phi: float, alpha: complex, beta: complex) -> tuple:
    """(eta, w, mu, pref, rate) for each family that carries mass: its
    energy w < 1, its point mass mu = ((1 - w)/(3 - 2w))^2 |alpha - eta i beta|^2
    > 0 at the origin, and the site-independent factors pref = 2 - w and
    rate = 1/(3 - 2w) of its tail, so a caller forms them once per table, not
    once per site.  Each listed family's geometric rate is below 1.

    In exact arithmetic w < 1 inside the family's interval, but w -> 1 as
    phi -> 0 or 1, and the eta = -1 energy rounds to 1 or above for phi
    below ~2.7e-17, where the true weight is below 1e-31.  Such a family is
    left out, as is one outside its interval.

    Memoized; a miss first checks the coin state (``_check_state``) and
    builds the table from the complexes it returns, and the caller passes
    the float that ``_check_phi`` returned.  A key's equal values of two
    numeric types convert to one complex, so they share one table.
    """
    alpha, beta = _check_state(alpha, beta)
    table = []
    for eta in _FAMILIES:
        if not _in_family(phi, eta):
            continue
        w = SQRT2 * math.cos(_angle(phi, eta))
        mu = ((1 - w) / (3 - 2 * w)) ** 2 * abs(alpha - eta * 1j * beta) ** 2
        if w < 1 and mu > 0:
            table.append((eta, w, mu, 2 - w, 1 / (3 - 2 * w)))
    return tuple(table)


def mu_inf_origin(phi: float, alpha: complex, beta: complex) -> float:
    """Time-averaged limit measure at the origin."""
    return mu_inf(0, phi, alpha, beta)


def mu_inf(x: int, phi: float, alpha: complex, beta: complex) -> float:
    """Time-averaged limit measure at site x: two geometric profiles.

    Family eta puts its origin mass mu at x = 0 and (2 - w) mu / (3 - 2w)^|x|
    at x != 0, so the measure is symmetric in x <-> -x.  x is any integer
    (``_index``).  Only families that carry mass are listed, and their
    rates are below 1, so the power cannot overflow at large |x|; the
    exponent is capped at ``_EXPONENT_CAP``, where every such power is
    already 0.0, so an |x| beyond float range gives 0.0 too.
    """
    phi = _check_phi(phi)
    x = abs(_index(x, "x"))
    total = 0.0
    if x == 0:
        for _, _, mu, _, _ in _families(phi, alpha, beta):
            total += mu
        return total
    if x > _EXPONENT_CAP:
        x = _EXPONENT_CAP
    for _, _, mu, pref, rate in _families(phi, alpha, beta):
        total += mu * (pref * rate ** x)
    return total


def total_point_mass(phi: float, alpha: complex, beta: complex) -> float:
    """Summed point mass: origin value plus the two geometric tails, closed.

    Always a sub-probability; the remaining mass spreads ballistically and
    contributes nothing to any fixed site's time average.
    """
    phi = _check_phi(phi)
    families = _families(phi, alpha, beta)
    total = sum((mu for _, _, mu, _, _ in families), 0.0)
    for _, _, mu, pref, rate in families:
        total += 2 * pref * rate / (1 - rate) * mu
    return total


def asymptotic_psi_origin(
    n: int, phi: float, alpha: complex, beta: complex
) -> tuple:
    """Leading large-n oscillation of the origin amplitude at time 2n.

    Returns (Re L, Im L, Re R, Im R).  The (alpha - eta i beta) part of
    family eta is present only where the family carries mass, and turns by
    theta0 per step: e^{i theta0} = (-(1-w)^2 + i (2-w) sqrt(2) sin a)/(3-2w)
    is a root of 1 + (2(1-w)^2/(3-2w)) u + u^2.  Spelled through the family
    angle a, sqrt(2 - w^2) = sqrt(2)|sin a| does not cancel as w -> -sqrt(2).

    The phase n*theta0 carries an error of about n*2^-53 rad from the
    rounding of theta0, so n is capped at ``_MAX_N`` = 2^33, where that
    error is at most 2^-20 < 1e-6 rad: n is an integer in 1 .. _MAX_N
    (``_index``), and a larger n is a DomainError.
    """
    phi = _check_phi(phi)
    n = _index(n, "n", 1, _MAX_N)
    alpha, beta = _check_state(alpha, beta)
    psi_l = 0j
    psi_r = 0j
    for eta, w, _, pref, _ in _families(phi, alpha, beta):
        # atan2 ignores the common factor 1/(3 - 2w) > 0
        ang = n * math.atan2(pref * SQRT2 * math.sin(_angle(phi, eta)), -(1 - w) ** 2)
        osc = complex(math.cos(ang), math.sin(ang))
        term = (alpha - eta * 1j * beta) * ((1 - w) / (3 - 2 * w)) * osc
        psi_l += term
        psi_r += eta * 1j * term
    return (psi_l.real, psi_l.imag, psi_r.real, psi_r.imag)


# the one family that each branch's state projects onto: plus is beta = i alpha,
# minus is beta = -i alpha
_BRANCH_ETA = {"plus": 1, "minus": -1}


def _branch_eta(branch: str) -> int:
    """Family label eta of a stationary branch; DomainError for any other name."""
    eta = _BRANCH_ETA.get(branch)
    if eta is None:
        raise DomainError(f"branch must be 'plus' or 'minus', got {branch!r}")
    return eta


def stationary_measure(x: int, phi: float, alpha_mod2: float, branch: str) -> float:
    """Measure of the exponentially decaying eigenvector profile.

    mu(0) = 2|alpha|^2; away from the origin the profile decays geometrically
    with rate 1/(3 - 2C -+ 2S) and carries the prefactor 2 - C -+ S
    (upper signs for the beta = i alpha branch).  In exact arithmetic the
    rate is below 1 exactly on the branch's family interval: (1/4, 1) for
    plus, (0, 3/4) for minus.  A phi outside it is a DomainError, and so is
    a rate that rounds to 1 or above inside it (minus at phi below ~8.8e-18),
    so the interval ends, where C or S rounds to a few 1e-16, cannot pass
    for decaying.  With the rate below 1 the largest value is 2|alpha|^2 at
    the origin, so that must be finite.  x is any integer (``_index``),
    and the exponent is capped as in ``mu_inf``.  alpha_mod2 is a real
    number (``numbers.Real``) and the profile is scaled by 2.0 *
    float(alpha_mod2), so every value is a Python float.
    """
    phi = _check_phi(phi)
    x = abs(_index(x, "x"))
    # a real number only (float would parse a str or a Decimal), scaled as a
    # Python float: 2.0 * a large NumPy float overflows in its type and warns
    try:
        double = 2.0 * float(alpha_mod2) if isinstance(alpha_mod2, numbers.Real) else 0.0
    except OverflowError:  # an int past a float
        double = 0.0
    if not 0 < double < math.inf:
        raise DomainError(f"2*alpha_mod2 must be finite and > 0, got {alpha_mod2!r}")
    eta = _branch_eta(branch)
    if not _in_family(phi, eta):
        raise DomainError(f"the {branch} profile does not decay at phi={phi}: "
                          f"phi is outside the branch's interval {_FAMILIES[eta]}")
    C = math.cos(2 * math.pi * phi)
    S = math.sin(2 * math.pi * phi)
    gamma = 2 - C - eta * S
    rate = 1 / (3 - 2 * C - 2 * eta * S)
    if not rate < 1:
        raise DomainError(f"the {branch} profile does not decay at phi={phi}: "
                          f"its rate 1/(3 - 2C -+ 2S) is {rate}, not below 1")
    if x == 0:
        return double
    return double * rate ** min(x, _EXPONENT_CAP) * gamma


def compare_stationary_timeavg(phi: float, branch: str) -> float:
    """Largest gap between the limit measure and the scaled stationary one.

    For the branch's own coin state (beta = +-i alpha, |alpha|^2 = 1/2) the
    limit measure is the stationary profile of |alpha|^2 = 1/2, whose origin
    value is 1, scaled by the limit's own origin value.  Returns the max over
    |x| <= 20 of |mu_inf(x) - mu_inf(0) * stationary_measure(x)|, divided by
    mu_inf(0): the gap relative to the origin value, which is the largest
    value of both sides.  An absolute gap would say nothing where mu_inf(0)
    is tiny, as for minus at small phi, where it is about 79 phi^2.

    The limit carries no mass outside the branch's interval, nor for minus
    at phi up to ~2.7e-17, where ``_families`` leaves the family out.  Both
    sides are then 0 at every site and the gap says nothing, so a zero
    origin value is a DomainError, as is a profile that
    ``stationary_measure`` rejects.
    """
    phi = _check_phi(phi)
    eta = _branch_eta(branch)
    degenerate = DomainError(f"branch {branch!r} degenerates (zero weight) at phi={phi}")
    if not _in_family(phi, eta):
        raise degenerate
    alpha, beta = 1 / SQRT2, eta * 1j / SQRT2
    origin = mu_inf(0, phi, alpha, beta)
    gaps = [
        abs(mu_inf(x, phi, alpha, beta)
            - origin * stationary_measure(x, phi, 0.5, branch))
        for x in range(-20, 21)
    ]
    if origin == 0.0:
        raise degenerate
    # np.max, unlike max(), propagates a NaN gap
    return float(np.max(gaps)) / origin


def cgmv_limit_origin(phi: float, alpha: complex, beta: complex) -> float:
    """Origin limit measure spelled through the energies E+- = C +- S.

    Algebraically the same function as ``mu_inf_origin``; kept as a separate
    spelled-out formula, independent of the family table, for cross-checking.
    Zero at phi = 0, where neither localization region applies.
    """
    phi = _check_phi(phi)
    alpha, beta = _check_state(alpha, beta)
    C = math.cos(2 * math.pi * phi)
    S = math.sin(2 * math.pi * phi)
    E_plus = C + S
    E_minus = C - S
    out = 0.0
    if 0.25 < phi < 1.0:
        out += ((1 - E_plus) / (3 - 2 * E_plus)) ** 2 * abs(alpha - 1j * beta) ** 2
    if 0.0 < phi < 0.75:
        out += ((1 - E_minus) / (3 - 2 * E_minus)) ** 2 * abs(alpha + 1j * beta) ** 2
    return out
