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
projects the coin state onto alpha - eta*i*beta.  ``_families`` evaluates
both, and ``mu_inf``, ``mu_inf_origin``, ``total_point_mass``,
``asymptotic_psi_origin`` and ``compare_stationary_timeavg`` read it.

``cgmv_limit_origin`` and ``stationary_measure`` do not read the table: they
spell the two energies inline as C +- S.  The CMV-equality check and the
stationary-coincidence check each compare one of them with a function that
reads the table, so they stay a comparison of two independent spellings
rather than of one formula with itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .walk import SQRT2, DomainError, _check_phi

# eta -> the open phi interval where family eta carries mass.  At each end
# its energy w is 1, where the weight ((1 - w)/(3 - 2w))^2 vanishes, so the
# choice of open over closed intervals does not change any value.
_FAMILIES = {-1: (0.0, 0.75), 1: (0.25, 1.0)}


def _angle(phi: float, eta: int) -> float:
    """Angle a of family eta: sqrt(2)*cos(a) = C + eta*S, sqrt(2)*sin(a) = S - eta*C."""
    return 2 * math.pi * phi - eta * math.pi / 4


def _family_weight(w: float) -> float:
    """Origin weight ((1 - w)/(3 - 2w))^2 of one family with energy w.

    Zero where w rounds to >= 1.  In exact arithmetic w < 1 inside the
    family's interval, but w -> 1 as phi -> 0 or 1, and the eta = -1 energy
    rounds to 1 or above for phi below ~2.7e-17, where the true weight is
    below 1e-31.  Dropping it keeps the geometric rate 1/(3 - 2w) below 1
    wherever a weight is nonzero.
    """
    if w >= 1:
        return 0.0
    return ((1 - w) / (3 - 2 * w)) ** 2


def _families(phi: float, alpha: complex, beta: complex):
    """Yield (eta, w, mu) for eta = -1, +1: the family's energy w and its
    point mass mu at the origin, which is zero outside its interval."""
    for eta, (lo, hi) in _FAMILIES.items():
        w = SQRT2 * math.cos(_angle(phi, eta))
        mu = 0.0
        if lo < phi < hi:
            mu = _family_weight(w) * abs(alpha - eta * 1j * beta) ** 2
        yield eta, w, mu


def mu_inf_origin(phi: float, alpha: complex, beta: complex) -> float:
    """Time-averaged limit measure at the origin."""
    return mu_inf(0, phi, alpha, beta)


def mu_inf(x: int, phi: float, alpha: complex, beta: complex) -> float:
    """Time-averaged limit measure at site x: two geometric profiles.

    Family eta puts its origin mass mu at x = 0 and (2 - w) mu / (3 - 2w)^|x|
    at x != 0, so the measure is symmetric in x <-> -x.  A family without
    mass is skipped: its rate can exceed 1, and the power would overflow at
    large |x|.
    """
    _check_phi(phi)
    total = 0.0
    for _, w, mu in _families(phi, alpha, beta):
        if x != 0 and mu != 0.0:
            mu *= (2 - w) * (1 / (3 - 2 * w)) ** abs(x)
        total += mu
    return total


def total_point_mass(phi: float, alpha: complex, beta: complex) -> float:
    """Summed point mass: origin value plus the two geometric tails, closed.

    Always a sub-probability; the remaining mass spreads ballistically and
    contributes nothing to any fixed site's time average.
    """
    _check_phi(phi)
    families = list(_families(phi, alpha, beta))
    total = sum(mu for _, _, mu in families)
    for _, w, mu in families:
        if mu == 0.0:
            continue
        rate = 1 / (3 - 2 * w)
        total += 2 * (2 - w) * rate / (1 - rate) * mu
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
    """
    _check_phi(phi)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    psi_l = 0j
    psi_r = 0j
    for eta, w, mu in _families(phi, alpha, beta):
        if mu == 0.0:
            continue
        # atan2 ignores the common factor 1/(3 - 2w) > 0
        ang = n * math.atan2((2 - w) * SQRT2 * math.sin(_angle(phi, eta)), -(1 - w) ** 2)
        osc = complex(math.cos(ang), math.sin(ang))
        term = (alpha - eta * 1j * beta) * ((1 - w) / (3 - 2 * w)) * osc
        psi_l += term
        psi_r += eta * 1j * term
    return (psi_l.real, psi_l.imag, psi_r.real, psi_r.imag)


BRANCH_PLUS = "plus"    # beta = i * alpha
BRANCH_MINUS = "minus"  # beta = -i * alpha

# the one family that each branch's state beta = +-i alpha projects onto
_BRANCH_ETA = {BRANCH_PLUS: 1, BRANCH_MINUS: -1}


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
    (upper signs for the beta = i alpha branch).
    """
    _check_phi(phi)
    if phi == 0.0:
        raise DomainError(
            "phi must lie in (0, 1) for the stationary profile: at phi = 0 the "
            "rate 1/(3 - 2C -+ 2S) is 1, so the profile does not decay"
        )
    if not 0 < alpha_mod2 < math.inf:
        raise DomainError(f"alpha_mod2 must be finite and > 0, got {alpha_mod2}")
    eta = _branch_eta(branch)
    C = math.cos(2 * math.pi * phi)
    S = math.sin(2 * math.pi * phi)
    gamma = 2 - C - eta * S
    rate = 1 / (3 - 2 * C - 2 * eta * S)
    if x == 0:
        return 2 * alpha_mod2
    return 2 * alpha_mod2 * rate ** abs(x) * gamma


@dataclass(frozen=True)
class StationaryComparison:
    """Pointwise ratio of the time-averaged limit measure to the stationary
    measure for one branch state, over |x| <= xmax."""

    phi: float
    branch: str
    ratio: float
    c_sq: float
    max_deviation: float
    constant: bool


def compare_stationary_timeavg(
    phi: float, branch: str, xmax: int = 20
) -> StationaryComparison:
    """Check that the limit measure is a scaled copy of the stationary one.

    Uses the branch's own coin state (beta = +-i alpha, |alpha|^2 = 1/2) and
    unit stationary amplitude.  The ratio must be constant over |x| <= xmax;
    the measures coincide when the stationary origin mass |c|^2 equals
    2 (1 - w)^2 / (3 - 2w)^2 for the energy w of the branch's family.
    """
    _check_phi(phi)
    eta = _branch_eta(branch)
    if xmax < 0:
        raise DomainError(f"xmax must be >= 0, got {xmax}")
    lo, hi = _FAMILIES[eta]
    if not lo < phi < hi:
        raise DomainError(
            f"branch {branch!r} degenerates (zero weight) at phi={phi}"
        )
    alpha, beta = 1 / SQRT2, eta * 1j / SQRT2
    ratios = []
    for x in range(-xmax, xmax + 1):
        num = mu_inf(x, phi, alpha, beta)
        den = stationary_measure(x, phi, 0.5, branch)
        ratios.append(num / den)
    ratios = np.asarray(ratios)
    ratio = float(ratios.mean())
    max_dev = float(np.max(np.abs(ratios - ratio)))
    w = next(w for e, w, _ in _families(phi, alpha, beta) if e == eta)
    c_sq = 2 * (1 - w) ** 2 / (3 - 2 * w) ** 2
    return StationaryComparison(
        phi=phi,
        branch=branch,
        ratio=ratio,
        c_sq=c_sq,
        max_deviation=max_dev,
        constant=max_dev <= 1e-12,
    )


def cgmv_limit_origin(phi: float, alpha: complex, beta: complex) -> float:
    """Origin limit measure spelled through the energies E+- = C +- S.

    Algebraically the same function as ``mu_inf_origin``; kept as a separate
    spelled-out formula, independent of the family table, for cross-checking.
    Zero at phi = 0, where neither localization region applies.
    """
    _check_phi(phi)
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
