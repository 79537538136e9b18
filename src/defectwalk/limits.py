"""Closed-form limit results for the defect walk.

Collects the long-time return probability, the time-averaged limit measure
at every site (a pair of geometric point-mass profiles), the stationary
measure of the eigenvector profile, the CMV-derived spelling of the origin
value, and the oscillation frequency machinery behind the large-time
amplitude asymptotics at the origin.

Notation used throughout: C = cos(2*pi*phi), S = sin(2*pi*phi),
E+- = C +- S, and Cp/Cm = cos(2*pi*phi +- pi/4), so that
sqrt(2)*Cp = E- and sqrt(2)*Cm = E+.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .walk import SQRT2, DomainError, _check_phi


@dataclass(frozen=True)
class TrigPack:
    """All trig combinations of phi used by the closed forms."""

    phi: float
    C: float
    S: float
    E_plus: float
    E_minus: float
    C_plus: float
    C_minus: float

    @classmethod
    def from_phi(cls, phi: float) -> "TrigPack":
        C = math.cos(2 * math.pi * phi)
        S = math.sin(2 * math.pi * phi)
        return cls(
            phi=phi,
            C=C,
            S=S,
            E_plus=C + S,
            E_minus=C - S,
            C_plus=math.cos(2 * math.pi * phi + math.pi / 4),
            C_minus=math.cos(2 * math.pi * phi - math.pi / 4),
        )


def _ind(phi: float, lo: float, hi: float) -> float:
    """Open-interval indicator; both region boundaries are exactly where the
    weight prefactor vanishes, so the convention is value-neutral."""
    return 1.0 if lo < phi < hi else 0.0


def _family_weight(w: float) -> float:
    """Origin weight ((1 - w)/(3 - 2w))^2 of one family, w = sqrt(2)*C+-.

    Zero where w rounds to >= 1.  In exact arithmetic w < 1 inside the
    family's region, but w -> 1 as phi -> 0 or 1, and sqrt(2)*C+ rounds to
    1 or above for phi below ~2.7e-17, where the true weight is below 1e-31.
    Dropping it keeps the geometric rate 1/(3 - 2w) below 1 wherever a
    weight is nonzero.
    """
    if w >= 1:
        return 0.0
    return ((1 - w) / (3 - 2 * w)) ** 2


def c_phi(phi: float, eta: int) -> float:
    """Long-time limit of the even-time return probability for the symmetric
    initial states.

    4*((1 - sqrt(2)Cm)/(3 - 2 sqrt(2)Cm))^2 on phi in (1/4, 1) for eta = +1;
    the Cp / (0, 3/4) twin for eta = -1.  Zero at phi = 0 (homogeneous walk,
    no localization).
    """
    _check_phi(phi)
    if eta not in (1, -1):
        raise DomainError(f"eta must be +1 or -1, got {eta}")
    t = TrigPack.from_phi(phi)
    if eta == 1:
        return 4 * _family_weight(SQRT2 * t.C_minus) * _ind(phi, 0.25, 1.0)
    return 4 * _family_weight(SQRT2 * t.C_plus) * _ind(phi, 0.0, 0.75)


def _origin_weights(phi: float, alpha: complex, beta: complex):
    """The two point-mass weights at the origin: (Cp-family, Cm-family)."""
    t = TrigPack.from_phi(phi)
    mu1 = _family_weight(SQRT2 * t.C_plus) * abs(alpha + 1j * beta) ** 2 * _ind(
        phi, 0.0, 0.75
    )
    mu2 = _family_weight(SQRT2 * t.C_minus) * abs(alpha - 1j * beta) ** 2 * _ind(
        phi, 0.25, 1.0
    )
    return mu1, mu2


def mu_inf_origin(phi: float, alpha: complex, beta: complex) -> float:
    """Time-averaged limit measure at the origin."""
    _check_phi(phi)
    mu1, mu2 = _origin_weights(phi, alpha, beta)
    return mu1 + mu2


def mu_inf(x: int, phi: float, alpha: complex, beta: complex) -> float:
    """Time-averaged limit measure at site x: two geometric profiles.

    Symmetric in x <-> -x, decaying with rates 1/(3 - 2 sqrt(2) C+-).
    """
    _check_phi(phi)
    mu1, mu2 = _origin_weights(phi, alpha, beta)
    if x == 0:
        return mu1 + mu2
    t = TrigPack.from_phi(phi)
    wp = SQRT2 * t.C_plus
    wm = SQRT2 * t.C_minus
    ax = abs(x)
    return (2 - wp) * (1 / (3 - 2 * wp)) ** ax * mu1 + (2 - wm) * (
        1 / (3 - 2 * wm)
    ) ** ax * mu2


def total_point_mass(phi: float, alpha: complex, beta: complex) -> float:
    """Summed point mass: origin value plus the two geometric tails, closed.

    Always a sub-probability; the remaining mass spreads ballistically and
    contributes nothing to any fixed site's time average.
    """
    _check_phi(phi)
    mu1, mu2 = _origin_weights(phi, alpha, beta)
    t = TrigPack.from_phi(phi)
    total = mu1 + mu2
    for w, mu in ((SQRT2 * t.C_plus, mu1), (SQRT2 * t.C_minus, mu2)):
        if mu == 0.0:
            continue
        rate = 1 / (3 - 2 * w)
        total += 2 * (2 - w) * rate / (1 - rate) * mu
    return total


@dataclass(frozen=True)
class Theta0:
    """Oscillation angle of the origin amplitude for one branch energy E."""

    cos0: float
    sin0: float
    E: float


def theta0(E: float) -> Theta0:
    """Unit-modulus root angle of 1 + (2(1-E)^2/(3-2E)) w + w^2 = 0.

    cos(theta0) = -(1-E)^2 / (3-2E), sin(theta0) = (2-E) sqrt(2-E^2) / (3-2E);
    for E = C + eta*S the sqrt equals |S - eta*C|, matching the trig form.
    Requires E in [-sqrt(2), sqrt(2)] so the roots stay on the unit circle.
    """
    if not -SQRT2 <= E <= SQRT2:
        raise DomainError(f"branch energy must lie in [-sqrt2, sqrt2], got {E}")
    den = 3 - 2 * E
    cos0 = -((1 - E) ** 2) / den
    sin0 = (2 - E) * math.sqrt(max(0.0, 2 - E * E)) / den
    return Theta0(cos0=cos0, sin0=sin0, E=E)


def _sgn_or_zero(v: float) -> float:
    # 0/0 guard: at S = C (resp. S = -C) the accompanying weight vanishes,
    # so the continuous extension is 0
    if abs(v) < 1e-14:
        return 0.0
    return 1.0 if v > 0 else -1.0


def asymptotic_psi_origin(
    n: int, phi: float, alpha: complex, beta: complex
) -> tuple:
    """Leading large-n oscillation of the origin amplitude at time 2n.

    Returns (Re L, Im L, Re R, Im R).  The (alpha - i beta) part oscillates
    at theta0(E+), the (alpha + i beta) part at theta0(E-), each gated by its
    localization region.
    """
    _check_phi(phi)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    t = TrigPack.from_phi(phi)
    psi_l = 0j
    psi_r = 0j
    if _ind(phi, 0.25, 1.0):
        th = theta0(t.E_plus)
        ang = n * math.atan2(th.sin0, th.cos0)
        w = (1 - t.E_plus) / (3 - 2 * t.E_plus)
        osc = math.cos(ang) + 1j * _sgn_or_zero(t.S - t.C) * math.sin(ang)
        term = (alpha - 1j * beta) * w * osc
        psi_l += term
        psi_r += 1j * term
    if _ind(phi, 0.0, 0.75):
        th = theta0(t.E_minus)
        ang = n * math.atan2(th.sin0, th.cos0)
        w = (1 - t.E_minus) / (3 - 2 * t.E_minus)
        osc = math.cos(ang) + 1j * _sgn_or_zero(t.S + t.C) * math.sin(ang)
        term = (alpha + 1j * beta) * w * osc
        psi_l += term
        psi_r += -1j * term
    return (psi_l.real, psi_l.imag, psi_r.real, psi_r.imag)


BRANCH_PLUS = "plus"    # beta = i * alpha
BRANCH_MINUS = "minus"  # beta = -i * alpha


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
    if alpha_mod2 <= 0:
        raise DomainError(f"alpha_mod2 must be > 0, got {alpha_mod2}")
    t = TrigPack.from_phi(phi)
    if branch == BRANCH_PLUS:
        gamma = 2 - t.C - t.S
        rate = 1 / (3 - 2 * t.C - 2 * t.S)
    elif branch == BRANCH_MINUS:
        gamma = 2 - t.C + t.S
        rate = 1 / (3 - 2 * t.C + 2 * t.S)
    else:
        raise DomainError(f"branch must be 'plus' or 'minus', got {branch!r}")
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
    2 (1 - sqrt(2) C-+)^2 / (3 - 2 sqrt(2) C-+)^2.
    """
    _check_phi(phi)
    t = TrigPack.from_phi(phi)
    if branch == BRANCH_PLUS:
        alpha, beta = 1 / SQRT2, 1j / SQRT2
        w = SQRT2 * t.C_minus
        if not 0.25 < phi < 1.0:
            raise DomainError(
                f"branch 'plus' degenerates (zero weight) at phi={phi}"
            )
    elif branch == BRANCH_MINUS:
        alpha, beta = 1 / SQRT2, -1j / SQRT2
        w = SQRT2 * t.C_plus
        if not 0.0 < phi < 0.75:
            raise DomainError(
                f"branch 'minus' degenerates (zero weight) at phi={phi}"
            )
    else:
        raise DomainError(f"branch must be 'plus' or 'minus', got {branch!r}")
    ratios = []
    for x in range(-xmax, xmax + 1):
        num = mu_inf(x, phi, alpha, beta)
        den = stationary_measure(x, phi, 0.5, branch)
        ratios.append(num / den)
    ratios = np.asarray(ratios)
    ratio = float(ratios.mean())
    max_dev = float(np.max(np.abs(ratios - ratio)))
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

    Algebraically the same function as ``mu_inf_origin`` (sqrt(2) C-+ = E+-);
    kept as a separate spelled-out formula for cross-checking.  Zero at
    phi = 0, where neither localization region applies.
    """
    _check_phi(phi)
    t = TrigPack.from_phi(phi)
    out = 0.0
    out += (
        ((1 - t.E_plus) / (3 - 2 * t.E_plus)) ** 2
        * abs(alpha - 1j * beta) ** 2
        * _ind(phi, 0.25, 1.0)
    )
    out += (
        ((1 - t.E_minus) / (3 - 2 * t.E_minus)) ** 2
        * abs(alpha + 1j * beta) ** 2
        * _ind(phi, 0.0, 0.75)
    )
    return out
