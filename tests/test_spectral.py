import cmath
import math

import mpmath
import numpy as np
import pytest

from defectwalk import limits, series, spectral, walk
from defectwalk.walk import DomainError, WalkParams

SQRT2 = math.sqrt(2.0)

PHI_GRID = [i / 21 for i in range(1, 21)]  # avoids the 1/4, 3/4 boundaries


def _lambda_sq_circle(theta):
    # |lambda(e^{i theta})|^2 = 3 - 4 cos^2 - 2 sqrt(2) |sin| sqrt(1 - 2 cos^2)
    # on the band 2 sin^2(theta) >= 1, where |f| = 1
    c = math.cos(theta)
    band = 1 - 2 * c * c
    assert band >= -1e-12
    return 3 - 4 * c * c - 2 * SQRT2 * abs(math.sin(theta)) * math.sqrt(max(band, 0.0))


def _phi_tilde(theta):
    # phase lag of f on the band 2 sin^2 theta >= 1: f(e^{i theta}) =
    # e^{i(theta + phi~)}, with cos(phi~) = sqrt(2) cos(theta) and
    # sin(phi~) = sgn(sin theta) sqrt(2 sin^2 theta - 1)
    s = math.sin(theta)
    band = 2 * s * s - 1
    assert band >= -1e-12
    sgn = 1.0 if s > 0 else -1.0
    return math.atan2(sgn * math.sqrt(max(band, 0.0)), SQRT2 * math.cos(theta))


def _disk_samples(count=100, seed=3):
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.uniform(0, 1, count))
    th = rng.uniform(-np.pi, np.pi, count)
    return r * np.exp(1j * th)


def test_f_tilde_at_zero_and_i():
    assert spectral.f_tilde(0) == 0
    assert spectral.f_tilde(1j) == pytest.approx(-1)
    assert abs(spectral.f_tilde(1j)) == pytest.approx(1)


def test_f_tilde_quadratic_identity_on_disk():
    for z in _disk_samples():
        f = spectral.f_tilde(z)
        res = f * f - SQRT2 * (1 + z * z) * f + z * z
        assert abs(res) <= 1e-12


def test_f_tilde_unit_modulus_on_band():
    for theta in np.linspace(-np.pi, np.pi, 200):
        if 2 * math.sin(theta) ** 2 < 1 + 1e-9:
            continue
        f = spectral.f_tilde(cmath.exp(1j * theta))
        assert abs(abs(f) - 1) <= 1e-12
        # polar form e^{i(theta + phi~)}
        expected = cmath.exp(1j * (theta + _phi_tilde(theta)))
        assert abs(f - expected) <= 1e-12


def test_lambda_tilde_values():
    val = spectral.lambda_tilde(1j)
    assert val == pytest.approx(1j / (-1 - SQRT2))
    assert abs(val) ** 2 == pytest.approx(3 - 2 * SQRT2, abs=1e-12)


def test_lambda_circle_formula_band_boundary():
    theta = math.pi / 4  # cos^2 = 1/2
    assert _lambda_sq_circle(theta) == pytest.approx(1.0, abs=1e-12)
    q = abs(spectral.lambda_tilde(cmath.exp(1j * theta))) ** 2
    assert q == pytest.approx(1.0, abs=1e-12)


def test_lambda_circle_matches_quotient():
    for theta in np.linspace(-np.pi, np.pi, 101):
        if 2 * math.sin(theta) ** 2 < 1 + 1e-6:
            continue
        q = abs(spectral.lambda_tilde(cmath.exp(1j * theta))) ** 2
        assert q == pytest.approx(_lambda_sq_circle(theta), abs=1e-12)


@pytest.mark.parametrize("func", [spectral.lambda_tilde])
def test_band_functions_reject_nan(func):
    with pytest.raises(DomainError):
        func(math.nan)


def test_big_lambda0_base_values():
    assert spectral.big_lambda0(0, 0.3) == pytest.approx(1)
    # omega = -1, f(i) = -1
    assert spectral.big_lambda0(1j, 0.5) == pytest.approx(2 - SQRT2)


def test_big_lambda0_factorization():
    for phi in (0.2, 0.5, 0.9):
        w = cmath.exp(2j * math.pi * phi)
        for z in _disk_samples(40, seed=11):
            f = spectral.f_tilde(z)
            fac = (1 - w * f * cmath.exp(1j * math.pi / 4)) * (
                1 - w * f * cmath.exp(-1j * math.pi / 4)
            )
            assert abs(spectral.big_lambda0(z, phi) - fac) <= 1e-12


def test_singular_points_phi_half_closed_form():
    pts = {p.branch: p for p in spectral.singular_points(0.5)}
    assert set(pts) == {"eps_plus:+", "eps_plus:-", "eps_minus:+", "eps_minus:-"}
    c, s = math.cos(pts["eps_plus:+"].theta_s), math.sin(pts["eps_plus:+"].theta_s)
    assert (c, s) == pytest.approx((-1 / math.sqrt(10), -3 / math.sqrt(10)), abs=1e-12)
    c, s = math.cos(pts["eps_minus:+"].theta_s), math.sin(pts["eps_minus:+"].theta_s)
    assert (c, s) == pytest.approx((1 / math.sqrt(10), -3 / math.sqrt(10)), abs=1e-12)
    # antipodal partners
    for fam in ("eps_plus", "eps_minus"):
        a = pts[f"{fam}:+"].theta_s
        b = pts[f"{fam}:-"].theta_s
        assert abs(abs(a - b) - math.pi) <= 1e-12


def test_singular_points_domain():
    # phi = 0 is the homogeneous walk: no root family, no residue
    assert spectral.singular_points(0.0) == []
    assert spectral.residue_norms_origin(0.0, 0.6, 0.8j) == []
    with pytest.raises(DomainError):
        spectral.singular_points(1.0)


def test_singular_points_branch_filtering():
    assert {p.branch.split(":")[0] for p in spectral.singular_points(0.1)} == {
        "eps_plus"
    }
    assert {p.branch.split(":")[0] for p in spectral.singular_points(0.9)} == {
        "eps_minus"
    }
    assert len(spectral.singular_points(0.5)) == 4


def test_singular_points_are_roots_and_contracting():
    for phi in PHI_GRID:
        for pt in spectral.singular_points(phi):
            assert abs(spectral.big_lambda0(pt.z, phi)) <= 1e-10
            assert 0.0 < pt.lambda_sq < 1.0
            shift = math.pi / 4 if pt.branch.startswith("eps_plus") else -math.pi / 4
            cc = math.cos(2 * math.pi * phi + shift)
            assert pt.lambda_sq == pytest.approx(1 / (3 - 2 * SQRT2 * cc), abs=1e-10)


def test_root_completeness_scan():
    theta = np.linspace(-np.pi, np.pi, 100001)
    z = np.exp(1j * theta)
    f = (z * z + 1 - np.sqrt(z**4 + 1)) / SQRT2
    for phi in (0.3, 0.5, 0.6, 0.8):
        w = cmath.exp(2j * math.pi * phi)
        mags = np.abs(1 - SQRT2 * w * f + (w * f) ** 2)
        known = np.array([p.theta_s for p in spectral.singular_points(phi)])
        for idx in np.where(mags < 1e-6)[0]:
            gap = np.min(np.abs(np.angle(np.exp(1j * (theta[idx] - known)))))
            assert gap < 1e-3


def test_residue_prefactor_matches_finite_difference():
    h = 1e-6
    for phi in (0.3, 0.55, 0.8):
        for pt in spectral.singular_points(phi):
            fd = (
                _phi_tilde(pt.theta_s + h) - _phi_tilde(pt.theta_s - h)
            ) / (2 * h)
            pref = 1.0 / (2.0 * abs(1.0 + fd) ** 2)
            assert pt.residue_prefactor == pytest.approx(pref, abs=1e-10)
            # and equals the derivative route |dL0/dz|^{-2}
            dsq = abs(spectral.big_lambda0_deriv(pt.z, phi)) ** 2
            assert pt.residue_prefactor == pytest.approx(1.0 / dsq, abs=1e-12)


# 20 phi, each at least 1e-2 from the band edges 0, 1/4, 3/4 and 1
MPMATH_PHIS = [0.01, 0.05, 0.1, 0.15, 0.2, 0.24, 0.26, 0.3, 0.375, 0.45, 0.5,
               0.55, 0.625, 0.7, 0.74, 0.76, 0.8, 0.875, 0.95, 0.99]


def test_residue_prefactor_matches_mpmath():
    # |Res(1/L0)|^2 = (1 - w)^2 / (2 (3 - 2w)^2) for the family energy
    # w = sqrt(2) cos(2 pi phi +- pi/4), the sign + for eps_plus
    for phi in MPMATH_PHIS:
        pts = spectral.singular_points(phi)
        assert pts
        for pt in pts:
            sign = 1 if pt.branch.startswith("eps_plus") else -1
            with mpmath.workdps(50):
                w = mpmath.sqrt(2) * mpmath.cos(
                    2 * mpmath.pi * mpmath.mpf(phi) + sign * mpmath.pi / 4
                )
                ref = float((1 - w) ** 2 / (2 * (3 - 2 * w) ** 2))
            assert pt.residue_prefactor == pytest.approx(ref, rel=1e-12, abs=0)


def test_residue_closed_form_values_phi_half():
    norms = spectral.residue_norms_origin(0.5, 1.0, 0.0)
    assert len(norms) == 4
    for v in norms:
        assert v == pytest.approx(2 / 25, abs=1e-13)
    assert sum(norms) == pytest.approx(8 / 25, abs=1e-12)


def test_residue_vanishing_branch():
    # alpha = i beta kills the eps_minus (|alpha - i beta|^2) contribution
    pts = spectral.singular_points(0.5)
    norms = spectral.residue_norms_origin(0.5, 1j / SQRT2, 1 / SQRT2)
    for pt, v in zip(pts, norms):
        if pt.branch.startswith("eps_minus"):
            assert v <= 1e-28


def test_residue_sum_reconstructs_origin_limit():
    states = [
        (1 / SQRT2, 1j / SQRT2),
        (1 / SQRT2, -1j / SQRT2),
        (0.6 + 0j, 0.8j),
    ]
    for phi in PHI_GRID:
        for alpha, beta in states:
            got = sum(spectral.residue_norms_origin(phi, alpha, beta))
            assert got == pytest.approx(
                limits.mu_inf_origin(phi, alpha, beta), abs=1e-12
            )


def test_xi_tilde0_series_structure():
    co = spectral.xi_tilde0_series(0.3, 16)
    assert np.allclose(co[0], np.eye(2), atol=1e-14)
    assert np.max(np.abs(co[1::2])) == 0.0


def test_xi_tilde0_series_matches_renewal():
    params = WalkParams.preset(1, 0.3)
    co = spectral.xi_tilde0_series(0.3, 40)
    v = np.array([params.alpha, params.beta])
    psi = series.psi_origin_sequence(20, params)
    for n in range(0, 21):
        assert np.max(np.abs(co[2 * n] @ v - psi[n])) <= 1e-10


def test_xi_tilde0_series_general_state():
    params = WalkParams(phi=0.77, alpha=0.48 + 0.6j, beta=complex(0, math.sqrt(1 - 0.48**2 - 0.36)))
    co = spectral.xi_tilde0_series(0.77, 24)
    v = np.array([params.alpha, params.beta])
    psi = series.psi_origin_sequence(12, params)
    for n in range(0, 13):
        assert np.max(np.abs(co[2 * n] @ v - psi[n])) <= 1e-10
