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


def _f(z):
    # f(z) by the pointwise formulas that big_lambda0 and the gate share
    return spectral._f(z, spectral._root(z))


def _lambda(z):
    # lambda(z) = z / (f(z) - sqrt(2)), the decay factor of the measure
    return z / (_f(z) - SQRT2)


def _disk_samples(count=100, seed=3):
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.uniform(0, 1, count))
    th = rng.uniform(-np.pi, np.pi, count)
    return r * np.exp(1j * th)


def test_f_tilde_at_zero_and_i():
    assert _f(0) == 0
    assert _f(1j) == pytest.approx(-1)
    assert abs(_f(1j)) == pytest.approx(1)


def test_f_tilde_quadratic_identity_on_disk():
    for z in _disk_samples():
        f = _f(z)
        res = f * f - SQRT2 * (1 + z * z) * f + z * z
        assert abs(res) <= 1e-12


def test_f_tilde_unit_modulus_on_band():
    for theta in np.linspace(-np.pi, np.pi, 200):
        if 2 * math.sin(theta) ** 2 < 1 + 1e-9:
            continue
        f = _f(cmath.exp(1j * theta))
        assert abs(abs(f) - 1) <= 1e-12
        # polar form e^{i(theta + phi~)}
        expected = cmath.exp(1j * (theta + _phi_tilde(theta)))
        assert abs(f - expected) <= 1e-12


def test_lambda_tilde_values():
    val = _lambda(1j)
    assert val == pytest.approx(1j / (-1 - SQRT2))
    assert abs(val) ** 2 == pytest.approx(3 - 2 * SQRT2, abs=1e-12)


def test_lambda_circle_formula_band_boundary():
    theta = math.pi / 4  # cos^2 = 1/2
    assert _lambda_sq_circle(theta) == pytest.approx(1.0, abs=1e-12)
    q = abs(_lambda(cmath.exp(1j * theta))) ** 2
    assert q == pytest.approx(1.0, abs=1e-12)


def test_lambda_circle_matches_quotient():
    for theta in np.linspace(-np.pi, np.pi, 101):
        if 2 * math.sin(theta) ** 2 < 1 + 1e-6:
            continue
        q = abs(_lambda(cmath.exp(1j * theta))) ** 2
        assert q == pytest.approx(_lambda_sq_circle(theta), abs=1e-12)


def test_big_lambda0_base_values():
    assert spectral.big_lambda0(0, 0.3) == pytest.approx(1)
    # omega = -1, f(i) = -1
    assert spectral.big_lambda0(1j, 0.5) == pytest.approx(2 - SQRT2)


def test_big_lambda0_factorization():
    for phi in (0.2, 0.5, 0.9):
        w = cmath.exp(2j * math.pi * phi)
        for z in _disk_samples(40, seed=11):
            f = _f(z)
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


def test_residue_norms_at_points_equal_origin_norms():
    for phi in (0.0,) + tuple(PHI_GRID):
        pts = spectral.singular_points(phi)
        assert spectral.residue_norms(pts, 0.6, 0.8j) == (
            spectral.residue_norms_origin(phi, 0.6, 0.8j)
        )


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


def _ref_singular_points(phi):
    # the per-point code spelled out here from the formulas of the docstrings,
    # sharing no helper with the package: f, |L0|, lambda, dL0/dz and the
    # resolvent entry g = w f / sqrt(2) from z, where the antipode's z is
    # -e^{i theta_+} of its partner and its theta_s is atan2(-s, -c)
    w = cmath.exp(2j * math.pi * phi)
    points = []
    for name, sign, lo, hi in (("eps_plus", 1, 0.0, 0.75), ("eps_minus", -1, 0.25, 1.0)):
        if not lo < phi < hi:
            continue
        eps = 2 * math.pi * phi + sign * math.pi / 4
        den = math.sqrt(3 - 2 * SQRT2 * math.cos(eps))
        c = math.sin(eps) / den
        s = (math.cos(eps) - SQRT2) / den
        z_plus = cmath.exp(1j * math.atan2(s, c))
        for pm, cos_s, sin_s, z in (("+", c, s, z_plus), ("-", -c, -s, -z_plus)):
            theta = math.atan2(sin_s, cos_s)
            root = cmath.sqrt(z ** 4 + 1)
            f = (z * z + 1 - root) / SQRT2
            assert abs(1 - SQRT2 * w * f + (w * f) ** 2) <= 1e-10
            f_deriv = SQRT2 * z * (1 - z * z / root)
            dl0 = (-SQRT2 * w + 2 * w * w * f) * f_deriv
            points.append(spectral.SpectralPoint(
                theta_s=theta, branch=f"{name}:{pm}",
                lambda_sq=abs(z / (f - SQRT2)) ** 2,
                residue_prefactor=1 / abs(dl0) ** 2,
                z=z, g=w * f / SQRT2))
    return points


def _ref_residue_norms(phi, alpha, beta):
    # g formed again from the point's z, not read from the point
    w = cmath.exp(2j * math.pi * phi)
    out = []
    for pt in _ref_singular_points(phi):
        g = w * _f(pt.z) / SQRT2
        n1, n2 = alpha * (1 - g) - beta * g, alpha * g + beta * (1 - g)
        out.append((abs(n1) ** 2 + abs(n2) ** 2) * pt.residue_prefactor)
    return out


_VERIFY_GRID = [i / 11 for i in range(1, 11)]
_SEEDED_PHIS = [float(p) for p in np.random.default_rng(29).random(50)]


@pytest.mark.parametrize("phi", _VERIFY_GRID + _SEEDED_PHIS)
def test_singular_points_equal_public_helper_spelling(phi):
    got, ref = spectral.singular_points(phi), _ref_singular_points(phi)
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        for name in spectral.SpectralPoint._fields:
            assert getattr(g, name) == getattr(r, name), name


@pytest.mark.parametrize("phi", _VERIFY_GRID + _SEEDED_PHIS)
def test_singular_points_come_as_antipodal_pairs(phi):
    # each family's (+, -) pair shares one gate: the antipode stores -z of its
    # partner and its lambda^2, prefactor and g, and every z stays within
    # 1e-15 of e^{i theta_s} (4.0e-16 measured over 20 000 phi)
    pts = spectral.singular_points(phi)
    assert pts and len(pts) % 2 == 0
    for p, m in zip(pts[::2], pts[1::2]):
        family = p.branch[:-2]
        assert (p.branch, m.branch) == (f"{family}:+", f"{family}:-")
        assert m.z == -p.z
        assert (m.lambda_sq, m.residue_prefactor, m.g) == (
            p.lambda_sq, p.residue_prefactor, p.g)
    for pt in pts:
        assert abs(pt.z - cmath.exp(1j * pt.theta_s)) <= 1e-15


def test_spectral_point_is_immutable():
    pt = spectral.singular_points(0.3)[0]
    for name in ("theta_s", "branch", "lambda_sq", "residue_prefactor", "z", "g"):
        with pytest.raises(AttributeError):
            setattr(pt, name, 0.0)


@pytest.mark.parametrize("phi", [0.1, 0.3, 0.5, 0.9])
def test_root_formed_once_per_point(phi, monkeypatch):
    # the module docstring's "sqrt(z^4 + 1) once per root family", shared by
    # the family's antipodal pair; the residue norms read the points and form
    # no phase, root, f or z
    calls = []

    def counting(name, func):
        def wrapper(*args):
            calls.append(name)
            return func(*args)
        return wrapper

    monkeypatch.setattr(spectral, "_root", counting("_root", spectral._root))
    pts = spectral.singular_points(phi)
    assert pts and calls == ["_root"] * (len(pts) // 2)
    calls.clear()
    for name in ("_check_phi", "_phase", "_f"):
        monkeypatch.setattr(spectral, name, counting(name, getattr(spectral, name)))
    monkeypatch.setattr(cmath, "exp", counting("exp", cmath.exp))
    norms = spectral.residue_norms(pts, 0.6, 0.8j)
    assert len(norms) == len(pts) and calls == []


def test_residue_norms_equal_public_helper_spelling():
    rng = np.random.default_rng(31)
    for phi in _VERIFY_GRID + _SEEDED_PHIS:
        v = rng.normal(size=4)
        a, b = complex(v[0], v[1]), complex(v[2], v[3])
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        for alpha, beta in ((a / norm, b / norm), (0.6 + 0j, 0.8j)):
            got = spectral.residue_norms(spectral.singular_points(phi), alpha, beta)
            assert got == _ref_residue_norms(phi, alpha, beta)


def test_xi_tilde0_series_structure():
    for N in (16, 17, 600):
        co = spectral.xi_tilde0_series(0.3, N)
        assert co.shape == (N + 1, 2, 2)
        assert np.allclose(co[0], np.eye(2), atol=1e-14)
        assert np.max(np.abs(co[1::2])) == 0.0
    with pytest.raises(DomainError, match="N must be >= 0, got -1$"):
        spectral.xi_tilde0_series(0.3, -1)


def test_xi_tilde0_series_matches_renewal():
    params = WalkParams.preset(1, 0.3)
    co = spectral.xi_tilde0_series(0.3, 40)
    v = np.array([params.alpha, params.beta])
    psi = series.psi_origin_sequence(20, params)
    for n in range(0, 21):
        assert np.max(np.abs(co[2 * n] @ v - psi[n])) <= 1e-10


def test_xi_tilde0_series_matches_renewal_over_whole_range():
    # every coefficient through N = 4400 (psi nmax = 2200), past the order
    # m = 521 where both routes' r* floats fall back to true division
    rng = np.random.default_rng(17)
    worst = 0.0
    for phi in (0.1, 0.3, 0.5, 0.77):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        params = WalkParams(phi=phi, alpha=complex(v[0]), beta=complex(v[1]))
        co = spectral.xi_tilde0_series(phi, 4400)
        psi = series.psi_origin_sequence(2200, params)
        worst = max(worst, float(np.max(np.abs(co[::2] @ v - psi))))
    assert worst <= 1e-12


def _xi_from_factors(y_plus, y_minus):
    # (1 - g) / L0 = (Y+ + Y-) / 2 and g / L0 = (Y+ - Y-) / (2i) on the even rows
    n = len(y_plus)
    diag = [(u + v) / 2 for u, v in zip(y_plus, y_minus)]
    ig = [(u - v) / 2j for u, v in zip(y_plus, y_minus)]
    out = np.zeros((2 * n - 1, 2, 2), dtype=complex)
    out[::2] = np.stack([diag, np.negative(ig), ig, diag], axis=-1).reshape(n, 2, 2)
    return out


def _xi_exact_carrier_reference(phi, N):
    # the same identity with s's u^(2m) coefficient r*_{4m-1} taken from the
    # exact carrier, each ratio rounded once; rho^-k and the prefix sum are
    # formed whole, not by blocks
    n = N // 2 + 1
    p = np.zeros(n)  # u + s - 1
    p[1:2] = 1.0
    p[2::2] = [num / den for num, den in series._rstar_ratios(N // 4)]
    turns = np.longdouble(phi) * 2 + np.array([[0.25], [-0.25]], dtype=np.longdouble)
    a = np.exp(1j * (4 * np.arctan(np.longdouble(1))) * turns) / np.sqrt(np.longdouble(2))
    c0 = 1 - 2 * a
    theta = np.angle(2 * a * (1 - a) / c0)
    head = theta.astype(np.float32)
    tail = (theta - head).astype(float)
    k = np.arange(n)
    powers = np.exp(-1j * (k * head.astype(float))) * np.exp(-1j * (k * tail))
    y = np.conj(powers) * (1 - (a / c0).astype(complex) * np.cumsum(p * powers, axis=1))
    return _xi_from_factors(*y)


def test_xi_tilde0_series_matches_exact_carrier_reference():
    # s by the float binomial step stays within 1e-13 of s rounded once from
    # the exact ratios (1.5e-15 measured), past m = 521 where the carrier's
    # numerators leave the float range
    cases = [(phi, N) for N in (600, 4400)
             for phi in (0.1, 1 / 6, 0.3, 0.5, 0.25 + 1e-7, 0.77)] + [(0.3, 20_000)]
    for phi, N in cases:
        got = spectral.xi_tilde0_series(phi, N)
        assert np.max(np.abs(got - _xi_exact_carrier_reference(phi, N))) <= 1e-13


def _xi_mpmath(phi, N):
    # the identity at 40 digits and the exact phi: for each factor a of L0,
    # y_k = rho y_{k-1} - (a / c0) p_k, rho = 2a (1 - a) / c0, c0 = 1 - 2a
    with mpmath.workdps(40):
        p = [mpmath.mpf(0), mpmath.mpf(1)]  # u + sqrt(1 + u^2) - 1
        c = mpmath.mpf(1)
        for m in range(1, N // 4 + 1):
            c = c * (3 - 2 * m) / (2 * m)
            p += [c, mpmath.mpf(0)]
        w = mpmath.expjpi(2 * mpmath.mpf(phi))
        ys = []
        for a in (w * mpmath.mpc(0.5, 0.5), w * mpmath.mpc(0.5, -0.5)):
            c0 = 1 - 2 * a
            rho, beta = 2 * a * (1 - a) / c0, a / c0
            y = [mpmath.mpc(1)]
            for pk in p[1 : N // 2 + 1]:
                y.append(rho * y[-1] - beta * pk)
            ys.append(y)
        return _xi_from_factors(*ys)


def test_xi_tilde0_series_matches_extended_precision():
    # 2.8e-16 measured with x86's 80-bit longdouble, so the bound is 3.5x;
    # where longdouble is double, theta loses about 2 ulp and phi = 1/6 at
    # N = 4400 read 1.5e-13, bound 6x
    bound = 1e-15 if np.finfo(np.longdouble).nmant >= 63 else 1e-12
    cases = [(phi, 600) for phi in (0.1, 1 / 6, 0.3, 0.5, 0.25 + 1e-7, 0.77)] + [(1 / 6, 4400)]
    for phi, N in cases:
        got = spectral.xi_tilde0_series(phi, N)
        assert np.array_equal(got[0], np.eye(2))
        assert np.max(np.abs(got - _xi_mpmath(phi, N))) <= bound


def test_xi_tilde0_series_matches_renewal_near_band_edges():
    # 1e-12 and 1e-9 inside each band edge, and the double root of the two
    # factors' denominators at 1/6 and 5/6; the renewal route's own error
    # (3.1e-13 at 3/4 - 1e-9) is most of the gap
    rng = np.random.default_rng(23)
    phis = [d for e in (1e-12, 1e-9)
            for d in (e, 0.25 - e, 0.25 + e, 0.75 - e, 0.75 + e, 1 - e)] + [1 / 6, 5 / 6]
    for phi in phis:
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        params = WalkParams(phi=phi, alpha=complex(v[0]), beta=complex(v[1]))
        co = spectral.xi_tilde0_series(phi, 4400)
        psi = series.psi_origin_sequence(2200, params)
        assert np.max(np.abs(co[::2] @ v - psi)) <= 1e-12, phi


def test_xi_tilde0_series_general_state():
    params = WalkParams(phi=0.77, alpha=0.48 + 0.6j, beta=complex(0, math.sqrt(1 - 0.48**2 - 0.36)))
    co = spectral.xi_tilde0_series(0.77, 24)
    v = np.array([params.alpha, params.beta])
    psi = series.psi_origin_sequence(12, params)
    for n in range(0, 13):
        assert np.max(np.abs(co[2 * n] @ v - psi[n])) <= 1e-10
