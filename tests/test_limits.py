import math
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from defectwalk import limits
from defectwalk.walk import DomainError, WalkParams

SQRT2 = math.sqrt(2.0)

PHI_GRID = [i / 21 for i in range(1, 21)]


def test_mu_inf_phi_half_preset():
    p = WalkParams.preset(1, 0.5)
    assert limits.mu_inf_origin(0.5, p.alpha, p.beta) == pytest.approx(
        8 / 25, abs=1e-14
    )
    assert limits.mu_inf(1, 0.5, p.alpha, p.beta) == pytest.approx(24 / 125, abs=1e-14)
    assert limits.total_point_mass(0.5, p.alpha, p.beta) == pytest.approx(
        4 / 5, abs=1e-13
    )


def test_mu_inf_symmetric_in_x():
    for phi in (0.3, 0.55, 0.9):
        for x in range(1, 8):
            a = limits.mu_inf(x, phi, 0.6, 0.8j)
            b = limits.mu_inf(-x, phi, 0.6, 0.8j)
            assert a == b


def test_mu_inf_geometric_rates():
    # away from the origin the profile of a single-branch state is geometric
    phi = 0.6
    alpha, beta = 1 / SQRT2, 1j / SQRT2  # kills the eta = -1 family
    rate = 1 / (3 - 2 * SQRT2 * math.cos(2 * math.pi * phi - math.pi / 4))
    for x in range(1, 10):
        ratio = limits.mu_inf(x + 1, phi, alpha, beta) / limits.mu_inf(
            x, phi, alpha, beta
        )
        assert ratio == pytest.approx(rate, abs=1e-14)


def test_mu_inf_far_sites():
    # at phi = 1/8 the massless eta = +1 family has rate 1/(3 - 2 sqrt2) > 5,
    # whose 500th power overflows a float
    p = WalkParams.preset(-1, 0.125)
    far = limits.mu_inf(500, 0.125, p.alpha, p.beta)
    assert 0.0 <= far <= 1e-200
    assert limits.mu_inf(-500, 0.125, 0.6, 0.8j) == limits.mu_inf(500, 0.125, 0.6, 0.8j)


@pytest.mark.parametrize("phi", [0.1, 0.3, 0.5, 0.9])
def test_site_index_spellings(phi):
    # a NumPy integer gives the int's value; an |x| beyond float range gives
    # the exact answer, which underflows to 0.0, not an OverflowError
    a, b = 0.6, 0.8j
    origin = limits.mu_inf(0, phi, a, b)
    assert limits.mu_inf(np.int64(3), phi, a, b) == limits.mu_inf(3, phi, a, b)
    assert limits.mu_inf(np.int64(0), phi, a, b) == origin
    for x in (10**400, -(10**400), 2**63, 2**64):
        assert limits.mu_inf(x, phi, a, b) == 0.0 < origin
    branch = "minus" if phi < 0.5 else "plus"
    st_origin = limits.stationary_measure(0, phi, 0.5, branch)
    assert limits.stationary_measure(np.int64(3), phi, 0.5, branch) == (
        limits.stationary_measure(3, phi, 0.5, branch))
    for x in (10**400, -(10**400)):
        assert limits.stationary_measure(x, phi, 0.5, branch) == 0.0 < st_origin


def test_mu_inf_vanishes_for_homogeneous_coin():
    for x in range(-4, 5):
        assert limits.mu_inf(x, 0.0, 1 / SQRT2, 1j / SQRT2) == 0.0


def test_mu_inf_vanishing_region():
    # alpha = i beta leaves only the C+ family, absent for phi >= 3/4
    assert limits.mu_inf_origin(7 / 8, 1j / SQRT2, 1 / SQRT2) == 0.0
    # alpha = -i beta leaves only the C- family, absent for phi <= 1/4
    assert limits.mu_inf_origin(0.2, 1j / SQRT2, -1 / SQRT2) == 0.0


def test_total_point_mass_is_subprobability():
    rng = np.random.default_rng(5)
    for phi in PHI_GRID:
        v = rng.normal(size=4)
        a, b = v[0] + 1j * v[1], v[2] + 1j * v[3]
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        total = limits.total_point_mass(phi, a / norm, b / norm)
        assert 0.0 <= total <= 1.0 + 1e-12


@pytest.mark.parametrize("phi", [1e-20, 1e-300, 5e-324])
def test_total_point_mass_tiny_phi(phi):
    # sqrt(2)*C+ rounds above 1 here although the true weight is ~phi^2
    total = limits.total_point_mass(phi, 0.6, 0.8j)
    assert math.isfinite(total)
    assert 0.0 <= total <= 1e-15


@st.composite
def _near_edge_phi(draw):
    # phi uniform in [0, 1), or 1e-18 ... 1e-7 from 0, 1/4 or 3/4, on either
    # side (reflected back into [0, 1) at 0)
    if draw(st.booleans()):
        return draw(st.floats(0, 1, exclude_max=True))
    edge = draw(st.sampled_from((0.0, 0.25, 0.75)))
    offset = draw(st.floats(1, 10, exclude_max=True)) * 10.0 ** -draw(st.integers(8, 18))
    return abs(edge + draw(st.sampled_from((-1, 1))) * offset)


@st.composite
def _coin_states(draw):
    parts = [draw(st.floats(-1, 1)) for _ in range(4)]
    a, b = complex(parts[0], parts[1]), complex(parts[2], parts[3])
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    if norm < 1e-3:
        return 1.0, 0.0
    return a / norm, b / norm


@settings(max_examples=200, deadline=None)
@given(phi=_near_edge_phi(), state=_coin_states())
def test_total_point_mass_bounds_origin_value(phi, state):
    a, b = state
    total = limits.total_point_mass(phi, a, b)
    assert math.isfinite(total)
    assert 0.0 <= limits.mu_inf_origin(phi, a, b) <= total <= 1.0 + 1e-12


@settings(max_examples=300, deadline=None)
@given(phi=_near_edge_phi(), state=_coin_states(),
       x=st.integers(1, 10**18) | st.integers(-10**18, -1))
@example(phi=1e-20, state=(0.6, 0.8j), x=1)
@example(phi=2e-17, state=(0.6, 0.8j), x=10**18)
def test_mu_inf_far_sites_bounded_by_origin(phi, state, x):
    # each listed family has w < 1, so (2 - w) * rate < 1 and rate < 1: no
    # site outweighs the origin, even near phi = 0, where w can round to 1
    a, b = state
    far = limits.mu_inf(x, phi, a, b)
    assert math.isfinite(far)
    assert 0.0 <= far <= limits.mu_inf_origin(phi, a, b)


def test_total_point_mass_matches_site_sum():
    p = WalkParams.preset(1, 0.4)
    by_sites = sum(limits.mu_inf(x, 0.4, p.alpha, p.beta) for x in range(-200, 201))
    assert limits.total_point_mass(0.4, p.alpha, p.beta) == pytest.approx(
        by_sites, abs=1e-13
    )


def test_theta0_sqrt_equals_abs_trig_difference():
    # for E = C + eta*S the discriminant sqrt(2 - E^2) equals |S - eta*C|
    for phi in PHI_GRID:
        C, S = math.cos(2 * math.pi * phi), math.sin(2 * math.pi * phi)
        assert math.sqrt(2 - (C + S) ** 2) == pytest.approx(abs(S - C), abs=1e-12)
        assert math.sqrt(2 - (C - S) ** 2) == pytest.approx(abs(S + C), abs=1e-12)


def test_asymptotic_vanishes_outside_regions():
    p = WalkParams.preset(1, 0.2)  # only the (1/4, 1) branch can fire, and
    # alpha + i beta = 0 silences the other
    for n in (1, 5, 40):
        assert limits.asymptotic_psi_origin(n, 0.2, p.alpha, p.beta) == (
            0.0,
            0.0,
            0.0,
            0.0,
        )


def test_asymptotic_requires_positive_n():
    # a float n once gave four NaNs, a value, or a bare ValueError
    for n in (0, math.nan, math.inf, 2.5, 3.0):
        with pytest.raises(DomainError, match="n must be"):
            limits.asymptotic_psi_origin(n, 0.5, 1.0, 0.0)
    assert limits.asymptotic_psi_origin(np.int64(7), 0.3, 0.6, 0.8j) == (
        limits.asymptotic_psi_origin(7, 0.3, 0.6, 0.8j))


def test_asymptotic_n_cap():
    # beyond 2**33 the phase error n*2**-53 passes 1e-6 rad, so such an n is
    # refused, 10**400 included, rather than answered with no right digit
    cap = limits._MAX_N
    assert cap == 2**33 and cap * 2.0**-53 < 1e-6
    for n in (cap, np.int64(cap)):
        assert all(math.isfinite(v) for v in limits.asymptotic_psi_origin(n, 0.3, 0.6, 0.8j))
    for n in (cap + 1, np.int64(cap + 1), 2**60, 10**400):
        with pytest.raises(DomainError, match=r"n must be <= 8589934592"):
            limits.asymptotic_psi_origin(n, 0.3, 0.6, 0.8j)


def _return_limit(phi, eta):
    # long-time even-time return probability of the preset state of family
    # eta, for phi inside the family's interval: 4 ((1 - w)/(3 - 2w))^2 with
    # w = sqrt(2) cos(2 pi phi - eta pi/4)
    w = SQRT2 * math.cos(2 * math.pi * phi - eta * math.pi / 4)
    return 4 * ((1 - w) / (3 - 2 * w)) ** 2


def test_asymptotic_norm_matches_return_limit():
    # single-branch states have constant oscillation modulus, so the squared
    # norm of the leading term equals the long-time return probability
    for phi, eta in ((0.5, 1), (1 / 3, 1), (0.9, 1), (0.5, -1), (0.2, -1)):
        p = WalkParams.preset(eta, phi)
        for n in (3, 17, 101):
            re_l, im_l, re_r, im_r = limits.asymptotic_psi_origin(
                n, phi, p.alpha, p.beta
            )
            nrm = re_l**2 + im_l**2 + re_r**2 + im_r**2
            assert nrm == pytest.approx(_return_limit(phi, eta), abs=1e-12)



def _mp_asymptotic(n, phi, alpha, beta):
    # 60-digit reference that spells the root's imaginary part through
    # sqrt(2 - w^2), which cancels in floats as w -> -sqrt(2) near phi = 3/8
    # and 5/8
    with mpmath.workdps(60):
        phi = mpmath.mpf(phi)
        alpha, beta = mpmath.mpc(alpha), mpmath.mpc(beta)
        psi_l = psi_r = mpmath.mpc(0)
        for eta, lo, hi in ((1, 0.25, 1.0), (-1, 0.0, 0.75)):
            if not lo < phi < hi:
                continue
            a = 2 * mpmath.pi * phi - eta * mpmath.pi / 4
            w = mpmath.sqrt(2) * mpmath.cos(a)
            den = 3 - 2 * w
            sin0 = mpmath.sign(mpmath.sin(a)) * (2 - w) * mpmath.sqrt(2 - w * w) / den
            osc = mpmath.expj(n * mpmath.atan2(sin0, -((1 - w) ** 2) / den))
            term = (alpha - eta * 1j * beta) * (1 - w) / den * osc
            psi_l += term
            psi_r += eta * 1j * term
        return [float(v) for v in (psi_l.real, psi_l.imag, psi_r.real, psi_r.imag)]


@pytest.mark.parametrize("centre", [0.375, 0.625])
def test_asymptotic_matches_mpmath_near_cancellation(centre):
    for k in range(6, 13):
        for phi in (centre - 10.0**-k, centre + 10.0**-k):
            got = limits.asymptotic_psi_origin(900, phi, 0.6, 0.8j)
            ref = _mp_asymptotic(900, phi, 0.6, 0.8j)
            assert max(abs(g - r) for g, r in zip(got, ref)) <= 1e-11

def test_stationary_measure_examples():
    assert limits.stationary_measure(0, 0.5, 0.5, "plus") == 1.0
    assert limits.stationary_measure(1, 0.5, 0.5, "plus") == pytest.approx(
        3 / 5, abs=1e-14
    )
    for x in range(1, 6):
        assert limits.stationary_measure(x, 0.37, 0.5, "minus") == pytest.approx(
            limits.stationary_measure(-x, 0.37, 0.5, "minus"), abs=0
        )


def test_stationary_measure_domain():
    # the rate 1/(3 - 2C -+ 2S) is 1 or above: the profile does not decay
    for phi, branch in ((0.0, "plus"), (0.0, "minus"), (0.1, "plus"),
                        (0.25, "plus"), (0.9, "minus"), (1e-18, "minus"),
                        (0.75, "minus")):
        with pytest.raises(DomainError, match="does not decay"):
            limits.stationary_measure(0, phi, 0.5, branch)
    # a non-number, and an int or a NumPy float whose double is past the
    # largest float (refused without NumPy's overflow warning)
    for alpha_mod2 in (-1.0, 0.0, math.nan, math.inf, -math.inf, 1e308,
                       "0.5", None, 0.5j, Decimal("0.5"), np.complex128(0.5),
                       10**400, np.float64(1e308)):
        for x in (0, 1):
            with pytest.raises(DomainError, match="alpha_mod2"):
                limits.stationary_measure(x, 0.5, alpha_mod2, "plus")
    with pytest.raises(DomainError):
        limits.stationary_measure(0, 0.5, 0.5, "middling")


def test_stationary_measure_number_types():
    # scaled by 2.0 * float(alpha_mod2): at x = 0 an int 1 returned 2, and a
    # float32 0.25 returned a float32; a float32 3e38 doubles to a finite float
    for alpha_mod2 in (1, Fraction(1, 4), np.float32(0.25), np.float16(0.25),
                       np.float32(3e38)):
        for x in (0, 1, 7):
            got = limits.stationary_measure(x, 0.5, alpha_mod2, "plus")
            ref = limits.stationary_measure(x, 0.5, float(alpha_mod2), "plus")
            assert type(got) is float and got == ref


def test_compare_stationary_is_constant_ratio():
    for phi in (0.3, 0.5, 0.7, 0.95):
        assert limits.compare_stationary_timeavg(phi, "plus") <= 1e-12
    for phi in (0.05, 0.3, 0.5, 0.7):
        assert limits.compare_stationary_timeavg(phi, "minus") <= 1e-12


def test_compare_stationary_crossed_branches_not_constant():
    # the plus-branch walk measure against the minus-branch stationary decay;
    # needs sin(2 pi phi) != 0 so the two decay rates actually differ
    phi = 0.6
    alpha, beta = 1 / SQRT2, 1j / SQRT2
    ratios = [
        limits.mu_inf(x, phi, alpha, beta)
        / limits.stationary_measure(x, phi, 0.5, "minus")
        for x in range(0, 10)
    ]
    assert max(ratios) - min(ratios) > 1e-3


def test_compare_stationary_degenerate_region():
    with pytest.raises(DomainError):
        limits.compare_stationary_timeavg(0.2, "plus")
    with pytest.raises(DomainError):
        limits.compare_stationary_timeavg(0.8, "minus")
    # inside the minus interval, but the rate rounds to 1
    with pytest.raises(DomainError, match="does not decay"):
        limits.compare_stationary_timeavg(1e-18, "minus")


def test_compare_stationary_zero_origin_is_degenerate():
    # the minus family's energy rounds to 1 and its weight is dropped, while
    # the stationary rate still rounds below 1: both sides would be 0
    for phi in (9e-18, 1e-17, 2.5e-17):
        assert limits.mu_inf_origin(phi, 1 / SQRT2, -1j / SQRT2) == 0.0
        with pytest.raises(DomainError, match="degenerates"):
            limits.compare_stationary_timeavg(phi, "minus")
    # from here on the weight is kept, and the gap compares nonzero values;
    # mu_inf(0) is about 1e-31, so only a gap relative to it says anything
    for phi in (3.16e-17, 1e-16):
        assert limits.mu_inf_origin(phi, 1 / SQRT2, -1j / SQRT2) > 0.0
        assert limits.compare_stationary_timeavg(phi, "minus") <= 1e-12


def test_cgmv_spelling_agrees_everywhere():
    states = [
        (1 / SQRT2, 1j / SQRT2),
        (1 / SQRT2, -1j / SQRT2),
        (0.6, 0.8j),
        (0.48 + 0.6j, complex(0, math.sqrt(1 - 0.48**2 - 0.36))),
    ]
    for phi in PHI_GRID:
        for a, b in states:
            assert limits.cgmv_limit_origin(phi, a, b) == pytest.approx(
                limits.mu_inf_origin(phi, a, b), abs=1e-15
            )


def test_cgmv_zero_cases():
    assert limits.cgmv_limit_origin(7 / 8, 1j / SQRT2, 1 / SQRT2) == 0.0
    assert limits.cgmv_limit_origin(0.2, 1j / SQRT2, -1 / SQRT2) == 0.0
    assert limits.cgmv_limit_origin(0.0, 0.6, 0.8j) == 0.0


# Reference: the closed forms as two hand-written branches, one per family,
# with the trig spelled out per branch (Cp/Cm = cos(2 pi phi +- pi/4),
# E+- = C +- S), independent of the family table in ``limits``.
def _ref_weight(w):
    return 0.0 if w >= 1 else ((1 - w) / (3 - 2 * w)) ** 2


def _ref_ind(phi, lo, hi):
    return 1.0 if lo < phi < hi else 0.0


def _ref_origin(phi, alpha, beta):
    wp = SQRT2 * math.cos(2 * math.pi * phi + math.pi / 4)
    wm = SQRT2 * math.cos(2 * math.pi * phi - math.pi / 4)
    mu1 = _ref_weight(wp) * abs(alpha + 1j * beta) ** 2 * _ref_ind(phi, 0.0, 0.75)
    mu2 = _ref_weight(wm) * abs(alpha - 1j * beta) ** 2 * _ref_ind(phi, 0.25, 1.0)
    return wp, wm, mu1, mu2


def _ref_mu_inf(x, phi, alpha, beta):
    wp, wm, mu1, mu2 = _ref_origin(phi, alpha, beta)
    if x == 0:
        return mu1 + mu2
    ax = abs(x)
    return (2 - wp) * (1 / (3 - 2 * wp)) ** ax * mu1 + (2 - wm) * (
        1 / (3 - 2 * wm)
    ) ** ax * mu2


def _ref_total_point_mass(phi, alpha, beta):
    wp, wm, mu1, mu2 = _ref_origin(phi, alpha, beta)
    total = mu1 + mu2
    for w, mu in ((wp, mu1), (wm, mu2)):
        if mu != 0.0:
            rate = 1 / (3 - 2 * w)
            total += 2 * (2 - w) * rate / (1 - rate) * mu
    return total


def _ref_asymptotic(n, phi, alpha, beta):
    C, S = math.cos(2 * math.pi * phi), math.sin(2 * math.pi * phi)

    def sgn(v):
        return 0.0 if abs(v) < 1e-14 else math.copysign(1.0, v)

    def term(E, proj, trig_sign):
        den = 3 - 2 * E
        cos0 = -((1 - E) ** 2) / den
        sin0 = (2 - E) * math.sqrt(max(0.0, 2 - E * E)) / den
        ang = n * math.atan2(sin0, cos0)
        osc = math.cos(ang) + 1j * sgn(trig_sign) * math.sin(ang)
        return proj * ((1 - E) / den) * osc

    psi_l = psi_r = 0j
    if 0.25 < phi < 1.0:
        t = term(C + S, alpha - 1j * beta, S - C)
        psi_l += t
        psi_r += 1j * t
    if 0.0 < phi < 0.75:
        t = term(C - S, alpha + 1j * beta, S + C)
        psi_l += t
        psi_r += -1j * t
    return (psi_l.real, psi_l.imag, psi_r.real, psi_r.imag)


def test_closed_forms_match_two_branch_reference():
    rng = np.random.default_rng(17)
    edges = [0.0, 1e-20, 5e-324, 0.25 - 1e-12, 0.25 + 1e-12, 0.75 - 1e-12,
             0.75 + 1e-12, 1 - 1e-16]
    for phi in edges + [float(p) for p in rng.random(60)]:
        v = rng.normal(size=4)
        a, b = complex(v[0], v[1]), complex(v[2], v[3])
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        states = ((a / norm, b / norm), (0.6, 0.8j), (1 / SQRT2, -1j / SQRT2))
        for alpha, beta in states:
            for x in range(-20, 21):
                assert limits.mu_inf(x, phi, alpha, beta) == _ref_mu_inf(
                    x, phi, alpha, beta
                )
            assert limits.mu_inf_origin(phi, alpha, beta) == _ref_mu_inf(
                0, phi, alpha, beta
            )
            assert limits.total_point_mass(phi, alpha, beta) == (
                _ref_total_point_mass(phi, alpha, beta)
            )
            for n in (1, 7, 300, 900):
                got = limits.asymptotic_psi_origin(n, phi, alpha, beta)
                ref = _ref_asymptotic(n, phi, alpha, beta)
                assert max(abs(g - r) for g, r in zip(got, ref)) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_memoized_table_matches_reference_interleaved(data):
    # calls hop between up to 12 phi and 12 states, more than the table
    # keeps, so a stale or evicted entry read for the wrong key fails
    phis = data.draw(st.lists(_near_edge_phi(), min_size=1, max_size=12))
    states = data.draw(st.lists(_coin_states(), min_size=1, max_size=12))
    calls = data.draw(st.lists(
        st.tuples(st.integers(-25, 25), st.integers(0, len(phis) - 1),
                  st.integers(0, len(states) - 1)),
        min_size=1, max_size=80))
    for x, i, j in calls:
        phi, (alpha, beta) = phis[i], states[j]
        assert limits.mu_inf(x, phi, alpha, beta) == _ref_mu_inf(x, phi, alpha, beta)
        assert limits.total_point_mass(phi, alpha, beta) == (
            _ref_total_point_mass(phi, alpha, beta)
        )


def test_profile_builds_one_family_table():
    p = WalkParams.preset(-1, 0.4)
    limits._families.cache_clear()
    for x in range(-20, 21):
        limits.mu_inf(x, 0.4, p.alpha, p.beta)
    limits.mu_inf_origin(0.4, p.alpha, p.beta)
    limits.total_point_mass(0.4, p.alpha, p.beta)
    info = limits._families.cache_info()
    assert (info.misses, info.hits) == (1, 42)
