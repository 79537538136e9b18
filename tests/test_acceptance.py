"""End-to-end acceptance suite.

Each test covers one headline guarantee of the package and prints a single
pass/fail line with the measured figure of merit, so the suite doubles as a
verification report when run with `pytest -s` or `-v`.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from defectwalk import limits, series, spectral, walk
from defectwalk.walk import WalkParams

SQRT2 = math.sqrt(2.0)

PHI_GRID_20 = [i / 21 for i in range(1, 21)]  # avoids 1/4 and 3/4 exactly


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _random_states(count, seed=7):
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(count):
        v = rng.normal(size=4)
        a, b = v[0] + 1j * v[1], v[2] + 1j * v[3]
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        states.append((a / norm, b / norm))
    return states


@pytest.fixture(scope="module")
def timeavg_5000():
    """Time averages at T=5000 for every (phi, state) the suite compares."""
    cases = {}
    specs = [
        ("preset", 0.4, 1), ("preset", 0.4, -1),
        ("preset", 0.5, 1), ("preset", 0.5, -1),
        ("preset", 0.6, 1), ("preset", 0.6, -1),
    ]
    for _, phi, eta in specs:
        p = WalkParams.preset(eta, phi)
        cases[(phi, eta)] = (p, walk.time_average(p, 5000, 5))
    s = 1 / SQRT2
    for key, alpha, beta, phi in (
        ("alpha=i*beta", 1j * s, s, 7 / 8),
        ("alpha=-i*beta", 1j * s, -s, 0.2),
    ):
        p = WalkParams(phi=phi, alpha=alpha, beta=beta)
        cases[key] = (p, walk.time_average(p, 5000, 5))
    return cases


def test_01_hadamard_baseline_return_probabilities():
    printed = [0.5, 0.125, 0.125, 0.0703125, 0.0703125, 0.048828125, 0.048828125]
    params = WalkParams.preset(1, 0.0)
    t0 = time.perf_counter()
    worst = max(
        abs(walk.measure(walk.evolve(params, n)).at(0) - ref)
        for n, ref in zip(range(2, 15, 2), printed)
    )
    elapsed = time.perf_counter() - t0
    _report(
        "homogeneous-coin return probabilities n=2..14",
        worst <= 5e-5 and elapsed < 1.0,
        f"max dev = {worst:.2e}, runtime = {elapsed:.2f}s",
    )


def test_02_renewal_convolution_matches_evolution():
    t0 = time.perf_counter()
    worst = 0.0
    states = _random_states(5)
    for phi in (0.125, 1 / 3, 0.5, 0.9):
        for alpha, beta in states:
            params = WalkParams(phi=phi, alpha=alpha, beta=beta)
            renewal = series.psi_origin_sequence(100, params)
            state = walk.initial_state(params)
            for n in range(0, 101):
                gap = np.max(np.abs(renewal[n] - state.amplitude(0)))
                worst = max(worst, gap)
                state = walk.step(walk.step(state, params), params)
    elapsed = time.perf_counter() - t0
    _report(
        "renewal convolution vs direct evolution (n<=100)",
        worst <= 1e-10 and elapsed < 10.0,
        f"max amplitude gap = {worst:.2e}, runtime = {elapsed:.1f}s",
    )


def test_03_limit_measure_matches_long_simulation(timeavg_5000):
    t0 = time.perf_counter()
    worst = 0.0
    for phi in (0.4, 0.5, 0.6):
        for eta in (1, -1):
            p, mu = timeavg_5000[(phi, eta)]
            for x in range(-5, 6):
                worst = max(
                    worst, abs(mu.at(x) - limits.mu_inf(x, phi, p.alpha, p.beta))
                )
    p = WalkParams.preset(1, 0.5)
    spot0 = limits.mu_inf(0, 0.5, p.alpha, p.beta)
    spot1 = limits.mu_inf(1, 0.5, p.alpha, p.beta)
    spots_ok = abs(spot0 - 8 / 25) < 1e-13 and abs(spot1 - 24 / 125) < 1e-13
    elapsed = time.perf_counter() - t0
    _report(
        "closed-form limit measure vs T=5000 simulation",
        worst <= 1e-2 and spots_ok and elapsed < 60.0,
        f"max |mu_bar - mu_inf| = {worst:.2e}, origin spot values exact, "
        f"runtime = {elapsed:.1f}s",
    )


def test_04_spectral_closure_and_residue_sum():
    worst_root = 0.0
    worst_sum = 0.0
    states = [(1 / SQRT2, 1j / SQRT2), (1.0 + 0j, 0j)] + _random_states(1, seed=2)
    for phi in PHI_GRID_20:
        for pt in spectral.singular_points(phi):
            worst_root = max(worst_root, abs(spectral.big_lambda0(pt.z, phi)))
        for alpha, beta in states:
            gap = abs(
                sum(spectral.residue_norms_origin(phi, alpha, beta))
                - limits.mu_inf_origin(phi, alpha, beta)
            )
            worst_sum = max(worst_sum, gap)
    _report(
        "unit-circle singular points and residue sums",
        worst_root <= 1e-10 and worst_sum <= 1e-12,
        f"max |root residual| = {worst_root:.2e}, "
        f"max residue-sum gap = {worst_sum:.2e}",
    )


def test_05_series_triple_equivalence():
    gf = series.rstar_series(23)
    ok = True
    for n in range(1, 24):
        closed = series.rstar(n)
        from_gf = gf[n]
        from_paths = series.path_oracle_first_return(n) - (1 if n == 1 else 0)
        ok = ok and closed == from_gf == from_paths
    ok = ok and series.rstar(7) == Fraction(-1, 8)  # printed spot value
    _report(
        "first-return coefficients: closed form = series = path count (n<=23)",
        ok,
        "exact rational equality on all three routes",
    )


def test_06_origin_amplitude_asymptotics():
    params = WalkParams.preset(1, 0.5)
    renewal = series.psi_origin_sequence(900, params)

    def window_rms(lo, hi):
        sq = 0.0
        cnt = 0
        for n in range(lo, hi + 1):
            psi = renewal[n]
            re_l, im_l, re_r, im_r = limits.asymptotic_psi_origin(
                n, 0.5, params.alpha, params.beta
            )
            pred = np.array([re_l + 1j * im_l, re_r + 1j * im_r])
            sq += float(np.sum(np.abs(psi - pred) ** 2))
            cnt += 1
        return math.sqrt(sq / cnt)

    early = window_rms(100, 200)
    mid = window_rms(500, 600)
    late = window_rms(800, 900)
    _report(
        "large-time origin amplitude oscillation",
        mid <= 2e-2 and late < early,
        f"RMS[500,600] = {mid:.2e}, RMS[100,200] = {early:.2e}, "
        f"RMS[800,900] = {late:.2e}",
    )


def test_07_stationary_measure_coincidence():
    ok = True
    details = []
    for phi in (0.3, 0.5):
        for branch in ("plus", "minus"):
            gap = limits.compare_stationary_timeavg(phi, branch)
            ok = ok and gap <= 1e-12
            details.append(f"{phi}/{branch}: gap={gap:.1e}")
    _report(
        "time-averaged limit is the tuned stationary measure",
        ok,
        "; ".join(details),
    )


def test_08_cmv_formula_equality():
    worst = 0.0
    for phi in PHI_GRID_20:
        for eta in (1, -1):
            p = WalkParams.preset(eta, phi)
            worst = max(
                worst,
                abs(
                    limits.cgmv_limit_origin(phi, p.alpha, p.beta)
                    - limits.mu_inf_origin(phi, p.alpha, p.beta)
                ),
            )
    _report(
        "CMV-derived origin formula equals the direct one",
        worst <= 1e-14,
        f"max gap over 20-point grid = {worst:.2e}",
    )


def test_09_vanishing_regions(timeavg_5000):
    ok = True
    worst_sim = 0.0
    for key, phi in (("alpha=i*beta", 7 / 8), ("alpha=-i*beta", 0.2)):
        p, mu = timeavg_5000[key]
        for x in range(-5, 6):
            if limits.mu_inf(x, phi, p.alpha, p.beta) != 0.0:
                ok = False
            worst_sim = max(worst_sim, mu.at(x))
    _report(
        "no localization in the vanishing parameter regions",
        ok and worst_sim <= 2e-3,
        f"closed form exactly zero, max simulated mu_bar_5000 = {worst_sim:.2e}",
    )
