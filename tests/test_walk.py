import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectwalk import walk
from defectwalk.walk import _INV_SQRT2, _INV_SQRT2_0D, DomainError, WalkParams

SQRT2 = math.sqrt(2.0)


def test_params_validation():
    with pytest.raises(DomainError):
        WalkParams(phi=0.5, alpha=1.0, beta=1.0)
    with pytest.raises(DomainError):
        WalkParams(phi=1.2, alpha=1.0, beta=0.0)
    for eta in (2, 0):
        with pytest.raises(DomainError, match=f"got {eta}$"):
            WalkParams.preset(eta, 0.3)
    for alpha, beta in ((math.nan, 0.0), (1.0, complex(0, math.inf))):
        with pytest.raises(DomainError):
            WalkParams(phi=0.5, alpha=alpha, beta=beta)


@pytest.mark.parametrize(
    "alpha, beta",
    [
        (1e200, 0.0),  # the square raises OverflowError
        (0.0, complex(0.0, -1e200)),
        (complex(1e308, 1e308), 0.0),  # abs itself raises OverflowError
        (1e154, 1e154),  # each square is finite, their sum is inf
    ],
)
def test_params_norm_overflow_is_domain_error(alpha, beta):
    assert walk._norm_sq(alpha, beta) == math.inf
    with pytest.raises(DomainError, match="= inf"):
        WalkParams(phi=0.5, alpha=alpha, beta=beta)


def test_single_step_from_left_chirality():
    params = WalkParams(phi=0.3, alpha=1.0, beta=0.0)
    state = walk.evolve(params, 1)
    omega = params.omega
    assert np.allclose(state.amplitude(-1), [omega / SQRT2, 0])
    assert np.allclose(state.amplitude(1), [0, omega / SQRT2])
    mu = walk.measure(state)
    assert mu.at(-1) == pytest.approx(0.5)
    assert mu.at(1) == pytest.approx(0.5)


def test_single_step_general_state():
    params = WalkParams(phi=0.62, alpha=0.6, beta=0.8j)
    state = walk.evolve(params, 1)
    omega = params.omega
    assert np.allclose(
        state.amplitude(-1), [omega * (params.alpha + params.beta) / SQRT2, 0]
    )
    assert np.allclose(
        state.amplitude(1), [0, omega * (params.alpha - params.beta) / SQRT2]
    )


def test_two_steps_matches_hadamard_origin_mass():
    # at times 1..3 the defect walk with a symmetric state reproduces the
    # homogeneous walk's distribution
    params = WalkParams.preset(1, 0.3)
    state = walk.evolve(params, 2)
    assert state.norm_sq() == pytest.approx(1.0, abs=1e-12)
    assert walk.measure(state).at(0) == pytest.approx(0.5, abs=1e-12)


def test_evolve_time_zero_is_initial_state():
    params = WalkParams(phi=0.4, alpha=0.6, beta=-0.8)
    state = walk.evolve(params, 0)
    assert state.time == 0
    assert np.allclose(state.amplitude(0), [0.6, -0.8])


def test_four_step_distribution_homogeneous():
    # E = C + S evaluates to 1 at phi = 0
    mu = walk.measure(walk.evolve(WalkParams.preset(1, 0.0), 4))
    assert mu.at(4) == pytest.approx(1 / 16, abs=1e-12)
    assert mu.at(-4) == pytest.approx(1 / 16, abs=1e-12)
    assert mu.at(2) == pytest.approx(6 / 16, abs=1e-12)
    assert mu.at(-2) == pytest.approx(6 / 16, abs=1e-12)
    assert mu.at(0) == pytest.approx(2 / 16, abs=1e-12)


def test_four_step_origin_mass_with_defect():
    # 2(3 - 2E)/16 with E = sqrt(2) at phi = 1/8
    mu = walk.measure(walk.evolve(WalkParams.preset(1, 0.125), 4))
    assert mu.at(0) == pytest.approx(2 * (3 - 2 * SQRT2) / 16, abs=1e-12)


def _return_probability(params, n):
    return walk.measure(walk.evolve(params, n)).at(0)


def test_return_probability_hadamard_sequence():
    params = WalkParams.preset(1, 0.0)
    expected = {2: 0.5, 4: 0.125, 6: 0.125, 8: 0.0703125}
    for n, val in expected.items():
        assert _return_probability(params, n) == pytest.approx(val, abs=1e-12)


def test_return_probability_odd_times_vanish():
    for params in (WalkParams.preset(1, 0.0), WalkParams.preset(-1, 0.37)):
        assert _return_probability(params, 3) == 0.0
        assert _return_probability(params, 7) == 0.0


def test_time_average_single_term():
    params = WalkParams(phi=0.3, alpha=1.0, beta=0.0)
    mu = walk.time_average(params, 1, 3)
    assert mu.at(0) == pytest.approx(1.0)
    assert np.sum(mu.values) == pytest.approx(1.0)


def test_time_average_homogeneous_origin_decays():
    params = WalkParams.preset(1, 0.0)
    m1 = walk.time_average(params, 200, 0).at(0)
    m2 = walk.time_average(params, 800, 0).at(0)
    assert m2 < m1
    assert m2 < 0.05


def test_time_average_localized_value():
    params = WalkParams.preset(1, 0.5)
    mu = walk.time_average(params, 3000, 0)
    assert mu.at(0) == pytest.approx(8 / 25, abs=1e-2)


def test_time_average_rejects_bad_args():
    params = WalkParams.preset(1, 0.5)
    with pytest.raises(DomainError):
        walk.time_average(params, 0, 3)
    with pytest.raises(DomainError):
        walk.time_average(params, 5, -1)


def test_unitarity_long_run():
    state = walk.evolve(WalkParams.preset(-1, 0.77), 1000)
    assert abs(state.norm_sq() - 1.0) <= 1e-9


def test_parity_and_locality():
    for n in (31, 30):
        state = walk.evolve(WalkParams.preset(1, 0.42), n)
        mu = walk.measure(state)
        for i, v in enumerate(mu.values):
            x = mu.offset + i
            if (x + n) % 2 == 1:
                assert v == 0.0
        # nothing beyond the light cone
        assert mu.at(n + 1) == 0.0
        assert mu.at(-n - 1) == 0.0


@pytest.mark.parametrize("n", (0, 1, 2, 7))
def test_evolve_odd_parity_sites_are_zero(n):
    # The kernel stores only the sites with x + n even; evolve fills the
    # others of [-n, n] with exact zeros.
    state = walk.evolve(_random_params(0.3, seed=n), n)
    assert state.offset == -n and len(state.amps) == 2 * n + 1
    for i, pair in enumerate(state.amps):
        if (state.offset + i + n) % 2 == 1:
            assert pair[0] == 0 and pair[1] == 0


def test_symmetric_preset_distribution_is_even_homogeneous():
    params = WalkParams.preset(1, 0.0)
    state = walk.initial_state(params)
    for n in range(1, 201):
        state = walk.step(state, params)
        mu = walk.measure(state)
        for x in range(1, n + 1):
            assert abs(mu.at(x) - mu.at(-x)) <= 1e-12


@st.composite
def coin_states(draw):
    v = np.array(
        [
            complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1))),
            complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1))),
        ]
    )
    n = np.linalg.norm(v)
    if n < 1e-3:
        v = np.array([1.0, 0.0])
        n = 1.0
    return v / n


@settings(max_examples=25, deadline=None)
@given(
    state=coin_states(),
    phi=st.floats(0, 1, exclude_max=True),
    gamma=st.floats(0, 2 * math.pi),
)
def test_global_phase_covariance(state, phi, gamma):
    p1 = WalkParams(phi=phi, alpha=complex(state[0]), beta=complex(state[1]))
    rot = np.exp(1j * gamma) * state
    p2 = WalkParams(phi=phi, alpha=complex(rot[0]), beta=complex(rot[1]))
    m1 = walk.measure(walk.evolve(p1, 12))
    m2 = walk.measure(walk.evolve(p2, 12))
    assert np.max(np.abs(m1.values - m2.values)) <= 1e-14


@settings(max_examples=25, deadline=None)
@given(state=coin_states(), phi=st.floats(0, 1, exclude_max=True))
def test_mass_conserved(state, phi):
    params = WalkParams(phi=phi, alpha=complex(state[0]), beta=complex(state[1]))
    final = walk.evolve(params, 30)
    assert final.norm_sq() == pytest.approx(1.0, abs=1e-12)


# The kernel behind evolve and time_average must reproduce a plain loop of the
# public one-step reference exactly, including where the light cone cuts it.
KERNEL_PHIS = (0.0, 0.1, 0.5, 0.9)  # homogeneous, then (0,1/4), (1/4,3/4), (3/4,1)
KERNEL_TIMES = (1, 2, 3, 8, 999)


def _random_params(phi, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return WalkParams(phi=phi, alpha=complex(v[0]), beta=complex(v[1]))


def _step_reference(params, times, pad):
    """One loop of walk.step: the state at each n in ``times`` and the
    measure summed over times 0 .. n-1, in time order, on |x| <= pad."""
    states, sums = {}, {}
    acc = np.zeros(2 * pad + 1)
    state = walk.initial_state(params)
    for t in range(max(times) + 1):
        if t > 0:
            state = walk.step(state, params)
        if t in times:
            states[t] = state
            sums[t] = acc.copy()
        mu = walk.measure(state)
        acc[pad + mu.offset : pad + mu.offset + len(mu.values)] += mu.values
    return states, sums


@pytest.mark.parametrize("phi", KERNEL_PHIS)
def test_kernel_matches_step_reference(phi):
    params = _random_params(phi, seed=int(phi * 10))
    pad = 2 * max(KERNEL_TIMES) + 7
    states, sums = _step_reference(params, KERNEL_TIMES, pad)
    for T in KERNEL_TIMES:
        got = walk.evolve(params, T)
        assert got.offset == -T and got.time == T and len(got.amps) == 2 * T + 1
        assert np.max(np.abs(got.amps - states[T].amps)) == 0.0
        for xmax in (0, 5, T - 1, T, T + 7):
            mu = walk.time_average(params, T, xmax)
            assert mu.offset == -xmax
            expected = sums[T][pad - xmax : pad + xmax + 1] / T
            assert np.max(np.abs(mu.values - expected)) == 0.0


def test_reciprocal_scaling_matches_numpy_division():
    # The kernel multiplies float64 views by _INV_SQRT2 where ``step`` divides
    # by SQRT2.  That is bit-identical only because NumPy divides a complex by
    # a real as (re + im*0) * (1/s) and (im - re*0) * (1/s); if a NumPy
    # release changes its division, this names the cause.  The kernel passes
    # the scale as a 0-d array, so that operand is checked too: if a release
    # treats a 0-d operand unlike a Python float, this names the cause.
    rng = np.random.default_rng(3)
    z = rng.normal(size=10**6) + 1j * rng.normal(size=10**6)
    for scale in (1.0, 1e-300, 1e300, 1e-310):  # the last is subnormal
        zs = z * scale
        expected = zs / walk.SQRT2
        for inv in (_INV_SQRT2, _INV_SQRT2_0D):
            got = (zs.view(np.float64) * inv).view(complex)
            assert np.array_equal(got, expected)


def test_accumulate_matches_loop_sum():
    # time_average adds each block's rows of one parity into the running sum
    # with one np.add.accumulate over [running sum; rows].  That equals the
    # step loop's ``acc += row`` bit for bit only because accumulate forms
    # out[i] = out[i-1] + in[i] in row order; if a NumPy release sums its
    # rows in another order (pairwise, say), this names the cause.
    rng = np.random.default_rng(5)
    blocks = [
        rng.random(shape) * scale
        for scale in (1.0, 1e-300, 1e300, 1e-310)  # the last is subnormal
        for shape in ((167, 6), (1000, 3), (2, 13))
    ]
    # and one block whose entries span subnormal to 1e300
    blocks.append(rng.random((500, 9)) * 10.0 ** rng.uniform(-320, 300, (500, 9)))
    for rows in blocks:
        rows[0] *= 1e3  # a running sum, then the measures added to it
        acc = rows[0].copy()
        for row in rows[1:]:
            acc += row
        assert np.array_equal(np.add.accumulate(rows, axis=0)[-1], acc)


@settings(max_examples=40, deadline=None)
@given(
    state=coin_states(),
    phi=st.one_of(st.just(0.0), st.floats(0, 1, exclude_max=True)),
    T=st.integers(1, 90),
    xmax=st.integers(0, 12),
)
def test_kernel_matches_step_loop_property(state, phi, T, xmax):
    # Every parity of the last step, block end and window width against one
    # walk.step loop, for evolve and time_average alike.
    params = WalkParams(phi=phi, alpha=complex(state[0]), beta=complex(state[1]))
    pad = max(T, xmax)
    states, sums = _step_reference(params, {T}, pad)
    got = walk.evolve(params, T)
    assert np.max(np.abs(got.amps - states[T].amps)) == 0.0
    mu = walk.time_average(params, T, xmax)
    expected = sums[T][pad - xmax : pad + xmax + 1] / T
    assert np.max(np.abs(mu.values - expected)) == 0.0


def test_kernel_matches_step_loop_with_subnormals():
    # From t ~ 2100 the outer amplitudes of the light cone are subnormal, so
    # the kernel multiplies subnormals, which the tests up to T = 999 never
    # do; T = 2300 also crosses about 70 runs of kernel passes.
    T = 2300
    params = _random_params(0.3, seed=23)
    states, sums = _step_reference(params, {T}, T)
    got = walk.evolve(params, T)
    floats = np.abs(got.amps.view(np.float64))
    assert np.any((floats > 0) & (floats < np.finfo(float).tiny))
    assert np.max(np.abs(got.amps - states[T].amps)) == 0.0
    for xmax in (0, 5, T):
        mu = walk.time_average(params, T, xmax)
        expected = sums[T][T - xmax : T + xmax + 1] / T
        assert np.max(np.abs(mu.values - expected)) == 0.0


@pytest.mark.parametrize("xmax", (0, 1, 2, 5, 40))
def test_light_cone_yields_each_pair_of_step_loop_windows(xmax):
    # _light_cone(params, n, xmax) yields one view per pass, of shape
    # (2, xmax + 1, 2): the windows at the times (t - 1, t), t odd, with the
    # sites x = 2 * (j - (xmax + 1) // 2) + t % 2 in column j and the
    # chiralities last.  An even n ends on one more pair whose odd row
    # repeats time n - 1, and the column at |x| = xmax + 1 may hold a stale
    # value, so both are skipped.  The n cross zero to three runs of kernel
    # passes and end at both parities.
    ns = (0, 1, 2, 31, 32, 33, 64, 65, 97)
    params = _random_params(0.6, seed=xmax + 29)
    states = [walk.initial_state(params)]
    while len(states) <= max(ns):
        states.append(walk.step(states[-1], params))
    for n in ns:
        pairs = [pair.copy() for pair in walk._light_cone(params, n, xmax)]
        assert len(pairs) == n // 2 + 1
        for i, pair in enumerate(pairs):
            assert pair.shape == (2, xmax + 1, 2)
            for t in range(2 * i, min(2 * i + 1, n) + 1):
                x = 2 * (np.arange(xmax + 1) - (xmax + 1) // 2) + t % 2
                inside = np.abs(x) <= xmax
                expected = np.reshape(
                    [states[t].amplitude(site) for site in x[inside]], (-1, 2)
                )
                assert np.array_equal(pair[t % 2][inside], expected), (n, t)


def test_time_average_wide_window_costs_the_light_cone():
    # A step loop never writes a site beyond |x| = T - 1, so its sums there
    # stay +0.0.  time_average runs the kernel on the window clipped to the
    # light cone and pads the result with zeros: the values equal the clipped
    # run padded, and the call holds little more than its result in memory.
    params = _random_params(0.3, seed=3)
    T, xmax = 3, 10**6
    clipped = walk.time_average(params, T, T - 1).values
    tracemalloc.start()
    try:
        mu = walk.time_average(params, T, xmax)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = np.zeros(2 * xmax + 1)
    expected[xmax - (T - 1) : xmax + T] = clipped
    assert mu.offset == -xmax
    assert np.array_equal(mu.values, expected)
    assert not np.any(np.signbit(mu.values))
    assert peak <= 2 * mu.values.nbytes


@pytest.mark.parametrize("xmax", (0, 1, 5, 40))
def test_time_average_block_edges(xmax):
    # A block holds T // (2*xmax + 2) + 1 (even, odd) step pairs once
    # T > xmax.  Every T up to 60 ends the last block at many offsets within
    # it; at xmax = 0 the one block is never full, and at xmax = 40 every
    # block is one pair and the window is wider than the light cone.  For
    # xmax = 5 a block has 2 * (T // 12 + 1) steps, more than T / 6, so T ends
    # on a whole block only at T = 2, 4, .., 12, 16, 20, 24, 30, 40, 50 and
    # 60, all in the range.  An odd T ends on a half pair: 61 = 12*5 + 1
    # with 11 of its 12 rows zeroed, and 71 = 12*5 + 11 and 299 = 50*5 + 49,
    # one step short of a whole 6-pair and 25-pair block.
    times = set(range(1, 61))
    if xmax == 5:
        times |= {61, 71, 299}
    params = _random_params(0.3, seed=xmax)
    pad = max(max(times), xmax)
    _, sums = _step_reference(params, times, pad)
    for T in sorted(times):
        mu = walk.time_average(params, T, xmax)
        expected = sums[T][pad - xmax : pad + xmax + 1] / T
        assert np.max(np.abs(mu.values - expected)) == 0.0


@pytest.mark.parametrize("xmax", (2, 3))
def test_time_average_parity_block_edges(xmax):
    # The window holds the sites with x + t even in compact columns: at
    # xmax = 2 three at even t and two at odd t, at xmax = 3 the reverse.
    # A block has T // (2*xmax + 2) + 1 (even, odd) step pairs.  T <= 60
    # ends the last block on a step of either parity at many offsets within
    # it; at T = 200 the last block ends on a whole pair (xmax = 2: 2 blocks
    # of 34 pairs and 32 pairs; xmax = 3: 3 blocks of 26 pairs and 22), at
    # T = 201 on a half pair (32 pairs and a half; 22 pairs and a half).
    times = set(range(1, 61)) | {200, 201}
    params = _random_params(0.7, seed=xmax)
    pad = max(times)
    _, sums = _step_reference(params, times, pad)
    for T in sorted(times):
        mu = walk.time_average(params, T, xmax)
        assert mu.offset == -xmax
        expected = sums[T][pad - xmax : pad + xmax + 1] / T
        assert np.max(np.abs(mu.values - expected)) == 0.0
