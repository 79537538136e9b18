import math
from fractions import Fraction

import numpy as np
import pytest

from defectwalk import series, spectral, walk
from defectwalk.walk import DomainError, WalkParams


def _sqrt1z4_fractions(N):
    # sqrt(1 + z^4) through z^N from the integer ratios, indexed by the power
    out = [Fraction(0)] * (N + 1)
    out[::4] = [Fraction(num, den) for num, den in series._sqrt1z4_ratios(N)]
    return out


def test_sqrt1z4_low_coefficients():
    s = _sqrt1z4_fractions(12)
    assert s[0] == 1
    assert s[4] == Fraction(1, 2)
    assert s[8] == Fraction(-1, 8)
    assert all(s[n] == 0 for n in range(13) if n % 4 != 0)


def _sqrt1z4_fraction_reference(N):
    # the binomial recurrence in Fraction arithmetic, term by term
    out = [Fraction(0)] * (N + 1)
    c = Fraction(1)
    out[0] = c
    k = 1
    while 4 * k <= N:
        c = c * (Fraction(1, 2) - (k - 1)) / k
        out[4 * k] = c
        k += 1
    return out


def test_exact_series_match_fraction_recurrence():
    ref = _sqrt1z4_fraction_reference(2001)
    assert series.first_return_series(2000) == tuple(ref[1:])
    rstar_ref = ref[1:]
    rstar_ref[1] -= 1
    assert series.rstar_series(2000) == tuple(rstar_ref)


def test_renewal_coefficients_equal_rstar_floats():
    got = series._renewal_coefficients(1000)
    want = [float(series.rstar(2 * a - 1)) for a in range(1, 1001)]
    assert len(got) == 1000
    assert all(g == w for g, w in zip(got, want))


def _reciprocal_loop_reference(a):
    # 1/a(z) by the plain recurrence g_n = -sum_{k=1}^{n} a_k g_{n-k}
    g = np.zeros(len(a), dtype=complex)
    g[0] = 1.0
    for n in range(1, len(a)):
        g[n] = -np.dot(a[1 : n + 1], g[n - 1 :: -1])
    return g


def test_series_reciprocal_matches_loop_reference():
    # every length up to 71 crosses each doubling boundary; the error of a
    # coefficient is bounded relative to the largest coefficient so far,
    # since the reciprocal of a random series grows geometrically
    rng = np.random.default_rng(3)
    for N in list(range(71)) + [600]:
        a = 0.5 * (rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1))
        a[0] = 1.0
        got = series._series_reciprocal(a)
        ref = _reciprocal_loop_reference(a)
        assert len(got) == N + 1
        scale = np.maximum.accumulate(np.abs(ref))
        assert np.max(np.abs(got - ref) / scale) <= 1e-13


def _full_product_newton(a):
    # the reciprocal's Newton doubling as first written: each round forms the
    # whole product a[:m2] * g[:m] and keeps its terms m .. m2 - 1
    n = len(a)
    g = np.zeros(n, dtype=complex)
    g[:1] = 1.0
    m = 1
    while m < n:
        m2 = min(2 * m, n)
        err = np.convolve(a[:m2], g[:m])[m:m2]
        g[m:m2] = -np.convolve(g[: m2 - m], err)[: m2 - m]
        m = m2
    return g


def _l0_series(phi, N):
    # the at-origin L0 series that spectral.xi_tilde0_series inverts, in u = z^2
    n = N // 2 + 1
    s4 = np.zeros(n)
    s4[::2] = [num / den for num, den in series._sqrt1z4_ratios(N)]
    f = -s4 / math.sqrt(2)
    f[0] += 1 / math.sqrt(2)
    if n > 1:
        f[1] += 1 / math.sqrt(2)
    f = f.astype(complex)
    w = spectral._phase(phi)
    lam = -math.sqrt(2) * w * f + w * w * np.convolve(f, f)[:n]
    lam[0] += 1.0
    return lam


def test_series_reciprocal_equals_full_product_newton():
    # forming only the kept middle terms changes no bit of the reciprocal
    inputs = []
    for phi in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9):
        omega = WalkParams(phi=phi, alpha=1.0, beta=0.0).omega
        for N in (17, 120, 601, 2001):
            c = omega * series._renewal_coefficients(N) / 2.0
            for eta in (1, -1):
                inputs.append(np.concatenate(([1.0], (1 - eta * 1j) * c)))
            inputs.append(_l0_series(phi, 2 * N))
    rng = np.random.default_rng(5)
    for L in list(range(1, 72)) + [301, 601]:
        a = 0.5 * (rng.normal(size=L) + 1j * rng.normal(size=L))
        a[0] = 1.0
        inputs.append(a)
    for a in inputs:
        want = _full_product_newton(a)
        assert np.isfinite(want).all()
        assert np.array_equal(series._series_reciprocal(a), want)


def test_sqrt1z4_squares_back():
    n = 40
    s = _sqrt1z4_fractions(n)
    for k in range(n + 1):
        sq = sum(s[i] * s[k - i] for i in range(k + 1))  # Cauchy product
        expected = Fraction(1) if k in (0, 4) else Fraction(0)
        assert sq == expected


def test_rstar_reference_values():
    assert series.rstar(1) == -1
    assert series.rstar(3) == Fraction(1, 2)
    assert series.rstar(7) == Fraction(-1, 8)
    for n in (2, 4, 5, 6, 8, 9, 10):
        assert series.rstar(n) == 0


def test_rstar_rejects_nonpositive():
    # a float n once returned Fraction(0) or raised TypeError
    for n in (0, -3, math.nan, math.inf, 2.5, 3.0):
        with pytest.raises(DomainError, match="n must be"):
            series.rstar(n)
    assert series.rstar(np.int64(7)) == series.rstar(7)


def test_first_return_series_coefficients():
    fr = series.first_return_series(12)
    assert fr[3] == Fraction(1, 2)
    assert fr[7] == Fraction(-1, 8)
    assert fr[2] == 0
    assert all(fr[n] == 0 for n in range(13) if n % 4 != 3)


def test_series_edge_orders():
    assert series.rstar_series(0) == (Fraction(0),)
    assert series.first_return_series(0) == (Fraction(0),)
    for func in (series.rstar_series, series.first_return_series):
        for N in (-1, -2):
            with pytest.raises(DomainError, match=f"got {N}$"):
                func(N)

def test_half_line_mirror_is_negation():
    # the mirror half-line series (1 - sqrt(1+z^4))/z is minus the direct one
    fr = series.first_return_series(20)
    s4 = _sqrt1z4_fraction_reference(21)
    mirror = [Fraction(1 if k == 0 else 0) - s4[k] for k in range(22)]
    assert mirror[0] == 0  # divisible by z
    for n in range(21):
        assert mirror[n + 1] == -fr[n]


def test_path_oracle_basics():
    p, q, r, s = series.path_oracle_coefficients(1)
    assert (p, q, r, s) == (1, 0, 0, 0)
    assert series.path_oracle_first_return(3) == Fraction(1, 2)
    assert series.path_oracle_first_return(5) == 0
    assert series.path_oracle_first_return(7) == Fraction(-1, 8)


# Integer-scaled step matrices: sqrt(2) * P and sqrt(2) * Q.
_P2 = ((1, 1), (0, 0))
_Q2 = ((0, 0), (1, -1))


def _mat_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def _mat_add(a, b):
    return (
        (a[0][0] + b[0][0], a[0][1] + b[0][1]),
        (a[1][0] + b[1][0], a[1][1] + b[1][1]),
    )


def _coefficients(m, n):
    # (p, q, r, s) of sqrt(2)^n * Xi = m in the basis {P, Q, R, S}
    den = 2 ** ((n + 1) // 2)
    return (
        Fraction(m[0][0] + m[0][1], den),
        Fraction(m[1][0] - m[1][1], den),
        Fraction(m[0][0] - m[0][1], den),
        Fraction(m[1][0] + m[1][1], den),
    )


def _dfs_oracle(n):
    # reference: the depth-first walk over every admissible step sequence
    total = [((0, 0), (0, 0))]

    def walk_from(t, x, prod):
        if t == n:
            if x == 0:
                total[0] = _mat_add(total[0], prod)
            return
        if x - 1 >= 1 or (x - 1 == 0 and t + 1 == n):
            walk_from(t + 1, x - 1, _mat_mul(_P2, prod))
        if x + 1 <= n - (t + 1):
            walk_from(t + 1, x + 1, _mat_mul(_Q2, prod))

    walk_from(0, 1, ((1, 0), (0, 1)))
    return _coefficients(total[0], n)


def _matrix_product_oracle(n):
    # reference: the dynamic program over positions in whole 2x2 matrix
    # products, one product per admissible step
    layer = {1: ((1, 0), (0, 1))}
    for t in range(1, n + 1):
        nxt = {}
        for x, prod in layer.items():
            if x - 1 >= 1 or (x - 1 == 0 and t == n):
                left = _mat_mul(_P2, prod)
                nxt[x - 1] = _mat_add(nxt[x - 1], left) if x - 1 in nxt else left
            if x + 1 <= n - t:
                right = _mat_mul(_Q2, prod)
                nxt[x + 1] = _mat_add(nxt[x + 1], right) if x + 1 in nxt else right
        layer = nxt
    return _coefficients(layer[0], n)


def test_path_oracle_matches_dfs_reference():
    for n in range(1, 16, 2):
        assert series.path_oracle_coefficients(n) == _dfs_oracle(n)


def test_path_oracle_matches_matrix_product_dp():
    # all four coefficients, exactly, up to the largest supported order
    for n in list(range(1, 102, 2)) + [series.PATH_ORACLE_MAX_N]:
        assert series.path_oracle_coefficients(n) == _matrix_product_oracle(n)


def test_path_oracle_matches_first_return_series():
    fr = series.first_return_series(101)
    for n in range(1, 102):
        assert series.path_oracle_first_return(n) == fr[n]
    n = series.PATH_ORACLE_MAX_N
    assert series.path_oracle_first_return(n) == series.first_return_series(n)[n]


def test_path_oracle_q_s_vanish():
    for n in range(1, 102):
        _, q, _, s = series.path_oracle_coefficients(n)
        assert q == 0
        assert s == 0


def test_path_oracle_budget():
    with pytest.raises(DomainError):
        series.path_oracle_first_return(0)
    with pytest.raises(DomainError):
        series.path_oracle_first_return(series.PATH_ORACLE_MAX_N + 1)


def test_triple_equivalence():
    # closed form == generating function == path enumeration, exactly
    gf = series.rstar_series(19)
    for n in range(1, 20):
        from_paths = series.path_oracle_first_return(n)
        if n == 1:
            from_paths -= 1
        assert series.rstar(n) == gf[n] == from_paths


def test_renewal_matrix_eigenvectors():
    m = np.array([[-1, 1], [-1, -1]])
    for eta in (1, -1):
        v = np.array([1, eta * 1j])
        assert np.allclose(m @ v, (-1 + eta * 1j) * v, atol=0)


def test_psi_origin_rejects_negative_nmax():
    params = WalkParams(phi=0.3, alpha=0.6, beta=0.8j)
    with pytest.raises(DomainError, match="nmax must be >= 0, got -1$"):
        series.psi_origin_sequence(-1, params)


def test_psi_origin_time_zero():
    # the n = 0 amplitude is the initial state itself, not a sum over branches
    for phi, v in zip((0.3, 0.5, 0.9), _random_states(3, seed=5)):
        params = WalkParams(phi=phi, alpha=complex(v[0]), beta=complex(v[1]))
        for nmax in (0, 1, 40):
            psi0 = series.psi_origin_sequence(nmax, params)[0]
            assert psi0[0] == params.alpha and psi0[1] == params.beta


def test_psi_origin_first_epoch_closed_form():
    params = WalkParams.preset(1, 0.3)
    omega = params.omega
    expected = (1 / math.sqrt(2)) * (-1) * (omega * (-1 + 1j) / 2) * np.array([1, 1j])
    psi = series.psi_origin_sequence(1, params)[1]
    assert np.allclose(psi, expected, atol=1e-14)
    assert np.allclose(psi, walk.evolve(params, 2).amplitude(0), atol=1e-14)


def test_psi_origin_matches_four_step_evolution():
    params = WalkParams(phi=0.62, alpha=0.28 + 0.45j, beta=complex(math.sqrt(1 - 0.28**2 - 0.45**2)))
    assert np.allclose(
        series.psi_origin_sequence(2, params)[2],
        walk.evolve(params, 4).amplitude(0),
        atol=1e-12,
    )


def _random_states(count, seed=7):
    rng = np.random.default_rng(seed)
    vs = rng.normal(size=(count, 2)) + 1j * rng.normal(size=(count, 2))
    return vs / np.linalg.norm(vs, axis=1, keepdims=True)


def test_renewal_matches_evolution_across_grid():
    worst = 0.0
    for phi in (0.125, 1 / 3, 0.5, 0.9):
        for v in _random_states(5):
            params = WalkParams(phi=phi, alpha=complex(v[0]), beta=complex(v[1]))
            renewal = series.psi_origin_sequence(100, params)
            state = walk.initial_state(params)
            for n in range(0, 101):
                if n > 0:
                    state = walk.step(state, params)
                    state = walk.step(state, params)
                d = np.max(np.abs(renewal[n] - state.amplitude(0)))
                worst = max(worst, d)
    assert worst <= 1e-10


def _psi_loop_reference(nmax, params):
    # the renewal convolution as a plain double loop over 2-vectors
    coeff = [params.omega * float(series.rstar(2 * a - 1)) / 2.0 for a in range(1, nmax + 1)]
    vecs = [np.array([params.alpha, params.beta], dtype=complex)]
    m = np.array([[-1.0, 1.0], [-1.0, -1.0]], dtype=complex)
    for k in range(1, nmax + 1):
        acc = np.zeros(2, dtype=complex)
        for a in range(1, k + 1):
            acc += coeff[a - 1] * vecs[k - a]
        vecs.append(m @ acc)
    return vecs


def test_psi_origin_matches_loop_reference():
    worst = 0.0
    for phi, v in zip((0.0, 0.1, 0.3, 0.5, 0.9), _random_states(5, seed=11)):
        params = WalkParams(phi=phi, alpha=complex(v[0]), beta=complex(v[1]))
        for nmax in (0, 1, 2, 50, 300):
            got = series.psi_origin_sequence(nmax, params)
            ref = _psi_loop_reference(nmax, params)
            assert len(got) == nmax + 1
            worst = max(worst, float(np.max(np.abs(np.asarray(got) - np.asarray(ref)))))
    assert worst <= 1e-13

