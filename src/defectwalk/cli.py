"""Command-line front end: simulations, closed-form tables, cross-validation
reports, and plot-ready CSV / JSON data.

Exit codes: 0 success, 2 usage error (bad flags, non-normalized state,
parameter out of domain, unwritable --out), 3 verification failure (a failed
``verify`` record, or a failed internal check such as the singular-point gate).
"""

from __future__ import annotations

import argparse
import cmath
import functools
import itertools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import limits, series, spectral, walk
from .walk import DomainError, WalkParams, _index, _is_normalized, _norm_sq

USAGE_ERROR = 2
VERIFY_ERROR = 3


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def parse_phi(token: str) -> float:
    """phi as a decimal or an exact `p/q` token."""
    try:
        if "/" in token:
            return float(Fraction(token))
        return float(token)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise DomainError(f"cannot parse phi {token!r}") from exc


def _parse_complex(token: str, name: str) -> complex:
    parts = token.split(",")
    if len(parts) != 2:
        raise DomainError(f"{name} must be 're,im', got {token!r}")
    try:
        re, im = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise DomainError(f"cannot parse {name} {token!r}") from exc
    if not (math.isfinite(re) and math.isfinite(im)):
        raise DomainError(f"{name} must be finite, got {token!r}")
    return complex(re, im)


def _explicit_state(args) -> tuple:
    """(alpha, beta) from the --alpha/--beta flags."""
    if args.eta is not None:
        raise DomainError("--eta cannot be combined with --alpha/--beta")
    if args.alpha is None or args.beta is None:
        raise DomainError("--alpha and --beta must be given together")
    alpha = _parse_complex(args.alpha, "alpha")
    beta = _parse_complex(args.beta, "beta")
    norm = _norm_sq(alpha, beta)
    if not _is_normalized(norm):
        if not args.normalize:
            raise DomainError(
                f"state not normalized (|alpha|^2+|beta|^2 = {norm}); "
                "pass --normalize to rescale"
            )
        # dividing by the largest part first keeps the norm from
        # overflowing or underflowing
        big = max(abs(alpha.real), abs(alpha.imag), abs(beta.real), abs(beta.imag))
        if big == 0.0:
            raise DomainError("cannot normalize the zero state")
        alpha /= big
        beta /= big
        scale = math.sqrt(_norm_sq(alpha, beta))
        alpha /= scale
        beta /= scale
    return alpha, beta


def _params(args) -> WalkParams:
    """WalkParams from --phi and the state flags of a walk command: an
    explicit --alpha/--beta state, or else the ``WalkParams.preset`` state of
    --eta (default 1).  A bad state is reported before a bad --phi."""
    if args.alpha is not None or args.beta is not None:
        alpha, beta = _explicit_state(args)
        return WalkParams(phi=parse_phi(args.phi), alpha=alpha, beta=beta)
    if args.normalize:
        raise DomainError("--normalize applies only to an explicit --alpha/--beta state")
    return WalkParams.preset(1 if args.eta is None else args.eta, parse_phi(args.phi))


def _sites(xmax: int) -> range:
    """Sites -xmax .. xmax of a table."""
    return range(-xmax, xmax + 1)


# the least value of each integer flag, which ``main`` checks before the
# command runs, so an error names the flag rather than a library parameter
_INT_FLAG_LEAST = {"steps": 0, "T": 1, "xmax": 0}


def _check_int_flags(args) -> None:
    for name, least in _INT_FLAG_LEAST.items():
        # least where the command lacks the flag
        _index(getattr(args, name, least), f"--{name}", least)


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write --out {out_path!r}: {exc.strerror}") from exc


def _emit_table(header, sites, columns, out_path, extra=()):
    """CSV of one row per site: x, then the site's entry of each column."""
    rows = (
        ",".join([str(x)] + [_fmt(col[i]) for col in columns])
        for i, x in enumerate(sites)
    )
    _emit([header, *rows, *extra], out_path)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and kept for the process.

    It holds no per-call state: ``parse_args`` returns a fresh Namespace on
    every call, so ``main`` can reuse it.
    """
    ap = argparse.ArgumentParser(
        prog="defectwalk",
        description="One-defect Hadamard walk: simulation, limit measures, "
        "series, and spectral data.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    for name, help_text, int_flags, func in (
        ("simulate", "site probabilities after N steps", ("--steps",), cmd_simulate),
        ("time-average", "time-averaged measure up to T", ("--T", "--xmax"),
         cmd_time_average),
        ("limit", "closed-form time-averaged limit measure", ("--xmax",), cmd_limit),
        ("compare", "simulation vs closed form", ("--T", "--xmax"), cmd_compare),
        ("spectrum", "unit-circle singular points (JSON)", (), cmd_spectrum),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--phi", required=True, help="defect phase, decimal or p/q")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--eta", type=int, choices=(1, -1), default=None,
                       help="symmetric preset state [1/sqrt2, eta*i/sqrt2]")
        p.add_argument("--alpha", default=None, help="initial left amplitude 're,im'")
        p.add_argument("--beta", default=None, help="initial right amplitude 're,im'")
        p.add_argument("--normalize", action="store_true",
                       help="rescale a non-normalized explicit state")
        for flag in int_flags:
            p.add_argument(flag, type=int, required=True)

    p = sub.add_parser("series", help="exact rational series coefficients")
    p.set_defaults(func=cmd_series)
    p.add_argument("--what", required=True,
                   choices=("rstar", "sqrt1z4", "first-return"))
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("stationary", help="stationary measure profile")
    p.set_defaults(func=cmd_stationary)
    p.add_argument("--phi", required=True, help="defect phase, decimal or p/q")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--branch", required=True, choices=("plus", "minus"))
    p.add_argument("--xmax", type=int, required=True)
    p.add_argument("--alpha-mod2", type=float, default=0.5,
                   help="|alpha|^2 of the profile (default 0.5)")

    p = sub.add_parser("verify", help="run the cross-validation suite")
    p.set_defaults(func=cmd_verify)
    return ap


def cmd_simulate(args) -> int:
    state = walk.evolve(_params(args), args.steps)
    # scalar abs(a) ** 2: np.abs on the array can differ in the last bit
    pl = [abs(a) ** 2 for a in state.amps[:, 0]]
    pr = [abs(a) ** 2 for a in state.amps[:, 1]]
    sites = range(state.offset, state.offset + len(state.amps))
    _emit_table("x,prob_L,prob_R,prob", sites,
                [pl, pr, [l + r for l, r in zip(pl, pr)]], args.out)
    return 0


def cmd_time_average(args) -> int:
    sites = _sites(args.xmax)
    mu = walk.time_average(_params(args), args.T, args.xmax)
    _emit_table("x,mu_bar_T", sites, [[mu.at(x) for x in sites]], args.out)
    return 0


def cmd_limit(args) -> int:
    sites = _sites(args.xmax)
    p = _params(args)
    exact = [limits.mu_inf(x, p.phi, p.alpha, p.beta) for x in sites]
    _emit_table("x,mu_inf", sites, [exact], args.out)
    return 0


def cmd_compare(args) -> int:
    sites = _sites(args.xmax)
    p = _params(args)
    mu = walk.time_average(p, args.T, args.xmax)
    sim = [mu.at(x) for x in sites]
    exact = [limits.mu_inf(x, p.phi, p.alpha, p.beta) for x in sites]
    errs = [abs(s - e) for s, e in zip(sim, exact)]
    # np.max, unlike max(), propagates a NaN row instead of dropping it
    _emit_table("x,mu_bar_T,mu_inf,abs_err", sites, [sim, exact, errs], args.out,
                [f"max_abs_err={_fmt(float(np.max(errs)))}"])
    return 0


def cmd_spectrum(args) -> int:
    p = _params(args)
    pts = spectral.singular_points(p.phi)
    norms = spectral.residue_norms(pts, p.alpha, p.beta)
    payload = [
        {
            "branch": pt.branch,
            "lambda_sq": pt.lambda_sq,
            "residue_norm": norm,
            "residue_prefactor": pt.residue_prefactor,
            "theta_s": pt.theta_s,
        }
        for pt, norm in zip(pts, norms)
    ]
    _emit([json.dumps(payload, sort_keys=True, indent=2)], args.out)
    return 0


def _ratio_rows(first: int, last: int, nonzero) -> list:
    """Rows "n,numerator,denominator" for n = first .. last, zero except at
    the (n, (num, den)) pairs of ``nonzero``.  Each ratio has num != 0 and a
    power of two den > 0, so its gcd is the common low zero bits: the row
    is reduced by one shift, as Fraction would reduce it."""
    lines = [f"{n},0,1" for n in range(first, last + 1)]
    for n, (num, den) in nonzero:
        v = min((num & -num).bit_length(), den.bit_length()) - 1
        lines[n - first] = f"{n},{num >> v},{den >> v}"
    return lines


@functools.cache
def _last_printable_order(what: str, digits: int):
    """The largest --order whose table prints under an int -> str limit of
    ``digits`` (0: no limit, so None).  Row 4m - 1 (4m for sqrt1z4) holds the
    largest integer yet, 2^(2m - popcount(m)) reduced, as Cat_{m-1} has
    popcount(m) - 1 factors of two; the exponent rises with m."""
    most = (10 ** digits).bit_length() - 1  # the largest e with 2^e < 10^digits
    m = next(m for m in itertools.count(most // 2) if 2 * m - m.bit_count() > most)
    return 4 * m - 2 + (what == "sqrt1z4") if digits else None  # the row before m's


def cmd_series(args) -> int:
    """Print one exact table; all three read ``series._rstar_ratios``.

    r*_{4m-1} is the first-return coefficient of z^(4m-1) and the
    sqrt(1 + z^4) one of z^(4m).  Every other coefficient is zero, except
    z^0 = 1 of sqrt(1 + z^4) and r*_1 = -1.  An --order past the last
    printable one is a ``DomainError``.
    """
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # none before 3.10.7
    order = _index(args.order, "--order", 0, _last_printable_order(args.what, digits))
    shift = 1 if args.what == "sqrt1z4" else 0
    nonzero = [(4 * m - 1 + shift, r)
               for m, r in enumerate(series._rstar_ratios((order + 1 - shift) // 4), 1)]
    if shift:
        nonzero.append((0, (1, 1)))
    elif args.what == "rstar" and order >= 1:
        nonzero.append((1, (-1, 1)))
    rows = _ratio_rows(1 - shift, order, nonzero)
    _emit(["n,numerator,denominator", *rows], args.out)
    return 0


def cmd_stationary(args) -> int:
    phi = parse_phi(args.phi)
    sites = _sites(args.xmax)
    prof = [limits.stationary_measure(x, phi, args.alpha_mod2, args.branch)
            for x in sites]
    _emit_table("x,mu_stationary", sites, [prof], args.out)
    return 0


def _steps(phi: float, n: int):
    """States at t = 0 .. n of a ``walk.step`` loop from the eta = 1 preset."""
    params = WalkParams.preset(1, phi)
    yield (state := walk.initial_state(params))
    for _ in range(n):
        yield (state := walk.step(state, params))


def _check_renewal():
    gaps = []
    for phi in (0.125, 0.5):
        renewal = series.psi_origin_sequence(60, WalkParams.preset(1, phi))
        evolved = itertools.islice(_steps(phi, 120), 0, None, 2)  # t = 0, 2, .., 120
        gaps += [np.max(np.abs(r - st.amplitude(0)))
                 for r, st in zip(renewal, evolved, strict=True)]
    return gaps


def _check_kernel_vs_steps():
    """Gaps of ``evolve`` and ``time_average`` (the light-cone kernel) from a
    ``walk.step`` loop, which they reproduce bit for bit.  The kernel returns
    inside its loop for odd n and after it for even n, so each function is
    checked at both: ``time_average`` at T = 200 and 201 (n = 199, 200),
    ``evolve`` at n = 199 and 200."""
    T, xmax = 200, 5
    gaps = []
    for phi in (0.125, 0.5):
        states = list(_steps(phi, T))  # times 0 .. T
        amps = np.zeros((T + 1, 2 * xmax + 1, 2), dtype=complex)  # |x| <= xmax
        for t, st in enumerate(states):
            k = min(t, xmax)
            amps[t, xmax - k : xmax + k + 1] = st.amps[t - k : t + k + 1]
        # ``walk.measure`` of every window at once, summed in time order
        mu = np.sum(np.abs(amps) ** 2, axis=2)
        sums = np.add.accumulate(mu, axis=0)  # sums[t]: times 0 .. t
        p = WalkParams.preset(1, phi)
        for n in (T - 1, T):
            mean = sums[n] / (n + 1)
            gaps.append(np.max(np.abs(walk.time_average(p, n + 1, xmax).values - mean)))
            gaps.append(np.max(np.abs(walk.evolve(p, n).amps - states[n].amps)))
    return gaps


def _check_limit_vs_simulation():
    pr = WalkParams.preset(1, 0.5)
    mu = walk.time_average(pr, 2000, 5)
    return [abs(mu.at(x) - limits.mu_inf(x, 0.5, pr.alpha, pr.beta))
            for x in range(-5, 6)]


_GRID = [i / 11 for i in range(1, 11)]
_STATE = (0.6 + 0j, 0.8j)  # not branch-pure (beta != +-i alpha): both families weigh in


def _check_asymptotic():
    """Gaps of ``asymptotic_psi_origin`` from the renewal origin amplitudes at
    times 2n, n = 800 .. 900, for ``_STATE`` and the eta = 1 preset on the
    10-point grid: the closed-form family phases against the renewal route."""
    gaps = []
    for phi in _GRID:
        for p in (WalkParams(phi, *_STATE), WalkParams.preset(1, phi)):
            renewal = series.psi_origin_sequence(900, p)
            for n in range(800, 901):
                re_l, im_l, re_r, im_r = limits.asymptotic_psi_origin(
                    n, phi, p.alpha, p.beta)
                psi_l, psi_r = renewal[n]
                gaps += [abs(psi_l - complex(re_l, im_l)),
                         abs(psi_r - complex(re_r, im_r))]
    return gaps


def _check_resolvent():
    """Gaps of the resolvent series' z^(2n) coefficients applied to the state
    from the renewal origin amplitudes, n <= 300, for ``_STATE`` and the
    eta = 1 preset on the 10-point grid: L0's two factors inverted by their
    geometric recurrences against the renewal equation."""
    gaps = []
    for phi in _GRID:
        xi = spectral.xi_tilde0_series(phi, 600)[::2]
        for p in (WalkParams(phi, *_STATE), WalkParams.preset(1, phi)):
            renewal = series.psi_origin_sequence(300, p)
            gaps.append(np.max(np.abs(xi @ (p.alpha, p.beta) - renewal)))
    return gaps


# (name, bound, check): ``cmd_verify`` passes a record iff np.max of the
# check's gaps is <= bound, so a NaN gap fails it.  No check reads another
# row's state, so each row runs on its own.
VERIFY_CHECKS = (
    ("unitarity (phi=0.3, n=400)", 1e-9,
     lambda: abs(walk.evolve(WalkParams.preset(1, 0.3), 400).norm_sq() - 1.0)),
    # one step at a time through the defect: sites with x + t odd stay empty
    ("parity (odd sites empty)", 0.0,
     lambda: [np.max(walk.measure(st).values[(st.offset + t + 1) % 2::2], initial=0.0)
              for phi in (0.125, 0.5) for t, st in enumerate(_steps(phi, 120))]),
    # support -n .. n, so values[::-1] is mu(-x)
    ("homogeneous symmetry (n<=200)", 1e-12,
     lambda: [np.max(np.abs(m.values - m.values[::-1]))
              for m in map(walk.measure, _steps(0.0, 200))]),
    ("series triple equivalence (n<=15)", 0,
     lambda: sum(not (series.rstar(n) == series.rstar_series(n)[n]
                      == series.path_oracle_first_return(n) - (1 if n == 1 else 0))
                 for n in range(1, 16))),
    ("renewal vs evolution (n<=60)", 1e-10, _check_renewal),
    ("spectral closure |L0| (10-point grid)", 1e-10,
     lambda: [abs(spectral.big_lambda0(pt.z, phi))
              for phi in _GRID for pt in spectral.singular_points(phi)]),
    # each stored z, an antipode's -z+ too, against its own angle
    ("singular points at e^(i theta_s) (10-point grid)", 1e-15,
     lambda: [abs(pt.z - cmath.exp(1j * pt.theta_s))
              for phi in _GRID for pt in spectral.singular_points(phi)]),
    ("spectral closure residue-sum gap (10-point grid)", 1e-12,
     lambda: [abs(sum(spectral.residue_norms(spectral.singular_points(phi), *_STATE))
                  - limits.mu_inf_origin(phi, *_STATE))
              for phi in _GRID]),
    ("stationary coincidence", 1e-12,
     lambda: [limits.compare_stationary_timeavg(phi, branch)
              for phi, branch in ((0.3, "plus"), (0.3, "minus"), (0.5, "plus"))]),
    ("CMV-form equality", 1e-14,
     lambda: [abs(limits.cgmv_limit_origin(phi, p.alpha, p.beta)
                  - limits.mu_inf_origin(phi, p.alpha, p.beta))
              for phi in _GRID
              for p in (WalkParams.preset(1, phi), WalkParams.preset(-1, phi))]),
    ("kernel vs step loop (T=199..201)", 0.0, _check_kernel_vs_steps),
    ("limit vs simulation (T=2000)", 2e-2, _check_limit_vs_simulation),
    # 4.3e-4 measured, at phi = 3/11, the grid point nearest 1/4 (at most
    # 6.5e-5 at the other nine): a 2.3x margin
    ("asymptotic vs renewal (n=800..900)", 1e-3, _check_asymptotic),
    # 4.2e-14 measured, at phi = 10/11 for the preset, most of it the renewal
    # route's own rounding: a 24x margin
    ("resolvent series vs renewal (N=600, 10-point grid)", 1e-12, _check_resolvent),
)


def cmd_verify(args) -> int:
    failures = 0
    for name, bound, check in VERIFY_CHECKS:
        value = np.max(check())
        ok = value <= bound  # False for a NaN value
        failures += not ok
        tag = "ok" if ok else "FAIL"
        print(f"[{tag:4s}] {name} = {value:.2e} (bound {bound:.0e})")
    if failures:
        print(f"{failures} check(s) failed")
        return VERIFY_ERROR
    print("all checks passed")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_int_flags(args)
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ArithmeticError as exc:  # a check of the program's own results failed
        print(f"error: {exc}", file=sys.stderr)
        return VERIFY_ERROR


if __name__ == "__main__":
    sys.exit(main())
