"""Command-line front end: simulations, closed-form tables, cross-validation
reports, and plot-ready CSV / JSON data.

Exit codes: 0 success, 2 usage error (bad flags, non-normalized state,
parameter out of domain, unwritable --out), 3 verification failure (a failed
``verify`` record, or a failed internal check such as the singular-point gate).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import limits, series, spectral, walk
from .walk import SQRT2, DomainError, WalkParams, _is_normalized, _norm_sq

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
    except (ValueError, ZeroDivisionError) as exc:
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


def _resolve_state(args) -> tuple:
    """(alpha, beta) from --eta or --alpha/--beta flags."""
    if args.alpha is not None or args.beta is not None:
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
    if args.normalize:
        raise DomainError("--normalize applies only to an explicit --alpha/--beta state")
    eta = args.eta if args.eta is not None else 1
    return 1 / SQRT2, eta * 1j / SQRT2


def _params(args) -> WalkParams:
    """WalkParams from --phi and the state flags of a walk command."""
    alpha, beta = _resolve_state(args)
    return WalkParams(phi=parse_phi(args.phi), alpha=alpha, beta=beta)


def _sites(xmax: int) -> range:
    """Sites -xmax .. xmax of a table; a negative --xmax is a DomainError."""
    if xmax < 0:
        raise DomainError(f"--xmax must be >= 0, got {xmax}")
    return range(-xmax, xmax + 1)


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


def build_parser() -> argparse.ArgumentParser:
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
    mu = walk.time_average(_params(args), args.T, args.xmax)
    sites = _sites(args.xmax)
    _emit_table("x,mu_bar_T", sites, [[mu.at(x) for x in sites]], args.out)
    return 0


def cmd_limit(args) -> int:
    sites = _sites(args.xmax)
    p = _params(args)
    exact = [limits.mu_inf(x, p.phi, p.alpha, p.beta) for x in sites]
    _emit_table("x,mu_inf", sites, [exact], args.out)
    return 0


def cmd_compare(args) -> int:
    p = _params(args)
    mu = walk.time_average(p, args.T, args.xmax)
    sites = _sites(args.xmax)
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
    norms = spectral.residue_norms_origin(p.phi, p.alpha, p.beta)
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


def cmd_series(args) -> int:
    if args.order < 0:
        raise DomainError("--order must be >= 0")
    lines = ["n,numerator,denominator"]
    if args.what == "rstar":
        for n in range(1, args.order + 1):
            v = series.rstar(n)
            lines.append(f"{n},{v.numerator},{v.denominator}")
    elif args.what == "sqrt1z4":
        ps = series.sqrt1z4_series(args.order)
        for n in range(args.order + 1):
            v = ps[n]
            lines.append(f"{n},{v.numerator},{v.denominator}")
    else:
        ps = series.first_return_series(args.order)
        for n in range(1, args.order + 1):
            v = ps[n]
            lines.append(f"{n},{v.numerator},{v.denominator}")
    _emit(lines, args.out)
    return 0


def cmd_stationary(args) -> int:
    phi = parse_phi(args.phi)
    sites = _sites(args.xmax)
    prof = [limits.stationary_measure(x, phi, args.alpha_mod2, args.branch)
            for x in sites]
    _emit_table("x,mu_stationary", sites, [prof], args.out)
    return 0


def _verify_checks():
    """Yield (name, value, bound) records; ``cmd_verify`` passes a record iff
    value <= bound.  Each value is an ``np.max`` over the check's gaps, so a
    NaN gap makes its record fail."""
    params = WalkParams.preset(1, 0.3)
    state = walk.evolve(params, 400)
    yield "unitarity (phi=0.3, n=400)", abs(state.norm_sq() - 1.0), 1e-9

    mu = walk.measure(state)
    odd = (mu.offset + np.arange(len(mu.values)) + 400) % 2 == 1
    yield "parity (odd sites empty)", np.max(mu.values[odd]), 0.0

    hp = WalkParams.preset(1, 0.0)
    asym = []
    st = walk.initial_state(hp)
    for n in range(1, 201):
        st = walk.step(st, hp)
        m = walk.measure(st)  # support -n .. n, so values[::-1] is mu(-x)
        asym.append(np.max(np.abs(m.values - m.values[::-1])))
    yield "homogeneous symmetry (n<=200)", np.max(asym), 1e-12

    mismatches = sum(
        not (series.rstar(n) == series.rstar_series(n)[n]
             == series.path_oracle_first_return(n) - (1 if n == 1 else 0))
        for n in range(1, 16)
    )
    yield "series triple equivalence (n<=15)", mismatches, 0

    gaps = []
    for phi in (0.125, 0.5):
        pr = WalkParams.preset(1, phi)
        renewal = series.psi_origin_sequence(60, pr)
        st = walk.initial_state(pr)
        for n in range(0, 61):
            if n > 0:
                st = walk.step(walk.step(st, pr), pr)
            gaps.append(np.max(np.abs(renewal[n] - st.amplitude(0))))
    yield "renewal vs evolution (n<=60)", np.max(gaps), 1e-10

    l0, wsum = [], []
    a, b = 0.6 + 0j, 0.8j
    for i in range(1, 11):
        phi = i / 11
        l0 += [abs(spectral.big_lambda0(pt.z, phi))
               for pt in spectral.singular_points(phi)]
        wsum.append(abs(sum(spectral.residue_norms_origin(phi, a, b))
                        - limits.mu_inf_origin(phi, a, b)))
    yield "spectral closure |L0| (10-point grid)", np.max(l0), 1e-10
    yield "spectral closure residue-sum gap (10-point grid)", np.max(wsum), 1e-12

    devs = []
    for phi, branch in ((0.3, "plus"), (0.3, "minus"), (0.5, "plus")):
        rep = limits.compare_stationary_timeavg(phi, branch)
        devs += [rep.max_deviation, abs(rep.ratio - rep.c_sq)]
    yield "stationary coincidence", np.max(devs), 1e-12

    gaps = []
    for i in range(1, 11):
        phi = i / 11
        for eta in (1, -1):
            a, b = 1 / SQRT2, eta * 1j / SQRT2
            gaps.append(abs(limits.cgmv_limit_origin(phi, a, b)
                            - limits.mu_inf_origin(phi, a, b)))
    yield "CMV-form equality", np.max(gaps), 1e-14

    pr = WalkParams.preset(1, 0.5)
    mu = walk.time_average(pr, 2000, 5)
    gaps = [abs(mu.at(x) - limits.mu_inf(x, 0.5, pr.alpha, pr.beta))
            for x in range(-5, 6)]
    yield "limit vs simulation (T=2000)", np.max(gaps), 2e-2


def cmd_verify(args) -> int:
    failures = 0
    for name, value, bound in _verify_checks():
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
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ArithmeticError as exc:  # a check of the program's own results failed
        print(f"error: {exc}", file=sys.stderr)
        return VERIFY_ERROR


if __name__ == "__main__":
    sys.exit(main())
