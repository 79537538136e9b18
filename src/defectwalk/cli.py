"""Command-line front end: simulations, closed-form tables, cross-validation
reports, and plot-ready CSV / JSON data.

Exit codes: 0 success, 2 usage error (bad flags, non-normalized state,
parameter out of domain), 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import limits, series, spectral, walk
from .walk import SQRT2, DomainError, WalkParams, _is_normalized

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
        norm = abs(alpha) ** 2 + abs(beta) ** 2
        if not _is_normalized(norm):
            if not args.normalize:
                raise DomainError(
                    f"state not normalized (|alpha|^2+|beta|^2 = {norm}); "
                    "pass --normalize to rescale"
                )
            if norm == 0.0:
                raise DomainError("cannot normalize the zero state")
            scale = math.sqrt(norm)
            alpha /= scale
            beta /= scale
        return alpha, beta
    if args.normalize:
        raise DomainError("--normalize applies only to an explicit --alpha/--beta state")
    eta = args.eta if args.eta is not None else 1
    return 1 / SQRT2, eta * 1j / SQRT2


def _sites(xmax: int) -> range:
    """Sites -xmax .. xmax of a table; a negative --xmax is a DomainError."""
    if xmax < 0:
        raise DomainError(f"--xmax must be >= 0, got {xmax}")
    return range(-xmax, xmax + 1)


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _add_state_flags(p):
    p.add_argument("--eta", type=int, choices=(1, -1), default=None,
                   help="symmetric preset state [1/sqrt2, eta*i/sqrt2]")
    p.add_argument("--alpha", default=None, help="initial left amplitude 're,im'")
    p.add_argument("--beta", default=None, help="initial right amplitude 're,im'")
    p.add_argument("--normalize", action="store_true",
                   help="rescale a non-normalized explicit state")


def _add_common(p):
    p.add_argument("--phi", required=True, help="defect phase, decimal or p/q")
    p.add_argument("--out", default=None, help="output file (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="defectwalk",
        description="One-defect Hadamard walk: simulation, limit measures, "
        "series, and spectral data.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="site probabilities after N steps")
    _add_common(p)
    _add_state_flags(p)
    p.add_argument("--steps", type=int, required=True)

    p = sub.add_parser("time-average", help="time-averaged measure up to T")
    _add_common(p)
    _add_state_flags(p)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--xmax", type=int, required=True)

    p = sub.add_parser("limit", help="closed-form time-averaged limit measure")
    _add_common(p)
    _add_state_flags(p)
    p.add_argument("--xmax", type=int, required=True)

    p = sub.add_parser("compare", help="simulation vs closed form")
    _add_common(p)
    _add_state_flags(p)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--xmax", type=int, required=True)

    p = sub.add_parser("spectrum", help="unit-circle singular points (JSON)")
    _add_common(p)
    _add_state_flags(p)

    p = sub.add_parser("series", help="exact rational series coefficients")
    p.add_argument("--what", required=True,
                   choices=("rstar", "sqrt1z4", "first-return"))
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("stationary", help="stationary measure profile")
    _add_common(p)
    p.add_argument("--branch", required=True, choices=("plus", "minus"))
    p.add_argument("--xmax", type=int, required=True)
    p.add_argument("--alpha-mod2", type=float, default=0.5,
                   help="|alpha|^2 of the profile (default 0.5)")

    sub.add_parser("verify", help="run the cross-validation suite")
    return ap


def cmd_simulate(args) -> int:
    alpha, beta = _resolve_state(args)
    params = WalkParams(phi=parse_phi(args.phi), alpha=alpha, beta=beta)
    state = walk.evolve(params, args.steps)
    lines = ["x,prob_L,prob_R,prob"]
    for i in range(len(state.amps)):
        x = state.offset + i
        pl = abs(state.amps[i, 0]) ** 2
        pr = abs(state.amps[i, 1]) ** 2
        lines.append(f"{x},{_fmt(pl)},{_fmt(pr)},{_fmt(pl + pr)}")
    _emit(lines, args.out)
    return 0


def cmd_time_average(args) -> int:
    alpha, beta = _resolve_state(args)
    params = WalkParams(phi=parse_phi(args.phi), alpha=alpha, beta=beta)
    mu = walk.time_average(params, args.T, args.xmax)
    lines = ["x,mu_bar_T"]
    for x in _sites(args.xmax):
        lines.append(f"{x},{_fmt(mu.at(x))}")
    _emit(lines, args.out)
    return 0


def cmd_limit(args) -> int:
    alpha, beta = _resolve_state(args)
    phi = parse_phi(args.phi)
    lines = ["x,mu_inf"]
    for x in _sites(args.xmax):
        lines.append(f"{x},{_fmt(limits.mu_inf(x, phi, alpha, beta))}")
    _emit(lines, args.out)
    return 0


def cmd_compare(args) -> int:
    alpha, beta = _resolve_state(args)
    phi = parse_phi(args.phi)
    params = WalkParams(phi=phi, alpha=alpha, beta=beta)
    mu = walk.time_average(params, args.T, args.xmax)
    lines = ["x,mu_bar_T,mu_inf,abs_err"]
    errs = []
    for x in _sites(args.xmax):
        sim = mu.at(x)
        exact = limits.mu_inf(x, phi, alpha, beta)
        errs.append(abs(sim - exact))
        lines.append(f"{x},{_fmt(sim)},{_fmt(exact)},{_fmt(errs[-1])}")
    # np.max, unlike max(), propagates a NaN row instead of dropping it
    lines.append(f"max_abs_err={_fmt(float(np.max(errs)))}")
    _emit(lines, args.out)
    return 0


def cmd_spectrum(args) -> int:
    alpha, beta = _resolve_state(args)
    phi = parse_phi(args.phi)
    pts = spectral.singular_points(phi)
    norms = spectral.residue_norms_origin(phi, alpha, beta)
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
    lines = ["x,mu_stationary"]
    for x in _sites(args.xmax):
        v = limits.stationary_measure(x, phi, args.alpha_mod2, args.branch)
        lines.append(f"{x},{_fmt(v)}")
    _emit(lines, args.out)
    return 0


def _verify_checks():
    """Yield (name, ok, detail) for the cross-validation suite."""
    params = WalkParams.preset(1, 0.3)
    state = walk.evolve(params, 400)
    drift = abs(state.norm_sq() - 1.0)
    yield "unitarity (phi=0.3, n=400)", drift <= 1e-9, f"|mass-1| = {drift:.2e}"

    mu = walk.measure(state)
    odd = max(
        (mu.values[i] for i in range(len(mu.values)) if (mu.offset + i + 400) % 2),
        default=0.0,
    )
    yield "parity (odd sites empty)", odd == 0.0, f"max odd-site mass = {odd:.2e}"

    hp = WalkParams.preset(1, 0.0)
    worst = 0.0
    st = walk.initial_state(hp)
    for n in range(1, 201):
        st = walk.step(st, hp)
        m = walk.measure(st)
        for x in range(1, n + 1):
            worst = max(worst, abs(m.at(x) - m.at(-x)))
    yield "homogeneous symmetry (n<=200)", worst <= 1e-12, f"max asym = {worst:.2e}"

    ok = True
    for n in range(1, 16):
        lhs = series.rstar(n)
        mid = series.rstar_series(n)[n]
        rhs = series.path_oracle_first_return(n) - (1 if n == 1 else 0)
        ok = ok and lhs == mid == rhs
    yield "series triple equivalence (n<=15)", ok, "exact rationals"

    worst = 0.0
    for phi in (0.125, 0.5):
        pr = WalkParams.preset(1, phi)
        renewal = series.psi_origin_sequence(60, pr)
        st = walk.initial_state(pr)
        for n in range(0, 61):
            if n > 0:
                st = walk.step(walk.step(st, pr), pr)
            worst = max(worst, np.max(np.abs(renewal[n] - st.amplitude(0))))
    yield "renewal vs evolution (n<=60)", worst <= 1e-10, f"max diff = {worst:.2e}"

    worst = 0.0
    wsum = 0.0
    for i in range(1, 11):
        phi = i / 11
        pts = spectral.singular_points(phi)
        for pt in pts:
            worst = max(worst, abs(spectral.big_lambda0(pt.z, phi)))
        a, b = 0.6 + 0j, 0.8j
        wsum = max(
            wsum,
            abs(
                sum(spectral.residue_norms_origin(phi, a, b))
                - limits.mu_inf_origin(phi, a, b)
            ),
        )
    yield "spectral closure (10-point grid)", worst <= 1e-10 and wsum <= 1e-12, (
        f"max |L0| = {worst:.2e}, max residue-sum gap = {wsum:.2e}"
    )

    ok = True
    for phi, branch in ((0.3, "plus"), (0.3, "minus"), (0.5, "plus")):
        rep = limits.compare_stationary_timeavg(phi, branch)
        ok = ok and rep.constant and abs(rep.ratio - rep.c_sq) <= 1e-12
    yield "stationary coincidence", ok, "ratio constant and equal to |c|^2"

    worst = 0.0
    for i in range(1, 11):
        phi = i / 11
        for eta in (1, -1):
            a, b = 1 / SQRT2, eta * 1j / SQRT2
            worst = max(
                worst,
                abs(limits.cgmv_limit_origin(phi, a, b) - limits.mu_inf_origin(phi, a, b)),
            )
    yield "CMV-form equality", worst <= 1e-14, f"max gap = {worst:.2e}"

    pr = WalkParams.preset(1, 0.5)
    mu = walk.time_average(pr, 2000, 5)
    worst = max(
        abs(mu.at(x) - limits.mu_inf(x, 0.5, pr.alpha, pr.beta)) for x in range(-5, 6)
    )
    yield "limit vs simulation (T=2000)", worst <= 2e-2, f"max gap = {worst:.2e}"


def cmd_verify(args) -> int:
    failures = 0
    for name, ok, detail in _verify_checks():
        tag = "ok" if ok else "FAIL"
        print(f"[{tag:4s}] {name}: {detail}")
        if not ok:
            failures += 1
    if failures:
        print(f"{failures} check(s) failed")
        return VERIFY_ERROR
    print("all checks passed")
    return 0


_DISPATCH = {
    "simulate": cmd_simulate,
    "time-average": cmd_time_average,
    "limit": cmd_limit,
    "compare": cmd_compare,
    "spectrum": cmd_spectrum,
    "series": cmd_series,
    "stationary": cmd_stationary,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
