"""The three benchmark workloads.

Each workload builds one pass: a list of ``Item``s made from a seeded
``random.Random``.  ``Item.run`` makes every call into defectwalk the item
needs, the route under test and its independent reference alike, and is the
part that is timed.  ``Item.check`` compares the two afterwards, untimed, and
returns ``(err, misses)``: the item's headline error and a list of the
tolerances it missed.  The program receives only the generated phi and
state values.

Module attributes are looked up when an item runs, so a tracer or a test
that patches a defectwalk function sees every call the item makes.

Sizes are chosen so that every timed call lasts tens of milliseconds or
less.  Passes are short, so
that each item runs many times.  On a shared machine the fastest of many
runs of a short call finds a quiet moment in every run of the benchmark.  A
call that lasts half a second rarely does, and its fastest run then follows
the load of the other tenants.

Tolerances are the repository's own: 1e-2 for the Cesaro average
(acceptance test 03 applies it at T=5000; at T=1000 the error stays below
4e-3 over 60 seeded cases), 1e-10 and exact rational equality for the renewal
series (acceptance tests 02 and 05), 1e-12 for the residue-sum gap and for
``total_point_mass <= 1`` (acceptance test 04, test_limits), 1e-14 for the
CMV spelling (acceptance test 08).
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

CESARO_TOL = 1e-2
RENEWAL_TOL = 1e-10
RESIDUE_TOL = 1e-12
MASS_TOL = 1e-12
CMV_TOL = 1e-14

# Open localization regions of phi: eps_plus only, both families, eps_minus only.
REGIONS = ((0.0, 0.25), (0.25, 0.75), (0.75, 1.0))


@dataclass
class Item:
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple]


def random_state(rng):
    """Normalized complex coin state (alpha, beta) with Gaussian components."""
    a = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
    b = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return a / norm, b / norm


def open_uniform(rng, lo, hi):
    """Uniform draw from the open interval (lo, hi)."""
    while True:
        x = rng.uniform(lo, hi)
        if lo < x < hi:
            return x


def run_cli(dw, argv):
    """``defectwalk <argv>`` in-process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dw.cli.main(argv)
    return code, out.getvalue()


def _state_flags(alpha, beta):
    # The '=' form keeps a leading minus sign from reading as a flag.
    return [f"--alpha={alpha.real!r},{alpha.imag!r}",
            f"--beta={beta.real!r},{beta.imag!r}"]


# -- cesaro ----------------------------------------------------------------

def cesaro(dw, rng, T=1000, xmax=5, per_region=1):
    """``defectwalk compare --T 1000 --xmax 5`` for ``per_region`` cases in
    each localization region, against ``mu_inf``."""
    items = []
    for lo, hi in REGIONS:
        for _ in range(per_region):
            phi = open_uniform(rng, lo, hi)
            alpha, beta = random_state(rng)
            items.append(_cesaro_item(dw, phi, alpha, beta, T, xmax))
    return items


def _cesaro_item(dw, phi, alpha, beta, T, xmax):
    argv = ["compare", f"--phi={phi!r}", *_state_flags(alpha, beta),
            "--T", str(T), "--xmax", str(xmax)]
    sites = range(-xmax, xmax + 1)

    def run():
        code, text = run_cli(dw, argv)
        ref = [dw.limits.mu_inf(x, phi, alpha, beta) for x in sites]
        return code, text, ref

    def check(out):
        code, text, ref = out
        if code != 0:
            return math.inf, [f"exit code {code}"]
        lines = text.splitlines()
        if (len(lines) != len(sites) + 2 or lines[0] != "x,mu_bar_T,mu_inf,abs_err"
                or not lines[-1].startswith("max_abs_err=")):
            return math.inf, ["malformed compare output"]
        err = 0.0
        for x, line, exact in zip(sites, lines[1:], ref):
            fields = line.split(",")
            if int(fields[0]) != x:
                return math.inf, [f"row for x={fields[0]}, expected {x}"]
            err = max(err, abs(float(fields[1]) - exact))
        misses = []
        if not err <= CESARO_TOL:
            misses.append(f"max |mu_bar_T - mu_inf| = {err:.3e} > {CESARO_TOL}")
        reported = float(lines[-1].split("=", 1)[1])
        if not abs(reported - err) <= 1e-12:
            misses.append(f"reported max_abs_err {reported!r} != {err!r}")
        return err, misses

    return Item(f"compare phi={phi:.6f}", run, check)


# -- renewal ---------------------------------------------------------------

def renewal(dw, rng, nmax=300, cases=3, rstar_order=1000, oracle_n=19):
    """Renewal origin amplitudes, the r* table and the path oracle.

    The psi items are most of the pass and cost more than the other two, so
    the median item is always a psi item."""
    items = []
    for _ in range(cases):
        phi = open_uniform(rng, 0.0, 1.0)
        alpha, beta = random_state(rng)
        items.append(_psi_item(dw, phi, alpha, beta, nmax))
    items.append(_rstar_item(dw, rstar_order))
    items.append(_oracle_item(dw, oracle_n))
    return items


def _psi_item(dw, phi, alpha, beta, nmax):
    state = np.array([alpha, beta], dtype=complex)

    def run():
        params = dw.walk.WalkParams(phi=phi, alpha=alpha, beta=beta)
        psi = dw.series.psi_origin_sequence(nmax, params)
        xi = dw.spectral.xi_tilde0_series(phi, 2 * nmax)
        return psi, xi

    def check(out):
        psi, xi = out
        if len(psi) != nmax + 1:
            return math.inf, [f"{len(psi)} amplitudes, expected {nmax + 1}"]
        ref = xi[0::2] @ state
        err = float(np.max(np.abs(np.asarray(psi) - ref)))
        if not err <= RENEWAL_TOL:
            return err, [f"max |psi - xi0 state| = {err:.3e} > {RENEWAL_TOL}"]
        return err, []

    return Item(f"psi_origin_sequence phi={phi:.6f}", run, check)


def _rstar_item(dw, order):
    def run():
        code, text = run_cli(dw, ["series", "--what", "rstar", "--order", str(order)])
        return code, text, dw.series.rstar_series(order)

    def check(out):
        code, text, ref = out
        if code != 0:
            return math.inf, [f"exit code {code}"]
        lines = text.splitlines()
        if len(lines) != order + 1 or lines[0] != "n,numerator,denominator":
            return math.inf, ["malformed series output"]
        wrong = 0
        for n, line in enumerate(lines[1:], start=1):
            k, num, den = line.split(",")
            if int(k) != n or Fraction(int(num), int(den)) != ref[n]:
                wrong += 1
        if wrong:
            return float(wrong), [f"{wrong} r* rows differ from rstar_series"]
        return 0.0, []

    return Item(f"series rstar order={order}", run, check)


def _oracle_item(dw, nmax):
    def run():
        got = [dw.series.path_oracle_first_return(n) for n in range(1, nmax + 1)]
        return got, dw.series.first_return_series(nmax)

    def check(out):
        got, ref = out
        wrong = sum(1 for n, v in enumerate(got, start=1) if v != ref[n])
        if wrong:
            return float(wrong), [f"{wrong} oracle values differ from first_return_series"]
        return 0.0, []

    return Item(f"path oracle n<={nmax}", run, check)


# -- sweep -----------------------------------------------------------------

# Distances of the band-edge points from 1/4 and 3/4, on both sides.
EDGE_OFFSETS = (1e-8, 1e-9, 1e-10, 1e-11, 1e-12)


def sweep(dw, rng, points=1000, edge_offsets=EDGE_OFFSETS):
    """Dense phi scan plus band-edge points and phi = 0.

    The scan draws one phi from each of ``points`` equal strata of (0, 1), so
    every seed puts the same number of points in each localization region;
    a region with both root families costs more per point.  The band-edge
    points sit at fixed distances from 1/4 and 3/4, so every seed has the same
    ones.  They and phi = 0 stay in although singular_points raises on the
    edge points inside (1/4, 3/4) and at phi = 0: they are counted as failed
    operations, never filtered out.
    """
    phis = [open_uniform(rng, k / points, (k + 1) / points) for k in range(points)]
    phis += [edge + side * offset for edge in (0.25, 0.75) for side in (-1.0, 1.0)
             for offset in edge_offsets]
    phis.append(0.0)
    return [_sweep_item(dw, phi, *random_state(rng)) for phi in phis]


def _sweep_item(dw, phi, alpha, beta, xmax=20):
    def run():
        spectral, limits = dw.spectral, dw.limits
        points = spectral.singular_points(phi)
        norms = spectral.residue_norms_origin(phi, alpha, beta)
        origin = limits.mu_inf_origin(phi, alpha, beta)
        profile = [limits.mu_inf(x, phi, alpha, beta) for x in range(-xmax, xmax + 1)]
        total = limits.total_point_mass(phi, alpha, beta)
        cmv = limits.cgmv_limit_origin(phi, alpha, beta)
        return len(points), norms, origin, profile, total, cmv

    def check(out):
        npoints, norms, origin, profile, total, cmv = out
        gap = abs(sum(norms) - origin)
        misses = []
        if len(norms) != npoints:
            misses.append(f"{len(norms)} residues for {npoints} singular points")
        if not gap <= RESIDUE_TOL:
            misses.append(f"residue-sum gap {gap:.3e} > {RESIDUE_TOL}")
        if not total <= 1.0 + MASS_TOL:
            misses.append(f"total_point_mass {total!r} > 1")
        if not sum(profile) <= total + MASS_TOL:
            misses.append(f"sum of mu_inf over |x|<={xmax} exceeds total_point_mass")
        if not abs(cmv - origin) <= CMV_TOL:
            misses.append(f"cgmv gap {abs(cmv - origin):.3e} > {CMV_TOL}")
        return gap, misses

    return Item(f"sweep phi={phi!r}", run, check)


WORKLOADS = {"cesaro": cesaro, "renewal": renewal, "sweep": sweep}

# Small sizes for warm-up and the smoke test.  The Cesaro error at T=200 is
# about 1e-3, inside its 1e-2 tolerance.
TINY = {
    "cesaro": {"T": 200, "xmax": 2, "per_region": 1},
    "renewal": {"nmax": 20, "cases": 1, "rstar_order": 40, "oracle_n": 9},
    "sweep": {"points": 3, "edge_offsets": ()},
}


def warm_up(dw, rng):
    """Run tiny cesaro, renewal and sweep passes, which call into all five
    layers, so first-call costs are paid before timing."""
    for name in ("cesaro", "renewal", "sweep"):
        for item in WORKLOADS[name](dw, rng, **TINY[name]):
            try:
                item.run()
            except Exception:
                pass  # phi = 0 raises; the measured pass counts such failures
