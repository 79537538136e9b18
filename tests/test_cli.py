import argparse
import collections
import contextlib
import io
import json
import math
import re
import sys

import numpy as np
import pytest

from defectwalk import cli, limits, series, spectral, walk
from test_series import _sqrt1z4_fraction_reference


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_phi_decimal_and_fraction(capsys):
    assert cli.parse_phi("0.5") == 0.5
    assert cli.parse_phi("1/3") == pytest.approx(1 / 3)
    with pytest.raises(cli.DomainError):
        cli.parse_phi("abc")
    with pytest.raises(cli.DomainError):
        cli.parse_phi("1/0")
    big = "1" + "0" * 400 + "/3"  # its float() overflows
    with pytest.raises(cli.DomainError):
        cli.parse_phi(big)
    code, out, err = run(capsys, "limit", "--phi", big, "--xmax", "1")
    assert code == cli.USAGE_ERROR
    assert out == "" and err.startswith("error: cannot parse phi")
    assert "Traceback" not in err


def test_simulate_header_and_mass(capsys):
    code, out, _ = run(capsys, "simulate", "--phi", "0.5", "--steps", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,prob_L,prob_R,prob"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == [str(x) for x in range(-4, 5)]
    assert sum(float(r[3]) for r in rows) == pytest.approx(1.0, abs=1e-12)


def test_simulate_deterministic(capsys):
    a = run(capsys, "simulate", "--phi", "1/3", "--steps", "30")
    b = run(capsys, "simulate", "--phi", "1/3", "--steps", "30")
    assert a == b


def test_time_average_output(capsys):
    code, out, _ = run(
        capsys, "time-average", "--phi", "0.5", "--T", "200", "--xmax", "2"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,mu_bar_T"
    assert len(lines) == 6
    origin = float(lines[3].split(",")[1])
    assert origin == pytest.approx(8 / 25, abs=5e-3)


def test_limit_matches_closed_form(capsys):
    code, out, _ = run(capsys, "limit", "--phi", "0.5", "--xmax", "1")
    assert code == 0
    rows = dict(
        (int(line.split(",")[0]), float(line.split(",")[1]))
        for line in out.strip().split("\n")[1:]
    )
    assert rows[0] == pytest.approx(8 / 25, abs=1e-14)
    assert rows[1] == pytest.approx(24 / 125, abs=1e-14)
    assert rows[-1] == rows[1]


def test_compare_reports_max_error(capsys):
    code, out, _ = run(
        capsys, "compare", "--phi", "0.5", "--T", "400", "--xmax", "3"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,mu_bar_T,mu_inf,abs_err"
    assert lines[-1].startswith("max_abs_err=")
    assert float(lines[-1].split("=")[1]) < 0.05


def test_spectrum_json(capsys):
    code, out, _ = run(capsys, "spectrum", "--phi", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 4
    for entry in payload:
        assert sorted(entry) == [
            "branch",
            "lambda_sq",
            "residue_norm",
            "residue_prefactor",
            "theta_s",
        ]
        assert entry["lambda_sq"] == pytest.approx(0.2, abs=1e-12)


def test_spectrum_phi_zero_is_empty(capsys):
    code, out, _ = run(capsys, "spectrum", "--phi", "0")
    assert code == 0
    assert json.loads(out) == []


def test_series_rstar_rows(capsys):
    code, out, _ = run(capsys, "series", "--what", "rstar", "--order", "7")
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    table = {int(n): (int(p), int(q)) for n, p, q in rows}
    assert table[1] == (-1, 1)
    assert table[2] == (0, 1)
    assert table[3] == (1, 2)
    assert table[7] == (-1, 8)


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 7, 11, 1000, 1003, 4000, 4003])
def test_series_rstar_table_equals_rstar(capsys, order):
    want = "n,numerator,denominator\n" + "".join(
        f"{n},{v.numerator},{v.denominator}\n"
        for n, v in ((n, series.rstar(n)) for n in range(1, order + 1))
    )
    assert run(capsys, "series", "--what", "rstar", "--order", str(order)) == (0, want, "")


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 5, 7, 8, 11, 1000, 1003, 4000, 4003])
@pytest.mark.parametrize("what", ["sqrt1z4", "first-return"])
def test_series_table_equals_fraction_series(capsys, what, order):
    if what == "sqrt1z4":
        rows = enumerate(_sqrt1z4_fraction_reference(order))
    else:
        rows = enumerate(series.first_return_series(order))
        next(rows)  # the table starts at n = 1
    want = "n,numerator,denominator\n" + "".join(
        f"{n},{v.numerator},{v.denominator}\n" for n, v in rows
    )
    assert run(capsys, "series", "--what", what, "--order", str(order)) == (0, want, "")


def test_negative_order_is_usage_error(capsys):
    code, out, err = run(capsys, "series", "--what", "rstar", "--order", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --order must be >= 0, got -1\n"


# int -> str digit limit -> {table: its last printable order}; the edges are
# those at which a table first failed to print, with no --order cap
_SERIES_EDGES = {
    4300: {"rstar": 28590, "first-return": 28590, "sqrt1z4": 28591},
    640: {"rstar": 4262, "first-return": 4262, "sqrt1z4": 4263},
}


@contextlib.contextmanager
def _int_str_digits(limit):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("limit", _SERIES_EDGES)
def test_series_order_past_last_printable_row_is_usage_error(capsys, limit):
    with _int_str_digits(limit):
        for what, last in _SERIES_EDGES[limit].items():
            code, out, err = run(capsys, "series", "--what", what, "--order", str(last + 1))
            assert (code, out) == (2, "")
            assert err == f"error: --order must be <= {last}, got {last + 1}\n"


@pytest.mark.parametrize("limit", _SERIES_EDGES)
def test_series_last_printable_row_formats(limit):
    # a whole edge table takes seconds to print, so format only its largest
    # row, the last nonzero one, and the next one, which is past the limit
    edges = _SERIES_EDGES[limit]
    last_pair, next_pair = collections.deque(series._rstar_ratios(edges["rstar"] // 4 + 1), 2)
    with _int_str_digits(limit):
        for last in edges.values():
            n = last - 3  # rows n + 1 .. last are zero
            assert cli._ratio_rows(n, n, [(n, last_pair)])[0].startswith(f"{n},")
            with pytest.raises(ValueError, match="integer string conversion"):
                cli._ratio_rows(n + 4, n + 4, [(n + 4, next_pair)])


def test_reused_parser_leaks_no_state(capsys):
    def fresh(*argv):
        cli.build_parser.cache_clear()
        return run(capsys, *argv)

    eta = ("compare", "--phi", "0.3", "--T", "40", "--xmax", "2", "--eta", "-1")
    plain = ("compare", "--phi", "0.3", "--T", "40", "--xmax", "2")
    normalized = ("limit", "--phi", "0.3", "--xmax", "2",
                  "--alpha=3,0", "--beta=0,4", "--normalize")
    limit = ("limit", "--phi", "0.3", "--xmax", "2")
    calls = (eta, plain, normalized, limit)
    want = [fresh(*argv) for argv in calls]
    assert want[0] != want[1] and want[2] != want[3]
    got = [run(capsys, *argv) for argv in calls]
    with pytest.raises(SystemExit) as exc:
        cli.main(["limit", "--phi", "0.3", "--xmax", "two"])
    assert exc.value.code == 2
    capsys.readouterr()
    got += [run(capsys, *limit), run(capsys, *plain)]
    assert got == want + [want[3], want[1]]


def test_second_main_builds_no_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    argv = ("limit", "--phi", "0.3", "--xmax", "1")
    first = run(capsys, *argv)
    assert built  # the first call builds the parser and its subparsers
    count = len(built)
    assert run(capsys, *argv) == first
    assert len(built) == count


def test_series_sqrt1z4_rows(capsys):
    code, out, _ = run(capsys, "series", "--what", "sqrt1z4", "--order", "8")
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    table = {int(n): (int(p), int(q)) for n, p, q in rows}
    assert table[0] == (1, 1)
    assert table[4] == (1, 2)
    assert table[8] == (-1, 8)


def test_stationary_output(capsys):
    code, out, _ = run(
        capsys, "stationary", "--phi", "0.5", "--branch", "plus", "--xmax", "1"
    )
    assert code == 0
    rows = dict(
        (int(line.split(",")[0]), float(line.split(",")[1]))
        for line in out.strip().split("\n")[1:]
    )
    assert rows[0] == 1.0
    assert rows[1] == pytest.approx(3 / 5, abs=1e-14)


def test_explicit_state_flags(capsys):
    s = 1 / math.sqrt(2)
    code, out, _ = run(
        capsys,
        "limit",
        "--phi", "0.5",
        "--alpha", f"{s},0",
        "--beta", f"0,{s}",
        "--xmax", "0",
    )
    assert code == 0
    assert float(out.strip().split("\n")[1].split(",")[1]) == pytest.approx(
        8 / 25, abs=1e-14
    )


def test_usage_error_on_bad_phi(capsys):
    code, _, err = run(capsys, "limit", "--phi", "x", "--xmax", "1")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("limit", "--phi", "inf", "--xmax", "1"),
        ("spectrum", "--phi", "nan"),
    ],
)
def test_non_finite_phi_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "phi must lie in [0, 1)" in err


def test_usage_error_on_unnormalized_state(capsys):
    code, _, err = run(
        capsys,
        "limit",
        "--phi", "0.5",
        "--alpha", "1,0",
        "--beta", "1,0",
        "--xmax", "0",
    )
    assert code == 2
    assert "normalize" in err


def test_eta_with_explicit_state_is_usage_error(capsys):
    code, out, err = run(
        capsys,
        "limit",
        "--phi", "1/2",
        "--xmax", "0",
        "--eta", "-1",
        "--alpha", "1,0",
        "--beta", "0,0",
    )
    assert code == 2
    assert out == ""
    assert "--eta" in err


def test_bad_state_is_reported_before_bad_phi(capsys):
    # an explicit state is checked before --phi is parsed
    code, out, err = run(
        capsys,
        "limit",
        "--phi", "abc",
        "--xmax", "0",
        "--alpha", "1,0",
        "--beta", "1,0",
    )
    assert (code, out) == (2, "")
    assert err == ("error: state not normalized (|alpha|^2+|beta|^2 = 2.0); "
                   "pass --normalize to rescale\n")


def test_normalize_without_explicit_state_is_usage_error(capsys):
    code, out, err = run(capsys, "limit", "--phi", "0.5", "--xmax", "0", "--normalize")
    assert code == 2
    assert out == ""
    assert "--normalize" in err


def test_state_off_by_2e_10_is_rescaled_by_normalize(capsys):
    # |alpha|^2 + |beta|^2 = 1 + 2e-10: outside the 1e-12 that WalkParams
    # requires, so --normalize must rescale it rather than pass it through.
    code, out, err = run(
        capsys,
        "compare",
        "--phi", "0.3",
        "--alpha", "1.0000000001,0",
        "--beta", "0,0",
        "--normalize",
        "--T", "10",
        "--xmax", "1",
    )
    assert code == 0, err
    assert out.startswith("x,mu_bar_T,mu_inf,abs_err\n")


def test_state_off_by_2e_10_needs_normalize(capsys):
    code, out, err = run(
        capsys,
        "limit",
        "--phi", "0.5",
        "--xmax", "0",
        "--alpha", "1.0000000001,0",
        "--beta", "0,0",
    )
    assert code == 2
    assert out == ""
    assert "normalize" in err


def test_normalize_flag_rescales(capsys):
    code, out, _ = run(
        capsys,
        "limit",
        "--phi", "0.5",
        "--alpha", "1,0",
        "--beta", "0,1",
        "--normalize",
        "--xmax", "0",
    )
    assert code == 0
    assert float(out.strip().split("\n")[1].split(",")[1]) == pytest.approx(
        8 / 25, abs=1e-14
    )


def test_out_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run(
        capsys, "limit", "--phi", "0.5", "--xmax", "1", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("x,mu_inf\n")


# every verify record, in order, with its bound: a refactor or a new record
# must not rename, drop, reorder or loosen one
VERIFY_RECORDS = [
    ("unitarity (phi=0.3, n=400)", 1e-9),
    ("parity (odd sites empty)", 0.0),
    ("homogeneous symmetry (n<=200)", 1e-12),
    ("series triple equivalence (n<=15)", 0),
    ("renewal vs evolution (n<=60)", 1e-10),
    ("spectral closure |L0| (10-point grid)", 1e-10),
    ("singular points at e^(i theta_s) (10-point grid)", 1e-15),
    ("spectral closure residue-sum gap (10-point grid)", 1e-12),
    ("stationary coincidence", 1e-12),
    ("CMV-form equality", 1e-14),
    ("kernel vs step loop (T=199..201)", 0.0),
    ("limit vs simulation (T=2000)", 2e-2),
    ("asymptotic vs renewal (n=800..900)", 1e-3),
    ("resolvent series vs renewal (N=600, 10-point grid)", 1e-12),
]


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    lines = [line for line in out.strip().split("\n") if line.startswith("[")]
    assert len(lines) == 14
    assert all(line.startswith("[ok") for line in lines)
    names = []
    for line in lines:
        found = re.fullmatch(r"\[ok  \] (.+) = (\S+) \(bound (\S+)\)", line)
        assert found, line
        assert float(found[2]) <= float(found[3]), line
        names.append(found[1])
    assert names == [name for name, _ in VERIFY_RECORDS]
    assert [(name, bound) for name, bound, _ in cli.VERIFY_CHECKS] == VERIFY_RECORDS
    assert "all checks passed" in out


@pytest.fixture(scope="module")
def clean_verify_lines():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify"]) == 0
    return out.getvalue().split("\n")


@pytest.mark.parametrize("row", range(len(VERIFY_RECORDS)))
def test_verify_judges_each_row_alone(capsys, monkeypatch, clean_verify_lines, row):
    name, bound, _ = cli.VERIFY_CHECKS[row]
    table = list(cli.VERIFY_CHECKS)
    # Python's max([0.0, nan]) is 0.0; the record must still fail
    table[row] = (name, bound, lambda: [0.0, math.nan])
    monkeypatch.setattr(cli, "VERIFY_CHECKS", tuple(table))
    code, out, _ = run(capsys, "verify")
    assert code == cli.VERIFY_ERROR
    # only the NaN row and the summary differ from the clean run
    expected = list(clean_verify_lines)
    expected[row] = f"[FAIL] {name} = nan (bound {bound:.0e})"
    expected[-2] = "1 check(s) failed"
    assert out.split("\n") == expected
    assert out.endswith("1 check(s) failed\n")


@pytest.mark.parametrize(
    "module, name, failing",
    [
        ("limits", "mu_inf_origin", ("residue-sum gap", "CMV-form equality")),
        ("series", "psi_origin_sequence", ("renewal vs evolution",)),
    ],
)
def test_verify_fails_on_nan(capsys, monkeypatch, module, name, failing):
    # max(worst, nan) keeps worst, so a reduction with Python's max would
    # report these NaN gaps as passing
    mod = getattr(cli, module)
    real = getattr(mod, name)
    monkeypatch.setattr(mod, name, lambda *a, **k: np.asarray(real(*a, **k)) * math.nan)
    code, out, _ = run(capsys, "verify")
    assert code == cli.VERIFY_ERROR
    failed = [line for line in out.split("\n") if line.startswith("[FAIL]")]
    for part in failing:
        assert any(part in line and "= nan" in line for line in failed), out
    assert "all checks passed" not in out


def test_state_norm_overflow_is_usage_error(capsys):
    code, out, err = run(
        capsys, "limit", "--phi", "0.5", "--xmax", "0",
        "--alpha", "1e200,0", "--beta", "0,0",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "alpha, state",
    [("1e-160,0", 1 + 0j), ("1e200,0", 1 + 0j), ("3e-200,4e-200", 0.6 + 0.8j)],
)
def test_normalize_rescales_tiny_and_huge_states(capsys, alpha, state):
    # |alpha|^2 is subnormal, overflows, or underflows to 0; the state still
    # has an exact unit rescaling
    code, out, err = run(
        capsys, "limit", "--phi", "0.5", "--xmax", "0",
        "--alpha", alpha, "--beta", "0,0", "--normalize",
    )
    assert code == 0, err
    assert out == f"x,mu_inf\n0,{cli._fmt(limits.mu_inf(0, 0.5, state, 0j))}\n"


@pytest.mark.parametrize("target", ["missing-dir/rows.csv", "."])
def test_unwritable_out_is_usage_error(tmp_path, capsys, target):
    path = str(tmp_path / target)
    code, out, err = run(
        capsys, "limit", "--phi", "0.5", "--xmax", "1", "--out", path
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and path in err


@pytest.mark.parametrize(
    "phi", ["1e-9", "1e-12", "0.999999999", "0.7499999999", "0.2500000001"]
)
def test_singular_point_gate_failure_is_verify_error(capsys, phi):
    # the gate |L0| <= 1e-10 fails this close to a band edge: a failed check
    # of the program's own result, reported without a traceback
    code, out, err = run(capsys, "spectrum", "--phi", phi)
    assert code == cli.VERIFY_ERROR
    assert out == ""
    assert err.startswith("error: singular point failed to converge")


def test_singular_point_gate_message(capsys):
    # the whole line is pinned but |L0|, which a better-conditioned gate
    # will change; the gate runs once per family, on its "+" point
    code, out, err = run(capsys, "spectrum", "--phi", "0.25000001")
    assert code == cli.VERIFY_ERROR
    assert out == ""
    assert re.fullmatch(
        r"error: singular point failed to converge: \|L0\| = \d\.\d{3}e-\d\d "
        r"at phi=0\.25000001, branch eps_minus\+\n", err)


@pytest.mark.parametrize("phi", ["0.3", "1/2"])
def test_spectrum_equals_library(capsys, phi):
    # JSON round-trips every double, so the payload must equal the library
    # values exactly
    alpha, beta = complex(0.36, 0.48), complex(0.64, -0.48)
    code, out, err = run(capsys, "spectrum", "--phi", phi,
                         "--alpha", "0.36,0.48", "--beta", "0.64,-0.48")
    assert code == 0, err
    pts = spectral.singular_points(cli.parse_phi(phi))
    norms = spectral.residue_norms(pts, alpha, beta)
    assert pts
    assert json.loads(out) == [
        {"branch": pt.branch, "lambda_sq": pt.lambda_sq, "residue_norm": norm,
         "residue_prefactor": pt.residue_prefactor, "theta_s": pt.theta_s}
        for pt, norm in zip(pts, norms)
    ]


@pytest.mark.parametrize("phi", ["0.3", "1/2"])
def test_tables_equal_library(capsys, phi):
    # .17g round-trips every double, so the tables must equal the library
    # values exactly, not within a tolerance
    p = walk.WalkParams(phi=cli.parse_phi(phi), alpha=complex(0.6, 0.0),
                        beta=complex(0.0, 0.8))
    state = ("--alpha", "0.6,0", "--beta", "0,0.8")

    def table(*argv):
        """The CSV rows as floats, and the last line."""
        code, out, err = run(capsys, *argv, "--phi", phi)
        assert code == 0, err
        lines = out.strip().split("\n")
        rows = [[float(v) for v in line.split(",")]
                for line in lines[1:] if "=" not in line]
        return rows, lines[-1]

    ev = walk.evolve(p, 50)
    pl = [abs(a) ** 2 for a in ev.amps[:, 0]]
    pr = [abs(a) ** 2 for a in ev.amps[:, 1]]
    rows, _ = table("simulate", *state, "--steps", "50")
    assert rows == [[x, l, r, l + r] for x, l, r in zip(range(-50, 51), pl, pr)]

    sites = range(-4, 5)
    mu = walk.time_average(p, 300, 4)
    sim = [mu.at(x) for x in sites]
    exact = [limits.mu_inf(x, p.phi, p.alpha, p.beta) for x in sites]
    rows, _ = table("time-average", *state, "--T", "300", "--xmax", "4")
    assert rows == [[x, v] for x, v in zip(sites, sim)]
    rows, _ = table("limit", *state, "--xmax", "4")
    assert rows == [[x, v] for x, v in zip(sites, exact)]

    rows, last = table("compare", *state, "--T", "300", "--xmax", "4")
    errs = [abs(s - e) for s, e in zip(sim, exact)]
    assert rows == [list(r) for r in zip(sites, sim, exact, errs)]
    assert last.startswith("max_abs_err=")
    assert float(last.split("=")[1]) == max(errs)

    for branch in ("plus", "minus"):
        rows, _ = table("stationary", "--branch", branch, "--xmax", "4",
                        "--alpha-mod2", "0.36")
        assert rows == [
            [x, limits.stationary_measure(x, p.phi, 0.36, branch)] for x in sites
        ]


def test_compare_rejects_nan_state(capsys):
    code, out, err = run(
        capsys,
        "compare",
        "--phi", "0.5",
        "--alpha", "nan,0",
        "--beta", "1,0",
        "--T", "10",
        "--xmax", "1",
    )
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_normalize_rejects_zero_state(capsys):
    code, out, err = run(
        capsys,
        "limit",
        "--phi", "0.5",
        "--alpha", "0,0",
        "--beta", "0,0",
        "--normalize",
        "--xmax", "0",
    )
    assert code == 2
    assert out == ""
    assert "zero state" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("limit", "--phi", "0.5", "--xmax", "-1"),
        ("stationary", "--phi", "0.5", "--branch", "plus", "--xmax", "-1"),
        ("time-average", "--phi", "0.5", "--T", "10", "--xmax", "-1"),
        ("compare", "--phi", "0.5", "--T", "10", "--xmax", "-1"),
    ],
)
def test_negative_xmax_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "--xmax" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("limit", "--phi", "0.5", "--xmax", "0", "--alpha", "1", "--beta", "0,0"),
         "alpha must be 're,im'"),
        (("limit", "--phi", "0.5", "--xmax", "0", "--alpha", "x,0", "--beta", "0,0"),
         "cannot parse alpha"),
        (("limit", "--phi", "0.5", "--xmax", "0", "--alpha", "1,0"),
         "must be given together"),
        (("simulate", "--phi", "0.5", "--steps", "-1"), "--steps must be >= 0, got -1"),
        (("stationary", "--phi", "0.1", "--branch", "plus", "--xmax", "1"),
         "does not decay"),
        (("stationary", "--phi", "0.9", "--branch", "minus", "--xmax", "1"),
         "does not decay"),
        # rate ** 500 overflowed here, which exited 3 like a failed check
        (("stationary", "--phi", "0.9", "--branch", "minus", "--xmax", "500"),
         "does not decay"),
        # the rate rounded to 1 - 4.4e-16 here and the profile was printed
        (("stationary", "--phi", "0.75", "--branch", "minus", "--xmax", "3"),
         "does not decay"),
        (("time-average", "--phi", "0.3", "--T", "0", "--xmax", "1"),
         "--T must be >= 1, got 0"),
        (("compare", "--phi", "0.3", "--T", "0", "--xmax", "1"),
         "--T must be >= 1, got 0"),
    ],
)
def test_domain_error_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == cli.USAGE_ERROR
    assert out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("value", ["nan", "inf", "0", "1e308"])
def test_stationary_alpha_mod2_outside_domain_is_usage_error(capsys, value):
    code, out, err = run(
        capsys, "stationary", "--phi", "1/2", "--branch", "plus", "--xmax", "1",
        "--alpha-mod2", value,
    )
    assert code == 2
    assert out == ""
    assert "alpha_mod2" in err


def test_compare_max_error_propagates_nan(capsys, monkeypatch):
    real = cli.limits.mu_inf
    monkeypatch.setattr(
        cli.limits, "mu_inf",
        lambda x, *rest: math.nan if x == -1 else real(x, *rest),
    )
    code, out, _ = run(
        capsys, "compare", "--phi", "0.5", "--T", "10", "--xmax", "1"
    )
    assert code == 0
    assert out.strip().split("\n")[-1] == "max_abs_err=nan"
