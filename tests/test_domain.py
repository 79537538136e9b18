"""One domain rule for the defect phase: every function that takes phi
rejects anything outside [0, 1), NaN and +-inf included, and anything that is
not a number, with DomainError, and computes with the float the rule returns.
Likewise one rule for the coin state: every function that takes
(alpha, beta) rejects a non-number, a non-finite or a non-normalized state
with DomainError, and computes with the complexes the rule returns; one rule for
an integer argument (walk._index): every site, time, count or order rejects a
non-integer and a value outside its bounds; and one rule for a point z of the
closed unit disk (walk._check_disk), which also refuses anything that is not a
number."""

import argparse
import ast
import cmath
import dataclasses
import importlib
import inspect
import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from defectwalk import cli, limits, series, spectral, walk
from defectwalk.walk import DomainError, WalkParams

A, B = 0.6, 0.8j

PHI_TAKERS = {
    "WalkParams": lambda phi: WalkParams(phi=phi, alpha=1.0, beta=0.0),
    "mu_inf_origin": lambda phi: limits.mu_inf_origin(phi, A, B),
    "mu_inf": lambda phi: limits.mu_inf(1, phi, A, B),
    "total_point_mass": lambda phi: limits.total_point_mass(phi, A, B),
    "asymptotic_psi_origin": lambda phi: limits.asymptotic_psi_origin(3, phi, A, B),
    "stationary_measure": lambda phi: limits.stationary_measure(1, phi, 0.5, "plus"),
    "compare_stationary_timeavg": lambda phi: limits.compare_stationary_timeavg(
        phi, "plus"
    ),
    "cgmv_limit_origin": lambda phi: limits.cgmv_limit_origin(phi, A, B),
    "singular_points": spectral.singular_points,
    "residue_norms_origin": lambda phi: spectral.residue_norms_origin(phi, A, B),
    "xi_tilde0_series": lambda phi: spectral.xi_tilde0_series(phi, 4),
    "big_lambda0": lambda phi: spectral.big_lambda0(0.5j, phi),
}


# below 1, but its float is 1.0 where a long double is wider than a float
LONG_BELOW_1 = np.longdouble(1) - np.finfo(np.longdouble).eps


@pytest.mark.parametrize("phi", [
    math.nan, math.inf, -math.inf, -0.1, 1.0, 1.5,
    # not numbers: the comparison raises TypeError
    pytest.param("0.3", id="str"), None, pytest.param(0.3j, id="complex"),
    # the comparison raises InvalidOperation
    pytest.param(Decimal("NaN"), id="Decimal-NaN"),
    # below 1, but the float computed with is 1.0
    pytest.param(Fraction(10**20 - 1, 10**20), id="Fraction-below-1"),
    pytest.param(LONG_BELOW_1, id="longdouble-below-1", marks=pytest.mark.skipif(
        float(LONG_BELOW_1) < 1.0, reason="long double is no wider than a float")),
])
@pytest.mark.parametrize("name", sorted(PHI_TAKERS))
def test_phi_outside_domain_is_domain_error(name, phi):
    with pytest.raises(DomainError, match=r"phi must lie in \[0, 1\)"):
        PHI_TAKERS[name](phi)


def _assert_same(got, ref):
    # equal, and of the reference's type wherever it is a Python float or
    # complex, field by field through records, tuples and lists
    if dataclasses.is_dataclass(ref):
        got, ref = dataclasses.astuple(got), dataclasses.astuple(ref)
    if isinstance(ref, np.ndarray):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    elif isinstance(ref, (tuple, list)):
        assert type(got) is type(ref) and len(got) == len(ref)
        for g, r in zip(got, ref):
            _assert_same(g, r)
    else:
        assert type(got) is type(ref) and got == ref


@pytest.mark.parametrize(
    "phi", [np.float32(0.3), np.float16(0.3), Decimal("0.3"), Fraction(3, 10)],
    ids=lambda phi: type(phi).__name__)
@pytest.mark.parametrize("name", sorted(PHI_TAKERS))
def test_phi_number_types_are_accepted(name, phi):
    # computed as the Python float: in float32, 2 pi phi put the gate's |L0|
    # at 5e-8 and every route off by up to 2.6e-5 relative
    _assert_same(PHI_TAKERS[name](phi), PHI_TAKERS[name](float(phi)))


def test_float32_phi_passes_the_singular_point_gate():
    for k in range(1, 1000):
        assert spectral.singular_points(np.float32(k / 1000)) == (
            spectral.singular_points(float(np.float32(k / 1000))))


STATE_TAKERS = {
    "WalkParams": lambda a, b: WalkParams(phi=0.3, alpha=a, beta=b),
    "mu_inf_origin": lambda a, b: limits.mu_inf_origin(0.3, a, b),
    "mu_inf": lambda a, b: limits.mu_inf(1, 0.3, a, b),
    "total_point_mass": lambda a, b: limits.total_point_mass(0.3, a, b),
    "asymptotic_psi_origin": lambda a, b: limits.asymptotic_psi_origin(3, 0.3, a, b),
    "cgmv_limit_origin": lambda a, b: limits.cgmv_limit_origin(0.3, a, b),
    "residue_norms": lambda a, b: spectral.residue_norms(
        spectral.singular_points(0.3), a, b
    ),
    "residue_norms_origin": lambda a, b: spectral.residue_norms_origin(0.3, a, b),
}


@pytest.mark.parametrize(
    "alpha, beta",
    [
        (math.nan, 0.0),
        (math.inf, 0.0),
        (0.6, complex(0.0, -math.inf)),
        (1e200, 0.0),  # its square overflows
        (3.0, 4j),  # finite, norm 25
        (0.0, 0.0),
        pytest.param(10**400, 0.8j, id="int10**400-0.8j"),  # too large for a float
        pytest.param("1", 0.0, id="str-0.0"),  # not numbers: isfinite raises TypeError
        (0.6, None),
        # in single precision |alpha|^2 + |beta|^2 is 1; exactly, 1 + 2.9e-8
        pytest.param(np.complex64(0.6), 0.8j, id="complex64(0.6)-0.8j"),
    ],
)
@pytest.mark.parametrize("name", sorted(STATE_TAKERS))
def test_state_outside_domain_is_domain_error(name, alpha, beta):
    # twice: a rejected state must not be remembered as accepted
    for _ in range(2):
        with pytest.raises(DomainError, match="initial coin state"):
            STATE_TAKERS[name](alpha, beta)


@pytest.mark.parametrize("alpha, beta", [
    # normalized at their exact values
    pytest.param(np.complex64(1), 0.0, id="complex64-float"),
    pytest.param(np.float32(0), np.complex64(1j), id="float32-complex64"),
    pytest.param(np.complex64(0.5 + 0.5j), np.complex64(0.5 - 0.5j),
                 id="complex64-complex64"),
    pytest.param(Fraction(3, 5), 0.8j, id="Fraction-complex"),
    pytest.param(Decimal("0.6"), 0.8j, id="Decimal-complex"),
])
@pytest.mark.parametrize("name", sorted(STATE_TAKERS))
def test_state_number_types_are_accepted(name, alpha, beta):
    # computed as Python complexes: with a complex64 amplitude the closed
    # forms returned a float32 (mu_inf 0.21114561 for 0.21114561800016823)
    _assert_same(STATE_TAKERS[name](alpha, beta),
                 STATE_TAKERS[name](complex(alpha), complex(beta)))


P = WalkParams(phi=0.3, alpha=A, beta=B)
MEASURE = walk.Measure(offset=-2, values=np.arange(5.0))

# every caller of the integer rule: name -> (call, parameter, least, most)
INDEX_TAKERS = {
    "evolve": (lambda n: walk.evolve(P, n), "n", 0, None),
    "time_average T": (lambda T: walk.time_average(P, T, 2), "T", 1, None),
    "time_average xmax": (lambda x: walk.time_average(P, 10, x), "xmax", 0, None),
    "Measure.at": (MEASURE.at, "x", None, None),
    "WalkState.amplitude": (walk.evolve(P, 2).amplitude, "x", None, None),
    "rstar": (series.rstar, "n", 1, None),
    "first_return_series": (series.first_return_series, "N", 0, None),
    "rstar_series": (series.rstar_series, "N", 0, None),
    "path_oracle_coefficients": (
        series.path_oracle_coefficients, "n", 1, series.PATH_ORACLE_MAX_N),
    "path_oracle_first_return": (
        series.path_oracle_first_return, "n", 1, series.PATH_ORACLE_MAX_N),
    "psi_origin_sequence": (lambda n: series.psi_origin_sequence(n, P), "nmax", 0, None),
    "xi_tilde0_series": (
        lambda N: spectral.xi_tilde0_series(0.3, N), "N", 0, spectral._XI_MAX_N),
    "mu_inf": (lambda x: limits.mu_inf(x, 0.3, A, B), "x", None, None),
    "stationary_measure": (
        lambda x: limits.stationary_measure(x, 0.3, 0.5, "plus"), "x", None, None),
    "asymptotic_psi_origin": (
        lambda n: limits.asymptotic_psi_origin(n, 0.3, A, B), "n", 1, limits._MAX_N),
    "cli --T": (lambda T: cli._check_int_flags(argparse.Namespace(T=T)), "--T", 1, None),
    "WalkParams.preset": (lambda eta: WalkParams.preset(eta, 0.3), "eta", None, None),
}

NON_INTEGERS = [math.nan, math.inf, 2.5, 3.0, "3"]
# the site takers keep the test name that the site rule had, so their ids stay
SITE_TAKERS = sorted(name for name, row in INDEX_TAKERS.items() if row[1] == "x")


def _refuses_non_integer(name, value):
    call, param, _, _ = INDEX_TAKERS[name]
    with pytest.raises(DomainError, match=f"^{param} must be an integer, got "):
        call(value)


@pytest.mark.parametrize("x", NON_INTEGERS)
@pytest.mark.parametrize("name", SITE_TAKERS)
def test_site_outside_domain_is_domain_error(name, x):
    _refuses_non_integer(name, x)


@pytest.mark.parametrize("value", NON_INTEGERS)
@pytest.mark.parametrize("name", sorted(set(INDEX_TAKERS) - set(SITE_TAKERS)))
def test_non_integer_is_domain_error(name, value):
    _refuses_non_integer(name, value)


@pytest.mark.parametrize("eta", [1.0, np.float64(-1.0), "1"])
def test_preset_eta_non_integer_is_domain_error(eta):
    # 1.0 and -1.0 compare equal to an allowed eta, so only the integer rule
    # refuses them
    _refuses_non_integer("WalkParams.preset", eta)


@pytest.mark.parametrize(
    "name", sorted(n for n, row in INDEX_TAKERS.items() if row[2] is not None))
def test_below_least_is_domain_error(name):
    call, param, least, _ = INDEX_TAKERS[name]
    with pytest.raises(DomainError, match=f"^{param} must be >= {least}, got {least - 1}$"):
        call(least - 1)


@pytest.mark.parametrize(
    "name", sorted(n for n, row in INDEX_TAKERS.items() if row[3] is not None))
def test_above_most_is_domain_error(name):
    call, param, _, most = INDEX_TAKERS[name]
    with pytest.raises(DomainError, match=f"^{param} must be <= {most}, got {most + 1}$"):
        call(most + 1)


def test_numpy_integer_equals_int():
    state, ref = walk.evolve(P, np.int64(7)), walk.evolve(P, 7)
    assert (state.offset, state.time) == (ref.offset, ref.time)
    assert np.array_equal(state.amps, ref.amps)
    mu, ref = walk.time_average(P, np.int64(40), np.int64(3)), walk.time_average(P, 40, 3)
    assert mu.offset == ref.offset and np.array_equal(mu.values, ref.values)
    for x in (-3, -2, 0, 2, 3):
        assert MEASURE.at(np.int64(x)) == MEASURE.at(x)


Z_TAKERS = {
    "big_lambda0": lambda z: spectral.big_lambda0(z, 0.3),
}


@pytest.mark.parametrize(
    "z", [math.nan, math.inf * 1j, 1.5, 1e100, complex(1.7e308, 1.7e308)])
@pytest.mark.parametrize("name", sorted(Z_TAKERS))
def test_z_outside_unit_disk_is_domain_error(name, z):
    # beyond the disk f has no right digit by |z| = 1e8, and NaN parts by 1e77
    with pytest.raises(DomainError, match=r"z must lie in the closed unit disk"):
        Z_TAKERS[name](z)


@pytest.mark.parametrize("name", sorted(Z_TAKERS))
def test_z_on_unit_circle_is_accepted(name):
    value = Z_TAKERS[name](cmath.exp(0.3j))
    assert cmath.isfinite(value)


@pytest.mark.parametrize("z", ["0.5", b"0.5", None], ids=["str", "bytes", "None"])
@pytest.mark.parametrize("name", sorted(Z_TAKERS))
def test_z_not_a_number_is_domain_error(name, z):
    # complex() would parse the string
    with pytest.raises(DomainError, match=r"^z must be a number, got "):
        Z_TAKERS[name](z)


@pytest.mark.parametrize("z", [Fraction(1, 2), np.float32(0.5), np.int64(0)])
@pytest.mark.parametrize("name", sorted(Z_TAKERS))
def test_z_number_types_are_accepted(name, z):
    assert Z_TAKERS[name](z) == Z_TAKERS[name](complex(z))


def test_no_assert_in_src():
    # python -O strips assert statements, so no check in the package may be one
    src = Path(limits.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_domain_rule_values_are_used():
    # _check_phi and _check_state return the values they admit, and every
    # caller computes with those: a bare call would validate an input and
    # leave the caller computing with the raw one
    src = Path(limits.__file__).parent
    rules = {"_check_phi", "_check_state"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
        and ast.unparse(node.value.func).split(".")[-1] in rules
    ]
    assert found == []


def test_public_names_have_a_non_test_caller():
    # every module-level public function and class of the package is referenced
    # by the package itself or by the benchmark harness, not only by tests
    src = Path(limits.__file__).parent
    modules = [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    bench = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))
    users = modules + [p for p in bench if not p.name.startswith("test_")]
    public = [
        node.name
        for path in modules
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]
    referenced = set()
    for path in users:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    assert bench
    assert [n for n in public if n not in referenced] == []


def test_perfbench_functions_resolve():
    # the harness traces each FUNCTIONS name as a public function of its
    # layer module; a name that no longer resolves breaks its traced runs
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "run.py").read_text())
    functions = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["FUNCTIONS"]
    )
    assert functions
    for name in functions:
        layer, attr = name.split(".")
        module = importlib.import_module(f"defectwalk.{layer}")
        func = getattr(module, attr, None)
        assert inspect.isfunction(func) and func.__module__ == module.__name__, name
