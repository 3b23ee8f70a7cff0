import numpy as np
import pytest

from covfn.errors import DomainError
from covfn.estimators import bias_reduced_estimate
from covfn.functions import get_function, parse_function_spec
from covfn.sampling import DataMatrix, RngStream
from covfn.symmat import eigh
from helpers import apply_scalar_function

# interior grids on which each member's analytic derivatives are checked
# against central finite differences
GRIDS = {
    ("identity",): np.linspace(-4, 4, 100),
    ("square",): np.linspace(-4, 4, 100),
    ("cube",): np.linspace(-4, 4, 100),
    ("exp",): np.linspace(-3, 3, 100),
    ("log",): np.linspace(0.1, 10, 100),
    ("power", 0.5): np.linspace(0.1, 10, 100),
    ("power", 3.0): np.linspace(0.1, 10, 100),
    ("smoothstep", 1.0, 2.0, 0.5): np.linspace(0.0, 3.0, 100),
}


@pytest.mark.parametrize("spec", list(GRIDS), ids=lambda s: str(s))
def test_analytic_derivative_matches_finite_differences(spec):
    f = get_function(*spec)
    x = GRIDS[spec]
    h = 1e-5
    fd = (f.eval(x + h) - f.eval(x - h)) / (2 * h)
    an = f.deriv(x)
    assert np.all(np.abs(fd - an) <= 1e-6 * (1.0 + np.abs(an)))


@pytest.mark.parametrize("spec", list(GRIDS), ids=lambda s: str(s))
def test_analytic_second_derivative_matches_finite_differences(spec):
    f = get_function(*spec)
    x = GRIDS[spec]
    h = 1e-5
    fd = (f.deriv(x + h) - f.deriv(x - h)) / (2 * h)
    an = f.deriv2(x)
    assert np.all(np.abs(fd - an) <= 1e-6 * (1.0 + np.abs(an)))


@pytest.mark.parametrize("spec", list(GRIDS), ids=lambda s: str(s))
def test_degree_scales_the_derivatives(spec):
    # f^(j)(c x) = c^(h - j) f^(j)(x) for f of degree h; the rest have none
    f = get_function(*spec)
    if spec[0] in ("exp", "smoothstep"):
        assert f.degree is None
        return
    x = GRIDS[spec]
    for c in (2.0**-40, 3.0, 2.0**40):
        for j, fn in ((1, f.deriv), (2, f.deriv2)):
            np.testing.assert_allclose(fn(c * x), c ** (f.degree - j) * fn(x),
                                       rtol=1e-13, atol=0)


@pytest.mark.parametrize("spec", list(GRIDS), ids=lambda s: str(s))
def test_coefficients_reproduce_eval(spec):
    # only the polynomials carry coefficients, and they are f itself
    f = get_function(*spec)
    if spec[0] not in ("identity", "square", "cube"):
        assert f.coefficients is None
        return
    x = np.linspace(-4, 4, 101)
    np.testing.assert_allclose(
        np.polynomial.polynomial.polyval(x, f.coefficients), f.eval(x),
        rtol=1e-15, atol=0)


def test_power_two_keeps_its_domain_check():
    # power:2 equals square on (0, inf) but has no coefficients, so a
    # singular sample covariance (n < d) is still outside its domain
    x = DataMatrix(np.random.default_rng(0).standard_normal((2, 3)))
    with pytest.raises(DomainError, match="sample covariance left the domain"):
        bias_reduced_estimate(x, get_function("power", 2.0), np.eye(3) / 3, 1,
                              20, RngStream(0))


def test_smoothstep_plateau_and_support():
    f = get_function("smoothstep", 1.0, 2.0, 0.5)
    assert f.eval(np.array([0.2, 0.5, 2.5, 3.0])).tolist() == [0, 0, 0, 0]
    np.testing.assert_allclose(f.eval(np.array([1.0, 1.5, 2.0])), 1.0)
    rise = f.eval(np.linspace(0.5, 1.0, 50))
    assert np.all(np.diff(rise) >= 0)
    assert 0.0 < f.eval(np.array([0.75]))[0] < 1.0


def test_smoothstep_derivative_is_zero_where_the_mollifier_underflows():
    # exp(-1/t) and t^2 both underflow below t of about 1e-154; the
    # derivative there is 0, not 0/0 (the suite turns the warning into an error)
    f = get_function("smoothstep", 0.5, 2.0, 0.5)
    assert f.deriv(np.array([1e-170, 1e-300, 0.0, -1e-170])).tolist() == [0, 0, 0, 0]
    assert f.deriv(np.array([0.25]))[0] > 0


def test_smoothstep_parameter_validation():
    with pytest.raises(ValueError):
        get_function("smoothstep", 2.0, 1.0, 0.5)  # a > b
    with pytest.raises(ValueError):
        get_function("smoothstep", 1.0, 2.0, 0.0)  # delta <= 0


def test_power_non_integer_keeps_margin_from_zero():
    # the domain is (0, inf); the relative margin alone keeps a singular
    # matrix out, while a tiny but well-conditioned one stays in
    f = get_function("power", 0.5)
    assert f.domain == (0.0, float("inf"))
    with pytest.raises(DomainError):
        apply_scalar_function(eigh(np.diag([1.0, 0.0])), f)
    out = apply_scalar_function(eigh(np.diag([1e-14, 2e-14])), f)
    np.testing.assert_allclose(np.diag(out.entries), np.sqrt([1e-14, 2e-14]),
                               rtol=1e-12)
    g = get_function("power", 2.0)
    assert g.domain[0] == 0.0


def test_parse_function_spec():
    f = parse_function_spec("power:1.5")
    assert f.name == "power" and f.params == (1.5,)
    g = parse_function_spec("smoothstep:1,2,0.25")
    assert g.params == (1.0, 2.0, 0.25)
    assert parse_function_spec("log").name == "log"
    with pytest.raises(DomainError):
        parse_function_spec("tanh")
    with pytest.raises(DomainError):
        parse_function_spec("power:abc")
    with pytest.raises(DomainError):  # the factory's ValueError
        parse_function_spec("smoothstep:1,2,-1")
