"""Checks of the test helpers' own oracles."""

import itertools

import numpy as np
import pytest

from covfn.errors import DomainError
from covfn.functions import get_function
from helpers import loewner_second_difference

SQUARE = get_function("square")
CUBE = get_function("cube")
LOG = get_function("log")
EXP = get_function("exp")


def nested_difference(f, *points):
    """f[a, b, c] from nested first divided differences, with a tied pair
    or triple through f' and f''/2."""
    a, b, c = sorted(points, key=points.count, reverse=True)  # a tie first
    if a == b == c:
        return float(f.deriv2(a)) / 2.0
    if a == b:
        return (float(f.deriv(a)) - (f.eval(a) - f.eval(c)) / (a - c)) / (a - c)
    first = [(f.eval(p) - f.eval(q)) / (p - q) for p, q in ((a, b), (b, c))]
    return (first[0] - first[1]) / (a - c)


class TestLoewnerSecondDifference:
    @pytest.mark.parametrize("f", [LOG, EXP, CUBE], ids=["log", "exp", "cube"])
    def test_distinct_eigenvalues_match_nested_differences(self, f):
        lam = np.array([0.5, 1.25, 2.0, 3.5])
        tensor = loewner_second_difference(lam, f)
        for i, j, l in np.ndindex(tensor.shape):
            want = nested_difference(f, lam[i], lam[j], lam[l])
            assert tensor[i, j, l] == pytest.approx(want, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("f", [LOG, EXP], ids=["log", "exp"])
    def test_tied_eigenvalues_use_the_derivatives(self, f):
        # a repeated eigenvalue, and one split from it by far less than
        # LOEWNER_GAP, give the confluent differences: f[x, x, y] through
        # f'(x), and f''(x) / 2 where all three are tied; keyed by how many
        # of the three points are at 2.5
        want = {n: nested_difference(f, *[2.5] * n, *[1.5] * (3 - n))
                for n in range(4)}
        for gap in (0.0, 1e-12):
            lam = np.array([1.5, 1.5 + gap, 2.5])
            tensor = loewner_second_difference(lam, f)
            for idx in itertools.product(range(3), repeat=3):
                assert tensor[idx] == pytest.approx(want[idx.count(2)],
                                                    rel=1e-9), (gap, idx)

    def test_near_tied_eigenvalues_just_past_the_gap(self):
        # a gap of 1e-6, above LOEWNER_GAP, is divided, and gives nearly the
        # confluent value, as the second differences of a smooth f are
        # continuous
        lam = np.array([1.0, 1.0 + 1e-6, 2.0])
        tensor = loewner_second_difference(lam, LOG)
        assert tensor[0, 1, 2] == pytest.approx(
            nested_difference(LOG, 1.0, 1.0, 2.0), rel=1e-5)
        assert tensor[0, 1, 0] == pytest.approx(-0.5, rel=1e-5)

    def test_square_is_one_everywhere(self, np_rng):
        lam = np.sort(np_rng.uniform(-3.0, 3.0, 6))
        np.testing.assert_allclose(loewner_second_difference(lam, SQUARE), 1.0,
                                   rtol=1e-12)

    def test_outside_the_domain_raises(self):
        with pytest.raises(DomainError):
            loewner_second_difference(np.array([-1.0, 1.0]), LOG)


