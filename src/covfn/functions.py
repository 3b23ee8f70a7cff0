"""Registry of smooth scalar functions with analytic first and second
derivatives.

Each member knows its open domain; spectral operations refuse matrices
whose eigenvalues leave it.  ``identity``, ``square`` and ``cube`` also
carry their power-basis coefficients, which select the estimator's exact
path: their bias-reduced estimate is taken in closed form from the trace
monomials of the sample covariance, with no chain.  ``smoothstep`` is a C-infinity plateau
function built from the standard exp(-1/x) mollifier, usable to isolate a
spectral cluster (value 1 on [a, b], 0 outside (a - delta, b + delta)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = ["ScalarFunction", "get_function", "parse_function_spec", "REGISTRY"]

_INF = float("inf")


@dataclass(frozen=True)
class ScalarFunction:
    """A scalar function f with its analytic derivatives f' (``deriv``) and
    f'' (``deriv2``) and open domain; ``coefficients`` (c_0, c_1, ...) are
    set when f = sum_j c_j x^j, and ``degree`` h when the derivatives are
    homogeneous, f^(j)(c x) = c^(h - j) f^(j)(x) for c > 0 and j >= 1."""

    name: str
    params: tuple
    eval: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    deriv2: Callable[[np.ndarray], np.ndarray]
    domain: tuple  # open interval (lo, hi)
    coefficients: tuple | None = None
    degree: float | None = None

    def __repr__(self):
        if self.params:
            return f"{self.name}({', '.join(map(str, self.params))})"
        return self.name


def _mollifier(t):
    """exp(-1/t) for t > 0, 0 otherwise; smooth on all of R."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    with np.errstate(divide="ignore", over="ignore"):
        out[pos] = np.exp(-1.0 / t[pos])
    return out


def _mollifier_deriv(t):
    """exp(-1/t) / t^2 for t > 0, 0 otherwise; 0 also where exp(-1/t)
    underflows, which t^2 can too (for t below about 1e-154)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    with np.errstate(divide="ignore", over="ignore"):
        tp = t[pos]
        num = np.exp(-1.0 / tp)
        out[pos] = np.divide(num, tp**2, out=np.zeros_like(tp), where=num > 0)
    return out


def _mollifier_deriv2(t):
    """exp(-1/t) (1 - 2t) / t^4 for t > 0, 0 otherwise; 0 also where
    exp(-1/t) underflows, as in ``_mollifier_deriv``."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    with np.errstate(divide="ignore", over="ignore"):
        tp = t[pos]
        num = np.exp(-1.0 / tp)
        out[pos] = np.divide(num * (1.0 - 2.0 * tp), tp**4,
                             out=np.zeros_like(tp), where=num > 0)
    return out


def _smooth_transition(t):
    """C-infinity monotone step: 0 for t <= 0, 1 for t >= 1."""
    u = _mollifier(t)
    v = _mollifier(1.0 - t)
    return u / (u + v)


def _smooth_transition_deriv(t):
    u = _mollifier(t)
    v = _mollifier(1.0 - t)
    du = _mollifier_deriv(t)
    dv = _mollifier_deriv(1.0 - t)
    return (du * v + u * dv) / (u + v) ** 2


def _smooth_transition_deriv2(t):
    # s = u / w with w = u + v and v(t) = g(1 - t): s'' = (u'' v - u g''(1 - t))
    # / w^2 - 2 (u' v + u g'(1 - t)) (g'(t) - g'(1 - t)) / w^3
    u = _mollifier(t)
    v = _mollifier(1.0 - t)
    du = _mollifier_deriv(t)
    dv = _mollifier_deriv(1.0 - t)
    w = u + v
    return ((_mollifier_deriv2(t) * v - u * _mollifier_deriv2(1.0 - t)) / w**2
            - 2.0 * (du * v + u * dv) * (du - dv) / w**3)


def _make_smoothstep(a: float, b: float, delta: float) -> ScalarFunction:
    if not (delta > 0):
        raise ValueError("smoothstep requires delta > 0")
    if not (a <= b):
        raise ValueError("smoothstep requires a <= b")

    def ev(x):
        x = np.asarray(x, dtype=float)
        rise = _smooth_transition((x - (a - delta)) / delta)
        fall = _smooth_transition(((b + delta) - x) / delta)
        return rise * fall

    def dv(x):
        x = np.asarray(x, dtype=float)
        r = (x - (a - delta)) / delta
        q = ((b + delta) - x) / delta
        return (
            _smooth_transition_deriv(r) * _smooth_transition(q)
            - _smooth_transition(r) * _smooth_transition_deriv(q)
        ) / delta

    def dv2(x):
        x = np.asarray(x, dtype=float)
        r = (x - (a - delta)) / delta
        q = ((b + delta) - x) / delta
        return (
            _smooth_transition_deriv2(r) * _smooth_transition(q)
            - 2.0 * _smooth_transition_deriv(r) * _smooth_transition_deriv(q)
            + _smooth_transition(r) * _smooth_transition_deriv2(q)
        ) / delta**2

    return ScalarFunction(
        name="smoothstep", params=(a, b, delta), eval=ev, deriv=dv,
        deriv2=dv2, domain=(-_INF, _INF),
    )


def _make_power(p: float) -> ScalarFunction:
    p = float(p)

    def ev(x):
        return np.asarray(x, dtype=float) ** p

    def dv(x):
        return p * np.asarray(x, dtype=float) ** (p - 1.0)

    def dv2(x):
        return p * (p - 1.0) * np.asarray(x, dtype=float) ** (p - 2.0)

    return ScalarFunction(
        name="power", params=(p,), eval=ev, deriv=dv, deriv2=dv2,
        domain=(0.0, _INF), degree=p,
    )


def _asf(x):
    return np.asarray(x, dtype=float)


_FACTORIES = {
    "identity": lambda: ScalarFunction(
        "identity", (), lambda x: _asf(x) + 0.0, lambda x: np.ones_like(_asf(x)),
        lambda x: np.zeros_like(_asf(x)), (-_INF, _INF), (0.0, 1.0), 1.0),
    "square": lambda: ScalarFunction(
        "square", (), lambda x: _asf(x) ** 2, lambda x: 2.0 * _asf(x),
        lambda x: np.full_like(_asf(x), 2.0), (-_INF, _INF), (0.0, 0.0, 1.0),
        2.0),
    "cube": lambda: ScalarFunction(
        "cube", (), lambda x: _asf(x) ** 3, lambda x: 3.0 * _asf(x) ** 2,
        lambda x: 6.0 * _asf(x), (-_INF, _INF), (0.0, 0.0, 0.0, 1.0), 3.0),
    "log": lambda: ScalarFunction(
        "log", (), lambda x: np.log(_asf(x)), lambda x: 1.0 / _asf(x),
        lambda x: -1.0 / _asf(x) ** 2, (0.0, _INF), degree=0.0),
    "exp": lambda: ScalarFunction(
        "exp", (), lambda x: np.exp(_asf(x)), lambda x: np.exp(_asf(x)),
        lambda x: np.exp(_asf(x)), (-_INF, _INF)),
    "power": _make_power,
    "smoothstep": _make_smoothstep,
}

REGISTRY = tuple(_FACTORIES)


def get_function(name: str, *params) -> ScalarFunction:
    """Look up a registry member, e.g. ``get_function('power', 0.5)``."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise DomainError(
            f"unknown function {name!r}; registry: {', '.join(REGISTRY)}"
        ) from None
    return factory(*params)


def parse_function_spec(spec: str) -> ScalarFunction:
    """Parse ``name`` or ``name:p1,p2,...`` into a registry member."""
    name, _, rest = spec.partition(":")
    name = name.strip()
    params = []
    if rest.strip():
        for tok in rest.split(","):
            try:
                params.append(float(tok))
            except ValueError:
                raise DomainError(f"bad parameter {tok!r} in function spec {spec!r}") from None
    try:
        return get_function(name, *params)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"bad parameters for {name!r}: {exc}") from None
