"""Registry of concrete kernels h and coefficient functions g.

Each kernel carries exactly the data the series engines consume: a strip
evaluator and per-pole principal parts. Each coefficient function carries a
complex evaluator and closed-form jets (derivative stacks) at the
non-negative integers.

Addressable ids (CLI surface):

    kernels:       pi_csc, gamma, psi, gamma_cos_half, gamma_squared,
                   gamma_deriv:m, pi_csc_deriv:m, pi_csc_pow:m
    coefficients:  const_one, power_a:a, inv_gamma, sin_gamma, inv_linear
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional

from . import specfun
from .errors import PoleArgumentError, UnknownIdError
from .jets import (Jet, PrincipalPart, series_exp, series_power, series_product,
                   series_reciprocal)

__all__ = [
    "KernelFunction", "CoefficientFunction", "PrincipalPart",
    "kernel", "coefficient", "kernel_ids", "coefficient_ids", "scaled",
]

PI = math.pi

# factorial-residue coefficients underflow double precision near k = 170;
# beyond that the pole carries no representable data and is encoded order 0
_FACTORIAL_FLOOR = 170


@dataclass(frozen=True)
class KernelFunction:
    """A meromorphic kernel with poles on the non-positive integers."""

    id: str
    eval: Callable
    principal_part: Callable[[int], PrincipalPart]
    # unused: perfbench/layertrace.py still wraps this field by name
    phi_eval: Optional[Callable] = None


@dataclass(frozen=True)
class CoefficientFunction:
    """An analytic coefficient function on the right half-plane Re(z) > -delta
    (delta = inf: entire), which bounds a representation's strip to
    Re(s) < delta."""

    id: str
    eval: Callable
    jet: Callable[[int, int], Jet]
    delta: float = 1.0
    growth_meta: Optional[tuple] = None  # (C, P, A) when known


def _sinpi(z):
    if isinstance(z, complex):
        return specfun._sinpi_complex(z)
    return specfun._sinpi_real(z)


def _cospi(z):
    if isinstance(z, complex):
        return specfun._sinpi_complex(z + 0.5)
    return specfun._cospi_real(z)


def _inv_factorial(k: int) -> float:
    return 1.0 / float(math.factorial(k)) if k <= _FACTORIAL_FLOOR else 0.0


# ---------------------------------------------------------------------------
# kernels

def _kernel_pi_csc() -> KernelFunction:
    def ev(s):
        if specfun._near_int(s):
            raise PoleArgumentError(f"pi/sin(pi s) pole at integer s={s!r}")
        return PI / _sinpi(s)

    def pp(k):
        return PrincipalPart(k, 1, (-1.0 if k % 2 else 1.0,))

    return KernelFunction("pi_csc", ev, pp)


def _kernel_gamma() -> KernelFunction:
    def pp(k):
        c = _inv_factorial(k)
        if c == 0.0:
            return PrincipalPart(k, 0, ())
        return PrincipalPart(k, 1, (-c if k % 2 else c,))

    return KernelFunction("gamma", specfun.gamma, pp)


def _kernel_psi() -> KernelFunction:
    return KernelFunction("psi", lambda s: specfun.polygamma(0, s),
                          lambda k: PrincipalPart(k, 1, (-1.0,)))


def _kernel_gamma_cos_half() -> KernelFunction:
    def ev(s):
        return specfun.gamma(s) * _cospi(0.5 * s)

    def pp(k):
        if k % 2:
            return PrincipalPart(k, 0, ())  # odd poles cancelled by the cosine zero
        c = _inv_factorial(k)
        if c == 0.0:
            return PrincipalPart(k, 0, ())
        sign = -1.0 if (k // 2) % 2 else 1.0
        return PrincipalPart(k, 1, (sign * c,))

    return KernelFunction("gamma_cos_half", ev, pp)


def _kernel_gamma_squared() -> KernelFunction:
    def ev(s):
        g = specfun.gamma(s)
        return g * g

    def pp(k):
        c2 = _inv_factorial(k) ** 2
        if c2 == 0.0:
            return PrincipalPart(k, 0, ())
        c1 = 2.0 * (specfun.harmonic(k) - specfun.EULER_GAMMA) * c2
        return PrincipalPart(k, 2, (c1, c2))

    return KernelFunction("gamma_squared", ev, pp)


def _kernel_gamma_deriv(m: int) -> KernelFunction:
    if m == 0:
        return _kernel_gamma()

    def ev(s):
        return specfun.gamma_deriv(m, s)

    def pp(k):
        # differentiating m times turns the simple pole with residue r into
        # a pole of order m+1 with sole principal coefficient (-1)^m m! r
        r = _inv_factorial(k)
        if r == 0.0:
            return PrincipalPart(k, 0, ())
        if k % 2:
            r = -r
        lead = (-1.0 if m % 2 else 1.0) * math.factorial(m) * r
        return PrincipalPart(k, m + 1, (0.0,) * m + (lead,))

    return KernelFunction(f"gamma_deriv:{m}", ev, pp)


def _kernel_pi_csc_deriv(m: int) -> KernelFunction:
    if m == 0:
        return _kernel_pi_csc()

    def ev(s):
        return specfun.csc_deriv(m, s)

    def pp(k):
        r = -1.0 if k % 2 else 1.0
        lead = (-1.0 if m % 2 else 1.0) * math.factorial(m) * r
        return PrincipalPart(k, m + 1, (0.0,) * m + (lead,))

    return KernelFunction(f"pi_csc_deriv:{m}", ev, pp)


def _csc_power_principal_coeffs(m: int) -> list:
    # (pi/sin(pi u))^m = u^{-m} S(u)^m with S = pi u / sin(pi u);
    # returns [u^0] .. [u^{m-1}] of S^m
    order = m - 1
    sinc = [0.0] * (order + 1)
    sign = 1.0
    p = 1.0
    for j in range(0, order + 1, 2):
        sinc[j] = sign * p / math.factorial(j + 1)
        sign = -sign
        p *= PI * PI
    s = series_reciprocal(sinc, order)
    return series_power(s, m, order)


def _kernel_pi_csc_pow(m: int) -> KernelFunction:
    if m == 1:
        return _kernel_pi_csc()
    taylor = _csc_power_principal_coeffs(m)

    def ev(s):
        return specfun.csc_power(m, s)

    def pp(k):
        sgn = -1.0 if (k * m) % 2 else 1.0
        # c_{-j} = sgn * [u^{m-j}] S^m
        coeffs = tuple(sgn * taylor[m - j] for j in range(1, m + 1))
        return PrincipalPart(k, m, coeffs)

    return KernelFunction(f"pi_csc_pow:{m}", ev, pp)


# ---------------------------------------------------------------------------
# coefficient functions

def _coeff_const_one() -> CoefficientFunction:
    def jet(k, order):
        return Jet(k, order, (1.0,) + (0.0,) * order)

    return CoefficientFunction("const_one", lambda z: 1.0, jet, delta=math.inf,
                               growth_meta=(1.0, 0.0, 0.0))


def _coeff_power_a(a: float) -> CoefficientFunction:
    if not (a > 0.0 and math.isfinite(a)):
        raise UnknownIdError(f"power_a needs a finite parameter a > 0, got {a}")
    ln_a = math.log(a)

    def ev(z):
        if isinstance(z, complex):
            return cmath.exp(z * ln_a)
        return math.exp(z * ln_a)

    def jet(k, order):
        ak = a ** k
        derivs = []
        p = 1.0
        for _ in range(order + 1):
            derivs.append(ak * p)
            p *= ln_a
        return Jet(k, order, tuple(derivs))

    return CoefficientFunction(f"power_a:{a:g}", ev, jet, delta=math.inf,
                               growth_meta=(1.0, ln_a, 0.0))


def _loggamma_taylor(k: int, order: int) -> list:
    # Taylor coefficients (without the constant) of log Gamma(1 + k + u) at u=0
    out = [0.0] * (order + 1)
    for j in range(1, order + 1):
        out[j] = specfun.polygamma(j - 1, 1.0 + k) / math.factorial(j)
    return out


def _coeff_inv_gamma() -> CoefficientFunction:
    def ev(z):
        return specfun.gamma_reciprocal(1.0 + z)

    def jet(k, order):
        lg = _loggamma_taylor(k, order)
        coeffs = series_exp([-c for c in lg], order)
        scale = _inv_factorial(k)
        derivs = tuple(scale * coeffs[j] * math.factorial(j) for j in range(order + 1))
        return Jet(k, order, derivs)

    # 1/Gamma(1 + z) is entire
    return CoefficientFunction("inv_gamma", ev, jet, delta=math.inf)


def _coeff_sin_gamma() -> CoefficientFunction:
    def ev(z):
        return _sinpi(z) * specfun.gamma(1.0 + z)

    def jet(k, order):
        # sin(pi(k+u)) = (-1)^k sin(pi u)
        sgn = -1.0 if k % 2 else 1.0
        s = [0.0] * (order + 1)
        sign = sgn
        p = PI
        for j in range(1, order + 1, 2):
            s[j] = sign * p / math.factorial(j)
            sign = -sign
            p *= PI * PI
        gam = series_exp(_loggamma_taylor(k, order), order)
        fk = float(math.factorial(k))
        prod = series_product(s, gam, order)
        derivs = tuple(fk * prod[j] * math.factorial(j) for j in range(order + 1))
        return Jet(k, order, derivs)

    # sin(pi z) Gamma(1 + z) = pi z / Gamma(1 - z) is entire: the zeros of
    # sin(pi z) cancel the poles of Gamma(1 + z) at z = -1, -2, ...
    return CoefficientFunction("sin_gamma", ev, jet, delta=math.inf)


def _coeff_inv_linear() -> CoefficientFunction:
    def ev(z):
        return 1.0 / (z + 1.0)

    def jet(k, order):
        b = k + 1.0
        derivs = []
        v = 1.0 / b
        for j in range(order + 1):
            derivs.append(v * math.factorial(j) * (-1.0 if j % 2 else 1.0))
            v /= b
        return Jet(k, order, tuple(derivs))

    # the pole at z = -1 bounds the half-plane
    return CoefficientFunction("inv_linear", ev, jet, delta=1.0)


# ---------------------------------------------------------------------------
# scaling (jets scale by linearity)

def scaled(c, g: CoefficientFunction) -> CoefficientFunction:
    def jet(k, order):
        base = g.jet(k, order)
        return Jet(k, order, tuple(c * v for v in base.derivs))

    return CoefficientFunction(f"scaled({c:g},{g.id})",
                               lambda z: c * g.eval(z), jet, g.delta, g.growth_meta)


# ---------------------------------------------------------------------------
# registry lookups

_KERNEL_BUILDERS = {
    "pi_csc": lambda: _kernel_pi_csc(),
    "gamma": lambda: _kernel_gamma(),
    "psi": lambda: _kernel_psi(),
    "gamma_cos_half": lambda: _kernel_gamma_cos_half(),
    "gamma_squared": lambda: _kernel_gamma_squared(),
}

_PARAM_KERNELS = {
    "gamma_deriv": _kernel_gamma_deriv,
    "pi_csc_deriv": _kernel_pi_csc_deriv,
    "pi_csc_pow": _kernel_pi_csc_pow,
}

_COEFF_BUILDERS = {
    "const_one": lambda: _coeff_const_one(),
    "inv_gamma": lambda: _coeff_inv_gamma(),
    "sin_gamma": lambda: _coeff_sin_gamma(),
    "inv_linear": lambda: _coeff_inv_linear(),
}


def _split_id(full_id: str) -> tuple[str, Optional[str]]:
    if ":" in full_id:
        name, param = full_id.split(":", 1)
        return name, param
    return full_id, None


def kernel(kernel_id: str) -> KernelFunction:
    """Look up a kernel by id, e.g. ``gamma`` or ``gamma_deriv:2``."""
    name, param = _split_id(kernel_id)
    if name in _KERNEL_BUILDERS:
        if param is not None:
            raise UnknownIdError(f"kernel {name} takes no parameter")
        return _KERNEL_BUILDERS[name]()
    if name in _PARAM_KERNELS:
        if param is None:
            raise UnknownIdError(f"kernel {name} needs an integer parameter, e.g. {name}:1")
        try:
            m = int(param)
        except ValueError:
            raise UnknownIdError(f"kernel parameter must be an integer, got {param!r}")
        if m < 0 or (name == "pi_csc_pow" and m < 1):
            raise UnknownIdError(f"kernel parameter out of range for {name}: {m}")
        return _PARAM_KERNELS[name](m)
    raise UnknownIdError(f"unknown kernel id {kernel_id!r}")


def coefficient(coeff_id: str) -> CoefficientFunction:
    """Look up a coefficient function by id, e.g. ``const_one`` or ``power_a:2``."""
    name, param = _split_id(coeff_id)
    if name in _COEFF_BUILDERS:
        if param is not None:
            raise UnknownIdError(f"coefficient {name} takes no parameter")
        return _COEFF_BUILDERS[name]()
    if name == "power_a":
        if param is None:
            raise UnknownIdError("coefficient power_a needs a parameter, e.g. power_a:2")
        try:
            a = float(param)
        except ValueError:
            raise UnknownIdError(f"coefficient parameter must be a number, got {param!r}")
        return _coeff_power_a(a)
    raise UnknownIdError(f"unknown coefficient id {coeff_id!r}")


def kernel_ids() -> list[str]:
    return sorted(_KERNEL_BUILDERS) + [f"{n}:m" for n in sorted(_PARAM_KERNELS)]


def coefficient_ids() -> list[str]:
    return sorted(_COEFF_BUILDERS) + ["power_a:a"]
