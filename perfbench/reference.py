"""Independent reference values for the benchmark's checks.

Every value here is computed with mpmath at 30 digits straight from the
mathematics, never through mellinkit's own special functions, so a check
against it can catch a wrong closed form as well as a wrong quadrature.
"""

from __future__ import annotations

import math

import mpmath as mp

#: working precision of every reference value, in decimal digits
DPS = 30


def _csc(s):
    return mp.pi / mp.sin(mp.pi * s)


def _gamma_d1(s):
    return mp.gamma(s) * mp.digamma(s)


def _gamma_d2(s):
    return mp.gamma(s) * (mp.digamma(s) ** 2 + mp.psi(1, s))


def _csc_d1(s):
    # d/ds pi/sin(pi s)
    return -mp.pi ** 2 * mp.cos(mp.pi * s) / mp.sin(mp.pi * s) ** 2


def _csc_d2(s):
    # d^2/ds^2 pi/sin(pi s) = pi^3 csc(pi s) (cot^2(pi s) + csc^2(pi s))
    sn, cs = mp.sin(mp.pi * s), mp.cos(mp.pi * s)
    return mp.pi ** 3 * (cs ** 2 + 1) / sn ** 3


#: identity id -> (strip lo, strip hi, tolerance, closed-form right-hand side)
IDENTITIES = {
    "gamma_bernoulli": (0.0, 1.0, 1e-8, mp.gamma),
    "pi_csc_geometric": (0.0, 1.0, 1e-8, _csc),
    "gamma_scaled:0.5": (0.0, 1.0, 1e-8, lambda s: mp.gamma(s) * mp.mpf(0.5) ** (-s)),
    "gamma_scaled:2": (0.0, 1.0, 1e-8, lambda s: mp.gamma(s) * mp.mpf(2) ** (-s)),
    "cos_mellin:1": (0.0, 1.0, 1e-6, lambda s: mp.gamma(s) * mp.cos(mp.pi * s / 2)),
    "cos_mellin:2": (0.0, 1.0, 1e-6,
                     lambda s: mp.mpf(2) ** (-s) * mp.gamma(s) * mp.cos(mp.pi * s / 2)),
    "gamma_squared_rep": (0.0, 1.0, 1e-8, lambda s: mp.gamma(s) ** 2),
    "k0_pi": (0.5, 1.5, 1e-8, lambda s: mp.gamma(s - mp.mpf(0.5)) ** 2 / 2),
    "csc_deriv_rep:1": (0.0, 1.0, 1e-8, _csc_d1),
    "gamma_deriv_rep:1": (0.0, 1.0, 1e-8, _gamma_d1),
    "gamma_deriv_rep:2": (0.0, 1.0, 1e-8, _gamma_d2),
    "gamma_sq_sin_gamma": (0.0, 1.0, 1e-8,
                           lambda s: mp.gamma(s) ** 2 * mp.sin(-mp.pi * s) * mp.gamma(1 - s)),
    "conjecture:m=2:const_one": (0.0, 1.0, 1e-7, lambda s: -_csc(s) ** 2),
    "conjecture:m=3:const_one": (0.0, 1.0, 1e-7, lambda s: 2 * _csc(s) ** 3),
    "conjecture:m=2:inv_gamma": (0.0, 1.0, 1e-7,
                                 lambda s: -_csc(s) ** 2 * mp.rgamma(1 - s)),
    "conjecture:m=2:inv_linear": (0.0, 1.0, 1e-6, lambda s: -_csc(s) ** 2 / (1 - s)),
    "conjecture:m=3:inv_linear": (0.0, 1.0, 1e-6, lambda s: 2 * _csc(s) ** 3 / (1 - s)),
}

#: kernel id -> h(s), for the kernels whose g = 1 representation the
#: ``mellin --kernel`` command evaluates
KERNELS = {
    "gamma": mp.gamma,
    "pi_csc": _csc,
    "gamma_squared": lambda s: mp.gamma(s) ** 2,
    "gamma_cos_half": lambda s: mp.gamma(s) * mp.cos(mp.pi * s / 2),
    "gamma_deriv:1": _gamma_d1,
    "gamma_deriv:2": _gamma_d2,
    "pi_csc_deriv:1": _csc_d1,
    "pi_csc_deriv:2": _csc_d2,
    "pi_csc_pow:2": lambda s: _csc(s) ** 2,
    "pi_csc_pow:3": lambda s: _csc(s) ** 3,
}

#: g = 1 representation weights w(x) with M[w](s) = h(s)
WEIGHTS = {
    "gamma": lambda x: mp.exp(-x),
    "pi_csc": lambda x: 1 / (1 + x),
    "gamma_squared": lambda x: 2 * mp.besselk(0, 2 * mp.sqrt(x)),
}

#: open Re(s) range on which each kernel's g = 1 representation converges
REPRESENTATION_STRIP = {
    "gamma": (0.0, math.inf),
    "gamma_squared": (0.0, math.inf),
    "pi_csc": (0.0, 1.0),
}


def value(fn, s) -> complex:
    """fn at s, computed at DPS digits, as a Python complex; s may be real
    or complex."""
    with mp.workdps(DPS):
        z = mp.mpc(s.real, s.imag) if isinstance(s, complex) else mp.mpf(s)
        return complex(fn(z))


def rel_err(got, want) -> float:
    return abs(complex(got) - complex(want)) / max(abs(complex(want)), 1e-300)


def digits(err: float) -> float:
    """Correct decimal digits of a relative error, capped at 17."""
    return -math.log10(max(err, 1e-17))


def digamma(s) -> complex:
    return value(mp.digamma, s)
