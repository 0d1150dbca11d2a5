"""Self-contained special functions used on both sides of the identities.

Everything here is double precision on the public surface. Series kernels
accumulate with Neumaier-compensated (two-float) sums so that
cancellation-prone tails stay well below the acceptance tolerances.

Algorithms:

* ``gamma``     -- Lanczos approximation (g = 10.900511, 11 terms) on the
                   base strip Re(s) in [0.5, 2.5], recurrence shift for
                   larger Re, Euler reflection for Re(s) < 0.5.
* ``polygamma`` -- recurrence shift to Re(s) >= 16, then the Bernoulli
                   asymptotic series.
* ``bessel_k0`` -- ascending series (harmonic-number form) for x <= 2,
                   Steed-style continued fraction for x > 2.
* ``polylog``   -- direct series on |x| <= 1/2, reflection / Landen /
                   inversion maps elsewhere; principal branch above x = 1.
* ``expx_gamma0`` -- series for small x, modified-Lentz continued fraction
                   for large x, never forming the overflowing product.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, OrderTooHighError, PoleArgumentError

EULER_GAMMA = 0.5772156649015328606065120900824024
ZETA2 = math.pi * math.pi / 6.0
ZETA3 = 1.2020569031595942853997381615114500
PI = math.pi

#: maximum derivative order accepted by :func:`gamma_deriv`
MAX_GAMMA_DERIV_ORDER = 6

_POLE_TOL = 1e-12

# ---------------------------------------------------------------------------
# compensated accumulation

def _neumaier_add(total: float, comp: float, term: float) -> tuple[float, float]:
    new = total + term
    if abs(total) >= abs(term):
        comp += (total - new) + term
    else:
        comp += (term - new) + total
    return new, comp


# ---------------------------------------------------------------------------
# gamma

_LANCZOS_G = 10.900511
_LANCZOS_DK = (
    2.48574089138753565546e-5,
    1.05142378581721974210,
    -3.45687097222016235469,
    4.51227709466894823700,
    -2.98285225323576655721,
    1.05639711577126713077,
    -1.95428773191645869583e-1,
    1.70970543404441224307e-2,
    -5.71926117404305781283e-4,
    4.63399473359905636708e-6,
    -2.71994908488607703910e-9,
)
_TWO_SQRT_E_OVER_PI = 2.0 * math.sqrt(math.e / math.pi)


def _near_nonpositive_int(s) -> bool:
    re = s.real if isinstance(s, complex) else s
    im = s.imag if isinstance(s, complex) else 0.0
    if abs(im) > _POLE_TOL:
        return False
    k = round(re)
    return k <= 0 and abs(re - k) <= _POLE_TOL


def _check_finite(s, name: str = "argument") -> None:
    re = s.real if isinstance(s, complex) else s
    im = s.imag if isinstance(s, complex) else 0.0
    if not (math.isfinite(re) and math.isfinite(im)):
        raise DomainError(f"{name} must have finite components, got {s!r}")


def _lanczos_strip_real(x: float) -> float:
    # valid for x in [0.5, 2.5]; exponent stays small so the power is exact
    s = _LANCZOS_DK[0]
    for i in range(1, 11):
        s += _LANCZOS_DK[i] / (x + i - 1.0)
    a = x - 0.5
    return s * _TWO_SQRT_E_OVER_PI * math.exp(a * (math.log(a + _LANCZOS_G) - 1.0))


def _lanczos_strip_complex(z: complex) -> complex:
    s = complex(_LANCZOS_DK[0])
    for i in range(1, 11):
        s += _LANCZOS_DK[i] / (z + (i - 1.0))
    a = z - 0.5
    return s * _TWO_SQRT_E_OVER_PI * cmath.exp(a * (cmath.log(a + _LANCZOS_G) - 1.0))


def _gamma_real(x: float) -> float:
    if x < 0.5:
        # reflection; sinpi via argument reduction keeps accuracy near poles
        return math.pi / (_sinpi_real(x) * _gamma_real(1.0 - x))
    fac = 1.0
    while x > 2.5:
        x -= 1.0
        fac *= x
    return fac * _lanczos_strip_real(x)


def _gamma_complex(z: complex) -> complex:
    if z.real < 0.5:
        return math.pi / (_sinpi_complex(z) * _gamma_complex(1.0 - z))
    fac = complex(1.0)
    while z.real > 2.5:
        z -= 1.0
        fac *= z
    return fac * _lanczos_strip_complex(z)


def _sinpi_real(x: float) -> float:
    # sin(pi x) with argument reduction so accuracy survives large |x|
    r = x - math.floor(x)
    v = math.sin(math.pi * r)
    if int(math.floor(x)) & 1:
        v = -v
    return v


def _cospi_real(x: float) -> float:
    return _sinpi_real(x + 0.5)


def _sinpi_complex(z: complex) -> complex:
    if z.imag == 0.0:
        return complex(_sinpi_real(z.real), 0.0)
    n = math.floor(z.real)
    r = z - n
    v = cmath.sin(math.pi * r)
    if int(n) & 1:
        v = -v
    return v


def gamma(s):
    """Gamma function for real or complex ``s`` off the non-positive integers."""
    _check_finite(s, "gamma argument")
    if _near_nonpositive_int(s):
        raise PoleArgumentError(f"gamma pole at non-positive integer s={s!r}")
    if isinstance(s, complex):
        return _gamma_complex(s)
    return _gamma_real(float(s))


def gamma_reciprocal(s):
    """1/Gamma(s); entire, returns 0 at the non-positive integers."""
    _check_finite(s, "gamma_reciprocal argument")
    if _near_nonpositive_int(s):
        return 0.0 if not isinstance(s, complex) else complex(0.0)
    if isinstance(s, complex):
        if s.real < 0.5:
            return _sinpi_complex(s) * _gamma_complex(1.0 - s) / math.pi
        return 1.0 / _gamma_complex(s)
    x = float(s)
    if x < 0.5:
        return _sinpi_real(x) * _gamma_real(1.0 - x) / math.pi
    return 1.0 / _gamma_real(x)


# ---------------------------------------------------------------------------
# polygamma

# Bernoulli numbers B_2, B_4, ..., B_28
_BERNOULLI_2N = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
    854513.0 / 138.0,
    -236364091.0 / 2730.0,
    8553103.0 / 6.0,
    -23749461029.0 / 870.0,
)

_PSI_SHIFT = 16.0


def _polygamma_asymptotic(m: int, z):
    # valid for Re(z) >= _PSI_SHIFT
    z2 = 1.0 / (z * z)
    if m == 0:
        log = cmath.log if isinstance(z, complex) else math.log
        s = log(z) - 0.5 / z
        zp = z2
        for n, b2n in enumerate(_BERNOULLI_2N, start=1):
            s -= b2n / (2 * n) * zp
            zp *= z2
        return s
    sign = 1.0 if m % 2 == 1 else -1.0
    zmi = z ** (-m)
    s = math.factorial(m - 1) * zmi + math.factorial(m) / 2.0 * zmi / z
    zp = zmi * z2
    for n, b2n in enumerate(_BERNOULLI_2N, start=1):
        coef = b2n * math.factorial(2 * n + m - 1) / math.factorial(2 * n)
        s += coef * zp
        zp *= z2
    return sign * s


def polygamma(m: int, s):
    """m-th polygamma function psi^(m)(s), m >= 0."""
    if m < 0:
        raise DomainError(f"polygamma order must be >= 0, got {m}")
    _check_finite(s, "polygamma argument")
    if _near_nonpositive_int(s):
        raise PoleArgumentError(f"polygamma pole at non-positive integer s={s!r}")
    z = complex(s) if isinstance(s, complex) else float(s)
    # shift until the asymptotic series applies:
    # psi^(m)(z) = psi^(m)(z+1) - (-1)^m m! z^{-m-1}
    corr_total = 0.0 if not isinstance(z, complex) else complex(0.0)
    mfact = math.factorial(m)
    w = z
    while (w.real if isinstance(w, complex) else w) < _PSI_SHIFT:
        if m == 0:
            corr_total -= 1.0 / w
        else:
            corr_total -= (-1.0) ** m * mfact * w ** (-m - 1)
        w = w + 1.0
    return _polygamma_asymptotic(m, w) + corr_total


# ---------------------------------------------------------------------------
# derivatives of gamma

def gamma_deriv(m: int, s):
    """m-th derivative of Gamma at ``s`` via the Leibniz recurrence
    Gamma^(m) = sum_j C(m-1, j) Gamma^(j) psi^(m-1-j)."""
    if m < 0:
        raise DomainError(f"derivative order must be >= 0, got {m}")
    if m > MAX_GAMMA_DERIV_ORDER:
        raise OrderTooHighError(
            f"gamma_deriv supports m <= {MAX_GAMMA_DERIV_ORDER}, got {m}")
    g = gamma(s)
    if m == 0:
        return g
    derivs = [g]
    psis = [polygamma(j, s) for j in range(m)]
    for order in range(1, m + 1):
        acc = 0.0
        for j in range(order):
            acc += math.comb(order - 1, j) * derivs[j] * psis[order - 1 - j]
        derivs.append(acc)
    return derivs[m]


# ---------------------------------------------------------------------------
# cosecant powers and derivatives

def _near_int(s) -> bool:
    re = s.real if isinstance(s, complex) else s
    im = s.imag if isinstance(s, complex) else 0.0
    return abs(im) <= _POLE_TOL and abs(re - round(re)) <= _POLE_TOL


def csc_deriv(m: int, s):
    """d^m/ds^m of pi/sin(pi s), m >= 0, s off the integers.

    Built from the Taylor jet of sin(pi(s+u)) at u = 0 and power-series
    reciprocation; exact in exact arithmetic for any m.
    """
    if m < 0:
        raise DomainError(f"derivative order must be >= 0, got {m}")
    _check_finite(s, "csc_deriv argument")
    if _near_int(s):
        raise PoleArgumentError(f"pi/sin(pi s) pole at integer s={s!r}")
    is_cplx = isinstance(s, complex)
    sin = cmath.sin if is_cplx else math.sin
    cos = cmath.cos if is_cplx else math.cos
    sv, cv = sin(PI * s), cos(PI * s)
    # a_j = (pi^j / j!) * sin(pi s + j pi/2)
    quadrant = (sv, cv, -sv, -cv)
    a = []
    pj = 1.0
    for j in range(m + 1):
        a.append(pj / math.factorial(j) * quadrant[j % 4])
        pj *= PI
    b = [1.0 / a[0]]
    for n in range(1, m + 1):
        acc = 0.0
        for j in range(1, n + 1):
            acc += a[j] * b[n - j]
        b.append(-acc / a[0])
    return PI * math.factorial(m) * b[m]


def csc_power(m: int, s):
    """(pi/sin(pi s))^m -- the right-hand-side factor of the cosecant-power
    conjecture."""
    if m < 0:
        raise DomainError(f"power must be >= 0, got {m}")
    _check_finite(s, "csc_power argument")
    if m == 0:
        return 1.0
    if _near_int(s):
        raise PoleArgumentError(f"pi/sin(pi s) pole at integer s={s!r}")
    sin = cmath.sin if isinstance(s, complex) else math.sin
    return (PI / sin(PI * s)) ** m


# ---------------------------------------------------------------------------
# harmonic numbers

def harmonic(k: int) -> float:
    """k-th harmonic number H_k = sum_{j=1..k} 1/j, H_0 = 0."""
    if k < 0:
        raise DomainError(f"harmonic number index must be >= 0, got {k}")
    return math.fsum(1.0 / j for j in range(1, k + 1))


# ---------------------------------------------------------------------------
# modified Bessel K0

def _k0_series(x: float) -> float:
    # K0(x) = -(ln(x/2)+gamma) I0(x) + sum_{k>=1} H_k (x^2/4)^k/(k!)^2
    q = 0.25 * x * x
    lead = -(math.log(0.5 * x) + EULER_GAMMA)
    term = 1.0
    hk = 0.0
    total, comp = lead, 0.0
    for k in range(1, 300):
        term *= q / (k * k)
        hk += 1.0 / k
        t = term * (lead + hk)
        total, comp = _neumaier_add(total, comp, t)
        if abs(t) < 1e-18 * abs(total) and k > 3:
            break
    return total + comp


def _k0_cf(x: float) -> float:
    # Steed-style continued fraction (Temme's CF2 with mu = 0); converges for
    # x down to ~1, machine precision for x >= 1.2
    eps = 1e-16
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = d
    delh = d
    q1, q2 = 0.0, 1.0
    a1 = 0.25
    q = a1
    c = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, 500):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1, q2 = q2, qnew
        q += c * qnew
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels / s) <= eps:
            break
    return math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) / s


def bessel_k0(x: float) -> float:
    """Modified Bessel function of the second kind K0(x), x > 0."""
    if not (isinstance(x, (int, float)) and math.isfinite(x)):
        raise DomainError(f"bessel_k0 needs a finite real argument, got {x!r}")
    if x <= 0.0:
        raise DomainError(f"bessel_k0 domain is x > 0, got {x}")
    if x <= 2.0:
        return _k0_series(x)
    return _k0_cf(x)


# ---------------------------------------------------------------------------
# polylogarithms Li2, Li3 (real axis; principal branch above x = 1)

def _li_series(n: int, x: float) -> float:
    total, comp = 0.0, 0.0
    xk = 1.0
    for k in range(1, 400):
        xk *= x
        t = xk / k ** n
        total, comp = _neumaier_add(total, comp, t)
        if abs(t) < 1e-18 * abs(total):
            break
    return total + comp


def _li2_real(x: float) -> float:
    # real x <= 1, or the real part for x > 1 (callers split the branch)
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return ZETA2
    if x < -1.0:
        return -ZETA2 - 0.5 * math.log(-x) ** 2 - _li2_real(1.0 / x)
    if x < 0.0:
        # Landen map into (0, 1/2]
        return -_li_series(2, x / (x - 1.0)) - 0.5 * math.log1p(-x) ** 2
    if x <= 0.5:
        return _li_series(2, x)
    if x < 1.0:
        return ZETA2 - math.log(x) * math.log1p(-x) - _li_series(2, 1.0 - x)
    # x > 1: real part under the principal branch
    return 2.0 * ZETA2 - 0.5 * math.log(x) ** 2 - _li2_real(1.0 / x)


# zeta(3-k) for the Li3 log-series: zeta(0), zeta(-1), zeta(-2), ...
# zeta(-n) = -B_{n+1}/(n+1), zero at negative even integers
_ZETA_NONPOS = (
    -0.5,            # zeta(0)
    -1.0 / 12.0,     # zeta(-1)
    0.0,
    1.0 / 120.0,     # zeta(-3)
    0.0,
    -1.0 / 252.0,    # zeta(-5)
    0.0,
    1.0 / 240.0,     # zeta(-7)
    0.0,
    -1.0 / 132.0,    # zeta(-9)
    0.0,
    691.0 / 32760.0,  # zeta(-11)
    0.0,
    -1.0 / 12.0,     # zeta(-13)
    0.0,
    3617.0 / 8160.0,  # zeta(-15)
    0.0,
    -43867.0 / 14364.0,  # zeta(-17)
    0.0,
    174611.0 / 6600.0,   # zeta(-19)
)


def _li3_log_series(x: float) -> float:
    # Li3(e^u) = zeta(3) + zeta(2) u + u^2/2 (3/2 - ln(-u)) + sum_{k>=3} zeta(3-k) u^k/k!
    # requires u = ln(x) in (-2pi, 0); used on x in (0.5, 1)
    u = math.log(x)
    total = ZETA3 + ZETA2 * u + 0.5 * u * u * (1.5 - math.log(-u))
    uk = u * u
    fact = 2.0
    for k in range(3, 3 + len(_ZETA_NONPOS)):
        uk *= u
        fact *= k
        z = _ZETA_NONPOS[k - 3]
        if z != 0.0:
            total += z * uk / fact
    return total


def _li3_real(x: float) -> float:
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return ZETA3
    if x == -1.0:
        return -0.75 * ZETA3
    if abs(x) <= 0.5:
        return _li_series(3, x)
    if x < -1.0:
        lx = math.log(-x)
        return _li3_real(1.0 / x) - ZETA2 * lx - lx ** 3 / 6.0
    if x < 0.0:
        # square identity: Li3(x) + Li3(-x) = Li3(x^2)/4
        return 0.25 * _li3_real(x * x) - _li3_real(-x)
    if x < 1.0:
        return _li3_log_series(x)
    # x > 1: real part under the principal branch
    lx = math.log(x)
    return _li3_real(1.0 / x) + 2.0 * ZETA2 * lx - lx ** 3 / 6.0


def polylog(n: int, x: float):
    """Polylogarithm Li_n(x) for n in {2, 3} and real x.

    Returns a float for x <= 1; for x > 1 the principal branch is used and a
    complex value is returned (Im Li2 = -pi ln x, Im Li3 = -pi/2 ln^2 x).
    """
    if n not in (2, 3):
        raise DomainError(f"polylog order must be 2 or 3, got {n}")
    if not math.isfinite(x):
        raise DomainError(f"polylog needs a finite real argument, got {x!r}")
    real = _li2_real(x) if n == 2 else _li3_real(x)
    if x <= 1.0:
        return real
    lx = math.log(x)
    imag = -PI * lx if n == 2 else -0.5 * PI * lx * lx
    return complex(real, imag)


def re_combo2(x: float) -> float:
    """Real value of log(1-x) log(x) + Li2(x) for x >= 1.

    For x > 1 both terms acquire imaginary parts (+i pi log x from the log,
    -i pi log x from Li2 on the principal branch); they cancel and the real
    combination below is what remains.
    """
    if x < 1.0:
        raise DomainError(f"re_combo2 is the x >= 1 branch helper, got {x}")
    if x == 1.0:
        return ZETA2
    return math.log(x - 1.0) * math.log(x) + _li2_real(x)


# ---------------------------------------------------------------------------
# scaled incomplete gamma  e^x Gamma(0, x) = e^x E1(x)

def _e1_series(x: float) -> float:
    total = -EULER_GAMMA - math.log(x)
    comp = 0.0
    term = 1.0
    for k in range(1, 200):
        term *= -x / k
        t = -term / k
        total, comp = _neumaier_add(total, comp, t)
        if abs(t) < 1e-18 * abs(total):
            break
    return total + comp


def _expx_e1_cf(x: float) -> float:
    # e^x E1(x) = 1/(x+1 - 1/(x+3 - 4/(x+5 - 9/(x+7 - ...)))), modified Lentz
    tiny = 1e-300
    b = x + 1.0
    f = b if b != 0.0 else tiny
    c = f
    d = 0.0
    for i in range(1, 300):
        a = -float(i * i)
        b += 2.0
        d = b + a * d
        if d == 0.0:
            d = tiny
        c = b + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return 1.0 / f


def expx_gamma0(x: float) -> float:
    """e^x * Gamma(0, x) for x > 0, stable for large x (never forms e^x)."""
    if not math.isfinite(x):
        raise DomainError(f"expx_gamma0 needs a finite real argument, got {x!r}")
    if x <= 0.0:
        raise DomainError(f"expx_gamma0 domain is x > 0, got {x}")
    if x <= 1.2:
        return math.exp(x) * _e1_series(x)
    return _expx_e1_cf(x)
