"""Truncated Taylor (jet) arithmetic and the differential operators that turn
principal-part data into series terms.

The central objects:

* ``Jet`` -- the stack g(k), g'(k), ..., g^(M)(k) of derivatives of a
  coefficient function at a non-negative integer base point.
* ``shift_row`` -- [(d/dz + log x)^m g](k), expanded binomially.
* ``PmPolynomial`` / ``pm_row`` -- the recursive polynomial family
  P_1 = 1, P_2 = x, P_m = (x^2 + (m-2)^2 pi^2) P_{m-2} applied to the shift
  operator (the cosecant-power summands).
* ``residue_row`` -- the residue of h(z) g(-z) x^{-z} at z = -k, divided by
  x^k, assembled from the principal part of h and a jet of g.

Each operator is a polynomial in log x once the jet is fixed: the ``*_row``
functions return its coefficients, in ascending powers of log x, and
``eval_row`` evaluates such a row. The series engine keeps the rows of a
handle to evaluate them at many x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import JetBaseMismatchError, JetOrderError

_MAX_BINOM_ORDER = 24


@lru_cache(maxsize=None)
def _pascal_row(n: int) -> tuple[int, ...]:
    if n == 0:
        return (1,)
    prev = _pascal_row(n - 1)
    return tuple(
        (prev[i - 1] if i > 0 else 0) + (prev[i] if i < n else 0)
        for i in range(n + 1)
    )


def binomial(n: int, k: int) -> int:
    """Binomial coefficient from the Pascal recurrence (exact integers)."""
    if not 0 <= k <= n:
        return 0
    if n > _MAX_BINOM_ORDER:
        raise JetOrderError(f"binomial table capped at order {_MAX_BINOM_ORDER}")
    return _pascal_row(n)[k]


@dataclass(frozen=True)
class Jet:
    """Derivative stack of a coefficient function at integer base point k."""

    base: int
    order: int
    derivs: tuple

    def __post_init__(self):
        if self.base < 0:
            raise ValueError(f"jet base must be a non-negative integer, got {self.base}")
        if self.order < 0:
            raise ValueError(f"jet order must be >= 0, got {self.order}")
        if len(self.derivs) != self.order + 1:
            raise ValueError(
                f"jet of order {self.order} needs {self.order + 1} derivatives, "
                f"got {len(self.derivs)}")
        for v in self.derivs:
            z = complex(v)
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ValueError(f"non-finite jet entry {v!r}")
        object.__setattr__(self, "derivs", tuple(self.derivs))


@dataclass(frozen=True)
class PrincipalPart:
    """Principal part of a kernel at the pole z = -k.

    ``coeffs[j-1]`` is the coefficient c_{-j} of (z + k)^{-j}; ``order == 0``
    encodes "no pole at -k" (kernels with pole gaps).
    """

    k: int
    order: int
    coeffs: tuple

    def __post_init__(self):
        if self.k < 0:
            raise ValueError(f"pole index must be >= 0, got {self.k}")
        if self.order < 0:
            raise ValueError(f"pole order must be >= 0, got {self.order}")
        if len(self.coeffs) != self.order:
            raise ValueError(
                f"principal part of order {self.order} needs {self.order} "
                f"coefficients, got {len(self.coeffs)}")
        if self.order > 0 and self.coeffs[-1] == 0:
            raise ValueError("leading principal coefficient c_{-N} must be nonzero")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @property
    def residue(self):
        """c_{-1}, the residue (0 when there is no pole)."""
        return self.coeffs[0] if self.order > 0 else 0.0


def shift_row(jet: Jet, m: int) -> tuple:
    """[(d/dz + log x)^m g](k) as a row in powers of log x: entry p is
    C(m, p) g^(m-p)(k)."""
    if m < 0:
        raise JetOrderError(f"operator power must be >= 0, got {m}")
    if jet.order < m:
        raise JetOrderError(
            f"operator power {m} needs a jet of order >= {m}, got {jet.order}")
    return tuple(binomial(m, p) * jet.derivs[m - p] for p in range(m + 1))


def _combine(weighted_rows, length: int) -> tuple:
    """sum of c * row over (c, row) pairs, as one row of ``length``."""
    acc = [0.0] * length
    for c, row in weighted_rows:
        for p, a in enumerate(row):
            acc[p] += c * a
    return tuple(acc)


def eval_row(row, log_x: float):
    """sum_p row[p] (log x)^p, by Horner's rule (0 for an empty row)."""
    acc = 0.0
    for a in reversed(row):
        acc = acc * log_x + a
    return acc


@dataclass(frozen=True)
class PmPolynomial:
    """Polynomial of the family P_1 = 1, P_2 = x, P_m = (x^2 + (m-2)^2 pi^2) P_{m-2}.

    ``coeffs`` are monomial coefficients, ascending degree; degree m - 1,
    alternating coefficients vanish, leading coefficient 1.
    """

    m: int
    coeffs: tuple

    def degree(self) -> int:
        return self.m - 1


@lru_cache(maxsize=None)
def pm_polynomial(m: int) -> PmPolynomial:
    if m < 1:
        raise ValueError(f"P_m is defined for m >= 1, got {m}")
    if m == 1:
        return PmPolynomial(1, (1.0,))
    if m == 2:
        return PmPolynomial(2, (0.0, 1.0))
    prev = pm_polynomial(m - 2).coeffs
    c = (m - 2) ** 2 * math.pi ** 2
    out = [0.0] * (m)
    for d, a in enumerate(prev):
        out[d] += c * a        # (m-2)^2 pi^2 * P_{m-2}
        out[d + 2] += a        # x^2 * P_{m-2}
    return PmPolynomial(m, tuple(out))


def pm_row(jet: Jet, m: int) -> tuple:
    """[P_m(d/dz + log x) g](k) as a row in powers of log x."""
    poly = pm_polynomial(m)
    if jet.order < poly.degree():
        raise JetOrderError(
            f"P_{m} needs a jet of order >= {poly.degree()}, got {jet.order}")
    return _combine(((a, shift_row(jet, d)) for d, a in enumerate(poly.coeffs)
                     if a != 0.0), m)


def residue_row(pp: PrincipalPart, jet: Jet) -> tuple:
    """The residue of h(z) g(-z) x^{-z} at z = -k, divided by x^k, as a
    row in powers of log x:

        sum_{j=1..N} c_{-j} (-1)^{j-1} / (j-1)! [(d/dz + log x)^{j-1} g](k)

    where N is the pole order and c_{-j} the principal coefficients of h.
    Empty when the principal part has order 0 (pole gap).
    """
    if pp.order == 0:
        return ()
    if jet.base != pp.k:
        raise JetBaseMismatchError(
            f"jet based at {jet.base} cannot feed the pole at -{pp.k}")
    if jet.order < pp.order - 1:
        raise JetOrderError(
            f"pole of order {pp.order} needs a jet of order >= {pp.order - 1}, "
            f"got {jet.order}")
    weighted = []
    sign = 1.0
    fact = 1.0  # (j-1)!
    for j in range(1, pp.order + 1):
        c = pp.coeffs[j - 1]
        if c != 0:
            weighted.append((c * (sign / fact), shift_row(jet, j - 1)))
        sign = -sign
        fact *= j
    return _combine(weighted, pp.order)


# ---------------------------------------------------------------------------
# small power-series helpers (Cauchy products), used by the kernel catalog

def series_product(a, b, order: int) -> list:
    """Cauchy product of two Taylor coefficient lists, truncated at ``order``."""
    out = [0.0] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: order + 1 - i]):
            out[i + j] += ai * bj
    return out


def series_power(a, n: int, order: int) -> list:
    """n-th power of a Taylor coefficient list, truncated at ``order``."""
    out = [1.0] + [0.0] * order
    for _ in range(n):
        out = series_product(out, a, order)
    return out


def series_reciprocal(a, order: int) -> list:
    """Reciprocal series of a Taylor coefficient list with a[0] != 0."""
    if a[0] == 0:
        raise ZeroDivisionError("reciprocal of a series with zero constant term")
    out = [1.0 / a[0]] + [0.0] * order
    for n in range(1, order + 1):
        acc = 0.0
        for j in range(1, min(n, len(a) - 1) + 1):
            acc += a[j] * out[n - j]
        out[n] = -acc / a[0]
    return out


def series_exp(a, order: int) -> list:
    """exp of a Taylor coefficient list with a[0] == 0."""
    if a[0] != 0:
        raise ValueError("series_exp expects zero constant term")
    out = [1.0] + [0.0] * order
    for n in range(1, order + 1):
        acc = 0.0
        for j in range(1, min(n, len(a) - 1) + 1):
            acc += j * a[j] * out[n - j]
        out[n] = acc / n
    return out
