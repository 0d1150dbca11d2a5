"""Synthesizes the integrand series dictated by the residue data of a kernel
and evaluates truncated series with tail control.

Every series is a residue series: its k-th summand is the residue of
h(z) g(-z) x^{-z} at z = -k, built from the principal part of h at -k,
whatever its order (simple poles, pole gaps, higher-order and derivative
kernels). The cosecant-power instances of the paper are the residue series
of (pi/sin(pi z))^m; ``harness`` scales them by their constant.

The k-th summand is x^k sum_p A[k, p] (log x)^p. The row A[k, .] depends on
the kernel and the coefficient function, not on x: ``term`` builds it from
the principal part and jet at k (``jets.residue_row``) on first use and
keeps it in the handle, so every later evaluation of that summand, at any
x, is one polynomial in log x times x^k. A handle starts with no rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .catalog import CoefficientFunction, KernelFunction
from .errors import ConvergenceError, RadiusExceededError
from .jets import eval_row, residue_row

#: default truncation controls (factorial decay dominates all registered
#: identities well before the cap)
DEFAULT_TOL = 1e-12
DEFAULT_K_CAP = 400

#: fraction of the radius up to which the series is preferred over the
#: closed form; convergence degenerates at the radius boundary itself
SERIES_USE_FRACTION = 0.75


@dataclass(frozen=True)
class SeriesHandle:
    """An integrand series f(x) = sum of residue terms, plus metadata."""

    kernel: KernelFunction
    coeff: CoefficientFunction
    radius_hint: Optional[float] = None
    closed_form: Optional[Callable[[float], float]] = None
    #: > 0: f is the closed form everywhere and oscillates like
    #: cos(pi x / half_period)
    half_period: float = 0.0
    #: k -> row of the k-th summand, filled by ``term``
    rows: dict = field(default_factory=dict, init=False, repr=False,
                       compare=False)

    def __post_init__(self):
        if self.radius_hint is not None and not self.radius_hint > 0.0:
            raise ValueError(f"radius hint must be positive, got {self.radius_hint}")
        if self.half_period > 0.0 and self.closed_form is None:
            raise ValueError("a half period needs a closed form")


def handle(kernel: KernelFunction, coeff: CoefficientFunction,
           radius_hint: Optional[float] = None, closed_form=None,
           half_period: float = 0.0) -> SeriesHandle:
    if radius_hint is None:
        radius_hint = theorem_radius(coeff)
    return SeriesHandle(kernel, coeff, radius_hint, closed_form, half_period)


def theorem_radius(coeff: CoefficientFunction) -> Optional[float]:
    """Convergence radius e^{-P} implied by the coefficient's growth
    metadata (C, P, A). The principal parts of every registered kernel grow
    at most polynomially in k, so g alone sets the radius of the residue
    series, and e^{-P} bounds it from below."""
    if coeff.growth_meta is None:
        return None
    _, p, _ = coeff.growth_meta
    return math.exp(-p)


def term(h: SeriesHandle, k: int, x: float, log_x: Optional[float] = None):
    """The k-th summand of the integrand series at x > 0; ``log_x``, if
    given, is ``math.log(x)``."""
    if x <= 0.0:
        raise ValueError(f"series variable must be positive, got x={x}")
    row = h.rows.get(k)
    if row is None:  # A[k, .]: the k-th summand over x^k, in powers of log x
        pp = h.kernel.principal_part(k)
        row = h.rows[k] = residue_row(pp, h.coeff.jet(k, max(pp.order - 1, 0)))
    if not row:
        return 0.0
    return eval_row(row, math.log(x) if log_x is None else log_x) * x ** k


def sum_series(h: SeriesHandle, x: float, tol: float = DEFAULT_TOL,
               k_cap: int = DEFAULT_K_CAP):
    """Compensated summation of the raw series, no radius fallback.

    Stops once two successive terms are below tol * |sum| and a geometric
    tail bound confirms the remainder is negligible. log x is taken once
    per sum; each term keeps its own x ** k.
    """
    total, comp = 0.0, 0.0
    prev_mag = None
    small_streak = 0
    log_x = math.log(x) if x > 0.0 else None  # else ``term`` raises
    for k in range(k_cap + 1):
        t = term(h, k, x, log_x)
        if isinstance(t, complex) and abs(t.imag) <= 1e-30 * max(1.0, abs(t.real)):
            t = t.real
        # Neumaier's compensated sum, inline
        mag = abs(t)
        new = total + t
        comp += (total - new) + t if abs(total) >= mag else (t - new) + total
        total = new
        scale = max(abs(total + comp), 1e-300)
        if k >= 4 and mag <= tol * scale:
            small_streak += 1
            if small_streak >= 2 and prev_mag is not None:
                q = mag / prev_mag if prev_mag > 0.0 else 0.0
                if q < 1.0:
                    tail = mag * q / (1.0 - q) if q > 0.0 else 0.0
                    if tail <= tol * scale:
                        return total + comp
        else:
            small_streak = 0
        if mag > 0.0:
            prev_mag = mag
    raise ConvergenceError(
        f"series did not converge within {k_cap} terms at x={x} "
        f"(kernel={h.kernel.id}, coeff={h.coeff.id})")


def eval_series(h: SeriesHandle, x: float, tol: float = DEFAULT_TOL):
    """Evaluate f(x): the truncated series inside the radius, the registered
    closed form beyond it."""
    if x <= 0.0:
        raise ValueError(f"series variable must be positive, got x={x}")
    if h.radius_hint is not None and x > SERIES_USE_FRACTION * h.radius_hint:
        if h.closed_form is not None:
            return h.closed_form(x)
        if x > h.radius_hint:
            raise RadiusExceededError(
                f"x={x} is outside the series radius {h.radius_hint} and no "
                f"closed form is registered (kernel={h.kernel.id})")
    return sum_series(h, x, tol)


def seam_check(h: SeriesHandle, tol: float) -> tuple[float, float]:
    """Series-vs-closed-form agreement at the switch-over point.

    Returns (x_seam, relative mismatch); only meaningful when both a radius
    and a closed form are registered.
    """
    if h.closed_form is None or h.radius_hint is None:
        raise ValueError("seam check needs both a radius hint and a closed form")
    x_seam = SERIES_USE_FRACTION * h.radius_hint
    s = sum_series(h, x_seam, tol=min(tol, DEFAULT_TOL))
    c = h.closed_form(x_seam)
    mismatch = abs(s - c) / max(abs(c), 1e-300)
    return x_seam, mismatch
