"""Numerical Mellin transform M[f](s) = int_0^inf x^{s-1} f(x) dx.

The integral is split at x = 1. Both pieces use double-exponential node
families (trapezoid in a transformed variable, level-halving refinement):

* on (0, 1]:   x(t) = 1 / (1 + exp(-2u)),  u = (pi/2) sinh t.
  The x^{s-1} endpoint factor is evaluated from an exact expression for
  log x, so arbitrarily small nodes contribute at full precision.
* on [1, oo):  x(t) = 1 + exp(u),          u = (pi/2) sinh t.
  Handles both exponential decay and integrable power-law tails
  (Re(s) below the decay exponent).

Oscillatory integrands (asymptotically periodic sign changes) go through
``mellin_oscillatory``: plain quadrature on a warm-up region, then exact
integration between consecutive zeros and iterated Aitken extrapolation of
the alternating partial sums.

Complex s is supported by evaluating x^{s-1} = exp((s-1) log x) on real
nodes; the quadrature weights stay real.

The nodes do not depend on s: every level of both pieces samples the same
abscissae x(t) for every s, and only the factor x^{s-1} and the decision to
skip an underflowing node change with s. A run over many s on one
integrand (one ``harness.verify`` call, or one property check; see
``_series_run``) therefore computes f once per node and shares the value
across its s: ``_memoized`` maps each node x to f(x), or to the exception f
raised there, which it raises afresh (same class, same message, a new
object) on every later request. The memo belongs to the run that built it
and dies with it; nothing is cached across runs or at module level, and it
holds at most one entry per node of both pieces up to ``_MAX_LEVEL``
(about 57k). Results are bit-identical to evaluating f anew for each s:
f is a deterministic function of x, and each s keeps its own ``_piece_sum``
arithmetic, underflow skips, evaluation budget and errors.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import series as series_mod
from .errors import (AccelerationFailureError, ConvergenceError,
                     MellinkitError, SeamMismatchError, SingularIntegrandError)

PI_HALF = math.pi / 2.0

#: hard cap on integrand evaluations per transform
MAX_EVALS = 2_000_000

_T_MAX = 6.9          # |u| ~ 780 at the edge; node maps underflow beyond
_MAX_LEVEL = 11
_SKIP_FLOOR = 1e-12   # weight floor under which failing nodes are dropped


@dataclass(frozen=True)
class QuadResult:
    """Transform value with an error estimate and evaluation accounting."""

    value: complex
    err_abs: float
    n_evals: int
    converged: bool

    def __post_init__(self):
        if self.err_abs < 0.0:
            raise ValueError("error estimate cannot be negative")


@dataclass(frozen=True)
class Strip:
    """Open vertical strip lo < Re(s) < hi on which an identity holds."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"empty strip ({self.lo}, {self.hi})")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, s, margin: float = 0.0) -> bool:
        re = s.real if isinstance(s, complex) else s
        return self.lo + margin <= re <= self.hi - margin


def _is_bad(v) -> bool:
    if isinstance(v, complex):
        return not (math.isfinite(v.real) and math.isfinite(v.imag))
    return not math.isfinite(v)


class _EvalBudget:
    """Evaluations one transform spent. Used as a context manager, it
    attaches that count as ``n_evals`` to a ``MellinkitError`` leaving the
    block, so a failed transform still reports what it cost."""

    __slots__ = ("used", "cap")

    def __init__(self, cap: int):
        self.used = 0
        self.cap = cap

    def spend(self, n: int = 1):
        self.used += n
        if self.used > self.cap:
            raise ConvergenceError(
                f"evaluation budget of {self.cap} exhausted without convergence")

    def __enter__(self):
        return self

    def __exit__(self, cls, exc, tb):
        if isinstance(exc, MellinkitError):
            exc.n_evals = self.used
        return False


class _Raised:
    """An exception an integrand raised, kept as its class and arguments."""

    __slots__ = ("cls", "args")

    def __init__(self, exc: Exception):
        self.cls, self.args = type(exc), exc.args


_MISSING = object()


def _memoized(f: Callable[[float], float]) -> Callable[[float], float]:
    """``f`` evaluated at most once per distinct x.

    Each outcome is kept for the life of the returned callable: the value,
    or the exception ``f`` raised, which every request raises afresh (same
    class and message, a new object each time, so no two transforms share
    one exception)."""
    outcomes: dict = {}

    def memo(x):
        out = outcomes.get(x, _MISSING)
        if out is _MISSING:
            try:
                out = f(x)
            except Exception as exc:  # replayed below on every request
                out = _Raised(exc)
            outcomes[x] = out
        if type(out) is _Raised:
            raise out.cls(*out.args)
        return out

    return memo


def _lower_node(t: float):
    # x in (0, 1);  returns (x, log x, weight dx/dt)
    u = PI_HALF * math.sinh(t)
    ch = PI_HALF * math.cosh(t)
    if u >= 0.0:
        e = math.exp(-2.0 * u)
        x = 1.0 / (1.0 + e)
        lnx = -math.log1p(e)
    else:
        e = math.exp(2.0 * u)
        x = e / (1.0 + e)
        lnx = 2.0 * u - math.log1p(e)
    w = ch * 2.0 * e / ((1.0 + e) * (1.0 + e))
    return x, lnx, w


def _upper_node(t: float):
    # x in (1, inf);  returns (x, log x, weight dx/dt) or None past overflow
    u = PI_HALF * math.sinh(t)
    if u > 700.0:
        return None
    e = math.exp(u)
    return 1.0 + e, math.log1p(e), PI_HALF * math.cosh(t) * e


def _piece_sum(node_fn, f, s, budget: _EvalBudget, tol: float):
    """Trapezoid sums over one DE piece with level halving.

    Returns (value, err_estimate). Raises on budget exhaustion or on
    integrand failure at nodes with non-negligible weight.
    """
    sm1 = s - 1.0
    complex_s = isinstance(s, complex)

    def sample(t: float):
        node = node_fn(t)
        if node is None:
            return 0.0
        x, lnx, w = node
        if w == 0.0 or x <= 0.0:
            return 0.0
        arg = sm1 * lnx
        re_arg = arg.real if complex_s else arg
        lw = math.log(w)
        log_pref = re_arg + lw
        if log_pref < -800.0:
            # prefactor underflows past any log-bounded integrand growth
            return 0.0
        budget.spend()
        try:
            fv = f(x)
        except (ValueError, OverflowError, ZeroDivisionError):
            fv = None
        if fv is None or _is_bad(fv):
            if log_pref <= math.log(_SKIP_FLOOR):
                return 0.0  # underflow corner; weight cannot matter
            raise SingularIntegrandError(
                f"integrand failed at x={x!r} where the quadrature weight "
                f"exp({log_pref:.2f}) is not negligible")
        if fv == 0:
            return 0.0
        if -700.0 < re_arg < 700.0:
            pref = w * (cmath.exp(arg) if complex_s else math.exp(arg))
            term = pref * fv
            if not _is_bad(term):
                return term
        # extreme exponents (extended strips): combine in log space
        if complex_s or isinstance(fv, complex):
            return cmath.exp(complex(arg) + lw + cmath.log(complex(fv)))
        total = arg + lw + math.log(abs(fv))
        if total < -745.0:
            return 0.0
        if total > 709.0:
            raise ConvergenceError(
                f"integrand contribution overflows at x={x!r}; the transform "
                f"diverges at this s")
        return math.copysign(math.exp(total), fv)

    h = 1.0
    total = sample(0.0)
    k = 1
    while k * h <= _T_MAX:
        total += sample(k * h) + sample(-k * h)
        k += 1
    prev = total * h
    err = abs(prev)
    val = prev
    for _ in range(1, _MAX_LEVEL + 1):
        h *= 0.5
        add = 0.0
        t = h
        while t <= _T_MAX:
            add += sample(t) + sample(-t)
            t += 2.0 * h
        val = prev * 0.5 + add * h
        err = abs(val - prev)
        scale = max(abs(val), 1e-300)
        if err <= tol * scale and h <= 0.25:
            return val, err
        prev = val
    raise ConvergenceError(
        "quadrature did not stabilize within the refinement budget "
        f"(last interval-halving difference {err:.3e})")


def mellin_transform(f: Callable[[float], float], s, tol: float = 1e-10,
                     max_evals: int = MAX_EVALS) -> QuadResult:
    """Mellin transform of ``f`` at ``s`` (0 < Re(s) required for the lower
    piece to converge; the caller is responsible for strip validity)."""
    with _EvalBudget(max_evals) as budget:
        lo_val, lo_err = _piece_sum(_lower_node, f, s, budget, 0.5 * tol)
        hi_val, hi_err = _piece_sum(_upper_node, f, s, budget, 0.5 * tol)
    value = lo_val + hi_val
    err = lo_err + hi_err
    converged = err <= tol * max(abs(value), 1e-300)
    return QuadResult(value, err, budget.used, converged)


def _scaled_lower_transform(f, s, x_cut: float, budget: _EvalBudget, tol: float):
    # int_0^{x_cut} x^{s-1} f(x) dx  =  x_cut^s int_0^1 y^{s-1} f(x_cut y) dy
    def g(y):
        return f(x_cut * y)

    val, err = _piece_sum(_lower_node, g, s, budget, tol)
    scale = cmath.exp(s * math.log(x_cut)) if isinstance(s, complex) \
        else math.exp(s * math.log(x_cut))
    return scale * val, abs(scale) * err


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _aitken_last(seq):
    """Iterated Aitken delta-squared; returns (estimate, last correction)."""
    s = list(seq)
    prev_last = s[-1]
    while len(s) >= 3:
        nxt = []
        for i in range(len(s) - 2):
            d2 = s[i + 2] - 2.0 * s[i + 1] + s[i]
            if d2 == 0:
                nxt.append(s[i + 2])
            else:
                nxt.append(s[i] - (s[i + 1] - s[i]) ** 2 / d2)
        prev_last = s[-1]
        s = nxt
    return s[-1], abs(s[-1] - prev_last)


def mellin_oscillatory(f: Callable[[float], float], s, half_period: float,
                       tol: float = 1e-8, first_zero: Optional[float] = None,
                       max_intervals: int = 64,
                       max_evals: int = MAX_EVALS) -> QuadResult:
    """Mellin transform of an asymptotically sign-alternating integrand.

    ``half_period`` is the asymptotic distance between consecutive zeros of
    ``f``; ``first_zero`` defaults to half of it. The warm-up region up to
    the first zero is integrated by the regular DE rule; past it the
    integral between consecutive zeros forms an alternating sequence of
    partial sums, extrapolated by iterated Aitken.
    """
    if half_period <= 0.0:
        raise ValueError(f"half period must be positive, got {half_period}")
    if first_zero is None:
        first_zero = 0.5 * half_period
    budget = _EvalBudget(max_evals)
    sm1 = s - 1.0
    complex_s = isinstance(s, complex)

    def integrand(x):
        budget.spend()
        if complex_s:
            return cmath.exp(sm1 * math.log(x)) * f(x)
        return math.exp(sm1 * math.log(x)) * f(x)

    def gl_piece(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        acc = 0.0
        for xi, wi in zip(_GL_NODES, _GL_WEIGHTS):
            acc += wi * integrand(mid + half * xi)
        return half * acc

    with budget:
        warm_val, warm_err = _scaled_lower_transform(f, s, first_zero, budget,
                                                     0.1 * tol)
        partials = [warm_val]
        pieces = []
        acc = warm_val
        prev_zero = first_zero
        value, corr = warm_val, abs(warm_val)
        for j in range(1, max_intervals + 1):
            z = first_zero + j * half_period
            piece = gl_piece(prev_zero, z)
            pieces.append(piece)
            acc = acc + piece
            partials.append(acc)
            prev_zero = z
            if len(pieces) >= 6 and not complex_s:
                # alternation must have set in past the warm-up
                signs = [math.copysign(1.0, p) for p in pieces[-6:] if p != 0.0]
                if any(signs[i] == signs[i + 1] for i in range(len(signs) - 1)):
                    raise AccelerationFailureError(
                        "partial sums stopped alternating; the integrand does "
                        "not match the declared oscillation structure")
            if len(partials) >= 8:
                window = partials[-24:] if len(partials) >= 24 else partials
                value, corr = _aitken_last(window)
                if corr <= tol * max(abs(value), 1e-300):
                    break
    total_err = warm_err + corr
    converged = total_err <= 10.0 * tol * max(abs(value), 1e-300)
    return QuadResult(value, total_err, budget.used, converged)


def _seam_guard(h: "series_mod.SeriesHandle", tol: float,
                seam_tol_factor: float = 10.0) -> Callable[[], None]:
    """A check that the series and the closed form of ``h`` agree at the
    switch-over point, computed on its first call and replayed on every
    later one; a no-op unless ``h`` has both a radius and a closed form."""
    if h.closed_form is None or h.radius_hint is None:
        return lambda: None
    eval_tol = min(1e-2 * tol, series_mod.DEFAULT_TOL)
    seam = _memoized(lambda t: series_mod.seam_check(h, t))

    def guard():
        x_seam, mismatch = seam(eval_tol)
        if mismatch > seam_tol_factor * tol:
            raise SeamMismatchError(
                f"series and closed form disagree by {mismatch:.3e} at the "
                f"switch-over point x={x_seam:.6g}")

    return guard


def _series_run(h: "series_mod.SeriesHandle", tol: float,
                max_evals: int = MAX_EVALS,
                seam_tol_factor: float = 10.0) -> Callable[..., QuadResult]:
    """s -> ``mellin_on_series(h, s, ...)`` for every s of one run, with
    the seam check and each integrand value computed once per run."""
    eval_tol = min(1e-2 * tol, series_mod.DEFAULT_TOL)
    guard = _seam_guard(h, tol, seam_tol_factor)
    f = _memoized(lambda x: series_mod.eval_series(h, x, tol=eval_tol))

    def run(s) -> QuadResult:
        guard()
        return mellin_transform(f, s, tol=tol, max_evals=max_evals)

    return run


def mellin_on_series(h: "series_mod.SeriesHandle", s, tol: float = 1e-10,
                     max_evals: int = MAX_EVALS,
                     seam_tol_factor: float = 10.0) -> QuadResult:
    """Transform of the integrand synthesized from a series handle.

    f is evaluated through the truncated series inside the convergence
    radius and the registered closed form outside; their agreement at the
    switch-over point is checked first. This is the one-s case of
    ``_series_run``.
    """
    return _series_run(h, tol, max_evals, seam_tol_factor)(s)
