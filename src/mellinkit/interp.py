"""Sequence interpolation through the master-theorem formulas, and the
inequality properties (log-convexity, supermultiplicativity, weight
nonnegativity) of kernel integral representations.

A finite sequence c_0..c_N defines

    raw:        f(x) = sum (-1)^k c_k x^k          (reciprocal-sine reading)
    factorial:  f(x) = sum (-1)^k c_k x^k / k!     (gamma-kernel reading)

and the interpolated extension is g(-s) := M[f](s) / h(s). A Mellin
transform cannot be computed from finitely many coefficients alone: the
sequence must either carry a closed form for the summed series, or be
factorial-normalized with a certifiable geometric bound |c_k| <= C rho^k
(log-linear fit), in which case the truncated series is integrated on a
certified range and the neglected pieces are bounded explicitly.

The inequality checks evaluate h through the engine's own integral
representation (never through closed-form special functions): the
statements under test are about the represented function.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import catalog, harness, series
from .errors import (KernelZeroError, StripViolationError,
                     TailCertificationError, UnknownIdError)
from .mellin import (MAX_EVALS, _EvalBudget, _scaled_lower_transform,
                     _series_run, mellin_transform)

NORMALIZATIONS = ("raw", "factorial")

#: closed forms addressable from sequence files, by name
_CLOSED_FORMS = {
    "exp_neg_x": lambda x: math.exp(-x),
    "inv_one_plus_x": lambda x: 1.0 / (1.0 + x),
    "log1p_over_x": lambda x: math.log1p(x) / x,
}
#: ... and those that take a parameter a after the colon
_PARAM_CLOSED_FORMS = {
    "exp_neg_ax": lambda a: lambda x: math.exp(-a * x),
    "inv_one_plus_ax": lambda a: lambda x: 1.0 / (1.0 + a * x),
    "cos_ax": lambda a: lambda x: math.cos(a * x),
}


def closed_form(name: str) -> Callable[[float], float]:
    """Resolve a registered closed form, e.g. ``exp_neg_x`` or
    ``exp_neg_ax:2``."""
    base, colon, param = name.partition(":")
    if base in _CLOSED_FORMS:
        if colon:
            raise UnknownIdError(f"closed form {base} takes no parameter")
        return _CLOSED_FORMS[base]
    if base in _PARAM_CLOSED_FORMS:
        if not colon:
            raise UnknownIdError(
                f"closed form {base} needs a parameter, e.g. {base}:2")
        try:
            a = float(param)
        except ValueError:
            raise UnknownIdError(
                f"closed-form parameter must be a number, got {param!r}")
        return _PARAM_CLOSED_FORMS[base](a)
    raise UnknownIdError(f"unknown closed form {name!r}")


@dataclass(frozen=True)
class SequenceData:
    """A finite sequence with its series normalization convention."""

    values: tuple
    normalization: str = "factorial"
    closed_form: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"normalization must be one of {NORMALIZATIONS}")
        if len(self.values) < 5:
            raise ValueError("a sequence needs at least 5 values (N >= 4)")
        for v in self.values:
            if not math.isfinite(v):
                raise ValueError(f"non-finite sequence value {v!r}")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    def head(self, x: float, n_terms: Optional[int] = None) -> float:
        """Partial sum of the series over k < n_terms."""
        n = len(self.values) if n_terms is None else n_terms
        total = 0.0
        fact = 1.0
        xk = 1.0
        for k in range(min(n, len(self.values))):
            t = self.values[k] * xk
            if self.normalization == "factorial":
                t /= fact
            total += -t if k % 2 else t
            xk *= x
            fact *= k + 1
        return total


def sequence_from_csv(path, normalization: str,
                      closed_form_id: Optional[str] = None) -> SequenceData:
    """Read ``k,c_k`` rows (header line required)."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("empty sequence file: expected header 'k,c_k'")
        if [h.strip() for h in header[:2]] != ["k", "c_k"]:
            raise ValueError(f"expected header 'k,c_k', got {header!r}")
        for row in reader:
            if not row or not row[0].strip():
                continue
            if len(row) < 2:
                raise ValueError(f"expected a 'k,c_k' row, got {row!r}")
            rows.append((int(row[0]), float(row[1])))
    rows.sort()
    if [k for k, _ in rows] != list(range(len(rows))):
        raise ValueError("sequence indices must be 0..N without gaps")
    cf = closed_form(closed_form_id) if closed_form_id else None
    return SequenceData(tuple(v for _, v in rows), normalization, cf)


def sequence_from_json(source) -> SequenceData:
    """Build from a JSON document {values, normalization, closed_form?}."""
    if isinstance(source, (str, bytes)):
        doc = json.loads(source)
    elif isinstance(source, dict):
        doc = source
    else:
        with open(source) as fh:
            doc = json.load(fh)
    cf = closed_form(doc["closed_form"]) if doc.get("closed_form") else None
    return SequenceData(tuple(doc["values"]), doc.get("normalization", "factorial"), cf)


# ---------------------------------------------------------------------------
# interpolation

def _fit_growth(seq: SequenceData) -> tuple[float, float]:
    """Least-squares fit |c_k| ~ C rho^k over the nonzero entries."""
    ks = [k for k, v in enumerate(seq.values) if v != 0.0]
    if len(ks) < 3:
        raise TailCertificationError("too few nonzero values to fit tail growth")
    logs = [math.log(abs(seq.values[k])) for k in ks]
    slope, intercept = np.polyfit(ks, logs, 1)
    # inflate the fit into a bound covering every data point
    margin = max(logs[i] - (slope * ks[i] + intercept) for i in range(len(ks)))
    return math.exp(intercept + margin), math.exp(slope)


def _certified_cut(seq: SequenceData, sigma: float, tol: float) -> float:
    """Largest integration cut X such that both the series truncation error
    on (0, X] and the neglected integral tail beyond X stay under tol/2.

    Factorial normalization only; raises when no such X exists.
    """
    c_bound, rho = _fit_growth(seq)
    n = len(seq.values)

    def truncation_bound(x):
        # sum_{k>=n} (rho x)^k / k! <= (rho x)^n / n! * 1/(1 - q), q = rho x/(n+1)
        q = rho * x / (n + 1)
        if q >= 0.99:
            return float("inf")
        return c_bound * (rho * x) ** n / math.factorial(n) / (1.0 - q)

    def integral_tail_bound(x):
        # |f| <= c_bound e^{rho x} is useless for alternating series; the
        # fitted model f ~ c e^{-rho x} is what the certificate covers:
        # int_X^inf t^{sigma-1} e^{-rho t} dt <= 2 X^{sigma-1} e^{-rho X}/rho
        # for X >= max(1, (sigma-1)/rho)
        return 2.0 * c_bound * x ** (sigma - 1.0) * math.exp(-rho * x) / rho

    half = 0.5 * tol
    x = max(1.0, 2.0 / rho)
    while integral_tail_bound(x) > half:
        x *= 1.25
        if x > 1e6:
            raise TailCertificationError(
                "integral tail bound does not clear the tolerance")
    if truncation_bound(x) > half:
        raise TailCertificationError(
            f"truncated series is not reliable out to the integration cut "
            f"x={x:.3g}: need more coefficients or a closed form")
    return x


def _sequence_integrand(seq: SequenceData, tol_abs: float, sigma: float):
    """(f, x_cut): evaluation strategy for M[f](s); x_cut None means the
    whole half-line."""
    if seq.closed_form is not None:
        # sanity: the closed form must reproduce the series where the
        # truncation is certainly negligible
        for x_probe in (0.05, 0.2):
            head = seq.head(x_probe)
            probe = seq.closed_form(x_probe)
            n = len(seq.values)
            if seq.normalization == "factorial":
                slack = abs(seq.values[-1]) * x_probe ** n / math.factorial(n)
            else:
                slack = abs(seq.values[-1]) * x_probe ** n / (1 - x_probe)
            if abs(head - probe) > 100.0 * (slack + 1e-12 * max(1.0, abs(probe))):
                raise TailCertificationError(
                    f"closed form disagrees with the declared series at "
                    f"x={x_probe} ({probe!r} vs partial sum {head!r})")
        return seq.closed_form, None
    if seq.normalization != "factorial":
        raise TailCertificationError(
            "raw-normalized sequences need a closed form: the truncated "
            "power series cannot certify tail decay over (0, infinity)")
    return (lambda x: seq.head(x)), _certified_cut(seq, sigma, tol_abs)


def interpolate(seq: SequenceData, kernel_id: str, s, tol: float = 1e-8):
    """g(-s) := M[f](s) / h(s) for the declared normalization."""
    kern = catalog.kernel(kernel_id)
    sigma = s.real if isinstance(s, complex) else float(s)
    if not 0.0 < sigma < 1.0:
        raise StripViolationError(
            f"interpolation strip is 0 < Re(s) < 1, got Re(s)={sigma}")
    h_val = kern.eval(s)
    if abs(h_val) < 1e-12:
        raise KernelZeroError(
            f"kernel {kernel_id} is numerically zero at s={s}; the quotient "
            f"is not defined there")
    f, x_cut = _sequence_integrand(seq, tol, sigma)
    if x_cut is None:
        val = mellin_transform(f, s, tol=tol).value
    else:
        val, _ = _scaled_lower_transform(f, s, x_cut, _EvalBudget(MAX_EVALS), tol)
    return val / h_val


def interpolate_extended(seq: SequenceData, kernel_id: str, extension: int, s,
                         tol: float = 1e-8):
    """Interpolation on the shifted strip -N < Re(s) < -N+1: the first N
    series terms are dropped (head subtraction against the closed form)."""
    if extension < 0:
        raise ValueError(f"extension depth must be >= 0, got {extension}")
    if extension == 0:
        return interpolate(seq, kernel_id, s, tol)
    n = extension
    sigma = s.real if isinstance(s, complex) else float(s)
    if not -n < sigma < -n + 1:
        raise StripViolationError(
            f"extended strip is (-{n}, -{n - 1}), got Re(s)={sigma}")
    if seq.closed_form is None:
        raise TailCertificationError(
            "extended-region interpolation needs the closed form of the full "
            "series (the tail is its difference with the dropped head)")
    if n > len(seq.values):
        raise ValueError("cannot drop more terms than the sequence provides")
    kern = catalog.kernel(kernel_id)
    h_val = kern.eval(s)
    if abs(h_val) < 1e-12:
        raise KernelZeroError(f"kernel {kernel_id} is numerically zero at s={s}")

    def f_tail(x):
        return seq.closed_form(x) - seq.head(x, n)

    q = mellin_transform(f_tail, s, tol=tol)
    return q.value / h_val


# ---------------------------------------------------------------------------
# inequality properties of the represented h

@dataclass(frozen=True)
class PropertyEntry:
    point: tuple
    margin: float


@dataclass(frozen=True)
class PropertyReport:
    kernel_id: str
    check: str
    entries: tuple
    min_margin: float
    argmin: tuple
    passed: bool
    skipped_reason: Optional[str] = None


@dataclass(frozen=True)
class WeightReport:
    kernel_id: str
    min_weight: float
    argmin: float
    nonnegative: bool


_WEIGHT_GRID = tuple(0.01 * 1.35 ** i for i in range(30))  # 0.01 .. ~44


def check_weight_nonneg(kernel_id: str, samples=None) -> WeightReport:
    """Sample the series weight of the kernel's representation; flags any
    value below -1e-12."""
    handle = harness.representation_handle(kernel_id)
    if samples is None:
        samples = _WEIGHT_GRID
    best, arg = math.inf, float("nan")
    for x in samples:
        w = series.eval_series(handle, float(x))
        w = w.real if isinstance(w, complex) else w
        if w < best:
            best, arg = w, float(x)
    return WeightReport(kernel_id, best, arg, best >= -1e-12)


def _strip_unit(kernel_id: str):
    """h = 1 on the strip where the kernel's representation converges;
    raises StripViolationError for a point outside it. A margins pass with
    it checks every point a check will request, in the order it requests
    them, before any quadrature."""
    def unit(t: float) -> float:
        harness.check_representable(kernel_id, t)
        return 1.0

    return unit


def _represented_h(kernel_id: str, quad_tol: float):
    """h through the kernel's integral representation, one run per check;
    the caller has checked the points against the strip (``_strip_unit``)."""
    run = _series_run(harness.representation_handle(kernel_id), quad_tol)
    cache: dict = {}

    def h_eval(t: float) -> float:
        if t not in cache:
            val = run(t).value
            cache[t] = val.real if isinstance(val, complex) else val
        return cache[t]

    return h_eval


def _positive_h(h_eval, t: float) -> float:
    v = h_eval(t)
    if not (math.isfinite(v) and v > 0.0):
        raise ValueError(f"log-convexity needs finite h > 0; h({t}) = {v}")
    return v


def _logconvexity_margins(h_eval, pairs):
    """Margin h(x)^a h(y)^b - h(ax + by), b = 1 - a, for each (x, y, a).

    The pair is put in order x <= y (swapping a and b along with x and y)
    and the margin computed as hx * (hy / hx)**b - h(x + b*(y - x)). This
    is exactly 0 when x == y, scales exactly when h is scaled by a power of
    two, and gives the same bits for (x, y, 1/2) and (y, x, 1/2). Entries
    keep the point as given. Raises ValueError where h is not finite and
    positive, since log-convexity is only defined for h > 0."""
    entries = []
    for (x, y, a) in pairs:
        if not (x > 0.0 and y > 0.0 and 0.0 < a < 1.0):
            raise ValueError(f"need x, y > 0 and a in (0,1), got {(x, y, a)}")
        lo, hi, b = (x, y, 1.0 - a) if x <= y else (y, x, a)
        h_lo = _positive_h(h_eval, lo)
        h_hi = _positive_h(h_eval, hi)
        margin = h_lo * (h_hi / h_lo) ** b - _positive_h(h_eval, lo + b * (hi - lo))
        entries.append(PropertyEntry((x, y, a), margin))
    return entries


def _check_property(kernel_id: str, check: str, margins, tol: float) -> PropertyReport:
    """The pipeline of both inequality checks. A failed weight precondition
    gives a skipped report, named without the check's parameter. Otherwise
    ``margins(h_eval)`` runs twice: on ``_strip_unit``, which checks every
    point before any quadrature, and on the represented h. The worst entry
    is the first of those tied at the least margin; margins below -tol
    fail."""
    wr = check_weight_nonneg(kernel_id)
    if not wr.nonnegative:
        return PropertyReport(kernel_id, check.partition(":")[0], (), math.nan,
                              (), False, skipped_reason=(
                                  f"weight nonnegativity precondition failed: "
                                  f"min {wr.min_weight:.3e} at x={wr.argmin:g}"))
    margins(_strip_unit(kernel_id))
    entries = margins(_represented_h(kernel_id, quad_tol=min(1e-10, 1e-2 * tol)))
    worst = min(entries, key=lambda e: e.margin)
    return PropertyReport(kernel_id, check, tuple(entries), worst.margin,
                          worst.point, worst.margin >= -tol)


def check_logconvexity(kernel_id: str, pairs, tol: float = 1e-9) -> PropertyReport:
    """h(ax + by) <= h(x)^a h(y)^b with b = 1 - a, h from the engine's own
    integral representation; margins below -tol fail.

    Each margin is computed as hx * (hy / hx)**b - h(x + b*(y - x)) with
    the pair put in order x <= y (`_logconvexity_margins`), so pairs with
    x == y give exactly 0. The reported argmin is the first pair, in the
    given order, among those tied at the least margin. Every requested
    point is checked against the representation's strip before any
    quadrature (StripViolationError)."""
    return _check_property(kernel_id, "logconvexity",
                           lambda h_eval: _logconvexity_margins(h_eval, pairs), tol)


def _supermultiplicative_margins(h_eval, m, pairs):
    hm0 = h_eval(m)
    entries = []
    for (x, y) in pairs:
        if x < 0.0 or y < 0.0:
            raise ValueError(f"need x, y >= 0, got {(x, y)}")
        def hm(t):
            return 1.0 if t == 0.0 else h_eval(t + m) / hm0
        margin = hm(x + y) - hm(x) * hm(y)
        entries.append(PropertyEntry((x, y), margin))
    return entries


def check_supermultiplicative(kernel_id: str, m: float, pairs,
                              tol: float = 1e-9) -> PropertyReport:
    """h_m(x+y) >= h_m(x) h_m(y) with h_m(x) = h(x+m)/h(m); margins below
    -tol fail. Every requested point is checked against the
    representation's strip before any quadrature (StripViolationError)."""
    if not m > 0.0:
        raise ValueError(f"shift m must be positive so h(m) is finite, got {m}")
    return _check_property(kernel_id, f"supermultiplicative:m={m:g}",
                           lambda h_eval: _supermultiplicative_margins(h_eval, m, pairs),
                           tol)


def grid_pairs(lo: float = 0.2, hi: float = 2.5, n: int = 5, a: float = 0.5):
    """The default (x, y, a) grid for the log-convexity check."""
    xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    return [(x, y, a) for x in xs for y in xs]


def grid_pairs_xy(lo: float = 0.2, hi: float = 2.5, n: int = 5):
    xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    return [(x, y) for x in xs for y in xs]
