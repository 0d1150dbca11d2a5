"""Numerical Mellin transform M[f](s) = int_0^inf x^{s-1} f(x) dx.

The integral is split at x = 1. Both pieces use double-exponential node
families (trapezoid in a transformed variable, level-halving refinement):

* on (0, 1]:   x(t) = 1 / (1 + exp(-2u)),  u = (pi/2) sinh t.
  The x^{s-1} endpoint factor is evaluated from an exact expression for
  log x, so arbitrarily small nodes contribute at full precision.
* on [1, oo):  x(t) = 1 + exp(u),          u = (pi/2) sinh t.
  Handles both exponential decay and integrable power-law tails
  (Re(s) below the decay exponent).

Oscillatory integrands, cos(omega x) times a slowly varying factor, go
through ``mellin_oscillatory``, the DE rule for Fourier-type integrals
(Ooura & Mori, J. Comput. Appl. Math. 38, 1991): with M = pi/h, nodes
x = (M/omega) phi(t) at t = (k - 1/2) h and weights (M/omega) phi'(t), where
phi(t) = t / (1 - exp(-2t - alpha (1 - e^-t) - beta (e^t - 1))), beta = 1/4,
alpha = beta / sqrt(1 + M log(1 + M) / (4 pi)). The nodes approach 0, and
the zeros (k - 1/2) pi/omega of cos(omega x), double exponentially, so the
trapezoid sums converge without extrapolation.

Complex s is supported by evaluating x^{s-1} = exp((s-1) log x) on real
nodes; the quadrature weights stay real.

Node tables. The nodes do not depend on s or on f: level 0 of a piece
samples t = 0, +-1, ..., +-6 (h = 1), and level k >= 1 adds the odd
multiples of h = 2^-k up to |t| <= 6.9. ``_node_table`` tabulates, per
piece and level, (x, log x, w, log w) of the nodes that level adds, from
the scalar maps ``_lower_node``/``_upper_node`` (so bit for bit the same
abscissae), less the nodes past overflow (u > 700), of zero weight or at
x <= 0. ``_oscillatory_table`` tabulates every node of the oscillatory
rule per omega and level (its levels are not nested: M changes with h).
A table is built on first use and kept for the process.

Level sums. For one s and one level, Re((s-1) log x) + log w is one array
operation over the table. Nodes where it is below -800 are skipped without
calling f; f is requested once per remaining node, in table order, and the
evaluation budget is spent once per level. A non-finite value of f, or a
ValueError/OverflowError/ZeroDivisionError from f, is dropped where the
weight is below ``_SKIP_FLOOR`` (its neighbours' terms then judge it, see
the stopping rule) and raises SingularIntegrandError above it. The terms
w exp((s-1) log x) f(x) are formed as arrays; where |Re((s-1) log x)| >= 700
or the product is not finite, the term is formed in log space instead (a
contribution that overflows raises ConvergenceError: the transform diverges
at this s). The terms at t and -t are added first and the pair sums then
one after another, the order of a scalar trapezoid loop; the oscillatory
rule adds its terms in order of increasing x.

Stopping rule. A piece accepts level k only when h <= 1/4 and DE
convergence is confirmed: the level-to-level difference d_k is at most
tol * |value| and d_{k-1} at most sqrt(tol) * |value|, so that the
difference has been shrinking doubly exponentially rather than being small
once by chance. Each piece first converges to 0.5 tol relative to itself;
when the two pieces cancel, so that their errors exceed tol relative to
their total, the piece with the larger error and then the other are refined
to 0.5 tol relative to the total (see ``mellin_transform``). A piece fails
fast where the integral does not exist, by one of two rules (see
``_Piece.converge``). Where f has a pole that nodes round onto, such as
-1/(1 - x) at x = 1.0, the non-finite value there is dropped, but the term
of the next node inward exceeds sqrt(tol) times the level sum and is no
smaller than the one further in; SingularIntegrandError is then raised at
that level, from level 0 on (the DE nodes crowd double exponentially toward
the ends of a piece, Takahasi & Mori, Publ. RIMS 9 (1974) 721-741, so the
node next to the pole is close to it at every level, and for -1/(1 - x)
its term stays of the order of the whole sum). Where f hides its pole
(finite values everywhere), the stall rule ends the piece: from h = 1/256
on, a rejected level whose d_k exceeds sqrt(tol) * |value| and is no
smaller than d_{k-2} raises ConvergenceError.

Error estimate. A piece reports err_abs = max(d_k, 16 eps h sum |terms|,
|f(x0)| x0^Re(s) / Re(s)): the last difference, floored by the rounding
error of the trapezoid sum, which the difference alone underestimates once
the doubly exponential convergence has set in, and, for the pieces that
start at x = 0, by about the part of the integral under x0, the smallest
node evaluated (nodes where x underflows are dropped). Refinement reduces
neither floor, and only the first two decide which piece to refine. The
last one exceeds the others only near Re(s) = 0 (below about 0.05 on the
registered identities).

Shared integrand. ``_series_run`` is the one run builder: one
``harness.verify`` call, property check or ad-hoc transform is one run over
many s on one series handle. The half period rides on the handle (f is then
the closed form, under ``mellin_oscillatory``). A run checks the seam once,
passes its evaluation budget to every transform, and computes f once per
node, sharing the value across its s: ``_memoized`` maps each node x to
f(x), or to the exception f raised there, which it raises afresh (same
class, same message, a new object) on every later request. The memo belongs to the run that built it and dies with it, and
it holds at most one entry per node of both pieces up to ``_MAX_LEVEL``
(about 57k). A value for one s does not depend on which other s share its
run: f is a deterministic function of x, and each s keeps its own level
sums, underflow skips, evaluation budget and errors.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

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
_LOG_SKIP_FLOOR = math.log(_SKIP_FLOOR)
_EPS = sys.float_info.epsilon
_ROUNDING_C = 16.0    # rounding floor of err_abs, in eps * h * sum |terms|
_BETA = 0.25          # Ooura-Mori map: phi(t) - t ~ exp(-beta e^t) as t -> oo
_STALL = 0.5          # see ``mellin_oscillatory``
_STALL_LEVEL = 4
_DE_STALL_LEVEL = 8   # h = 1/256; see ``_Piece.converge``
_SEAM_TOL_FACTOR = 10.0  # series and closed form may differ by this * tol


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


def _memoized(f: Callable[[float], float]) -> Callable[[float], float]:
    """``f`` evaluated at most once per distinct x.

    Each outcome is kept for the life of the returned callable: the value,
    or the exception ``f`` raised, which every request raises afresh (same
    class and message, a new object each time, so no two transforms share
    one exception)."""
    values: dict = {}
    raised: dict = {}

    def memo(x):
        try:
            return values[x]
        except KeyError:
            pass
        out = raised.get(x)
        if out is None:
            try:
                values[x] = value = f(x)
                return value
            except Exception as exc:  # replayed below on every request
                out = raised[x] = _Raised(exc)
        raise out.cls(*out.args)

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


class _NodeLevel:
    """The nodes one DE level adds to one piece: abscissae x (as an array
    and as Python floats, the form the integrand takes), log x, the
    weights dx/dt and their logarithms, the pair each node belongs to
    (t and -t form one pair; t = 0 is a pair of its own), the index and
    log x of the smallest node, and ``inward``: per node of pair p, the
    index of the node of pair p - 1 on its side of t = 0 (-1 where the
    level has none)."""

    __slots__ = ("xs", "x", "lnx", "w", "lw", "pair", "n_pairs", "low", "low_lnx",
                 "inward")

    def __init__(self, nodes: list, n_pairs: int, inward=None):
        columns = [np.array(c, dtype=float) for c in zip(*nodes)] if nodes \
            else [np.empty(0)] * 5
        self.x, self.lnx, self.w, self.lw = columns[:4]
        self.pair = columns[4].astype(np.intp)
        self.n_pairs = n_pairs
        self.xs = self.x.tolist()
        self.low = int(self.lnx.argmin()) if nodes else -1
        self.low_lnx = self.lnx[self.low].item() if nodes else math.inf
        self.inward = [-1] * len(nodes) if inward is None else inward


#: node tables, built on first use and kept for the process: keyed by
#: (node map, level) for the DE pieces, (omega, level) for the oscillatory rule
_TABLES: dict = {}


def _level_abscissae(level: int) -> list:
    """t of the nodes level ``level`` adds, in the order they are summed:
    t = 0, +-1, ..., +-6 at level 0 (h = 1); the odd multiples of
    h = 2^-level, each followed by its negative, after it."""
    if level == 0:
        ts = [0.0]
        k = 1
        while k <= _T_MAX:
            ts += [float(k), -float(k)]
            k += 1
        return ts
    h = 0.5 ** level
    ts = []
    t = h
    while t <= _T_MAX:
        ts += [t, -t]
        t += 2.0 * h
    return ts


def _node_table(node_fn, level: int) -> _NodeLevel:
    """The nodes ``node_fn`` gives at ``level``, less those past overflow
    (u > 700), of zero weight or at x <= 0, which cannot contribute."""
    table = _TABLES.get((node_fn, level))
    if table is None:
        ts = _level_abscissae(level)
        first = 1 if level == 0 else 0  # t = 0 pairs with no other node
        nodes, row_of = [], {}
        for i, t in enumerate(ts):
            node = node_fn(t)
            if node is None:
                continue
            x, lnx, w = node
            if w == 0.0 or x <= 0.0:
                continue
            row_of[i] = len(nodes)
            nodes.append((x, lnx, w, math.log(w), (i + first) // 2))
        # ts holds each side's pairs 2 entries apart; at level 0, pair 0
        # (t = 0, index 0) is inward of both sides
        inward = [row_of.get(0 if first and i == 1 else i - 2, -1) for i in row_of]
        table = _TABLES[(node_fn, level)] = _NodeLevel(
            nodes, (len(ts) + first) // 2, inward)
    return table


def _log_space_term(arg, lw: float, fv, x: float):
    # extreme exponents (extended strips): combine in log space
    if isinstance(arg, complex) or isinstance(fv, complex):
        return cmath.exp(complex(arg) + lw + cmath.log(complex(fv)))
    total = arg + lw + math.log(abs(fv))
    if total < -745.0:
        return 0.0
    if total > 709.0:
        raise ConvergenceError(
            f"integrand contribution overflows at x={x!r}; the transform "
            f"diverges at this s")
    return math.copysign(math.exp(total), fv)


def _pairwise_total(terms: np.ndarray, pair: np.ndarray, n_pairs: int):
    """The sum of a level's terms, in node order: each pair t, -t summed
    first, then the pair sums one after another."""
    if terms.dtype.kind == "c":
        sums = np.empty(n_pairs, dtype=complex)
        sums.real = np.bincount(pair, terms.real, n_pairs)
        sums.imag = np.bincount(pair, terms.imag, n_pairs)
    else:
        sums = np.bincount(pair, terms, n_pairs)
    return np.add.accumulate(sums)[-1].item()


def _screen(xs: list, fv: np.ndarray, log_pref: np.ndarray):
    """(``fv`` with its non-finite values dropped, the mask of the dropped
    nodes or None if there are none), or SingularIntegrandError at the
    first non-finite value whose weight is not negligible. A dropped node
    is judged again once the level's terms are formed
    (``_Piece._check_dropped``)."""
    bad = ~np.isfinite(fv)
    if not bad.any():
        return fv, None
    for i in np.flatnonzero(bad).tolist():
        if log_pref[i] > _LOG_SKIP_FLOOR:
            raise SingularIntegrandError(
                f"integrand failed at x={xs[i]!r} where the quadrature "
                f"weight exp({log_pref[i]:.2f}) is not negligible")
    fv[bad] = 0.0  # its own weight is negligible
    return fv, bad


class _Piece:
    """Trapezoid sums of one DE piece for one s, refined level by level.

    ``val`` is the sum at the last level, ``diffs`` the level-to-level
    differences (``diffs[0]`` is |val| at level 0), ``abs_sum`` the sum
    of |term| over every node so far, and ``low_lnx`` and ``low_f`` are
    log x0 and |f(x0)| at the smallest node x0 evaluated so far, for pieces
    that start at x = 0."""

    __slots__ = ("node_fn", "f", "sm1", "complex_s", "budget", "tol", "level", "h",
                 "val", "diffs", "abs_sum", "from_zero", "low_lnx", "low_f")

    def __init__(self, node_fn, f, s, budget: _EvalBudget, tol: float):
        self.node_fn, self.f, self.budget, self.tol = node_fn, f, budget, tol
        self.sm1 = s - 1.0
        self.complex_s = isinstance(s, complex)
        self.level, self.h = -1, 2.0
        self.val, self.diffs, self.abs_sum = 0.0, [], 0.0
        self.from_zero = node_fn is not _upper_node  # every other piece starts at 0
        self.low_lnx, self.low_f = math.inf, 0.0

    def refine(self):
        """Add the next level's nodes."""
        self.level += 1
        self.h *= 0.5
        add, abs_add = self._level_sum(_node_table(self.node_fn, self.level))
        val = self.val * 0.5 + add * self.h
        self.diffs.append(abs(val - self.val) if self.level else abs(val))
        self.val = val
        self.abs_sum += abs_add

    def _level_sum(self, lv: _NodeLevel):
        """(sum of the level's terms, sum of their magnitudes)."""
        arg = self.sm1 * lv.lnx
        re_arg = arg.real if self.complex_s else arg
        log_pref = re_arg + lv.lw
        # a prefactor below e^-800 underflows past any log-bounded growth
        keep = log_pref >= -800.0
        xs, w, lw, pair = lv.xs, lv.w, lv.lw, lv.pair
        low, low_lnx = lv.low, lv.low_lnx
        if not keep.all():
            xs = lv.x[keep].tolist()
            arg, re_arg, log_pref = arg[keep], re_arg[keep], log_pref[keep]
            w, lw, pair = w[keep], lw[keep], pair[keep]
            if xs:
                lnx = lv.lnx[keep]
                low = int(lnx.argmin())
                low_lnx = lnx[low].item()
        if not xs:
            return 0.0, 0.0
        self.budget.spend(len(xs))
        fv, dropped = self._values(xs, log_pref)
        if self.from_zero and low_lnx < self.low_lnx:
            self.low_lnx, self.low_f = low_lnx, abs(fv[low].item())
        with np.errstate(over="ignore", invalid="ignore"):
            terms = w * np.exp(arg) * fv
            good = (np.abs(re_arg) < 700.0) & np.isfinite(terms)
        if not good.all():
            zero = fv == 0
            terms[zero] = 0.0
            for i in np.flatnonzero(~(good | zero)).tolist():
                terms[i] = _log_space_term(arg[i].item(), lw[i].item(),
                                           fv[i].item(), xs[i])
        total = _pairwise_total(terms, pair, lv.n_pairs)
        if dropped is not None:
            self._check_dropped(lv, keep, dropped, terms, total)
        return total, np.abs(terms).sum().item()

    def _check_dropped(self, lv: _NodeLevel, keep, dropped, terms, total) -> None:
        """SingularIntegrandError where the terms grow toward a dropped node:
        the term of its inward neighbour (pair p - 1, same side) exceeds
        sqrt(tol) |level sum| and is no smaller than the one further in
        (pair p - 2). Next to a node an integrable f may drop, the weight
        decays faster than f grows; next to a pole (x rounds to it, f = inf)
        the term stays large however fine the level."""
        mag = np.zeros(lv.x.size + 1)  # mag[-1] = 0 stands for "no such node"
        mag[:-1][keep] = np.abs(terms)
        floor = math.sqrt(self.tol) * abs(total)
        for i in np.flatnonzero(keep)[dropped].tolist():
            inner = lv.inward[i]
            if inner >= 0 and mag[inner] > floor and mag[inner] >= mag[lv.inward[inner]]:
                raise SingularIntegrandError(
                    f"integrand is singular at x={lv.xs[i]!r}: the terms grow toward "
                    f"the non-finite value dropped there ({mag[inner]:.3e} next to "
                    f"it at level {self.level}, "
                    f"{mag[inner] / max(abs(total), 1e-300):.3g} times the level sum)")

    def _values(self, xs: list, log_pref: np.ndarray):
        """(f at every node, in node order; the mask of dropped nodes or
        None). A ValueError, OverflowError or ZeroDivisionError from f counts
        as a non-finite value; a non-finite value is dropped (0) where the
        weight is below ``_SKIP_FLOOR`` and raises SingularIntegrandError
        above it. Any other exception from f propagates, unless an earlier
        node has already raised."""
        f = self.f
        vals = []
        append = vals.append
        while True:
            try:
                for x in xs[len(vals):]:
                    append(f(x))
                break
            except (ValueError, OverflowError, ZeroDivisionError):
                append(math.nan)
            except Exception:
                _screen(xs, np.array(vals), log_pref)
                raise
        return _screen(xs, np.array(vals), log_pref)

    def rounding(self) -> float:
        """The rounding error of the sum: a few eps * h * sum |terms|."""
        return _ROUNDING_C * _EPS * self.h * self.abs_sum

    def below(self) -> float:
        """About |f(x0)| x0^Re(s) / Re(s): the part of the integral under the
        smallest node x0 evaluated, which the sums leave out (nodes where x
        underflows are dropped). 0 for the upper piece, and for Re(s) <= 0,
        where f must vanish at 0 for the transform to exist."""
        re_s = self.sm1.real + 1.0
        if self.low_f == 0.0 or re_s <= 0.0:
            return 0.0
        return math.exp(min(math.log(self.low_f) + re_s * self.low_lnx
                            - math.log(re_s), 709.0))

    def sum_err(self) -> float:
        """The error of the sum: the last level-to-level difference,
        floored by its rounding error."""
        return max(self.diffs[-1], self.rounding())

    def err(self) -> float:
        """The error of the piece: ``sum_err`` floored by the part of the
        integral under the smallest node, which no refinement reduces."""
        return max(self.sum_err(), self.below())

    def accepts(self, tol: float, scale: float) -> bool:
        """DE convergence confirmed: h <= 1/4, the last difference below
        tol * scale and the one before it below sqrt(tol) * scale."""
        return (self.h <= 0.25 and self.diffs[-1] <= tol * scale
                and self.diffs[-2] <= math.sqrt(tol) * scale)

    def converge(self) -> "_Piece":
        """Refine until convergence relative to the piece's own value.

        Two rules end a piece whose integral does not exist at this s. At
        any level, from 0 on, terms that grow toward a node dropped as
        non-finite raise SingularIntegrandError (``_check_dropped``): f has
        a pole where x rounds onto it, e.g. -1/(1 - x) at the end x = 1 of
        the lower piece. Where f hides its singularity (finite values
        everywhere), the stall rule applies: the sums of an integrable
        analytic integrand converge doubly exponentially once h is fine, so
        from level ``_DE_STALL_LEVEL`` (h = 1/256) on, a rejected level whose
        difference d_k exceeds sqrt(tol) |value| and is no smaller than
        d_{k-2} raises ConvergenceError. Coarser levels may not resolve
        x^{i Im s} yet, and their differences may grow before they shrink."""
        d, tol = self.diffs, self.tol
        while True:
            if self.level == _MAX_LEVEL:
                raise ConvergenceError(
                    "quadrature did not stabilize within the refinement budget "
                    f"(last interval-halving difference {d[-1]:.3e})")
            self.refine()
            scale = max(abs(self.val), 1e-300)
            if self.accepts(tol, scale):
                return self
            if (self.level >= _DE_STALL_LEVEL and d[-1] > math.sqrt(tol) * scale
                    and d[-1] >= d[-3]):
                raise ConvergenceError(
                    "quadrature did not stabilize: the interval-halving difference "
                    f"did not shrink from level {self.level - 2} ({d[-3]:.3e}) to "
                    f"level {self.level} ({d[-1]:.3e})")

    def tighten(self, scale) -> None:
        """Refine until convergence relative to ``scale()``, until the
        differences reach the rounding floor, or up to ``_MAX_LEVEL``."""
        while not (self.accepts(self.tol, scale())
                   or self.diffs[-1] <= self.rounding()
                   or self.level == _MAX_LEVEL):
            self.refine()


def mellin_transform(f: Callable[[float], float], s, tol: float = 1e-10,
                     max_evals: int = MAX_EVALS) -> QuadResult:
    """Mellin transform of ``f`` at ``s`` (0 < Re(s) required for the lower
    piece to converge; the caller is responsible for strip validity).

    Each piece first converges to 0.5 tol relative to itself. When the
    pieces cancel, so that their errors exceed tol relative to the total,
    the piece with the larger error and then, if needed, the other one are
    refined to 0.5 tol relative to the total. A total of exactly 0 is not
    refined further and reports ``converged=False``."""
    with _EvalBudget(max_evals) as budget:
        lo = _Piece(_lower_node, f, s, budget, 0.5 * tol).converge()
        hi = _Piece(_upper_node, f, s, budget, 0.5 * tol).converge()

        def total_scale():
            return abs(lo.val + hi.val)

        for piece in sorted((lo, hi), key=_Piece.sum_err, reverse=True):
            total = total_scale()
            if total == 0.0 or lo.sum_err() + hi.sum_err() <= tol * total:
                break
            piece.tighten(total_scale)
    value = lo.val + hi.val
    err = lo.err() + hi.err()
    converged = err <= tol * max(abs(value), 1e-300)
    return QuadResult(value, err, budget.used, converged)


def _scaled_lower_transform(f, s, x_cut: float, budget: _EvalBudget, tol: float):
    # int_0^{x_cut} x^{s-1} f(x) dx  =  x_cut^s int_0^1 y^{s-1} f(x_cut y) dy
    def g(y):
        return f(x_cut * y)

    piece = _Piece(_lower_node, g, s, budget, tol).converge()
    scale = cmath.exp(s * math.log(x_cut)) if isinstance(s, complex) \
        else math.exp(s * math.log(x_cut))
    return scale * piece.val, abs(scale) * piece.err()


def _oscillatory_table(omega: float, level: int) -> _NodeLevel:
    """The oscillatory rule's nodes at h = 2^-level: t = (k - 1/2) h from
    where x underflows up to the last node that x = (M/omega) phi(t) does
    not place on a zero of cos(omega x) in double precision (past it a node
    adds only rounding noise), each a pair of its own."""
    table = _TABLES.get((omega, level))
    if table is None:
        h = 0.5 ** level
        m = math.pi / h
        alpha = _BETA / math.sqrt(1.0 + m * math.log1p(m) / (4.0 * math.pi))
        # E(t) ~ -alpha e^-t as t -> -oo: x underflows before t = -log(800/alpha)
        t = (np.arange(math.floor(-math.log(800.0 / alpha) / h), 6.0 / h) + 0.5) * h
        e = 2.0 * t - alpha * np.expm1(-t) + _BETA * np.expm1(t)
        de = 2.0 + alpha * np.exp(-t) + _BETA * np.exp(t)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            d = -np.expm1(-e)      # phi(t) = t / d
            r = np.exp(-e) / d     # (phi(t) - t) / t
            x = m / omega * t / d
            w = m / omega * (1.0 - de * t * r) / d
            keep = (x > 0.0) & (w > 0.0) & (np.abs(r) >= _EPS)
        x, w = x[keep], w[keep]
        table = _TABLES[(omega, level)] = _NodeLevel(
            list(zip(x, np.log(x), w, np.log(w), range(x.size))), x.size)
    return table


class _OscillatoryPiece(_Piece):
    """Oscillatory DE sums for one s; ``node_fn`` maps a level to its node
    table. The levels are not nested: each is a complete sum, and
    ``abs_sum``, ``low_lnx`` and ``low_f`` are the last level's. Its tables
    name no inward neighbours, so a dropped node is judged by its weight
    alone."""

    __slots__ = ()

    def refine(self):
        self.level += 1
        self.h *= 0.5
        self.low_lnx, self.low_f = math.inf, 0.0
        add, self.abs_sum = self._level_sum(self.node_fn(self.level))
        val = add * self.h
        self.diffs.append(abs(val - self.val) if self.level else abs(val))
        self.val = val


def mellin_oscillatory(f: Callable[[float], float], s, half_period: float,
                       tol: float = 1e-8, max_evals: int = MAX_EVALS) -> QuadResult:
    """Mellin transform of an integrand that oscillates like cos(omega x),
    omega = pi / half_period, times a slowly varying factor.

    Levels h = 1, 1/2, ... of the oscillatory DE rule (module docstring) are
    refined until the ``_Piece.accepts`` rule holds or the difference
    reaches the rounding floor; err_abs is ``_Piece.err``, the difference
    floored by the rounding error and the part under the smallest node.
    From level ``_STALL_LEVEL`` on (coarser levels may not resolve the
    oscillation yet), two differences in a row above ``_STALL`` times the
    one before, or ``_MAX_LEVEL``, raise AccelerationFailureError: the
    integrand does not oscillate as declared, or Re(s) < ~0.03 puts part of
    the integral below the smallest double.
    """
    if half_period <= 0.0:
        raise ValueError(f"half period must be positive, got {half_period}")
    with _EvalBudget(max_evals) as budget:
        table = functools.partial(_oscillatory_table, math.pi / half_period)
        piece = _OscillatoryPiece(table, f, s, budget, tol)
        while True:
            piece.refine()
            d = piece.diffs
            if piece.accepts(tol, max(abs(piece.val), 1e-300)) or d[-1] <= piece.rounding():
                break
            stalled = (piece.level >= _STALL_LEVEL and d[-1] > _STALL * d[-2]
                       and d[-2] > _STALL * d[-3])
            if stalled or piece.level == _MAX_LEVEL:
                raise AccelerationFailureError(
                    "oscillatory sums do not converge double exponentially (last "
                    f"level differences {d[-2]:.3e}, then {d[-1]:.3e})")
    err = piece.err()
    return QuadResult(piece.val, err, budget.used, err <= tol * max(abs(piece.val), 1e-300))


def _series_run(h: "series_mod.SeriesHandle", tol: float,
                max_evals: int = MAX_EVALS) -> Callable[..., QuadResult]:
    """s -> ``mellin_on_series(h, s, tol, max_evals)`` for every s of one
    run; the seam check (where ``h`` has a radius and a closed form) and
    each integrand value are computed once per run."""
    eval_tol = min(1e-2 * tol, series_mod.DEFAULT_TOL)
    f = _memoized(h.closed_form if h.half_period > 0.0
                  else lambda x: series_mod.eval_series(h, x, tol=eval_tol))
    seamed = h.closed_form is not None and h.radius_hint is not None
    seam = _memoized(lambda t: series_mod.seam_check(h, t))

    def run(s) -> QuadResult:
        if seamed:
            x_seam, mismatch = seam(eval_tol)
            if mismatch > _SEAM_TOL_FACTOR * tol:
                raise SeamMismatchError(
                    f"series and closed form disagree by {mismatch:.3e} at the "
                    f"switch-over point x={x_seam:.6g}")
        if h.half_period > 0.0:
            return mellin_oscillatory(f, s, h.half_period, tol=tol, max_evals=max_evals)
        return mellin_transform(f, s, tol=tol, max_evals=max_evals)

    return run


def mellin_on_series(h: "series_mod.SeriesHandle", s, tol: float = 1e-10,
                     max_evals: int = MAX_EVALS) -> QuadResult:
    """Transform of the integrand synthesized from a series handle.

    f is the truncated series inside the convergence radius and the
    registered closed form outside (their agreement at the switch-over
    point is checked first), or the closed form alone, under the
    oscillatory rule, when the handle has a half period. This is the one-s
    case of ``_series_run``.
    """
    return _series_run(h, tol, max_evals)(s)
