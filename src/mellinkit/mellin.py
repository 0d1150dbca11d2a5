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

Level sums. A piece holds one row per s of a run and refines its rows
level by level in one pass over those still active; a row leaves the pass
when it accepts a level or fails. Per level, Re((s-1) log x) + log w is one
matrix over the active rows, one for real s and one for complex s (a real s
keeps its real ``exp``). A row skips the nodes where it is below -800
without calling f, and spends its evaluation budget once per level on the
nodes it keeps. f is evaluated once per distinct abscissa of the level
that any row keeps (see Shared integrand). A non-finite value of f, or a
ValueError/OverflowError/ZeroDivisionError from f other than the library's
own errors (``MellinkitError``, which pass as raised), is dropped where the
row's weight is below ``_SKIP_FLOOR`` (its neighbours' terms then judge it,
see the stopping rule) and raises SingularIntegrandError for that row above
it. The terms w exp((s-1) log x) f(x) are formed as one matrix; where
|Re((s-1) log x)| >= 700 or a term is not finite, it is formed in log space
instead (a contribution that overflows raises ConvergenceError: the
transform diverges at this s). Each row adds its kept terms at t and -t
first and then the pair sums one after another, the order of a scalar
trapezoid loop (one offset ``bincount`` for all rows); the oscillatory rule
adds its terms in order of increasing x. Every row keeps its own sums,
budget and errors, so its outcome is bit for bit that of its s alone.

Stopping rule. A piece accepts level k only when h <= 1/4 and DE
convergence is confirmed: the level-to-level difference d_k is at most
tol * |value| and d_{k-1} at most sqrt(tol) * |value|, so that the
difference has been shrinking doubly exponentially rather than being small
once by chance. Each piece first converges to 0.5 tol relative to itself;
when the two pieces cancel, so that their errors exceed tol relative to
their total, the piece with the larger error and then the other are refined
to 0.5 tol relative to the total (see ``mellin_transforms``). A piece fails
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
``harness.verify`` call, property check or ad-hoc transform is one run
over many s on one series handle, and ``mellin_transforms`` (of which
``mellin_transform`` is the one-s case) the one DE pass. The half period
rides on the handle (f is then the closed form, under
``mellin_oscillatory``, one call per s). A run checks the seam once, gives
every s its own evaluation budget, and keeps f's values in ``_Values``,
per node table, so f is called once per distinct abscissa of each table
that the run uses, for all of its s. Tables do not share values: the DE
nodes crowd double exponentially toward the ends of each piece, so many
nodes of every table of both pieces round to x = 1.0, which is evaluated
once per table (sharing it across tables saved about 2% of the benchmark's
calls). An exception f raises at a node is kept with the table; each row
that uses the node gets it, the first the exception itself and the others
a fresh one of the same class and arguments. The values belong to the run
and die with it. A value for one s does not depend on which other s share
its run: f is a deterministic function of x.
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
    """Evaluations one transform spent, against its cap."""

    __slots__ = ("used", "cap")

    def __init__(self, cap: int):
        self.used = 0
        self.cap = cap

    def spend(self, n: int = 1):
        self.used += n
        if self.used > self.cap:
            raise ConvergenceError(
                f"evaluation budget of {self.cap} exhausted without convergence")

    def charge(self, exc: BaseException) -> BaseException:
        """``exc``, carrying the count so far as ``n_evals`` if it is a
        ``MellinkitError``, so a failed transform still reports its cost."""
        if isinstance(exc, MellinkitError):
            exc.n_evals = self.used
        return exc


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
    log x of the smallest node, ``inward``: per node of pair p, the
    index of the node of pair p - 1 on its side of t = 0 (-1 where the
    level has none), the distinct abscissae ``uniq_xs`` in table order
    (about a quarter of a table's nodes round to the end x = 1.0 of its
    piece), ``uniq_inv``: each node's place among them (None where all
    differ), and the largest |log x|."""

    __slots__ = ("xs", "x", "lnx", "w", "lw", "pair", "n_pairs", "low", "low_lnx",
                 "inward", "uniq_xs", "uniq_inv", "max_abs_lnx", "_bins")

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
        place = {}
        inv = [place.setdefault(x, len(place)) for x in self.xs]
        self.uniq_xs = list(place)
        self.uniq_inv = None if len(place) == len(inv) else np.array(inv, dtype=np.intp)
        self.max_abs_lnx = float(np.abs(self.lnx).max()) if nodes else 0.0
        self._bins = {}

    def bins(self, n: int) -> np.ndarray:
        """The bin of each node's term for ``n`` rows: row i's pair p is
        bin i * n_pairs + p."""
        bins = self._bins.get(n)
        if bins is None:
            bins = np.arange(n)[:, None] * self.n_pairs + self.pair
            if bins.size <= 1 << 16:
                self._bins[n] = bins
        return bins


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


_LOWER = functools.partial(_node_table, _lower_node)
_UPPER = functools.partial(_node_table, _upper_node)


class _TableValues:
    """f at the nodes of one table for one run: ``fv`` per node (0 where not
    evaluated), ``done`` the nodes evaluated (None: all of them), ``cplx``
    where f returned a complex (None: nowhere), and ``raised``: the
    exceptions f raised, by place among the table's distinct abscissae,
    each with whether a row has had it yet."""

    __slots__ = ("fv", "done", "cplx", "raised")

    def __init__(self, fv, done=None, cplx=None):
        self.fv, self.done, self.cplx = fv, done, cplx
        self.raised: dict = {}  # place -> [exception, handed out yet]

    def raised_at(self, lv: _NodeLevel) -> np.ndarray:
        """Which nodes of ``lv`` hold an exception."""
        places = np.arange(lv.x.size) if lv.uniq_inv is None else lv.uniq_inv
        return np.isin(places, list(self.raised))

    def take(self, lv: _NodeLevel, node: int) -> Exception:
        """The exception f raised at node ``node`` of ``lv``, for one row:
        the first row gets the exception itself, every later one a fresh
        exception of the same class and arguments."""
        held = self.raised[node if lv.uniq_inv is None else int(lv.uniq_inv[node])]
        if held[1]:
            return type(held[0])(*held[0].args)
        held[1] = True
        return held[0]


def _evaluate(f, pts: list) -> tuple:
    """f at ``pts`` in order, stopping at the first where f raised other
    than as nan: (the values before it, its exception or None). A
    ValueError, OverflowError or ZeroDivisionError from f is kept as nan,
    as a non-finite value is, unless it is a ``MellinkitError``: the
    library's own errors, such as a series asked for a value past its
    radius, pass as raised."""
    vals = []
    append = vals.append
    while True:
        try:
            for x in pts[len(vals):]:
                append(f(x))
            return vals, None
        except MellinkitError as exc:
            return vals, exc
        except (ValueError, OverflowError, ZeroDivisionError):
            append(math.nan)
        except Exception as exc:  # handed to every row that uses the node
            return vals, exc


class _Values:
    """f at the nodes of one run, per node table (``_TableValues``): f is
    called once per distinct abscissa of each table the run uses, across
    its rows and levels. Tables do not share values, so an abscissa that
    several tables have, such as x = 1.0, is evaluated once per table."""

    __slots__ = ("tables",)

    def __init__(self):
        self.tables: dict = {}

    def fill(self, f, lv: _NodeLevel, keep) -> _TableValues:
        """f at the nodes of ``lv`` that the rows need. ``keep`` masks the
        nodes each row keeps (None: every row keeps every node); a row needs
        them up to the first whose f raised. f is called, in table order,
        once per abscissa needed and not evaluated yet."""
        ent = self.tables.get(lv)
        if ent is None and keep is None:
            vals, exc = _evaluate(f, lv.uniq_xs)
            if exc is None:
                fv = np.array(vals)
                cplx = None
                if fv.dtype.kind == "c":
                    cplx = np.array([np.iscomplexobj(v) for v in vals])
                if lv.uniq_inv is not None:
                    fv, cplx = fv[lv.uniq_inv], None if cplx is None else cplx[lv.uniq_inv]
                ent = self.tables[lv] = _TableValues(fv, None, cplx)
                return ent
            ent = self._store(lv, range(len(lv.uniq_xs)), vals)
            ent.raised[len(vals)] = [exc, False]
        while ent is None or ent.done is not None:
            need = np.ones((1, lv.x.size), dtype=bool) if keep is None else keep
            if ent is not None and ent.raised:
                need = need & (np.cumsum(need & ent.raised_at(lv), axis=1) == 0)
            need = need.any(axis=0)
            if ent is not None:
                need &= ~ent.done
            inv = lv.uniq_inv
            places = np.unique(need.nonzero()[0] if inv is None else inv[need]).tolist()
            if not places:
                return ent if ent is not None else self._store(lv, [], [])
            vals, exc = _evaluate(f, [lv.uniq_xs[k] for k in places])
            ent = self._store(lv, places, vals)
            if exc is None:
                break
            ent.raised[places[len(vals)]] = [exc, False]
        return ent

    def _store(self, lv: _NodeLevel, places, vals: list) -> _TableValues:
        """Enter f at the first ``len(vals)`` of ``places`` (places among the
        distinct abscissae of ``lv``) into the run's values of ``lv``."""
        ent = self.tables.get(lv)
        n = lv.x.size
        if ent is None:
            ent = self.tables[lv] = _TableValues(np.zeros(n), np.zeros(n, dtype=bool))
        got = np.zeros(len(lv.uniq_xs), dtype=bool)
        got[list(places[:len(vals)])] = True
        fv = np.zeros(got.size)
        if vals:
            new = np.array(vals)
            if new.dtype.kind == "c":
                fv = fv.astype(complex)
                if ent.cplx is None:
                    ent.fv, ent.cplx = ent.fv.astype(complex), np.zeros(n, dtype=bool)
                flags = np.zeros(got.size, dtype=bool)
                flags[got] = [np.iscomplexobj(v) for v in vals]
            fv[got] = new
        inv = np.arange(n) if lv.uniq_inv is None else lv.uniq_inv
        nodes = got[inv]
        ent.fv[nodes] = fv[inv][nodes]
        if vals and new.dtype.kind == "c":
            ent.cplx[nodes] = flags[inv][nodes]
        ent.done |= nodes
        if ent.done.all():
            ent.done = None
        return ent


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


def _screened(lv: _NodeLevel, nodes: np.ndarray, bad: np.ndarray, log_pref: np.ndarray):
    """SingularIntegrandError at the first of ``nodes`` (one row's, in
    table order) whose f is not finite and whose weight is not negligible,
    or None: the others are dropped, to be judged again once the level's
    terms are formed (``_Piece._check_dropped``). ``bad`` is the mask of
    non-finite values, None if there are none."""
    if bad is None:
        return None
    for i in nodes[bad[nodes]].tolist():
        if log_pref[i] > _LOG_SKIP_FLOOR:
            return SingularIntegrandError(
                f"integrand failed at x={lv.xs[i]!r} where the quadrature "
                f"weight exp({log_pref[i]:.2f}) is not negligible")
    return None


class _Rows:
    """The s of one run, one row each, and what every piece of the run
    keeps per row: its evaluation budget and the error that ended it
    (None while it runs)."""

    __slots__ = ("sm1", "reach", "complex_s", "mixed", "budgets", "errors")

    def __init__(self, ss: list, budgets: list):
        self.sm1 = [s - 1.0 for s in ss]
        self.reach = [abs(a.real) for a in self.sm1]  # |Re (s-1)|
        self.complex_s = [isinstance(s, complex) for s in ss]
        self.mixed = 0 < sum(self.complex_s) < len(ss)
        self.budgets = budgets
        self.errors = [None] * len(ss)

    def fail(self, r: int, exc: BaseException) -> None:
        self.errors[r] = self.budgets[r].charge(exc)


class _Piece:
    """Trapezoid sums of one DE piece, one row per s of a run, refined
    level by level; ``table(level)`` gives a level's nodes.

    Per row r, ``val[r]`` is the sum at its last level, ``diffs[r]`` the
    level-to-level differences (``diffs[r][0]`` is |val| at level 0),
    ``abs_sum[r]`` the sum of |term| over every node so far, and
    ``low_lnx[r]`` and ``low_f[r]`` are log x0 and |f(x0)| at the smallest
    node x0 evaluated so far, for pieces that start at x = 0. A row that
    raises leaves the piece with its error in ``rows.errors``."""

    __slots__ = ("table", "from_zero", "f", "rows", "tol", "values", "level",
                 "val", "diffs", "abs_sum", "low_lnx", "low_f")

    def __init__(self, table, from_zero: bool, f, rows: _Rows, tol: float,
                 values: _Values):
        self.table, self.from_zero, self.f, self.rows = table, from_zero, f, rows
        self.tol, self.values = tol, values
        n = len(rows.sm1)
        self.level = [-1] * n
        self.val = [0.0] * n
        self.diffs = [[] for _ in range(n)]
        self.abs_sum = [0.0] * n
        self.low_lnx = [math.inf] * n
        self.low_f = [0.0] * n

    def refine(self, rows: list) -> None:
        """Add the next level's nodes to each row of ``rows``, which are at
        one level."""
        level = self.level[rows[0]] + 1
        for r in rows:
            self.level[r] = level
        h = 0.5 ** level
        for r, (add, abs_add) in self._level_sums(rows, self.table(level)).items():
            val = self.val[r] * 0.5 + add * h
            self.diffs[r].append(abs(val - self.val[r]) if level else abs(val))
            self.val[r] = val
            self.abs_sum[r] += abs_add

    def _level_sums(self, rows: list, lv: _NodeLevel) -> dict:
        """r -> (sum of the level's terms, sum of their magnitudes) for each
        row of ``rows`` that did not fail: one block of rows for real s and
        one for complex s, each summed as one matrix."""
        sums = {}
        if not lv.xs:
            return dict.fromkeys(rows, (0.0, 0.0))
        if not self.rows.mixed:
            self._block_sums(rows, lv, sums)
            return sums
        cs = self.rows.complex_s
        for block in ([r for r in rows if not cs[r]], [r for r in rows if cs[r]]):
            if block:
                self._block_sums(block, lv, sums)
        return sums

    def _block_sums(self, rows: list, lv: _NodeLevel, sums: dict) -> None:
        """Sum the level for the rows of one block: skip the nodes whose
        prefactor is negligible, spend each row's budget, screen the rows
        whose f raised or is not finite at a kept node, and sum the terms
        of the others. Rows with no kept node sum to 0."""
        run = self.rows
        with np.errstate(over="ignore"):  # |s| near the largest double
            arg = (run.sm1[rows[0]] * lv.lnx)[None] if len(rows) == 1 else \
                np.array([run.sm1[r] for r in rows])[:, None] * lv.lnx
        re_arg = arg.real if arg.dtype.kind == "c" else arg
        log_pref = re_arg + lv.lw[None]
        # a prefactor below e^-800 underflows past any log-bounded growth
        keep = log_pref >= -800.0
        full = np.count_nonzero(keep) == keep.size
        counts = [lv.x.size] * len(rows) if full else \
            np.count_nonzero(keep, axis=1).tolist()
        live = []
        for i, (r, n) in enumerate(zip(rows, counts)):
            if not n:
                sums[r] = (0.0, 0.0)
                continue
            try:
                run.budgets[r].spend(n)
            except MellinkitError as exc:
                run.fail(r, exc)
                continue
            live.append(i)
        if len(live) < len(rows):
            if not live:
                return
            rows = [rows[i] for i in live]
            arg, re_arg, log_pref, keep = arg[live], re_arg[live], log_pref[live], keep[live]
        ent = self.values.fill(self.f, lv, None if full else keep)
        fv = ent.fv
        finite = np.isfinite(fv)
        bad = None if np.count_nonzero(finite) == finite.size else ~finite
        dropped = {}
        if bad is not None or ent.raised:
            hit = keep & ent.raised_at(lv) if ent.raised else None
            live = []
            for i, r in enumerate(rows):
                if hit is not None and hit[i].any():
                    # f raised at a kept node: screen the nodes before it
                    j = int(hit[i].argmax())
                    run.fail(r, _screened(lv, keep[i, :j].nonzero()[0], bad, log_pref[i])
                             or ent.take(lv, j))
                    continue
                if bad is not None:
                    nodes = (keep[i] & bad).nonzero()[0]
                    if nodes.size:
                        exc = _screened(lv, nodes, bad, log_pref[i])
                        if exc is not None:
                            run.fail(r, exc)
                            continue
                        dropped[r] = nodes
                live.append(i)
            if not live:
                return
            if bad is not None:
                fv = fv.copy()
                fv[bad] = 0.0  # its own weight is negligible
            if len(live) < len(rows):
                rows = [rows[i] for i in live]
                arg, re_arg, keep = arg[live], re_arg[live], keep[live]
        if ent.cplx is None or arg.dtype.kind == "c":
            self._sum_terms(rows, lv, arg, re_arg, keep, full, fv, dropped, sums)
            return
        # real s: a row whose kept values are all real sums them as real
        cplx = (keep & ent.cplx).any(axis=1)
        for part, fvv in ((~cplx, fv.real), (cplx, fv)):
            if part.any():
                self._sum_terms([r for r, p in zip(rows, part) if p], lv, arg[part],
                                re_arg[part], keep[part], full, fvv, dropped, sums)

    def _sum_terms(self, rows, lv, arg, re_arg, keep, full, fv, dropped, sums) -> None:
        """Form the terms w exp((s-1) log x) f(x) of one block's rows and sum
        each row's kept ones: each pair t, -t first, then the pair sums one
        after another (one offset ``bincount`` for the block)."""
        run = self.rows
        n = len(rows)
        if self.from_zero:
            low_f = abs(fv[lv.low].item()) if full else None
            for i, r in enumerate(rows):
                if full:
                    low, low_lnx = lv.low, lv.low_lnx
                else:
                    low = int(np.where(keep[i], lv.lnx, math.inf).argmin())
                    low_lnx = lv.lnx[low].item()
                if low_lnx < self.low_lnx[r]:
                    self.low_lnx[r] = low_lnx
                    self.low_f[r] = low_f if full else abs(fv[low].item())
        with np.errstate(over="ignore", invalid="ignore"):
            # (1, N) operands: numpy broadcasts them across the rows faster
            # than 1-d ones
            terms = lv.w[None] * np.exp(arg) * fv[None]
            finite = np.isfinite(terms)
        failed = set()
        # where |Re (s-1) log x| may reach 700, or a term is not finite,
        # the term is formed in log space
        reach = run.reach[rows[0]] if n == 1 else max(run.reach[r] for r in rows)
        near = reach * lv.max_abs_lnx >= 699.0
        if near or np.count_nonzero(finite if full else finite[keep]) < \
                (finite.size if full else np.count_nonzero(keep)):
            good = (np.abs(re_arg) < 700.0) & finite if near else finite
            odd = ~good if full else keep & ~good
            zero = fv == 0
            for i in odd.any(axis=1).nonzero()[0].tolist():
                terms[i, zero & keep[i]] = 0.0
                try:
                    for j in (odd[i] & ~zero).nonzero()[0].tolist():
                        terms[i, j] = _log_space_term(arg[i, j].item(), lv.lw[j].item(),
                                                      fv[j].item(), lv.xs[j])
                except Exception as exc:  # this row's outcome
                    run.fail(rows[i], exc)
                    failed.add(i)
        bins = lv.bins(n)
        kept = (bins.ravel(), terms.ravel()) if full else (bins[keep], terms[keep])
        size = n * lv.n_pairs
        if terms.dtype.kind == "c":
            pair_sums = np.empty(size, dtype=complex)
            pair_sums.real = np.bincount(kept[0], kept[1].real, size)
            pair_sums.imag = np.bincount(kept[0], kept[1].imag, size)
        else:
            pair_sums = np.bincount(kept[0], kept[1], size)
        mags = np.abs(terms)
        # numpy sums a contiguous row pairwise, so each row is summed as
        # its own compressed array would be
        if n == 1 and full:  # the same sums by 1-d calls, which cost less
            totals = [np.add.accumulate(pair_sums)[-1].item()]
            abs_sums = [np.add.reduce(mags[0]).item()]
        else:
            totals = np.add.accumulate(pair_sums.reshape(n, lv.n_pairs), axis=1)[:, -1].tolist()
            abs_sums = np.add.reduce(mags, axis=1).tolist() if full else \
                [np.add.reduce(mags[i][keep[i]]).item() for i in range(n)]
        for i, (r, total, abs_sum) in enumerate(zip(rows, totals, abs_sums)):
            if i in failed:
                continue
            if r in dropped:
                mag = np.zeros(lv.x.size + 1)  # mag[-1] = 0 stands for "no such node"
                if full:
                    mag[:-1] = mags[i]
                else:
                    mag[:-1][keep[i]] = mags[i][keep[i]]
                try:
                    self._check_dropped(r, lv, mag, dropped[r], total)
                except MellinkitError as exc:
                    run.fail(r, exc)
                    continue
            sums[r] = (total, abs_sum)

    def _check_dropped(self, r: int, lv: _NodeLevel, mag, dropped, total) -> None:
        """SingularIntegrandError where row r's terms grow toward a dropped
        node: the term of its inward neighbour (pair p - 1, same side)
        exceeds sqrt(tol) |level sum| and is no smaller than the one further
        in (pair p - 2). Next to a node an integrable f may drop, the weight
        decays faster than f grows; next to a pole (x rounds to it, f = inf)
        the term stays large however fine the level."""
        floor = math.sqrt(self.tol) * abs(total)
        for i in dropped.tolist():
            inner = lv.inward[i]
            if inner >= 0 and mag[inner] > floor and mag[inner] >= mag[lv.inward[inner]]:
                raise SingularIntegrandError(
                    f"integrand is singular at x={lv.xs[i]!r}: the terms grow toward "
                    f"the non-finite value dropped there ({mag[inner]:.3e} next to "
                    f"it at level {self.level[r]}, "
                    f"{mag[inner] / max(abs(total), 1e-300):.3g} times the level sum)")

    def rounding(self, r: int) -> float:
        """The rounding error of row r's sum: a few eps * h * sum |terms|."""
        return _ROUNDING_C * _EPS * 0.5 ** self.level[r] * self.abs_sum[r]

    def below(self, r: int) -> float:
        """About |f(x0)| x0^Re(s) / Re(s): the part of the integral under the
        smallest node x0 evaluated, which the sums leave out (nodes where x
        underflows are dropped). 0 for the upper piece, and for Re(s) <= 0,
        where f must vanish at 0 for the transform to exist."""
        re_s = self.rows.sm1[r].real + 1.0
        if self.low_f[r] == 0.0 or re_s <= 0.0:
            return 0.0
        return math.exp(min(math.log(self.low_f[r]) + re_s * self.low_lnx[r]
                            - math.log(re_s), 709.0))

    def sum_err(self, r: int) -> float:
        """The error of row r's sum: the last level-to-level difference,
        floored by its rounding error."""
        return max(self.diffs[r][-1], self.rounding(r))

    def err(self, r: int) -> float:
        """The error of row r: ``sum_err`` floored by the part of the
        integral under the smallest node, which no refinement reduces."""
        return max(self.sum_err(r), self.below(r))

    def accepts(self, r: int, tol: float, scale: float) -> bool:
        """DE convergence confirmed: h <= 1/4, the last difference below
        tol * scale and the one before it below sqrt(tol) * scale."""
        d = self.diffs[r]
        return self.level[r] >= 2 and d[-1] <= tol * scale and d[-2] <= math.sqrt(tol) * scale

    def converge(self, rows) -> None:
        """Refine every row of ``rows`` that has not failed, level by level
        in one pass for all of them, until each converges relative to its
        own value or fails.

        Two rules end a row whose integral does not exist at its s. At any
        level, from 0 on, terms that grow toward a node dropped as
        non-finite raise SingularIntegrandError (``_check_dropped``): f has
        a pole where x rounds onto it, e.g. -1/(1 - x) at the end x = 1 of
        the lower piece. Where f hides its singularity (finite values
        everywhere), the stall rule applies: the sums of an integrable
        analytic integrand converge doubly exponentially once h is fine, so
        from level ``_DE_STALL_LEVEL`` (h = 1/256) on, a rejected level whose
        difference d_k exceeds sqrt(tol) |value| and is no smaller than
        d_{k-2} raises ConvergenceError. Coarser levels may not resolve
        x^{i Im s} yet, and their differences may grow before they shrink."""
        tol, run = self.tol, self.rows
        active = [r for r in rows if run.errors[r] is None]
        while active:
            if self.level[active[0]] == _MAX_LEVEL:
                for r in active:
                    run.fail(r, ConvergenceError(
                        "quadrature did not stabilize within the refinement budget "
                        f"(last interval-halving difference {self.diffs[r][-1]:.3e})"))
                return
            self.refine(active)
            going = []
            for r in active:
                if run.errors[r] is not None:
                    continue
                d = self.diffs[r]
                scale = max(abs(self.val[r]), 1e-300)
                if self.accepts(r, tol, scale):
                    continue
                if (self.level[r] >= _DE_STALL_LEVEL and d[-1] > math.sqrt(tol) * scale
                        and d[-1] >= d[-3]):
                    run.fail(r, ConvergenceError(
                        "quadrature did not stabilize: the interval-halving difference "
                        f"did not shrink from level {self.level[r] - 2} ({d[-3]:.3e}) to "
                        f"level {self.level[r]} ({d[-1]:.3e})"))
                    continue
                going.append(r)
            active = going

    def tighten(self, r: int, scale) -> None:
        """Refine row r until it converges relative to ``scale()``, its
        differences reach the rounding floor, it reaches ``_MAX_LEVEL`` or
        it fails."""
        while not (self.accepts(r, self.tol, scale())
                   or self.diffs[r][-1] <= self.rounding(r)
                   or self.level[r] == _MAX_LEVEL):
            self.refine([r])
            if self.rows.errors[r] is not None:
                return


def _outcome(out):
    """A transform's QuadResult, or the exception it ended with, raised."""
    if isinstance(out, BaseException):
        raise out
    return out


def mellin_transforms(f: Callable[[float], float], ss, tol: float = 1e-10,
                      max_evals: int = MAX_EVALS) -> list:
    """Mellin transform of ``f`` at every s of ``ss`` (0 < Re(s) required
    for the lower piece to converge; the caller is responsible for strip
    validity): per s, in order, its QuadResult or the exception its
    transform ended with.

    Every s is a row of both pieces, refined level by level in one pass
    over the rows still active, and f is evaluated once per distinct
    abscissa of a level that any row uses. Each row keeps its own level
    sums, budget of ``max_evals`` and errors, so its outcome does not depend
    on the other rows: value, err_abs, n_evals and converged, or the
    error's class, message and n_evals, are those of
    ``mellin_transform(f, s)``.

    Each piece first converges to 0.5 tol relative to itself. When a row's
    pieces cancel, so that their errors exceed tol relative to the total,
    the piece with the larger error and then, if needed, the other one are
    refined to 0.5 tol relative to the total. A total of exactly 0 is not
    refined further and reports ``converged=False``."""
    ss = list(ss)
    rows = _Rows(ss, [_EvalBudget(max_evals) for _ in ss])
    values = _Values()
    lo = _Piece(_LOWER, True, f, rows, 0.5 * tol, values)
    hi = _Piece(_UPPER, False, f, rows, 0.5 * tol, values)
    every = range(len(ss))
    lo.converge(every)
    hi.converge(every)
    return [_joined(lo, hi, r, tol) for r in every]


def _joined(lo: _Piece, hi: _Piece, r: int, tol: float):
    """Row r's QuadResult from its converged pieces, refined against their
    total where they cancel, or the error it ended with."""
    errors = lo.rows.errors
    if errors[r] is None:
        def total_scale():
            return abs(lo.val[r] + hi.val[r])

        # the piece with the larger error first (the lower one on a tie)
        for piece in (lo, hi) if lo.sum_err(r) >= hi.sum_err(r) else (hi, lo):
            total = total_scale()
            if total == 0.0 or lo.sum_err(r) + hi.sum_err(r) <= tol * total:
                break
            piece.tighten(r, total_scale)
    if errors[r] is not None:
        return errors[r]
    value = lo.val[r] + hi.val[r]
    err = lo.err(r) + hi.err(r)
    return QuadResult(value, err, lo.rows.budgets[r].used,
                      err <= tol * max(abs(value), 1e-300))


def mellin_transform(f: Callable[[float], float], s, tol: float = 1e-10,
                     max_evals: int = MAX_EVALS) -> QuadResult:
    """Mellin transform of ``f`` at ``s``: the one-row case of
    ``mellin_transforms``, raising the error the transform ends with."""
    return _outcome(mellin_transforms(f, [s], tol, max_evals)[0])


def _scaled_lower_transform(f, s, x_cut: float, budget: _EvalBudget, tol: float):
    # int_0^{x_cut} x^{s-1} f(x) dx  =  x_cut^s int_0^1 y^{s-1} f(x_cut y) dy
    def g(y):
        return f(x_cut * y)

    rows = _Rows([s], [budget])
    piece = _Piece(_LOWER, True, g, rows, tol, _Values())
    piece.converge([0])
    if rows.errors[0] is not None:
        raise rows.errors[0]
    scale = cmath.exp(s * math.log(x_cut)) if isinstance(s, complex) \
        else math.exp(s * math.log(x_cut))
    return scale * piece.val[0], abs(scale) * piece.err(0)


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
    """Oscillatory DE sums; ``table`` maps a level to its node table. The
    levels are not nested: each is a complete sum, and ``abs_sum``,
    ``low_lnx`` and ``low_f`` are the last level's. Its tables name no
    inward neighbours, so a dropped node is judged by its weight alone."""

    __slots__ = ()

    def refine(self, rows: list) -> None:
        level = self.level[rows[0]] + 1
        for r in rows:
            self.level[r] = level
            self.low_lnx[r], self.low_f[r] = math.inf, 0.0
        h = 0.5 ** level
        for r, (add, abs_add) in self._level_sums(rows, self.table(level)).items():
            val = add * h
            self.diffs[r].append(abs(val - self.val[r]) if level else abs(val))
            self.val[r] = val
            self.abs_sum[r] = abs_add


def mellin_oscillatory(f: Callable[[float], float], s, half_period: float,
                       tol: float = 1e-8, max_evals: int = MAX_EVALS,
                       values: "_Values | None" = None) -> QuadResult:
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
    the integral below the smallest double. The calls of one run share f's
    values at the nodes through ``values``, the run's ``_Values`` of this f.
    """
    if half_period <= 0.0:
        raise ValueError(f"half period must be positive, got {half_period}")
    rows = _Rows([s], [_EvalBudget(max_evals)])
    piece = _OscillatoryPiece(functools.partial(_oscillatory_table, math.pi / half_period),
                              True, f, rows, tol, _Values() if values is None else values)
    while True:
        piece.refine([0])
        if rows.errors[0] is not None:
            raise rows.errors[0]
        d = piece.diffs[0]
        if piece.accepts(0, tol, max(abs(piece.val[0]), 1e-300)) or d[-1] <= piece.rounding(0):
            break
        stalled = (piece.level[0] >= _STALL_LEVEL and d[-1] > _STALL * d[-2]
                   and d[-2] > _STALL * d[-3])
        if stalled or piece.level[0] == _MAX_LEVEL:
            rows.fail(0, AccelerationFailureError(
                "oscillatory sums do not converge double exponentially (last "
                f"level differences {d[-2]:.3e}, then {d[-1]:.3e})"))
            raise rows.errors[0]
    val, err = piece.val[0], piece.err(0)
    return QuadResult(val, err, rows.budgets[0].used, err <= tol * max(abs(val), 1e-300))


def _series_run(h: "series_mod.SeriesHandle", ss, tol: float,
                max_evals: int = MAX_EVALS) -> list:
    """The transform of the series handle ``h`` at every s of ``ss``, each
    s's QuadResult or error as ``mellin_transforms`` gives them. The seam
    check (where ``h`` has a radius and a closed form) runs once, and each
    integrand value is computed once for all s: in one
    ``mellin_transforms`` pass, or, for a handle with a half period, in one
    ``mellin_oscillatory`` call per s that share their values."""
    ss = list(ss)
    eval_tol = min(1e-2 * tol, series_mod.DEFAULT_TOL)
    if ss and h.closed_form is not None and h.radius_hint is not None:
        try:
            x_seam, mismatch = series_mod.seam_check(h, eval_tol)
        except Exception as exc:  # every s gets it, as its own exception
            return [exc] + [type(exc)(*exc.args) for _ in ss[1:]]
        if mismatch > _SEAM_TOL_FACTOR * tol:
            return [SeamMismatchError(
                f"series and closed form disagree by {mismatch:.3e} at the "
                f"switch-over point x={x_seam:.6g}") for _ in ss]
    if h.half_period <= 0.0:
        return mellin_transforms(lambda x: series_mod.eval_series(h, x, tol=eval_tol),
                                 ss, tol, max_evals)
    values, out = _Values(), []
    for s in ss:
        try:
            out.append(mellin_oscillatory(h.closed_form, s, h.half_period, tol=tol,
                                          max_evals=max_evals, values=values))
        except Exception as exc:  # the caller decides which errors to report
            out.append(exc)
    return out


def mellin_on_series(h: "series_mod.SeriesHandle", s, tol: float = 1e-10,
                     max_evals: int = MAX_EVALS) -> QuadResult:
    """Transform of the integrand synthesized from a series handle.

    f is the truncated series inside the convergence radius and the
    registered closed form outside (their agreement at the switch-over
    point is checked first), or the closed form alone, under the
    oscillatory rule, when the handle has a half period. This is the one-s
    case of ``_series_run``.
    """
    return _outcome(_series_run(h, [s], tol, max_evals)[0])
