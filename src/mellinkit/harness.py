"""Registry of verifiable integral identities and the conjecture runner.

Each identity pairs a left-hand side (a Mellin transform of a synthesized
series / closed form) with a closed-form right-hand side, a validity strip
and an expected status:

* ``verified``          -- passes at its registered tolerance; gates runs.
* ``conjectural``       -- the cosecant-power conjecture instances; executed
                           and reported but excluded from the pass gate.
* ``known-problematic`` -- cases the source material itself flags (the
                           digamma corollary's non-integrable g = 1
                           integrand; the squared-gamma Bernoulli recovery
                           sign question). Executed to confirm the expected
                           behavior, never gated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import catalog, series, specfun
from .errors import MellinkitError, StripViolationError, UnknownIdError
from .mellin import (QuadResult, Strip, _memoized, _seam_guard, _series_run,
                     mellin_oscillatory, mellin_transform)
# kept as harness.mellin_on_series: perfbench/test_perfbench.py checks that
# the benchmark's tracer restores this binding
from .mellin import mellin_on_series  # noqa: F401

PI = math.pi

#: samples must keep this distance from the strip edges
EDGE_MARGIN = 0.02


# ---------------------------------------------------------------------------
# result containers

@dataclass(frozen=True)
class SampleResult:
    s: complex
    lhs: complex
    rhs: complex
    rel_err: float
    err_abs: float
    n_evals: int
    converged: bool
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.converged


@dataclass(frozen=True)
class IdentityReport:
    id: str
    samples: tuple
    max_rel_err: float
    passed: bool
    expected_status: str
    tolerance: float
    note: str = ""


@dataclass(frozen=True)
class IdentityCase:
    id: str
    lhs: Callable  # tol -> (s -> QuadResult), one run per verify call
    rhs: Callable  # s -> complex
    strip: Strip
    tags: tuple
    expected_status: str = "verified"
    default_tol: float = 1e-8
    note: str = ""
    annotate: Optional[Callable] = None  # samples -> extra note text
    rhs_alt: Optional[Callable] = None   # second closed form (consistency data)
    grid_override: Optional[tuple] = None  # cases whose rhs vanishes on the default grid


# ---------------------------------------------------------------------------
# closed forms for the registered series

def _exp_decay(a: float):
    return lambda x: math.exp(-a * x)


def _geometric_alt(x: float) -> float:
    return 1.0 / (1.0 + x)


def _log_over_one_minus(x: float) -> float:
    # sum of log(x) x^n: continuous across x = 1 with value -1
    d = x - 1.0
    if d == 0.0:
        return -1.0
    return math.log1p(d) / (-d)


def _log_sq_over_one_plus(x: float) -> float:
    return (math.log(x) ** 2 + PI * PI) / (1.0 + x)


def _neg_expx_gamma0(x: float) -> float:
    return -specfun.expx_gamma0(x)


def _dilog_combo(x: float) -> float:
    # sum over n of [P_2(d/dz + log x) 1/(z+1)](n) x^n; the sum evaluates to
    # MINUS the combination (log(1-x) log x + Li2(x))/x (verified by direct
    # term summation and independent quadrature)
    if x < 1.0:
        return -(math.log1p(-x) * math.log(x) + specfun.polylog(2, x)) / x
    return -specfun.re_combo2(x) / x


def _trilog_combo(x: float) -> float:
    lx = math.log(x)
    return (PI * PI * math.log1p(x) + lx * lx * math.log1p(x)
            + 2.0 * lx * specfun.polylog(2, -x)
            - 2.0 * specfun.polylog(3, -x)) / x


#: closed forms of the classical series sum_n (-1)^n g(n) x^n per coefficient
_CLASSICAL_CLOSED: dict = {
    "const_one": _geometric_alt,
    "inv_gamma": _exp_decay(1.0),
    "inv_linear": lambda x: math.log1p(x) / x,
}

#: closed forms of the conjecture series, keyed by (m, coefficient id)
_CONJECTURE_CLOSED: dict = {
    (2, "const_one"): _log_over_one_minus,
    (3, "const_one"): _log_sq_over_one_plus,
    (2, "inv_gamma"): _neg_expx_gamma0,
    (2, "inv_linear"): _dilog_combo,
    (3, "inv_linear"): _trilog_combo,
}


def _classical_closed_for(coeff: catalog.CoefficientFunction):
    if coeff.id in _CLASSICAL_CLOSED:
        return _CLASSICAL_CLOSED[coeff.id]
    if coeff.id.startswith("power_a:"):
        a = float(coeff.id.split(":", 1)[1])
        return lambda x: 1.0 / (1.0 + a * x)
    return None


# ---------------------------------------------------------------------------
# lhs builders

def _series_lhs(handle: series.SeriesHandle):
    return lambda tol: _series_run(handle, tol)


def _oscillatory_lhs(f, half_period: float, handle: series.SeriesHandle):
    def lhs(tol):
        # series-vs-closed-form agreement inside the radius, once per run
        guard = _seam_guard(handle, tol)

        def run(s):
            guard()
            return mellin_oscillatory(f, s, half_period, tol=tol)
        return run
    return lhs


# ---------------------------------------------------------------------------
# the registry

def _classical_rmt_case(coeff_id: str, tol: float = 1e-8,
                        case_id: Optional[str] = None) -> IdentityCase:
    """Hardy-Ramanujan instance for kernel pi/sin(pi s) and coefficient g.

    Also the m = 1 reduction target of the conjecture runner: both paths
    construct their samples through this function.
    """
    g = catalog.coefficient(coeff_id)
    closed = _classical_closed_for(g)
    h = series.handle(catalog.kernel("pi_csc"), g, mode="simple",
                      closed_form=closed)

    def rhs(s):
        return (PI / specfun._sinpi_complex(complex(s))) * g.eval(-complex(s))

    return IdentityCase(
        id=case_id or f"classical_rmt:{coeff_id}",
        lhs=_series_lhs(h), rhs=rhs, strip=Strip(0.0, min(1.0, g.delta)),
        tags=("theorem", "classical"), default_tol=tol)


def _sign_annotation(samples) -> str:
    target = min(samples, key=lambda r: abs(r.s - 0.5))
    ls = "+" if target.lhs.real >= 0 else "-"
    rs = "+" if target.rhs.real >= 0 else "-"
    return (f"measured at s={target.s.real:g}: sign(lhs)={ls}1 "
            f"(lhs={target.lhs.real:.9g}), sign(rhs)={rs}1 "
            f"(rhs={target.rhs.real:.9g})")


def _build_registry() -> dict:
    cases = {}

    def add(case: IdentityCase):
        cases[case.id] = case

    one = catalog.coefficient("const_one")

    # --- gamma kernel: Bernoulli's representation
    h_gamma = series.handle(catalog.kernel("gamma"), one, closed_form=_exp_decay(1.0))
    add(IdentityCase(
        "gamma_bernoulli", _series_lhs(h_gamma),
        lambda s: specfun.gamma(s), Strip(0.0, 1.0),
        ("corollary", "integral-representation"),
        note="weight e^{-x}; the classical Euler integral"))

    # --- pi/sin kernel: geometric series instance
    add(_classical_rmt_case("const_one", case_id="pi_csc_geometric"))

    # --- gamma kernel with scaling coefficient a^z
    for a in (0.5, 2.0):
        g = catalog.coefficient(f"power_a:{a:g}")
        h = series.handle(catalog.kernel("gamma"), g, closed_form=_exp_decay(a))
        add(IdentityCase(
            f"gamma_scaled:{a:g}", _series_lhs(h),
            (lambda a_: lambda s: specfun.gamma(s) * a_ ** (-complex(s)))(a),
            Strip(0.0, 1.0), ("corollary", "scaling")))

    # --- cosine transform (conditionally convergent, oscillatory rule)
    for a in (1.0, 2.0):
        g = catalog.coefficient(f"power_a:{a:g}")
        h = series.handle(catalog.kernel("gamma_cos_half"), g,
                          closed_form=(lambda a_: lambda x: math.cos(a_ * x))(a))
        add(IdentityCase(
            f"cos_mellin:{a:g}",
            _oscillatory_lhs((lambda a_: lambda x: math.cos(a_ * x))(a), PI / a, h),
            (lambda a_: lambda s: a_ ** (-complex(s)) * specfun.gamma(s)
             * specfun._sinpi_complex(0.5 * complex(s) + 0.5))(a),
            Strip(0.0, 1.0), ("corollary", "oscillatory"), default_tol=1e-6))

    # --- squared gamma: harmonic-number weight, K0 closed form
    h_g2 = series.handle(
        catalog.kernel("gamma_squared"), one, mode="general",
        closed_form=lambda x: 2.0 * specfun.bessel_k0(2.0 * math.sqrt(x)))
    add(IdentityCase(
        "gamma_squared_rep", _series_lhs(h_g2),
        lambda s: specfun.gamma(s) ** 2, Strip(0.0, 1.0),
        ("theorem", "higher-order", "integral-representation"),
        note="weight 2 K0(2 sqrt(x))"))

    # --- K0 integral: int K0(2 sqrt x)/sqrt x dx = pi/2 at s = 1
    def k0_lhs(tol):
        # x^{s-1} K0(2 sqrt x)/sqrt x integrates as the shifted transform
        f = _memoized(lambda x: specfun.bessel_k0(2.0 * math.sqrt(x)))
        return lambda s: mellin_transform(f, s - 0.5, tol=tol)

    add(IdentityCase(
        "k0_pi", k0_lhs,
        lambda s: 0.5 * specfun.gamma(complex(s) - 0.5) ** 2,
        Strip(0.5, 1.5), ("corollary", "higher-order"),
        note="s = 1 sample is the pi/2 evaluation"))

    # --- derivative kernels, g = 1
    h_csc_d1 = series.handle(
        catalog.kernel("pi_csc"), one, mode="derivative", m=1,
        closed_form=lambda x: math.log(x) / (1.0 + x))
    add(IdentityCase(
        "csc_deriv_rep:1", _series_lhs(h_csc_d1),
        lambda s: specfun.csc_deriv(1, s), Strip(0.0, 1.0),
        ("corollary", "derivative-kernel"),
        note="weight log(x)/(1+x); the rhs vanishes at s = 1/2, so the "
             "default grid is offset away from the midpoint",
        grid_override=tuple(0.15 + 0.12 * i for i in range(7)) + (0.45 + 0.2j,)))

    for m in (1, 2):
        h = series.handle(
            catalog.kernel("gamma"), one, mode="derivative", m=m,
            closed_form=(lambda m_: lambda x: math.exp(-x) * math.log(x) ** m_)(m))
        add(IdentityCase(
            f"gamma_deriv_rep:{m}", _series_lhs(h),
            (lambda m_: lambda s: specfun.gamma_deriv(m_, s))(m),
            Strip(0.0, 1.0), ("corollary", "derivative-kernel"),
            note=f"weight e^-x log^{m}(x)"))

    # --- digamma corollary, g = 1: non-integrable across x = 1
    h_psi = series.handle(
        catalog.kernel("psi"), one,
        closed_form=lambda x: -1.0 / (1.0 - x))
    add(IdentityCase(
        "digamma_corollary", _series_lhs(h_psi),
        lambda s: specfun.polygamma(0, s), Strip(0.0, 1.0),
        ("corollary", "expected-failure"),
        expected_status="known-problematic",
        note=("the g=1 integrand -1/(1-x) is non-integrable across x=1; "
              "the expected outcome is a quadrature non-convergence "
              "diagnostic, not a value")))

    # --- squared gamma with g = sin(pi z) Gamma(z+1): the sign question
    g_sin = catalog.coefficient("sin_gamma")
    h_sg = series.handle(
        catalog.kernel("gamma_squared"), g_sin, mode="general",
        radius_hint=1.0, closed_form=lambda x: -PI * math.exp(-x))

    def rhs_sg(s):
        z = complex(s)
        return specfun.gamma(z) ** 2 * specfun._sinpi_complex(-z) * specfun.gamma(1.0 - z)

    add(IdentityCase(
        "gamma_sq_sin_gamma", _series_lhs(h_sg), rhs_sg, Strip(0.0, 1.0),
        ("higher-order", "sign-question"),
        expected_status="known-problematic",
        note=("Bernoulli recovery through the squared-gamma kernel; the "
              "residue engine yields the series -pi e^{-x}, so both sides "
              "evaluate to -pi Gamma(s); measured signs are reported and "
              "neither side is adjusted"),
        annotate=_sign_annotation))

    # --- conjecture instances
    for (m, gid), tol, rhs_alt in (
            ((2, "const_one"), 1e-7, None),
            ((3, "const_one"), 1e-7, None),
            ((2, "inv_gamma"), 1e-7,
             lambda s: -PI * specfun.gamma(complex(s))
             / specfun._sinpi_complex(complex(s))),
            ((2, "inv_linear"), 1e-6, None),
            ((3, "inv_linear"), 1e-6, None)):
        case = _conjecture_case(m, gid, tol)
        if rhs_alt is not None:
            case = IdentityCase(
                case.id, case.lhs, case.rhs, case.strip, case.tags,
                case.expected_status, case.default_tol, case.note,
                case.annotate, rhs_alt)
        add(case)

    return cases


def _conjecture_case(m: int, coeff_id: str, tol: float = 1e-6) -> IdentityCase:
    if m == 1:
        return _classical_rmt_case(coeff_id, tol,
                                   case_id=f"conjecture:m=1:{coeff_id}")
    g = catalog.coefficient(coeff_id)
    closed = _CONJECTURE_CLOSED.get((m, coeff_id))
    h = series.handle(catalog.kernel(f"pi_csc_pow:{m}"), g, mode="conjecture",
                      m=m, radius_hint=1.0, closed_form=closed)
    sign = 1.0 if (m - 1) % 2 == 0 else -1.0
    fac = math.factorial(m - 1)

    def rhs(s):
        return sign * fac * specfun.csc_power(m, complex(s)) * g.eval(-complex(s))

    return IdentityCase(
        id=f"conjecture:m={m}:{coeff_id}", lhs=_series_lhs(h), rhs=rhs,
        strip=Strip(0.0, min(1.0, g.delta)), tags=("conjecture",),
        expected_status="conjectural", default_tol=tol)


_REGISTRY: Optional[dict] = None


def _registry() -> dict:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _build_registry()
    return _REGISTRY


def get_case(identity_id: str) -> IdentityCase:
    reg = _registry()
    if identity_id not in reg:
        raise UnknownIdError(f"unknown identity id {identity_id!r}")
    return reg[identity_id]


def list_identities() -> list:
    """(id, tags, strip, expected_status) for every registered identity."""
    return [(c.id, c.tags, c.strip, c.expected_status)
            for c in _registry().values()]


# ---------------------------------------------------------------------------
# verification drivers

def default_grid(strip: Strip) -> list:
    """Seven equispaced real points on the 10%-inset strip plus one
    off-axis point (guards against real-axis-only coincidences)."""
    lo = strip.lo + 0.1 * strip.width
    hi = strip.hi - 0.1 * strip.width
    pts = [lo + (hi - lo) * i / 6.0 for i in range(7)]
    return pts + [complex(strip.lo + 0.5 * strip.width, 0.2)]


def _run_samples(case: IdentityCase, s_grid, tol: float) -> IdentityReport:
    for s in s_grid:
        if not case.strip.contains(s, EDGE_MARGIN):
            raise StripViolationError(
                f"s={s} is not inside the strip ({case.strip.lo}, {case.strip.hi}) "
                f"with margin {EDGE_MARGIN} for identity {case.id}")
    run = case.lhs(tol)
    samples = []
    for s in s_grid:
        rhs_v = complex(case.rhs(s))
        try:
            q = run(s)
            lhs_v = complex(q.value)
            rel = abs(lhs_v - rhs_v) / max(abs(rhs_v), 1e-300)
            samples.append(SampleResult(complex(s), lhs_v, rhs_v, rel,
                                        q.err_abs, q.n_evals, q.converged))
        except MellinkitError as exc:
            samples.append(SampleResult(
                complex(s), complex(float("nan"), 0.0), rhs_v,
                float("inf"), float("inf"), getattr(exc, "n_evals", 0), False,
                error=f"{type(exc).__name__}: {exc}"))
    samples.sort(key=lambda r: (r.s.real, r.s.imag))
    finite = [r.rel_err for r in samples if r.ok]
    max_rel = max(finite) if finite else float("inf")
    passed = all(r.ok for r in samples) and max_rel <= tol
    note = case.note
    if case.annotate is not None:
        extra = case.annotate(samples)
        note = f"{note}; {extra}" if note else extra
    return IdentityReport(case.id, tuple(samples), max_rel, passed,
                          case.expected_status, tol, note)


def verify(identity_id: str, s_grid=None, tol: Optional[float] = None) -> IdentityReport:
    """Run LHS-vs-RHS comparison for one identity over an s grid."""
    case = get_case(identity_id)
    if tol is None:
        tol = case.default_tol
    if s_grid is None:
        s_grid = list(case.grid_override) if case.grid_override is not None \
            else default_grid(case.strip)
    return _run_samples(case, list(s_grid), tol)


def verify_conjecture(m: int, coeff_id: str, s_grid=None,
                      tol: float = 1e-6) -> IdentityReport:
    """Run the cosecant-power conjecture at order m for a registered
    coefficient function; m = 1 reduces to the classical master theorem
    (same code path as the classical registry entry)."""
    if not 1 <= m <= 4:
        raise UnknownIdError(f"conjecture order must be 1..4, got {m}")
    case = _conjecture_case(m, coeff_id, tol)
    if s_grid is None:
        s_grid = default_grid(case.strip)
    return _run_samples(case, list(s_grid), tol)


def integral_representation(kernel_id: str, s, tol: float = 1e-8) -> QuadResult:
    """Mellin transform of the g = 1 series of a registered kernel; equals
    kernel.eval(s) within tol wherever the representation holds."""
    return _representation_run(kernel_id, tol)(s)


def _representation_run(kernel_id: str, tol: float):
    """s -> ``integral_representation(kernel_id, s, tol)`` over one handle
    and one memoized integrand, for every s of one run."""
    h, oscillatory, half_period = representation_handle(kernel_id)
    if oscillatory:
        return lambda s: mellin_oscillatory(h.closed_form, s, half_period, tol=tol)
    return _series_run(h, tol)


def representation_handle(kernel_id: str):
    """The g = 1 series handle for a kernel plus its quadrature routing.

    Returns (handle, oscillatory_flag, half_period).
    """
    one = catalog.coefficient("const_one")
    name = kernel_id.split(":", 1)[0]
    if kernel_id == "gamma":
        return (series.handle(catalog.kernel("gamma"), one,
                              closed_form=_exp_decay(1.0)), False, 0.0)
    if kernel_id == "pi_csc":
        return (series.handle(catalog.kernel("pi_csc"), one,
                              closed_form=_geometric_alt), False, 0.0)
    if kernel_id == "gamma_squared":
        return (series.handle(
            catalog.kernel("gamma_squared"), one, mode="general",
            closed_form=lambda x: 2.0 * specfun.bessel_k0(2.0 * math.sqrt(x))),
            False, 0.0)
    if kernel_id == "gamma_cos_half":
        return (series.handle(catalog.kernel("gamma_cos_half"), one,
                              closed_form=math.cos), True, PI)
    if kernel_id == "psi":
        return (series.handle(catalog.kernel("psi"), one,
                              closed_form=lambda x: -1.0 / (1.0 - x)), False, 0.0)
    if name == "gamma_deriv":
        m = int(kernel_id.split(":", 1)[1])
        return (series.handle(
            catalog.kernel("gamma"), one, mode="derivative", m=m,
            closed_form=(lambda m_: lambda x: math.exp(-x) * math.log(x) ** m_)(m)),
            False, 0.0)
    if name == "pi_csc_deriv":
        m = int(kernel_id.split(":", 1)[1])
        return (series.handle(
            catalog.kernel("pi_csc"), one, mode="derivative", m=m,
            closed_form=(lambda m_: lambda x: math.log(x) ** m_ / (1.0 + x))(m)),
            False, 0.0)
    if name == "pi_csc_pow":
        m = int(kernel_id.split(":", 1)[1])
        closed = _CONJECTURE_CLOSED.get((m, "const_one"))
        return (series.handle(catalog.kernel(kernel_id), one, mode="conjecture",
                              m=m, radius_hint=1.0, closed_form=closed),
                False, 0.0)
    raise UnknownIdError(f"no integral representation registered for {kernel_id!r}")


def verify_all(tol_overrides: Optional[dict] = None) -> list:
    """Run every registry entry on its default grid.

    Returns the list of reports in registry order; the aggregate gate is the
    caller's business (known-problematic / conjectural entries carry their
    status in the report).
    """
    overrides = dict(tol_overrides or {})
    reg = _registry()
    for key in overrides:
        if key not in reg:
            raise UnknownIdError(f"tolerance override for unknown identity {key!r}")
    return [verify(cid, tol=overrides.get(cid)) for cid in reg]


def aggregate_pass(reports) -> bool:
    """True when every gating (verified-status) identity passed."""
    return all(r.passed for r in reports if r.expected_status == "verified")
