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

Closed forms and representations come from one table, ``_FORMS``, keyed by
kernel name. Each entry holds the strip of the kernel's g = 1
representation, the closed form of its g = 1 series for each kernel
parameter m, and the closed forms for the few coefficients g outside
{1, a^z}. A coefficient g = a^z needs no entry:
g(-z) x^{-z} = (a x)^{-z}, so its series is the g = 1 series at a x. Every
series handle, of an identity, of a g = 1 representation or of an ad-hoc
(kernel, coefficient) pair, comes from ``representation_handle``, and
``check_representable`` reads the same table. A handle whose closed form
oscillates carries its half period, which selects the oscillatory rule in
``mellin._series_run``.

The cosecant-power conjecture is the master theorem at the order-m poles of
h = (pi/sin(pi z))^m: its summands (-1)^{mk} [P_m(d/dz + log x) g](k) x^k
are c_m = (-1)^{m-1} (m-1)! times the residues of h(z) g(-z) x^{-z}, as an
exact identity of polynomials in pi^2. So a conjecture case runs h's own
series (the table's forms carry no c_m) scaled by c_m, rows and closed form
alike, against the conjecture's right-hand side c_m h(s) g(-s).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from . import catalog, series, specfun
from .errors import (MellinkitError, RadiusExceededError, StripViolationError,
                     UnknownIdError)
from .jets import pm_polynomial
from .mellin import (MAX_EVALS, QuadResult, Strip, _outcome, _series_run,
                     mellin_on_series, mellin_transforms)

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
    lhs: Callable  # (ss, tol, max_evals) -> per s its QuadResult or error, one run
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
# closed forms and representations: one table, keyed by kernel name

def _log_over_one_minus(x: float) -> float:
    # sum of log(x) x^n: continuous across x = 1 with value -1
    d = x - 1.0
    if d == 0.0:
        return -1.0
    return math.log1p(d) / (-d)


def _dilog_combo(x: float) -> float:
    # the residue series of (pi/sin(pi z))^2 with g = 1/(z+1):
    # (log(1-x) log x + Li2(x))/x (verified by direct term summation and
    # independent quadrature)
    if x < 1.0:
        return (math.log1p(-x) * math.log(x) + specfun.polylog(2, x)) / x
    return specfun.re_combo2(x) / x


def _trilog_combo(x: float) -> float:
    # the residue series of (pi/sin(pi z))^3 with g = 1/(z+1)
    lx = math.log(x)
    return 0.5 * (PI * PI * math.log1p(x) + lx * lx * math.log1p(x)
                  + 2.0 * lx * specfun.polylog(2, -x)
                  - 2.0 * specfun.polylog(3, -x)) / x


def _csc_power_scale(m: int) -> int:
    """c_m = (-1)^{m-1} (m-1)!: the conjecture's summands over the residues
    of (pi/sin(pi z))^m."""
    return (-1) ** (m - 1) * math.factorial(m - 1)


def _csc_power_weight(m: int):
    """P_m(log x) / (c_m (1 - (-1)^m x)): the g = 1 residue series of
    (pi/sin(pi z))^m. For even m, P_m(L) = L Q(L) and log(x)/(1 - x) is
    taken continuously through x = 1."""
    coeffs = pm_polynomial(m)
    if m % 2 == 0:
        coeffs = coeffs[1:]
    c = _csc_power_scale(m)

    def q(lx: float) -> float:
        return sum(a * lx ** p for p, a in enumerate(coeffs) if a)

    if m % 2:
        return lambda x: q(math.log(x)) / (1.0 + x) / c
    return lambda x: q(math.log(x)) * _log_over_one_minus(x) / c


@dataclass(frozen=True)
class _Forms:
    """What the registry knows of the series of one kernel family."""

    strip: Optional[tuple]  # Re(s) range of the g = 1 representation
    one: Callable           # m -> closed form of the g = 1 series
    by_coeff: dict = field(default_factory=dict)  # (m, coeff id) -> closed form
    radius: Optional[float] = None  # used where the coefficient has no growth data
    half_period: float = 0.0        # > 0: the g = 1 form oscillates (oscillatory rule)


#: m is the kernel's parameter (0 for kernels without one). psi has no
#: strip: its g = 1 integrand -1/(1 - x) is not integrable, and its
#: transforms end in a quadrature diagnostic.
_FORMS = {
    "gamma": _Forms((0.0, math.inf), lambda m: lambda x: math.exp(-x)),
    "gamma_deriv": _Forms((0.0, math.inf),
                          lambda m: lambda x: math.exp(-x) * math.log(x) ** m),
    "gamma_squared": _Forms(
        (0.0, math.inf),
        lambda m: lambda x: 2.0 * specfun.bessel_k0(2.0 * math.sqrt(x)),
        {(0, "sin_gamma"): lambda x: -PI * math.exp(-x)}, radius=1.0),
    "gamma_cos_half": _Forms((0.0, 1.0), lambda m: math.cos, half_period=PI),
    "pi_csc": _Forms((0.0, 1.0), lambda m: lambda x: 1.0 / (1.0 + x),
                     {(0, "inv_gamma"): lambda x: math.exp(-x),
                      (0, "inv_linear"): lambda x: math.log1p(x) / x}, radius=1.0),
    "pi_csc_deriv": _Forms((0.0, 1.0),
                           lambda m: lambda x: math.log(x) ** m / (1.0 + x)),
    "pi_csc_pow": _Forms((0.0, 1.0), _csc_power_weight,
                         {(2, "inv_gamma"): specfun.expx_gamma0,
                          (2, "inv_linear"): _dilog_combo,
                          (3, "inv_linear"): _trilog_combo}, radius=1.0),
    "psi": _Forms(None, lambda m: lambda x: -1.0 / (1.0 - x)),
}


def _closed_form(forms: _Forms, m: int, coeff_id: str):
    """(closed form, half period) of the series of one coefficient."""
    if coeff_id == "const_one":
        return forms.one(m), forms.half_period
    if coeff_id.startswith("power_a:"):
        # g(-z) x^{-z} = (a x)^{-z}: every summand is the g = 1 one at a x
        a = float(coeff_id.split(":", 1)[1])
        f = forms.one(m)
        return (lambda x: f(a * x)), forms.half_period / a
    return forms.by_coeff.get((m, coeff_id)), 0.0


def representation_handle(kernel_id: str, coeff_id: str = "const_one") -> series.SeriesHandle:
    """The integrand series of a kernel and a coefficient, with the closed
    form the table gives for it (None where it has none) and, where that
    form oscillates, its half period."""
    name, _, param = kernel_id.partition(":")
    forms = _FORMS.get(name)
    if forms is None:
        raise UnknownIdError(f"no integral representation registered for {kernel_id!r}")
    kern = catalog.kernel(kernel_id)  # rejects a missing or malformed parameter
    coeff = catalog.coefficient(coeff_id)
    m = int(param) if param else 0
    closed_form, half_period = _closed_form(forms, m, coeff_id)
    return series.handle(
        kern, coeff, radius_hint=series.theorem_radius(coeff) or forms.radius,
        closed_form=closed_form, half_period=half_period)


def _lhs(h: series.SeriesHandle):
    """(ss, tol, max_evals) -> ``_series_run(h, ss, tol, max_evals)``."""
    return functools.partial(_series_run, h)


# ---------------------------------------------------------------------------
# the registry

def _classical_rmt_case(coeff_id: str, tol: float = 1e-8,
                        case_id: Optional[str] = None) -> IdentityCase:
    """Hardy-Ramanujan instance for kernel pi/sin(pi s) and coefficient g.

    Also the m = 1 reduction target of the conjecture runner: both paths
    construct their samples through this function.
    """
    h = representation_handle("pi_csc", coeff_id)
    g = h.coeff

    def rhs(s):
        return (PI / specfun._sinpi_complex(complex(s))) * g.eval(-complex(s))

    return IdentityCase(
        id=case_id or f"classical_rmt:{coeff_id}",
        lhs=_lhs(h), rhs=rhs, strip=Strip(0.0, min(1.0, g.delta)),
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

    # --- gamma kernel: Bernoulli's representation
    add(IdentityCase(
        "gamma_bernoulli", _lhs(representation_handle("gamma")),
        lambda s: specfun.gamma(s), Strip(0.0, 1.0),
        ("corollary", "integral-representation"),
        note="weight e^{-x}; the classical Euler integral"))

    # --- pi/sin kernel: geometric series instance
    add(_classical_rmt_case("const_one", case_id="pi_csc_geometric"))

    # --- gamma kernel with scaling coefficient a^z
    for a in (0.5, 2.0):
        add(IdentityCase(
            f"gamma_scaled:{a:g}", _lhs(representation_handle("gamma", f"power_a:{a:g}")),
            (lambda a_: lambda s: specfun.gamma(s) * a_ ** (-complex(s)))(a),
            Strip(0.0, 1.0), ("corollary", "scaling")))

    # --- cosine transform (conditionally convergent, oscillatory rule)
    for a in (1.0, 2.0):
        add(IdentityCase(
            f"cos_mellin:{a:g}",
            _lhs(representation_handle("gamma_cos_half", f"power_a:{a:g}")),
            (lambda a_: lambda s: a_ ** (-complex(s)) * specfun.gamma(s)
             * specfun._sinpi_complex(0.5 * complex(s) + 0.5))(a),
            Strip(0.0, 1.0), ("corollary", "oscillatory")))

    # --- squared gamma: harmonic-number weight, K0 closed form
    add(IdentityCase(
        "gamma_squared_rep", _lhs(representation_handle("gamma_squared")),
        lambda s: specfun.gamma(s) ** 2, Strip(0.0, 1.0),
        ("theorem", "higher-order", "integral-representation"),
        note="weight 2 K0(2 sqrt(x))"))

    # --- K0 integral: int K0(2 sqrt x)/sqrt x dx = pi/2 at s = 1
    def k0_lhs(ss, tol, max_evals=MAX_EVALS):
        # x^{s-1} K0(2 sqrt x)/sqrt x integrates as the shifted transform
        return mellin_transforms(lambda x: specfun.bessel_k0(2.0 * math.sqrt(x)),
                                 [s - 0.5 for s in ss], tol, max_evals)

    add(IdentityCase(
        "k0_pi", k0_lhs,
        lambda s: 0.5 * specfun.gamma(complex(s) - 0.5) ** 2,
        Strip(0.5, 1.5), ("corollary", "higher-order"),
        note="s = 1 sample is the pi/2 evaluation"))

    # --- derivative kernels, g = 1
    add(IdentityCase(
        "csc_deriv_rep:1", _lhs(representation_handle("pi_csc_deriv:1")),
        lambda s: specfun.csc_deriv(1, s), Strip(0.0, 1.0),
        ("corollary", "derivative-kernel"),
        note="weight log(x)/(1+x); the rhs vanishes at s = 1/2, so the "
             "default grid is offset away from the midpoint",
        grid_override=tuple(0.15 + 0.12 * i for i in range(7)) + (0.45 + 0.2j,)))

    for m in (1, 2):
        add(IdentityCase(
            f"gamma_deriv_rep:{m}", _lhs(representation_handle(f"gamma_deriv:{m}")),
            (lambda m_: lambda s: specfun.gamma_deriv(m_, s))(m),
            Strip(0.0, 1.0), ("corollary", "derivative-kernel"),
            note=f"weight e^-x log^{m}(x)"))

    # --- digamma corollary, g = 1: non-integrable across x = 1
    add(IdentityCase(
        "digamma_corollary", _lhs(representation_handle("psi")),
        lambda s: specfun.polygamma(0, s), Strip(0.0, 1.0),
        ("corollary", "expected-failure"),
        expected_status="known-problematic",
        note=("the g=1 integrand -1/(1-x) is non-integrable across x=1; "
              "the expected outcome is a quadrature non-convergence "
              "diagnostic, not a value")))

    # --- squared gamma with g = sin(pi z) Gamma(z+1): the sign question
    h_sg = representation_handle("gamma_squared", "sin_gamma")

    def rhs_sg(s):
        z = complex(s)
        return specfun.gamma(z) ** 2 * specfun._sinpi_complex(-z) * specfun.gamma(1.0 - z)

    add(IdentityCase(
        "gamma_sq_sin_gamma", _lhs(h_sg), rhs_sg, Strip(0.0, 1.0),
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
        add(replace(_conjecture_case(m, gid, tol), rhs_alt=rhs_alt))

    return cases


def _conjecture_case(m: int, coeff_id: str, tol: float = 1e-6) -> IdentityCase:
    if m == 1:
        return _classical_rmt_case(coeff_id, tol,
                                   case_id=f"conjecture:m=1:{coeff_id}")
    h = representation_handle(f"pi_csc_pow:{m}", coeff_id)
    g, f, c = h.coeff, h.closed_form, _csc_power_scale(m)
    # c times h's series: rows from the jets of c g, and c times its closed
    # form (every registered or checked pair has one)
    scaled = series.handle(h.kernel, catalog.scaled(c, g), radius_hint=h.radius_hint,
                           closed_form=lambda x: c * f(x))

    def rhs(s):
        return c * specfun.csc_power(m, complex(s)) * g.eval(-complex(s))

    return IdentityCase(
        id=f"conjecture:m={m}:{coeff_id}", lhs=_lhs(scaled), rhs=rhs,
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


def check_in_strip(case: IdentityCase, s_grid) -> None:
    """Raise StripViolationError unless every s of ``s_grid`` lies in the
    case's strip, at least ``EDGE_MARGIN`` from its edges."""
    for s in s_grid:
        if not case.strip.contains(s, EDGE_MARGIN):
            raise StripViolationError(
                f"s={s} is not inside the strip ({case.strip.lo}, {case.strip.hi}) "
                f"with margin {EDGE_MARGIN} for identity {case.id}")


def _run_samples(case: IdentityCase, s_grid, tol: float) -> IdentityReport:
    check_in_strip(case, s_grid)
    samples = []
    for s, q in zip(s_grid, case.lhs(s_grid, tol)):
        rhs_v = complex(case.rhs(s))
        if isinstance(q, MellinkitError):
            samples.append(SampleResult(
                complex(s), complex(float("nan"), 0.0), rhs_v,
                float("inf"), float("inf"), getattr(q, "n_evals", 0), False,
                error=f"{type(q).__name__}: {q}"))
            continue
        lhs_v = complex(_outcome(q).value)
        rel = abs(lhs_v - rhs_v) / max(abs(rhs_v), 1e-300)
        samples.append(SampleResult(complex(s), lhs_v, rhs_v, rel,
                                    q.err_abs, q.n_evals, q.converged))
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
    (same code path as the classical registry entry). A coefficient whose
    series has no value past its radius is refused before any quadrature
    (see ``check_representable``)."""
    if m < 1:
        raise UnknownIdError(f"conjecture order must be at least 1, got {m}")
    _check_closed_form("pi_csc" if m == 1 else f"pi_csc_pow:{m}", coeff_id)
    case = _conjecture_case(m, coeff_id, tol)
    if s_grid is None:
        s_grid = default_grid(case.strip)
    return _run_samples(case, list(s_grid), tol)


def integral_representation(kernel_id: str, s, tol: float = 1e-8) -> QuadResult:
    """Mellin transform of the g = 1 series of a registered kernel; equals
    kernel.eval(s) within tol wherever the representation holds."""
    return mellin_on_series(representation_handle(kernel_id), s, tol)


def _check_closed_form(kernel_id: str, coeff_id: str) -> None:
    """Raise RadiusExceededError when the series of the kernel and
    ``coeff_id`` has a finite radius and no closed form: its integrand has
    no value past the radius, so no transform of it can be computed."""
    h = representation_handle(kernel_id, coeff_id)
    if h.radius_hint is not None and h.closed_form is None:
        raise RadiusExceededError(
            f"{kernel_id} with {coeff_id} has no closed form past its series "
            f"radius {h.radius_hint:g}, so its integrand has no value there")


def check_representable(kernel_id: str, s, coeff_id: str = "const_one") -> None:
    """Raise StripViolationError when Re(s) lies outside the strip where
    the kernel's representation with coefficient ``coeff_id`` holds: the
    g = 1 strip, narrowed to Re(s) < g.delta for any other g. Raise
    RadiusExceededError, whatever s is, when that representation has no
    closed form past its series radius."""
    if coeff_id != "const_one":
        _check_closed_form(kernel_id, coeff_id)
    forms = _FORMS.get(kernel_id.split(":", 1)[0])
    if forms is None or forms.strip is None:
        return
    lo, hi = forms.strip
    label = kernel_id
    if coeff_id != "const_one":
        hi = min(hi, catalog.coefficient(coeff_id).delta)
        label = f"{kernel_id} with {coeff_id}"
    if not lo < (s.real if isinstance(s, complex) else s) < hi:
        raise StripViolationError(
            f"{label} representation converges on ({lo}, {hi}); "
            f"requested h({s})")


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
