"""Tests for series synthesis and truncated evaluation."""

import math

import pytest

from mellinkit import catalog, series, specfun
from mellinkit.errors import ConvergenceError, RadiusExceededError

EULER = specfun.EULER_GAMMA


def simple_handle(kernel_id, coeff_id, closed=None):
    return series.handle(catalog.kernel(kernel_id), catalog.coefficient(coeff_id),
                         closed_form=closed)


class TestTerm:
    def test_simple_gamma_term(self):
        h = simple_handle("gamma", "const_one")
        # (-1)^2/2! * 1 * 1^2
        assert series.term(h, 2, 1.0) == pytest.approx(0.5, rel=1e-15)

    def test_general_gamma_squared_term(self):
        # k = 0, x = e: -(2 gamma + 1) after substituting H_0 = 0, log x = 1
        h = simple_handle("gamma_squared", "const_one")
        got = series.term(h, 0, math.e)
        assert got == pytest.approx(-(2.0 * EULER + 1.0), rel=1e-14)

    def test_conjecture_series_matches_incomplete_gamma(self):
        # m=2, g = 1/Gamma(z+1): the summed series is -e^x Gamma(0, x)
        h = series.handle(catalog.kernel("pi_csc_pow:2"),
                          catalog.coefficient("inv_gamma"),
                          mode="conjecture", m=2, radius_hint=1.0)
        for x in (0.2, 0.5, 0.7):
            got = series.sum_series(h, x, tol=1e-13)
            assert got == pytest.approx(-specfun.expx_gamma0(x), rel=1e-11), x

    def test_pole_gap_terms_vanish(self):
        h = simple_handle("gamma_cos_half", "const_one")
        assert series.term(h, 1, 0.7) == 0.0
        assert series.term(h, 3, 0.7) == 0.0

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_conjecture_terms_match_general_residues(self, m):
        # the P_m operator summand coincides with the residue of the
        # cosecant-power kernel computed from its Laurent principal part
        g = catalog.coefficient("inv_linear")
        kern = catalog.kernel(f"pi_csc_pow:{m}")
        conj = series.handle(kern, g, mode="conjecture", m=m, radius_hint=1.0)
        gen = series.handle(kern, g, radius_hint=1.0)
        sign = 1.0 if (m - 1) % 2 == 0 else -1.0
        fac = math.factorial(m - 1)
        for k in range(7):
            for x in (0.3, 1.0, 2.2):
                lhs = series.term(gen, k, x)
                rhs = series.term(conj, k, x) * sign / fac
                assert lhs == pytest.approx(rhs, rel=1e-12), (m, k, x)


def _direct_term(h, k, x):
    """(k-th summand by the residue formula of its mode, the sum of the
    magnitudes of its parts), written out with plain Python. A derivative
    kernel's summand is built from its base kernel's residue, not from the
    kernel's own principal part."""
    lx = math.log(x)
    name, _, param = h.kernel.id.partition(":")

    def shift(derivs, m):
        # [(d/dz + log x)^m g](k) as its binomial parts
        return [math.comb(m, i) * derivs[i] * lx ** (m - i) for i in range(m + 1)]

    parts = []
    if h.mode == "conjecture":
        derivs = h.coeff.jet(k, h.m - 1).derivs
        poly = {1: [1.0], 2: [0.0, 1.0], 3: [math.pi ** 2, 0.0, 1.0],
                4: [0.0, 4.0 * math.pi ** 2, 0.0, 1.0]}[h.m]
        sign = -1.0 if (h.m * k) % 2 else 1.0
        for d, a in enumerate(poly):
            parts += [sign * a * p for p in shift(derivs, d)]
    elif name.endswith("_deriv"):
        # Res_{-k}(base) [(d/dz + log x)^m g](k)
        m = int(param)
        residue = catalog.kernel(name[:-len("_deriv")]).principal_part(k).residue
        parts = [residue * p for p in shift(h.coeff.jet(k, m).derivs, m)]
    else:
        pp = h.kernel.principal_part(k)
        derivs = h.coeff.jet(k, max(pp.order - 1, 0)).derivs
        for j in range(1, pp.order + 1):
            c = pp.coeffs[j - 1] * (-1.0) ** (j - 1) / math.factorial(j - 1)
            parts += [c * p for p in shift(derivs, j - 1)]
    xk = x ** k
    return sum(parts) * xk, sum(abs(p) for p in parts) * xk


#: (kernel, coefficient, what the case exercises, m): simple poles, pole
#: gaps, higher-order poles, the m-th derivative kernel of a simple-pole
#: base, and the conjecture operator, with non-constant jets. All but the
#: conjecture cases run in residue mode.
ROW_HANDLES = [
    ("gamma", "const_one", "simple", 0),
    ("pi_csc", "power_a:2", "simple", 0),
    ("gamma_cos_half", "inv_linear", "simple", 0),
    ("gamma_squared", "const_one", "general", 0),
    ("gamma_squared", "sin_gamma", "general", 0),
    ("pi_csc_pow:3", "inv_gamma", "general", 0),
    ("gamma", "const_one", "derivative", 2),
    ("pi_csc", "inv_linear", "derivative", 1),
    ("pi_csc_pow:2", "inv_gamma", "conjecture", 2),
    ("pi_csc_pow:3", "inv_linear", "conjecture", 3),
    ("pi_csc_pow:4", "const_one", "conjecture", 4),
]


def _row_handle(kid, gid, kind, m):
    if kind == "derivative":
        kid = f"{kid}_deriv:{m}"
    conjecture = kind == "conjecture"
    return series.handle(catalog.kernel(kid), catalog.coefficient(gid),
                         mode="conjecture" if conjecture else "residue",
                         m=m if conjecture else 0, radius_hint=1.0)


class TestRows:
    @pytest.mark.parametrize("kid,gid,kind,m", ROW_HANDLES)
    def test_terms_match_the_residue_formula(self, kid, gid, kind, m):
        h = _row_handle(kid, gid, kind, m)
        for k in range(30):
            for x in (0.3, 0.9, 1.7):
                want, scale = _direct_term(h, k, x)
                got = series.term(h, k, x)
                assert abs(got - want) <= 1e-13 * scale, (k, x)

    def test_rows_are_built_on_first_use_and_kept_per_handle(self):
        g = catalog.coefficient("inv_linear")
        h = series.handle(catalog.kernel("pi_csc_deriv:1"), g)
        assert h.rows == {}
        first = series.term(h, 3, 0.4)
        row = h.rows[3]
        assert series.term(h, 3, 0.4) == first and h.rows[3] is row
        # a handle of the next derivative builds rows of its own
        other = series.handle(catalog.kernel("pi_csc_deriv:2"), g)
        assert other.rows == {} and other.rows is not h.rows

    def test_handles_freed_and_rebuilt_get_their_own_rows(self):
        # handles made and dropped one after another may reuse an address;
        # each must still evaluate its own summands
        g = catalog.coefficient("inv_gamma")
        for _ in range(3):
            for m in (2, 3, 2, 4):
                h = series.handle(catalog.kernel(f"pi_csc_pow:{m}"), g,
                                  mode="conjecture", m=m, radius_hint=1.0)
                want, scale = _direct_term(h, 5, 0.6)
                assert abs(series.term(h, 5, 0.6) - want) <= 1e-13 * scale
                del h


class TestEvalSeries:
    def test_exponential_sum(self):
        h = simple_handle("gamma", "const_one", closed=lambda x: math.exp(-x))
        got = series.sum_series(h, 1.0, tol=1e-12)
        assert got == pytest.approx(math.exp(-1.0), rel=1e-12)
        # with the closed form registered, x past the radius switch uses it
        assert series.eval_series(h, 1.0) == math.exp(-1.0)

    def test_gamma_squared_matches_bessel(self):
        h = simple_handle("gamma_squared", "const_one")
        # frozen oracle: 2 K0(1) = 0.84204887648141666667
        got = series.eval_series(h, 0.25, tol=1e-13)
        assert got == pytest.approx(0.84204887648141666667, rel=1e-12)

    def test_geometric_sum(self):
        h = simple_handle("pi_csc", "const_one")
        assert series.eval_series(h, 0.5, tol=1e-12) == pytest.approx(2.0 / 3.0, rel=1e-11)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_scaled_exponential_property(self, a):
        h = series.handle(catalog.kernel("gamma"),
                          catalog.coefficient(f"power_a:{a:g}"))
        assert h.radius_hint == pytest.approx(1.0 / a, rel=1e-12)
        for x in (0.1, 0.3, 0.6):
            if x < 0.75 * h.radius_hint:
                got = series.eval_series(h, x, tol=1e-12)
                assert got == pytest.approx(math.exp(-a * x), rel=1e-11), (a, x)

    def test_conjecture_m1_reproduces_classical_summand_exactly(self):
        g = catalog.coefficient("inv_gamma")
        conj = series.handle(catalog.kernel("pi_csc_pow:1"), g,
                             mode="conjecture", m=1, radius_hint=1.0)
        classical = series.handle(catalog.kernel("pi_csc"), g, radius_hint=1.0)
        for k in range(51):
            for x in (0.4, 0.9):
                want = classical and series.term(classical, k, x)
                assert series.term(conj, k, x) == want

    def test_tail_bound_on_geometric_and_exponential(self):
        # the reported stopping rule must bound the true remainder
        for handle_, exact, x in (
                (simple_handle("pi_csc", "const_one"), 1.0 / 1.6, 0.6),
                (simple_handle("gamma", "const_one"), math.exp(-0.6), 0.6)):
            for tol in (1e-6, 1e-10):
                got = series.sum_series(handle_, x, tol=tol)
                assert abs(got - exact) <= 5.0 * tol * abs(exact), (handle_, tol)

    def test_nonconvergence_at_cap(self):
        h = simple_handle("pi_csc", "const_one")
        with pytest.raises(ConvergenceError):
            series.sum_series(h, 0.999, tol=1e-12, k_cap=200)

    def test_radius_exceeded_without_closed_form(self):
        h = simple_handle("pi_csc", "const_one")
        with pytest.raises(RadiusExceededError):
            series.eval_series(h, 1.5)

    def test_positive_x_required(self):
        h = simple_handle("gamma", "const_one")
        with pytest.raises(ValueError):
            series.eval_series(h, 0.0)


class TestSeamCheck:
    def test_registered_seam_is_tight(self):
        h = simple_handle("gamma", "const_one", closed=lambda x: math.exp(-x))
        x_seam, mismatch = series.seam_check(h, 1e-12)
        assert x_seam == pytest.approx(0.75)
        assert mismatch < 1e-12

    def test_corrupted_closed_form_is_caught(self):
        h = simple_handle("gamma", "const_one",
                          closed=lambda x: math.exp(-x) * 1.001)
        _, mismatch = series.seam_check(h, 1e-12)
        assert mismatch > 1e-4

    def test_requires_closed_form(self):
        with pytest.raises(ValueError):
            series.seam_check(simple_handle("gamma", "const_one"), 1e-10)


class TestHandleValidation:
    def test_mode_validation(self):
        assert series.MODES == ("residue", "conjecture")
        for mode in ("weird", "simple", "general", "derivative"):
            with pytest.raises(ValueError):
                series.SeriesHandle(catalog.kernel("gamma"),
                                    catalog.coefficient("const_one"), mode=mode)

    def test_conjecture_needs_positive_m(self):
        with pytest.raises(ValueError):
            series.SeriesHandle(catalog.kernel("pi_csc_pow:2"),
                                catalog.coefficient("const_one"),
                                mode="conjecture", m=0)

    def test_half_period_needs_a_closed_form(self):
        kern, g = catalog.kernel("gamma_cos_half"), catalog.coefficient("const_one")
        with pytest.raises(ValueError):
            series.handle(kern, g, half_period=math.pi)
        assert series.handle(kern, g, closed_form=math.cos,
                             half_period=math.pi).half_period == math.pi
