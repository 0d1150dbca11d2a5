"""Tests for jet arithmetic, the P_m polynomials and the residue engine:
the rows of the shift, P_m and residue operators, evaluated in log x."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mellinkit import catalog
from mellinkit.errors import JetBaseMismatchError, JetOrderError
from mellinkit.jets import (Jet, PrincipalPart, binomial, eval_row, pm_polynomial,
                            pm_row, residue_row, series_exp, series_product,
                            series_reciprocal, shift_row)

from conftest import contour_residue, row_value

PI2 = math.pi ** 2

finite_floats = st.floats(min_value=-1e3, max_value=1e3,
                          allow_nan=False, allow_infinity=False)


class TestJetType:
    def test_length_validation(self):
        with pytest.raises(ValueError):
            Jet(0, 2, (1.0, 2.0))
        with pytest.raises(ValueError):
            Jet(-1, 0, (1.0,))
        with pytest.raises(ValueError):
            Jet(0, 0, (float("inf"),))


class TestShiftOperator:
    def test_identity_and_first_order(self):
        j = Jet(2, 3, (4.0, -1.0, 7.0, 0.5))
        lx = math.log(3.0)
        assert eval_row(shift_row(j, 0), lx) == 4.0
        assert eval_row(shift_row(j, 1), lx) == pytest.approx(-1.0 + lx * 4.0, rel=1e-15)

    def test_binomial_consistency(self):
        # with log x = 0 the operator picks out g^(m)(k) exactly
        j = Jet(0, 4, (1.5, -2.0, 3.25, 0.75, -11.0))
        for m in range(5):
            assert eval_row(shift_row(j, m), 0.0) == j.derivs[m]

    def test_sin_gamma_first_order(self):
        # g(z) = sin(pi z) Gamma(z+1): g(k) = 0, g'(k) = pi (-1)^k k!
        g = catalog.coefficient("sin_gamma")
        for k in (0, 1, 2, 5):
            j = g.jet(k, 1)
            got = eval_row(shift_row(j, 1), 0.0)  # x = 1
            want = math.pi * (-1.0) ** k * math.factorial(k)
            assert got == pytest.approx(want, rel=1e-13)

    def test_operator_composition(self):
        # applying the m=1 operator twice equals the m=2 operator
        g = catalog.coefficient("inv_gamma")
        lx = math.log(1.8)
        for k in (0, 1, 4):
            j2 = g.jet(k, 2)
            # (D g)(z) has jet derivatives [(Dg)(k), (Dg)'(k)] with
            # (Dg)^(i) = g^(i+1) + lx g^(i)
            dg = Jet(k, 1, (j2.derivs[1] + lx * j2.derivs[0],
                            j2.derivs[2] + lx * j2.derivs[1]))
            twice = eval_row(shift_row(dg, 1), lx)
            once = eval_row(shift_row(j2, 2), lx)
            assert abs(twice - once) <= 1e-14 * max(1.0, abs(once))

    def test_insufficient_order(self):
        with pytest.raises(JetOrderError):
            shift_row(Jet(0, 1, (1.0, 0.0)), 2)

    @given(st.lists(finite_floats, min_size=4, max_size=4),
           st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_binomial_expansion_matches_direct(self, derivs, lx):
        j = Jet(0, 3, tuple(derivs))
        for m in range(4):
            direct = sum(
                math.comb(m, i) * derivs[i] * lx ** (m - i) for i in range(m + 1))
            got = eval_row(shift_row(j, m), lx)
            assert abs(got - direct) <= 1e-9 * max(1.0, abs(direct))


class TestPmPolynomials:
    def test_base_cases(self):
        assert pm_polynomial(1).coeffs == (1.0,)
        assert pm_polynomial(2).coeffs == (0.0, 1.0)

    def test_recursion_steps(self):
        # P3 = x^2 + pi^2, P4 = x^3 + 4 pi^2 x
        assert pm_polynomial(3).coeffs == (PI2, 0.0, 1.0)
        assert pm_polynomial(4).coeffs == (0.0, 4.0 * PI2, 0.0, 1.0)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_parity_and_leading_coefficient(self, m):
        coeffs = pm_polynomial(m).coeffs
        assert len(coeffs) == m  # degree m-1
        assert coeffs[-1] == 1.0
        for d, a in enumerate(coeffs):
            if (m - 1 - d) % 2 == 1:  # parity of P_m matches m-1
                assert a == 0.0

    def test_pm_operator_cases(self):
        g1 = catalog.coefficient("const_one")
        lx = math.log(2.5)
        j = g1.jet(4, 3)
        assert eval_row(pm_row(j, 1), lx) == 1.0
        assert eval_row(pm_row(j, 2), lx) == pytest.approx(lx, rel=1e-15)
        # constant jet: P3 gives pi^2 + log^2 x
        assert eval_row(pm_row(j, 3), lx) == pytest.approx(PI2 + lx * lx, rel=1e-15)

    def test_pm_operator_order_check(self):
        j = Jet(0, 1, (1.0, 0.0))
        with pytest.raises(JetOrderError):
            pm_row(j, 3)


class TestPrincipalPart:
    def test_validation(self):
        with pytest.raises(ValueError):
            PrincipalPart(0, 2, (1.0,))
        with pytest.raises(ValueError):
            PrincipalPart(0, 1, (0.0,))
        assert PrincipalPart(3, 0, ()).residue == 0.0

    def test_residue_accessor(self):
        assert PrincipalPart(1, 2, (3.0, 4.0)).residue == 3.0


class TestResidueEngine:
    def test_simple_pole_reduction(self):
        # N_k = 1 collapses to Res * g(k) * x^k
        g = catalog.coefficient("power_a:2")
        pp = PrincipalPart(3, 1, (0.25,))
        j = g.jet(3, 0)
        x = 1.7
        assert row_value(residue_row(pp, j), x, 3) == \
            pytest.approx(0.25 * 8.0 * x ** 3, rel=1e-14)

    def test_pole_gap_returns_zero(self):
        g = catalog.coefficient("const_one")
        assert residue_row(PrincipalPart(2, 0, ()), g.jet(2, 0)) == ()
        assert row_value((), 0.3, 2) == 0.0

    def test_gamma_squared_formula(self):
        # engine result for h = Gamma^2 equals
        # x^k (-g'(k) - (2 gamma - 2 H_k + log x) g(k)) / (k!)^2,
        # the sign of g' verified against the contour oracle below
        from mellinkit import specfun
        kern = catalog.kernel("gamma_squared")
        g = catalog.coefficient("power_a:0.5")
        x = 2.25
        for k in (0, 1, 3):
            j = g.jet(k, 1)
            got = row_value(residue_row(kern.principal_part(k), j), x, k)
            fk2 = math.factorial(k) ** 2
            want = x ** k * (
                -j.derivs[1]
                - (2.0 * specfun.EULER_GAMMA - 2.0 * specfun.harmonic(k) + math.log(x))
                * j.derivs[0]) / fk2
            assert got == pytest.approx(want, rel=1e-13)

    def test_derivative_kernel_transform(self):
        # h with only c_{-m-1} = (-1)^m m! r reproduces r * [(D)^m g] x^k
        g = catalog.coefficient("inv_linear")
        m, k, x, r = 2, 1, 0.8, -0.5
        pp = PrincipalPart(k, m + 1, (0.0, 0.0, (-1.0) ** m * math.factorial(m) * r))
        j = g.jet(k, m)
        got = row_value(residue_row(pp, j), x, k)
        want = r * row_value(shift_row(j, m), x, k)
        assert got == pytest.approx(want, rel=1e-14)

    def test_base_and_order_errors(self):
        g = catalog.coefficient("const_one")
        pp = PrincipalPart(2, 2, (1.0, 1.0))
        with pytest.raises(JetBaseMismatchError):
            residue_row(pp, g.jet(1, 3))
        with pytest.raises(JetOrderError):
            residue_row(pp, g.jet(2, 0))

    @pytest.mark.parametrize("kernel_id", ["gamma", "gamma_squared", "pi_csc"])
    @pytest.mark.parametrize("coeff_id", ["const_one", "power_a:2", "inv_linear"])
    def test_against_contour_oracle(self, kernel_id, coeff_id):
        kern = catalog.kernel(kernel_id)
        g = catalog.coefficient(coeff_id)
        for k in range(5):
            for x in (0.35, 1.0, 2.6):
                pp = kern.principal_part(k)
                j = g.jet(k, max(pp.order - 1, 0))
                engine = row_value(residue_row(pp, j), x, k)
                oracle = contour_residue(kern.eval, g.eval, k, x)
                assert abs(engine - oracle) <= 1e-8 * max(1.0, abs(oracle)), \
                    (kernel_id, coeff_id, k, x)


class TestSeriesHelpers:
    def test_product_and_reciprocal_roundtrip(self):
        a = [2.0, -1.0, 0.5, 0.25]
        r = series_reciprocal(a, 3)
        prod = series_product(a, r, 3)
        assert prod[0] == pytest.approx(1.0, rel=1e-15)
        for c in prod[1:]:
            assert abs(c) < 1e-14

    def test_exp_matches_closed_form(self):
        # exp(u) Taylor coefficients
        out = series_exp([0.0, 1.0], 5)
        for j, c in enumerate(out):
            assert c == pytest.approx(1.0 / math.factorial(j), rel=1e-15)

    def test_binomial_values(self):
        assert binomial(6, 2) == 15
        assert binomial(3, 5) == 0
