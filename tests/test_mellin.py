"""Tests for the double-exponential Mellin quadrature."""

import math

import pytest

from mellinkit import catalog, series, specfun
from mellinkit.errors import (AccelerationFailureError, ConvergenceError,
                              RadiusExceededError, SeamMismatchError,
                              SingularIntegrandError)
from mellinkit.mellin import (QuadResult, Strip, _memoized, _series_run,
                              mellin_on_series, mellin_oscillatory,
                              mellin_transform)

SQRT_PI = math.sqrt(math.pi)


class TestTypes:
    def test_strip_validation(self):
        with pytest.raises(ValueError):
            Strip(1.0, 1.0)
        s = Strip(0.0, 1.0)
        assert s.contains(0.5) and s.contains(0.5 + 2j)
        assert not s.contains(1.2)
        assert not s.contains(0.01, margin=0.02)

    def test_quadresult_validation(self):
        with pytest.raises(ValueError):
            QuadResult(1.0, -1.0, 3, True)


class TestMellinTransform:
    def test_gamma_integral(self):
        q = mellin_transform(lambda x: math.exp(-x), 0.5, tol=1e-11)
        assert q.converged
        assert q.value.real == pytest.approx(SQRT_PI, rel=1e-12)

    def test_beta_integral(self):
        q = mellin_transform(lambda x: 1.0 / (1.0 + x), 0.5, tol=1e-11)
        assert q.value.real == pytest.approx(math.pi, rel=1e-12)

    def test_bessel_weight(self):
        q = mellin_transform(
            lambda x: 2.0 * specfun.bessel_k0(2.0 * math.sqrt(x)), 0.5, tol=1e-11)
        assert q.value.real == pytest.approx(math.pi, rel=1e-11)

    @pytest.mark.parametrize("a", [0.5, 2.0])
    def test_scaling_law(self, a):
        # M[f(a.)](s) = a^{-s} M[f](s)
        for s in (0.3, 0.7):
            scaled = mellin_transform(lambda x: math.exp(-a * x), s, tol=1e-11)
            base = mellin_transform(lambda x: math.exp(-x), s, tol=1e-11)
            want = a ** (-s) * base.value
            assert abs(scaled.value - want) <= 1e-9 * abs(want), (a, s)

    def test_complex_s(self):
        s = 0.5 + 0.2j
        q = mellin_transform(lambda x: math.exp(-x), s, tol=1e-11)
        exact = specfun.gamma(s)
        assert abs(q.value - exact) <= 1e-11 * abs(exact)

    def test_error_estimate_is_conservative(self):
        # against closed forms on a 40-case grid, the true error must not
        # exceed the reported estimate in at least 95% of cases
        cases = []
        for i in range(20):
            s = 0.08 + 0.84 * i / 19
            cases.append((lambda x: math.exp(-x), s, specfun.gamma(s)))
            cases.append((lambda x: 1.0 / (1.0 + x), s,
                          math.pi / math.sin(math.pi * s)))
        hits = 0
        for f, s, exact in cases:
            q = mellin_transform(f, s, tol=1e-10)
            if abs(q.value - exact) <= q.err_abs:
                hits += 1
        assert hits >= 38

    def test_strip_endpoint_smoothness(self):
        eps = 1e-4
        for s in (0.1, 0.9):
            a = mellin_transform(lambda x: math.exp(-x), s, tol=1e-11).value
            b = mellin_transform(lambda x: math.exp(-x), s + eps, tol=1e-11).value
            bound = 2.0 * eps * abs(specfun.gamma_deriv(1, s)) + 1e-11
            assert abs(b - a) <= bound, s

    def test_budget_exhaustion(self):
        with pytest.raises(ConvergenceError):
            mellin_transform(lambda x: math.exp(-x), 0.5, tol=1e-11, max_evals=40)

    def test_singular_integrand_error(self):
        def bad(x):
            if 1.5 < x < 2.5:
                return float("inf")
            return math.exp(-x)

        with pytest.raises(SingularIntegrandError):
            mellin_transform(bad, 0.5, tol=1e-9)

    def test_divergent_integrand_is_diagnosed(self):
        # 1/(1-x) is not integrable across x = 1
        with pytest.raises(ConvergenceError):
            mellin_transform(lambda x: 1.0 / (1.0 - x) if x != 1.0 else math.inf,
                             0.5, tol=1e-9)

    def test_negative_re_s_with_decaying_tail(self):
        # extended-strip exponents: int x^{s-1} (-x/(1+x)) dx = pi/sin(pi s)
        # on -1 < Re s < 0
        for s in (-0.5, -0.2, -0.8):
            q = mellin_transform(lambda x: -x / (1.0 + x), s, tol=1e-9)
            want = math.pi / math.sin(math.pi * s)
            assert abs(q.value - want) <= 1e-7 * abs(want), s


class TestOscillatory:
    @pytest.mark.parametrize("a", [1.0, 2.0])
    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    def test_cosine_transform(self, a, s):
        q = mellin_oscillatory(lambda x: math.cos(a * x), s,
                               half_period=math.pi / a, tol=1e-8)
        exact = a ** (-s) * specfun.gamma(s) * math.cos(math.pi * s / 2.0)
        assert abs(q.value - exact) <= 1e-6 * abs(exact)
        assert q.converged

    def test_near_upper_edge_vanishes_like_cosine_factor(self):
        # as s -> 1 the transform vanishes like cos(pi s/2)
        s = 0.98
        q = mellin_oscillatory(math.cos, s, half_period=math.pi, tol=1e-8)
        exact = specfun.gamma(s) * math.cos(math.pi * s / 2.0)
        assert abs(q.value - exact) <= 1e-5 * abs(exact)
        assert abs(q.value) < 0.05

    def test_complex_s(self):
        s = 0.5 + 0.2j
        q = mellin_oscillatory(math.cos, s, half_period=math.pi, tol=1e-8)
        exact = specfun.gamma(s) * complex(specfun._sinpi_complex(0.5 * s + 0.5))
        assert abs(q.value - exact) <= 1e-7 * abs(exact)

    def test_acceleration_failure_on_monotone_integrand(self):
        with pytest.raises(AccelerationFailureError):
            mellin_oscillatory(lambda x: 1.0 / (1.0 + x), 0.5,
                               half_period=math.pi, tol=1e-8)

    def test_half_period_validation(self):
        with pytest.raises(ValueError):
            mellin_oscillatory(math.cos, 0.5, half_period=0.0)


class TestMellinOnSeries:
    def test_gamma_handle(self):
        h = series.handle(catalog.kernel("gamma"),
                          catalog.coefficient("const_one"),
                          closed_form=lambda x: math.exp(-x))
        q = mellin_on_series(h, 0.5, tol=1e-10)
        assert q.value.real == pytest.approx(SQRT_PI, rel=1e-11)

    def test_seam_mismatch_detected(self):
        h = series.handle(catalog.kernel("gamma"),
                          catalog.coefficient("const_one"),
                          closed_form=lambda x: math.exp(-x) * (1.0 + 1e-5))
        with pytest.raises(SeamMismatchError):
            mellin_on_series(h, 0.5, tol=1e-10)

    def test_series_only_inside_radius_fails_beyond(self):
        # without a closed form the transform needs x past the radius
        h = series.handle(catalog.kernel("pi_csc"),
                          catalog.coefficient("const_one"))
        with pytest.raises(Exception):
            mellin_on_series(h, 0.5, tol=1e-10)


class TestSharedIntegrand:
    GRID = (0.15, 0.4, 0.65, 0.9, 0.5 + 0.2j, 0.3 - 0.1j)

    @pytest.mark.parametrize("kid,mode,closed", [
        ("gamma", "simple", lambda x: math.exp(-x)),
        ("gamma_squared", "general",
         lambda x: 2.0 * specfun.bessel_k0(2.0 * math.sqrt(x))),
        ("pi_csc", "simple", lambda x: 1.0 / (1.0 + x)),
    ])
    def test_run_matches_unshared_transforms_bit_for_bit(self, kid, mode, closed):
        # reference: a fresh, unmemoized integrand for every s
        h = series.handle(catalog.kernel(kid), catalog.coefficient("const_one"),
                          mode=mode, closed_form=closed)
        run = _series_run(h, 1e-10)
        for s in self.GRID:
            want = mellin_transform(
                lambda x: series.eval_series(h, x, tol=1e-12), s, tol=1e-10)
            assert run(s) == want, s
            assert mellin_on_series(h, s, tol=1e-10) == want, s

    def test_memo_evaluates_once_and_replays_fresh_exceptions(self):
        calls = []
        h = series.handle(catalog.kernel("pi_csc"),
                          catalog.coefficient("const_one"), radius_hint=1.0)

        def f(x):
            calls.append(x)
            return series.eval_series(h, x)

        memo = _memoized(f)
        assert memo(0.5) == memo(0.5) == series.eval_series(h, 0.5)
        raised = []
        for _ in range(2):
            with pytest.raises(RadiusExceededError) as info:
                memo(2.0)
            raised.append(info.value)
        assert calls == [0.5, 2.0]
        assert raised[0] is not raised[1]
        assert str(raised[0]) == str(raised[1])

    def test_raising_integrand_gives_every_s_its_own_equal_error(self):
        # radius 1 and no closed form: the series cannot converge at the
        # first node near x = 1
        h = series.handle(catalog.kernel("pi_csc"),
                          catalog.coefficient("const_one"), radius_hint=1.0)
        run = _series_run(h, 1e-10)
        errors = []
        for s in self.GRID:
            with pytest.raises(ConvergenceError) as info:
                run(s)
            with pytest.raises(ConvergenceError) as alone:
                mellin_on_series(h, s, tol=1e-10)
            errors.append(info.value)
            assert type(info.value) is type(alone.value)
            assert str(info.value) == str(alone.value)
            assert info.value.n_evals == alone.value.n_evals > 0
        assert len({id(e) for e in errors}) == len(errors)
        assert len({(type(e), str(e)) for e in errors}) == 1

    def test_seam_check_runs_once_per_run(self, monkeypatch):
        h = series.handle(catalog.kernel("gamma"),
                          catalog.coefficient("const_one"),
                          closed_form=lambda x: math.exp(-x) * (1.0 + 1e-5))
        calls = []
        seam_check = series.seam_check
        monkeypatch.setattr(series, "seam_check",
                            lambda *a: calls.append(a) or seam_check(*a))
        run = _series_run(h, 1e-10)
        raised = []
        for s in (0.3, 0.6):
            with pytest.raises(SeamMismatchError) as info:
                run(s)
            raised.append(info.value)
        assert len(calls) == 1
        assert raised[0] is not raised[1] and str(raised[0]) == str(raised[1])
