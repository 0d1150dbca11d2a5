"""Tests for the double-exponential Mellin quadrature."""

import cmath
import math

import mpmath
import pytest

from mellinkit import catalog, harness, mellin, series, specfun
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
        # 1/(1-x) is not integrable across x = 1. Finite at x = 1.0, it
        # drops no node, so the stall rule must end it: the lower piece's
        # differences run 2.4e-3, 8.3e-4, 5.1e-2 at levels 7-9, so refinement
        # stops at level 9 instead of _MAX_LEVEL
        n_max = sum(mellin._node_table(mellin._lower_node, k).x.size
                    for k in range(10))
        with pytest.raises(ConvergenceError) as info:
            mellin_transform(lambda x: 1.0 / (1.0 - x) if x != 1.0 else 0.0,
                             0.5, tol=1e-9)
        assert str(info.value).startswith("quadrature did not stabilize")
        assert "from level 7 (2.432e-03) to level 9 (5.076e-02)" in str(info.value)
        assert 0 < info.value.n_evals <= n_max

    def test_pole_at_a_dropped_node_fails_at_level_0(self):
        # where nodes round onto the pole, f = inf is dropped there, and the
        # terms next to it do not shrink: the lower piece stops at level 0
        with pytest.raises(SingularIntegrandError) as info:
            mellin_transform(lambda x: 1.0 / (1.0 - x) if x != 1.0 else math.inf,
                             0.5, tol=1e-9)
        assert "singular at x=1.0:" in str(info.value)
        assert info.value.n_evals == mellin._node_table(mellin._lower_node, 0).x.size

    @pytest.mark.parametrize("s", [0.3, 0.7])
    def test_integrable_log_singularity_converges(self, s):
        # log|1 - x| e^-x fails at x = 1.0, where nodes of both pieces round
        # to; that node is dropped and its neighbours' terms vanish
        xs = []

        def f(x):
            xs.append(x)
            return math.log(abs(1.0 - x)) * math.exp(-x)

        q = mellin_transform(f, s, tol=1e-10)
        with mpmath.workdps(30):
            want = float(mpmath.quad(
                lambda x: x ** (s - 1) * mpmath.log(abs(1 - x)) * mpmath.exp(-x),
                [0, 1, mpmath.inf]))
        assert 1.0 in xs
        assert q.converged
        assert abs(q.value - want) <= 1e-13 * abs(want)

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
        assert abs(q.value - exact) <= 1e-12 * abs(exact)
        assert q.converged
        assert type(q.value) is float and type(q.err_abs) is float
        assert type(q.converged) is bool

    def test_near_upper_edge_vanishes_like_cosine_factor(self):
        # as s -> 1 the transform vanishes like cos(pi s/2)
        s = 0.98
        q = mellin_oscillatory(math.cos, s, half_period=math.pi, tol=1e-8)
        exact = specfun.gamma(s) * math.cos(math.pi * s / 2.0)
        assert abs(q.value - exact) <= 2e-11 * abs(exact)
        assert abs(q.value) < 0.05

    def test_complex_s(self):
        s = 0.5 + 0.2j
        q = mellin_oscillatory(math.cos, s, half_period=math.pi, tol=1e-8)
        exact = specfun.gamma(s) * complex(specfun._sinpi_complex(0.5 * s + 0.5))
        assert abs(q.value - exact) <= 1e-12 * abs(exact)
        assert type(q.value) is complex

    def test_acceleration_failure_on_monotone_integrand(self):
        with pytest.raises(AccelerationFailureError) as info:
            mellin_oscillatory(lambda x: 1.0 / (1.0 + x), 0.5,
                               half_period=math.pi, tol=1e-8)
        # the differences stop shrinking within the first few levels, long
        # before the level cap
        first_levels = sum(len(mellin._oscillatory_table(1.0, k).xs) for k in range(6))
        assert 0 < info.value.n_evals <= first_levels

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

    # (kernel, order of its poles: simple or general, closed form)
    @pytest.mark.parametrize("kid,poles,closed", [
        ("gamma", "simple", lambda x: math.exp(-x)),
        ("gamma_squared", "general",
         lambda x: 2.0 * specfun.bessel_k0(2.0 * math.sqrt(x))),
        ("pi_csc", "simple", lambda x: 1.0 / (1.0 + x)),
    ])
    def test_run_matches_unshared_transforms_bit_for_bit(self, kid, poles, closed):
        # reference: a fresh, unmemoized integrand for every s
        h = series.handle(catalog.kernel(kid), catalog.coefficient("const_one"),
                          closed_form=closed)
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


class TestNodeTables:
    @staticmethod
    def abscissae(level):
        # t = 0, +-1, ..., +-6 at level 0; odd multiples of 2^-level after it
        if level == 0:
            return [0.0] + [sign * k for k in range(1, 7) for sign in (1.0, -1.0)]
        h = 0.5 ** level
        return [sign * (2 * i + 1) * h for i in range(int(6.9 / (2 * h)) + 1)
                if (2 * i + 1) * h <= 6.9 for sign in (1.0, -1.0)]

    @pytest.mark.parametrize("node_fn", [mellin._lower_node, mellin._upper_node])
    @pytest.mark.parametrize("level", range(9))
    def test_tables_equal_the_scalar_node_maps(self, node_fn, level):
        nodes = [node_fn(t) for t in self.abscissae(level)]
        want = [(x, lnx, w, math.log(w)) for x, lnx, w in
                (n for n in nodes if n is not None) if w != 0.0 and x > 0.0]
        table = mellin._node_table(node_fn, level)
        got = list(zip(table.xs, table.x.tolist(), table.lnx.tolist(),
                       table.w.tolist(), table.lw.tolist()))
        assert [(g[0],) + g[2:] for g in got] == want
        assert [g[0] for g in got] == [g[1] for g in got]
        # each node's inward neighbour: one pair closer to t = 0, same side
        kept = [t for t, n in zip(self.abscissae(level), nodes)
                if n is not None and n[2] != 0.0 and n[0] > 0.0]
        step = 1.0 if level == 0 else 2.0 * 0.5 ** level
        inner = [t - math.copysign(step, t) for t in kept]
        assert table.inward == [kept.index(u) if t != 0.0 and u * t >= 0.0 and u in kept
                                else -1 for t, u in zip(kept, inner)]
        assert mellin._node_table(node_fn, level) is table


class TestLevelSums:
    @staticmethod
    def scalar_levels(node_fn, f, s, levels):
        """Trapezoid values level by level from a plain loop over the node
        maps: the reference for the tabulated level sums."""
        vals, val = [], 0.0
        for level in range(levels):
            h = 0.5 ** level
            add = abs_add = 0.0
            for t in TestNodeTables.abscissae(level):
                node = node_fn(t)
                if node is None or node[2] == 0.0 or node[0] <= 0.0:
                    continue
                x, lnx, w = node
                log_pref = (s - 1.0) * lnx + math.log(w)
                if log_pref.real < -800.0:
                    continue
                term = cmath.exp(log_pref) * f(x)
                add += term
                abs_add += abs(term)
            val = val * 0.5 + add * h
            vals.append((val, h * abs_add))
        return vals

    @pytest.mark.parametrize("node_fn", [mellin._lower_node, mellin._upper_node])
    @pytest.mark.parametrize("s", [0.3, 0.8, 0.5 + 0.2j, -0.4])
    def test_level_sums_match_a_scalar_loop(self, node_fn, s):
        def f(x):
            return x * math.exp(-x)

        piece = mellin._Piece(node_fn, f, s, mellin._EvalBudget(10 ** 6), 1e-10)
        for want, magnitude in self.scalar_levels(node_fn, f, s, 7):
            piece.refine()
            # the arithmetic differs only in the rounding of exp and the sums
            assert abs(piece.val - want) <= 1e-14 * magnitude


class TestStoppingRule:
    def test_false_convergence_is_refused(self):
        # one small level-to-level difference used to stop this transform
        # at a relative error of 2.65e-6
        s = 0.3313947153033542
        q = mellin_transform(lambda x: math.exp(-0.5 * x), s, tol=1e-10)
        with mpmath.workdps(30):
            want = complex(mpmath.gamma(s) * mpmath.mpf(2) ** s)
        assert q.converged
        assert abs(q.value - want) <= 1e-14 * abs(want)

    def test_pieces_are_judged_against_their_total(self):
        # pieces of opposite sign: (1 - x) e^-x at s = 0.99 is 0.01 Gamma(s)
        s = 0.99
        q = mellin_transform(lambda x: (1.0 - x) * math.exp(-x), s, tol=1e-10)
        with mpmath.workdps(30):
            want = float(mpmath.gamma(s) * (1 - mpmath.mpf(s)))
        assert q.converged
        assert abs(q.value - want) <= 1e-12 * abs(want)
        assert q.err_abs <= 1e-10 * abs(q.value)

    def test_csc_derivative_sample_converges(self):
        s = 0.5241580526842281
        rep = harness.verify("csc_deriv_rep:1", s_grid=[s])
        (smp,) = rep.samples
        with mpmath.workdps(30):
            t = mpmath.mpf(s)
            want = float(-mpmath.pi ** 2 * mpmath.cos(mpmath.pi * t)
                         / mpmath.sin(mpmath.pi * t) ** 2)
        assert rep.passed and smp.converged
        assert abs(smp.lhs - want) <= 1e-12 * abs(want)

    def test_exactly_zero_total_is_not_converged(self):
        # x^{s-1} on (0, 1) and -x^{-s-1} on (1, oo) integrate to 1/s and
        # -1/s; at s = 0.255 the two piece sums cancel to exactly 0, at
        # s = 0.5 to one ulp of 1
        for s, total in ((0.255, 0.0), (0.5, 2.0 ** -52)):
            q = mellin_transform(
                lambda x: 1.0 if x < 1.0 else (-x ** (-2.0 * s) if x > 1.0 else 0.0),
                s, tol=1e-10)
            assert q.value == total
            assert not q.converged and q.err_abs > 0.0
            assert q.n_evals < 1000

    def test_mass_below_the_smallest_node_is_in_the_error(self):
        # nodes where x underflows are dropped; at s = 0.03 the integral
        # under the smallest node, about x0^s / s, exceeds the last difference
        s = 0.03
        with mpmath.workdps(30):
            gamma_s = mpmath.gamma(s)
            want = float(gamma_s)
            want_cos = float(gamma_s * mpmath.cos(mpmath.pi * s / 2))
        q = mellin_transform(lambda x: math.exp(-x), s, tol=1e-10)
        assert abs(q.value - want) <= q.err_abs
        assert not q.converged  # the true error is 1.9e-10 relative
        q = mellin_oscillatory(math.cos, s, math.pi, tol=1e-8)
        assert abs(q.value - want_cos) <= q.err_abs

    def test_error_floor_covers_rounding(self):
        # the last difference can be far below the rounding of the sum
        q = mellin_transform(lambda x: math.exp(-x), 0.5, tol=1e-10)
        assert q.err_abs >= 16 * 2.0 ** -52 * abs(q.value) / 4.0
