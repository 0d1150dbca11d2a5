"""Tests for the double-exponential Mellin quadrature."""

import cmath
import functools
import math

import mpmath
import pytest

from mellinkit import catalog, harness, mellin, series, specfun
from mellinkit.errors import (AccelerationFailureError, ConvergenceError,
                              RadiusExceededError, SeamMismatchError,
                              SingularIntegrandError)
from mellinkit.mellin import (QuadResult, Strip, _series_run, mellin_on_series,
                              mellin_oscillatory, mellin_transform,
                              mellin_transforms)

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


def _outcome(out):
    """What a test compares of a transform's outcome: the QuadResult, or the
    error's class, message and evaluation count."""
    if isinstance(out, BaseException):
        return (type(out), str(out), getattr(out, "n_evals", None))
    return out


def _alone(f, s, **kwargs):
    try:
        return _outcome(mellin_transform(f, s, **kwargs))
    except Exception as exc:
        return _outcome(exc)


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
        # reference: a fresh integrand for every s
        h = series.handle(catalog.kernel(kid), catalog.coefficient("const_one"),
                          closed_form=closed)
        run = _series_run(h, self.GRID, 1e-10)
        for s, got in zip(self.GRID, run):
            want = mellin_transform(
                lambda x: series.eval_series(h, x, tol=1e-12), s, tol=1e-10)
            assert got == want, s
            assert mellin_on_series(h, s, tol=1e-10) == want, s

    # x^2 e^-x: Re s = 1.5 drops lower-piece nodes, whose prefactor is below
    # e^-800, and Re s = -1.3 drops upper-piece ones
    MIXED = (0.15, 0.9, 0.5 + 0.2j, 0.3 - 0.1j, -0.4, 1.5, -1.3 + 0.5j)

    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-13])
    def test_mixed_grid_equals_each_s_alone_bit_for_bit(self, tol):
        def f(x):
            return x * (x * math.exp(-x))

        got = mellin_transforms(f, self.MIXED, tol=tol)
        for s, out in zip(self.MIXED, got):
            assert type(out) is QuadResult and out.converged, s
            want = mellin_transform(f, s, tol=tol)
            assert out == want, s
            assert type(out.value) is type(want.value)
            assert abs(out.value - complex(mpmath.gamma(s + 2))) <= 1e-7 * abs(out.value)
        dropped = set()
        for s in self.MIXED:
            for node_fn in (mellin._lower_node, mellin._upper_node):
                for level in range(3):
                    lv = mellin._node_table(node_fn, level)
                    if ((s - 1.0).real * lv.lnx + lv.lw < -800.0).any():
                        dropped.add(s)
        assert dropped == {1.5, -1.3 + 0.5j}

    # x^2 e^-x at tol 1e-10, pinned: (value real, imag, err_abs, n_evals),
    # all converged; the rows that drop nodes spend fewer evaluations
    PINNED = {
        0.15: ("0x1.12afef9fad2a4p+0", "0x0.0p+0", "0x1.12afef9fad2a4p-48", 634),
        0.9: ("0x1.d3cd8ae575ad8p+0", "0x0.0p+0", "0x1.d3cd8ae575ad8p-48", 634),
        0.5 + 0.2j: ("0x1.4da738e56740dp+0", "0x1.7ab9f3e792cf0p-3",
                     "0x1.544fa6d47b391p-48", 634),
        0.3 - 0.1j: ("0x1.295522ef3fc7ap+0", "-0x1.1e07c99d2224cp-4",
                     "0x1.2aada1a4ae115p-48", 634),
        -0.4: ("0x1.c97ad807544cap-1", "0x0.0p+0", "0x1.c97ad807544c9p-49", 634),
        1.5: ("0x1.a96390899a075p+1", "0x0.0p+0", "0x1.288aaee4e0879p-46", 629),
        -1.3 + 0.5j: ("0x1.add7bb61feb57p-1", "-0x1.d9f7b0a03ff5dp-2",
                      "0x1.4c4d5ab21ea21p-48", 630),
    }

    def test_mixed_grid_keeps_the_pinned_bits(self):
        got = mellin_transforms(lambda x: x * (x * math.exp(-x)), self.MIXED, tol=1e-10)
        for s, q in zip(self.MIXED, got):
            v = complex(q.value)
            assert (v.real.hex(), v.imag.hex(), q.err_abs.hex(), q.n_evals) == self.PINNED[s]
            assert q.converged and isinstance(q.value, complex) == isinstance(s, complex)

    def test_failing_rows_equal_each_s_alone(self):
        # 1/(1 + x): the transform exists for 0 < Re s < 1 only; the pole
        # f = inf at x = 1.0 of 1/(1 - x) fails at level 0
        cases = [(lambda x: 1.0 / (1.0 + x), (0.5, 1.2, 0.3 + 0.4j, 1.5 - 0.2j)),
                 (lambda x: 1.0 / (1.0 - x) if x != 1.0 else math.inf, (0.35, 0.7j + 0.2)),
                 (lambda x: math.exp(-x), (0.5, 0.7))]
        for f, grid in cases:
            for max_evals in (mellin.MAX_EVALS, 300):
                got = mellin_transforms(f, grid, tol=1e-10, max_evals=max_evals)
                for s, out in zip(grid, got):
                    assert _outcome(out) == _alone(f, s, tol=1e-10, max_evals=max_evals), s
        outs = mellin_transforms(cases[0][0], cases[0][1], tol=1e-10)
        assert [type(o).__name__ for o in outs] == [
            "QuadResult", "ConvergenceError", "QuadResult", "ConvergenceError"]

    def test_values_are_computed_once_per_abscissa_of_a_table(self, calls_by_table):
        # f is called once per distinct abscissa of each node table the run
        # uses, across its s and levels; tables keep their own values, so
        # x = 1.0, which ends many tables of both pieces, is called once
        # per table that has it
        calls = []

        def f(x):
            calls.append(x)
            return math.exp(-x)

        mellin_transforms(f, self.GRID, tol=1e-12)
        run = {lv: sorted(xs) for lv, xs in calls_by_table.items()}
        # every row keeps every node of e^-x on this grid
        assert run == {lv: sorted(lv.uniq_xs) for lv in run}
        assert len(calls) == sum(len(lv.uniq_xs) for lv in run)
        assert calls.count(1.0) == sum(1.0 in lv.uniq_xs for lv in run) > 1
        # each s alone calls f at the same abscissae of the same tables
        tables = set()
        for s in self.GRID:
            calls_by_table.clear()
            mellin_transform(f, s, tol=1e-12)
            assert all(sorted(xs) == run[lv] for lv, xs in calls_by_table.items()), s
            tables |= set(calls_by_table)
        assert tables == set(run)

    def test_each_table_is_evaluated_once_in_full(self, calls_by_table):
        # at s = 1.5 the row keeps no lower-piece node whose prefactor is
        # below e^-800, yet f is called once at every distinct abscissa of
        # each table the run reaches, in table order
        q = mellin_transform(lambda x: x * (x * math.exp(-x)), 1.5, tol=1e-10)
        assert q.n_evals == self.PINNED[1.5][3]
        assert calls_by_table and all(xs == lv.uniq_xs for lv, xs in calls_by_table.items())
        assert q.n_evals < sum(lv.x.size for lv in calls_by_table)

    def test_exception_at_nodes_no_row_keeps_is_never_handed_out(self):
        # x < 1e-300 only gets a prefactor below e^-800 at s = 1.5, but a
        # kept one at s = 0.15, which fails with what f raised there
        raised = []

        def f(x):
            if x < 1e-300:
                raised.append(x)
                raise RuntimeError(f"no value at {x!r}")
            return x * (x * math.exp(-x))

        q = mellin_transform(f, 1.5, tol=1e-10)
        assert raised
        assert q == mellin_transform(lambda x: x * (x * math.exp(-x)), 1.5, tol=1e-10)
        low, high = mellin_transforms(f, (0.15, 1.5), tol=1e-10)
        assert type(low) is RuntimeError and str(low).startswith("no value at ")
        assert high == q

    def test_raised_value_reaches_each_row_as_its_own_error(self, calls_by_table):
        # f raises (not as nan) from x = 3 on: each row stops there, with an
        # equal but distinct error carrying its own evaluation count
        calls = []

        def f(x):
            calls.append(x)
            if x >= 3.0:
                raise ConvergenceError(f"no value at {x!r}")
            return math.exp(-x)

        got = mellin_transforms(f, self.GRID, tol=1e-10)
        assert calls.count(min(x for x in calls if x >= 3.0)) == 1
        assert all(len(xs) == len(set(xs)) for xs in calls_by_table.values())
        assert len(calls) == sum(map(len, calls_by_table.values()))
        assert all(isinstance(e, ConvergenceError) for e in got)
        assert len({id(e) for e in got}) == len(got)
        assert len({str(e) for e in got}) == 1
        for s, e in zip(self.GRID, got):
            assert _outcome(e) == _alone(f, s, tol=1e-10), s

    def test_library_error_from_f_is_not_a_singular_integrand(self):
        # a MellinkitError from f, such as a series asked for a value past
        # its radius, reaches the rows as raised; a plain ValueError is a
        # value f cannot give there, screened as nan
        def f(exc_type):
            def g(x):
                if x > 2.0:
                    raise exc_type(f"no value at {x!r}")
                return math.exp(-x)
            return g

        got = mellin_transforms(f(RadiusExceededError), (0.3, 0.6), tol=1e-10)
        assert [type(e) for e in got] == [RadiusExceededError] * 2
        assert got[0] is not got[1] and str(got[0]) == str(got[1])
        with pytest.raises(SingularIntegrandError, match="integrand failed at x="):
            mellin_transform(f(ValueError), 0.3, tol=1e-10)

    def test_raising_integrand_gives_every_s_its_own_equal_error(self):
        # radius 1 and no closed form: the series cannot converge at the
        # first node near x = 1
        h = series.handle(catalog.kernel("pi_csc"),
                          catalog.coefficient("const_one"), radius_hint=1.0)
        errors = _series_run(h, self.GRID, 1e-10)
        for s, err in zip(self.GRID, errors):
            with pytest.raises(ConvergenceError) as alone:
                mellin_on_series(h, s, tol=1e-10)
            assert type(err) is type(alone.value)
            assert str(err) == str(alone.value)
            assert err.n_evals == alone.value.n_evals > 0
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
        raised = _series_run(h, (0.3, 0.6), 1e-10)
        assert len(calls) == 1
        assert all(isinstance(e, SeamMismatchError) for e in raised)
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

    S = (0.3, 0.8, 0.5 + 0.2j, -0.4)

    @pytest.mark.parametrize("node_fn", [mellin._lower_node, mellin._upper_node])
    @pytest.mark.parametrize("s", S)
    def test_level_sums_match_a_scalar_loop(self, node_fn, s):
        # the row of s, refined together with the rows of the other s
        def f(x):
            return x * math.exp(-x)

        rows = mellin._Rows(list(self.S), [mellin._EvalBudget(10 ** 6) for _ in self.S])
        piece = mellin._Piece(functools.partial(mellin._node_table, node_fn),
                              node_fn is mellin._lower_node, f, rows, 1e-10,
                              mellin._Values())
        r = self.S.index(s)
        for want, magnitude in self.scalar_levels(node_fn, f, s, 7):
            piece.refine(list(range(len(self.S))))
            # the arithmetic differs only in the rounding of exp and the sums
            assert abs(piece.val[r] - want) <= 1e-14 * magnitude
        assert rows.errors == [None] * len(self.S)


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
