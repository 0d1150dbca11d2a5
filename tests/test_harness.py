"""Tests for the identity registry and verification drivers."""

import math

import pytest

from mellinkit import harness, series, specfun
from mellinkit.errors import StripViolationError, UnknownIdError

PI = math.pi


class TestRegistry:
    def test_listing_contents(self):
        entries = {cid: status for cid, _, _, status in harness.list_identities()}
        assert entries["gamma_bernoulli"] == "verified"
        assert entries["digamma_corollary"] == "known-problematic"
        assert entries["gamma_sq_sin_gamma"] == "known-problematic"
        assert entries["conjecture:m=2:inv_gamma"] == "conjectural"
        assert entries["conjecture:m=3:inv_linear"] == "conjectural"
        # at least nine gating identities
        assert sum(1 for st in entries.values() if st == "verified") >= 9

    def test_unknown_identity(self):
        with pytest.raises(UnknownIdError):
            harness.verify("not_a_thing")

    def test_default_grid_shape(self):
        grid = harness.default_grid(harness.get_case("gamma_bernoulli").strip)
        assert len(grid) == 8
        reals = [s for s in grid if not isinstance(s, complex)]
        assert len(reals) == 7
        assert min(reals) == pytest.approx(0.1)
        assert max(reals) == pytest.approx(0.9)
        off_axis = [s for s in grid if isinstance(s, complex)][0]
        assert off_axis.imag == pytest.approx(0.2)

    def test_strip_violation(self):
        with pytest.raises(StripViolationError):
            harness.verify("gamma_bernoulli", s_grid=[0.005])
        with pytest.raises(StripViolationError):
            harness.verify("gamma_bernoulli", s_grid=[1.5])


class TestVerify:
    def test_gamma_bernoulli_samples(self):
        rep = harness.verify("gamma_bernoulli", s_grid=[0.25, 0.5, 0.9], tol=1e-8)
        assert rep.passed
        assert rep.max_rel_err <= 1e-8
        mid = [r for r in rep.samples if r.s == 0.5][0]
        assert mid.lhs.real == pytest.approx(1.7724538509, rel=1e-9)

    def test_k0_identity_value(self):
        rep = harness.verify("k0_pi", s_grid=[1.0], tol=1e-8)
        assert rep.passed
        assert rep.samples[0].lhs.real == pytest.approx(PI / 2.0, rel=1e-9)

    def test_cosine_identity(self):
        rep = harness.verify("cos_mellin:1", s_grid=[0.3, 0.5, 0.7], tol=1e-6)
        assert rep.passed

    def test_all_gating_identities_pass_on_default_grids(self):
        reports = harness.verify_all()
        failed = [r.id for r in reports
                  if r.expected_status == "verified" and not r.passed]
        assert failed == []
        assert harness.aggregate_pass(reports)

    def test_report_sample_ordering_is_deterministic(self):
        rep = harness.verify("gamma_scaled:2", s_grid=[0.9, 0.1, 0.5])
        res = [r.s.real for r in rep.samples]
        assert res == sorted(res)

    def test_verify_all_rejects_unknown_override(self):
        with pytest.raises(UnknownIdError):
            harness.verify_all({"nope": 1e-6})


class TestExpectedFailures:
    def test_digamma_corollary_diagnostic(self):
        rep = harness.verify("digamma_corollary")
        assert not rep.passed
        assert rep.expected_status == "known-problematic"
        # every sample must terminate with a recorded convergence diagnostic
        assert all(s.error is not None for s in rep.samples)
        assert all("ConvergenceError" in s.error for s in rep.samples)

    def test_sign_question_reports_measured_signs(self):
        rep = harness.verify("gamma_sq_sin_gamma", s_grid=[0.5], tol=1e-8)
        assert rep.expected_status == "known-problematic"
        assert "sign(lhs)=-1" in rep.note
        assert "sign(rhs)=-1" in rep.note
        smp = rep.samples[0]
        # with the residue engine of the higher-order theorem, both sides
        # evaluate to -pi Gamma(1/2)
        want = -PI * math.sqrt(PI)
        assert smp.lhs.real == pytest.approx(want, rel=1e-9)
        assert smp.rhs.real == pytest.approx(want, rel=1e-12)


def _fingerprint(samples):
    return [(r.s, r.lhs.real.hex(), r.lhs.imag.hex(), r.rhs, r.err_abs,
             r.n_evals, r.converged, r.error) for r in samples]


def _three_points(case):
    grid = list(case.grid_override or harness.default_grid(case.strip))
    return [grid[1], grid[5], grid[-1]]


def _count_series_evals(monkeypatch):
    xs = []
    eval_series = series.eval_series

    def counted(h, x, *args, **kwargs):
        xs.append(x)
        return eval_series(h, x, *args, **kwargs)

    monkeypatch.setattr(series, "eval_series", counted)
    return xs


class TestSharedIntegrand:
    @pytest.mark.parametrize("cid", [cid for cid, *_ in harness.list_identities()
                                     if cid != "digamma_corollary"])
    def test_grid_equals_separate_single_s_runs(self, cid):
        # a one-point verify is mellin_on_series (or the case's own
        # single-s transform) on a fresh integrand
        case = harness.get_case(cid)
        grid = _three_points(case)
        rep = harness.verify(cid, s_grid=grid)
        alone = [r for s in grid for r in harness.verify(cid, s_grid=[s]).samples]
        alone.sort(key=lambda r: (r.s.real, r.s.imag))
        assert _fingerprint(rep.samples) == _fingerprint(alone)

    def test_each_node_is_evaluated_once_per_verify(self, monkeypatch):
        xs = _count_series_evals(monkeypatch)
        rep = harness.verify("gamma_squared_rep")
        assert len(xs) == len(set(xs))
        # the samples requested f at each node once per s
        assert sum(r.n_evals for r in rep.samples) >= 5 * len(xs)

    def test_second_verify_evaluates_again(self, monkeypatch):
        xs = _count_series_evals(monkeypatch)
        first = harness.verify("gamma_deriv_rep:1")
        n_first = len(xs)
        second = harness.verify("gamma_deriv_rep:1")
        assert n_first > 0 and len(xs) == 2 * n_first
        assert xs[n_first:] == xs[:n_first]
        assert _fingerprint(first.samples) == _fingerprint(second.samples)

    def test_failed_sample_reports_its_evaluations(self):
        rep = harness.verify("digamma_corollary", s_grid=[0.5])
        (smp,) = rep.samples
        assert smp.error.startswith("ConvergenceError")
        assert smp.n_evals > 0


class TestConjecture:
    def test_m1_reduction_is_bit_for_bit(self):
        grid = [0.2, 0.45, 0.7, 0.5 + 0.2j]
        a = harness.verify_conjecture(1, "const_one", s_grid=grid, tol=1e-8)
        b = harness.verify("pi_csc_geometric", s_grid=grid, tol=1e-8)
        for ra, rb in zip(a.samples, b.samples):
            assert ra.s == rb.s
            assert ra.lhs == rb.lhs          # bitwise float equality
            assert ra.rhs == rb.rhs
            assert ra.n_evals == rb.n_evals

    @pytest.mark.parametrize("m,gid,rhs_fn", [
        (2, "inv_gamma",
         lambda s: -PI ** 2 / (math.sin(PI * s) ** 2 * specfun.gamma(1.0 - s))),
        (2, "inv_linear",
         lambda s: -PI ** 2 / (math.sin(PI * s) ** 2 * (1.0 - s))),
        (3, "inv_linear",
         lambda s: 2.0 * PI ** 3 / ((1.0 - s) * math.sin(PI * s) ** 3)),
    ])
    def test_registered_instances(self, m, gid, rhs_fn):
        rep = harness.verify_conjecture(m, gid, s_grid=[0.4, 0.5, 0.6], tol=1e-6)
        assert rep.passed
        for smp in rep.samples:
            assert smp.rhs.real == pytest.approx(rhs_fn(smp.s.real), rel=1e-12)

    def test_rhs_forms_agree(self):
        # the incomplete-gamma conjecture has two equivalent right-hand
        # sides (reflection-formula transport); they must agree to 1e-12
        case = harness.get_case("conjecture:m=2:inv_gamma")
        assert case.rhs_alt is not None
        for s in harness.default_grid(case.strip):
            a = complex(case.rhs(s))
            b = complex(case.rhs_alt(s))
            assert abs(a - b) <= 1e-12 * max(abs(a), 1.0), s

    def test_order_bounds(self):
        with pytest.raises(UnknownIdError):
            harness.verify_conjecture(5, "const_one")
        with pytest.raises(UnknownIdError):
            harness.verify_conjecture(0, "const_one")

    def test_unregistered_closed_form_surfaces_errors(self):
        # m=4 has no closed form: the transform cannot leave the radius and
        # every sample records the failure instead of crashing
        rep = harness.verify_conjecture(4, "inv_linear", s_grid=[0.5], tol=1e-6)
        assert not rep.passed
        assert rep.samples[0].error is not None


class TestIntegralRepresentation:
    @pytest.mark.parametrize("kid,s,want", [
        ("gamma", 0.5, math.sqrt(PI)),
        ("gamma_squared", 0.5, PI),
        ("pi_csc", 0.5, PI),
    ])
    def test_values(self, kid, s, want):
        q = harness.integral_representation(kid, s, tol=1e-9)
        assert q.value.real == pytest.approx(want, rel=1e-9)

    def test_matches_kernel_eval(self):
        for kid in ("gamma", "pi_csc", "gamma_squared", "gamma_deriv:1",
                    "pi_csc_pow:2"):
            kern_eval = __import__("mellinkit.catalog", fromlist=["kernel"]) \
                .kernel(kid).eval
            for s in (0.3, 0.6):
                q = harness.integral_representation(kid, s, tol=1e-9)
                assert abs(q.value - kern_eval(s)) <= 1e-7 * abs(kern_eval(s)), (kid, s)

    def test_oscillatory_route(self):
        q = harness.integral_representation("gamma_cos_half", 0.5, tol=1e-7)
        want = specfun.gamma(0.5) * math.cos(PI / 4.0)
        assert abs(q.value - want) <= 1e-6 * abs(want)

    def test_unknown_kernel(self):
        with pytest.raises(UnknownIdError):
            harness.integral_representation("zeta", 0.5)
