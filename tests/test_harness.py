"""Tests for the identity registry and verification drivers."""

import dataclasses
import json
import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mellinkit import catalog, cli, harness, mellin, series, specfun
from mellinkit.errors import (MellinkitError, RadiusExceededError, StripViolationError,
                              UnknownIdError)

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
        # every sample must terminate with a recorded diagnostic of the pole
        # at x = 1, from level 0 of the lower piece
        n_level0 = mellin._node_table(mellin._lower_node, 0).x.size
        for smp in rep.samples:
            assert smp.error.startswith(
                "SingularIntegrandError: integrand is singular at x=1.0:")
            assert smp.n_evals == n_level0

    # their level differences grow before x^{i Im s} is resolved: a stall
    # rule that started at h = 1/16 failed every one of them
    @pytest.mark.parametrize("cid,s,n_evals,lhs", [
        ("pi_csc_geometric", 0.9285099694717468 + 2.739098861858513j, 7382,
         ("0x1.0cc13966d1a00p-12", "0x1.261c722e68480p-10")),
        ("gamma_squared_rep", 0.09708015908898088 + 2.868059814024739j, 6746,
         ("0x1.7cbc31a5a6500p-13", "-0x1.1f7932bbfd000p-12")),
        ("csc_deriv_rep:1", 0.1080117030139617 - 1.761490866951214j, 3592,
         ("0x1.2d3532cfbe2a6p-4", "-0x1.a952c83fac228p-6")),
        ("gamma_sq_sin_gamma", 0.09485767780831718 + 2.8327331338708284j, 6746,
         ("-0x1.a9c9a4340a128p-5", "0x1.f77591876ed70p-6")),
        ("conjecture:m=2:const_one", 0.1423584908298487 + 2.9850839779081006j, 4028,
         ("0x1.7b8b99f300000p-23", "0x1.d8e31ce400000p-23")),
    ])
    def test_growing_coarse_differences_do_not_stall(self, cid, s, n_evals, lhs):
        (smp,) = harness.verify(cid, s_grid=[s]).samples
        assert smp.error is None
        assert (smp.lhs.real.hex(), smp.lhs.imag.hex()) == lhs
        assert smp.n_evals == n_evals

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

    def test_each_node_is_evaluated_once_per_table_of_a_verify(self, monkeypatch,
                                                                  calls_by_table):
        xs = _count_series_evals(monkeypatch)
        rep = harness.verify("gamma_squared_rep")
        # every series evaluation fills a node table, once per distinct
        # abscissa of it; x = 1.0 ends many tables and is evaluated in each
        assert sorted(xs) == sorted(x for calls in calls_by_table.values() for x in calls)
        assert all(len(calls) == len(set(calls)) for calls in calls_by_table.values())
        assert xs.count(1.0) == sum(1.0 in lv.uniq_xs for lv in calls_by_table) > 1
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

    def test_each_oscillatory_node_is_evaluated_once_per_verify(self, monkeypatch):
        xs = []

        def counted_cos(m):
            def f(x):
                xs.append(x)
                return math.cos(x)
            return f

        monkeypatch.setitem(harness._FORMS, "gamma_cos_half", dataclasses.replace(
            harness._FORMS["gamma_cos_half"], one=counted_cos))
        monkeypatch.setattr(harness, "_REGISTRY", None)
        rep = harness.verify("cos_mellin:1", s_grid=[0.3, 0.5, 0.7])
        assert rep.passed
        assert xs and len(xs) == len(set(xs))
        # every s requested the nodes the others had evaluated
        assert sum(r.n_evals for r in rep.samples) > len(xs)

    def test_failed_sample_reports_its_evaluations(self):
        rep = harness.verify("digamma_corollary", s_grid=[0.5])
        (smp,) = rep.samples
        assert smp.error.startswith(
            "SingularIntegrandError: integrand is singular at x=1.0:")
        assert smp.n_evals == mellin._node_table(mellin._lower_node, 0).x.size


def _oracle(cid, s):
    """The identity's value at s from mpmath at 30 digits."""
    with mpmath.workdps(30):
        t = mpmath.mpf(s)
        if cid == "gamma_bernoulli":
            v = mpmath.gamma(t)
        elif cid == "gamma_scaled:0.5":
            v = mpmath.gamma(t) * mpmath.mpf(2) ** t
        elif cid == "gamma_sq_sin_gamma":
            v = -mpmath.pi * mpmath.gamma(t)
        else:  # csc_deriv_rep:1, d/ds pi / sin(pi s)
            v = -mpmath.pi ** 2 * mpmath.cos(mpmath.pi * t) / mpmath.sin(mpmath.pi * t) ** 2
        return float(v)


class TestIndependentOracle:
    # samples the DE rule used to get wrong: a false convergence (the first
    # three) and pieces that cancel (csc_deriv_rep:1)
    @pytest.mark.parametrize("cid,s", [
        ("gamma_scaled:0.5", 0.3313947153033542),
        ("gamma_sq_sin_gamma", 0.2934654719404105),
        ("gamma_bernoulli", 0.29347086720822746),
        ("csc_deriv_rep:1", 0.5769467673581502),
        ("csc_deriv_rep:1", 0.5777161910848946),
    ])
    def test_sample_passes_and_matches_mpmath(self, cid, s):
        rep = harness.verify(cid, s_grid=[s])
        (smp,) = rep.samples
        want = _oracle(cid, s)
        assert rep.passed and smp.converged and smp.error is None
        assert abs(smp.lhs - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("a,off_axis", [(1, 0.3 - 0.4j), (2, 0.8 + 0.35j)])
    def test_cosine_transform_matches_mpmath(self, a, off_axis):
        cid = f"cos_mellin:{a}"
        rep = harness.verify(cid)
        assert rep.passed and rep.tolerance == 1e-8 and rep.max_rel_err <= 1e-11
        grid = [smp.s for smp in rep.samples] + [0.05, 0.95, off_axis]
        rep = harness.verify(cid, s_grid=grid)
        assert rep.passed
        for smp in rep.samples:
            with mpmath.workdps(30):
                t = mpmath.mpc(smp.s.real, smp.s.imag)
                want = complex(mpmath.mpf(a) ** (-t) * mpmath.gamma(t)
                               * mpmath.cos(mpmath.pi * t / 2))
            assert abs(smp.lhs - want) <= 1e-10 * abs(want), smp.s


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

    @pytest.mark.parametrize("gid", ["inv_gamma", "inv_linear"])
    def test_m1_without_growth_data_matches_mpmath(self, gid):
        # neither coefficient has growth data: the series hands over to the
        # tabled closed form at pi_csc's radius 1
        rep = harness.verify_conjecture(1, gid)
        assert rep.passed and rep.max_rel_err <= 1e-12
        for smp in rep.samples:
            with mpmath.workdps(30):
                t = mpmath.mpc(smp.s.real, smp.s.imag)
                g = 1 / mpmath.gamma(1 - t) if gid == "inv_gamma" else 1 / (1 - t)
                want = complex(mpmath.pi / mpmath.sin(mpmath.pi * t) * g)
            assert abs(smp.lhs - want) <= 1e-12 * abs(want), smp.s

    def test_order_bounds(self):
        # any order m >= 1 runs; m = 5 is checked against mpmath below
        for m in (0, -1):
            with pytest.raises(UnknownIdError):
                harness.verify_conjecture(m, "const_one")

    @pytest.mark.parametrize("m", [5, 8, 12, 16])
    def test_const_one_at_high_order_matches_mpmath(self, m):
        # the g = 1 closed form P_m(log x) / (1 - (-1)^m x) is written once
        # for every m; the rhs is (-1)^{m-1} (m-1)! (pi / sin(pi s))^m
        rep = harness.verify_conjecture(m, "const_one", tol=1e-8)
        assert rep.passed and rep.max_rel_err <= 1e-12
        for smp in rep.samples:
            with mpmath.workdps(30):
                t = mpmath.mpc(smp.s.real, smp.s.imag)
                want = complex((-1) ** (m - 1) * mpmath.factorial(m - 1)
                               * (mpmath.pi / mpmath.sin(mpmath.pi * t)) ** m)
            assert abs(smp.lhs - want) <= 1e-12 * abs(want), smp.s

    def test_m4_const_one_passes_and_matches_mpmath(self):
        # the cosecant-power closed form is written once for every m, so
        # m = 4 has one without being registered
        assert "conjecture:m=4:const_one" not in {
            cid for cid, *_ in harness.list_identities()}
        rep = harness.verify_conjecture(4, "const_one")
        assert rep.passed and rep.max_rel_err <= 1e-12
        for smp in rep.samples:
            with mpmath.workdps(30):
                t = mpmath.mpc(smp.s.real, smp.s.imag)
                want = complex(-6 * (mpmath.pi / mpmath.sin(mpmath.pi * t)) ** 4)
            assert abs(smp.lhs - want) <= 1e-12 * abs(want), smp.s

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_power_coefficient_takes_its_radius_from_growth_data(self, m):
        # g = 2^z: the series converges only for x < 1/2, not on the
        # table's x < 1, so the seam lies inside the radius
        rep = harness.verify_conjecture(m, "power_a:2")
        assert rep.passed and rep.max_rel_err <= 1e-12
        for smp in rep.samples:
            with mpmath.workdps(30):
                t = mpmath.mpc(smp.s.real, smp.s.imag)
                want = complex((-1) ** (m - 1) * mpmath.factorial(m - 1)
                               * (mpmath.pi / mpmath.sin(mpmath.pi * t)) ** m
                               * mpmath.mpf(2) ** (-t))
            assert abs(smp.lhs - want) <= 1e-12 * abs(want), smp.s

    def test_scaled_coefficient_uses_the_scaled_g1_form(self):
        # g = a^z: the closed form is the g = 1 one at a x
        rep = harness.verify_conjecture(3, "power_a:0.5", s_grid=[0.3, 0.6])
        assert rep.passed and rep.max_rel_err <= 1e-12

    @pytest.mark.parametrize("m,gid", [(4, "inv_linear"), (3, "inv_gamma"),
                                       (8, "inv_gamma"), (1, "sin_gamma")])
    def test_unregistered_closed_form_surfaces_errors(self, monkeypatch, m, gid):
        # radius 1 and no closed form: the pair is refused before any
        # quadrature, which could not leave the radius
        monkeypatch.setattr(mellin._EvalBudget, "spend", None)
        with pytest.raises(RadiusExceededError, match="no closed form past its series"):
            harness.verify_conjecture(m, gid, s_grid=[0.5], tol=1e-6)


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
        for kid in ("gamma", "pi_csc", "gamma_squared", "gamma_deriv:1"):
            kern_eval = catalog.kernel(kid).eval
            for s in (0.3, 0.6):
                q = harness.integral_representation(kid, s, tol=1e-9)
                assert abs(q.value - kern_eval(s)) <= 1e-7 * abs(kern_eval(s)), (kid, s)
        # the cosecant powers transform to h(s) itself, without the
        # conjecture's (-1)^{m-1} (m-1)!
        for m in (2, 3, 4, 5):
            kern_eval = catalog.kernel(f"pi_csc_pow:{m}").eval
            for s in (0.3, 0.6, 0.4 + 0.2j):
                q = harness.integral_representation(f"pi_csc_pow:{m}", s, tol=1e-9)
                want = kern_eval(s)
                assert abs(q.value - want) <= 1e-12 * abs(want), (m, s)

    def test_oscillatory_route(self):
        q = harness.integral_representation("gamma_cos_half", 0.5, tol=1e-7)
        want = specfun.gamma(0.5) * math.cos(PI / 4.0)
        assert abs(q.value - want) <= 1e-6 * abs(want)

    def test_unknown_kernel(self):
        with pytest.raises(UnknownIdError):
            harness.integral_representation("zeta", 0.5)


#: g = 1 identities and the kernel whose representation they run
G1_IDENTITIES = [
    ("gamma_bernoulli", "gamma"),
    ("pi_csc_geometric", "pi_csc"),
    ("gamma_squared_rep", "gamma_squared"),
    ("csc_deriv_rep:1", "pi_csc_deriv:1"),
    ("gamma_deriv_rep:1", "gamma_deriv:1"),
    ("gamma_deriv_rep:2", "gamma_deriv:2"),
    ("digamma_corollary", "psi"),
    ("cos_mellin:1", "gamma_cos_half"),
]


class TestSingleSource:
    @pytest.mark.parametrize("cid,kid", G1_IDENTITIES)
    def test_identity_lhs_is_the_kernel_representation(self, cid, kid):
        s, tol = 0.41 + 0.05j, harness.get_case(cid).default_tol
        (smp,) = harness.verify(cid, s_grid=[s], tol=tol).samples
        try:
            q = harness.integral_representation(kid, s, tol=tol)
        except MellinkitError as exc:
            assert smp.error == f"{type(exc).__name__}: {exc}"
            return
        assert smp.error is None
        assert (smp.lhs, smp.err_abs, smp.n_evals) == (
            complex(q.value), q.err_abs, q.n_evals)

    @pytest.mark.parametrize("m,c_m", [(2, -1), (3, 2)])
    def test_conjecture_lhs_is_c_m_times_the_kernel_representation(self, m, c_m):
        # the conjecture case runs h's own series scaled by c_m, rows and
        # closed form alike; scaling by -1 or 2 is exact
        cid = f"conjecture:m={m}:const_one"
        s, tol = 0.41 + 0.05j, harness.get_case(cid).default_tol
        (smp,) = harness.verify(cid, s_grid=[s], tol=tol).samples
        q = harness.integral_representation(f"pi_csc_pow:{m}", s, tol=tol)
        assert smp.error is None
        assert (smp.lhs, smp.err_abs, smp.n_evals) == (
            c_m * complex(q.value), abs(c_m) * q.err_abs, q.n_evals)

    @pytest.mark.parametrize("kid", [
        "gamma", "pi_csc", "gamma_squared", "gamma_cos_half",
        "gamma_deriv:1", "gamma_deriv:2", "gamma_deriv:3",
        "pi_csc_deriv:1", "pi_csc_deriv:2",
        "pi_csc_pow:1", "pi_csc_pow:2", "pi_csc_pow:3", "pi_csc_pow:4"])
    def test_cli_kernel_transform_is_the_kernel_representation(self, capsys, kid):
        grid = [0.3, 0.4 + 0.2j]
        rc = cli.main(["mellin", "--kernel", kid, "--s", "0.3", "--s", "0.4+0.2i"])
        samples = json.loads(capsys.readouterr().out)["cases"][0]["samples"]
        assert rc == cli.EXIT_PASS
        for s, doc in zip(grid, samples):
            q = harness.integral_representation(kid, s, tol=1e-10)
            assert (complex(doc["lhs_re"], doc["lhs_im"]), doc["err_abs"],
                    doc["n_evals"]) == (complex(q.value), q.err_abs, q.n_evals), s

    def test_every_kernel_has_a_table_entry(self):
        names = {kid.split(":", 1)[0] for kid in catalog.kernel_ids()}
        assert names == set(harness._FORMS)

    @pytest.mark.parametrize("kid,gid,want", [
        ("gamma", "power_a:2", lambda x: math.exp(-2.0 * x)),
        ("gamma_cos_half", "power_a:2", lambda x: math.cos(2.0 * x)),
        ("pi_csc", "power_a:0.5", lambda x: 1.0 / (1.0 + 0.5 * x)),
        # the cosecant-power forms m = 2 and 3 as they were written out
        # for the conjecture, divided by its c_m = -1 and 2
        ("pi_csc_pow:2", "const_one",
         lambda x: (-1.0 if x == 1.0 else math.log1p(x - 1.0) / (1.0 - x)) / -1),
        ("pi_csc_pow:3", "const_one",
         lambda x: (math.log(x) ** 2 + PI * PI) / (1.0 + x) / 2),
    ])
    def test_derived_closed_forms_are_bit_identical(self, kid, gid, want):
        closed = harness.representation_handle(kid, gid).closed_form
        for i in range(1, 400):
            x = 0.0137 * i
            assert closed(x) == want(x), x
        assert closed(1.0) == want(1.0)


#: real parts inside each representation's strip, small imaginary parts
_im = st.floats(min_value=-0.5, max_value=0.5)


def _rep(kid, s):
    return complex(harness.integral_representation(kid, s, tol=1e-10).value)


def _close(a, b, rel=1e-8):
    return abs(a - b) <= rel * abs(b)


class TestRepresentationProperties:
    @given(st.sampled_from(["gamma", "pi_csc"]),
           st.floats(min_value=0.05, max_value=0.95), _im)
    @settings(max_examples=12)
    def test_conjugate_symmetry(self, kid, sigma, t):
        s = complex(sigma, t)
        assert _close(_rep(kid, s.conjugate()), _rep(kid, s).conjugate())

    @given(st.floats(min_value=0.05, max_value=0.95), _im)
    @settings(max_examples=12)
    def test_pi_csc_reflection(self, sigma, t):
        s = complex(sigma, t)
        assert _close(_rep("pi_csc", s), _rep("pi_csc", 1.0 - s))

    @given(st.floats(min_value=0.1, max_value=2.5), _im)
    @settings(max_examples=12)
    def test_gamma_recurrence(self, sigma, t):
        s = complex(sigma, t)
        assert _close(s * _rep("gamma", s), _rep("gamma", s + 1.0))
