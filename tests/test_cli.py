"""Tests for the command-line surface: usage errors exit 2 before any work,
`mellin` runs take their handle and budget from the registry, and the
default `verify-all` report is byte-stable."""

import json
import pathlib

import mpmath
import pytest

from mellinkit import cli, harness, mellin
from mellinkit.errors import SingularIntegrandError, StripViolationError

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture
def no_quadrature(monkeypatch):
    """Fail the test at the first quadrature node: every transform spends
    its evaluation budget there, and usage errors must come first."""
    def refuse(budget, n=1):
        raise AssertionError("a transform ran before the usage error")

    monkeypatch.setattr(mellin._EvalBudget, "spend", refuse)


def _run(capsys, *argv):
    rc = cli.main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


class TestUsageErrors:
    @pytest.mark.parametrize("budget", ["-5", "0"])
    def test_max_evals_must_be_positive(self, capsys, no_quadrature, budget):
        rc, out, err = _run(capsys, "mellin", "--kernel", "gamma", "--s", "0.5",
                            "--max-evals", budget)
        assert rc == cli.EXIT_USAGE and out == ""
        assert err.startswith("error:") and "--max-evals" in err

    @pytest.mark.parametrize("spec", ["nan", "inf", "-inf", "0.1:nan:3",
                                      "0.5+nani", "0.5+infi"])
    def test_s_must_be_finite(self, capsys, no_quadrature, spec):
        rc, out, err = _run(capsys, "mellin", "--kernel", "pi_csc", f"--s={spec}")
        assert rc == cli.EXIT_USAGE and out == ""
        assert err.startswith("error:") and "finite" in err

    def test_s_spec_forms(self):
        assert cli._parse_s_spec("0.5") == [0.5]
        assert cli._parse_s_spec("0.5+0.2i") == [0.5 + 0.2j]
        assert cli._parse_s_spec(" 0.5 - 0.2i ") == [0.5 - 0.2j]
        assert cli._parse_s_spec("0.2:0.8:3") == pytest.approx([0.2, 0.5, 0.8])

    def test_props_point_outside_strip_fails_before_quadrature(self, capsys,
                                                              no_quadrature):
        # h(0.99) lies inside pi_csc's strip (0, 1) but close to its edge;
        # the grid's h(0.2 + 0.2 + 0.99) does not
        rc, out, err = _run(capsys, "props", "--kernel", "pi_csc", "--check",
                            "supermultiplicative", "--m", "0.99")
        assert rc == cli.EXIT_USAGE and out == ""
        assert err.startswith("error:") and "requested h(1.39" in err


    @pytest.mark.parametrize("text,msg", [
        ("", "empty sequence file"),
        ("k,c_k\n0,1\n1\n", "expected a 'k,c_k' row"),
    ])
    def test_malformed_csv(self, capsys, tmp_path, text, msg):
        path = tmp_path / "seq.csv"
        path.write_text(text)
        rc, out, err = _run(capsys, "interp", "--input", str(path),
                            "--normalization", "raw", "--kernel", "pi_csc",
                            "--s", "0.3")
        assert rc == cli.EXIT_USAGE and out == ""
        assert err.startswith("error:") and msg in err

    @pytest.mark.parametrize("name,msg", [
        ("exp_neg_x:2", "exp_neg_x takes no parameter"),
        ("exp_neg_ax", "exp_neg_ax needs a parameter"),
        ("exp_neg_ax:two", "must be a number"),
        ("exp_pos_x", "unknown closed form"),
    ])
    def test_closed_form_parameter(self, capsys, name, msg):
        rc, out, err = _run(capsys, "interp", "--input", str(DATA / "geometric.csv"),
                            "--normalization", "raw", "--closed-form", name,
                            "--kernel", "pi_csc", "--s", "0.3")
        assert rc == cli.EXIT_USAGE and out == ""
        assert err.startswith("error:") and msg in err

    @pytest.mark.parametrize("argv,msg", [
        (("mellin", "--kernel", "zeta", "--s", "0.3"),
         "no integral representation registered for 'zeta'"),
        (("interp", "--input", str(DATA / "geometric.csv"), "--normalization", "raw",
          "--closed-form", "exp_neg_x:2", "--kernel", "pi_csc", "--s", "0.3"),
         "closed form exp_neg_x takes no parameter"),
    ])
    def test_unknown_id_is_printed_unquoted(self, capsys, no_quadrature, argv, msg):
        rc, out, err = _run(capsys, *argv)
        assert rc == cli.EXIT_USAGE and out == ""
        assert err == f"error: {msg}\n"

    # radius 1 and no closed form: the integrand has no value past x = 1
    @pytest.mark.parametrize("argv", [
        ("mellin", "--kernel", "pi_csc_pow:3", "--coeff", "inv_gamma", "--s", "0.3"),
        ("mellin", "--kernel", "pi_csc", "--coeff", "sin_gamma", "--s", "0.3"),
        ("mellin", "--kernel", "gamma_squared", "--coeff", "inv_linear", "--s", "0.3"),
        ("conjecture", "--m", "3", "--g", "inv_gamma"),
    ])
    def test_pair_without_values_past_the_radius(self, capsys, no_quadrature, argv):
        rc, out, err = _run(capsys, *argv)
        assert rc == cli.EXIT_USAGE and out == ""
        assert err.startswith("error:") and "no closed form past its series radius" in err

    def test_conjecture_order_must_be_positive(self, capsys, no_quadrature):
        rc, out, err = _run(capsys, "conjecture", "--m", "0", "--g", "const_one")
        assert rc == cli.EXIT_USAGE and out == ""
        assert err == "error: conjecture order must be at least 1, got 0\n"


class TestParser:
    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_repeated_options_do_not_carry_over(self, capsys):
        # the parser is shared by every call: --s and --tol-override append
        # to a list that must start empty each time
        for s in ("0.3", "0.6"):
            rc, out, _ = _run(capsys, "mellin", "--kernel", "gamma", "--s", s)
            assert rc == cli.EXIT_PASS
            assert [doc["s_re"] for doc in _samples(out)] == [float(s)]
        parser = cli.build_parser()
        for item in ("gamma_bernoulli=1e-6", "k0_pi=1e-7"):
            args = parser.parse_args(["verify-all", "--tol-override", item])
            assert args.tol_override == [item]


class TestRepresentationStrip:
    @pytest.mark.parametrize("kernel,specs,bad", [
        ("pi_csc", ["0.5", "1.5"], "h(1.5)"),
        ("gamma", ["0.5", "-0.5"], "h(-0.5)"),
        ("gamma_cos_half", ["0.5+0.2i", "1.2"], "h(1.2)"),
        ("pi_csc_deriv:1", ["0.2:1.2:3"], "h(1.2)"),
        ("gamma_deriv:2", ["0"], "h(0.0)"),
    ])
    def test_mellin_kernel_outside_strip_fails_before_quadrature(
            self, capsys, no_quadrature, kernel, specs, bad):
        argv = ["mellin", "--kernel", kernel]
        for spec in specs:
            argv.append(f"--s={spec}")
        rc, out, err = _run(capsys, *argv)
        assert rc == cli.EXIT_USAGE and out == ""
        assert err.startswith("error:") and f"requested {bad}" in err

    @pytest.mark.parametrize("identity,specs", [
        ("k0_pi", []),  # the default s = 0.5 is k0_pi's lower strip edge
        ("pi_csc_geometric", ["0.5", "1.5"]),
        ("gamma_bernoulli", ["0.01"]),
    ])
    def test_mellin_identity_outside_strip_fails_before_quadrature(
            self, capsys, no_quadrature, identity, specs):
        argv = ["mellin", "--identity", identity] + [f"--s={spec}" for spec in specs]
        rc, out, err = _run(capsys, *argv)
        assert rc == cli.EXIT_USAGE and out == ""
        assert err.startswith("error:") and f"for identity {identity}" in err

    # with --coeff G, the g = 1 strip narrowed to Re(s) < G.delta
    @pytest.mark.parametrize("kernel,coeff,spec", [
        ("pi_csc", "const_one", "1.5"),
        ("pi_csc", "inv_gamma", "-0.2"),
        ("gamma", "power_a:2", "-0.2"),
        ("gamma", "inv_linear", "1.5"),
        ("gamma_squared", "sin_gamma", "-0.3+0.3i"),
    ])
    def test_mellin_coeff_outside_strip_fails_before_quadrature(
            self, capsys, no_quadrature, kernel, coeff, spec):
        rc, out, err = _run(capsys, "mellin", "--kernel", kernel, "--coeff", coeff,
                            "--s", "0.5", f"--s={spec}")
        assert rc == cli.EXIT_USAGE and out == ""
        assert err.startswith("error:") and "requested h(" in err

    def test_entire_coefficient_keeps_the_kernel_strip(self, capsys):
        # a^z is entire, so M[e^(-2x)](1.5) = Gamma(1.5) 2^(-1.5) is in reach
        rc, out, err = _run(capsys, "mellin", "--kernel", "gamma", "--coeff", "power_a:2",
                            "--s", "1.5", "--format", "json")
        assert rc == cli.EXIT_PASS and err == ""
        (smp,) = _samples(out)
        with mpmath.workdps(30):
            want = float(mpmath.gamma(1.5) * mpmath.mpf(2) ** -1.5)
        assert smp["lhs_im"] == 0.0
        assert abs(smp["lhs_re"] - want) <= 1e-10 * want

    def test_every_kernel_but_psi_has_a_strip(self):
        for kernel in ("gamma", "pi_csc", "gamma_squared", "gamma_cos_half",
                       "gamma_deriv:1", "pi_csc_deriv:2", "pi_csc_pow:3"):
            with pytest.raises(StripViolationError):
                harness.check_representable(kernel, 1.0 if "csc" in kernel
                                            or "cos" in kernel else -0.1)
        # psi's representation never converges: its transforms end in a
        # quadrature diagnostic (exit 3), not a strip error
        harness.check_representable("psi", 5.0)


def _samples(out):
    return json.loads(out)["cases"][0]["samples"]


class TestMellinRuns:
    @pytest.mark.parametrize("identity,s", [("gamma_bernoulli", "0.5"),
                                            ("k0_pi", "1.0")])
    def test_identity_keeps_the_evaluation_budget(self, capsys, identity, s):
        rc, out, err = _run(capsys, "mellin", "--identity", identity, "--s", s,
                            "--max-evals", "5")
        assert rc == cli.EXIT_NUMERIC and out == ""
        assert err == ("numeric failure: evaluation budget of 5 exhausted "
                       "without convergence\n")

    def test_psi_fails_fast(self, capsys, monkeypatch):
        # -1/(1 - x) is not integrable across x = 1: the lower piece stops
        # at level 0, where its nodes round onto the pole
        spent, raised = [], []
        spend = mellin._EvalBudget.spend
        monkeypatch.setattr(mellin._EvalBudget, "spend",
                            lambda budget, n=1: spent.append(n) or spend(budget, n))
        check = mellin._Piece._check_dropped

        def spy(piece, *args):
            try:
                check(piece, *args)
            except Exception as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(mellin._Piece, "_check_dropped", spy)
        rc, out, err = _run(capsys, "mellin", "--kernel", "psi", "--s", "0.35")
        assert rc == cli.EXIT_NUMERIC and out == ""
        assert [type(exc) for exc in raised] == [SingularIntegrandError]
        assert err.startswith("numeric failure: integrand is singular at x=1.0:")
        assert sum(spent) == mellin._node_table(mellin._lower_node, 0).x.size

    # --coeff takes the closed form and rule the registry gives the pair
    @pytest.mark.parametrize("kernel,coeff,identity", [
        ("gamma", "power_a:2", "gamma_scaled:2"),
        ("gamma_cos_half", "power_a:2", "cos_mellin:2"),
        ("gamma_squared", "sin_gamma", "gamma_sq_sin_gamma"),
    ])
    def test_coeff_runs_the_registered_identity_lhs(self, capsys, kernel, coeff,
                                                     identity):
        grid = [0.3, 0.55, 0.4 + 0.2j]
        tol = harness.get_case(identity).default_tol
        rc, out, _ = _run(capsys, "mellin", "--kernel", kernel, "--coeff", coeff,
                          "--s", "0.3", "--s", "0.55", "--s", "0.4+0.2i",
                          "--tol", repr(tol))
        assert rc == cli.EXIT_PASS
        want = {smp.s: smp for smp in harness.verify(identity, s_grid=grid, tol=tol).samples}
        for s, doc in zip(grid, _samples(out)):
            smp = want[s]
            assert (complex(doc["lhs_re"], doc["lhs_im"]), doc["err_abs"],
                    doc["n_evals"]) == (smp.lhs, smp.err_abs, smp.n_evals), s

    def test_overflowing_s_prints_only_its_diagnostic(self, capsys, recwarn):
        # (s - 1) log x overflows at |s| ~ 1e308; numpy warns of nothing
        rc, out, err = _run(capsys, "mellin", "--kernel", "gamma", "--s", "1e308")
        assert rc == cli.EXIT_NUMERIC and out == ""
        assert err == ("numeric failure: integrand contribution overflows at x=2.0; "
                       "the transform diverges at this s\n")
        assert not recwarn.list

    def test_conjecture_runs_past_order_four(self, capsys):
        rc, out, err = _run(capsys, "conjecture", "--m", "5", "--g", "const_one",
                            "--s", "0.3", "--tol", "1e-8")
        assert rc == cli.EXIT_PASS and err == ""
        assert json.loads(out)["cases"][0]["id"] == "conjecture:m=5:const_one"

    def test_coeff_pi_csc_inv_gamma_matches_mpmath(self, capsys):
        grid = [0.3, 0.55, 0.4 + 0.2j]
        rc, out, _ = _run(capsys, "mellin", "--kernel", "pi_csc", "--coeff",
                          "inv_gamma", "--s", "0.3", "--s", "0.55", "--s", "0.4+0.2i")
        assert rc == cli.EXIT_PASS
        for s, doc in zip(grid, _samples(out)):
            with mpmath.workdps(30):
                t = mpmath.mpc(s)
                want = complex(mpmath.pi / (mpmath.sin(mpmath.pi * t)
                                            * mpmath.gamma(1 - t)))
            got = complex(doc["lhs_re"], doc["lhs_im"])
            assert abs(got - want) <= 1e-12 * abs(want), s


def test_default_verify_all_json_is_byte_stable(capsys):
    # every byte is pinned; the digamma_corollary samples carry the
    # diagnostic of the pole at x = 1, from level 0
    rc, out, err = _run(capsys, "verify-all", "--format", "json")
    assert rc == cli.EXIT_PASS and err == ""
    assert out == (DATA / "verify_all.json").read_text()


_GOLDEN = {
    "list": ["list"],
    "mellin_gamma_power_a2": ["mellin", "--kernel", "gamma", "--coeff", "power_a:2",
                              "--s", "0.3", "--s", "0.4+0.2i"],
    "props_gamma_logconvexity": ["props", "--kernel", "gamma", "--check",
                                 "logconvexity"],
    "props_gamma_supermultiplicative": ["props", "--kernel", "gamma", "--check",
                                        "supermultiplicative"],
    "props_gamma_weight": ["props", "--kernel", "gamma", "--check", "weight"],
    "interp_inv_one_plus_x": ["interp", "--input", str(DATA / "geometric.csv"),
                              "--normalization", "raw", "--closed-form",
                              "inv_one_plus_x", "--kernel", "pi_csc",
                              "--s", "0.3", "--s", "0.6+0.1i"],
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_default_json_report_is_byte_stable(capsys, name):
    # every byte of each report is pinned by tests/data/<name>.json
    rc, out, err = _run(capsys, *_GOLDEN[name])
    assert rc == cli.EXIT_PASS and err == ""
    assert out == (DATA / f"{name}.json").read_text()
