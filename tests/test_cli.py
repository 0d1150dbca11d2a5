"""Tests for the command-line surface: usage errors exit 2 before any work,
`mellin` runs take their handle and budget from the registry, and the
default `verify-all` report is byte-stable."""

import json
import pathlib

import mpmath
import pytest

from mellinkit import cli, harness, mellin
from mellinkit.errors import StripViolationError

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
        ("gamma", "power_a:2", "1.5"),
        ("gamma_squared", "sin_gamma", "1.2+0.3i"),
    ])
    def test_mellin_coeff_outside_strip_fails_before_quadrature(
            self, capsys, no_quadrature, kernel, coeff, spec):
        rc, out, err = _run(capsys, "mellin", "--kernel", kernel, "--coeff", coeff,
                            "--s", "0.5", f"--s={spec}")
        assert rc == cli.EXIT_USAGE and out == ""
        assert err.startswith("error:") and "requested h(" in err

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
        # -1/(1 - x) is not integrable across x = 1: the stall rule ends the
        # lower piece at level 9
        spent = []
        spend = mellin._EvalBudget.spend
        monkeypatch.setattr(mellin._EvalBudget, "spend",
                            lambda budget, n=1: spent.append(n) or spend(budget, n))
        rc, out, err = _run(capsys, "mellin", "--kernel", "psi", "--s", "0.35")
        assert rc == cli.EXIT_NUMERIC and out == ""
        assert err.startswith("numeric failure: quadrature did not stabilize")
        n_max = sum(mellin._node_table(mellin._lower_node, k).x.size
                    for k in range(10))
        assert 0 < sum(spent) <= n_max

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
    # every byte is pinned; the digamma_corollary samples carry the stall
    # rule's diagnostic from level 9
    rc, out, err = _run(capsys, "verify-all", "--format", "json")
    assert rc == cli.EXIT_PASS and err == ""
    assert out == (DATA / "verify_all.json").read_text()
