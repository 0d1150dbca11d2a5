"""Tests for the command-line surface: usage errors exit 2 before any work."""

import pytest

from mellinkit import cli, harness, mellin
from mellinkit.errors import StripViolationError


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

    def test_every_kernel_but_psi_has_a_strip(self):
        for kernel in ("gamma", "pi_csc", "gamma_squared", "gamma_cos_half",
                       "gamma_deriv:1", "pi_csc_deriv:2", "pi_csc_pow:3"):
            with pytest.raises(StripViolationError):
                harness.check_representable(kernel, 1.0 if "csc" in kernel
                                            or "cos" in kernel else -0.1)
        # psi's representation never converges: its transforms end in a
        # quadrature diagnostic (exit 3), not a strip error
        harness.check_representable("psi", 5.0)
