"""Tests for sequence interpolation and the inequality property checks."""

import json
import math

import pytest

from mellinkit import interp, specfun
from mellinkit.errors import (KernelZeroError, StripViolationError,
                              TailCertificationError, UnknownIdError)

PI = math.pi


def seq_powers(a: float, n: int = 20) -> interp.SequenceData:
    return interp.SequenceData(tuple(a ** k for k in range(n)), "factorial",
                               interp.closed_form(f"exp_neg_ax:{a:g}"))


class TestSequenceData:
    def test_validation(self):
        with pytest.raises(ValueError):
            interp.SequenceData((1.0, 2.0), "factorial")
        with pytest.raises(ValueError):
            interp.SequenceData((1.0,) * 6, "weird")
        with pytest.raises(ValueError):
            interp.SequenceData((1.0, 1.0, float("nan"), 1.0, 1.0), "raw")

    def test_head_partial_sums(self):
        seq = interp.SequenceData((1.0, 1.0, 1.0, 1.0, 1.0), "raw")
        assert seq.head(0.5) == pytest.approx(1 - 0.5 + 0.25 - 0.125 + 0.0625)
        seqf = interp.SequenceData((1.0, 1.0, 1.0, 1.0, 1.0), "factorial")
        assert seqf.head(1.0, 3) == pytest.approx(1.0 - 1.0 + 0.5)

    def test_csv_roundtrip(self, tmp_path):
        p = tmp_path / "seq.csv"
        p.write_text("k,c_k\n" + "\n".join(f"{k},{2.0 ** k}" for k in range(8)) + "\n")
        seq = interp.sequence_from_csv(p, "factorial", "exp_neg_ax:2")
        assert seq.values[3] == 8.0
        assert seq.closed_form(0.5) == pytest.approx(math.exp(-1.0))

    def test_csv_header_required(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("0,1.0\n1,2.0\n")
        with pytest.raises(ValueError):
            interp.sequence_from_csv(p, "raw")

    def test_json_document(self, tmp_path):
        doc = {"values": [1.0] * 8, "normalization": "raw",
               "closed_form": "inv_one_plus_x"}
        p = tmp_path / "seq.json"
        p.write_text(json.dumps(doc))
        seq = interp.sequence_from_json(p)
        assert seq.normalization == "raw"
        assert seq.closed_form(1.0) == 0.5

    def test_unknown_closed_form(self):
        with pytest.raises(UnknownIdError):
            interp.closed_form("mystery_fn")


class TestInterpolate:
    def test_constant_sequence_is_identity_coefficient(self):
        seq = interp.SequenceData((1.0,) * 12, "factorial",
                                  interp.closed_form("exp_neg_x"))
        for s in (0.25, 0.6):
            assert interp.interpolate(seq, "gamma", s, tol=1e-9) == \
                pytest.approx(1.0, rel=1e-8)

    def test_doubling_sequence_roundtrip(self):
        # the uniqueness-consistency check: two independent routes to 2^{-s}
        seq = seq_powers(2.0)
        for s in (0.1, 0.3, 0.5, 0.7, 0.9):
            got = interp.interpolate(seq, "gamma", s, tol=1e-9)
            assert abs(got - 2.0 ** (-s)) <= 1e-7, s

    def test_factorial_sequence_extends_to_gamma(self):
        # c_k = k! under factorial normalization sums to 1/(1+x); the
        # interpolated extension is Gamma(1-s) (= sqrt(pi) at s = 1/2)
        seq = interp.SequenceData(
            tuple(float(math.factorial(k)) for k in range(10)), "factorial",
            interp.closed_form("inv_one_plus_x"))
        got = interp.interpolate(seq, "gamma", 0.5, tol=1e-9)
        assert got == pytest.approx(math.sqrt(PI), rel=1e-9)

    def test_raw_sequence_with_pi_csc(self):
        seq = interp.SequenceData((1.0,) * 12, "raw",
                                  interp.closed_form("inv_one_plus_x"))
        assert interp.interpolate(seq, "pi_csc", 0.5, tol=1e-9) == \
            pytest.approx(1.0, rel=1e-9)

    def test_known_g_roundtrip(self):
        # c_k = 1/(k+1) raw sums to log(1+x)/x and extends to 1/(1-s)
        seq = interp.SequenceData(tuple(1.0 / (k + 1) for k in range(12)), "raw",
                                  interp.closed_form("log1p_over_x"))
        tol = 1e-8
        for s in (0.2, 0.5, 0.8):
            got = interp.interpolate(seq, "pi_csc", s, tol=tol)
            assert abs(got - 1.0 / (1.0 - s)) <= 10.0 * tol, s

    def test_certified_tail_path(self):
        # enough factorial coefficients certify the truncated series with no
        # closed form at all
        seq = interp.SequenceData((1.0,) * 81, "factorial")
        got = interp.interpolate(seq, "gamma", 0.4, tol=1e-7)
        assert got == pytest.approx(1.0, abs=1e-6)

    def test_uncertifiable_sequences_rejected(self):
        with pytest.raises(TailCertificationError):
            interp.interpolate(interp.SequenceData((1.0,) * 10, "raw"),
                               "pi_csc", 0.5)
        with pytest.raises(TailCertificationError):
            # fast growth, few terms: the truncation cannot be certified
            interp.interpolate(
                interp.SequenceData(tuple(5.0 ** k for k in range(8)), "factorial"),
                "gamma", 0.5, tol=1e-8)

    def test_mislabeled_closed_form_rejected(self):
        seq = interp.SequenceData((1.0,) * 12, "factorial",
                                  interp.closed_form("inv_one_plus_x"))
        with pytest.raises(TailCertificationError):
            interp.interpolate(seq, "gamma", 0.5)

    def test_strip_validation(self):
        seq = seq_powers(2.0)
        with pytest.raises(StripViolationError):
            interp.interpolate(seq, "gamma", 1.4)

    def test_kernel_zero(self):
        seq = seq_powers(2.0)
        # d/ds (pi/sin(pi s)) vanishes at s = 1/2
        with pytest.raises(KernelZeroError):
            interp.interpolate(seq, "pi_csc_deriv:1", 0.5)


class TestInterpolateExtended:
    def test_constant_sequence_extended_region(self):
        seq = interp.SequenceData((1.0,) * 12, "raw",
                                  interp.closed_form("inv_one_plus_x"))
        got = interp.interpolate_extended(seq, "pi_csc", 1, -0.5, tol=1e-8)
        assert abs(got - 1.0) <= 1e-6

    def test_complex_point(self):
        seq = interp.SequenceData((1.0,) * 12, "raw",
                                  interp.closed_form("inv_one_plus_x"))
        got = interp.interpolate_extended(seq, "pi_csc", 1,
                                          complex(-0.5, 0.1), tol=1e-8)
        assert abs(got - 1.0) <= 1e-6

    def test_degenerate_depth_matches_interpolate(self):
        seq = seq_powers(2.0)
        a = interp.interpolate_extended(seq, "gamma", 0, 0.5, tol=1e-9)
        b = interp.interpolate(seq, "gamma", 0.5, tol=1e-9)
        assert a == b

    def test_strip_and_requirements(self):
        seq = interp.SequenceData((1.0,) * 12, "raw",
                                  interp.closed_form("inv_one_plus_x"))
        with pytest.raises(StripViolationError):
            interp.interpolate_extended(seq, "pi_csc", 1, 0.5)
        with pytest.raises(TailCertificationError):
            interp.interpolate_extended(
                interp.SequenceData((1.0,) * 12, "factorial"), "gamma", 1, -0.5)


class TestPropertyChecks:
    def test_logconvexity_gamma_grid(self):
        rep = interp.check_logconvexity("gamma", interp.grid_pairs(), tol=1e-9)
        assert rep.passed
        assert rep.min_margin >= -1e-9

    def test_logconvexity_equality_at_equal_arguments(self):
        rep = interp.check_logconvexity("gamma", [(1.5, 1.5, 0.3)], tol=1e-9)
        assert rep.min_margin == 0.0

    def test_logconvexity_strict_case(self):
        # sqrt(Gamma(0.5) Gamma(2.5)) - Gamma(1.5) ~ 0.649 > 0
        rep = interp.check_logconvexity("gamma", [(0.5, 2.5, 0.5)], tol=1e-9)
        want = math.sqrt(specfun.gamma(0.5) * specfun.gamma(2.5)) - specfun.gamma(1.5)
        assert rep.min_margin == pytest.approx(want, rel=1e-7)

    def test_logconvexity_gamma_squared_pair(self):
        rep = interp.check_logconvexity("gamma_squared", [(0.5, 1.5, 0.5)],
                                        tol=1e-9)
        assert rep.passed and rep.min_margin > 0.0

    def test_supermultiplicative_gamma(self):
        for m in (0.5, 1.0):
            rep = interp.check_supermultiplicative("gamma", m,
                                                   interp.grid_pairs_xy(), tol=1e-9)
            assert rep.passed, m

    def test_supermultiplicative_unit_case(self):
        # h_1(2) - h_1(1)^2 = Gamma(3) - Gamma(2)^2 = 1
        rep = interp.check_supermultiplicative("gamma", 1.0, [(1.0, 1.0)],
                                               tol=1e-9)
        assert rep.min_margin == pytest.approx(1.0, rel=1e-7)

    def test_zero_argument_margin_vanishes(self):
        rep = interp.check_supermultiplicative("gamma", 1.0, [(0.0, 1.3)],
                                               tol=1e-12)
        assert rep.min_margin == pytest.approx(0.0, abs=1e-12)

    def test_margin_scaling_invariance(self):
        # rescaling h by c > 0 scales log-convexity margins by c and leaves
        # the argmin unchanged
        from mellinkit.interp import _logconvexity_margins
        h = lambda t: specfun.gamma(t)
        h2 = lambda t: 2.0 * specfun.gamma(t)
        pairs = interp.grid_pairs(n=3)
        base = _logconvexity_margins(h, pairs)
        scaled = _logconvexity_margins(h2, pairs)
        argmin_base = min(base, key=lambda e: e.margin).point
        argmin_scaled = min(scaled, key=lambda e: e.margin).point
        assert argmin_base == argmin_scaled
        for eb, es in zip(base, scaled):
            assert es.margin == pytest.approx(2.0 * eb.margin, abs=1e-10)

    def test_weight_nonnegativity(self):
        for kid in ("gamma", "gamma_squared", "pi_csc"):
            rep = interp.check_weight_nonneg(kid)
            assert rep.nonnegative, kid
            assert rep.min_weight >= -1e-12

    def test_representable_range_enforced(self):
        with pytest.raises(StripViolationError):
            interp.check_supermultiplicative("pi_csc", 1.0, [(1.0, 1.0)])

    def test_validation(self):
        with pytest.raises(ValueError):
            interp.check_supermultiplicative("gamma", 0.0, [(1.0, 1.0)])
        with pytest.raises(ValueError):
            interp.check_logconvexity("gamma", [(1.0, -1.0, 0.5)])
