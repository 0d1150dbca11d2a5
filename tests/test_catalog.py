"""Tests for the kernel / coefficient registries."""

import cmath
import math

import mpmath
import pytest

from mellinkit import catalog, specfun
from mellinkit.catalog import coefficient, kernel
from mellinkit.errors import UnknownIdError

PI = math.pi

ALL_KERNELS = [
    "pi_csc", "gamma", "psi", "gamma_cos_half",
    "gamma_squared", "gamma_deriv:1", "gamma_deriv:2",
    "pi_csc_deriv:1", "pi_csc_pow:2", "pi_csc_pow:3",
]


def _mp_kernel(kid, t):
    """The kernel at the mpmath number t, from mpmath's own functions."""
    csc = mpmath.pi / mpmath.sin(mpmath.pi * t)
    if kid == "pi_csc_deriv:1":
        return -csc * csc * mpmath.cos(mpmath.pi * t)
    if kid.startswith("pi_csc"):
        return csc ** (int(kid.split(":")[1]) if ":" in kid else 1)
    psi = mpmath.digamma(t)
    return {
        "gamma": lambda: mpmath.gamma(t),
        "psi": lambda: psi,
        "gamma_cos_half": lambda: mpmath.gamma(t) * mpmath.cos(mpmath.pi * t / 2),
        "gamma_squared": lambda: mpmath.gamma(t) ** 2,
        "gamma_deriv:1": lambda: mpmath.gamma(t) * psi,
        "gamma_deriv:2": lambda: mpmath.gamma(t) * (psi ** 2 + mpmath.psi(1, t)),
    }[kid]()


ALL_COEFFS = ["const_one", "power_a:2", "power_a:0.5",
              "inv_gamma", "sin_gamma", "inv_linear"]


class TestKernelRegistry:
    def test_pi_csc_residues(self):
        k = kernel("pi_csc")
        assert k.principal_part(3).residue == -1.0
        assert k.principal_part(0).residue == 1.0

    def test_gamma_cos_half_pole_gaps(self):
        k = kernel("gamma_cos_half")
        assert k.principal_part(1).order == 0
        assert k.principal_part(3).order == 0
        pp = k.principal_part(4)
        assert pp.order == 1
        assert pp.residue == pytest.approx(1.0 / math.factorial(4), rel=1e-14)
        assert k.principal_part(2).residue == pytest.approx(-0.5, rel=1e-14)

    def test_psi_residue_convention(self):
        # stored as the standard Laurent expansion psi(z) ~ -1/(z+k)
        k = kernel("psi")
        for n in (0, 1, 4):
            assert k.principal_part(n).residue == -1.0

    def test_gamma_squared_principal_part(self):
        k = kernel("gamma_squared")
        for n in (0, 1, 3, 6):
            pp = k.principal_part(n)
            fk2 = math.factorial(n) ** 2
            assert pp.order == 2
            assert pp.coeffs[1] == pytest.approx(1.0 / fk2, rel=1e-13)
            want_c1 = 2.0 * (specfun.harmonic(n) - specfun.EULER_GAMMA) / fk2
            assert pp.coeffs[0] == pytest.approx(want_c1, rel=1e-13)

    def test_derivative_kernel_principal_parts(self):
        k = kernel("gamma_deriv:2")
        pp = k.principal_part(1)
        assert pp.order == 3
        assert pp.coeffs[0] == 0.0 and pp.coeffs[1] == 0.0
        # c_{-3} = (-1)^2 2! * Res_{-1}(Gamma) = 2 * (-1)
        assert pp.coeffs[2] == pytest.approx(-2.0, rel=1e-14)
        # m = 0 falls back to the base kernel
        assert kernel("gamma_deriv:0").id == "gamma"
        assert kernel("pi_csc_pow:1").id == "pi_csc"

    def test_unknown_ids(self):
        with pytest.raises(UnknownIdError):
            kernel("zeta")
        with pytest.raises(UnknownIdError):
            kernel("gamma_deriv")
        with pytest.raises(UnknownIdError):
            kernel("gamma_deriv:x")
        with pytest.raises(UnknownIdError):
            coefficient("nope")
        with pytest.raises(UnknownIdError):
            coefficient("power_a:-1")


class TestKernelInvariants:
    @pytest.mark.parametrize("kid", ALL_KERNELS)
    def test_eval_on_left_half_plane_matches_mpmath(self, kid):
        # off the poles, at distance > 0.1 from the integers
        k = kernel(kid)
        for z in (0.35, 1.62, 3.5, 0.4 + 0.3j):
            got = complex(k.eval(-complex(z)))
            with mpmath.workdps(30):
                want = complex(_mp_kernel(kid, -mpmath.mpc(z)))
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (kid, z)

    @pytest.mark.parametrize("kid", ALL_KERNELS)
    def test_pole_order_and_leading_coefficient_match_mpmath(self, kid):
        # eps^order h(-n + eps) tends to the leading principal coefficient;
        # a pole of higher order than recorded would make it blow up
        k = kernel(kid)
        eps = mpmath.mpf("1e-12")
        for n in range(6):
            pp = k.principal_part(n)
            with mpmath.workdps(40):
                scaled = complex(eps ** max(pp.order, 1) * _mp_kernel(kid, -n + eps))
            if pp.order == 0:
                assert abs(scaled) <= 1e-9, (kid, n)
            else:
                lead = pp.coeffs[pp.order - 1]
                assert abs(scaled - lead) <= 1e-9 * abs(lead), (kid, n)

    @pytest.mark.parametrize("kid", ALL_KERNELS)
    def test_laurent_reconstruction_on_ring(self, kid):
        # eval minus the principal part is analytic near each pole: fitting
        # the smooth remainder on the ring |z+k| = 0.1 by its mean plus first
        # Fourier modes reproduces eval to 1e-8
        k = kernel(kid)
        for n in range(7):
            pp = k.principal_part(n)
            m_ring = 64
            remainders = []
            for j in range(m_ring):
                w = 0.1 * cmath.exp(2j * math.pi * j / m_ring)
                princ = sum(pp.coeffs[i] * w ** (-(i + 1)) for i in range(pp.order))
                remainders.append(k.eval(-n + w) - princ)
            # the remainder is analytic inside the ring, so its discrete
            # Cauchy integral reproduces it at an interior probe point
            probe_off = 0.05
            acc = 0j
            for j in range(m_ring):
                w = 0.1 * cmath.exp(2j * math.pi * j / m_ring)
                acc += remainders[j] * w / (w - probe_off)
            rem_probe = acc / m_ring
            princ_probe = sum(pp.coeffs[i] * probe_off ** (-(i + 1))
                              for i in range(pp.order))
            direct = k.eval(-n + probe_off)
            recon = rem_probe + princ_probe
            assert abs(recon - direct) <= 1e-8 * max(1.0, abs(direct)), (kid, n)


class TestCoefficients:
    def test_const_one_jet(self):
        g = coefficient("const_one")
        assert g.jet(5, 3).derivs == (1.0, 0.0, 0.0, 0.0)

    def test_power_a_eval(self):
        g = coefficient("power_a:2")
        assert g.eval(-0.5) == pytest.approx(2.0 ** -0.5, rel=1e-15)
        assert complex(g.eval(1j)) == pytest.approx(cmath.exp(1j * math.log(2.0)))

    def test_sin_gamma_jet_values(self):
        g = coefficient("sin_gamma")
        for k in (0, 1, 3):
            j = g.jet(k, 1)
            assert abs(j.derivs[0]) < 1e-12
            assert j.derivs[1] == pytest.approx(
                PI * (-1.0) ** k * math.factorial(k), rel=1e-13)

    @pytest.mark.parametrize("cid", ALL_COEFFS)
    def test_jet_value_matches_eval(self, cid):
        g = coefficient(cid)
        for k in range(6):
            assert abs(g.jet(k, 0).derivs[0] - g.eval(float(k))) <= 1e-12 * max(
                1.0, abs(g.eval(float(k))))

    @pytest.mark.parametrize("cid", ALL_COEFFS)
    def test_jets_match_finite_differences(self, cid):
        # Richardson-extrapolated central differences of eval on the real axis
        from conftest import richardson_fd
        g = coefficient(cid)
        f = lambda t: g.eval(t)
        for k in range(6):
            jet = g.jet(k, 3)
            fd1 = richardson_fd(f, float(k), 1)
            fd2 = richardson_fd(f, float(k), 2)
            h = 1e-3
            fd3 = (f(k + 2 * h) - 2 * f(k + h) + 2 * f(k - h) - f(k - 2 * h)) / (2 * h ** 3)
            assert abs(jet.derivs[1] - fd1) <= 1e-6 * max(1.0, abs(fd1)), (cid, k)
            assert abs(jet.derivs[2] - fd2) <= 1e-5 * max(1.0, abs(fd2)), (cid, k)
            assert abs(jet.derivs[3] - fd3) <= 1e-4 * max(1.0, abs(fd3)), (cid, k)

    # the mpmath definitions of the coefficients, written independently
    MP_COEFFS = {
        "const_one": lambda z: mpmath.mpf(1),
        "power_a:2": lambda z: mpmath.mpf(2) ** z,
        "power_a:0.5": lambda z: mpmath.mpf(0.5) ** z,
        "inv_gamma": lambda z: mpmath.rgamma(1 + z),
        "sin_gamma": lambda z: mpmath.pi * z * mpmath.rgamma(1 - z),
        "inv_linear": lambda z: 1 / (z + 1),
    }

    @pytest.mark.parametrize("cid", ALL_COEFFS)
    def test_delta_is_the_half_plane_of_analyticity(self, cid):
        # entire coefficients have delta = inf and match their definition
        # far to the left; 1/(z + 1) stops at its pole z = -1
        g = coefficient(cid)
        if cid == "inv_linear":
            assert g.delta == 1.0
            assert abs(g.eval(-1.0 + 1e-9)) > 1e8
            return
        assert g.delta == math.inf
        with mpmath.workdps(30):
            for z in (-0.5, -1.3, -2.7, -3.5 + 0.4j):
                want = complex(self.MP_COEFFS[cid](mpmath.mpmathify(z)))
                assert abs(g.eval(z) - want) <= 1e-12 * max(1.0, abs(want)), z


class TestCompose:
    def test_scaled_jet_linearity(self):
        g = coefficient("inv_linear")
        sg = catalog.scaled(3.0, g)
        for k in (0, 4):
            got = sg.jet(k, 3).derivs
            want = tuple(3.0 * v for v in g.jet(k, 3).derivs)
            assert got == want
        assert sg.eval(1.0) == pytest.approx(1.5, rel=1e-15)

    def test_id_listings(self):
        assert "gamma" in catalog.kernel_ids()
        assert "const_one" in catalog.coefficient_ids()
