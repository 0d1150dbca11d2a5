"""Shared test helpers: independent numeric oracles, and a spy on the
quadrature's integrand values."""

import cmath
import math

import pytest
from hypothesis import settings

from mellinkit import mellin
from mellinkit.jets import eval_row

# quadrature time varies from run to run, and every run draws the same
# examples
settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")


def contour_residue(h_eval, g_eval, k, x, radius=0.3, n=512):
    """Residue of h(z) g(-z) x^{-z} at z = -k by the trapezoid rule on a
    small circle. Independent of the principal-part machinery under test;
    the trapezoid rule converges geometrically on a circle.
    """
    acc = 0j
    lx = math.log(x)
    for j in range(n):
        theta = 2.0 * math.pi * j / n
        z = -k + radius * cmath.exp(1j * theta)
        acc += h_eval(z) * g_eval(-z) * cmath.exp(-z * lx) * (z + k)
    return acc / n


def row_value(row, x, k):
    """x^k sum_p row[p] (log x)^p: the summand at x > 0 that a row of the
    series (``jets.residue_row``/``shift_row``) stands for."""
    return eval_row(row, math.log(x)) * x ** k


def richardson_fd(f, s, order, h0=1e-2, levels=4):
    """Central finite differences with Richardson extrapolation (test oracle)."""
    def fd(h):
        if order == 1:
            return (f(s + h) - f(s - h)) / (2.0 * h)
        if order == 2:
            return (f(s + h) - 2.0 * f(s) + f(s - h)) / (h * h)
        raise ValueError(order)

    vals = []
    h = h0
    for _ in range(levels):
        vals.append(fd(h))
        h *= 0.5
    for step in (4.0, 16.0, 64.0):
        if len(vals) < 2:
            break
        vals = [(step * vals[i + 1] - vals[i]) / (step - 1.0)
                for i in range(len(vals) - 1)]
    return vals[0]


@pytest.fixture
def residue_oracle():
    return contour_residue


@pytest.fixture
def calls_by_table(monkeypatch):
    """node table -> the abscissae at which the integrand was called, in
    call order, while a run filled that table's values (every run of the
    test; clear it between runs)."""
    calls = {}
    fill = mellin._Values.fill

    def spy(values, f, lv):
        xs = calls.setdefault(lv, [])

        def counted(x):
            xs.append(x)
            return f(x)

        return fill(values, counted, lv)

    monkeypatch.setattr(mellin._Values, "fill", spy)
    return calls


# ---------------------------------------------------------------------------
# acceptance reporting: one pass/fail line per criterion at session end

_acceptance_results = []


def record_acceptance(number: int, description: str, passed: bool):
    _acceptance_results.append((number, description, passed))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number, description, passed in sorted(_acceptance_results):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d} [{status}] {description}")
